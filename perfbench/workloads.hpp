// The benchmark's workloads and the per-layer measurements they share.
//
// Every workload runs the same configuration: the paper's RL GPU-hybrid
// options (bench::gpu_options(kRL, kStreamed): dataset device capacity,
// threshold 60k) with 4 CPU workers, and service workloads on a 3-thread
// crew (crew + calling thread = 4 threads). Inputs come only from the seed:
// each op factors the workload's fixed sparsity pattern with new values
// and solves new right-hand sides.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "spchol/spchol.hpp"
#include "trace.hpp"

namespace perfbench {

/// Relative residual ‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞) above which an op fails.
inline constexpr double kResidualTolerance = 1e-12;

spchol::SolverOptions solver_options();
spchol::ServiceOptions service_options();

/// One closed-loop client. setup() and op() are timed; everything else runs
/// outside the timed region.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Drops the previous client (untimed), then builds a new one from
  /// scratch and runs the first, cold op on the set-up inputs. Returns the
  /// seconds from service or solver construction to the end of that op.
  virtual double setup(Tracer& tr) = 0;
  /// Draws the next op's values and right-hand sides (untimed).
  virtual void next_inputs() = 0;
  /// The timed op.
  virtual void op(Tracer& tr) = 0;
  /// Residual check of the last op or set-up; updates worst_residual().
  virtual bool check_last() = 0;
  /// Once-per-run correctness check after the loop (untimed).
  virtual bool final_check() { return true; }
  /// Traced runs: per-layer calls the op does not make itself, recorded
  /// as Phase::kExtra spans after the loop.
  virtual void trace_extras(Tracer& tr) = 0;

  /// Cache hits over session requests; 0 for workloads without a service.
  virtual double cache_hit_ratio() const { return 0.0; }
  /// Structure of the workload's (fixed) sparsity pattern.
  virtual const spchol::SymbolicFactor& symbolic() const = 0;

  double worst_residual() const noexcept { return worst_residual_; }

 protected:
  bool residual_ok(const spchol::CscMatrix& a, std::span<const double> x,
                   std::span<const double> b);

 private:
  double worst_residual_ = 0.0;
};

/// Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Single-threaded dense-kernel rates at one front shape.
struct DenseRate {
  const char* kernel;
  double gflops = 0.0;          ///< median over repetitions
  double flops_per_byte = 0.0;  ///< computed operand traffic, not measured
};

/// Times dense::potrf/trsm/syrk/gemm single-threaded at the shape of the
/// largest front of `symb` that has a below-diagonal block (the kkt_*
/// pattern's front that dominates its update work).
std::vector<DenseRate> dense_rates(const spchol::SymbolicFactor& symb,
                                   Tracer& tr);

/// Symbolic factor of the nlpkkt80 analog (the kkt_* pattern).
spchol::SymbolicFactor kkt_symbolic();

}  // namespace perfbench
