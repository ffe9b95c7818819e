#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common.hpp"
#include "spchol/core/internal.hpp"
#include "spchol/dense/kernels.hpp"
#include "spchol/support/rng.hpp"

namespace perfbench {

using namespace spchol;

SolverOptions solver_options() {
  SolverOptions so;
  so.factor = bench::gpu_options(Method::kRL, RlbVariant::kStreamed);
  so.factor.cpu_workers = 4;
  so.solve.workers = 4;
  return so;
}

ServiceOptions service_options() {
  ServiceOptions svc;
  svc.solver = solver_options();
  svc.runtime.device = svc.solver.factor.device;
  svc.runtime.workers = 3;  // crew + the requesting thread = 4 threads
  return svc;
}

bool Workload::residual_ok(const CscMatrix& a, std::span<const double> x,
                           std::span<const double> b) {
  const double r = relative_residual(a, x, b);
  worst_residual_ = std::max(worst_residual_, r);
  return r <= kResidualTolerance;  // false for NaN
}

namespace {

constexpr int kSolveColumns = 32;  // right-hand sides per kkt_solve op

/// Same pattern, new values: off-diagonals shrink by a random factor in
/// [0.5, 1] and the diagonal grows by up to 0.5, so the generators'
/// strict diagonal dominance (hence SPD) is preserved.
CscMatrix perturbed(const CscMatrix& a0, Rng& rng) {
  CscMatrix a = a0;
  std::vector<double>& v = a.mutable_values();
  for (index_t j = 0; j < a.cols(); ++j) {
    const auto rows = a.col_rows(j);
    const offset_t base = a.colptr()[j];
    for (std::size_t k = 0; k < rows.size(); ++k) {
      double& x = v[static_cast<std::size_t>(base) + k];
      x = rows[k] == j ? x + rng.uniform(0.0, 0.5) : x * rng.uniform(0.5, 1.0);
    }
  }
  return a;
}

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> b(n);
  for (double& x : b) x = rng.uniform(-1.0, 1.0);
  return b;
}

/// The library's own plan builder (subtree partition, device marks, then
/// ExecutionPlan::build) under the benchmark's options and worker count.
void traced_plan_build(const SymbolicFactor& symb, Tracer& tr) {
  const FactorOptions o = solver_options().factor;
  auto span = tr.scope("symbolic.plan_build");
  const detail::PlannedGraph pg = detail::build_planned_graph(
      symb, o, static_cast<std::size_t>(o.cpu_workers));
  (void)pg;
}

/// The per-call pipeline CholeskySolver runs (ordering, symbolic analysis,
/// numeric factorization, solve), called layer by layer with one span per
/// call. Returns the symbolic factor it built.
SymbolicFactor traced_pipeline(const CscMatrix& a, std::span<const double> b,
                               std::vector<double>& x, Tracer& tr) {
  const SolverOptions so = solver_options();
  auto order = tr.scope("graph.order");
  const Permutation fill = compute_ordering(a, so.ordering_opts);
  order.close();
  auto analyze = tr.scope("symbolic.analyze");
  SymbolicFactor symb = SymbolicFactor::analyze(a, fill, so.analyze);
  analyze.close();
  auto factorize = tr.scope("core.factorize");
  const CholeskyFactor factor = CholeskyFactor::factorize(a, symb, so.factor);
  tr.record_factor(factor.stats(), factorize.close());
  auto solve = tr.scope("core.solve");
  x.assign(b.size(), 0.0);
  factor.solve_multi(b, x, 1, so.solve);
  return symb;
}

/// SolverSession::factorize inside a core.factorize span, recording the
/// factorization's stats when traced.
void traced_factorize(SolverSession& session, const CscMatrix& a,
                      Tracer& tr) {
  auto span = tr.scope("core.factorize");
  session.factorize(a);
  const double seconds = span.close();
  if (tr.enabled()) tr.record_factor(session.stats().last_factor, seconds);
}

double hit_ratio(const SolverService& service) {
  const ServiceStats s = service.stats();
  return s.requests == 0 ? 0.0
                         : static_cast<double>(s.cache_hits) /
                               static_cast<double>(s.requests);
}

/// A workload whose every op factors new values of one pattern and solves
/// one new right-hand side; set-up runs the same op on its own inputs.
class Refactorize : public Workload {
 public:
  Refactorize(const char* matrix, std::uint64_t seed)
      : rng_(seed), a0_(dataset_entry(matrix).make()), setup_(draw()) {}

  double setup(Tracer& tr) override {
    drop();
    const double t0 = tr.now();
    construct();
    run(setup_, tr);
    last_ = &setup_;
    return tr.now() - t0;
  }
  void next_inputs() override { next_ = draw(); }
  void op(Tracer& tr) override {
    run(next_, tr);
    last_ = &next_;
  }
  bool check_last() override { return residual_ok(last_->a, x_, last_->b); }

 protected:
  struct Inputs {
    CscMatrix a;
    std::vector<double> b;
  };

  /// Tears down the previous client, outside the set-up timing.
  virtual void drop() {}
  /// Builds the long-lived client state, inside the set-up timing.
  virtual void construct() {}
  /// The op: factor in.a and solve in.b into x_.
  virtual void run(const Inputs& in, Tracer& tr) = 0;

  const Inputs& setup_inputs() const { return setup_; }
  const Inputs& last_inputs() const { return *last_; }
  std::vector<double> x_;

 private:
  Inputs draw() {
    CscMatrix a = perturbed(a0_, rng_);
    return {std::move(a),
            random_vector(static_cast<std::size_t>(a0_.cols()), rng_)};
  }

  Rng rng_;
  CscMatrix a0_;
  Inputs setup_, next_;
  const Inputs* last_ = nullptr;
};

/// nlpkkt80 analog, 30 supernodes, 25 on the device: each op is a timestep
/// of a service client — session (cache hit), refactorize, solve.
class KktTimestep final : public Refactorize {
 public:
  explicit KktTimestep(std::uint64_t seed) : Refactorize("nlpkkt80", seed) {}

  /// The warm service factor must be bitwise equal to a cold per-call
  /// CholeskySolver factor of the same values.
  bool final_check() override {
    CholeskySolver cold(solver_options());
    cold.factorize(last_inputs().a);
    const auto warm = session_->factor()->values();
    const auto ref = cold.factor().values();
    return warm.size() == ref.size() &&
           std::memcmp(warm.data(), ref.data(), ref.size_bytes()) == 0;
  }

  void trace_extras(Tracer& tr) override {
    std::vector<double> x;
    const SymbolicFactor symb =
        traced_pipeline(setup_inputs().a, setup_inputs().b, x, tr);
    for (int i = 0; i < 3; ++i) traced_plan_build(symb, tr);
  }

  double cache_hit_ratio() const override { return hit_ratio(*service_); }
  const SymbolicFactor& symbolic() const override {
    return session_->symbolic();
  }

 private:
  void drop() override {
    session_.reset();
    service_.reset();
  }
  void construct() override {
    service_ = std::make_unique<SolverService>(service_options());
  }
  void run(const Inputs& in, Tracer& tr) override {
    std::shared_ptr<SolverSession> session;
    {
      auto span = tr.scope("service.session");
      session = service_->session(in.a);
    }
    traced_factorize(*session, in.a, tr);
    {
      auto span = tr.scope("core.solve");
      x_ = session->solve(in.b);
    }
    session_ = std::move(session);
  }

  std::unique_ptr<SolverService> service_;
  std::shared_ptr<SolverSession> session_;
};

/// PFlow_742_small analog, 2365 tiny supernodes, none on the device: each
/// op makes the calls of a fresh CholeskySolver — ordering, analysis,
/// factorize, solve.
class PflowCold final : public Refactorize {
 public:
  explicit PflowCold(std::uint64_t seed)
      : Refactorize("PFlow_742_small", seed) {}

  void trace_extras(Tracer& tr) override {
    for (int i = 0; i < 5; ++i) traced_plan_build(symb_, tr);
  }
  const SymbolicFactor& symbolic() const override { return symb_; }

 private:
  void run(const Inputs& in, Tracer& tr) override {
    symb_ = traced_pipeline(in.a, in.b, x_, tr);
  }

  SymbolicFactor symb_;
};

/// nlpkkt80 analog factored once in set-up: each op is one 32-column
/// solve_multi on the service session, reading the factor.
class KktSolve final : public Workload {
 public:
  explicit KktSolve(std::uint64_t seed)
      : rng_(seed),
        a_(perturbed(dataset_entry("nlpkkt80").make(), rng_)),
        setup_b_(next_rhs()) {}

  double setup(Tracer& tr) override {
    session_.reset();
    service_.reset();
    const double t0 = tr.now();
    service_ = std::make_unique<SolverService>(service_options());
    {
      auto span = tr.scope("service.session");
      session_ = service_->session(a_);
    }
    traced_factorize(*session_, a_, tr);
    solve(setup_b_, tr);
    return tr.now() - t0;
  }
  void next_inputs() override { b_ = next_rhs(); }
  void op(Tracer& tr) override { solve(b_, tr); }
  bool check_last() override {
    const auto n = static_cast<std::size_t>(a_.cols());
    bool ok = true;
    for (std::size_t q = 0; q < kSolveColumns; ++q) {
      ok = residual_ok(a_, std::span<const double>(x_).subspan(q * n, n),
                       std::span<const double>(*last_b_).subspan(q * n, n)) &&
           ok;
    }
    return ok;
  }

  /// Ops make no session or factorize calls: the cold pipeline measures
  /// those layers, and warm session requests (cache hits) the service.
  void trace_extras(Tracer& tr) override {
    const auto n = static_cast<std::size_t>(a_.cols());
    std::vector<double> x;
    const SymbolicFactor symb = traced_pipeline(
        a_, std::span<const double>(setup_b_).first(n), x, tr);
    for (int i = 0; i < 3; ++i) traced_plan_build(symb, tr);
    for (int i = 0; i < 5; ++i) {
      auto span = tr.scope("service.session");
      const auto hit = service_->session(a_);
      (void)hit;
    }
  }

  double cache_hit_ratio() const override { return hit_ratio(*service_); }
  const SymbolicFactor& symbolic() const override {
    return session_->symbolic();
  }

 private:
  std::vector<double> next_rhs() {
    return random_vector(static_cast<std::size_t>(a_.cols()) * kSolveColumns,
                         rng_);
  }
  void solve(const std::vector<double>& b, Tracer& tr) {
    auto span = tr.scope("core.solve");
    x_ = session_->solve_multi(b, kSolveColumns);
    last_b_ = &b;
  }

  Rng rng_;
  CscMatrix a_;
  std::vector<double> setup_b_, b_, x_;
  const std::vector<double>* last_b_ = nullptr;
  std::unique_ptr<SolverService> service_;
  std::shared_ptr<SolverSession> session_;
};

/// Median GFLOP/s of `run` over at least 3 repetitions and 0.2 s; `reset`
/// restores the operands before each repetition, outside the timing.
double time_kernel(const char* span_name, double flops,
                   const std::function<void()>& reset,
                   const std::function<void()>& run, Tracer& tr) {
  std::vector<double> rates;
  double total = 0.0;
  while (rates.size() < 3 || (total < 0.2 && rates.size() < 50)) {
    reset();
    const double t0 = tr.now();
    {
      auto span = tr.scope(span_name);
      run();
    }
    const double dt = tr.now() - t0;
    total += dt;
    rates.push_back(flops / dt * 1e-9);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "kkt_timestep") return std::make_unique<KktTimestep>(seed);
  if (name == "pflow_cold") return std::make_unique<PflowCold>(seed);
  if (name == "kkt_solve") return std::make_unique<KktSolve>(seed);
  return nullptr;
}

SymbolicFactor kkt_symbolic() {
  const SolverOptions so = solver_options();
  const CscMatrix a = dataset_entry("nlpkkt80").make();
  return SymbolicFactor::analyze(a, compute_ordering(a, so.ordering_opts),
                                 so.analyze);
}

std::vector<DenseRate> dense_rates(const SymbolicFactor& symb, Tracer& tr) {
  // The largest front that updates an ancestor (a root has no
  // below-diagonal block to TRSM, SYRK or GEMM with).
  index_t big = -1;
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    if (symb.sn_below(s) > 0 &&
        (big < 0 || symb.sn_entries(s) > symb.sn_entries(big))) {
      big = s;
    }
  }
  // Its panel is w columns wide; the below-diagonal block has m rows. GEMM
  // takes the RLB off-diagonal update shape of a full-width block:
  // (m × w) · (w × w)ᵀ.
  const index_t w = symb.sn_width(big);
  const index_t m = symb.sn_below(big);
  const auto sz = [](index_t r, index_t c) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(c);
  };
  Rng rng(0x5eed);
  std::vector<double> spd(sz(w, w));
  for (double& v : spd) v = rng.uniform(-1.0, 1.0);
  for (index_t j = 0; j < w; ++j) spd[sz(j, w) + j] = 2.0 * w;
  std::vector<double> panel(sz(m, w));
  for (double& v : panel) v = rng.uniform(-1.0, 1.0);

  std::vector<double> l, b, c;
  const double f_potrf = dense::flops_potrf(w);
  const double f_trsm = dense::flops_trsm(m, w);
  const double f_syrk = dense::flops_syrk(m, w);
  const double f_gemm = dense::flops_gemm(m, w, w);
  const double wd = w, md = m;
  std::vector<DenseRate> out;
  out.push_back({"potrf",
                 time_kernel("dense.potrf", f_potrf, [&] { l = spd; },
                             [&] { dense::potrf_lower(w, l.data(), w); }, tr),
                 f_potrf / (8.0 * wd * (wd + 1.0))});
  // l now holds a Cholesky factor: the TRSM's triangle.
  out.push_back({"trsm",
                 time_kernel("dense.trsm", f_trsm, [&] { b = panel; },
                             [&] {
                               dense::trsm_right_lower_trans(
                                   m, w, l.data(), w, b.data(), m);
                             },
                             tr),
                 f_trsm / (8.0 * (wd * (wd + 1.0) / 2.0 + 2.0 * md * wd))});
  out.push_back({"syrk",
                 time_kernel("dense.syrk", f_syrk,
                             [&] { c.assign(sz(m, m), 0.0); },
                             [&] {
                               dense::syrk_lower_nt(m, w, b.data(), m,
                                                    c.data(), m);
                             },
                             tr),
                 f_syrk / (8.0 * (md * wd + md * (md + 1.0)))});
  out.push_back({"gemm",
                 time_kernel("dense.gemm", f_gemm,
                             [&] { c.assign(sz(m, w), 0.0); },
                             [&] {
                               dense::gemm_nt_minus(m, w, w, b.data(), m,
                                                    l.data(), w, c.data(), m);
                             },
                             tr),
                 f_gemm / (8.0 * (md * wd + wd * wd + 2.0 * md * wd))});
  return out;
}

}  // namespace perfbench
