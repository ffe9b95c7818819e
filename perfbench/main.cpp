// perfbench: the repository benchmark program (see BENCHMARK.json).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// One closed-loop client runs the workload's set-up kSetupReps times, then
// issues ops back to back for S seconds. Every op's residual is checked
// outside the timed region. With --trace 0 the last stdout line carries
// the end-to-end metrics; with --trace 1 every other op is traced (spans
// around each layer call) and the last line carries the per-layer metrics,
// including the tracing overhead (traced minus untraced p50) measured on
// the interleaved ops. The line before it is the run context.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using spchol::FactorStats;
using spchol::SymbolicFactor;

/// Set-up runs per process; setup_s is their median.
constexpr int kSetupReps = 5;
/// The tail reported in the run context is the highest percentile with at
/// least this many samples beyond it. It is not an end-to-end metric: on a
/// shared 4-core host the quartile spread of 10 runs' tail was 0.30 of its
/// median on pflow_cold (p97), over the 0.25 bound.
constexpr std::size_t kTailBeyond = 10;
/// Above this share of machine CPU time stolen by the hypervisor during the
/// timed loop, the run context marks the result not comparable.
constexpr double kMaxComparableSteal = 0.02;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      a.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed && have_seconds &&
         have_trace;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Peak resident set since the last reset_peak_rss(), in MB. Falls back
/// to the process-lifetime peak where /proc/self/clear_refs is absent.
bool g_peak_resettable = true;

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  g_peak_resettable = g_peak_resettable && f.good();
}

double peak_rss_mb() {
  if (g_peak_resettable) {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Cumulative CPU ticks of the machine, and those the hypervisor gave to
/// other guests (the steal column of /proc/stat). Steal inflates every
/// latency here, so each result reports its share during the timed loop.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  double v = 0.0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

/// The result's "metrics" object, in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json_ += (json_.empty() ? "\"" : ", \"") + name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string json() const { return "{" + json_ + "}"; }

 private:
  std::string json_;
};

/// Durations of the spans called `name`: those recorded inside timed ops
/// when the op makes that call, otherwise those from the extras after the
/// loop (set-up spans, cold misses, only go to the trace file).
std::vector<double> durations(const Tracer& tr, const std::string& name) {
  std::vector<double> op, extra;
  for (const Span& s : tr.spans()) {
    if (s.name != name) continue;
    if (s.phase == Phase::kOp) op.push_back(s.end - s.start);
    if (s.phase == Phase::kExtra) extra.push_back(s.end - s.start);
  }
  return op.empty() ? extra : op;
}

/// Same selection rule for the recorded factorizations.
std::vector<FactorRecord> factor_records(const Tracer& tr) {
  std::vector<FactorRecord> op, extra;
  for (const FactorRecord& r : tr.factors()) {
    if (r.phase == Phase::kOp) op.push_back(r);
    if (r.phase == Phase::kExtra) extra.push_back(r);
  }
  return op.empty() ? extra : op;
}

template <class F>
double factor_median(const std::vector<FactorRecord>& recs, F f) {
  std::vector<double> v;
  for (const FactorRecord& r : recs) v.push_back(f(r));
  return median(std::move(v));
}

/// Median share of each traced op's wall time covered by its direct
/// child (layer) spans.
double span_coverage(const Tracer& tr) {
  std::vector<double> child(tr.spans().size(), 0.0);
  for (const Span& s : tr.spans()) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  std::vector<double> shares;
  for (const Span& s : tr.spans()) {
    if (s.name == "op") shares.push_back(child[s.id] / (s.end - s.start));
  }
  return median(std::move(shares));
}

void layer_metrics(const Tracer& tr, const Workload& w, double hit_ratio,
                   const std::vector<DenseRate>& dense, double overhead,
                   Metrics& m) {
  const auto span_s = [&](const char* name) {
    return median(durations(tr, name));
  };
  const SymbolicFactor& symb = w.symbolic();
  m.add("graph.order_s", span_s("graph.order"), "s");
  m.add("graph.factor_nnz", static_cast<double>(symb.factor_nnz()), "count");
  m.add("symbolic.analyze_s", span_s("symbolic.analyze"), "s");
  m.add("symbolic.plan_build_s", span_s("symbolic.plan_build"), "s");
  m.add("symbolic.supernodes", static_cast<double>(symb.num_supernodes()),
        "count");
  m.add("service.session_s", span_s("service.session"), "s");
  m.add("service.cache_hit_ratio", hit_ratio, "ratio");

  const std::vector<FactorRecord> recs = factor_records(tr);
  m.add("core.factorize_s", span_s("core.factorize"), "s");
  m.add("core.factor_gflops", factor_median(recs, [](const FactorRecord& r) {
          return r.stats.flops / r.seconds * 1e-9;
        }), "GFLOP/s");
  m.add("core.solve_s", span_s("core.solve"), "s");

  for (const DenseRate& d : dense) {
    m.add(std::string("dense.") + d.kernel + "_gflops", d.gflops, "GFLOP/s");
  }
  for (const DenseRate& d : dense) {
    m.add(std::string("dense.") + d.kernel + "_flops_per_byte",
          d.flops_per_byte, "flop/B");
  }

  const auto stat = [&](auto field) {
    return factor_median(recs, [&](const FactorRecord& r) {
      return static_cast<double>(r.stats.*field);
    });
  };
  m.add("support.tasks", stat(&FactorStats::scheduler_tasks), "count");
  m.add("support.steals", stat(&FactorStats::scheduler_steals), "count");
  m.add("support.chain_waits", stat(&FactorStats::scheduler_chain_waits),
        "count");
  m.add("support.resource_waits",
        stat(&FactorStats::scheduler_resource_waits), "count");
  m.add("support.busy_ratio", factor_median(recs, [](const FactorRecord& r) {
          const double workers =
              static_cast<double>(std::max<std::size_t>(
                  1, r.stats.scheduler_workers));
          return r.stats.modeled_task_serial_seconds / (workers * r.seconds);
        }), "ratio");

  m.add("gpu.supernodes_on_gpu", stat(&FactorStats::supernodes_on_gpu),
        "count");
  m.add("gpu.modeled_factor_s", stat(&FactorStats::modeled_seconds), "s");
  m.add("gpu.kernel_s", stat(&FactorStats::gpu_kernel_seconds), "s");
  m.add("gpu.h2d_bytes", stat(&FactorStats::h2d_bytes), "B");
  m.add("gpu.d2h_bytes", stat(&FactorStats::d2h_bytes), "B");
  m.add("gpu.peak_bytes", stat(&FactorStats::device_peak_bytes), "B");

  m.add("trace.overhead_s", overhead, "s");
  m.add("trace.span_coverage", span_coverage(tr), "ratio");
}

int run(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing to measure a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }
  auto w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Tracer tr;
  tr.set_enabled(args.trace);
  std::size_t attempted = 0, failed = 0;
  std::string first_error;
  const auto guarded = [&](auto&& body) {
    ++attempted;
    bool ok = false;
    try {
      ok = body();
    } catch (const std::exception& e) {
      if (first_error.empty()) first_error = e.what();
    }
    if (!ok) ++failed;
    return ok;
  };

  // Set-up: construction through the first, cold op, repeated.
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    tr.set_phase(Phase::kSetup);
    guarded([&] {
      setup.push_back(w->setup(tr));
      return w->check_last();
    });
  }

  // Memory the earlier set-up repetitions freed would otherwise count as
  // resident in every op's peak; a client sets up only once.
  malloc_trim(0);

  // Closed loop, one client. Traced runs trace every other op.
  std::vector<double> lat, traced_lat, rss;
  const CpuTicks ticks0 = cpu_ticks();
  const double deadline = tr.now() + args.seconds;
  for (int i = 0; tr.now() < deadline; ++i) {
    w->next_inputs();
    const bool traced = args.trace && i % 2 == 1;
    tr.set_enabled(traced);
    tr.set_phase(Phase::kOp, i);
    guarded([&] {
      reset_peak_rss();
      const double t0 = tr.now();
      {
        auto span = tr.scope("op");
        w->op(tr);
      }
      const double dt = tr.now() - t0;
      rss.push_back(peak_rss_mb());
      (traced ? traced_lat : lat).push_back(dt);
      tr.set_enabled(false);
      return w->check_last();
    });
    tr.set_enabled(false);
  }
  const std::size_t ops = lat.size() + traced_lat.size();
  const CpuTicks ticks1 = cpu_ticks();
  const double steal =
      ticks1.total > ticks0.total
          ? (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)
          : 0.0;

  bool bitwise_ok = false;
  guarded([&] { return bitwise_ok = w->final_check(); });

  // Before the extras, whose warm session requests would count as hits.
  const double hit_ratio = w->cache_hit_ratio();
  std::vector<DenseRate> dense;
  if (args.trace) {
    tr.set_enabled(true);
    tr.set_phase(Phase::kExtra);
    w->trace_extras(tr);
    dense = dense_rates(kkt_symbolic(), tr);
  }

  std::sort(lat.begin(), lat.end());
  const std::size_t n = lat.size();
  // Nearest-rank p75 of the untraced latencies, and the tail: the highest
  // rank with kTailBeyond samples beyond it (the maximum on a short run).
  const std::size_t p75_index = n == 0 ? 0 : (3 * n + 3) / 4 - 1;
  const std::size_t tail_index =
      n > kTailBeyond ? n - 1 - kTailBeyond : (n == 0 ? 0 : n - 1);
  const double tail_pct =
      n == 0 ? 0.0
             : 100.0 * static_cast<double>(tail_index + 1) /
                   static_cast<double>(n);
  const bool comparable = steal <= kMaxComparableSteal;
  if (!comparable) {
    std::fprintf(stderr,
                 "perfbench: host steal %.1f%% during the loop exceeds %.1f%%; "
                 "latencies are not comparable with a quiet host's\n",
                 100.0 * steal, 100.0 * kMaxComparableSteal);
  }

  char ctx[2048];
  std::snprintf(
      ctx, sizeof ctx,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"ops\": %zu, \"untraced_ops\": %zu, "
      "\"setup_reps\": %d, \"tail_percentile\": %.4g, "
      "\"tail_samples_beyond\": %zu, \"latency_tail_s\": %.6g, "
      "\"residual_tolerance\": %g, "
      "\"worst_residual\": %.3g, \"bitwise_warm_equals_cold\": %s, "
      "\"host_steal_share\": %.4f, \"comparable\": %s, "
      "\"peak_rss\": \"%s\", \"first_error\": \"%s\"}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, nproc(), build_type.c_str(),
      PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, ops, lat.size(), kSetupReps,
      tail_pct, n == 0 ? 0 : n - 1 - tail_index,
      n == 0 ? 0.0 : lat[tail_index], kResidualTolerance, w->worst_residual(),
      bitwise_ok ? "true" : "false", steal, comparable ? "true" : "false",
      g_peak_resettable ? "per-op VmHWM" : "process ru_maxrss",
      json_escape(first_error).c_str());
  std::printf("{\"context\": %s}\n", ctx);

  Metrics m;
  if (args.trace) {
    layer_metrics(tr, *w, hit_ratio, dense, median(traced_lat) - median(lat),
                  m);
    if (!args.trace_out.empty() && !tr.write_chrome(args.trace_out, ctx)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  } else {
    double busy = 0.0;
    for (const double x : lat) busy += x;
    m.add("latency_p50_s", median(lat), "s");
    m.add("latency_p75_s", n == 0 ? 0.0 : lat[p75_index], "s");
    m.add("ops_per_s",
          busy > 0.0 ? static_cast<double>(lat.size()) / busy : 0.0,
          "1/s");
    m.add("setup_s", median(setup), "s");
    m.add("success_ratio",
          static_cast<double>(attempted - failed) /
              static_cast<double>(attempted),
          "ratio");
    m.add("peak_rss_mb", median(rss), "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              m.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return perfbench::run(args);
}
