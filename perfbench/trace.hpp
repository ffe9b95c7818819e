// In-memory span recorder of the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions (graph, symbolic, service, core, dense), kept
// in memory, and written once at exit as Chrome trace-event JSON
// ("ph": "X" complete events, microsecond timestamps), so spans emitted
// from inside the library later can be merged into the same file. A
// disabled tracer records nothing: untraced ops pay one branch per span.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "spchol/core/factor.hpp"

namespace perfbench {

/// Where a span was recorded: inside the set-up (the cold first op), inside
/// a timed op, or in untimed per-layer measurements after the loop.
enum class Phase { kSetup, kOp, kExtra };

inline const char* to_string(Phase p) {
  switch (p) {
    case Phase::kSetup: return "setup";
    case Phase::kOp: return "op";
    case Phase::kExtra: return "extra";
  }
  return "?";
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 at top level
  Phase phase = Phase::kSetup;
  int op = -1;  ///< index of the timed op, -1 outside the loop
};

/// Stats of one traced numeric factorization, with the wall seconds of the
/// span that enclosed it.
struct FactorRecord {
  Phase phase = Phase::kSetup;
  spchol::FactorStats stats{};
  double seconds = 0.0;
};

class Tracer {
 public:
  using clock = std::chrono::steady_clock;

  /// Closes its span when destroyed (or at close()).
  class Scope {
   public:
    Scope(Tracer* t, int index) : t_(t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// Ends the span; returns its duration (0 when tracing is off).
    double close() {
      if (t_ == nullptr) return 0.0;
      Span& s = t_->spans_[index_];
      s.end = t_->now();
      t_->stack_.pop_back();
      t_ = nullptr;
      return s.end - s.start;
    }

   private:
    Tracer* t_;
    int index_;
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_phase(Phase p, int op = -1) noexcept {
    phase_ = p;
    op_ = op;
  }

  double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }

  [[nodiscard]] Scope scope(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    const int index = static_cast<int>(spans_.size());
    Span s;
    s.name = name;
    s.id = index;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.phase = phase_;
    s.op = op_;
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(index);
    return Scope(this, index);
  }

  void record_factor(const spchol::FactorStats& stats, double seconds) {
    if (enabled_) factors_.push_back({phase_, stats, seconds});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<FactorRecord>& factors() const noexcept {
    return factors_;
  }

  /// Writes every span as a Chrome trace-event document; `other_data` is a
  /// JSON object stored under "otherData" (the run context).
  bool write_chrome(const std::string& path,
                    const std::string& other_data) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                 "\"traceEvents\": [\n", other_data.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string cat = s.name.substr(0, s.name.find('.'));
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"id\": %d, \"parent\": %d, \"phase\": "
                   "\"%s\", \"op\": %d}}%s\n",
                   s.name.c_str(), cat.c_str(), s.start * 1e6,
                   (s.end - s.start) * 1e6, s.id, s.parent,
                   to_string(s.phase), s.op,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  Phase phase_ = Phase::kSetup;
  int op_ = -1;
  clock::time_point epoch_ = clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<FactorRecord> factors_;
};

}  // namespace perfbench
