// Shared pieces of the end-to-end benchmark: options, wall clock,
// sample statistics, the metric report and the in-memory span tracer.
//
// The benchmark drives the library's public API directly; nothing here
// reaches into library internals, so a change to the bench scaffolding
// under bench/ cannot change what is measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the same clock oracled stamps with).
[[nodiscard]] inline std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now().time_since_epoch())
                           .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) {
  return double(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrinks so a run takes a second or
  /// two. The metric names and units are the same as at full size.
  bool small = false;
  /// Directory the traced run writes its spans and folded stacks into.
  std::string out_dir = ".";
};

/// splitmix64: the one generator every workload derives its inputs from,
/// so a seed names the same inputs on every host.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seed for input stream `stream` of workload seed `seed`.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + stream;
  return splitmix64(state);
}

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (0 for an empty set). Sorts `values` in place.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(values, 0.5);
}

/// The run's metrics, in the order they were set, plus the repetition
/// samples behind each one for the steadiness report.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Adds one repetition's value; finish() turns the samples into the
  /// metric's median.
  void sample(const std::string& name, double value, const std::string& unit);
  /// Sets every sampled metric to the median of its samples.
  void finish();

  [[nodiscard]] double value(const std::string& name) const;

  /// Human-readable table: every metric with its unit, and for sampled
  /// ones the median, quartiles and sample count across repetitions.
  void print_table(std::FILE* out) const;
  /// {"name": {"value": v, "unit": u}, ...} for every metric, in the
  /// order they were first set.
  [[nodiscard]] std::string json_metrics() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::vector<double> samples;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
  Entry& entry(const std::string& name, const std::string& unit);
};

/// Wall-clock spans kept in memory (name, start, end, parent) and written
/// when the run ends. One Tracer per thread; a fan-out absorbs its
/// workers' tracers under the span that launched them. Disabled tracers
/// record nothing and cost one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< "<layer>.<operation>"; string literals only.
    std::int32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::int32_t begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, open_, now_ns(), 0});
    open_ = std::int32_t(spans_.size() - 1);
    return open_;
  }
  void end(std::int32_t id) {
    if (id < 0) return;
    spans_[std::size_t(id)].end_ns = now_ns();
    open_ = spans_[std::size_t(id)].parent;
  }

  /// Appends `child`'s spans, re-rooting its top-level spans under `parent`
  /// (an id of this tracer). Call after the child's thread has joined.
  void absorb(const Tracer& child, std::int32_t parent);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: its duration minus the union of its children's
  /// intervals within it (children of a fan-out overlap each other).
  [[nodiscard]] std::vector<std::uint64_t> self_ns() const;
  /// Self time summed by layer, the span name's part before the first '.'.
  [[nodiscard]] std::map<std::string, double> layer_self_ms() const;
  /// Writes `<stem>.spans.tsv` (name, start_ns, end_ns, parent) and
  /// `<stem>.folded` (self time in µs per root-to-span stack, the folded
  /// format uap2p_traceprof writes). False on I/O failure.
  bool write(const std::string& stem) const;

 private:
  bool enabled_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// What a workload hands back to main: its checks and operation counts.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< One line per failed check.

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

Outcome run_gnutella_lab(const Options& options, Report& report,
                         Tracer& tracer);
Outcome run_oracle_open(const Options& options, Report& report,
                        Tracer& tracer);
Outcome run_coldstart(const Options& options, Report& report, Tracer& tracer);

}  // namespace perfbench
