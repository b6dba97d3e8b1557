// Deterministic metrics registry (DESIGN.md "Observability").
//
// One MetricsRegistry per trial: systems register named instruments once
// (cold path, interns the name) and hold stable raw-pointer handles for
// the hot path — an unbound handle is a null pointer, so an increment on
// a system with no registry attached costs one predicted branch and zero
// allocations. Registries from parallel trials are merged in trial-index
// order, which together with the registration-order JSON export makes
// `--metrics` snapshots byte-identical between serial and parallel runs.
//
// Instruments are backed by the existing common/stats.hpp accumulators:
// Stat wraps RunningStats (Welford merge), Histo wraps Histogram
// (bucket-wise merge). Counters and gauges are plain slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/stats.hpp"

namespace uap2p::obs {

class MetricsRegistry;

namespace detail {
struct CounterEntry {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeEntry {
  std::string name;
  double value = 0.0;
  bool is_set = false;  // merge keeps the last explicitly set value
};
struct StatEntry {
  std::string name;
  RunningStats stats;
};
struct HistoEntry {
  std::string name;
  Histogram hist;
  HistoEntry(std::string n, double lo, double hi, std::size_t buckets)
      : name(std::move(n)), hist(lo, hi, buckets) {}
};
struct SeriesEntry {
  std::string name;
  double window_ms = 0.0;  // fixed sim-time window width
  std::vector<double> values;  // values[i] covers [i*window_ms, (i+1)*window_ms)
};
}  // namespace detail

/// Monotonic counter handle. Default-constructed handles are unbound and
/// every operation on them is a no-op — instrumented hot paths pay one
/// well-predicted null check, nothing else.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (slot_ != nullptr) *slot_ += n;
  }
  /// Overwrites the value (snapshot-style exports; idempotent).
  void set(std::uint64_t v) {
    if (slot_ != nullptr) *slot_ = v;
  }
  [[nodiscard]] std::uint64_t value() const {
    return slot_ != nullptr ? *slot_ : 0;
  }
  [[nodiscard]] bool bound() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Last-write-wins scalar handle.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (entry_ != nullptr) {
      entry_->value = v;
      entry_->is_set = true;
    }
  }
  [[nodiscard]] double value() const {
    return entry_ != nullptr ? entry_->value : 0.0;
  }
  [[nodiscard]] bool bound() const { return entry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeEntry* entry) : entry_(entry) {}
  detail::GaugeEntry* entry_ = nullptr;
};

/// Streaming-moments handle (RunningStats under the hood).
class Stat {
 public:
  Stat() = default;
  void add(double x) {
    if (stats_ != nullptr) stats_->add(x);
  }
  [[nodiscard]] const RunningStats& get() const {
    static const RunningStats kEmpty;
    return stats_ != nullptr ? *stats_ : kEmpty;
  }
  [[nodiscard]] bool bound() const { return stats_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Stat(RunningStats* stats) : stats_(stats) {}
  RunningStats* stats_ = nullptr;
};

/// Fixed-bucket histogram handle.
class Histo {
 public:
  Histo() = default;
  void observe(double x) {
    if (hist_ != nullptr) hist_->add(x);
  }
  [[nodiscard]] const Histogram* get() const { return hist_; }
  [[nodiscard]] bool bound() const { return hist_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histo(Histogram* hist) : hist_(hist) {}
  Histogram* hist_ = nullptr;
};

/// Windowed sim-time series handle. Windows are fixed-width half-open
/// intervals [i*window_ms, (i+1)*window_ms) over sim time starting at 0;
/// values accumulate per window and merge element-wise (window i + window
/// i), so serial and parallel-trial runs export identical series.
class TimeSeries {
 public:
  TimeSeries() = default;
  /// Accumulates `delta` into the window containing sim time `now_ms`.
  void add_at(double now_ms, double delta) {
    if (entry_ == nullptr) return;
    set_or_add(static_cast<std::size_t>(now_ms / entry_->window_ms), delta,
               /*overwrite=*/false);
  }
  /// Overwrites window `index` (snapshot-style exports; idempotent).
  void set_window(std::size_t index, double value) {
    if (entry_ != nullptr) set_or_add(index, value, /*overwrite=*/true);
  }
  /// Pre-grows backing storage so steady-state add_at stays allocation-free.
  void reserve(std::size_t windows) {
    if (entry_ != nullptr && windows > entry_->values.capacity())
      entry_->values.reserve(windows);
  }
  [[nodiscard]] double window_ms() const {
    return entry_ != nullptr ? entry_->window_ms : 0.0;
  }
  [[nodiscard]] std::size_t window_count() const {
    return entry_ != nullptr ? entry_->values.size() : 0;
  }
  [[nodiscard]] double window_value(std::size_t index) const {
    return entry_ != nullptr && index < entry_->values.size()
               ? entry_->values[index]
               : 0.0;
  }
  [[nodiscard]] bool bound() const { return entry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit TimeSeries(detail::SeriesEntry* entry) : entry_(entry) {}
  void set_or_add(std::size_t index, double v, bool overwrite) {
    if (index >= entry_->values.size()) entry_->values.resize(index + 1, 0.0);
    if (overwrite)
      entry_->values[index] = v;
    else
      entry_->values[index] += v;
  }
  detail::SeriesEntry* entry_ = nullptr;
};

/// Interned-name instrument registry. Registration is idempotent: asking
/// for an existing name returns a handle to the same slot, so several
/// systems can share one metric. Entries live in ChunkedStore chunks, so
/// handles stay valid for the registry's lifetime (and across moves of
/// the registry object). Not thread-safe: one registry per trial, merged
/// after the trials have finished.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Stat stat(std::string_view name);
  /// Bounds/bucket-count must match on re-registration (asserted).
  Histo histogram(std::string_view name, double lo, double hi,
                  std::size_t buckets);
  /// Window width must match on re-registration (asserted); window_ms > 0.
  TimeSeries time_series(std::string_view name, double window_ms);

  /// Folds `other` into this registry by metric name: counters add,
  /// gauges take the other's value when it was set, stats merge their
  /// moments, histograms add bucket-wise (bounds must match). Metrics not
  /// yet present here are appended in the other registry's registration
  /// order — merging trial registries in index order therefore yields the
  /// same registration order (and the same export bytes) regardless of
  /// which threads ran the trials.
  void merge(const MetricsRegistry& other);

  /// JSON snapshot: sections in fixed order, entries in registration
  /// order, doubles printed with "%.17g" — byte-deterministic for equal
  /// registry states.
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json_file(const std::string& path) const;

  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }
  [[nodiscard]] std::size_t stat_count() const { return stats_.size(); }
  [[nodiscard]] std::size_t histogram_count() const { return histos_.size(); }
  [[nodiscard]] std::size_t time_series_count() const {
    return series_.size();
  }

 private:
  ChunkedStore<detail::CounterEntry> counters_;
  ChunkedStore<detail::GaugeEntry> gauges_;
  ChunkedStore<detail::StatEntry> stats_;
  ChunkedStore<detail::HistoEntry> histos_;
  ChunkedStore<detail::SeriesEntry> series_;
  // Name -> store index (not pointers: the maps only serve registration
  // and merge, both cold paths).
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> stat_index_;
  std::unordered_map<std::string, std::size_t> histo_index_;
  std::unordered_map<std::string, std::size_t> series_index_;
};

}  // namespace uap2p::obs
