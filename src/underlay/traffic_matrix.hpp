// Per-(src-AS, dst-AS) traffic attribution (paper §2.1, Figure 2).
//
// The scalar TrafficAccountant answers "how much did this run bill";
// the matrix answers "*which AS pairs* carried it and *when*": bytes,
// messages and billed transit-link bytes per ordered AS pair, split by
// locality class, plus a per-source-AS transit byte series sampled at the
// 5-minute billing window. The 95th percentile over that series is the
// *measured* per-AS billed rate — the live counterpart to Figure 2's
// closed-form crossover, rendered by tools/uap2p_dash.
//
// Memory is O(active AS pairs) for the cells (a pair that never
// exchanged a message costs no cell) plus O(AS count x elapsed windows)
// doubles for the window series. The *index* over pairs is dense — a
// flat as_count^2 array of 32-bit cell slots — for topologies up to
// kDenseAsLimit ASes (<= 256 KiB), turning the per-message pair lookup
// into one multiply-add; larger topologies fall back to a FlatMap over
// packed pair keys. The matrix is opt-in: a disabled matrix costs one
// predicted branch per recorded message in TrafficAccountant::record.
//
// Determinism: exports sort by (src, dst), so the metrics snapshot is a
// pure function of which pairs carried traffic, never of the order in
// which their first message was recorded.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "underlay/routing.hpp"

namespace uap2p::underlay {

struct Pricing;

class TrafficMatrix {
 public:
  /// One ordered (src AS, dst AS) cell. Byte counts stay integral, so
  /// the totals are exact at any traffic volume.
  struct PairCell {
    std::uint32_t src_as = 0;
    std::uint32_t dst_as = 0;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    std::uint64_t transit_link_bytes = 0;
    std::uint64_t peering_link_bytes = 0;
  };

  TrafficMatrix() = default;

  /// Arms the matrix for `as_count` ASes with billing windows of
  /// `window_ms`. Until enabled, record() is a no-op.
  void enable(std::uint32_t as_count, sim::SimTime window_ms);
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint32_t as_count() const { return as_count_; }
  [[nodiscard]] sim::SimTime window_ms() const { return window_ms_; }

  /// Records one message of `bytes` bytes from `src_as` to `dst_as` along
  /// `path` at sim time `now`. Transit-link bytes are attributed to the
  /// *source* AS's billing series (the AS whose provider invoices grow).
  /// Inline: this sits on the per-message send path of the flood benches,
  /// whose acceptance keeps the armed matrix within 5% of obs-off.
  void record(std::uint32_t src_as, std::uint32_t dst_as,
              const PathInfo& path, std::uint64_t bytes, sim::SimTime now) {
    assert(enabled_ && src_as < as_count_ && dst_as < as_count_);
    PairCell& cell = cell_for(src_as, dst_as);
    cell.bytes += bytes;
    ++cell.messages;
    const std::uint64_t transit = bytes * path.transit_crossings;
    cell.transit_link_bytes += transit;
    cell.peering_link_bytes += bytes * path.peering_crossings;
    if (transit > 0) {
      std::vector<double>& series = as_window_transit_bytes_[src_as];
      const auto window = static_cast<std::size_t>(now / window_ms_);
      if (series.size() <= window) [[unlikely]]
        series.resize(window + 1, 0.0);
      series[window] += static_cast<double>(transit);
    }
  }

  /// Pre-sizes pair cells and every AS's window series so steady-state
  /// record() calls stay allocation-free through `horizon`.
  void reserve(std::size_t expected_pairs, sim::SimTime horizon);
  void reserve_windows(sim::SimTime horizon);

  void reset();

  [[nodiscard]] std::size_t pair_count() const { return cells_.size(); }
  /// nullptr when the pair never exchanged a message.
  [[nodiscard]] const PairCell* cell(std::uint32_t src_as,
                                     std::uint32_t dst_as) const;
  /// Cells sorted by (src_as, dst_as) — the export order.
  [[nodiscard]] std::vector<PairCell> sorted_cells() const;

  /// Measured billed rate for one AS: the pricing's percentile over its
  /// per-window transit rates (Mbps). 0 when the AS never crossed transit.
  [[nodiscard]] double billed_transit_mbps(std::uint32_t src_as,
                                           const Pricing& pricing) const;

  /// Exports pair cells ("traffic.pair.<s>.<d>.*" counters, sorted) and,
  /// for every AS with transit traffic, the billed-rate gauges and the
  /// "traffic.as.<n>.transit_bytes" time series (idempotent set).
  void export_metrics(obs::MetricsRegistry& registry,
                      const Pricing& pricing) const;

 private:
  static std::uint64_t pair_key(std::uint32_t s, std::uint32_t d) {
    return (static_cast<std::uint64_t>(s) << 32) | d;
  }

  /// Above this AS count the dense slot index would outgrow 256 KiB, so
  /// enable() keeps the FlatMap path instead.
  static constexpr std::uint32_t kDenseAsLimit = 256;
  static constexpr std::uint32_t kNoCell = 0xffffffffu;

  /// The pair's cell, creating it on first traffic. Hot path: one
  /// multiply-add into the dense slot table for small topologies.
  PairCell& cell_for(std::uint32_t src_as, std::uint32_t dst_as) {
    if (!dense_slots_.empty()) {
      std::uint32_t& slot =
          dense_slots_[std::size_t(src_as) * as_count_ + dst_as];
      if (slot == kNoCell) [[unlikely]] {
        slot = static_cast<std::uint32_t>(cells_.size());
        cells_.push_back(PairCell{src_as, dst_as, 0, 0, 0, 0});
      }
      return cells_[slot];
    }
    auto [slot, inserted] = pair_index_.try_emplace(pair_key(src_as, dst_as));
    if (inserted) {
      *slot = static_cast<std::uint32_t>(cells_.size());
      cells_.push_back(PairCell{src_as, dst_as, 0, 0, 0, 0});
    }
    return cells_[*slot];
  }

  bool enabled_ = false;
  std::uint32_t as_count_ = 0;
  sim::SimTime window_ms_ = sim::minutes(5);
  /// as_count^2 slot table (kNoCell = untouched pair) when
  /// as_count <= kDenseAsLimit; empty otherwise.
  std::vector<std::uint32_t> dense_slots_;
  FlatMap<std::uint64_t, std::uint32_t> pair_index_;  // key -> cells_ index
  std::vector<PairCell> cells_;
  /// Transit-link bytes per billing window, per source AS (indexed by AS).
  std::vector<std::vector<double>> as_window_transit_bytes_;
};

}  // namespace uap2p::underlay
