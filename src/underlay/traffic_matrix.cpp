#include "underlay/traffic_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/stats.hpp"
#include "underlay/cost.hpp"

namespace uap2p::underlay {

void TrafficMatrix::enable(std::uint32_t as_count, sim::SimTime window_ms) {
  assert(window_ms > 0.0);
  enabled_ = true;
  as_count_ = as_count;
  window_ms_ = window_ms;
  as_window_transit_bytes_.resize(as_count);
  if (as_count_ <= kDenseAsLimit)
    dense_slots_.assign(std::size_t(as_count_) * as_count_, kNoCell);
}

void TrafficMatrix::reserve(std::size_t expected_pairs,
                            sim::SimTime horizon) {
  if (!enabled_) return;
  pair_index_.reserve(expected_pairs);
  cells_.reserve(expected_pairs);
  reserve_windows(horizon);
}

void TrafficMatrix::reserve_windows(sim::SimTime horizon) {
  if (!enabled_) return;
  const auto windows = static_cast<std::size_t>(horizon / window_ms_) + 1;
  for (std::vector<double>& series : as_window_transit_bytes_)
    if (series.capacity() < windows) series.reserve(windows);
}

void TrafficMatrix::reset() {
  pair_index_.clear();
  if (!dense_slots_.empty())
    dense_slots_.assign(dense_slots_.size(), kNoCell);
  cells_.clear();
  for (std::vector<double>& series : as_window_transit_bytes_)
    series.clear();
}

const TrafficMatrix::PairCell* TrafficMatrix::cell(
    std::uint32_t src_as, std::uint32_t dst_as) const {
  if (!dense_slots_.empty()) {
    if (src_as >= as_count_ || dst_as >= as_count_) return nullptr;
    const std::uint32_t slot =
        dense_slots_[std::size_t(src_as) * as_count_ + dst_as];
    return slot != kNoCell ? &cells_[slot] : nullptr;
  }
  const std::uint32_t* slot = pair_index_.find(pair_key(src_as, dst_as));
  return slot != nullptr ? &cells_[*slot] : nullptr;
}

std::vector<TrafficMatrix::PairCell> TrafficMatrix::sorted_cells() const {
  std::vector<PairCell> sorted = cells_;
  std::sort(sorted.begin(), sorted.end(),
            [](const PairCell& a, const PairCell& b) {
              return pair_key(a.src_as, a.dst_as) <
                     pair_key(b.src_as, b.dst_as);
            });
  return sorted;
}

double TrafficMatrix::billed_transit_mbps(std::uint32_t src_as,
                                          const Pricing& pricing) const {
  if (src_as >= as_count_ || as_window_transit_bytes_[src_as].empty())
    return 0.0;
  const std::vector<double>& series = as_window_transit_bytes_[src_as];
  std::vector<double> rates;
  rates.reserve(series.size());
  const double window_seconds = window_ms_ / 1000.0;
  for (double bytes : series)
    rates.push_back(bytes * 8.0 / window_seconds / 1e6);
  return billing_percentile(std::move(rates), pricing.billing_percentile);
}

void TrafficMatrix::export_metrics(obs::MetricsRegistry& registry,
                                   const Pricing& pricing) const {
  if (!enabled_) return;
  char name[64];
  // Pair cells in (src, dst) order: the registration order is a pure
  // function of which pairs carried traffic, not of first-record order.
  for (const PairCell& cell : sorted_cells()) {
    const auto base = [&](const char* suffix) {
      std::snprintf(name, sizeof name, "traffic.pair.%u.%u.%s", cell.src_as,
                    cell.dst_as, suffix);
      return name;
    };
    registry.counter(base("bytes")).set(cell.bytes);
    registry.counter(base("messages")).set(cell.messages);
    registry.counter(base("transit_link_bytes")).set(cell.transit_link_bytes);
    registry.counter(base("peering_link_bytes")).set(cell.peering_link_bytes);
  }
  // Per-AS billing rollups, ascending AS id, only for ASes that crossed a
  // transit link (an all-local AS has no bill and no series).
  for (std::uint32_t as = 0; as < as_count_; ++as) {
    const std::vector<double>& series = as_window_transit_bytes_[as];
    if (series.empty()) continue;
    const double mbps = billed_transit_mbps(as, pricing);
    std::snprintf(name, sizeof name, "traffic.as.%u.billed_transit_mbps", as);
    registry.gauge(name).set(mbps);
    std::snprintf(name, sizeof name, "traffic.as.%u.transit_usd_month", as);
    registry.gauge(name).set(cost_curves::transit_monthly_usd(mbps, pricing));
    std::snprintf(name, sizeof name, "traffic.as.%u.transit_bytes", as);
    obs::TimeSeries ts = registry.time_series(name, window_ms_);
    for (std::size_t w = 0; w < series.size(); ++w)
      ts.set_window(w, series[w]);
  }
}

}  // namespace uap2p::underlay
