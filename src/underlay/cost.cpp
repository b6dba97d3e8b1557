#include "underlay/cost.hpp"

#include <algorithm>
#include <cassert>

#include "common/stats.hpp"

namespace uap2p::underlay {

namespace cost_curves {

double transit_monthly_usd(double mbps, const Pricing& pricing) {
  return std::max(0.0, mbps) * pricing.transit_usd_per_mbps_month;
}

double peering_monthly_usd(std::size_t links, const Pricing& pricing) {
  return static_cast<double>(links) * pricing.peering_link_usd_month;
}

double transit_usd_per_mbps(double mbps, const Pricing& pricing) {
  if (mbps <= 0.0) return pricing.transit_usd_per_mbps_month;
  return transit_monthly_usd(mbps, pricing) / mbps;  // flat by construction
}

double peering_usd_per_mbps(double mbps, std::size_t links,
                            const Pricing& pricing) {
  assert(mbps > 0.0);
  return peering_monthly_usd(links, pricing) / mbps;
}

double crossover_mbps(std::size_t links, const Pricing& pricing) {
  // transit cost == peering cost: mbps * p_t = links * p_p.
  return peering_monthly_usd(links, pricing) /
         pricing.transit_usd_per_mbps_month;
}

}  // namespace cost_curves

void TrafficAccountant::record(const PathInfo& path, std::uint64_t bytes,
                               sim::SimTime now) {
  if (!path.reachable) return;
  ++messages_;
  total_bytes_ += bytes;
  if (path.intra_as()) intra_bytes_ += bytes;
  const std::uint64_t transit = bytes * path.transit_crossings;
  transit_bytes_ += transit;
  peering_bytes_ += bytes * path.peering_crossings;
  if (transit > 0) {
    const auto window =
        static_cast<std::size_t>(now / pricing_.sample_window_ms);
    if (window_transit_bytes_.size() <= window)
      window_transit_bytes_.resize(window + 1, 0.0);
    window_transit_bytes_[window] += static_cast<double>(transit);
  }
}

double TrafficAccountant::intra_as_fraction() const {
  if (total_bytes_ == 0) return 0.0;
  return static_cast<double>(intra_bytes_) / static_cast<double>(total_bytes_);
}

double TrafficAccountant::billed_transit_mbps() const {
  if (window_transit_bytes_.empty()) return 0.0;
  std::vector<double> rates;
  rates.reserve(window_transit_bytes_.size());
  const double window_seconds = pricing_.sample_window_ms / 1000.0;
  for (double bytes : window_transit_bytes_)
    rates.push_back(bytes * 8.0 / window_seconds / 1e6);
  return billing_percentile(std::move(rates), pricing_.billing_percentile);
}

double TrafficAccountant::estimated_transit_usd_month() const {
  return cost_curves::transit_monthly_usd(billed_transit_mbps(), pricing_);
}

void TrafficAccountant::export_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("traffic.bytes.total").set(total_bytes_);
  registry.counter("traffic.bytes.intra_as").set(intra_bytes_);
  registry.counter("traffic.bytes.transit_links").set(transit_bytes_);
  registry.counter("traffic.bytes.peering_links").set(peering_bytes_);
  registry.counter("traffic.messages").set(messages_);
  registry.gauge("traffic.intra_as_fraction").set(intra_as_fraction());
  registry.gauge("traffic.billed_transit_mbps").set(billed_transit_mbps());
  registry.gauge("traffic.estimated_transit_usd_month")
      .set(estimated_transit_usd_month());
  // The price book and link count ride along so downstream tools
  // (uap2p_dash) can draw the Figure 2 curves without re-deriving config.
  registry.gauge("traffic.pricing.transit_usd_per_mbps_month")
      .set(pricing_.transit_usd_per_mbps_month);
  registry.gauge("traffic.pricing.peering_link_usd_month")
      .set(pricing_.peering_link_usd_month);
  registry.gauge("traffic.pricing.billing_percentile")
      .set(pricing_.billing_percentile);
  registry.gauge("traffic.pricing.sample_window_ms")
      .set(pricing_.sample_window_ms);
  registry.gauge("traffic.peering_links")
      .set(static_cast<double>(peering_links_));
  // The aggregate billing-window series (what billed_transit_mbps
  // percentiles over), windowed at the pricing's sample width.
  obs::TimeSeries series = registry.time_series(
      "traffic.transit_link_bytes", pricing_.sample_window_ms);
  for (std::size_t w = 0; w < window_transit_bytes_.size(); ++w)
    series.set_window(w, window_transit_bytes_[w]);
  matrix_.export_metrics(registry, pricing_);
}

void TrafficAccountant::reset() {
  total_bytes_ = intra_bytes_ = transit_bytes_ = peering_bytes_ = 0;
  messages_ = 0;
  window_transit_bytes_.clear();
  matrix_.reset();
}

}  // namespace uap2p::underlay
