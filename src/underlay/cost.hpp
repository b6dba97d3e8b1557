// ISP cost model (paper §2.1, Figure 2; Norton [24]).
//
// Transit: the provider bills per Mbps at the 95th percentile of 5-minute
// peak-rate samples over a month, so cost grows proportionally with
// traffic and cost-per-Mbps is roughly flat. Peering: the only cost is
// maintaining the physical link (port + cross-connect), a flat monthly
// fee, so cost-per-Mbps falls as 1/traffic. These are exactly the two
// curves of the paper's Figure 2, and the reason locality of traffic saves
// ISPs money.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "underlay/routing.hpp"
#include "underlay/traffic_matrix.hpp"

namespace uap2p::underlay {

/// Price book for the cost curves.
struct Pricing {
  /// Committed transit price, USD per Mbps per month (2008-era list price).
  double transit_usd_per_mbps_month = 12.0;
  /// Flat monthly cost of operating one peering link (port, cross connect,
  /// amortized equipment).
  double peering_link_usd_month = 2000.0;
  /// Billing percentile for transit (industry standard: 95th).
  double billing_percentile = 95.0;
  /// Rate sampling window used for percentile billing.
  sim::SimTime sample_window_ms = sim::minutes(5);
};

/// Closed-form Figure 2 curves.
namespace cost_curves {
/// Monthly transit bill for a billed rate of `mbps`.
double transit_monthly_usd(double mbps, const Pricing& pricing = {});
/// Monthly peering bill for `links` peering links (traffic-independent).
double peering_monthly_usd(std::size_t links, const Pricing& pricing = {});
/// Cost per Mbps exchanged: flat for transit, ~1/traffic for peering.
double transit_usd_per_mbps(double mbps, const Pricing& pricing = {});
double peering_usd_per_mbps(double mbps, std::size_t links,
                            const Pricing& pricing = {});
/// Traffic volume (Mbps) above which peering is cheaper than transit.
double crossover_mbps(std::size_t links, const Pricing& pricing = {});
}  // namespace cost_curves

/// Accumulates per-message traffic by locality class and produces the
/// ISP-cost metrics the benches report (Table 2 "ISP Costs" row, the
/// testlab intra-AS percentages, Fig. 6 link usage).
class TrafficAccountant {
 public:
  explicit TrafficAccountant(Pricing pricing = {}) : pricing_(pricing) {}

  /// Records one message of `bytes` bytes sent along `path` at time `now`.
  void record(const PathInfo& path, std::uint64_t bytes, sim::SimTime now);

  /// AS-attributed record: same totals as the 3-arg overload, plus — when
  /// the matrix is enabled — the per-(src AS, dst AS) cell and the source
  /// AS's billing-window series.
  void record(const PathInfo& path, std::uint64_t bytes, sim::SimTime now,
              std::uint32_t src_as, std::uint32_t dst_as) {
    record(path, bytes, now);
    if (matrix_.enabled()) [[unlikely]]
      matrix_.record(src_as, dst_as, path, bytes, now);
  }

  /// Arms the per-AS-pair matrix (windowed at the pricing's sample
  /// window). Off by default: a disabled matrix costs one predicted
  /// branch per AS-attributed record.
  void enable_matrix(std::uint32_t as_count) {
    matrix_.enable(as_count, pricing_.sample_window_ms);
  }
  [[nodiscard]] const TrafficMatrix& matrix() const { return matrix_; }
  [[nodiscard]] TrafficMatrix& matrix() { return matrix_; }

  /// Peering-link count of the underlay, for the Figure 2 curves exported
  /// with the metrics (Network sets this from its topology).
  void set_peering_links(std::size_t links) { peering_links_ = links; }
  [[nodiscard]] std::size_t peering_links() const { return peering_links_; }

  [[nodiscard]] const Pricing& pricing() const { return pricing_; }

  /// Pre-sizes the per-window transit series (and the matrix's, when
  /// enabled) through `horizon` of sim time, so record() stays
  /// allocation-free until then (steady-state probes).
  void reserve_windows(sim::SimTime horizon) {
    const auto windows =
        static_cast<std::size_t>(horizon / pricing_.sample_window_ms) + 1;
    if (window_transit_bytes_.capacity() < windows)
      window_transit_bytes_.reserve(windows);
    matrix_.reserve_windows(horizon);
  }

  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t intra_as_bytes() const { return intra_bytes_; }
  [[nodiscard]] std::uint64_t inter_as_bytes() const {
    return total_bytes_ - intra_bytes_;
  }
  /// Byte-kilometre style weight: bytes x transit links crossed. The unit
  /// transit ISPs effectively bill for.
  [[nodiscard]] std::uint64_t transit_link_bytes() const {
    return transit_bytes_;
  }
  [[nodiscard]] std::uint64_t peering_link_bytes() const {
    return peering_bytes_;
  }
  [[nodiscard]] std::uint64_t message_count() const { return messages_; }

  /// Fraction of bytes that never left their source AS.
  [[nodiscard]] double intra_as_fraction() const;

  /// Billed transit rate in Mbps: the configured percentile over the
  /// per-window transit rates observed so far.
  [[nodiscard]] double billed_transit_mbps() const;

  /// Estimated monthly transit bill if the observed traffic pattern
  /// repeated for a month.
  [[nodiscard]] double estimated_transit_usd_month() const;

  /// Exports the locality split as "traffic.*" counters/gauges into
  /// `registry` (idempotent set; typically called at trial teardown).
  void export_metrics(obs::MetricsRegistry& registry) const;

  void reset();

 private:
  Pricing pricing_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t intra_bytes_ = 0;
  std::uint64_t transit_bytes_ = 0;
  std::uint64_t peering_bytes_ = 0;
  std::uint64_t messages_ = 0;
  std::size_t peering_links_ = 0;
  // Transit bytes per sampling window, indexed by window number.
  std::vector<double> window_transit_bytes_;
  TrafficMatrix matrix_;  // disabled unless enable_matrix() is called
};

}  // namespace uap2p::underlay
