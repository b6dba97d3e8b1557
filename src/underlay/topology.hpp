// AS-level underlay topology (paper §2.1, Figure 1).
//
// The Internet model follows the paper's description: local (stub) ISPs
// provide access in limited geographic areas, transit ISPs interconnect
// them globally, links are classified as internal, peering (settlement
// free, between local ISPs) or transit (paid, up the hierarchy). Each AS
// contains a small router graph; inter-AS links attach at gateway routers.
//
// Generators reproduce the four testlab shapes of Aggarwal et al. [1]
// (ring, star, tree, random mesh) plus a transit-stub hierarchy matching
// the paper's Figure 1.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/time.hpp"
#include "underlay/geo.hpp"

namespace uap2p::underlay {

class HierarchyPlan;  // underlay/hierarchy.hpp

/// Classification of a physical link, which drives the cost model (Fig. 2):
/// transit traffic is billed per Mbps, peering links cost a flat
/// maintenance fee, internal links are free.
enum class LinkType { kInternal, kPeering, kTransit };

[[nodiscard]] const char* to_string(LinkType type);

struct Link {
  RouterId a;
  RouterId b;
  sim::SimTime latency_ms = 1.0;
  double bandwidth_mbps = 1000.0;
  LinkType type = LinkType::kInternal;
};

struct Router {
  RouterId id;
  AsId as;
  GeoPoint location;
  bool is_gateway = false;  ///< Carries inter-AS links.
};

/// One ISP. Stub ASes have a provider (their transit uplink); transit ASes
/// form the top of the hierarchy (Figure 1).
struct AutonomousSystem {
  AsId id;
  std::string name;
  bool is_transit = false;
  GeoPoint location;
  std::vector<RouterId> routers;
  std::uint32_t prefix = 0;  ///< Network address of the AS's IP block.
  int prefix_len = 16;
};

/// Knobs shared by all generators.
struct TopologyConfig {
  std::size_t routers_per_as = 3;
  sim::SimTime internal_latency_ms = 1.0;      ///< Mean intra-AS hop latency.
  double internal_bandwidth_mbps = 1000.0;
  double inter_as_bandwidth_mbps = 10000.0;
  /// When true, inter-AS latency is derived from great-circle distance via
  /// propagation_delay_ms; otherwise a fixed 10 ms is used.
  bool latency_from_geo = true;
  sim::SimTime min_inter_as_latency_ms = 2.0;
  std::uint64_t seed = 1;
};

/// Immutable after construction by a generator (or manual assembly in
/// tests). All ids are dense indices, so lookups are O(1) array accesses.
class AsTopology {
 public:
  /// Manual assembly -----------------------------------------------------
  AsId add_as(std::string name, bool is_transit, GeoPoint location);
  /// Adds a router to `as`; the first router of an AS becomes its gateway.
  RouterId add_router(AsId as, GeoPoint location);
  /// Connects two routers bidirectionally.
  void connect(RouterId a, RouterId b, LinkType type, sim::SimTime latency_ms,
               double bandwidth_mbps);
  /// Connects the gateway routers of two ASes; latency is derived from the
  /// geographic distance between the ASes (config-dependent).
  void connect_ases(AsId a, AsId b, LinkType type);

  /// Generators (the testlab shapes of [1] plus transit-stub) ------------
  static AsTopology ring(std::size_t n_ases, const TopologyConfig& config = {});
  static AsTopology star(std::size_t n_ases, const TopologyConfig& config = {});
  static AsTopology tree(std::size_t n_ases, std::size_t branching = 2,
                         const TopologyConfig& config = {});
  /// Erdos-Renyi AS graph with the given edge probability; a spanning ring
  /// is added first so the graph is always connected.
  static AsTopology mesh(std::size_t n_ases, double edge_probability = 0.3,
                         const TopologyConfig& config = {});
  /// `n_transit` tier-1 ASes in a full mesh (peering), each with
  /// `stubs_per_transit` local ISPs buying transit from it; adjacent stubs
  /// get peering links with probability `stub_peering_probability`.
  static AsTopology transit_stub(std::size_t n_transit,
                                 std::size_t stubs_per_transit,
                                 double stub_peering_probability = 0.3,
                                 const TopologyConfig& config = {});

  /// Accessors ------------------------------------------------------------
  [[nodiscard]] std::size_t as_count() const { return ases_.size(); }
  [[nodiscard]] std::size_t router_count() const { return routers_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const AutonomousSystem& as_info(AsId id) const {
    return ases_[id.value()];
  }
  [[nodiscard]] const Router& router(RouterId id) const {
    return routers_[id.value()];
  }
  [[nodiscard]] const Link& link(std::size_t index) const {
    return links_[index];
  }
  [[nodiscard]] AsId as_of(RouterId id) const { return routers_[id.value()].as; }
  [[nodiscard]] RouterId gateway_of(AsId id) const {
    return ases_[id.value()].routers.front();
  }
  [[nodiscard]] std::span<const AutonomousSystem> ases() const { return ases_; }
  [[nodiscard]] std::span<const Router> routers() const { return routers_; }
  [[nodiscard]] std::span<const Link> links() const { return links_; }

  struct Neighbor {
    RouterId router;
    std::uint32_t link_index;
  };
  [[nodiscard]] std::span<const Neighbor> neighbors(RouterId id) const {
    return adjacency_[id.value()];
  }

  /// Flat CSR (compressed sparse row) view of the router graph: the
  /// directed edges out of router r are heads[offsets[r] .. offsets[r+1]),
  /// with weights[] the link latency and links[] the global link index.
  /// Neighbor order matches neighbors(). Rebuilt lazily after the last
  /// mutation; every RoutingTable runs Dijkstra over this view, so build
  /// it (by calling this) before sharing a topology across threads.
  struct RouterCsr {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> heads;
    std::vector<sim::SimTime> weights;
    std::vector<std::uint32_t> links;
    /// Flat mirrors of the Link / Router records the routing aggregate
    /// fold needs, so Dijkstra never chases 40-byte Link structs:
    std::vector<double> bandwidths;        ///< One per edge.
    std::vector<std::uint8_t> types;       ///< LinkType, one per edge.
    std::vector<std::uint32_t> router_as;  ///< AS id, one per router.
    double max_weight = 0.0;  ///< Max edge latency (calendar bucket width).
  };
  [[nodiscard]] const RouterCsr& csr() const;

  /// CSR view of the inter-AS graph (consecutive-deduplicated, in router /
  /// link discovery order). Backs as_neighbors and the AS-hop BFS.
  struct AsCsr {
    std::vector<std::uint32_t> offsets;
    std::vector<AsId> heads;
  };
  [[nodiscard]] const AsCsr& as_csr() const;

  /// AS-level hop distance (BFS over the inter-AS graph); this is the
  /// metric the Oracle of [1] ranks candidate lists by. Returns
  /// SIZE_MAX if unreachable. Cached after first use per source.
  [[nodiscard]] std::size_t as_hop_distance(AsId from, AsId to) const;

  /// Precomputes every per-source AS-hop BFS row (spread over `threads`,
  /// 0 = hardware concurrency). Sources go in batches of 64, one task
  /// each: a batch is one bit-parallel BFS where each AS carries a 64-bit
  /// visited/frontier mask (bit i = source first + i), so every level is
  /// a single sweep of the AS CSR for all 64 sources, and a newly set bit
  /// writes the level into that source's row. Rows already filled by a
  /// lazy as_hop_distance are left alone. Distances equal the lazy
  /// single-source BFS's. After warming, as_hop_distance is a pure read —
  /// required before sharing the topology across threads, since the lazy
  /// per-source fill mutates the cache.
  void warm_as_hops(std::size_t threads = 0) const;

  /// All ASes adjacent to `as` in the inter-AS graph (a view into the AS
  /// CSR; valid until the next mutation).
  [[nodiscard]] std::span<const AsId> as_neighbors(AsId as) const;

  [[nodiscard]] const TopologyConfig& config() const { return config_; }

  /// Lazily built hierarchical-preprocessing plan (underlay/hierarchy.hpp):
  /// pendant + stub-group contraction order and the star fold records.
  /// The plan is a pure function of the topology, so it lives here and is
  /// shared by every RoutingTable over this topology — a rebuild (oracle
  /// snapshot refresh, repeated warms in a bench loop) reuses it instead
  /// of re-running the plan-time Dijkstras. Invalidated, like the CSR,
  /// by any mutation. Same laziness contract as csr(): build before
  /// sharing the topology across threads.
  [[nodiscard]] std::shared_ptr<const HierarchyPlan> hierarchy_plan() const;

 private:
  explicit AsTopology(TopologyConfig config) : config_(std::move(config)) {}

 public:
  AsTopology() = default;

 private:
  static AsTopology with_ases(std::size_t n_ases, const TopologyConfig& config,
                              const std::string& prefix_name);
  void build_internal_routers(AsId as, Rng& rng);
  void assign_prefix(AsId as);
  std::vector<std::size_t>& as_bfs(AsId from) const;
  void fill_as_row(std::vector<std::size_t>& dist, AsId from) const;

  TopologyConfig config_;
  std::vector<AutonomousSystem> ases_;
  std::vector<Router> routers_;
  std::vector<Link> links_;
  std::vector<std::vector<Neighbor>> adjacency_;
  // Lazily (re)built flat views; dirty after any mutation.
  mutable RouterCsr csr_;
  mutable bool csr_dirty_ = true;
  mutable AsCsr as_csr_;
  mutable bool as_csr_dirty_ = true;
  // Lazy per-source AS-hop caches.
  mutable std::vector<std::vector<std::size_t>> as_hop_cache_;
  // Lazily built contraction plan; dropped eagerly by every mutator
  // (add_router/connect) — see hierarchy_plan() for why csr_dirty_ alone
  // cannot signal staleness.
  mutable std::shared_ptr<const HierarchyPlan> hier_plan_;
};

}  // namespace uap2p::underlay
