#include "underlay/topology.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/thread_pool.hpp"
#include "underlay/hierarchy.hpp"

namespace uap2p::underlay {

const char* to_string(LinkType type) {
  switch (type) {
    case LinkType::kInternal: return "internal";
    case LinkType::kPeering: return "peering";
    case LinkType::kTransit: return "transit";
  }
  return "?";
}

AsId AsTopology::add_as(std::string name, bool is_transit, GeoPoint location) {
  AutonomousSystem as;
  as.id = AsId(static_cast<std::uint32_t>(ases_.size()));
  as.name = std::move(name);
  as.is_transit = is_transit;
  as.location = location;
  ases_.push_back(std::move(as));
  assign_prefix(ases_.back().id);
  as_hop_cache_.clear();
  as_csr_dirty_ = true;
  return ases_.back().id;
}

void AsTopology::assign_prefix(AsId as) {
  // Deterministic /16 allocation: 10.x.0.0/16 for the first 256 ASes, then
  // (11+k).x.0.0/16 blocks. Gives IP-to-ISP mapping services a realistic
  // longest-prefix-match structure.
  const std::uint32_t index = as.value();
  const std::uint32_t first_octet = 10 + index / 256;
  const std::uint32_t second_octet = index % 256;
  ases_[index].prefix = (first_octet << 24) | (second_octet << 16);
  ases_[index].prefix_len = 16;
}

RouterId AsTopology::add_router(AsId as, GeoPoint location) {
  assert(as.value() < ases_.size());
  Router router;
  router.id = RouterId(static_cast<std::uint32_t>(routers_.size()));
  router.as = as;
  router.location = location;
  router.is_gateway = ases_[as.value()].routers.empty();
  ases_[as.value()].routers.push_back(router.id);
  routers_.push_back(router);
  adjacency_.emplace_back();
  csr_dirty_ = true;
  hier_plan_ = nullptr;
  return router.id;
}

void AsTopology::connect(RouterId a, RouterId b, LinkType type,
                         sim::SimTime latency_ms, double bandwidth_mbps) {
  assert(a.value() < routers_.size() && b.value() < routers_.size());
  assert(a != b);
  const auto index = static_cast<std::uint32_t>(links_.size());
  links_.push_back(Link{a, b, latency_ms, bandwidth_mbps, type});
  adjacency_[a.value()].push_back(Neighbor{b, index});
  adjacency_[b.value()].push_back(Neighbor{a, index});
  as_hop_cache_.clear();
  csr_dirty_ = true;
  as_csr_dirty_ = true;
  hier_plan_ = nullptr;
}

void AsTopology::connect_ases(AsId a, AsId b, LinkType type) {
  assert(type != LinkType::kInternal);
  const auto& as_a = ases_[a.value()];
  const auto& as_b = ases_[b.value()];
  sim::SimTime latency = 10.0;
  if (config_.latency_from_geo) {
    latency = propagation_delay_ms(haversine_km(as_a.location, as_b.location));
  }
  latency = std::max(latency, config_.min_inter_as_latency_ms);
  connect(gateway_of(a), gateway_of(b), type, latency,
          config_.inter_as_bandwidth_mbps);
}

void AsTopology::build_internal_routers(AsId as, Rng& rng) {
  const GeoPoint center = ases_[as.value()].location;
  // Routers are scattered within ~30 km of the AS location; the gateway is
  // the first one. Internal structure is a star on the gateway (a stub
  // ISP's access network) with latency jittered around the configured mean.
  std::vector<RouterId> routers;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.routers_per_as);
       ++i) {
    GeoPoint location = center;
    location.lat_deg += rng.uniform_real(-0.25, 0.25);
    location.lon_deg += rng.uniform_real(-0.25, 0.25);
    routers.push_back(add_router(as, location));
  }
  for (std::size_t i = 1; i < routers.size(); ++i) {
    const sim::SimTime latency =
        config_.internal_latency_ms * rng.uniform_real(0.5, 1.5);
    connect(routers.front(), routers[i], LinkType::kInternal, latency,
            config_.internal_bandwidth_mbps);
  }
}

AsTopology AsTopology::with_ases(std::size_t n_ases,
                                 const TopologyConfig& config,
                                 const std::string& prefix_name) {
  assert(n_ases > 0);
  AsTopology topo(config);
  Rng rng(config.seed);
  for (std::size_t i = 0; i < n_ases; ++i) {
    // ASes scatter over a continent-sized box (roughly Europe).
    GeoPoint location{rng.uniform_real(36.0, 60.0),
                      rng.uniform_real(-10.0, 30.0)};
    const AsId as =
        topo.add_as(prefix_name + std::to_string(i), false, location);
    topo.build_internal_routers(as, rng);
  }
  return topo;
}

AsTopology AsTopology::ring(std::size_t n_ases, const TopologyConfig& config) {
  AsTopology topo = with_ases(n_ases, config, "ring-as-");
  for (std::size_t i = 0; i < n_ases && n_ases > 1; ++i) {
    const auto next = (i + 1) % n_ases;
    if (n_ases == 2 && i == 1) break;  // avoid a duplicate link
    topo.connect_ases(AsId(std::uint32_t(i)), AsId(std::uint32_t(next)),
                      LinkType::kPeering);
  }
  return topo;
}

AsTopology AsTopology::star(std::size_t n_ases, const TopologyConfig& config) {
  AsTopology topo = with_ases(n_ases, config, "star-as-");
  topo.ases_[0].is_transit = true;  // hub acts as the transit provider
  for (std::size_t i = 1; i < n_ases; ++i) {
    topo.connect_ases(AsId(0), AsId(std::uint32_t(i)), LinkType::kTransit);
  }
  return topo;
}

AsTopology AsTopology::tree(std::size_t n_ases, std::size_t branching,
                            const TopologyConfig& config) {
  assert(branching >= 1);
  AsTopology topo = with_ases(n_ases, config, "tree-as-");
  for (std::size_t i = 1; i < n_ases; ++i) {
    const std::size_t parent = (i - 1) / branching;
    topo.ases_[parent].is_transit = true;  // inner nodes carry transit
    topo.connect_ases(AsId(std::uint32_t(parent)), AsId(std::uint32_t(i)),
                      LinkType::kTransit);
  }
  return topo;
}

AsTopology AsTopology::mesh(std::size_t n_ases, double edge_probability,
                            const TopologyConfig& config) {
  AsTopology topo = with_ases(n_ases, config, "mesh-as-");
  Rng rng(config.seed ^ 0xabcdef);
  // Spanning ring guarantees connectivity.
  for (std::size_t i = 0; i < n_ases && n_ases > 1; ++i) {
    const auto next = (i + 1) % n_ases;
    if (n_ases == 2 && i == 1) break;
    topo.connect_ases(AsId(std::uint32_t(i)), AsId(std::uint32_t(next)),
                      LinkType::kPeering);
  }
  for (std::size_t i = 0; i + 2 < n_ases + 1; ++i) {
    for (std::size_t j = i + 2; j < n_ases; ++j) {
      if (i == 0 && j == n_ases - 1) continue;  // ring already links these
      if (rng.bernoulli(edge_probability)) {
        topo.connect_ases(AsId(std::uint32_t(i)), AsId(std::uint32_t(j)),
                          LinkType::kPeering);
      }
    }
  }
  return topo;
}

AsTopology AsTopology::transit_stub(std::size_t n_transit,
                                    std::size_t stubs_per_transit,
                                    double stub_peering_probability,
                                    const TopologyConfig& config) {
  assert(n_transit > 0);
  AsTopology topo(config);
  Rng rng(config.seed);
  // Transit ASes sit on a wide backbone ellipse.
  for (std::size_t i = 0; i < n_transit; ++i) {
    const double angle = 2.0 * 3.14159265358979 * double(i) / double(n_transit);
    GeoPoint location{48.0 + 8.0 * std::sin(angle), 10.0 + 18.0 * std::cos(angle)};
    const AsId as = topo.add_as("transit-" + std::to_string(i), true, location);
    topo.build_internal_routers(as, rng);
  }
  // Full peering mesh between transit ASes.
  for (std::size_t i = 0; i < n_transit; ++i)
    for (std::size_t j = i + 1; j < n_transit; ++j)
      topo.connect_ases(AsId(std::uint32_t(i)), AsId(std::uint32_t(j)),
                        LinkType::kPeering);
  // Stubs cluster geographically around their provider.
  std::vector<std::vector<AsId>> stubs_of(n_transit);
  for (std::size_t t = 0; t < n_transit; ++t) {
    const GeoPoint hub = topo.ases_[t].location;
    for (std::size_t s = 0; s < stubs_per_transit; ++s) {
      GeoPoint location{hub.lat_deg + rng.uniform_real(-2.0, 2.0),
                        hub.lon_deg + rng.uniform_real(-3.0, 3.0)};
      const AsId stub = topo.add_as(
          "stub-" + std::to_string(t) + "-" + std::to_string(s), false,
          location);
      topo.build_internal_routers(stub, rng);
      topo.connect_ases(AsId(std::uint32_t(t)), stub, LinkType::kTransit);
      stubs_of[t].push_back(stub);
    }
  }
  // Peering agreements between stubs of the same provider (the paper's
  // "closely located ISPs are motivated to peer").
  for (const auto& group : stubs_of) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        if (rng.bernoulli(stub_peering_probability)) {
          topo.connect_ases(group[i], group[j], LinkType::kPeering);
        }
      }
    }
  }
  return topo;
}

const AsTopology::RouterCsr& AsTopology::csr() const {
  if (!csr_dirty_) return csr_;
  const std::size_t n = routers_.size();
  std::size_t edges = 0;
  for (const auto& list : adjacency_) edges += list.size();
  csr_.offsets.assign(n + 1, 0);
  csr_.heads.clear();
  csr_.heads.reserve(edges);
  csr_.weights.clear();
  csr_.weights.reserve(edges);
  csr_.links.clear();
  csr_.links.reserve(edges);
  csr_.bandwidths.clear();
  csr_.bandwidths.reserve(edges);
  csr_.types.clear();
  csr_.types.reserve(edges);
  csr_.router_as.resize(n);
  csr_.max_weight = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    csr_.offsets[r] = static_cast<std::uint32_t>(csr_.heads.size());
    csr_.router_as[r] = routers_[r].as.value();
    for (const Neighbor& neighbor : adjacency_[r]) {
      const Link& link = links_[neighbor.link_index];
      csr_.heads.push_back(neighbor.router.value());
      csr_.weights.push_back(link.latency_ms);
      csr_.links.push_back(neighbor.link_index);
      csr_.bandwidths.push_back(link.bandwidth_mbps);
      csr_.types.push_back(static_cast<std::uint8_t>(link.type));
      csr_.max_weight = std::max(csr_.max_weight, link.latency_ms);
    }
  }
  csr_.offsets[n] = static_cast<std::uint32_t>(csr_.heads.size());
  csr_dirty_ = false;
  return csr_;
}

std::shared_ptr<const HierarchyPlan> AsTopology::hierarchy_plan() const {
  // The plan bakes edge payloads, so the mutators drop it eagerly (the
  // CSR-dirty flag alone is not a safe staleness signal here: any csr()
  // call — warm_all_hierarchical makes one before asking for the plan —
  // clears it without touching the plan). This check only backstops the
  // default-constructed state.
  if (csr_dirty_) hier_plan_ = nullptr;
  (void)csr();
  if (hier_plan_ == nullptr) hier_plan_ = HierarchyPlan::build(*this);
  return hier_plan_;
}

const AsTopology::AsCsr& AsTopology::as_csr() const {
  if (!as_csr_dirty_) return as_csr_;
  const std::size_t n = ases_.size();
  as_csr_.offsets.assign(n + 1, 0);
  as_csr_.heads.clear();
  // Per-source stamp dedup (an AS may reach the same neighbor over several
  // links); discovery order is preserved, matching the historical
  // as_neighbors result.
  std::vector<std::uint32_t> seen(n, UINT32_MAX);
  for (std::size_t a = 0; a < n; ++a) {
    as_csr_.offsets[a] = static_cast<std::uint32_t>(as_csr_.heads.size());
    for (const RouterId router : ases_[a].routers) {
      for (const Neighbor& neighbor : adjacency_[router.value()]) {
        const AsId other = routers_[neighbor.router.value()].as;
        if (other.value() == a || seen[other.value()] == a) continue;
        seen[other.value()] = static_cast<std::uint32_t>(a);
        as_csr_.heads.push_back(other);
      }
    }
  }
  as_csr_.offsets[n] = static_cast<std::uint32_t>(as_csr_.heads.size());
  as_csr_dirty_ = false;
  return as_csr_;
}

void AsTopology::fill_as_row(std::vector<std::size_t>& dist, AsId from) const {
  // Callers build as_csr_ before any concurrent fill; this reads it only.
  const AsCsr& graph = as_csr_;
  dist.assign(ases_.size(), SIZE_MAX);
  dist[from.value()] = 0;
  std::vector<std::uint32_t> queue;
  queue.reserve(ases_.size());
  queue.push_back(from.value());
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t current = queue[head];
    const std::size_t next_dist = dist[current] + 1;
    for (std::uint32_t e = graph.offsets[current];
         e < graph.offsets[current + 1]; ++e) {
      const std::uint32_t other = graph.heads[e].value();
      if (dist[other] == SIZE_MAX) {
        dist[other] = next_dist;
        queue.push_back(other);
      }
    }
  }
}

std::vector<std::size_t>& AsTopology::as_bfs(AsId from) const {
  if (as_hop_cache_.size() != ases_.size()) {
    as_hop_cache_.assign(ases_.size(), {});
  }
  auto& dist = as_hop_cache_[from.value()];
  if (!dist.empty()) return dist;
  (void)as_csr();
  fill_as_row(dist, from);
  return dist;
}

std::size_t AsTopology::as_hop_distance(AsId from, AsId to) const {
  assert(from.value() < ases_.size() && to.value() < ases_.size());
  return as_bfs(from)[to.value()];
}

void AsTopology::warm_as_hops(std::size_t threads) const {
  (void)as_csr();  // build once, before workers share it read-only
  const std::size_t n = ases_.size();
  if (as_hop_cache_.size() != n) as_hop_cache_.assign(n, {});
  // Bit-parallel multi-source BFS: source first + i owns bit i of a
  // per-AS word, so one level of 64 BFS runs is one sweep of the AS CSR.
  // Tasks write only their own sources' rows.
  parallel_for(
      (n + 63) / 64,
      [this, n](std::size_t batch) {
        const AsCsr& graph = as_csr_;
        const std::size_t first = batch * 64;
        const std::size_t count = std::min<std::size_t>(64, n - first);
        std::vector<std::uint64_t> visited(n, 0), frontier(n, 0), next(n);
        std::size_t* rows[64] = {};
        bool any = false;
        for (std::size_t i = 0; i < count; ++i) {
          auto& dist = as_hop_cache_[first + i];
          if (!dist.empty()) continue;  // already filled lazily
          dist.assign(n, SIZE_MAX);
          dist[first + i] = 0;
          rows[i] = dist.data();
          visited[first + i] = frontier[first + i] = std::uint64_t{1} << i;
          any = true;
        }
        for (std::size_t level = 1; any; ++level) {
          std::fill(next.begin(), next.end(), 0);
          for (std::size_t u = 0; u < n; ++u) {
            const std::uint64_t bits = frontier[u];
            if (bits == 0) continue;
            for (std::uint32_t e = graph.offsets[u]; e < graph.offsets[u + 1];
                 ++e) {
              next[graph.heads[e].value()] |= bits;
            }
          }
          any = false;
          for (std::size_t v = 0; v < n; ++v) {
            std::uint64_t fresh = next[v] & ~visited[v];
            frontier[v] = fresh;
            if (fresh == 0) continue;
            visited[v] |= fresh;
            any = true;
            for (; fresh != 0; fresh &= fresh - 1) {
              rows[std::countr_zero(fresh)][v] = level;
            }
          }
        }
      },
      threads);
}

std::span<const AsId> AsTopology::as_neighbors(AsId as) const {
  const AsCsr& graph = as_csr();
  const std::uint32_t begin = graph.offsets[as.value()];
  const std::uint32_t end = graph.offsets[as.value() + 1];
  return {graph.heads.data() + begin, end - begin};
}

}  // namespace uap2p::underlay
