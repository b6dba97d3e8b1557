// Property suite: RoutingTable vs a brute-force Floyd-Warshall reference
// on every topology generator and on random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "lazy_warm.hpp"
#include "underlay/calendar_queue.hpp"
#include "underlay/hierarchy.hpp"
#include "underlay/routing.hpp"

namespace uap2p::underlay {
namespace {

constexpr double kInf = std::numeric_limits<double>::max();

/// O(V^3) reference all-pairs shortest paths over link latencies.
std::vector<std::vector<double>> floyd_warshall(const AsTopology& topo) {
  const std::size_t n = topo.router_count();
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, kInf));
  for (std::size_t i = 0; i < n; ++i) dist[i][i] = 0.0;
  for (const Link& link : topo.links()) {
    const std::size_t a = link.a.value(), b = link.b.value();
    dist[a][b] = std::min(dist[a][b], link.latency_ms);
    dist[b][a] = std::min(dist[b][a], link.latency_ms);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i][k] == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (dist[k][j] == kInf) continue;
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  return dist;
}

class RoutingVsReferenceP : public ::testing::TestWithParam<int> {
 protected:
  AsTopology make_topology() const {
    TopologyConfig config;
    config.seed = 1000 + GetParam();
    switch (GetParam() % 5) {
      case 0: return AsTopology::ring(6, config);
      case 1: return AsTopology::star(7, config);
      case 2: return AsTopology::tree(9, 2, config);
      case 3: return AsTopology::mesh(8, 0.3, config);
      default: return AsTopology::transit_stub(2, 3, 0.4, config);
    }
  }
};

TEST_P(RoutingVsReferenceP, DijkstraMatchesFloydWarshall) {
  const AsTopology topo = make_topology();
  RoutingTable routing(topo);
  const auto reference = floyd_warshall(topo);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const double expected = reference[i][j];
      const auto& info = routing.path(RouterId(i), RouterId(j));
      if (expected == kInf) {
        EXPECT_FALSE(info.reachable);
      } else {
        ASSERT_TRUE(info.reachable) << i << "->" << j;
        EXPECT_NEAR(info.latency_ms, expected, 1e-9) << i << "->" << j;
      }
    }
  }
}

TEST_P(RoutingVsReferenceP, RouterPathLatencySumsCorrectly) {
  const AsTopology topo = make_topology();
  RoutingTable routing(topo);
  Rng rng(GetParam());
  const auto n = topo.router_count();
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RouterId(std::uint32_t(rng.uniform(n)));
    const auto b = RouterId(std::uint32_t(rng.uniform(n)));
    const auto path = routing.router_path(a, b);
    if (path.empty()) continue;
    double acc = 0.0;
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      double best = kInf;
      for (const auto& neighbor : topo.neighbors(path[k])) {
        if (neighbor.router == path[k + 1]) {
          best = std::min(best, topo.link(neighbor.link_index).latency_ms);
        }
      }
      ASSERT_LT(best, kInf) << "non-adjacent consecutive routers";
      acc += best;
    }
    EXPECT_NEAR(acc, routing.latency_ms(a, b), 1e-9);
  }
}

TEST_P(RoutingVsReferenceP, CrossingCountsMatchPathWalk) {
  const AsTopology topo = make_topology();
  RoutingTable routing(topo);
  Rng rng(GetParam() * 7 + 1);
  const auto n = topo.router_count();
  for (int trial = 0; trial < 15; ++trial) {
    const auto a = RouterId(std::uint32_t(rng.uniform(n)));
    const auto b = RouterId(std::uint32_t(rng.uniform(n)));
    const auto& info = routing.path(a, b);
    if (!info.reachable) continue;
    const auto path = routing.router_path(a, b);
    std::uint32_t transit = 0, peering = 0, hops = 0;
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      for (const auto& neighbor : topo.neighbors(path[k])) {
        if (neighbor.router != path[k + 1]) continue;
        const Link& link = topo.link(neighbor.link_index);
        // The shortest parallel link is the one Dijkstra used.
        ++hops;
        if (link.type == LinkType::kTransit) ++transit;
        if (link.type == LinkType::kPeering) ++peering;
        break;
      }
    }
    EXPECT_EQ(info.router_hops, hops);
    EXPECT_EQ(info.transit_crossings, transit);
    EXPECT_EQ(info.peering_crossings, peering);
  }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, RoutingVsReferenceP,
                         ::testing::Range(0, 10));

// --- CSR core vs the retained adjacency-list reference -------------------

namespace {

void expect_bit_identical(const PathInfo& a, const PathInfo& b,
                          std::uint32_t i, std::uint32_t j) {
  EXPECT_EQ(a.reachable, b.reachable) << i << "->" << j;
  EXPECT_EQ(a.latency_ms, b.latency_ms) << i << "->" << j;  // exact, not near
  EXPECT_EQ(a.bottleneck_mbps, b.bottleneck_mbps) << i << "->" << j;
  EXPECT_EQ(a.router_hops, b.router_hops) << i << "->" << j;
  EXPECT_EQ(a.transit_crossings, b.transit_crossings) << i << "->" << j;
  EXPECT_EQ(a.peering_crossings, b.peering_crossings) << i << "->" << j;
  EXPECT_EQ(a.as_crossings, b.as_crossings) << i << "->" << j;
}

/// The pre-CSR RoutingTable implementation, retained verbatim in spirit as
/// the reference: per-source Dijkstra walking AsTopology::neighbors()
/// adjacency lists through a std::priority_queue with (distance, router)
/// ordering, then a per-destination path walk that materializes every
/// aggregate the production table now keeps in its compact rows.
struct ReferenceDijkstra {
  explicit ReferenceDijkstra(const AsTopology& topo) : topo_(topo) {}

  struct Result {
    PathInfo info;
    std::vector<AsId> as_path;
  };

  Result query(RouterId src, RouterId dst) const {
    const std::size_t n = topo_.router_count();
    std::vector<double> dist(n, kInf);
    std::vector<std::uint32_t> prev_link(
        n, std::numeric_limits<std::uint32_t>::max());
    using Item = std::pair<double, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    dist[src.value()] = 0.0;
    queue.push({0.0, src.value()});
    while (!queue.empty()) {
      const auto [d, node] = queue.top();
      queue.pop();
      if (d > dist[node]) continue;  // stale entry
      for (const auto& neighbor : topo_.neighbors(RouterId(node))) {
        const Link& link = topo_.link(neighbor.link_index);
        const double candidate = d + link.latency_ms;
        if (candidate < dist[neighbor.router.value()]) {
          dist[neighbor.router.value()] = candidate;
          prev_link[neighbor.router.value()] =
              static_cast<std::uint32_t>(neighbor.link_index);
          queue.push({candidate, neighbor.router.value()});
        }
      }
    }
    Result result;
    if (dist[dst.value()] == kInf) {
      result.info.latency_ms = kUnreachableLatency;
      return result;
    }
    result.info.reachable = true;
    result.info.latency_ms = dist[dst.value()];
    result.info.bottleneck_mbps =
        src == dst ? 0.0 : std::numeric_limits<double>::max();
    result.as_path.push_back(topo_.as_of(dst));
    for (RouterId node = dst; node != src;) {
      const Link& link = topo_.link(prev_link[node.value()]);
      const RouterId parent = link.a == node ? link.b : link.a;
      ++result.info.router_hops;
      if (link.type == LinkType::kTransit) ++result.info.transit_crossings;
      if (link.type == LinkType::kPeering) ++result.info.peering_crossings;
      if (topo_.as_of(parent) != topo_.as_of(node)) {
        ++result.info.as_crossings;
        result.as_path.push_back(topo_.as_of(parent));
      }
      result.info.bottleneck_mbps =
          std::min(result.info.bottleneck_mbps, link.bandwidth_mbps);
      node = parent;
    }
    if (src == dst) result.as_path = {topo_.as_of(src)};
    std::reverse(result.as_path.begin(), result.as_path.end());
    return result;
  }

  const AsTopology& topo_;
};

/// Every pair, both the lazy table and the batch warm
/// (warm_all_hierarchical), against the adjacency-list reference. Latency / reachability / bottleneck must be
/// bit-identical (same additions in the same order); hop and crossing
/// counts and the interned AS sequence must agree exactly.
void expect_matches_reference(const AsTopology& topo) {
  const ReferenceDijkstra reference(topo);
  RoutingTable lazy(topo);
  RoutingTable warmed(topo);
  warmed.warm_all_hierarchical();
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const auto expected = reference.query(RouterId(i), RouterId(j));
      expect_bit_identical(lazy.path(RouterId(i), RouterId(j)), expected.info,
                           i, j);
      expect_bit_identical(warmed.path(RouterId(i), RouterId(j)),
                           expected.info, i, j);
      if (!expected.info.reachable) continue;
      const auto as_path = lazy.as_path(RouterId(i), RouterId(j));
      ASSERT_EQ(as_path.size(), expected.as_path.size()) << i << "->" << j;
      for (std::size_t k = 0; k < as_path.size(); ++k)
        EXPECT_EQ(as_path[k], expected.as_path[k]) << i << "->" << j;
    }
  }
}

}  // namespace

TEST_P(RoutingVsReferenceP, CsrMatchesAdjacencyListReference) {
  expect_matches_reference(make_topology());
}

TEST(RoutingVsReference, RandomMeshes) {
  for (int trial = 0; trial < 6; ++trial) {
    TopologyConfig config;
    config.seed = 4000 + trial;
    expect_matches_reference(
        AsTopology::mesh(6 + 3 * trial, 0.15 + 0.05 * trial, config));
  }
}

TEST(RoutingVsReference, RandomTransitStubs) {
  for (int trial = 0; trial < 4; ++trial) {
    TopologyConfig config;
    config.seed = 5000 + trial;
    expect_matches_reference(
        AsTopology::transit_stub(2 + trial % 2, 3 + trial, 0.3, config));
  }
}

TEST_P(RoutingVsReferenceP, SelfPathsAreZero) {
  const AsTopology topo = make_topology();
  RoutingTable routing(topo);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    const PathInfo info = routing.path(RouterId(i), RouterId(i));
    EXPECT_TRUE(info.reachable);
    EXPECT_EQ(info.latency_ms, 0.0);
    EXPECT_EQ(info.router_hops, 0u);
    EXPECT_EQ(info.as_hops(), 0u);
    const auto self_as = routing.as_path(RouterId(i), RouterId(i));
    ASSERT_EQ(self_as.size(), 1u);
    EXPECT_EQ(self_as.front(), topo.as_of(RouterId(i)));
  }
}

TEST(RoutingFlatCache, UnreachablePartitionIsStableAndChecked) {
  // Two disconnected mesh islands: every cross-island pair is unreachable
  // in both directions, and the checked accessors let callers branch
  // instead of summing kUnreachableLatency.
  AsTopology topo;
  std::vector<RouterId> left, right;
  const AsId as_l = topo.add_as("left", false, {50, 8});
  const AsId as_r = topo.add_as("right", false, {10, 100});
  for (int i = 0; i < 4; ++i) left.push_back(topo.add_router(as_l, {50, 8}));
  for (int i = 0; i < 4; ++i) right.push_back(topo.add_router(as_r, {10, 100}));
  for (int i = 0; i < 3; ++i) {
    topo.connect(left[i], left[i + 1], LinkType::kInternal, 1.0, 1000);
    topo.connect(right[i], right[i + 1], LinkType::kInternal, 1.0, 1000);
  }
  RoutingTable routing(topo);
  for (const RouterId a : left) {
    for (const RouterId b : right) {
      for (int pass = 0; pass < 2; ++pass) {  // second pass hits the cache
        const PathInfo& forward = routing.path(a, b);
        const PathInfo& back = routing.path(b, a);
        EXPECT_FALSE(forward.reachable);
        EXPECT_FALSE(back.reachable);
        EXPECT_EQ(forward.latency_ms, kUnreachableLatency);
        EXPECT_EQ(routing.latency_ms(a, b), kUnreachableLatency);
        EXPECT_FALSE(forward.checked_latency_ms().has_value());
        EXPECT_EQ(forward.latency_or(-1.0), -1.0);
      }
    }
  }
  // Intra-island pairs stay reachable and checked accessors pass through.
  const PathInfo& local = routing.path(left[0], left[3]);
  ASSERT_TRUE(local.reachable);
  EXPECT_EQ(local.checked_latency_ms().value(), 3.0);
  EXPECT_EQ(local.latency_or(-1.0), 3.0);
}

TEST(RoutingFlatCache, InternedSpansSurviveStoreGrowth) {
  // as_path() hands out spans that callers may hold across further
  // lookups; growing the interned store (and the arena behind it) must not
  // move previously returned sequences.
  const AsTopology topo = AsTopology::transit_stub(3, 6, 0.4);
  RoutingTable routing(topo);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  const auto early = routing.as_path(RouterId(0), RouterId(n - 1));
  ASSERT_FALSE(early.empty());
  const std::vector<AsId> early_copy(early.begin(), early.end());
  for (std::uint32_t i = 0; i < n; ++i)  // force store + arena growth
    for (std::uint32_t j = 0; j < n; ++j)
      (void)routing.as_path(RouterId(i), RouterId(j));
  const auto again = routing.as_path(RouterId(0), RouterId(n - 1));
  EXPECT_EQ(early.data(), again.data());  // memoized, not re-interned
  ASSERT_EQ(early.size(), early_copy.size());
  for (std::size_t k = 0; k < early.size(); ++k)
    EXPECT_EQ(early[k], early_copy[k]);
}

// --- Hierarchical warm vs flat warm: byte identity -----------------------

namespace {

/// warm_all_hierarchical's whole contract: every DestEntry row must be
/// byte-for-byte what the per-source Dijkstra (path()) computes — same
/// IEEE-754 sums, same canonical tie-breaks — so snapshots, the bench
/// cache, and the oracle tier can mix batch-warmed and lazy rows.
void expect_hier_rows_identical(const AsTopology& topo) {
  RoutingTable flat(topo);
  warm_lazily(topo, flat);
  RoutingTable hier(topo);
  hier.warm_all_hierarchical();
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t src = 0; src < n; ++src) {
    const auto flat_row = flat.row(RouterId(src));
    const auto hier_row = hier.row(RouterId(src));
    ASSERT_EQ(0, std::memcmp(flat_row.data(), hier_row.data(),
                             n * sizeof(RoutingTable::DestEntry)))
        << "row " << src << " diverges";
  }
}

}  // namespace

TEST_P(RoutingVsReferenceP, HierarchicalRowsBytesMatchFlat) {
  expect_hier_rows_identical(make_topology());
}

TEST(RoutingHierarchical, RandomTransitStubRowsBytesMatchFlat) {
  // The archetype the contraction targets, randomized across shape and
  // seed: multiple providers, varying stub fanout and peering density.
  for (int trial = 0; trial < 8; ++trial) {
    TopologyConfig config;
    config.seed = 9000 + trial;
    config.routers_per_as = 2 + trial % 3;
    expect_hier_rows_identical(AsTopology::transit_stub(
        2 + trial % 3, 2 + trial, 0.15 * (trial % 4), config));
  }
}

TEST(RoutingHierarchical, RandomMeshRowsBytesMatchFlat) {
  // Meshes have no stub structure: the plan must degrade to inner-core
  // Dijkstra (plus pendant contraction of internal routers) and still
  // reproduce the flat bytes.
  for (int trial = 0; trial < 4; ++trial) {
    TopologyConfig config;
    config.seed = 9100 + trial;
    expect_hier_rows_identical(
        AsTopology::mesh(6 + 3 * trial, 0.15 + 0.1 * trial, config));
  }
}

TEST(RoutingHierarchical, DisconnectedIslandsMatchFlat) {
  // Unreachable sweep parity: two mesh islands, cross-island rows must be
  // stamped identically by both warm paths.
  AsTopology topo;
  const AsId as_l = topo.add_as("left", true, {50, 8});
  const AsId as_r = topo.add_as("right", false, {10, 100});
  std::vector<RouterId> left, right;
  for (int i = 0; i < 4; ++i) left.push_back(topo.add_router(as_l, {50, 8}));
  for (int i = 0; i < 4; ++i) right.push_back(topo.add_router(as_r, {10, 100}));
  for (int i = 0; i < 3; ++i) {
    topo.connect(left[i], left[i + 1], LinkType::kInternal, 1.0, 1000);
    topo.connect(right[i], right[i + 1], LinkType::kInternal, 1.0, 1000);
  }
  expect_hier_rows_identical(topo);
}

TEST(RoutingHierarchical, PlanContractsTransitStub) {
  // Sanity on the plan itself: the canonical transit-stub shape must
  // actually contract (pendant internal routers + star stub groups), or
  // the "speedup" rows in BENCH_micro.json would silently measure the
  // flat path twice.
  const AsTopology topo = AsTopology::transit_stub(4, 16, 0.3);
  const auto plan = HierarchyPlan::build(topo);
  EXPECT_TRUE(plan->contracted());
  EXPECT_GT(plan->pendant_count(), 0u);
  EXPECT_GT(plan->group_count(), 0u);
  EXPECT_EQ(plan->star_group_count(), plan->group_count())
      << "default transit-stub groups should all pass the star test";
  EXPECT_LT(plan->inner_core().size(), topo.router_count() / 2)
      << "most routers should be contracted away from the Dijkstra core";
  // Contracted + core routers partition the graph.
  std::size_t grouped = 0;
  for (std::uint32_t v = 0; v < topo.router_count(); ++v) {
    grouped += plan->group_of(v) != UINT32_MAX ? 1 : 0;
  }
  EXPECT_EQ(plan->core_order().size() + plan->pendant_count(),
            topo.router_count());
  EXPECT_EQ(grouped + plan->inner_core().size() + plan->pendant_count(),
            topo.router_count());
}

TEST(CalendarQueue, SeededFarPastLapKeepsPopOrder) {
  // Regression: a queue seeded at distance >= 2 * max_weight (absolute
  // bucket >= 512) used to start its cursor at 0, leaving it lagging the
  // true bucket index by a whole lap — a push into the bucket being
  // drained then missed the pending-insert path and popped 512 buckets
  // late, out of order. With max_weight = 1.0 the bucket width is 1/256:
  // 3.0005 shares the seed's bucket, 3.01 lands two buckets later.
  detail::CalendarQueue q;
  q.reset(1.0, 8, 3.0);
  q.push(3.0, 0);
  EXPECT_EQ(0u, q.pop().node);
  q.push(3.0005, 1);
  q.push(3.01, 2);
  EXPECT_EQ(1u, q.pop().node);  // pre-fix this popped node 2 first
  EXPECT_EQ(2u, q.pop().node);
  EXPECT_EQ(0u, q.size());
}

TEST(RoutingHierarchical, FarMiniGroupSubBucketEdgesMatchFlat) {
  // Regression for the same cursor-lag bug end to end: a non-star (mini)
  // stub group whose attachment sits 3 * max_weight away from the source
  // forces phase C's run_region to seed its queue a full bucket lap past
  // 0, and the group's sub-bucket-width edges (0.125 ms vs a 100/256 ms
  // bucket) land in the very bucket being drained. The exact float tie at
  // s4 (400.125 + 0.5 == 400.5 + 0.125) then resolves by settle order, so
  // a lagged cursor flips the first-achiever parent and changes row
  // bytes. All weights are binary fractions, so the ties are exact.
  AsTopology topo;
  const AsId transit = topo.add_as("transit", true, {0, 0});
  const AsId stub = topo.add_as("stub", false, {0, 10});
  std::vector<RouterId> t, s;
  for (int i = 0; i < 4; ++i) t.push_back(topo.add_router(transit, {0, 0}));
  for (int i = 0; i < 5; ++i) s.push_back(topo.add_router(stub, {0, 10}));
  for (int i = 0; i < 3; ++i) {
    topo.connect(t[i], t[i + 1], LinkType::kInternal, 100.0, 1000);
  }
  topo.connect(t[3], s[0], LinkType::kTransit, 100.0, 1000);
  topo.connect(s[0], s[1], LinkType::kInternal, 0.125, 1000);
  topo.connect(s[0], s[2], LinkType::kInternal, 0.5, 1000);
  topo.connect(s[0], s[3], LinkType::kInternal, 0.25, 1000);
  topo.connect(s[1], s[3], LinkType::kInternal, 0.125, 1000);
  topo.connect(s[1], s[4], LinkType::kInternal, 0.5, 1000);
  topo.connect(s[2], s[4], LinkType::kInternal, 0.125, 1000);
  // The 100.25-via-s0 vs 100.125+0.125-via-s1 tie at s3 must fail the
  // star-margin test, or phase C would stream offset-invariant folds and
  // never exercise the far-seeded region Dijkstra.
  const auto plan = HierarchyPlan::build(topo);
  ASSERT_EQ(1u, plan->group_count());
  ASSERT_EQ(0u, plan->star_group_count());
  expect_hier_rows_identical(topo);
}

TEST(RoutingHierarchical, PendantSourcesInTiedStubGroupMatchFlat) {
  // Phase A for a pendant source seeds its gateway's region Dijkstra at
  // the up-edge weight, not at 0. Here the gateway's stub group is a 2x3
  // grid of one-router stub ASes whose peering edges all weigh exactly
  // 2 ms, so opposite corners are reached by several equal-length paths
  // and every such tie resolves by settle order alone. The pendants' up
  // edges (0.1, 0.3, 0.7 ms) are not binary fractions: every sum carries
  // the offset's rounding, so any tie broken differently from the flat
  // run changes row bytes.
  AsTopology topo;
  const AsId transit = topo.add_as("transit", true, {0, 0});
  std::vector<RouterId> t;
  for (int i = 0; i < 3; ++i) t.push_back(topo.add_router(transit, {0, 0}));
  topo.connect(t[0], t[1], LinkType::kInternal, 5.0, 1000);
  topo.connect(t[1], t[2], LinkType::kInternal, 5.0, 1000);
  std::vector<RouterId> s;
  for (int i = 0; i < 6; ++i) {
    const AsId as = topo.add_as("stub" + std::to_string(i), false, {0, 10});
    s.push_back(topo.add_router(as, {0, 10}));
  }
  // Grid s0 s1 s2 / s3 s4 s5: every edge 2 ms, attached through s0 only.
  const std::pair<int, int> grid[] = {{0, 1}, {1, 2}, {3, 4}, {4, 5},
                                      {0, 3}, {1, 4}, {2, 5}};
  for (const auto& [a, b] : grid) {
    topo.connect(s[a], s[b], LinkType::kPeering, 2.0, 100 + 10 * a + b);
  }
  topo.connect(t[2], s[0], LinkType::kTransit, 3.0, 1000);
  // Pendants behind the group: one per member, cycling the offsets, plus
  // a second pendant on the far corner with two parallel up edges (the
  // 0.3 ms one wins).
  const double up[] = {0.1, 0.3, 0.7};
  std::vector<RouterId> pendants;
  for (int i = 0; i < 6; ++i) {
    const AsId as = topo.router(s[i]).as;
    pendants.push_back(topo.add_router(as, {0, 10}));
    topo.connect(pendants.back(), s[i], LinkType::kInternal, up[i % 3], 50);
  }
  pendants.push_back(topo.add_router(topo.router(s[5]).as, {0, 10}));
  topo.connect(pendants.back(), s[5], LinkType::kInternal, 0.7, 50);
  topo.connect(pendants.back(), s[5], LinkType::kInternal, 0.3, 60);

  const auto plan = HierarchyPlan::build(topo);
  ASSERT_EQ(1u, plan->group_count());
  ASSERT_EQ(0u, plan->star_group_count())
      << "the ties must fail the star test";
  for (const RouterId p : pendants) {
    const std::uint32_t gateway = plan->pendant_parent(p.value());
    ASSERT_NE(UINT32_MAX, gateway) << "router " << p.value();
    ASSERT_NE(UINT32_MAX, plan->group_of(gateway))
        << "pendant " << p.value() << " must sit behind the stub group";
  }
  expect_hier_rows_identical(topo);
}

TEST(RoutingHierarchical, RewarmAfterMutationDropsStalePlan) {
  // Regression: the contraction plan used to be invalidated only while
  // csr_dirty_ was still set, but warm_all_hierarchical rebuilds the CSR
  // (clearing the flag) before asking for the plan — so a warm after a
  // mutation silently reused the plan baked from the old edges. Mutators
  // must drop the plan eagerly.
  AsTopology topo = AsTopology::transit_stub(2, 3, 0.4);
  {
    RoutingTable first(topo);
    first.warm_all_hierarchical();  // caches the plan on the topology
    ASSERT_NE(nullptr, topo.hierarchy_plan());
  }
  // Mutate both ways: a new router and a cross-stub shortcut that
  // reroutes traffic which previously crossed the transit core.
  const RouterId extra = topo.add_router(topo.ases()[1].id, {0, 0});
  topo.connect(extra, RouterId(0), LinkType::kInternal, 0.25, 1000);
  topo.connect(RouterId(2),
               RouterId(static_cast<std::uint32_t>(topo.router_count() - 2)),
               LinkType::kPeering, 0.5, 1000);
  expect_hier_rows_identical(topo);
}

TEST(RoutingHierarchical, ArenaPoolSizeMismatchAndTrim) {
  // The recycler keeps one retired row image; a differently sized warm
  // must release it (not strand it), and trim must be callable anytime.
  const AsTopology small = AsTopology::transit_stub(2, 2, 0.0);
  const AsTopology large = AsTopology::transit_stub(2, 4, 0.0);
  {
    RoutingTable t(small);
    t.warm_all_hierarchical();
  }  // retires small's arena to the pool
  {
    RoutingTable t(large);
    t.warm_all_hierarchical();  // mismatched take frees the small image
  }
  RoutingTable::trim_row_arena_pool();
  expect_hier_rows_identical(small);  // fresh arena path still correct
  RoutingTable::trim_row_arena_pool();
}

TEST(RoutingAlt, LowerBoundNeverExceedsTrueDistance) {
  const AsTopology topo = AsTopology::transit_stub(3, 8, 0.3);
  RoutingTable table(topo);
  warm_lazily(topo, table);
  const auto landmarks = AltLandmarks::build(topo);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = RouterId(std::uint32_t(rng.uniform(n)));
    const auto b = RouterId(std::uint32_t(rng.uniform(n)));
    const PathInfo info = table.path(a, b);
    if (!info.reachable) continue;
    const double lb = landmarks->lower_bound(a.value(), b.value());
    const double ub = landmarks->upper_bound(a.value(), b.value());
    // The float slack the point_path prune budgets for is far below 1e-6
    // at these sizes.
    EXPECT_LE(lb, info.latency_ms + 1e-6) << a.value() << "->" << b.value();
    EXPECT_GE(ub, info.latency_ms - 1e-6) << a.value() << "->" << b.value();
  }
}

TEST_P(RoutingVsReferenceP, PointPathBytesMatchWarmedPath) {
  const AsTopology topo = make_topology();
  RoutingTable warmed(topo);
  warm_lazily(topo, warmed);
  RoutingTable lazy(topo);  // point_path must not warm any row
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const PathInfo expected = warmed.path(RouterId(i), RouterId(j));
      const PathInfo got = lazy.point_path(RouterId(i), RouterId(j));
      expect_bit_identical(got, expected, i, j);
    }
  }
  EXPECT_EQ(lazy.cached_sources(), 0u) << "point_path warmed a row";
}

TEST(RoutingAlt, PointPathOnRandomTransitStubs) {
  for (int trial = 0; trial < 3; ++trial) {
    TopologyConfig config;
    config.seed = 9500 + trial;
    const AsTopology topo =
        AsTopology::transit_stub(3, 5 + trial, 0.3, config);
    RoutingTable warmed(topo);
    warm_lazily(topo, warmed);
    RoutingTable lazy(topo);
    const auto n = static_cast<std::uint32_t>(topo.router_count());
    Rng rng(trial);
    for (int q = 0; q < 300; ++q) {
      const auto a = RouterId(std::uint32_t(rng.uniform(n)));
      const auto b = RouterId(std::uint32_t(rng.uniform(n)));
      expect_bit_identical(lazy.point_path(a, b), warmed.path(a, b),
                           a.value(), b.value());
    }
  }
}

TEST(RoutingRandomGraphs, HandMadeMultiEdgePicksCheapest) {
  AsTopology topo;
  const AsId as = topo.add_as("x", false, {50, 8});
  const RouterId r0 = topo.add_router(as, {50, 8});
  const RouterId r1 = topo.add_router(as, {50.1, 8.1});
  topo.connect(r0, r1, LinkType::kInternal, 10.0, 100);
  topo.connect(r0, r1, LinkType::kInternal, 2.0, 100);  // parallel, cheaper
  RoutingTable routing(topo);
  EXPECT_DOUBLE_EQ(routing.latency_ms(r0, r1), 2.0);
}

}  // namespace
}  // namespace uap2p::underlay
