#include "underlay/routing.hpp"

#include <gtest/gtest.h>

namespace uap2p::underlay {
namespace {

AsTopology two_as_line() {
  // AS0: r0 - r1, AS1: r2 - r3; peering r1 <-> r2... built manually so the
  // expected shortest paths are obvious.
  AsTopology topo;
  const AsId as0 = topo.add_as("a", false, {50.0, 8.0});
  const AsId as1 = topo.add_as("b", false, {51.0, 9.0});
  const RouterId r0 = topo.add_router(as0, {50.0, 8.0});
  const RouterId r1 = topo.add_router(as0, {50.1, 8.1});
  const RouterId r2 = topo.add_router(as1, {51.0, 9.0});
  const RouterId r3 = topo.add_router(as1, {51.1, 9.1});
  topo.connect(r0, r1, LinkType::kInternal, 1.0, 1000);
  topo.connect(r1, r2, LinkType::kPeering, 10.0, 10000);
  topo.connect(r2, r3, LinkType::kInternal, 2.0, 1000);
  return topo;
}

TEST(Routing, LatencyIsPathSum) {
  AsTopology topo = two_as_line();
  RoutingTable routing(topo);
  EXPECT_DOUBLE_EQ(routing.latency_ms(RouterId(0), RouterId(3)), 13.0);
  EXPECT_DOUBLE_EQ(routing.latency_ms(RouterId(0), RouterId(1)), 1.0);
  EXPECT_DOUBLE_EQ(routing.latency_ms(RouterId(0), RouterId(0)), 0.0);
}

TEST(Routing, PathInfoSummaries) {
  AsTopology topo = two_as_line();
  RoutingTable routing(topo);
  const PathInfo& info = routing.path(RouterId(0), RouterId(3));
  EXPECT_TRUE(info.reachable);
  EXPECT_EQ(info.router_hops, 3u);
  EXPECT_EQ(info.as_hops(), 1u);
  EXPECT_EQ(info.peering_crossings, 1u);
  EXPECT_EQ(info.transit_crossings, 0u);
  EXPECT_FALSE(info.intra_as());
  EXPECT_EQ(info.as_crossings, 1u);
  const auto as_path = routing.as_path(RouterId(0), RouterId(3));
  ASSERT_EQ(as_path.size(), 2u);
  EXPECT_EQ(as_path.front(), AsId(0));
  EXPECT_EQ(as_path.back(), AsId(1));
  EXPECT_DOUBLE_EQ(info.bottleneck_mbps, 1000.0);
}

TEST(Routing, IntraAsPath) {
  AsTopology topo = two_as_line();
  RoutingTable routing(topo);
  const PathInfo& info = routing.path(RouterId(0), RouterId(1));
  EXPECT_TRUE(info.intra_as());
  EXPECT_EQ(info.as_hops(), 0u);
  EXPECT_EQ(info.peering_crossings, 0u);
}

TEST(Routing, SelfPath) {
  AsTopology topo = two_as_line();
  RoutingTable routing(topo);
  const PathInfo& info = routing.path(RouterId(2), RouterId(2));
  EXPECT_TRUE(info.reachable);
  EXPECT_EQ(info.router_hops, 0u);
  EXPECT_TRUE(info.intra_as());
}

TEST(Routing, UnreachableIsland) {
  AsTopology topo = two_as_line();
  const AsId island = topo.add_as("island", false, {40.0, 20.0});
  const RouterId lonely = topo.add_router(island, {40.0, 20.0});
  RoutingTable routing(topo);
  const PathInfo& info = routing.path(RouterId(0), lonely);
  EXPECT_FALSE(info.reachable);
}

TEST(Routing, RouterPathEndpoints) {
  AsTopology topo = two_as_line();
  RoutingTable routing(topo);
  const auto path = routing.router_path(RouterId(0), RouterId(3));
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), RouterId(0));
  EXPECT_EQ(path.back(), RouterId(3));
  // Consecutive routers must share a link.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    bool adjacent = false;
    for (const auto& neighbor : topo.neighbors(path[i])) {
      adjacent |= neighbor.router == path[i + 1];
    }
    EXPECT_TRUE(adjacent);
  }
}

TEST(Routing, SymmetricOnUndirectedGraph) {
  const AsTopology topo = AsTopology::mesh(8, 0.3);
  RoutingTable routing(topo);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; i += 3) {
    for (std::uint32_t j = 0; j < n; j += 3) {
      EXPECT_NEAR(routing.latency_ms(RouterId(i), RouterId(j)),
                  routing.latency_ms(RouterId(j), RouterId(i)), 1e-9);
    }
  }
}

TEST(Routing, TriangleInequality) {
  const AsTopology topo = AsTopology::transit_stub(2, 4, 0.3);
  RoutingTable routing(topo);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t a = 0; a < n; a += 5) {
    for (std::uint32_t b = 0; b < n; b += 5) {
      for (std::uint32_t c = 0; c < n; c += 5) {
        EXPECT_LE(routing.latency_ms(RouterId(a), RouterId(c)),
                  routing.latency_ms(RouterId(a), RouterId(b)) +
                      routing.latency_ms(RouterId(b), RouterId(c)) + 1e-9);
      }
    }
  }
}

TEST(Routing, ShortestBeatsAnyDetour) {
  AsTopology topo = two_as_line();
  // Add a slow direct shortcut r0 <-> r3; Dijkstra must ignore it.
  topo.connect(RouterId(0), RouterId(3), LinkType::kPeering, 100.0, 10000);
  RoutingTable routing(topo);
  EXPECT_DOUBLE_EQ(routing.latency_ms(RouterId(0), RouterId(3)), 13.0);
  // Make the shortcut fast; now it must win.
  topo.connect(RouterId(0), RouterId(3), LinkType::kPeering, 5.0, 10000);
  RoutingTable fresh(topo);
  EXPECT_DOUBLE_EQ(fresh.latency_ms(RouterId(0), RouterId(3)), 5.0);
}

TEST(Routing, CacheGrowsPerSource) {
  const AsTopology topo = AsTopology::ring(4);
  RoutingTable routing(topo);
  EXPECT_EQ(routing.cached_sources(), 0u);
  (void)routing.path(RouterId(0), RouterId(5));
  EXPECT_EQ(routing.cached_sources(), 1u);
  (void)routing.path(RouterId(0), RouterId(7));
  EXPECT_EQ(routing.cached_sources(), 1u);  // same source reused
  (void)routing.path(RouterId(3), RouterId(1));
  EXPECT_EQ(routing.cached_sources(), 2u);
}

TEST(Routing, AsPathHasNoConsecutiveDuplicates) {
  const AsTopology topo = AsTopology::transit_stub(3, 3, 0.5);
  RoutingTable routing(topo);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; i += 4) {
    for (std::uint32_t j = 1; j < n; j += 4) {
      const PathInfo info = routing.path(RouterId(i), RouterId(j));
      const auto as_path = routing.as_path(RouterId(i), RouterId(j));
      if (!info.reachable) {
        EXPECT_TRUE(as_path.empty());
        continue;
      }
      // The lazily interned sequence agrees with the packed crossing count.
      ASSERT_EQ(as_path.size(), std::size_t(info.as_crossings) + 1);
      for (std::size_t k = 0; k + 1 < as_path.size(); ++k) {
        EXPECT_NE(as_path[k], as_path[k + 1]);
      }
    }
  }
}

TEST(Routing, AsPathInterningDeduplicatesStorage) {
  // Many intra-AS pairs share the single-AS sequence; interning must hand
  // back the same stable storage for all of them.
  const AsTopology topo = AsTopology::ring(3);
  RoutingTable routing(topo);
  const auto first = routing.as_path(RouterId(0), RouterId(1));
  const auto second = routing.as_path(RouterId(1), RouterId(2));
  const auto repeat = routing.as_path(RouterId(0), RouterId(1));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.data(), second.data());  // same interned sequence
  EXPECT_EQ(first.data(), repeat.data());  // pair memoized
  // Spans stay valid as the store grows across every pair in the topology.
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = 0; j < n; ++j)
      (void)routing.as_path(RouterId(i), RouterId(j));
  EXPECT_EQ(first.front(), topo.as_of(RouterId(0)));
}

TEST(Routing, WarmAllMatchesLazyQueries) {
  const AsTopology topo = AsTopology::transit_stub(2, 4, 0.4);
  RoutingTable lazy(topo);
  RoutingTable warmed(topo);
  warmed.warm_all_hierarchical();
  EXPECT_EQ(warmed.cached_sources(), topo.router_count());
  const auto& warmed_const = warmed;
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(warmed_const.warmed(RouterId(i)));
    for (std::uint32_t j = 0; j < n; ++j) {
      const PathInfo a = lazy.path(RouterId(i), RouterId(j));
      // Read through the const (shared-reader) entry point.
      const PathInfo b = warmed_const.path(RouterId(i), RouterId(j));
      EXPECT_EQ(a.reachable, b.reachable);
      EXPECT_EQ(a.latency_ms, b.latency_ms);  // bit-identical
      EXPECT_EQ(a.bottleneck_mbps, b.bottleneck_mbps);
      EXPECT_EQ(a.router_hops, b.router_hops);
      EXPECT_EQ(a.transit_crossings, b.transit_crossings);
      EXPECT_EQ(a.peering_crossings, b.peering_crossings);
      EXPECT_EQ(a.as_crossings, b.as_crossings);
    }
  }
  EXPECT_GT(warmed.row_bytes(), 0u);
}

}  // namespace
}  // namespace uap2p::underlay
