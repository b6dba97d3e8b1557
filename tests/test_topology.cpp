#include "underlay/topology.hpp"

#include <gtest/gtest.h>

#include <set>

namespace uap2p::underlay {
namespace {

TEST(Topology, RingShape) {
  const AsTopology topo = AsTopology::ring(5);
  EXPECT_EQ(topo.as_count(), 5u);
  EXPECT_EQ(topo.router_count(), 15u);  // 3 routers per AS by default
  // 5 peering links + 2 internal links per AS.
  std::size_t peering = 0, internal = 0, transit = 0;
  for (const Link& link : topo.links()) {
    switch (link.type) {
      case LinkType::kPeering: ++peering; break;
      case LinkType::kInternal: ++internal; break;
      case LinkType::kTransit: ++transit; break;
    }
  }
  EXPECT_EQ(peering, 5u);
  EXPECT_EQ(internal, 10u);
  EXPECT_EQ(transit, 0u);
}

TEST(Topology, RingOfTwoHasOneLink) {
  const AsTopology topo = AsTopology::ring(2);
  std::size_t peering = 0;
  for (const Link& link : topo.links()) {
    if (link.type == LinkType::kPeering) ++peering;
  }
  EXPECT_EQ(peering, 1u);
}

TEST(Topology, StarShape) {
  const AsTopology topo = AsTopology::star(6);
  std::size_t transit = 0;
  for (const Link& link : topo.links()) {
    if (link.type == LinkType::kTransit) ++transit;
  }
  EXPECT_EQ(transit, 5u);  // hub to each satellite
  EXPECT_TRUE(topo.as_info(AsId(0)).is_transit);
  EXPECT_FALSE(topo.as_info(AsId(1)).is_transit);
  // All satellites are 2 AS-hops apart, 1 from the hub.
  EXPECT_EQ(topo.as_hop_distance(AsId(1), AsId(2)), 2u);
  EXPECT_EQ(topo.as_hop_distance(AsId(0), AsId(3)), 1u);
}

TEST(Topology, TreeShapeHopDistances) {
  const AsTopology topo = AsTopology::tree(7, 2);  // complete binary tree
  // Leaves 3 and 4 share parent 1: distance 2. Leaves 3 and 5 go through
  // the root: distance 4.
  EXPECT_EQ(topo.as_hop_distance(AsId(3), AsId(4)), 2u);
  EXPECT_EQ(topo.as_hop_distance(AsId(3), AsId(5)), 4u);
  EXPECT_EQ(topo.as_hop_distance(AsId(0), AsId(6)), 2u);
}

TEST(Topology, MeshIsConnected) {
  const AsTopology topo = AsTopology::mesh(12, 0.2);
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t j = 0; j < 12; ++j) {
      EXPECT_NE(topo.as_hop_distance(AsId(i), AsId(j)), SIZE_MAX);
    }
  }
}

TEST(Topology, MeshEdgeProbabilityScalesDensity) {
  const AsTopology sparse = AsTopology::mesh(16, 0.05);
  const AsTopology dense = AsTopology::mesh(16, 0.8);
  EXPECT_GT(dense.link_count(), sparse.link_count());
}

TEST(Topology, TransitStubStructure) {
  const AsTopology topo = AsTopology::transit_stub(3, 4, 0.0);
  EXPECT_EQ(topo.as_count(), 3u + 12u);
  // Transit core is fully meshed with peering.
  EXPECT_EQ(topo.as_hop_distance(AsId(0), AsId(1)), 1u);
  EXPECT_EQ(topo.as_hop_distance(AsId(0), AsId(2)), 1u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(topo.as_info(AsId(i)).is_transit);
  }
  // A stub reaches its provider in 1 hop and a foreign stub in 3.
  EXPECT_EQ(topo.as_hop_distance(AsId(3), AsId(0)), 1u);
  // Stubs of different transit providers: stub -> transit -> transit -> stub.
  const AsId stub_of_0(3);
  const AsId stub_of_1(3 + 4);
  EXPECT_EQ(topo.as_hop_distance(stub_of_0, stub_of_1), 3u);
}

TEST(Topology, AsHopDistanceProperties) {
  const AsTopology topo = AsTopology::transit_stub(2, 3, 0.5);
  const auto n = static_cast<std::uint32_t>(topo.as_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(topo.as_hop_distance(AsId(i), AsId(i)), 0u);
    for (std::uint32_t j = 0; j < n; ++j) {
      EXPECT_EQ(topo.as_hop_distance(AsId(i), AsId(j)),
                topo.as_hop_distance(AsId(j), AsId(i)));
    }
  }
}

/// Every pair of `warmed` against a copy of the same topology that only
/// ever fills rows lazily (single-source BFS).
void expect_hops_match_lazy(const AsTopology& warmed, const AsTopology& lazy) {
  const auto n = static_cast<std::uint32_t>(warmed.as_count());
  ASSERT_EQ(lazy.as_count(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      ASSERT_EQ(warmed.as_hop_distance(AsId(i), AsId(j)),
                lazy.as_hop_distance(AsId(i), AsId(j)))
          << "as_hop_distance(" << i << ", " << j << ") of " << n << " ASes";
    }
  }
}

TEST(Topology, WarmAsHopsMatchesLazyBfs) {
  // warm_as_hops runs 64 sources per bit-parallel BFS; the counts cover
  // one source, a partial batch, an exact batch, one spill source and a
  // partial last batch.
  for (const std::size_t ases : {1u, 63u, 64u, 65u, 130u}) {
    const double p = 4.0 / double(ases);
    const AsTopology lazy = AsTopology::mesh(ases, p);
    for (const std::size_t threads : {1u, 4u}) {
      const AsTopology warmed = AsTopology::mesh(ases, p);
      warmed.warm_as_hops(threads);
      expect_hops_match_lazy(warmed, lazy);
    }
  }

  // A second component: cross-component pairs stay SIZE_MAX.
  AsTopology split = AsTopology::mesh(70, 0.05);
  const AsId a = split.add_as("island-a", false, {});
  const AsId b = split.add_as("island-b", false, {});
  split.add_router(a, {});
  split.add_router(b, {});
  split.connect_ases(a, b, LinkType::kPeering);
  {
    const AsTopology lazy = split;
    split.warm_as_hops(4);
    EXPECT_EQ(split.as_hop_distance(AsId(0), a), SIZE_MAX);
    EXPECT_EQ(split.as_hop_distance(b, AsId(69)), SIZE_MAX);
    EXPECT_EQ(split.as_hop_distance(a, b), 1u);
    expect_hops_match_lazy(split, lazy);
  }

  // Some rows were filled lazily before the warm (first and last
  // sources of both batches among them).
  {
    const AsTopology base = AsTopology::mesh(130, 0.03);
    const AsTopology partly = base;
    for (const std::uint32_t src : {0u, 5u, 63u, 64u, 129u}) {
      (void)partly.as_hop_distance(AsId(src), AsId(1));
    }
    partly.warm_as_hops(4);
    expect_hops_match_lazy(partly, base);
  }

  // Mutations drop the warmed rows; a re-warm sees the new edges.
  {
    AsTopology grown = AsTopology::mesh(65, 0.05);
    grown.warm_as_hops(4);
    const AsId extra = grown.add_as("extra", false, {});
    grown.add_router(extra, {});
    grown.connect_ases(AsId(0), extra, LinkType::kTransit);
    grown.connect_ases(AsId(40), extra, LinkType::kTransit);
    const AsTopology lazy = grown;
    grown.warm_as_hops(4);
    EXPECT_EQ(grown.as_hop_distance(AsId(0), extra), 1u);
    expect_hops_match_lazy(grown, lazy);
  }
}

TEST(Topology, PrefixesAreUniqueAndWellFormed) {
  const AsTopology topo = AsTopology::mesh(20, 0.1);
  std::set<std::uint32_t> prefixes;
  for (const auto& as : topo.ases()) {
    EXPECT_EQ(as.prefix_len, 16);
    EXPECT_EQ(as.prefix & 0xFFFF, 0u) << "host bits must be clear";
    prefixes.insert(as.prefix);
  }
  EXPECT_EQ(prefixes.size(), topo.as_count());
}

TEST(Topology, GatewayIsFirstRouter) {
  const AsTopology topo = AsTopology::ring(4);
  for (const auto& as : topo.ases()) {
    EXPECT_EQ(topo.gateway_of(as.id), as.routers.front());
    EXPECT_TRUE(topo.router(as.routers.front()).is_gateway);
  }
}

TEST(Topology, AsNeighborsMatchesLinks) {
  const AsTopology topo = AsTopology::ring(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto neighbors = topo.as_neighbors(AsId(i));
    EXPECT_EQ(neighbors.size(), 2u);  // ring degree
  }
}

TEST(Topology, DeterministicForSameSeed) {
  TopologyConfig config;
  config.seed = 99;
  const AsTopology a = AsTopology::mesh(10, 0.3, config);
  const AsTopology b = AsTopology::mesh(10, 0.3, config);
  ASSERT_EQ(a.link_count(), b.link_count());
  for (std::size_t i = 0; i < a.link_count(); ++i) {
    EXPECT_EQ(a.link(i).a, b.link(i).a);
    EXPECT_EQ(a.link(i).b, b.link(i).b);
    EXPECT_DOUBLE_EQ(a.link(i).latency_ms, b.link(i).latency_ms);
  }
}

TEST(Topology, InterAsLatencyRespectsFloor) {
  TopologyConfig config;
  config.min_inter_as_latency_ms = 5.0;
  const AsTopology topo = AsTopology::ring(6, config);
  for (const Link& link : topo.links()) {
    if (link.type != LinkType::kInternal) {
      EXPECT_GE(link.latency_ms, 5.0);
    }
  }
}

TEST(Topology, LinkTypeNames) {
  EXPECT_STREQ(to_string(LinkType::kInternal), "internal");
  EXPECT_STREQ(to_string(LinkType::kPeering), "peering");
  EXPECT_STREQ(to_string(LinkType::kTransit), "transit");
}

// Parameterized: every generator yields a connected AS graph.
class TopologyConnectivityP : public ::testing::TestWithParam<int> {};

TEST_P(TopologyConnectivityP, AllPairsReachable) {
  AsTopology topo;
  switch (GetParam()) {
    case 0: topo = AsTopology::ring(8); break;
    case 1: topo = AsTopology::star(8); break;
    case 2: topo = AsTopology::tree(8, 2); break;
    case 3: topo = AsTopology::mesh(8, 0.1); break;
    case 4: topo = AsTopology::transit_stub(2, 3); break;
    default: FAIL();
  }
  const auto n = static_cast<std::uint32_t>(topo.as_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      EXPECT_NE(topo.as_hop_distance(AsId(i), AsId(j)), SIZE_MAX)
          << "AS " << i << " cannot reach AS " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, TopologyConnectivityP,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace uap2p::underlay
