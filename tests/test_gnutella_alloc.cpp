// Steady-state allocation behaviour of the Gnutella flood path: once the
// overlay, the per-node flood tables, the engine slab, and the traffic
// accountant's billing windows are warm, a full query flood (Query out,
// QueryHit back, route-back delivery) or ping cycle (Ping out, Pongs back
// into hostcaches and pong caches) must not touch the global allocator
// at all. This is the overlay-level
// counterpart of test_engine_alloc.cpp and guards the flat-table rewrite
// of GnutellaSystem.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/gnutella.hpp"
#include "sim/engine.hpp"
#include "underlay/network.hpp"

namespace uap2p {
namespace {

TEST(GnutellaAllocation, SteadyStateQueryFloodIsAllocationFree) {
  sim::Engine engine;
  const underlay::AsTopology topo =
      underlay::AsTopology::transit_stub(3, 5, 0.3);
  underlay::Network net(engine, topo, 21);
  const auto peers = net.populate(180);
  overlay::gnutella::Config config;
  config.dynamic_querying = false;  // always flood at full TTL
  overlay::gnutella::GnutellaSystem system(
      net, peers,
      overlay::gnutella::testlab_roles(peers.size(), 2, topo.as_count()),
      config);
  system.bootstrap();
  for (std::size_t i = 0; i < 3; ++i) {
    system.share(peers[i * 7 + 1], ContentId(5));
  }
  system.ping_cycle();

  std::size_t origin = 0;
  auto do_search = [&] {
    origin = (origin + 37) % peers.size();
    return system
        .search(peers[origin], ContentId(5), /*download=*/false)
        .result_count;
  };

  // Warm-up: grows flood tables, fan-out scratch, the engine slab, and
  // per-type delivery counters to their steady-state footprint. Rotate
  // far enough that every measured origin has floods behind it.
  for (int i = 0; i < 8; ++i) {
    ASSERT_GT(do_search(), 0u);
  }
  // Billing windows grow with simulated time; pre-size them past the end
  // of the measured region (each search quiesces for 30 simulated
  // seconds, so 16 more searches stay well under an hour).
  net.traffic().reserve_windows(engine.now() + sim::hours(1));

  const std::uint64_t before = testing::allocation_count();
  std::size_t results = 0;
  for (int i = 0; i < 16; ++i) results += do_search();
  const std::uint64_t after = testing::allocation_count();

  EXPECT_EQ(after - before, 0u) << "steady-state query flood allocated";
  EXPECT_GT(results, 0u);
}

TEST(GnutellaAllocation, SteadyStatePingCycleIsAllocationFree) {
  // The Pong path: every Pong a node receives or forwards goes through
  // the hostcache (membership check, append or random replacement) and
  // the pong cache (refresh in place, append, evict the stalest). Both
  // caches are sized well below the 180 peers so the measured cycles
  // replace and evict rather than only refresh.
  sim::Engine engine;
  const underlay::AsTopology topo =
      underlay::AsTopology::transit_stub(3, 5, 0.3);
  underlay::Network net(engine, topo, 21);
  const auto peers = net.populate(180);
  overlay::gnutella::Config config;
  config.hostcache_size = 40;
  config.pong_cache_capacity = 16;
  overlay::gnutella::GnutellaSystem system(
      net, peers,
      overlay::gnutella::testlab_roles(peers.size(), 2, topo.as_count()),
      config);
  system.bootstrap();

  // Warm-up: grows flood tables, pong caches and the engine slab (which
  // holds every in-flight message) to their steady-state footprint.
  for (int i = 0; i < 8; ++i) system.ping_cycle();
  // Each cycle quiesces for 30 simulated seconds: 16 more stay well
  // inside an hour of billing windows.
  net.traffic().reserve_windows(engine.now() + sim::hours(1));
  auto hostcaches = [&] {
    std::vector<std::vector<PeerId>> caches;
    for (const PeerId peer : peers) {
      const auto cache = system.hostcache_of(peer);
      caches.emplace_back(cache.begin(), cache.end());
    }
    return caches;
  };
  const auto caches_before = hostcaches();
  const std::uint64_t pongs_before = system.counts().pong;

  const std::uint64_t before = testing::allocation_count();
  for (int i = 0; i < 16; ++i) system.ping_cycle();
  const std::uint64_t after = testing::allocation_count();

  EXPECT_EQ(after - before, 0u) << "steady-state ping cycle allocated";
  // Every delivery closure carries its whole Message; none may spill out
  // of the engine slot.
  EXPECT_EQ(engine.stats().spilled_callbacks, 0u);
  EXPECT_GT(system.counts().pong, pongs_before);
  EXPECT_NE(hostcaches(), caches_before)
      << "measured cycles never replaced a hostcache entry";
}

TEST(GnutellaAllocation, SteadyStateFloodWithObsEnabledIsAllocationFree) {
  // Same regime as above, but with the full observability surface armed:
  // registry counters bound on the network and overlay, and a ring trace
  // sink attached to engine, network, and overlay. Counters are pointer
  // increments and the ring buffer is preallocated, so the flood must
  // still never touch the global allocator.
  sim::Engine engine;
  const underlay::AsTopology topo =
      underlay::AsTopology::transit_stub(3, 5, 0.3);
  underlay::Network net(engine, topo, 21);
  const auto peers = net.populate(180);
  overlay::gnutella::Config config;
  config.dynamic_querying = false;
  overlay::gnutella::GnutellaSystem system(
      net, peers,
      overlay::gnutella::testlab_roles(peers.size(), 2, topo.as_count()),
      config);
  obs::MetricsRegistry registry;
  obs::RingTraceSink ring(1 << 16);
  net.set_metrics(&registry);
  system.bind_metrics(registry);
  engine.set_trace(&ring);
  net.set_trace(&ring);
  system.set_trace(&ring);
  system.bootstrap();
  for (std::size_t i = 0; i < 3; ++i) {
    system.share(peers[i * 7 + 1], ContentId(5));
  }
  system.ping_cycle();

  std::size_t origin = 0;
  auto do_search = [&] {
    origin = (origin + 37) % peers.size();
    return system
        .search(peers[origin], ContentId(5), /*download=*/false)
        .result_count;
  };
  for (int i = 0; i < 8; ++i) {
    ASSERT_GT(do_search(), 0u);
  }
  net.traffic().reserve_windows(engine.now() + sim::hours(1));

  const std::uint64_t before = testing::allocation_count();
  std::size_t results = 0;
  for (int i = 0; i < 16; ++i) results += do_search();
  const std::uint64_t after = testing::allocation_count();

  EXPECT_EQ(after - before, 0u) << "flood with obs armed allocated";
  EXPECT_GT(results, 0u);
  EXPECT_GT(registry.counter("net.messages.sent").value(), 0u);
  EXPECT_GT(ring.total_recorded(), 0u);
}

TEST(GnutellaAllocation, WindowedMatrixSteadyStateIsAllocationFree) {
  // The cost-observatory regime: per-AS-pair matrix armed, per-window
  // billing series growing with simulated time — and NO manual
  // reserve_windows call. Network::run_until forwards each quiesce
  // horizon (plus an hour of lookahead) to the traffic accountant, so
  // once the pair cells exist the measured floods must never touch the
  // allocator: window growth happens in run_until's cold path, inside
  // capacity reserved a simulated hour ahead.
  sim::Engine engine;
  const underlay::AsTopology topo =
      underlay::AsTopology::transit_stub(3, 5, 0.3);
  underlay::Network net(engine, topo, 21);
  const auto peers = net.populate(180);
  net.enable_traffic_matrix();
  overlay::gnutella::Config config;
  config.dynamic_querying = false;
  overlay::gnutella::GnutellaSystem system(
      net, peers,
      overlay::gnutella::testlab_roles(peers.size(), 2, topo.as_count()),
      config);
  system.bootstrap();
  for (std::size_t i = 0; i < 3; ++i) {
    system.share(peers[i * 7 + 1], ContentId(5));
  }
  system.ping_cycle();

  std::size_t origin = 0;
  auto do_search = [&] {
    origin = (origin + 37) % peers.size();
    return system
        .search(peers[origin], ContentId(5), /*download=*/false)
        .result_count;
  };
  // Warm-up populates every active AS pair's cell and triggers the
  // automatic horizon reserve; 16 measured searches advance 8 simulated
  // minutes, well inside the hour of lookahead.
  for (int i = 0; i < 8; ++i) {
    ASSERT_GT(do_search(), 0u);
  }

  const std::uint64_t before = testing::allocation_count();
  std::size_t results = 0;
  for (int i = 0; i < 16; ++i) results += do_search();
  const std::uint64_t after = testing::allocation_count();

  EXPECT_EQ(after - before, 0u) << "windowed matrix steady state allocated";
  EXPECT_GT(results, 0u);
  EXPECT_GT(net.traffic().matrix().pair_count(), 0u);
}

}  // namespace
}  // namespace uap2p
