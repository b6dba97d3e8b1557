// Concurrency contract of the snapshot subsystem (TSan-checked via the
// "parallel" label): many threads may open the same snapshot file at once
// (the verified-identity cache is shared process state), and a
// snapshot-backed SharedRouting is immutable after load, so parallel
// trials may query the mmapped rows freely.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "lazy_warm.hpp"
#include "underlay/routing.hpp"
#include "underlay/snapshot.hpp"
#include "underlay/topology.hpp"

namespace uap2p::underlay {
namespace {

std::string write_snapshot(const AsTopology& topo, const std::string& name) {
  const std::string path = testing::TempDir() + "uap2p_" + name + ".uap2psnap";
  RoutingTable table(topo);
  warm_lazily(topo, table);
  std::string error;
  EXPECT_TRUE(snapshot::write(topo, table, path, &error)) << error;
  return path;
}

TEST(SnapshotParallel, ConcurrentOpensOfOneFile) {
  const AsTopology topo = AsTopology::mesh(10, 0.5);
  const std::string path = write_snapshot(topo, "parallel_open");

  constexpr std::size_t kThreads = 8;
  std::vector<std::size_t> sizes(kThreads, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Every thread maps and validates independently; the first
        // content verification for this identity races benignly (each
        // verifier computes the same answer) behind the cache mutex.
        std::string error;
        const auto snap = snapshot::MappedSnapshot::open(path, &error);
        ASSERT_NE(snap, nullptr) << error;
        sizes[t] = snap->file_bytes();
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(sizes[t], sizes[0]);
}

TEST(SnapshotParallel, ConcurrentReadersOnLoadedSharedRouting) {
  const AsTopology topo = AsTopology::transit_stub(3, 5, 0.3);
  const std::string path = write_snapshot(topo, "parallel_readers");

  std::string error;
  const auto routing = SharedRouting::load(topo, path, /*threads=*/1, &error);
  ASSERT_NE(routing, nullptr) << error;
  ASSERT_TRUE(routing->snapshot_backed());

  // A fresh (non-snapshot) build of the same topology gives the expected
  // answers; every reader thread must agree with it byte-for-byte.
  const auto reference = SharedRouting::build(topo, /*threads=*/1);
  const auto n = static_cast<std::uint32_t>(topo.router_count());

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stride the pair space differently per thread so accesses overlap
      // on some rows and diverge on others.
      for (std::uint32_t s = std::uint32_t(t) % n; s < n; s += 3) {
        for (std::uint32_t d = 0; d < n; d += 2) {
          const PathInfo got = routing->path(RouterId(s), RouterId(d));
          const PathInfo want = reference->path(RouterId(s), RouterId(d));
          ASSERT_EQ(got.latency_ms, want.latency_ms)
              << "path(" << s << "," << d << ") diverged";
          ASSERT_EQ(got.bottleneck_mbps, want.bottleneck_mbps);
          ASSERT_EQ(got.router_hops, want.router_hops);
          ASSERT_EQ(got.transit_crossings, want.transit_crossings);
          ASSERT_EQ(got.peering_crossings, want.peering_crossings);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace uap2p::underlay
