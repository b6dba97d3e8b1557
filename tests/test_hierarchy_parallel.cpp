// Concurrency contract of the hierarchical warm path (TSan-checked via
// the "parallel" label): once the shared views are built — CSR and
// hierarchy plan, both lazy — a topology may back many RoutingTables
// warming hierarchically at once, each with its own row arena; the
// process-global arena recycler is hit concurrently by their
// constructors and destructors. Every warm must still be byte-identical
// to the lazy per-source Dijkstra (path()).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "lazy_warm.hpp"
#include "underlay/hierarchy.hpp"
#include "underlay/routing.hpp"
#include "underlay/topology.hpp"

namespace uap2p::underlay {
namespace {

void expect_rows_match(const AsTopology& topo, const RoutingTable& got,
                       const RoutingTable& want) {
  const std::size_t n = topo.router_count();
  for (std::size_t src = 0; src < n; ++src) {
    const auto id = RouterId(static_cast<std::uint32_t>(src));
    const auto a = got.row(id);
    const auto b = want.row(id);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
        << "source row " << src << " differs from the per-source Dijkstra";
  }
}

TEST(HierarchyParallel, ConcurrentTablesShareOnePlan) {
  const AsTopology topo = AsTopology::transit_stub(4, 8, 0.3);
  // Build the lazy shared views before fanning out, per the topology's
  // threading contract (same rule as csr()).
  (void)topo.csr();
  (void)topo.hierarchy_plan();

  RoutingTable reference(topo);
  warm_lazily(topo, reference);

  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Construct, warm, compare, and destroy inside the thread: the
      // destructor retires the row arena to the process-global recycler
      // while sibling threads are allocating theirs.
      RoutingTable table(topo);
      table.warm_all_hierarchical(/*threads=*/1);
      expect_rows_match(topo, table, reference);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(HierarchyParallel, InternallyThreadedWarmMatchesFlat) {
  const AsTopology topo = AsTopology::transit_stub(3, 10, 0.3);
  RoutingTable reference(topo);
  warm_lazily(topo, reference);

  // The per-source fold itself runs on a pool: every worker streams the
  // shared plan's baked trees into its own rows concurrently.
  RoutingTable hier(topo);
  hier.warm_all_hierarchical(/*threads=*/4);
  expect_rows_match(topo, hier, reference);
}

TEST(HierarchyParallel, SequentialRebuildsRecycleTheArena) {
  // Back-to-back warms of the same size (the oracle snapshot-refresh
  // loop) route through the arena recycler: each table after the first
  // adopts the previous one's pages. Rows must stay byte-identical — the
  // recycled arena is dirty memory, every entry must be overwritten.
  const AsTopology topo = AsTopology::transit_stub(3, 8, 0.3);
  RoutingTable reference(topo);
  warm_lazily(topo, reference);
  for (int round = 0; round < 3; ++round) {
    RoutingTable table(topo);
    table.warm_all_hierarchical(/*threads=*/2);
    expect_rows_match(topo, table, reference);
  }
}

}  // namespace
}  // namespace uap2p::underlay
