// Micro-benchmarks (google-benchmark) for the hot substrate paths:
// event-loop throughput, Dijkstra/path-cache lookups, LPM trie, Vivaldi
// updates, ICS model construction, oracle ranking. These guard the
// simulator's performance envelope rather than reproduce a paper figure.
//
// Besides the console output, the binary emits a machine-readable
// `BENCH_micro.json` (path overridable with --bench_json=PATH) holding
// per-benchmark items/sec, so perf trajectories can be compared across
// PRs and validated by the bench-smoke CTest check.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "obs/latency.hpp"
#include "oracle/service.hpp"
#include "netinfo/ics.hpp"
#include "overlay/gnutella.hpp"
#include "netinfo/ipmap.hpp"
#include "netinfo/oracle.hpp"
#include "netinfo/p4p.hpp"
#include "netinfo/vivaldi.hpp"
#include "sim/engine.hpp"
#include "underlay/geo.hpp"
#include "underlay/network.hpp"

using namespace uap2p;

// --- Event engine --------------------------------------------------------

static void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule(double(i % 97), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun);

static void BM_EngineSteadyStateChurn(benchmark::State& state) {
  // A warm engine whose slab and queue storage are recycled each round:
  // the steady-state regime every long simulation run lives in.
  sim::Engine engine;
  auto round = [&engine] {
    for (int i = 0; i < 1000; ++i) engine.schedule(double(i % 97), [] {});
    return engine.run();
  };
  round();  // warm-up: grow slab + queue to steady-state footprint
  for (auto _ : state) {
    benchmark::DoNotOptimize(round());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineSteadyStateChurn);

static void BM_EngineCancelHeavy(benchmark::State& state) {
  // Retransmission-timer workload: most timers are disarmed before they
  // fire, exercising generation-tombstone skipping and slot recycling.
  sim::Engine engine;
  std::vector<sim::EventHandle> handles(1000);
  auto round = [&] {
    for (int i = 0; i < 1000; ++i) {
      handles[std::size_t(i)] = engine.schedule(double(i % 61), [] {});
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 10 != 0) handles[std::size_t(i)].cancel();
    }
    return engine.run();
  };
  round();  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(round());
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // timers armed
}
BENCHMARK(BM_EngineCancelHeavy);

// --- Routing -------------------------------------------------------------

static void BM_RoutingColdDijkstra(benchmark::State& state) {
  const underlay::AsTopology topo =
      underlay::AsTopology::transit_stub(3, std::size_t(state.range(0)), 0.3);
  for (auto _ : state) {
    underlay::RoutingTable routing(topo);
    benchmark::DoNotOptimize(
        routing.path(RouterId(0), RouterId(std::uint32_t(topo.router_count() - 1))));
  }
  state.SetLabel(std::to_string(topo.router_count()) + " routers");
}
BENCHMARK(BM_RoutingColdDijkstra)->Arg(5)->Arg(20)->Arg(60)->Arg(200)->Arg(1000);

// Transit-stub underlay sized to ~`routers` total routers (10 providers,
// 3 routers/AS): the topology family the hierarchical preprocessing
// contracts, shared by the warm and build rows below so they time
// identical inputs.
static underlay::AsTopology warm_bench_topology(std::size_t routers) {
  const std::size_t transit = 10;
  const std::size_t stubs_per_transit = (routers / 3 - transit) / transit;
  return underlay::AsTopology::transit_stub(transit, stubs_per_transit, 0.3);
}

static void BM_RoutingWarmAllHier(benchmark::State& state) {
  // Batch all-pairs warm-up, the provider-side precompute a P4P/oracle
  // deployment runs per topology snapshot, through the hierarchical path
  // (DESIGN.md "Hierarchical routing"): pendant + stub-group contraction,
  // Dijkstra only over the transit core, exact aggregate re-expansion.
  // Rows are byte-identical to the per-source Dijkstra (path()). Arg =
  // target router count on a 10-provider transit-stub underlay. The
  // contraction plan is cached on the topology, so only the first
  // iteration builds it; the row is the re-warm of an unchanged topology,
  // not a cold build (that is BM_RoutingBuildHier). The first iteration
  // also faults in a fresh row arena, recycled across tables thereafter.
  const underlay::AsTopology topo =
      warm_bench_topology(std::size_t(state.range(0)));
  (void)topo.csr();
  for (auto _ : state) {
    underlay::RoutingTable routing(topo);
    routing.warm_all_hierarchical();
    benchmark::DoNotOptimize(routing.cached_sources());
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(topo.router_count()));  // sources
  state.SetLabel(std::to_string(topo.router_count()) + " routers");
}
BENCHMARK(BM_RoutingWarmAllHier)
    ->Arg(1000)
    ->Arg(3000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

static void BM_RoutingBuildHier(benchmark::State& state) {
  // Plan plus warm: what SharedRouting::build pays for a topology it has
  // not seen. Each iteration warms a fresh copy of a topology whose CSR
  // is built but whose plan is not, so the contraction plan is rebuilt
  // every time; the copy itself is untimed.
  const underlay::AsTopology topo =
      warm_bench_topology(std::size_t(state.range(0)));
  (void)topo.csr();
  for (auto _ : state) {
    state.PauseTiming();
    const underlay::AsTopology fresh = topo;
    state.ResumeTiming();
    underlay::RoutingTable routing(fresh);
    routing.warm_all_hierarchical();
    benchmark::DoNotOptimize(routing.cached_sources());
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(topo.router_count()));  // sources
  state.SetLabel(std::to_string(topo.router_count()) + " routers");
}
BENCHMARK(BM_RoutingBuildHier)
    ->Arg(1000)
    ->Arg(3000)
    ->Unit(benchmark::kMillisecond);

static void BM_AltQuery(benchmark::State& state) {
  // ALT-pruned point-to-point queries (RoutingTable::point_path) on a
  // cold table: landmark lower bounds + early exit keep a single query
  // far under a full Dijkstra row, for callers that need a handful of
  // pairs and not the all-pairs warm. Items = queries.
  const underlay::AsTopology topo = warm_bench_topology(3000);
  (void)topo.csr();
  underlay::RoutingTable routing(topo);
  (void)routing.ensure_landmarks();  // charge landmark build to setup
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // splitmix-style pair stream
  for (auto _ : state) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const auto a = RouterId(std::uint32_t(z % n));
    const auto b = RouterId(std::uint32_t((z >> 32) % n));
    benchmark::DoNotOptimize(routing.point_path(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(n) + " routers");
}
BENCHMARK(BM_AltQuery);

// Snapshot files for BM_SnapshotLoad / BM_SnapshotOpenVerify, written once
// per (router-count) arg into the snapshot dir (or a temp dir when no
// --snapshot-dir= is set) and reused across benchmark registrations.
static const std::string& snapshot_bench_file(std::size_t ases) {
  static std::map<std::size_t, std::string> files;
  static std::mutex mutex;
  std::lock_guard lock(mutex);
  auto it = files.find(ases);
  if (it != files.end()) return it->second;
  std::filesystem::path dir = bench::options().snapshot_dir.empty()
                                  ? std::filesystem::temp_directory_path() /
                                        "uap2p_bench_snapshots"
                                  : std::filesystem::path(
                                        bench::options().snapshot_dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string params = "a" + std::to_string(ases) + "-bench";
  const std::string path =
      (dir / bench::snapshot_cache_name("mesh", params, 1)).string();
  std::string error;
  // Reuse an existing cache entry when it attaches cleanly; else (first
  // run, version skew, corruption) warm fresh and (re)write it.
  const underlay::AsTopology topo =
      underlay::AsTopology::mesh(ases, 8.0 / double(ases));
  if (!std::filesystem::exists(path, ec) ||
      underlay::SharedRouting::load(topo, path, 0, &error) == nullptr) {
    underlay::RoutingTable table(topo);
    table.warm_all_hierarchical();
    if (!underlay::snapshot::write(topo, table, path, &error)) {
      std::fprintf(stderr, "bench_micro: snapshot write failed: %s\n",
                   error.c_str());
      std::abort();
    }
  }
  return files.emplace(ases, path).first->second;
}

static void BM_SnapshotLoad(benchmark::State& state) {
  // The zero-Dijkstra counterpart of the batch warm
  // (BM_RoutingWarmAllHier): mmap-open the persistent snapshot,
  // byte-compare its CSR against the live topology, and adopt the row
  // image into a fresh RoutingTable — the warmed-table load path benches
  // take on a --snapshot-dir= cache hit. Arg is the router count of a
  // routers/3-AS mesh. Like the warm rows, the loop builds a fresh table
  // over a pre-built topology: topology generation / CSR build / AS-hop
  // warm are setup in both, so ns-per-iter compares the row-filling
  // machinery alone (warm vs mmap+verify+adopt). Steady-state
  // regime: the one-time full content verify of the file identity is paid
  // in setup (BM_SnapshotOpenVerify prices it alone).
  const auto routers = static_cast<std::size_t>(state.range(0));
  const std::size_t ases = routers / 3;
  const std::string& path = snapshot_bench_file(ases);
  const underlay::AsTopology topo =
      underlay::AsTopology::mesh(ases, 8.0 / double(ases));
  (void)topo.csr();  // charge the one-off CSR build to setup, like the warm
  {
    std::string error;  // pre-verify so the loop measures steady state
    if (underlay::snapshot::MappedSnapshot::open(path, &error) == nullptr) {
      state.SkipWithError(error.c_str());
      return;
    }
  }
  for (auto _ : state) {
    std::string error;
    const auto snap = underlay::snapshot::MappedSnapshot::open(path, &error);
    if (snap == nullptr) {
      state.SkipWithError(error.c_str());
      return;
    }
    underlay::RoutingTable routing(topo);
    if (!underlay::snapshot::attach(*snap, topo, routing, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    benchmark::DoNotOptimize(routing.cached_sources());
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(topo.router_count()));  // sources
  state.SetLabel(std::to_string(topo.router_count()) + " routers");
}
BENCHMARK(BM_SnapshotLoad)
    ->Arg(200)
    ->Arg(1000)
    ->Arg(3000)
    ->Unit(benchmark::kMillisecond);

static void BM_SnapshotOpenVerify(benchmark::State& state) {
  // Cold-trust open: re-hash every section payload (Verify::kAlways), the
  // cost the first open of a new file identity pays. Memory-bandwidth
  // bound on the row image, so expect ~file_size / ~8 GB/s.
  const auto routers = static_cast<std::size_t>(state.range(0));
  const std::string& path = snapshot_bench_file(routers / 3);
  for (auto _ : state) {
    std::string error;
    const auto snap = underlay::snapshot::MappedSnapshot::open(
        path, &error, underlay::snapshot::MappedSnapshot::Verify::kAlways);
    if (snap == nullptr) {
      state.SkipWithError(error.c_str());
      return;
    }
    benchmark::DoNotOptimize(snap->file_bytes());
  }
  state.SetLabel(std::to_string(routers) + " routers");
}
BENCHMARK(BM_SnapshotOpenVerify)
    ->Arg(3000)
    ->Unit(benchmark::kMillisecond);

static void BM_SnapshotWrite(benchmark::State& state) {
  // snapshot::write of a hierarchically warmed table (landmarks included,
  // as SharedRouting::build leaves it): the persist step of an oracle
  // cold start. Each iteration writes a new file; removing it is untimed,
  // so every write allocates fresh page cache like a first persist does.
  // Arg = target router count on the warm-bench transit-stub underlay.
  const underlay::AsTopology topo =
      warm_bench_topology(std::size_t(state.range(0)));
  underlay::RoutingTable table(topo);
  table.warm_all_hierarchical();
  (void)table.ensure_landmarks();
  const std::string path = (std::filesystem::temp_directory_path() /
                            "uap2p_bench_snapshot_write.uap2psnap")
                               .string();
  for (auto _ : state) {
    std::string error;
    if (!underlay::snapshot::write(topo, table, path, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    state.PauseTiming();
    std::remove(path.c_str());
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() *
                          std::int64_t(table.row_bytes()));
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(topo.router_count()));  // rows
  state.SetLabel(std::to_string(topo.router_count()) + " routers");
}
BENCHMARK(BM_SnapshotWrite)
    ->Arg(1000)
    ->Arg(3000)
    ->Unit(benchmark::kMillisecond);

static void BM_AsHopsWarm(benchmark::State& state) {
  // AsTopology::warm_as_hops, the AS-hop BFS rows the oracle ranks by:
  // paid once per SharedRouting build and once per snapshot load. Arg =
  // AS count: 93 is the Gnutella lab's transit_stub(3, 30), 910 the
  // oracle's transit_stub(10, 90). Each iteration warms a fresh copy of
  // a topology whose AS CSR is built (the copy is untimed).
  const std::size_t ases = std::size_t(state.range(0));
  const std::size_t transit = ases < 300 ? 3 : 10;
  const underlay::AsTopology topo = underlay::AsTopology::transit_stub(
      transit, ases / transit - 1, 0.3);
  (void)topo.as_csr();
  for (auto _ : state) {
    state.PauseTiming();
    const underlay::AsTopology fresh = topo;
    state.ResumeTiming();
    fresh.warm_as_hops();
    benchmark::DoNotOptimize(fresh.as_hop_distance(AsId(0), AsId(1)));
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(topo.as_count()));  // BFS sources
  state.SetLabel(std::to_string(topo.as_count()) + " ASes");
}
BENCHMARK(BM_AsHopsWarm)->Arg(93)->Arg(910);

static void BM_RoutingCachedPath(benchmark::State& state) {
  const underlay::AsTopology topo = underlay::AsTopology::transit_stub(3, 20, 0.3);
  underlay::RoutingTable routing(topo);
  const auto last = RouterId(std::uint32_t(topo.router_count() - 1));
  (void)routing.path(RouterId(0), last);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing.path(RouterId(0), last));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingCachedPath);

static void BM_RoutingMixedCachedPaths(benchmark::State& state) {
  // Fully warmed cache probed with a shuffled pair sequence: the realistic
  // hot regime of Network::send once a simulation has been running.
  const underlay::AsTopology topo = underlay::AsTopology::transit_stub(3, 20, 0.3);
  underlay::RoutingTable routing(topo);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = 0; j < n; ++j)
      (void)routing.path(RouterId(i), RouterId(j));
  Rng rng(17);
  constexpr std::size_t kProbes = 1024;
  std::vector<std::pair<RouterId, RouterId>> pairs;
  pairs.reserve(kProbes);
  for (std::size_t k = 0; k < kProbes; ++k) {
    pairs.emplace_back(RouterId(std::uint32_t(rng.uniform(n))),
                       RouterId(std::uint32_t(rng.uniform(n))));
  }
  std::size_t index = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[index++ & (kProbes - 1)];
    benchmark::DoNotOptimize(routing.path(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingMixedCachedPaths);

// --- Overlay flooding ----------------------------------------------------

static void BM_GnutellaFloodSteadyState(benchmark::State& state) {
  // A warmed 180-peer ultrapeer/leaf overlay issuing full-TTL query floods
  // for scarce content: the regime every Table-1-style run spends its time
  // in. Items are flooded messages (Query + QueryHit transmissions).
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
    return system.search(peers[origin], ContentId(5), /*download=*/false)
        .result_count;
  };
  for (int i = 0; i < 3; ++i) do_search();  // warm caches and scratch
  const std::uint64_t before = system.counts().total();
  for (auto _ : state) {
    benchmark::DoNotOptimize(do_search());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(system.counts().total() - before));
}
BENCHMARK(BM_GnutellaFloodSteadyState);

// --- Observability overhead ---------------------------------------------

enum class ObsMode { kOff, kCounters, kTrace, kMatrix };

static void BM_ObsOverhead(benchmark::State& state) {
  // The BM_GnutellaFloodSteadyState workload under the obs settings:
  // 0 = compiled in but disabled (the shipping default — must be within
  // noise of the PR 2 flood baseline), 1 = registry counters bound,
  // 2 = counters + full JSONL trace to /dev/null, 3 = counters + the
  // per-AS-pair traffic matrix with windowed time-series accounting (the
  // --metrics-every cost observatory regime; acceptance keeps it within
  // 5% of row 0). Items are flooded messages, so ns/item is directly
  // comparable across the rows.
  const auto mode = static_cast<ObsMode>(state.range(0));
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
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::JsonlTraceSink> trace;
  if (mode != ObsMode::kOff) {
    net.set_metrics(&registry);
    system.bind_metrics(registry);
  }
  if (mode == ObsMode::kTrace) {
    trace = std::make_unique<obs::JsonlTraceSink>("/dev/null");
    engine.set_trace(trace.get());
    net.set_trace(trace.get());
    system.set_trace(trace.get());
  }
  if (mode == ObsMode::kMatrix) net.enable_traffic_matrix();
  system.bootstrap();
  for (std::size_t i = 0; i < 3; ++i) {
    system.share(peers[i * 7 + 1], ContentId(5));
  }
  system.ping_cycle();
  std::size_t origin = 0;
  auto do_search = [&] {
    origin = (origin + 37) % peers.size();
    return system.search(peers[origin], ContentId(5), /*download=*/false)
        .result_count;
  };
  for (int i = 0; i < 3; ++i) do_search();  // warm caches and scratch
  const std::uint64_t before = system.counts().total();
  for (auto _ : state) {
    benchmark::DoNotOptimize(do_search());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(system.counts().total() - before));
  switch (mode) {
    case ObsMode::kOff: state.SetLabel("obs=off"); break;
    case ObsMode::kCounters: state.SetLabel("obs=counters"); break;
    case ObsMode::kTrace: state.SetLabel("obs=counters+jsonl"); break;
    case ObsMode::kMatrix: state.SetLabel("obs=matrix"); break;
  }
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// --- Parallel sweep dispatch --------------------------------------------

static void BM_ParallelForDispatch(benchmark::State& state) {
  // Cost of fanning a tiny sweep out and joining it; dominated by pool
  // dispatch overhead, which used to include thread creation per call.
  parallel_for(4, [](std::size_t) {}, 4);  // start the pool untimed
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    parallel_for(
        8, [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); },
        4);
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ParallelForDispatch);

static void BM_TrialFanout(benchmark::State& state) {
  // bench::run_trials end to end at 1 / 4 / hardware-width threads: serial
  // seed derivation, pool dispatch of self-contained trials, index-ordered
  // gather. The trial body is ~1k Rng draws, small enough that harness
  // overhead is visible, big enough that threads can genuinely overlap.
  // Items are completed trials.
  parallel_for(4, [](std::size_t) {}, 4);  // start the pool untimed
  const auto threads = std::size_t(state.range(0));
  constexpr std::size_t kTrials = 64;
  for (auto _ : state) {
    const auto results = bench::run_trials(
        kTrials, /*base_seed=*/42,
        [](std::size_t index, std::uint64_t seed) {
          Rng rng(seed);
          std::uint64_t acc = index;
          for (int i = 0; i < 1000; ++i) acc = acc * 31 + rng();
          return acc;
        },
        threads);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * kTrials);
}
BENCHMARK(BM_TrialFanout)->Apply([](benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(4);
  // Hardware width, deduplicated against the fixed args so the emitted
  // JSON never carries two benchmarks with the same name.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 4) b->Arg(hw);
});

// --- netinfo / geo -------------------------------------------------------

static void BM_PrefixTrieLookup(benchmark::State& state) {
  netinfo::PrefixTrie trie;
  Rng rng(3);
  for (int i = 0; i < 4096; ++i) {
    trie.insert(std::uint32_t(rng()) & 0xFFFFFF00, 24,
                {AsId(std::uint32_t(i)), {}});
  }
  std::uint32_t probe = 1;
  for (auto _ : state) {
    probe = probe * 1664525 + 1013904223;
    benchmark::DoNotOptimize(trie.lookup(IpAddress{probe}));
  }
}
BENCHMARK(BM_PrefixTrieLookup);

static void BM_VivaldiUpdate(benchmark::State& state) {
  netinfo::VivaldiSystem system(256, {}, Rng(5));
  Rng rng(7);
  for (auto _ : state) {
    const auto a = PeerId(std::uint32_t(rng.uniform(256)));
    const auto b = PeerId(std::uint32_t(rng.uniform(256)));
    if (a == b) continue;
    system.update(a, b, rng.uniform_real(5.0, 200.0));
  }
}
BENCHMARK(BM_VivaldiUpdate);

static void BM_IcsBuild(benchmark::State& state) {
  const auto beacons = std::size_t(state.range(0));
  Rng rng(9);
  netinfo::Matrix d(beacons, beacons);
  for (std::size_t i = 0; i < beacons; ++i)
    for (std::size_t j = i + 1; j < beacons; ++j)
      d(i, j) = d(j, i) = rng.uniform_real(5.0, 300.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netinfo::IcsModel::build(d, {}));
  }
}
BENCHMARK(BM_IcsBuild)->Arg(8)->Arg(16)->Arg(32);

static void BM_OracleRank(benchmark::State& state) {
  sim::Engine engine;
  const underlay::AsTopology topo = underlay::AsTopology::transit_stub(3, 8, 0.3);
  underlay::Network net(engine, topo, 11);
  const auto peers = net.populate(std::size_t(state.range(0)));
  netinfo::Oracle oracle(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.rank(peers[0], peers));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OracleRank)->Arg(100)->Arg(1000);

static void BM_UtmRoundTrip(benchmark::State& state) {
  underlay::GeoPoint point{49.87, 8.65};
  for (auto _ : state) {
    benchmark::DoNotOptimize(underlay::from_utm(underlay::to_utm(point)));
  }
}
BENCHMARK(BM_UtmRoundTrip);

static void BM_P4pRank(benchmark::State& state) {
  sim::Engine engine;
  const underlay::AsTopology topo = underlay::AsTopology::transit_stub(3, 8, 0.3);
  underlay::Network net(engine, topo, 13);
  const auto peers = net.populate(std::size_t(state.range(0)));
  netinfo::ITracker itracker(net);
  netinfo::P4pSelector selector(itracker);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.rank(peers[0], peers));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_P4pRank)->Arg(100)->Arg(1000);

// --- Oracle query service (src/oracle) -----------------------------------

namespace {

/// Warmed 204-router snapshot shared by the oracled benches (same
/// transit-stub shape as the snapshot-roundtrip gate).
const std::shared_ptr<const underlay::SharedRouting>& oracled_routing() {
  static const auto routing = bench::shared_routing_cached(
      "transit-stub", "t4-s16-p0.3", /*seed=*/7,
      underlay::AsTopology::transit_stub(4, 16, 0.3,
                                         underlay::TopologyConfig{.seed = 7}));
  return routing;
}

std::uint64_t bench_splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A reusable arena of rank requests with deterministic contents.
struct OracledWorkload {
  std::unique_ptr<oracled::RankRequest[]> requests;
  std::vector<oracled::Candidate> candidates;
  std::vector<std::uint32_t> ranked;
  std::vector<oracled::RankRequest*> pointers;

  OracledWorkload(std::size_t count, std::size_t k, std::uint32_t routers,
                  std::uint64_t seed) {
    requests = std::make_unique<oracled::RankRequest[]>(count);
    candidates.resize(count * k);
    ranked.resize(count * k);
    pointers.resize(count);
    std::uint64_t rng = seed;
    for (std::size_t i = 0; i < count; ++i) {
      oracled::RankRequest& req = requests[i];
      req.client_router = std::uint32_t(bench_splitmix64(rng) % routers);
      req.candidate_count = std::uint32_t(k);
      req.candidates = candidates.data() + i * k;
      req.ranked = ranked.data() + i * k;
      for (std::size_t c = 0; c < k; ++c) {
        candidates[i * k + c].peer =
            std::uint32_t(bench_splitmix64(rng) % 65536);
        candidates[i * k + c].router =
            std::uint32_t(bench_splitmix64(rng) % routers);
      }
      pointers[i] = &req;
    }
  }
};

}  // namespace

static void BM_OracledRankBatch(benchmark::State& state) {
  // The pure ranking kernel: rank_batch over a warmed snapshot, no
  // service threads — the per-request cost floor the closed-loop numbers
  // amortize toward. Arg = candidates per request.
  const auto& routing = oracled_routing();
  const auto routers = std::uint32_t(routing->topology().router_count());
  const std::size_t k = std::size_t(state.range(0));
  OracledWorkload workload(256, k, routers, 17);
  for (auto _ : state) {
    oracled::rank_batch(*routing, workload.pointers);
    benchmark::DoNotOptimize(workload.ranked.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 256);  // rank requests
  state.SetLabel(std::to_string(k) + " candidates");
}
BENCHMARK(BM_OracledRankBatch)->Arg(8)->Arg(32);

static void BM_OracledClosedLoop(benchmark::State& state) {
  // The full service path: submit through a worker ring, rank on a
  // worker thread, observe completion — 4096 requests in flight per
  // iteration. End-to-end latency tails (submit stamp to completion
  // stamp) are exported as p50_ns/p99_ns/p999_ns counters, which the
  // JSON tee forwards into BENCH_micro.json. Arg = worker threads.
  const auto& routing = oracled_routing();
  const auto routers = std::uint32_t(routing->topology().router_count());
  constexpr std::size_t kBatch = 4096;
  OracledWorkload workload(kBatch, 8, routers, 23);
  oracled::ServiceConfig config;
  config.workers = std::size_t(state.range(0));
  config.ring_capacity = 8192;
  config.max_batch = 256;
  oracled::OracleService service(routing, config);
  obs::LatencyHistogram latency;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      while (!service.submit(&workload.requests[i])) {
        std::this_thread::yield();
      }
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      oracled::wait_terminal(workload.requests[i]);
    }
    benchmark::ClobberMemory();
    for (std::size_t i = 0; i < kBatch; ++i) {
      oracled::RankRequest& req = workload.requests[i];
      latency.record(req.done_ns - req.enqueue_ns);
      req.state.store(oracled::RequestState::kFree,
                      std::memory_order_relaxed);
    }
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kBatch));
  state.counters["p50_ns"] = double(latency.p50_ns());
  state.counters["p99_ns"] = double(latency.p99_ns());
  state.counters["p999_ns"] = double(latency.p999_ns());
  state.SetLabel(std::to_string(config.workers) + " workers");
}
// UseRealTime: the work happens on service workers, so wall clock — not
// the submitting thread's CPU time — is the honest rate denominator.
BENCHMARK(BM_OracledClosedLoop)->Arg(1)->Arg(2)->UseRealTime();

static void BM_OracledSnapshotSwap(benchmark::State& state) {
  // publish() cost under a live subscriber set: the slot swap plus the
  // old snapshot's refcount drop (never the rebuild, which happens off
  // to the side). This is the "topology changed" steady-state path.
  const auto& routing = oracled_routing();
  underlay::SharedRoutingSlot slot(routing);
  auto alternate = oracled_routing();
  for (auto _ : state) {
    slot.publish(alternate);
    benchmark::DoNotOptimize(slot.generation());
  }
}
BENCHMARK(BM_OracledSnapshotSwap);

// --- Machine-readable output --------------------------------------------

namespace {

struct JsonEntry {
  std::string name;
  std::int64_t iterations = 0;
  double real_time_ns_per_iter = 0.0;
  double items_per_second = 0.0;
  /// Optional latency tail counters (service-tier benches only); 0 means
  /// absent and the fields are omitted from the JSON row.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
};

/// Console reporter that also records every per-iteration run so main()
/// can emit BENCH_micro.json after the suite finishes. Aggregate rows
/// (mean/median/stddev under --benchmark_repetitions) are skipped to keep
/// the schema one-row-per-benchmark.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      JsonEntry entry;
      entry.name = run.benchmark_name();
      entry.iterations = run.iterations;
      if (run.iterations > 0) {
        entry.real_time_ns_per_iter =
            run.real_accumulated_time * 1e9 / double(run.iterations);
      }
      const auto counter = run.counters.find("items_per_second");
      const auto scalar = [&run](const char* name) {
        const auto it = run.counters.find(name);
        return it != run.counters.end() ? it->second.value : 0.0;
      };
      entry.p50_ns = scalar("p50_ns");
      entry.p99_ns = scalar("p99_ns");
      entry.p999_ns = scalar("p999_ns");
      if (counter != run.counters.end()) {
        entry.items_per_second = counter->second.value;
      } else if (run.real_accumulated_time > 0.0) {
        // No explicit items counter: one item per iteration.
        entry.items_per_second =
            double(run.iterations) / run.real_accumulated_time;
      }
      entries.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<JsonEntry> entries;
};

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

bool write_json(const std::string& path,
                const std::vector<JsonEntry>& entries) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"schema_version\": 1,\n");
  std::fprintf(file, "  \"suite\": \"bench_micro\",\n");
  std::fprintf(file, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const JsonEntry& e = entries[i];
    std::fprintf(file,
                 "    {\"name\": \"%s\", \"iterations\": %lld, "
                 "\"real_time_ns_per_iter\": %.6g, "
                 "\"items_per_second\": %.6g",
                 json_escape(e.name).c_str(),
                 static_cast<long long>(e.iterations), e.real_time_ns_per_iter,
                 e.items_per_second);
    if (e.p50_ns > 0.0) {
      // Latency tails ride along on service-tier rows (schema-optional:
      // the validator checks them only when present).
      std::fprintf(file,
                   ", \"p50_ns\": %.6g, \"p99_ns\": %.6g, \"p999_ns\": %.6g",
                   e.p50_ns, e.p99_ns, e.p999_ns);
    }
    std::fprintf(file, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  // Extract our own flags before google-benchmark sees the arguments.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--bench_json=";
    constexpr const char kSnapDir[] = "--snapshot-dir=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      json_path = argv[i] + sizeof(kFlag) - 1;
    } else if (std::strncmp(argv[i], kSnapDir, sizeof(kSnapDir) - 1) == 0) {
      bench::options().snapshot_dir = argv[i] + sizeof(kSnapDir) - 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (bench::options().snapshot_dir.empty()) {
    if (const char* env = std::getenv("UAP2P_SNAPSHOT_DIR")) {
      bench::options().snapshot_dir = env;
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (reporter.entries.empty()) {
    std::fprintf(stderr, "bench_micro: no benchmark runs recorded\n");
    return 1;
  }
  return write_json(json_path, reporter.entries) ? 0 : 1;
}
