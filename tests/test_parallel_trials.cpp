// The parallel trial harness's determinism contract (bench::run_trials +
// parallel_map): per-trial seeds derive serially from the base seed, every
// trial is self-contained, and the gathered results are identical no
// matter how many threads execute the trials. Built as its own binary
// (uap2p_parallel_tests) so the suite can also run under
// -DUAP2P_SANITIZE=thread to prove data-race freedom.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "underlay/routing.hpp"

namespace uap2p {
namespace {

TEST(ParallelMap, GathersResultsInIndexOrder) {
  const auto results = parallel_map(
      257, [](std::size_t i) { return i * i; }, 8);
  ASSERT_EQ(results.size(), 257u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ParallelMap, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_map(
      hits.size(),
      [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        return 0;
      },
      8);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(RunTrials, SeedsDeriveSeriallyFromBaseSeed) {
  // The harness must hand trial i exactly the i-th split_seed of the base
  // Rng — scheduling cannot influence seed assignment.
  Rng expected_stream(42);
  std::vector<std::uint64_t> expected(16);
  for (std::uint64_t& seed : expected) seed = expected_stream.split_seed();

  const auto seeds = bench::run_trials(
      expected.size(), /*base_seed=*/42,
      [](std::size_t, std::uint64_t seed) { return seed; }, 8);
  EXPECT_EQ(seeds, expected);
}

TEST(RunTrials, ParallelMatchesSerialBitForBit) {
  // A trial with real per-seed work: an Rng-driven accumulation whose
  // result depends on every stream draw, so any cross-trial interference
  // or reordering would change the bits.
  auto trial = [](std::size_t index, std::uint64_t seed) {
    Rng rng(seed);
    std::uint64_t acc = index;
    for (int i = 0; i < 1000; ++i) acc = acc * 31 + rng();
    return acc;
  };
  const auto serial = bench::run_trials(64, /*base_seed=*/7, trial, 1);
  const auto parallel = bench::run_trials(64, /*base_seed=*/7, trial, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(RunTrials, ConcurrentGnutellaLabsAreIndependent) {
  // Whole-simulation trials — each builds its own engine/network/overlay —
  // must give the same per-trial outcome serial and parallel. This is the
  // shape every converted bench relies on, and the interesting TSan
  // subject: four full simulations running concurrently.
  auto trial = [](std::size_t, std::uint64_t seed) {
    overlay::gnutella::Config config;
    bench::GnutellaLab lab(underlay::AsTopology::transit_stub(2, 3, 0.3), 60,
                           config, seed);
    const std::size_t successes =
        lab.run_locality_workload(/*copies=*/2, /*searches_per_as=*/2,
                                  /*download=*/false);
    return std::pair(successes, lab.system->counts().total());
  };
  const auto serial = bench::run_trials(4, /*base_seed=*/11, trial, 1);
  const auto parallel = bench::run_trials(4, /*base_seed=*/11, trial, 4);
  EXPECT_EQ(serial, parallel);
  // Different seeds really produce different simulations (the split
  // actually decorrelates trials).
  EXPECT_NE(serial[0], serial[1]);
}

TEST(RunTrials, SerialFlagForcesSingleThread) {
  bench::options().serial = true;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  bench::run_trials(
      8, /*base_seed=*/1,
      [&](std::size_t, std::uint64_t) {
        const int now = concurrent.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        concurrent.fetch_sub(1);
        return 0;
      },
      8);
  bench::options().serial = false;
  EXPECT_EQ(peak.load(), 1);
}

TEST(RunTrials, MetricsSnapshotsAreByteIdenticalSerialVsParallel) {
  // The observability acceptance gate in unit form: per-trial registries
  // submitted from GnutellaLab destructors merge in (group, index) order,
  // so the merged JSON must not depend on how many threads ran the trials.
  auto run_once = [](std::size_t threads) {
    bench::trial_metrics().reset();
    bench::options().collect_metrics = true;
    bench::run_trials(
        4, /*base_seed=*/11,
        [](std::size_t, std::uint64_t seed) {
          overlay::gnutella::Config config;
          bench::GnutellaLab lab(underlay::AsTopology::transit_stub(2, 3, 0.3),
                                 60, config, seed);
          return lab.run_locality_workload(/*copies=*/2, /*searches_per_as=*/2,
                                           /*download=*/false);
        },
        threads);
    bench::options().collect_metrics = false;
    const std::string json = bench::trial_metrics().merged().to_json();
    bench::trial_metrics().reset();
    return json;
  };
  const std::string serial = run_once(1);
  const std::string parallel = run_once(4);
  EXPECT_EQ(serial, parallel);
  // The snapshot really carries the overlay + engine + traffic sections.
  EXPECT_NE(serial.find("gnutella.messages.query"), std::string::npos);
  EXPECT_NE(serial.find("engine.events.executed"), std::string::npos);
  EXPECT_NE(serial.find("traffic.bytes.total"), std::string::npos);
}

TEST(SharedRouting, ConcurrentReadersSeeIdenticalAnswers) {
  // The tentpole contract: after build(), the snapshot is pure reads.
  // Hammer the same warmed table from many threads (the TSan subject) and
  // require every thread to observe bit-identical answers to a serial
  // reference sweep.
  const auto routing = underlay::SharedRouting::build(
      underlay::AsTopology::transit_stub(2, 4, 0.4));
  const auto n =
      static_cast<std::uint32_t>(routing->topology().router_count());
  // Serial reference sweep (fingerprint of every pair's summary).
  auto fingerprint = [&] {
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        const underlay::PathInfo info =
            routing->path(RouterId(i), RouterId(j));
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(info.latency_ms));
        std::memcpy(&bits, &info.latency_ms, sizeof(bits));
        acc = acc * 1099511628211ull + bits;
        acc = acc * 31 + info.router_hops + info.as_crossings * 7 +
              info.transit_crossings * 11 + info.peering_crossings * 13 +
              (info.reachable ? 1 : 0);
      }
    }
    return acc;
  };
  const std::uint64_t expected = fingerprint();
  const auto sweeps = parallel_map(
      8, [&](std::size_t) { return fingerprint(); }, 8);
  for (const std::uint64_t got : sweeps) EXPECT_EQ(got, expected);
  // The AS-hop cache is warmed too — concurrent reads through the Oracle's
  // metric are pure after build().
  const std::size_t as_count = routing->topology().as_count();
  auto row_sum = [&](std::size_t from) {
    std::size_t acc = 0;
    for (std::size_t to = 0; to < as_count; ++to) {
      acc += routing->topology().as_hop_distance(AsId(std::uint32_t(from)),
                                                 AsId(std::uint32_t(to)));
    }
    return acc;
  };
  std::vector<std::size_t> serial_rows(8);
  for (std::size_t k = 0; k < serial_rows.size(); ++k)
    serial_rows[k] = row_sum(k % as_count);
  const auto hops = parallel_map(
      8, [&](std::size_t k) { return row_sum(k % as_count); }, 8);
  for (std::size_t k = 0; k < hops.size(); ++k)
    EXPECT_EQ(hops[k], serial_rows[k]);
}

TEST(RunTrials, SharedRoutingTrialsAreByteIdenticalSerialVsParallel) {
  // The bench-adoption gate in unit form: trials that borrow one group-wide
  // SharedRouting snapshot (as bench_table1 / bench_collection_compare now
  // do) must merge byte-identical metrics no matter the thread count.
  const auto routing = underlay::SharedRouting::build(
      underlay::AsTopology::transit_stub(2, 3, 0.3));
  auto run_once = [&](std::size_t threads) {
    bench::trial_metrics().reset();
    bench::options().collect_metrics = true;
    bench::run_trials(
        4, /*base_seed=*/11,
        [&](std::size_t, std::uint64_t seed) {
          overlay::gnutella::Config config;
          bench::GnutellaLab lab(routing, 60, config, seed);
          return lab.run_locality_workload(/*copies=*/2, /*searches_per_as=*/2,
                                           /*download=*/false);
        },
        threads);
    bench::options().collect_metrics = false;
    const std::string json = bench::trial_metrics().merged().to_json();
    bench::trial_metrics().reset();
    return json;
  };
  const std::string serial = run_once(1);
  const std::string parallel = run_once(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("gnutella.messages.query"), std::string::npos);
}

TEST(Rng, SplitSeedMatchesSplit) {
  // split() must stay a pure wrapper over split_seed() so harness seeds
  // and direct Rng::split children agree.
  Rng a(123), b(123);
  const std::uint64_t seed = a.split_seed();
  Rng child = b.split();
  Rng from_seed(seed);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child(), from_seed());
}

}  // namespace
}  // namespace uap2p
