// Workload `coldstart`: K cycles over the 2730-router transit_stub(10,
// 90, 0.3) underlay, each on a fresh topology seed:
//   1. generate the topology;
//   2. SharedRouting::build, OracleService, first reply (cold start);
//   3. snapshot::write (persist);
//   4. SharedRouting::load, OracleService, first reply (warm restart).
// The time goes to topology/CSR, the hierarchy plan, the hierarchical
// warm, ALT landmarks and the snapshot. The first kColdCycles cycles start
// from an empty row-arena pool, as a fresh process does, and are the
// set-up; later cycles reuse the process-global row arena a dropped table
// leaves behind.
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "stack.hpp"
#include "underlay/snapshot.hpp"

namespace perfbench {
namespace {

using namespace uap2p;

/// True when every row of `b` is byte-equal to the same row of `a`.
bool rows_equal(const underlay::RoutingTable& a,
                const underlay::RoutingTable& b, std::size_t routers) {
  for (std::size_t src = 0; src < routers; ++src) {
    const auto ra = a.row(RouterId(std::uint32_t(src)));
    const auto rb = b.row(RouterId(std::uint32_t(src)));
    if (ra.size() != rb.size() ||
        std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

/// Cycles run from an empty row-arena pool; their median is setup_s.
constexpr std::size_t kColdCycles = 5;

struct Cycle {
  double cold_s = 0.0;     ///< Topology generation to the first reply.
  double persist_s = 0.0;  ///< snapshot::write, rename included.
  double warm_s = 0.0;     ///< SharedRouting::load to the first reply.
  double topology_ms = 0.0;
  double build_ms = 0.0;
  double load_ms = 0.0;
  double cold_reply_us = 0.0;
  double warm_reply_us = 0.0;
  double file_mb = 0.0;
  double row_mb = 0.0;

  /// The cycle's timed work: cold start, persist and warm restart,
  /// without the checks and clean-up between them.
  [[nodiscard]] double wall_s() const { return cold_s + persist_s + warm_s; }
};

}  // namespace

Outcome run_coldstart(const Options& options, Report& report, Tracer& tracer) {
  Outcome outcome;
  const bool tracing = tracer.enabled();
  const std::uint64_t request_seed = derive_seed(options.seed, 300);
  const std::string path =
      (std::filesystem::path(options.out_dir) /
       ("coldstart-" + std::to_string(options.seed) + ".uap2psnap"))
          .string();
  std::vector<Cycle> cycles;
  std::vector<double> step_sum_ms, build_ms;
  std::vector<double> wall_on, wall_off;
  // The traced run alternates traced and untraced steady cycles.
  const auto is_traced = [&](std::size_t c) {
    return tracing && c >= kColdCycles && (c - kColdCycles) % 2 == 0;
  };
  const std::uint64_t run_start = now_ns();
  for (std::size_t c = 0;; ++c) {
    const bool traced = is_traced(c);
    tracer.set_enabled(traced);
    if (c < kColdCycles) underlay::RoutingTable::trim_row_arena_pool();
    ScopedSpan cycle_span(tracer, "perfbench.cycle");
    const std::uint64_t topo_seed = derive_seed(options.seed, 1000 + c);
    if (traced) {
      // SharedRouting::build's public steps one at a time, on a twin of
      // the topology below. Its table is dropped before the build, so
      // both warms find the same row arena state.
      const BuildSteps steps = build_stepwise(
          [&] { return provider_topology(options.small, topo_seed); },
          tracer);
      report.sample("underlay.as_hops_ms", steps.as_hops_ms, "ms");
      report.sample("underlay.csr_ms", steps.csr_ms, "ms");
      report.sample("routing.plan_ms", steps.plan_ms, "ms");
      report.sample("routing.warm_ms", steps.warm_ms, "ms");
      report.sample("routing.landmarks_ms", steps.landmarks_ms, "ms");
      report.sample("routing.step_sum_ms", steps.sum_ms(), "ms");
      step_sum_ms.push_back(steps.sum_ms());
    }

    Cycle cycle;
    const std::uint64_t start = now_ns();
    std::int32_t span = tracer.begin("underlay.topology");
    underlay::AsTopology topology =
        provider_topology(options.small, topo_seed);
    tracer.end(span);
    const std::uint64_t generated = now_ns();
    cycle.topology_ms = double(generated - start) * 1e-6;
    // The warm restart's copy of the topology, made off the clock.
    underlay::AsTopology twin = topology;

    span = tracer.begin("routing.build");
    const std::uint64_t build_start = now_ns();
    std::shared_ptr<const underlay::SharedRouting> built =
        underlay::SharedRouting::build(std::move(topology), kThreads);
    cycle.build_ms = double(now_ns() - build_start) * 1e-6;
    tracer.end(span);
    if (traced) build_ms.push_back(cycle.build_ms);
    const FirstReply cold = first_reply(built, request_seed, tracer);
    cycle.cold_s = double(generated - start + cold.at_ns - build_start) * 1e-9;
    cycle.cold_reply_us = cold.us;
    cycle.row_mb = double(built->table().row_bytes()) / 1e6;

    span = tracer.begin("snapshot.write");
    std::uint64_t t = now_ns();
    std::string error;
    const bool written = underlay::snapshot::write(
        built->topology(), built->table(), path, &error);
    cycle.persist_s = double(now_ns() - t) * 1e-9;
    tracer.end(span);
    outcome.check(written, "snapshot write failed: " + error);
    cycle.file_mb = written ? double(std::filesystem::file_size(path)) / 1e6
                            : 0.0;

    span = tracer.begin("snapshot.load");
    t = now_ns();
    std::shared_ptr<const underlay::SharedRouting> loaded =
        written ? underlay::SharedRouting::load(std::move(twin),
                                                path, kThreads, &error)
                : nullptr;
    cycle.load_ms = double(now_ns() - t) * 1e-6;
    tracer.end(span);
    FirstReply warm;
    if (loaded != nullptr) {
      warm = first_reply(loaded, request_seed, tracer);
      cycle.warm_s = double(warm.at_ns - t) * 1e-9;
      cycle.warm_reply_us = warm.us;
    }

    // Checks, off the clock: the warm table is the cold one, byte for
    // byte, and both give the same first reply.
    const bool ok = loaded != nullptr && cold.digest != 0 &&
                    cold.digest == warm.digest &&
                    rows_equal(built->table(), loaded->table(),
                               built->topology().router_count());
    ++outcome.attempted;
    if (!ok) ++outcome.failed;
    outcome.check(loaded != nullptr, "SharedRouting::load failed: " + error);
    outcome.check(ok, "cycle " + std::to_string(c) +
                          ": loaded rows or warm reply differ from the build");
    loaded.reset();
    built.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    (traced ? wall_on : wall_off).push_back(cycle.wall_s());
    cycles.push_back(cycle);

    const std::size_t min_cycles = kColdCycles + (tracing ? 4 : 3);
    if (cycles.size() >= min_cycles &&
        seconds_since(run_start) >= options.seconds) {
      break;
    }
  }
  tracer.set_enabled(tracing);

  // The cold cycles are the set-up; the first is also reported alone.
  const Cycle& first = cycles.front();
  for (std::size_t c = 0; c < kColdCycles; ++c) {
    report.sample("setup_s", cycles[c].wall_s(), "s");
  }
  report.set("coldstart.first_cycle.first_reply_s", first.cold_s, "s");
  report.set("coldstart.first_cycle.persist_s", first.persist_s, "s");
  report.set("coldstart.first_cycle.routing_build_ms", first.build_ms, "ms");
  std::vector<double> cold_us;
  std::vector<double> steady_wall;
  for (std::size_t c = kColdCycles; c < cycles.size(); ++c) {
    const Cycle& cy = cycles[c];
    if (is_traced(c)) continue;
    cold_us.push_back(cy.cold_s * 1e6);
    steady_wall.push_back(cy.wall_s());
    report.sample("coldstart.first_reply_s", cy.cold_s, "s");
    report.sample("coldstart.persist_s", cy.persist_s, "s");
    report.sample("warmstart.first_reply_s", cy.warm_s, "s");
    report.sample("underlay.topology_ms", cy.topology_ms, "ms");
    report.sample("routing.build_ms", cy.build_ms, "ms");
    report.sample("snapshot.write_ms", cy.persist_s * 1e3, "ms");
    report.sample("snapshot.load_ms", cy.load_ms, "ms");
    report.sample("oracle.first_reply_us", cy.cold_reply_us, "us");
    report.sample("oracle.warm_first_reply_us", cy.warm_reply_us, "us");
    report.sample("snapshot.file_mb", cy.file_mb, "MB");
    report.sample("routing.row_mb", cy.row_mb, "MB");
    report.sample("coldstart.cycle_s", cy.wall_s(), "s");
  }
  report.set("ops_per_s", 1.0 / median(steady_wall), "1/s");
  report.set("p50_us", quantile(cold_us, 0.5), "us");
  report.set("coldstart.cycles", double(cycles.size()), "count");
  if (tracing) {
    // The step-by-step build must account for the whole build().
    const double ratio = median(step_sum_ms) / median(build_ms);
    report.set("routing.step_sum_ratio", ratio, "ratio");
    outcome.check(ratio > 0.75 && ratio < 1.25,
                  "SharedRouting::build steps sum to " +
                      std::to_string(ratio) + " of the untraced build");
    report.set("trace.overhead_pct",
               (median(wall_on) / median(wall_off) - 1.0) * 100.0, "%");
  }
  return outcome;
}

}  // namespace perfbench
