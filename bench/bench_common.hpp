// Shared scaffolding for the reproduction benches. Each bench binary
// regenerates one table or figure of the paper; this header provides the
// standard experiment setups so parameters stay consistent across benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/flag_number.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "netinfo/oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/gnutella.hpp"
#include "sim/engine.hpp"
#include "underlay/network.hpp"
#include "underlay/snapshot.hpp"

namespace uap2p::bench {

/// Process-wide bench options (set once by parse_flags before any trials).
struct Options {
  /// --serial: run every trial on the calling thread. The emitted tables
  /// must be byte-identical either way; a CTest target diffs the two.
  bool serial = false;
  /// --metrics=<path>: collect per-trial MetricsRegistry snapshots and
  /// write the deterministically merged JSON there at dump_observability.
  /// Byte-identical between --serial and parallel runs (CTest gate).
  std::string metrics_path;
  /// Collection switch (set by --metrics; tests flip it directly).
  bool collect_metrics = false;
  /// --trace=<path>: JSONL trace of the first trial of the first
  /// run_trials call (one deterministic trial keeps the file bounded and
  /// single-writer).
  std::string trace_path;
  /// --seed-offset=N: added to every run_trials base seed. 0 (the
  /// default) reproduces the canonical tables; any other value perturbs
  /// every RNG stream — the tracediff-self-check gate uses it to prove
  /// that uap2p_tracediff actually detects behavioral divergence.
  std::uint64_t seed_offset = 0;
  /// --snapshot-dir=<dir> (or UAP2P_SNAPSHOT_DIR when the flag is absent):
  /// cache of persistent warmed-routing snapshots, keyed by (generator
  /// name, generator params, topology seed). Empty (the default) disables
  /// the cache — every bench builds its routing fresh, exactly as before.
  std::string snapshot_dir;
  /// --metrics-every=<sim ms>: periodic metrics snapshots during the
  /// first trial, written as <dash dir>/metrics_NNNNNN.json every N sim
  /// milliseconds (one claimant — the same single-writer rule as
  /// --trace). 0 disables.
  double metrics_every_ms = 0.0;
  /// --dash=<dir>: output directory for the periodic snapshots (and the
  /// natural --out for a follow-up uap2p_dash run). Created on demand.
  std::string dash_dir;
};

inline Options& options() {
  static Options instance;
  return instance;
}

inline constexpr const char* kFlagHelp =
    "  --serial               run every trial on the calling thread\n"
    "  --metrics=<path>       write the merged per-trial metrics JSON\n"
    "  --trace=<path>         write a JSONL trace of the first trial\n"
    "  --seed-offset=<n>      add n to every trial base seed\n"
    "  --snapshot-dir=<dir>   cache warmed-routing snapshots in dir\n"
    "                         (default: $UAP2P_SNAPSHOT_DIR, else none)\n"
    "  --metrics-every=<ms>   periodic metrics snapshots every ms sim time\n"
    "  --dash=<dir>           output directory of the periodic snapshots\n"
    "  --help                 print this list and exit\n";

/// Parses the shared bench flags (--serial, --metrics=, --trace=, ...);
/// call first thing in main. --help prints the flag list and exits 0. An
/// unknown flag, or a numeric flag whose value does not parse completely,
/// exits with status 2 before any work runs.
inline void parse_flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--help") {
      std::printf("usage: %s [flags]\n%s", argv[0], kFlagHelp);
      std::exit(0);
    } else if (arg == "--serial") {
      options().serial = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      options().metrics_path = std::string(arg.substr(10));
      options().collect_metrics = !options().metrics_path.empty();
    } else if (arg.rfind("--trace=", 0) == 0) {
      options().trace_path = std::string(arg.substr(8));
    } else if (arg.rfind("--seed-offset=", 0) == 0) {
      options().seed_offset =
          parse_flag_number<std::uint64_t>("--seed-offset", arg.substr(14));
    } else if (arg.rfind("--snapshot-dir=", 0) == 0) {
      options().snapshot_dir = std::string(arg.substr(15));
    } else if (arg.rfind("--metrics-every=", 0) == 0) {
      options().metrics_every_ms =
          parse_flag_number<double>("--metrics-every", arg.substr(16));
    } else if (arg.rfind("--dash=", 0) == 0) {
      options().dash_dir = std::string(arg.substr(7));
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (options().metrics_every_ms > 0.0 && !options().dash_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options().dash_dir, ec);
  }
  if (options().snapshot_dir.empty()) {
    if (const char* env = std::getenv("UAP2P_SNAPSHOT_DIR")) {
      options().snapshot_dir = env;
    }
  }
}

/// Cache filename for a (generator, params, seed) routing key:
/// "<generator>_<params>_seed<seed>_fmt<version>.uap2psnap" with every
/// character outside [A-Za-z0-9._-] mapped to '-' so arbitrary param
/// strings stay filesystem-safe. The snapshot format version is part of
/// the key: after a format bump, old cache files become clean misses
/// (first run re-warms and writes the new name) instead of load-time
/// rejections, so a stale-format cache never silently eats a full
/// re-warm on every run without the miss being visible in the dir.
inline std::string snapshot_cache_name(std::string_view generator,
                                       std::string_view params,
                                       std::uint64_t seed) {
  std::string name;
  name.reserve(generator.size() + params.size() + 40);
  name.append(generator).push_back('_');
  name.append(params);
  name += "_seed" + std::to_string(seed);
  name += "_fmt" + std::to_string(underlay::snapshot::kFormatVersion);
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '-';
  }
  return name + ".uap2psnap";
}

/// Load-else-build a SharedRouting through the --snapshot-dir cache.
///
/// With no cache dir configured this is exactly SharedRouting::build. With
/// one, the first run for a key pays the full warm-up and serializes it;
/// later runs mmap-load the rows in O(ms) with zero Dijkstra. Any mismatch
/// (corruption, version skew, a topology change that moved the CSR bytes)
/// falls back to a fresh build and rewrites the cache entry, so a stale
/// cache can cost time but never correctness: the load path byte-compares
/// the stored CSR against the topology generated *now* from the caller's
/// params, and the adopted rows were themselves byte-identical to a fresh
/// warm at write time (snapshot-roundtrip gate).
///
/// `generator`/`params`/`seed` must uniquely describe how `topology` was
/// generated — they are the cache key.
inline std::shared_ptr<const underlay::SharedRouting> shared_routing_cached(
    std::string_view generator, std::string_view params, std::uint64_t seed,
    underlay::AsTopology topology, std::size_t threads = 0) {
  const std::string& dir = options().snapshot_dir;
  if (dir.empty()) {
    return underlay::SharedRouting::build(std::move(topology), threads);
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  const std::string path =
      (std::filesystem::path(dir) / snapshot_cache_name(generator, params, seed))
          .string();
  std::string error;
  if (std::filesystem::exists(path, ec)) {
    if (auto loaded = underlay::SharedRouting::load(topology, path, threads,
                                                    &error)) {
      return loaded;
    }
    std::fprintf(stderr, "snapshot cache: %s rejected (%s); rebuilding\n",
                 path.c_str(), error.c_str());
  }
  auto built = underlay::SharedRouting::build(std::move(topology), threads);
  // Cache write is best-effort: a read-only or full disk must not fail the
  // bench, it just keeps paying the warm-up.
  if (!underlay::snapshot::write(built->topology(), built->table(), path,
                                 &error)) {
    std::fprintf(stderr, "snapshot cache: write %s failed (%s)\n",
                 path.c_str(), error.c_str());
  }
  return built;
}

namespace detail {
/// Which trial the calling thread is currently executing (set by
/// run_trials around fn). Lets labs/helpers key their metric submissions
/// without threading identifiers through every bench.
struct TrialContext {
  bool in_trial = false;
  std::uint64_t group = 0;  ///< run_trials invocation, in call order
  std::size_t index = 0;    ///< trial index within the invocation
};
inline TrialContext& trial_context() {
  thread_local TrialContext ctx;
  return ctx;
}
}  // namespace detail

/// Gathers per-trial metric registries and merges them in (group, index)
/// order — the order a serial run would have produced them — so the
/// merged snapshot is byte-identical regardless of scheduling.
class TrialMetrics {
 public:
  void submit(std::uint64_t group, std::size_t index,
              obs::MetricsRegistry&& registry) {
    std::lock_guard lock(mutex_);
    entries_.push_back(Entry{group, index, std::move(registry)});
  }

  std::uint64_t next_group() {
    std::lock_guard lock(mutex_);
    return next_group_++;
  }

  /// Deterministic merge of everything submitted so far.
  [[nodiscard]] obs::MetricsRegistry merged() {
    std::lock_guard lock(mutex_);
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.group != b.group ? a.group < b.group
                                                 : a.index < b.index;
                     });
    obs::MetricsRegistry out;
    for (const Entry& entry : entries_) out.merge(entry.registry);
    return out;
  }

  void reset() {
    std::lock_guard lock(mutex_);
    entries_.clear();
    next_group_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t group;
    std::size_t index;
    obs::MetricsRegistry registry;
  };
  std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t next_group_ = 0;
};

inline TrialMetrics& trial_metrics() {
  static TrialMetrics instance;
  return instance;
}

/// Submits a trial's registry keyed by the calling thread's trial
/// identity. No-op unless metrics collection is on.
inline void submit_trial_metrics(obs::MetricsRegistry&& registry) {
  if (!options().collect_metrics) return;
  const detail::TrialContext& ctx = detail::trial_context();
  trial_metrics().submit(ctx.group, ctx.in_trial ? ctx.index : 0,
                         std::move(registry));
}

/// Standard teardown submission for benches that wire Engine/Network by
/// hand instead of through GnutellaLab: exports engine + traffic counters
/// into a fresh registry and submits it. Call at the end of the trial fn.
inline void submit_engine_metrics(const sim::Engine& engine,
                                  const underlay::Network& net) {
  if (!options().collect_metrics) return;
  obs::MetricsRegistry registry;
  engine.export_metrics(registry);
  net.traffic().export_metrics(registry);
  submit_trial_metrics(std::move(registry));
}

namespace detail {
inline std::unique_ptr<obs::JsonlTraceSink>& trace_sink_storage() {
  static std::unique_ptr<obs::JsonlTraceSink> sink;
  return sink;
}
inline bool& periodic_snapshots_claimed() {
  static bool claimed = false;
  return claimed;
}
}  // namespace detail

/// Claims the --metrics-every periodic-snapshot role for the calling
/// lab/trial. True exactly once per process, for the first trial of the
/// first run_trials group (or the first lab built outside run_trials) —
/// one deterministic writer, same rule as acquire_trial_trace.
inline bool claim_periodic_snapshots() {
  if (options().metrics_every_ms <= 0.0 || options().dash_dir.empty())
    return false;
  const detail::TrialContext& ctx = detail::trial_context();
  if (ctx.in_trial && (ctx.group != 0 || ctx.index != 0)) return false;
  if (detail::periodic_snapshots_claimed()) return false;
  detail::periodic_snapshots_claimed() = true;
  return true;
}

/// Writes one numbered periodic snapshot (metrics_000000.json, ...) into
/// --dash. `seq` is the claimant's own firing counter.
inline bool write_periodic_snapshot(const obs::MetricsRegistry& registry,
                                    std::size_t seq) {
  char name[32];
  std::snprintf(name, sizeof name, "metrics_%06zu.json", seq);
  const std::string path =
      (std::filesystem::path(options().dash_dir) / name).string();
  if (registry.write_json_file(path)) return true;
  std::fprintf(stderr, "error: failed to write periodic snapshot %s\n",
               path.c_str());
  return false;
}

/// Claims the --trace JSONL sink. Non-null exactly once, for the first
/// claimant inside trial 0 of the first run_trials call — one trial, one
/// engine, one writer, so the emitted timestamps are monotone and the
/// file is identical between --serial and parallel runs. The sink stays
/// alive until dump_observability().
inline obs::TraceSink* acquire_trial_trace() {
  if (options().trace_path.empty()) return nullptr;
  const detail::TrialContext& ctx = detail::trial_context();
  if (!ctx.in_trial || ctx.group != 0 || ctx.index != 0) return nullptr;
  if (detail::trace_sink_storage() != nullptr) return nullptr;  // claimed
  detail::trace_sink_storage() =
      std::make_unique<obs::JsonlTraceSink>(options().trace_path);
  return detail::trace_sink_storage()->ok()
             ? detail::trace_sink_storage().get()
             : nullptr;
}

/// Writes the merged --metrics snapshot and closes the --trace sink.
/// Call once at the end of main; returns 0 on success (benches fold it
/// into their exit code so CI notices I/O failures).
inline int dump_observability() {
  int rc = 0;
  if (options().collect_metrics && !options().metrics_path.empty()) {
    const obs::MetricsRegistry merged = trial_metrics().merged();
    if (!merged.write_json_file(options().metrics_path)) {
      std::fprintf(stderr, "error: failed to write metrics to %s\n",
                   options().metrics_path.c_str());
      rc = 1;
    }
  }
  detail::trace_sink_storage().reset();  // flush + close
  return rc;
}

/// Runs `count` independent trials across the process-wide thread pool and
/// returns their results in trial-index order.
///
/// Determinism contract (see DESIGN.md "Performance model"):
///  * per-trial seeds are derived *serially* from `base_seed` via
///    Rng::split_seed before any trial is dispatched, so seed assignment
///    cannot depend on scheduling;
///  * each trial must be self-contained — build its own Engine / Network /
///    overlay from `fn(trial_index, trial_seed)` and share no mutable
///    state with other trials;
///  * results are gathered by index (parallel_map), so consumers see them
///    exactly as a serial loop would have produced them.
/// Under these rules the emitted tables are bit-identical between
/// `--serial` and the default parallel run — only wall-clock differs.
///
/// `threads` caps trial concurrency (0 = hardware concurrency); the
/// --serial flag overrides it to 1.
template <typename Fn>
auto run_trials(std::size_t count, std::uint64_t base_seed, Fn&& fn,
                std::size_t threads = 0) {
  Rng master(base_seed + options().seed_offset);
  std::vector<std::uint64_t> seeds(count);
  for (std::uint64_t& seed : seeds) seed = master.split_seed();
  // Group ids are handed out in call order on the calling thread, so they
  // are scheduling-independent and the metrics merge order matches a
  // serial run exactly.
  const std::uint64_t group = trial_metrics().next_group();
  return parallel_map(
      count,
      [&, group](std::size_t i) {
        struct ContextGuard {
          ContextGuard(std::uint64_t g, std::size_t idx) {
            detail::TrialContext& ctx = detail::trial_context();
            ctx.in_trial = true;
            ctx.group = g;
            ctx.index = idx;
          }
          ~ContextGuard() { detail::trial_context().in_trial = false; }
        } guard(group, i);
        return fn(i, seeds[i]);
      },
      options().serial ? 1 : threads);
}

/// A fully wired Gnutella experiment: engine + topology + network + oracle
/// + overlay, mirroring [1]'s testlab (peers AS-round-robin, 1 ultrapeer
/// per 2 leaves, hostcaches filled with random subsets).
struct GnutellaLab {
  sim::Engine engine;
  /// Group-wide immutable routing snapshot (null in owned-topology mode).
  std::shared_ptr<const underlay::SharedRouting> shared;
  underlay::AsTopology topo;  ///< Owned-mode storage; empty in shared mode.
  std::unique_ptr<underlay::Network> net;
  std::vector<PeerId> peers;
  std::unique_ptr<netinfo::Oracle> oracle;
  std::unique_ptr<overlay::gnutella::GnutellaSystem> system;

  /// `seed` is the trial seed (required — parallel trials must not share
  /// RNG streams); the network, overlay, and workload streams are derived
  /// from it via Rng::split_seed so they stay decorrelated.
  GnutellaLab(underlay::AsTopology topology, std::size_t peer_count,
              overlay::gnutella::Config config, std::uint64_t seed)
      : topo(std::move(topology)), workload_rng_(0) {
    Rng derive(seed);
    net = std::make_unique<underlay::Network>(engine, topo,
                                              derive.split_seed());
    init(peer_count, std::move(config), derive);
  }

  /// Shared-routing mode: trials of a group borrow one warmed snapshot
  /// (underlay::SharedRouting::build) instead of each re-deriving an
  /// identical topology and re-running Dijkstra. The RNG derivation order
  /// is the same as the owned ctor, so behavior is byte-identical.
  GnutellaLab(std::shared_ptr<const underlay::SharedRouting> routing,
              std::size_t peer_count, overlay::gnutella::Config config,
              std::uint64_t seed)
      : shared(std::move(routing)), workload_rng_(0) {
    Rng derive(seed);
    net = std::make_unique<underlay::Network>(engine, shared,
                                              derive.split_seed());
    init(peer_count, std::move(config), derive);
  }

  /// The lab's topology, whichever mode owns it.
  [[nodiscard]] const underlay::AsTopology& topology() const {
    return net->topology();
  }

  /// Runs before member destruction, so engine/net/system are still alive:
  /// finalize and hand the trial's registry to the process-wide collector.
  ~GnutellaLab() {
    if (!options().collect_metrics) return;
    engine.export_metrics(metrics);
    net->traffic().export_metrics(metrics);
    submit_trial_metrics(std::move(metrics));
  }

  GnutellaLab(const GnutellaLab&) = delete;
  GnutellaLab& operator=(const GnutellaLab&) = delete;

  /// Per-trial registry; counters bound at construction, engine/traffic
  /// snapshots added and the whole thing submitted at destruction.
  obs::MetricsRegistry metrics;

  /// Locality-correlated workload ([25]): every AS has `copies` local
  /// providers of its own content; `searches_per_as` local peers search
  /// it. Returns the number of successful searches.
  std::size_t run_locality_workload(std::size_t copies,
                                    std::size_t searches_per_as,
                                    bool download) {
    const std::size_t as_count = topology().as_count();
    for (std::size_t as = 0; as < as_count; ++as) {
      for (std::size_t copy = 0; copy < copies; ++copy) {
        const std::size_t index = as + as_count * copy;
        if (index < peers.size()) {
          system->share(peers[index], ContentId(std::uint32_t(as)));
        }
      }
    }
    system->ping_cycle();
    std::size_t successes = 0;
    for (std::size_t as = 0; as < as_count; ++as) {
      for (std::size_t s = 0; s < searches_per_as; ++s) {
        const std::size_t index = as + as_count * (copies + s);
        if (index >= peers.size()) continue;
        successes +=
            system->search(peers[index], ContentId(std::uint32_t(as)), download)
                .found;
      }
    }
    return successes;
  }

  /// Replicated random-content workload: `contents` distinct files, each
  /// shared by `copies` random peers; `searches` random peers each search
  /// and download one random file. Locality here comes only from the
  /// overlay/oracle, not from the workload. Draws from the lab's own
  /// seed-derived workload stream, so concurrent labs stay independent.
  std::size_t run_replicated_workload(std::size_t contents, std::size_t copies,
                                      std::size_t searches, bool download) {
    Rng& rng = workload_rng_;
    for (std::uint32_t c = 0; c < contents; ++c) {
      for (const std::size_t i :
           rng.sample_without_replacement(peers.size(), copies)) {
        system->share(peers[i], ContentId(c));
      }
    }
    system->ping_cycle();
    std::size_t successes = 0;
    for (std::size_t s = 0; s < searches; ++s) {
      const PeerId searcher = peers[rng.uniform(peers.size())];
      const ContentId want(std::uint32_t(rng.uniform(contents)));
      successes += system->search(searcher, want, download).found;
    }
    return successes;
  }

  /// Per-lab workload stream (derived from the trial seed in the ctor).
  Rng workload_rng_;

 private:
  /// Firing counter for --metrics-every snapshot filenames.
  std::size_t snapshot_seq_ = 0;
  /// Shared ctor tail; `derive` has already produced the network seed, so
  /// the split_seed draw order (net, overlay config, workload) is
  /// identical in both modes.
  void init(std::size_t peer_count, overlay::gnutella::Config config,
            Rng& derive) {
    config.seed = derive.split_seed();
    workload_rng_ = Rng(derive.split_seed());
    peers = net->populate(peer_count);
    netinfo::OracleConfig oracle_config;
    oracle_config.max_list_size = config.hostcache_size;
    oracle = std::make_unique<netinfo::Oracle>(*net, oracle_config);
    system = std::make_unique<overlay::gnutella::GnutellaSystem>(
        *net, peers,
        overlay::gnutella::testlab_roles(peer_count, 2, topology().as_count()),
        config, oracle.get());
    if (options().collect_metrics) {
      net->set_metrics(&metrics);
      system->bind_metrics(metrics);
    }
    // Per-AS-pair attribution whenever metrics leave the process: the
    // matrix rides the same export path as the scalar accountant.
    if (options().collect_metrics || options().metrics_every_ms > 0.0) {
      net->enable_traffic_matrix();
    }
    // --metrics-every periodic snapshots: the claiming lab exports its
    // full current state every N sim ms into --dash.
    if (claim_periodic_snapshots()) {
      engine.schedule_every(options().metrics_every_ms, [this] {
        obs::MetricsRegistry snap;
        engine.export_metrics(snap);
        net->traffic().export_metrics(snap);
        snap.merge(metrics);
        write_periodic_snapshot(snap, snapshot_seq_++);
        return true;
      });
    }
    if (obs::TraceSink* trace = acquire_trial_trace(); trace != nullptr) {
      engine.set_trace(trace);
      net->set_trace(trace);
      system->set_trace(trace);
    }
    system->bootstrap();
  }
};

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace uap2p::bench
