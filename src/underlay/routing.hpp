// Shortest-path routing over the underlay router graph.
//
// Routes are computed with Dijkstra over the topology's flat CSR adjacency
// (underlay/topology.hpp) — one run per source router, cached lazily on
// first query. warm_all_hierarchical is the one batch fill: it computes
// every row in parallel over the contracted transit core
// (underlay/hierarchy.hpp) and writes the bytes the per-source Dijkstra
// would, which stays as the lazy-query path and the test reference.
// Per-source results are a compact array of per-destination aggregates
// (latency, bottleneck, hop/crossing counts, predecessor link): O(routers)
// per source with no per-pair path vectors, so all-pairs state for
// 1000-AS topologies fits in memory. The AS-level sequence is
// materialized lazily into an interned store only when a caller asks for
// it (as_path). Real interdomain routing is
// policy-driven (valley-free BGP); latency-shortest paths are an accepted
// simplification for overlay studies and match the testlab setup of [1].
//
// Performance model (see DESIGN.md "Performance model"): path() on a
// warmed source is two array indexations and a 40-byte copy. Dijkstra
// runs over a monotone calendar queue (512 latency-width buckets, exact
// (distance, router id) order restored inside each bucket) and folds the
// per-destination aggregates directly into the row during edge relaxation
// — the relaxing router is always settled, so its aggregates are final.
// The scratch (distance array, calendar queue) is thread_local, reused
// across runs and across tables. Ties break canonically on (distance,
// router id), so the predecessor graph — and everything derived from it —
// is independent of scheduling and thread count; that is what makes
// SharedRouting safe to reuse across parallel trials without changing any
// emitted byte.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/ids.hpp"
#include "sim/time.hpp"
#include "underlay/topology.hpp"

namespace uap2p::underlay {

namespace snapshot {
class MappedSnapshot;  // underlay/snapshot.hpp
}

class HierarchyPlan;  // underlay/hierarchy.hpp
class AltLandmarks;   // underlay/hierarchy.hpp

/// Sentinel latency for unreachable router pairs. Callers must branch on
/// PathInfo::reachable (or the checked accessors below) before summing
/// latencies: adding anything to this value overflows to +inf.
inline constexpr sim::SimTime kUnreachableLatency =
    std::numeric_limits<sim::SimTime>::max();

/// Per-pair routing summary. A plain 40-byte value, returned by copy; the
/// AS-level sequence itself lives in the RoutingTable (see as_path).
struct PathInfo {
  sim::SimTime latency_ms = 0.0;       ///< Sum of link latencies.
  double bottleneck_mbps = 0.0;        ///< Min link bandwidth on the path.
  std::uint32_t router_hops = 0;       ///< Number of links traversed.
  std::uint32_t transit_crossings = 0; ///< Transit links on the path.
  std::uint32_t peering_crossings = 0; ///< Peering links on the path.
  std::uint32_t as_crossings = 0;      ///< AS boundary changes on the path.
  bool reachable = false;

  /// AS hops along the path (0 when both endpoints share an AS).
  [[nodiscard]] std::size_t as_hops() const { return as_crossings; }
  [[nodiscard]] bool intra_as() const { return as_crossings == 0 && reachable; }

  /// Latency if the pair is reachable, `std::nullopt` otherwise. Use this
  /// (or latency_or) when the result feeds arithmetic; the raw latency_ms
  /// field is kUnreachableLatency for unreachable pairs and poisons sums.
  [[nodiscard]] std::optional<sim::SimTime> checked_latency_ms() const {
    if (!reachable) return std::nullopt;
    return latency_ms;
  }
  /// Latency if reachable, `fallback` otherwise.
  [[nodiscard]] sim::SimTime latency_or(sim::SimTime fallback) const {
    return reachable ? latency_ms : fallback;
  }
};

/// Shortest-path oracle over an immutable topology. Lazy queries (the
/// non-const entry points) are not thread-safe; a fully warmed table is
/// read through the const entry points from any number of threads — that
/// is the contract SharedRouting packages up.
class RoutingTable {
 public:
  explicit RoutingTable(const AsTopology& topology)
      : topology_(topology), rows_(topology.router_count()) {}
  /// Retires the row arena (if any) to a process-global recycler so the
  /// next hierarchical warm of the same size reuses its already-faulted
  /// pages instead of paying the kernel's first-touch cost again.
  ~RoutingTable();
  /// Releases the recycled row image (if any) back to the OS. The pool
  /// otherwise keeps exactly one retired n² arena — ~3 GB at 10000
  /// routers — for the next same-sized warm (a size-mismatched take also
  /// frees it); call this when no further hierarchical warms are coming.
  static void trim_row_arena_pool();
  RoutingTable(RoutingTable&&) = default;

  /// Per-destination aggregates for one source row. This is both the
  /// in-memory layout and the on-disk snapshot record (underlay/snapshot):
  /// 32 bytes of little-endian PODs, written and mapped back verbatim.
  /// reachable is encoded as latency != kUnreachableLatency.
  struct DestEntry {
    sim::SimTime latency;
    double bottleneck;
    std::uint32_t prev_link;  ///< Global link index; UINT32_MAX at src/unreached.
    std::uint16_t router_hops;
    std::uint16_t transit;
    std::uint16_t peering;
    std::uint16_t as_crossings;
    std::uint32_t reserved;  ///< Explicit tail padding; always zero so the
                             ///< serialized record is byte-deterministic.
  };
  static_assert(sizeof(DestEntry) == 32 && alignof(DestEntry) == 8,
                "DestEntry is a fixed-width snapshot record");

  /// One-way latency between two routers (0 when src == dst,
  /// kUnreachableLatency when unreachable — do not sum without checking
  /// path().reachable or using the PathInfo checked accessors).
  [[nodiscard]] sim::SimTime latency_ms(RouterId src, RouterId dst) {
    return path(src, dst).latency_ms;
  }

  /// Full per-pair summary, by value. Runs the source's Dijkstra on first
  /// use; afterwards a lookup is two array indexations.
  [[nodiscard]] PathInfo path(RouterId src, RouterId dst) {
    return summarize(ensure_row(src.value())[dst.value()]);
  }
  /// Read-only lookup on a warmed source (warm_all_hierarchical, a
  /// snapshot attach, or a prior lazy query).
  /// Safe to call concurrently; SharedRouting exposes exactly this.
  [[nodiscard]] PathInfo path(RouterId src, RouterId dst) const {
    assert(warmed(src));
    return summarize(rows_[src.value()].entries[dst.value()]);
  }

  /// AS-level sequence for a reachable pair (consecutive-deduplicated,
  /// src's AS first), empty when unreachable. Materialized from the
  /// predecessor links on first request per (src, dst) and interned:
  /// identical sequences share one stable copy, and the returned span
  /// stays valid for the table's lifetime.
  [[nodiscard]] std::span<const AsId> as_path(RouterId src, RouterId dst);

  /// Router-level path (sequence of routers, src first). Recomputed from
  /// the predecessor links on each call; use path() for hot lookups.
  [[nodiscard]] std::vector<RouterId> router_path(RouterId src, RouterId dst);

  /// Batch-computes every source row through the hierarchical path
  /// (underlay/hierarchy.hpp, DESIGN.md "Hierarchical routing"): contracts
  /// pendants and stub groups onto the transit core and expands them back
  /// by exact aggregate folding, spread over the process pool (`threads`
  /// caps concurrency, 0 = hardware). Byte-identical rows to the
  /// per-source Dijkstra (path()) — same floats, same tie-breaks — gated
  /// by the reference-Dijkstra property suite; on topologies with nothing
  /// to contract it degenerates to that Dijkstra. Deterministic: rows are
  /// pure functions of the topology and writes are indexed by source, so
  /// the warmed table is identical for any thread count.
  void warm_all_hierarchical(std::size_t threads = 0);

  /// Builds (once) and returns the contraction plan. Not thread-safe
  /// against itself; the warm entry points call it before fanning out.
  const HierarchyPlan& ensure_hierarchy();
  /// The cached plan, or null if never built.
  [[nodiscard]] std::shared_ptr<const HierarchyPlan> hierarchy() const {
    return hierarchy_;
  }

  /// Builds (once) and returns the ALT landmark tables (a handful of
  /// full Dijkstras; snapshots persist the result so loads skip them).
  const AltLandmarks& ensure_landmarks();
  /// The cached landmark tables, or null if never built/adopted.
  [[nodiscard]] std::shared_ptr<const AltLandmarks> landmarks() const {
    return landmarks_;
  }
  /// Adopts persisted landmark tables (snapshot load path).
  void adopt_landmarks(std::shared_ptr<const AltLandmarks> landmarks) {
    landmarks_ = std::move(landmarks);
  }

  /// Point-to-point query that never warms a row: an early-exit Dijkstra
  /// pruned by ALT lower bounds, returning PathInfo byte-identical to
  /// path(src, dst) on a warmed table. Builds the landmark tables on
  /// first use; scratch is thread_local but the lazy build makes this a
  /// non-const (single-writer) entry point like the lazy path().
  [[nodiscard]] PathInfo point_path(RouterId src, RouterId dst);

  /// The ALT lower bound itself (0 when landmarks are absent) — what
  /// point_path prunes with; exposed for tests and coarse filtering.
  [[nodiscard]] double alt_lower_bound(RouterId a, RouterId b) const;

  [[nodiscard]] bool warmed(RouterId src) const {
    return rows_[src.value()].entries != nullptr;
  }

  /// Number of distinct source routers whose Dijkstra run is cached.
  [[nodiscard]] std::size_t cached_sources() const { return cached_sources_; }

  /// Bytes held by the per-source aggregate rows — the O(N²) budget that
  /// must fit for 1000-AS all-pairs routing.
  [[nodiscard]] std::size_t row_bytes() const;

  /// Snapshot export/import contract (underlay/snapshot.hpp) -------------

  /// Contiguous view of source `src`'s per-destination aggregates
  /// (router_count() entries). Requires the source to be warmed.
  [[nodiscard]] std::span<const DestEntry> row(RouterId src) const {
    assert(warmed(src));
    return {rows_[src.value()].entries, topology_.router_count()};
  }

  /// Adopts a fully warmed external row image: router_count() rows of
  /// router_count() entries, contiguous in source order — the layout a
  /// snapshot maps back in. The table only ever *reads* adopted rows
  /// (compute_row is gated on a null row), so a PROT_READ mmap region is
  /// fine; the caller must keep `image` alive for the table's lifetime.
  /// Call on a freshly constructed table (no computed rows, no interned
  /// paths).
  void adopt_rows(std::span<const DestEntry> image);

  /// Keys of every (src, dst) pair whose as_path has been materialized,
  /// as (src << 32 | dst), sorted ascending — the deterministic export
  /// order a snapshot persists regardless of the query order that built
  /// the intern table.
  [[nodiscard]] std::vector<std::uint64_t> materialized_pair_keys() const;

  /// Re-materializes as_path for each key in the order given. A snapshot
  /// load feeds the sorted key list here, so the rebuilt intern table is
  /// identical no matter what query order produced the snapshot.
  void materialize_pairs(std::span<const std::uint64_t> keys);

 private:
  /// One per-source row of router_count() DestEntry aggregates. `entries`
  /// points at `owned` for computed rows (allocated uninitialized:
  /// compute_row writes every entry exactly once — settled destinations
  /// during relaxation, the rest in the unreachable sweep) or into an
  /// external snapshot image after adopt_rows.
  struct SourceRow {
    DestEntry* entries = nullptr;        ///< Null until computed/adopted.
    std::unique_ptr<DestEntry[]> owned;  ///< Backing store when computed.
  };
  /// One interned AS sequence; `data` points into the stable block arena,
  /// `next` chains same-hash entries.
  struct InternedPath {
    const AsId* data;
    std::uint32_t size;
    std::uint32_t next;
  };

  [[nodiscard]] PathInfo summarize(const DestEntry& entry) const {
    PathInfo info;
    if (entry.latency == kUnreachableLatency) {
      info.latency_ms = kUnreachableLatency;
      return info;
    }
    info.latency_ms = entry.latency;
    info.bottleneck_mbps = entry.bottleneck;
    info.router_hops = entry.router_hops;
    info.transit_crossings = entry.transit;
    info.peering_crossings = entry.peering;
    info.as_crossings = entry.as_crossings;
    info.reachable = true;
    return info;
  }

  const DestEntry* ensure_row(std::uint32_t src) {
    SourceRow& row = rows_[src];
    if (row.entries == nullptr) {
      compute_row(src);
      ++cached_sources_;
    }
    return row.entries;
  }

  /// Dijkstra + aggregate pass for one source. Writes only rows_[src] and
  /// thread_local scratch, so callers may run it concurrently for
  /// distinct sources (the topology CSR must be built first).
  void compute_row(std::uint32_t src);

  /// Contracted equivalent of compute_row (underlay/hierarchy.cpp):
  /// region Dijkstras + star/pendant folds, byte-identical output. Same
  /// concurrency contract (plan built and shared read-only beforehand).
  void compute_row_hierarchical(std::uint32_t src, const HierarchyPlan& plan);

  /// Allocates the one-block backing image hierarchical warms write into
  /// (no-op if any row is already cached). Called before the warm loop so
  /// workers only read `row_arena_`.
  void ensure_row_arena();

  [[nodiscard]] RouterId prev_router_of(const DestEntry& entry,
                                        RouterId node) const {
    const Link& link = topology_.link(entry.prev_link);
    return link.a == node ? link.b : link.a;
  }

  std::uint32_t intern(std::span<const AsId> sequence);

  const AsTopology& topology_;
  std::vector<SourceRow> rows_;
  std::size_t cached_sources_ = 0;

  /// Backing store for hierarchically warmed rows: one contiguous n²
  /// image (madvised to huge pages) instead of n separate row
  /// allocations. First-touch page faults on the O(n²) image otherwise
  /// dominate the contracted warm; rows point into this with their
  /// `owned` pointer left null, mirroring the snapshot adopt_rows shape.
  std::unique_ptr<DestEntry[]> row_arena_;
  std::size_t row_arena_count_ = 0;  ///< Entries in row_arena_.

  // Hierarchical preprocessing products, built once and shared read-only
  // (shared_ptr: HierarchyPlan/AltLandmarks are incomplete here, and
  // snapshots/benches may hold them past the table).
  std::shared_ptr<const HierarchyPlan> hierarchy_;
  std::shared_ptr<const AltLandmarks> landmarks_;

  // Lazy as_path store: pair -> interned entry, hash -> chain head, and a
  // block arena whose blocks never reallocate once created — spans handed
  // out stay valid as the store grows.
  static constexpr std::size_t kArenaBlock = 1024;
  FlatMap<std::uint64_t, std::uint32_t> pair_paths_;
  std::vector<std::uint64_t> pair_keys_;  ///< Insertion-ordered pair_paths_ keys.
  FlatMap<std::uint64_t, std::uint32_t> intern_heads_;
  std::vector<InternedPath> interned_;
  std::vector<std::vector<AsId>> arena_;
  std::vector<AsId> scratch_as_;
};

/// An immutable, fully warmed topology + routing snapshot that parallel
/// trials of a bench group borrow instead of each rebuilding identical
/// state (the underlay is seed-derived per *group*, not per trial). All
/// entry points are const and purely read after build(): the router CSR,
/// the AS-hop cache, and every source row are precomputed, so concurrent
/// readers never race and results are byte-identical to an owned table.
class SharedRouting {
 public:
  /// Builds the snapshot: constructs the CSR views, warms every AS-hop
  /// BFS row, and batch-computes all Dijkstra sources (`threads` caps the
  /// warm-up concurrency, 0 = hardware).
  [[nodiscard]] static std::shared_ptr<const SharedRouting> build(
      AsTopology topology, std::size_t threads = 0);

  /// Zero-Dijkstra load path (DESIGN.md "Snapshot format"): mmaps a
  /// snapshot written by snapshot::write, byte-verifies it (checksums +
  /// a byte-compare of the stored CSR against `topology`'s, which proves
  /// the file matches this exact generator + seed), adopts the row image
  /// straight out of the mapping, rebuilds the as-path intern table in
  /// sorted order, and warms the (cheap, BFS-only) AS-hop cache. Returns
  /// null — with `error` describing why — on any mismatch, corruption,
  /// or version skew; callers fall back to build(). The mapped region is
  /// owned by the returned object, so queries read from the page cache.
  [[nodiscard]] static std::shared_ptr<const SharedRouting> load(
      AsTopology topology, const std::string& snapshot_path,
      std::size_t threads = 0, std::string* error = nullptr);

  [[nodiscard]] const AsTopology& topology() const { return topology_; }
  [[nodiscard]] const RoutingTable& table() const { return table_; }
  [[nodiscard]] PathInfo path(RouterId src, RouterId dst) const {
    return table_.path(src, dst);
  }

  /// True when the routing rows live in a mmapped snapshot image.
  [[nodiscard]] bool snapshot_backed() const { return mapped_ != nullptr; }

  SharedRouting(const SharedRouting&) = delete;
  SharedRouting& operator=(const SharedRouting&) = delete;
  ~SharedRouting();

 private:
  explicit SharedRouting(AsTopology topology);  // defined in routing.cpp

  /// Declared first: table_ may point into the mapping, so the region
  /// must outlive it (members destroy in reverse declaration order).
  std::unique_ptr<snapshot::MappedSnapshot> mapped_;
  AsTopology topology_;  ///< Declared before table_, which references it.
  RoutingTable table_;
};

/// The publication point between a topology/snapshot producer and any
/// number of concurrent readers: a swappable slot holding the current
/// immutable SharedRouting. publish() swaps in a fresh snapshot (a new
/// AsTopology build or a reloaded snapshot file) without stalling readers;
/// a reader's get() pins whatever was current at that instant, and the old
/// snapshot is destroyed only when its last reader drops the reference.
/// generation() lets hot loops poll for "did anything change?" with one
/// u64 load instead of a shared_ptr copy per query, so the mutex below is
/// touched only on actual publications — never per ranked request.
/// (A plain mutex instead of std::atomic<shared_ptr>: libstdc++'s
/// _Sp_atomic unlocks its reader path with a relaxed RMW, which leaves no
/// happens-before edge to the next writer and trips TSan; the explicit
/// lock costs the same — _Sp_atomic spins on a lock bit internally anyway
/// — and is sanitizer-clean.)
class SharedRoutingSlot {
 public:
  SharedRoutingSlot() = default;
  explicit SharedRoutingSlot(std::shared_ptr<const SharedRouting> initial)
      : slot_(std::move(initial)), generation_(1) {}

  /// Pins the currently published snapshot (may be null before the
  /// first publish). Safe from any thread.
  [[nodiscard]] std::shared_ptr<const SharedRouting> get() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slot_;
  }

  /// Publishes `next` and bumps the generation. The swap never blocks
  /// query processing: in-flight queries keep their pinned snapshot and
  /// workers only re-get() after seeing the generation move.
  void publish(std::shared_ptr<const SharedRouting> next) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slot_ = std::move(next);
    }
    generation_.fetch_add(1, std::memory_order_release);
  }

  /// Publication count; readers compare against a cached value to decide
  /// when to re-get(). Monotone, starts at 0 (1 when seeded via ctor).
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const SharedRouting> slot_;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace uap2p::underlay
