#include "underlay/routing.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "underlay/calendar_queue.hpp"
#include "underlay/hierarchy.hpp"
#include "underlay/snapshot.hpp"

namespace uap2p::underlay {

namespace {

using detail::CalendarQueue;
using detail::enc;

/// Reusable per-thread Dijkstra scratch. thread_local (not per-table) so a
/// fresh RoutingTable pays no scratch allocation after the first run on a
/// thread, and concurrent callers each get their own.
struct DijkstraScratch {
  std::vector<sim::SimTime> dist;
  CalendarQueue queue;
};

DijkstraScratch& scratch() {
  thread_local DijkstraScratch instance;
  return instance;
}

}  // namespace

void RoutingTable::compute_row(std::uint32_t src) {
  const AsTopology::RouterCsr& graph = topology_.csr();
  const std::size_t n = topology_.router_count();
  SourceRow& out = rows_[src];
  if (out.entries == nullptr) {
    // Value-initialized so the 4 trailing padding bytes of every entry are
    // zero bits: serialized rows (underlay/snapshot.hpp) must be
    // byte-deterministic, and assignment below only covers the fields.
    out.owned.reset(new DestEntry[n]());
    out.entries = out.owned.get();
  }
  DestEntry* const row = out.entries;

  DijkstraScratch& s = scratch();
  s.dist.assign(n, kUnreachableLatency);
  s.queue.reset(graph.max_weight, graph.heads.size());
  sim::SimTime* const dist = s.dist.data();
  const std::uint32_t* const offsets = graph.offsets.data();
  const std::uint32_t* const heads = graph.heads.data();
  const sim::SimTime* const weights = graph.weights.data();
  const std::uint32_t* const links = graph.links.data();
  const double* const bandwidths = graph.bandwidths.data();
  const std::uint8_t* const types = graph.types.data();
  const std::uint32_t* const router_as = graph.router_as.data();

  dist[src] = 0.0;
  // Identity for the bottleneck min-fold while children derive from the
  // source; reset to the reported 0 after the run.
  row[src] = DestEntry{0.0, std::numeric_limits<double>::max(), UINT32_MAX,
                       0,   0,
                       0,   0,
                       0};
  s.queue.seed(src);
  std::size_t settled = 0;

  while (s.queue.size() != 0) {
    const CalendarQueue::Slot top = s.queue.pop();
    const std::uint32_t node = top.node;
    const sim::SimTime node_dist = dist[node];
    if (enc(node_dist) < top.key) continue;  // stale entry
    ++settled;
    // The popped router is settled, so its aggregates are final: fold them
    // forward into each improved neighbor's row entry right here. A later
    // improvement of the neighbor overwrites the whole entry, keeping row
    // and dist consistent.
    const DestEntry parent = row[node];
    const std::uint32_t parent_as = router_as[node];
    const std::uint32_t end = offsets[node + 1];
    for (std::uint32_t e = offsets[node]; e < end; ++e) {
      const std::uint32_t next = heads[e];
      const sim::SimTime candidate = node_dist + weights[e];
      if (candidate < dist[next]) {
        dist[next] = candidate;
        DestEntry& entry = row[next];
        entry.latency = candidate;
        entry.bottleneck = std::min(parent.bottleneck, bandwidths[e]);
        entry.prev_link = links[e];
        entry.router_hops = static_cast<std::uint16_t>(parent.router_hops + 1);
        const auto type = static_cast<LinkType>(types[e]);
        entry.transit = static_cast<std::uint16_t>(
            parent.transit + (type == LinkType::kTransit ? 1 : 0));
        entry.peering = static_cast<std::uint16_t>(
            parent.peering + (type == LinkType::kPeering ? 1 : 0));
        entry.as_crossings = static_cast<std::uint16_t>(
            parent.as_crossings + (router_as[next] != parent_as ? 1 : 0));
        s.queue.push(candidate, next);
      }
    }
  }

  if (settled < n) {
    // Disconnected topology: stamp the rows relaxation never touched.
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i] == kUnreachableLatency) {
        row[i] =
            DestEntry{kUnreachableLatency, 0.0, UINT32_MAX, 0, 0, 0, 0, 0};
      }
    }
  }
  row[src].bottleneck = 0.0;  // self-paths report no bandwidth constraint
}

std::span<const AsId> RoutingTable::as_path(RouterId src, RouterId dst) {
  const DestEntry* row = ensure_row(src.value());
  if (row[dst.value()].latency == kUnreachableLatency) return {};
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
  if (const std::uint32_t* found = pair_paths_.find(key)) {
    const InternedPath& path = interned_[*found];
    return {path.data, path.size};
  }
  // Walk predecessors dst -> src, then reverse into src-first order.
  scratch_as_.clear();
  scratch_as_.push_back(topology_.as_of(dst));
  RouterId current = dst;
  while (current != src) {
    current = prev_router_of(row[current.value()], current);
    const AsId as = topology_.as_of(current);
    if (scratch_as_.back() != as) scratch_as_.push_back(as);
  }
  std::reverse(scratch_as_.begin(), scratch_as_.end());
  const std::uint32_t id = intern(scratch_as_);
  pair_paths_.insert_or_assign(key, id);
  pair_keys_.push_back(key);
  const InternedPath& path = interned_[id];
  return {path.data, path.size};
}

std::uint32_t RoutingTable::intern(std::span<const AsId> sequence) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over AS ids
  for (const AsId as : sequence) {
    hash ^= as.value();
    hash *= 1099511628211ull;
  }
  const std::uint32_t* head = intern_heads_.find(hash);
  if (head != nullptr) {
    for (std::uint32_t id = *head; id != UINT32_MAX; id = interned_[id].next) {
      const InternedPath& path = interned_[id];
      if (path.size == sequence.size() &&
          std::equal(sequence.begin(), sequence.end(), path.data)) {
        return id;
      }
    }
  }
  if (arena_.empty() ||
      arena_.back().capacity() - arena_.back().size() < sequence.size()) {
    arena_.emplace_back();
    arena_.back().reserve(std::max(kArenaBlock, sequence.size()));
  }
  std::vector<AsId>& block = arena_.back();
  const AsId* data = block.data() + block.size();
  block.insert(block.end(), sequence.begin(), sequence.end());
  const auto id = static_cast<std::uint32_t>(interned_.size());
  interned_.push_back(InternedPath{data,
                                   static_cast<std::uint32_t>(sequence.size()),
                                   head != nullptr ? *head : UINT32_MAX});
  intern_heads_.insert_or_assign(hash, id);
  return id;
}

std::vector<RouterId> RoutingTable::router_path(RouterId src, RouterId dst) {
  const DestEntry* row = ensure_row(src.value());
  if (row[dst.value()].latency == kUnreachableLatency) return {};
  std::vector<RouterId> reversed{dst};
  RouterId current = dst;
  while (current != src) {
    current = prev_router_of(row[current.value()], current);
    reversed.push_back(current);
  }
  return {reversed.rbegin(), reversed.rend()};
}

void RoutingTable::adopt_rows(std::span<const DestEntry> image) {
  const std::size_t n = topology_.router_count();
  assert(image.size() == n * n);
  assert(cached_sources_ == 0 && "adopt_rows wants a fresh table");
  for (std::size_t src = 0; src < n; ++src) {
    // The table never writes through an adopted row (compute_row is gated
    // on a null entries pointer), so shedding const here is safe even for
    // a PROT_READ mapping.
    rows_[src].entries = const_cast<DestEntry*>(image.data() + src * n);
    rows_[src].owned.reset();
  }
  cached_sources_ = n;
}

std::vector<std::uint64_t> RoutingTable::materialized_pair_keys() const {
  std::vector<std::uint64_t> keys = pair_keys_;
  std::sort(keys.begin(), keys.end());  // (src, dst) order, query-order-free
  return keys;
}

void RoutingTable::materialize_pairs(std::span<const std::uint64_t> keys) {
  for (const std::uint64_t key : keys) {
    (void)as_path(RouterId(static_cast<std::uint32_t>(key >> 32)),
                  RouterId(static_cast<std::uint32_t>(key)));
  }
}

std::size_t RoutingTable::row_bytes() const {
  std::size_t total = 0;
  for (const SourceRow& row : rows_) {
    if (row.entries != nullptr) {
      total += topology_.router_count() * sizeof(DestEntry);
    }
  }
  return total;
}

SharedRouting::SharedRouting(AsTopology topology)
    : topology_(std::move(topology)), table_(topology_) {}

std::shared_ptr<const SharedRouting> SharedRouting::build(AsTopology topology,
                                                          std::size_t threads) {
  std::shared_ptr<SharedRouting> shared(
      new SharedRouting(std::move(topology)));
  shared->topology_.warm_as_hops(threads);
  // The hierarchical warm is byte-identical to the per-source Dijkstra
  // (path()), gated by the routing property suite and the
  // snapshot-roundtrip verify, so every SharedRouting consumer — benches,
  // the oracle tier, snapshot writes — rides the contracted path for free.
  shared->table_.warm_all_hierarchical(threads);
  shared->table_.ensure_landmarks();
  return shared;
}

}  // namespace uap2p::underlay
