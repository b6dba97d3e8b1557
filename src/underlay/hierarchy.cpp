#include "underlay/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <queue>
#include <utility>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "common/thread_pool.hpp"
#include "underlay/calendar_queue.hpp"
#include "underlay/routing.hpp"

namespace uap2p::underlay {

namespace {

using detail::CalendarQueue;
using detail::enc;

constexpr std::uint32_t kNone = UINT32_MAX;

/// Shared scratch for the hierarchical warm: the full-size distance array
/// plus one calendar queue reused across the per-source region runs.
struct HierScratch {
  std::vector<sim::SimTime> dist;
  CalendarQueue queue;
};

HierScratch& hier_scratch() {
  thread_local HierScratch instance;
  return instance;
}

/// Writes the aggregate fold of `parent` through global edge `e` into
/// `entry` — field-for-field the relaxation body of compute_row, so the
/// produced bytes are identical. Every field including the reserved tail
/// is written: the hierarchical row buffers skip the value-init memset
/// (it would double the row-image write traffic), so nothing may rely on
/// pre-zeroed entries.
inline void fold_entry(RoutingTable::DestEntry& entry,
                       const RoutingTable::DestEntry& parent,
                       const AsTopology::RouterCsr& g, std::uint32_t e,
                       std::uint32_t head, std::uint32_t parent_as,
                       double candidate) {
  entry.latency = candidate;
  entry.bottleneck = std::min(parent.bottleneck, g.bandwidths[e]);
  entry.prev_link = g.links[e];
  entry.router_hops = static_cast<std::uint16_t>(parent.router_hops + 1);
  const auto type = static_cast<LinkType>(g.types[e]);
  entry.transit = static_cast<std::uint16_t>(
      parent.transit + (type == LinkType::kTransit ? 1 : 0));
  entry.peering = static_cast<std::uint16_t>(
      parent.peering + (type == LinkType::kPeering ? 1 : 0));
  entry.as_crossings = static_cast<std::uint16_t>(
      parent.as_crossings + (g.router_as[head] != parent_as ? 1 : 0));
  entry.reserved = 0;
}

/// Bakes the plan-time-constant half of a fold record (StarEdge or
/// PendantCand): edge payload plus the aggregate increments, which depend
/// only on the edge type and the fixed (head, parent) AS pair.
template <typename Record>
void bake_payload(Record& rec, const AsTopology::RouterCsr& g,
                  std::uint32_t e, std::uint32_t head, std::uint32_t parent) {
  rec.weight = g.weights[e];
  rec.bandwidth = g.bandwidths[e];
  rec.link = g.links[e];
  const auto type = static_cast<LinkType>(g.types[e]);
  rec.transit_inc = type == LinkType::kTransit ? 1 : 0;
  rec.peering_inc = type == LinkType::kPeering ? 1 : 0;
  rec.as_inc = g.router_as[head] != g.router_as[parent] ? 1 : 0;
}

/// One star fold: the canonical relaxation of `se` given the parent's
/// settled dist/row — the only surviving write the flat run would make
/// for this destination. Phase C streams these per star group from the
/// settled attachment.
inline void fold_star(const HierarchyPlan::StarEdge& se, sim::SimTime* dist,
                      RoutingTable::DestEntry* row) {
  const RoutingTable::DestEntry parent = row[se.parent];
  const sim::SimTime candidate = dist[se.parent] + se.weight;
  dist[se.member] = candidate;
  row[se.member] = RoutingTable::DestEntry{
      candidate,
      std::min(parent.bottleneck, se.bandwidth),
      se.link,
      static_cast<std::uint16_t>(parent.router_hops + 1),
      static_cast<std::uint16_t>(parent.transit + se.transit_inc),
      static_cast<std::uint16_t>(parent.peering + se.peering_inc),
      static_cast<std::uint16_t>(parent.as_crossings + se.as_inc),
      0};
}

/// Canonical Dijkstra restricted to one region, seeded at `seed_local`
/// with whatever dist/row the caller already established there. Local ids
/// ascend with global ids, so the queue's tie-break order — and therefore
/// every first-achiever parent choice — matches the flat run restricted
/// to this region.
void run_region(const RegionCsr& r, std::uint32_t seed_local,
                const AsTopology::RouterCsr& g, sim::SimTime* dist,
                RoutingTable::DestEntry* row, CalendarQueue& queue) {
  // The seed offset (the attachment's already-settled distance) can sit
  // an arbitrary number of bucket laps past 0, so the queue's cursor must
  // start on the seed's absolute bucket — see CalendarQueue::reset.
  const sim::SimTime seed_dist = dist[r.node_global[seed_local]];
  queue.reset(g.max_weight, r.edge_count() + 1, seed_dist);
  queue.push(seed_dist, seed_local);
  while (queue.size() != 0) {
    const CalendarQueue::Slot top = queue.pop();
    const std::uint32_t u_local = top.node;
    const std::uint32_t u = r.node_global[u_local];
    const sim::SimTime u_dist = dist[u];
    if (enc(u_dist) < top.key) continue;  // stale entry
    const RoutingTable::DestEntry parent = row[u];
    const std::uint32_t parent_as = g.router_as[u];
    const std::uint32_t end = r.offsets[u_local + 1];
    for (std::uint32_t e = r.offsets[u_local]; e < end; ++e) {
      const std::uint32_t head = r.head_global[e];
      const sim::SimTime candidate = u_dist + r.weights[e];
      if (candidate < dist[head]) {
        dist[head] = candidate;
        fold_entry(row[head], parent, g, r.gedge[e], head, parent_as,
                   candidate);
        queue.push(candidate, r.head_local[e]);
      }
    }
  }
}

/// Builds the local CSR over `nodes` (must be sorted ascending), keeping
/// only edges whose head is also in the set. `local_of` is a caller-owned
/// n-sized kNone-filled map; it is restored to kNone before returning.
RegionCsr build_region(const AsTopology::RouterCsr& g,
                       const std::vector<std::uint32_t>& nodes,
                       std::vector<std::uint32_t>& local_of) {
  RegionCsr r;
  r.node_global = nodes;
  for (std::uint32_t i = 0; i < nodes.size(); ++i) local_of[nodes[i]] = i;
  r.offsets.reserve(nodes.size() + 1);
  r.offsets.push_back(0);
  for (const std::uint32_t u : nodes) {
    const std::uint32_t end = g.offsets[u + 1];
    for (std::uint32_t e = g.offsets[u]; e < end; ++e) {
      const std::uint32_t head = g.heads[e];
      const std::uint32_t head_local = local_of[head];
      if (head_local == kNone) continue;
      r.head_local.push_back(head_local);
      r.head_global.push_back(head);
      r.weights.push_back(g.weights[e]);
      r.gedge.push_back(e);
    }
    r.offsets.push_back(static_cast<std::uint32_t>(r.head_local.size()));
  }
  for (const std::uint32_t u : nodes) local_of[u] = kNone;
  return r;
}

/// Full-graph canonical Dijkstra, distances only (landmark rows). The
/// caller pre-fills `dist` with kUnreachableLatency.
void dijkstra_dist(const AsTopology::RouterCsr& g, std::uint32_t src,
                   double* dist, CalendarQueue& queue) {
  dist[src] = 0.0;
  queue.reset(g.max_weight, g.heads.size() + 1);
  queue.seed(src);
  while (queue.size() != 0) {
    const CalendarQueue::Slot top = queue.pop();
    const std::uint32_t node = top.node;
    const double node_dist = dist[node];
    if (enc(node_dist) < top.key) continue;
    const std::uint32_t end = g.offsets[node + 1];
    for (std::uint32_t e = g.offsets[node]; e < end; ++e) {
      const std::uint32_t next = g.heads[e];
      const double candidate = node_dist + g.weights[e];
      if (candidate < dist[next]) {
        dist[next] = candidate;
        queue.push(candidate, next);
      }
    }
  }
}

}  // namespace

// --- HierarchyPlan -------------------------------------------------------

std::shared_ptr<const HierarchyPlan> HierarchyPlan::build(
    const AsTopology& topology) {
  std::shared_ptr<HierarchyPlan> plan(new HierarchyPlan());
  const AsTopology::RouterCsr& g = topology.csr();
  const std::size_t n = topology.router_count();
  plan->n_ = n;
  // Absolute error bound for any computed path value: <= n rounded adds,
  // each with relative error 2^-53 on a value <= n * max_weight, and
  // n^2 * 2^-53 <= (n+1) * 2^-36 for every n <= 2^17. Contraction
  // preconditions demand wins/weights clear 4x this, so float rounding
  // can neither flip a winner nor manufacture a cross-region tie.
  plan->margin_ = std::ldexp(double(n + 1) * g.max_weight, -36);
  plan->pendant_parent_.assign(n, kNone);
  plan->pendant_up_edge_.assign(n, kNone);
  plan->group_of_.assign(n, kNone);
  if (n == 0) return plan;

  // Connectivity: one sweep over the (bidirectional) CSR. A connected
  // graph lets compute_row_hierarchical skip its per-source unreachable
  // sweep — every destination is settled by some fold phase.
  {
    std::vector<std::uint8_t> seen(n, 0);
    std::vector<std::uint32_t> stack{0};
    seen[0] = 1;
    std::size_t visited = 1;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      const std::uint32_t end = g.offsets[u + 1];
      for (std::uint32_t e = g.offsets[u]; e < end; ++e) {
        const std::uint32_t head = g.heads[e];
        if (seen[head] == 0) {
          seen[head] = 1;
          ++visited;
          stack.push_back(head);
        }
      }
    }
    plan->connected_ = visited == n;
  }

  // Pendants: every edge leads to the same single neighbor. A mutual pair
  // (two-router component) keeps the smaller id as core, so a pendant's
  // parent is always core.
  std::vector<std::uint8_t> is_pendant(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t begin = g.offsets[v], end = g.offsets[v + 1];
    if (begin == end) continue;
    const std::uint32_t p = g.heads[begin];
    if (p == v) continue;
    bool single = true;
    for (std::uint32_t e = begin + 1; e < end; ++e) {
      if (g.heads[e] != p) {
        single = false;
        break;
      }
    }
    if (single) {
      is_pendant[v] = 1;
      plan->pendant_parent_[v] = p;
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (is_pendant[v] == 0) continue;
    const std::uint32_t p = plan->pendant_parent_[v];
    if (p < v && is_pendant[p] != 0) {
      is_pendant[p] = 0;  // the smaller id of a mutual pair stays core
      plan->pendant_parent_[p] = kNone;
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (is_pendant[v] == 0) continue;
    // Up edge for a pendant *source*: fl(0 + w) == w exactly, so the flat
    // run keeps the minimum-weight edge, first in CSR order.
    const std::uint32_t begin = g.offsets[v], end = g.offsets[v + 1];
    std::uint32_t best = begin;
    for (std::uint32_t e = begin + 1; e < end; ++e) {
      if (g.weights[e] < g.weights[best]) best = e;
    }
    plan->pendant_up_edge_[v] = best;
    // Down candidates for the pendant as *destination*: the parent's CSR
    // edges into v, in CSR order (the flat relaxation order).
    const std::uint32_t p = plan->pendant_parent_[v];
    PendantDest dest{v, p,
                     static_cast<std::uint32_t>(plan->pendant_cands_.size()),
                     0};
    const std::uint32_t pend = g.offsets[p + 1];
    for (std::uint32_t e = g.offsets[p]; e < pend; ++e) {
      if (g.heads[e] == v) {
        PendantCand cand;
        bake_payload(cand, g, e, v, p);
        plan->pendant_cands_.push_back(cand);
        ++dest.cand_count;
      }
    }
    plan->pendant_dests_.push_back(dest);
  }

  for (std::uint32_t v = 0; v < n; ++v) {
    if (is_pendant[v] == 0) plan->core_order_.push_back(v);
  }

  // Stub groups need every edge weight to clear the float-error margin:
  // the no-shortcut arguments (a path re-entering an attachment is
  // strictly longer, beyond rounding) require strictly positive round
  // trips. Pendant contraction needs no such guard.
  double min_weight = std::numeric_limits<double>::max();
  for (const double w : g.weights) min_weight = std::min(min_weight, w);
  const bool groups_enabled =
      !g.weights.empty() && min_weight > 4.0 * plan->margin_ &&
      min_weight > 0.0;

  std::vector<std::uint32_t> local_of(n, kNone);

  // Canonical shortest-path tree of region `r` from `seed`, validated
  // against the star-margin property: every settled node's entry edge
  // must win by more than 4 * margin over every other in-region in-edge
  // (edges into the seed exempt — positive-weight candidates can never
  // undercut the seed's fixed offset, and equal ones never overwrite).
  // True means replaying the tree's folds in (tau, id) order reproduces
  // the region Dijkstra's bytes under ANY source offset at the seed.
  const double slack = 4.0 * plan->margin_;
  auto region_tree = [slack](const RegionCsr& r, std::uint32_t seed,
                             std::vector<double>& tau,
                             std::vector<std::uint32_t>& prev_edge,
                             std::vector<std::uint32_t>& prev_parent) {
    const auto m = static_cast<std::uint32_t>(r.size());
    tau.assign(m, std::numeric_limits<double>::max());
    prev_edge.assign(m, kNone);
    prev_parent.assign(m, kNone);
    using Item = std::pair<double, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    tau[seed] = 0.0;
    pq.push({0.0, seed});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > tau[u]) continue;
      const std::uint32_t end = r.offsets[u + 1];
      for (std::uint32_t e = r.offsets[u]; e < end; ++e) {
        const std::uint32_t head = r.head_local[e];
        const double candidate = d + r.weights[e];
        if (candidate < tau[head]) {
          tau[head] = candidate;
          prev_edge[head] = e;
          prev_parent[head] = u;
          pq.push({candidate, head});
        }
      }
    }
    for (std::uint32_t v = 0; v < m; ++v) {
      if (v != seed && tau[v] == std::numeric_limits<double>::max()) {
        return false;  // node unreachable from the seed
      }
    }
    for (std::uint32_t u = 0; u < m; ++u) {
      const std::uint32_t end = r.offsets[u + 1];
      for (std::uint32_t e = r.offsets[u]; e < end; ++e) {
        const std::uint32_t v = r.head_local[e];
        if (v == seed || e == prev_edge[v]) continue;
        if (tau[u] + r.weights[e] <= tau[v] + slack) {
          return false;  // ambiguous entry edge
        }
      }
    }
    return true;
  };

  // Emits a validated tree as baked fold records in settle order —
  // ascending (tau, global id), parents strictly before children.
  auto emit_tree = [&g](const RegionCsr& r, std::uint32_t seed,
                        const std::vector<double>& tau,
                        const std::vector<std::uint32_t>& prev_edge,
                        const std::vector<std::uint32_t>& prev_parent,
                        std::vector<StarEdge>& sink) {
    const auto m = static_cast<std::uint32_t>(r.size());
    std::vector<std::uint32_t> order;
    order.reserve(m - 1);
    for (std::uint32_t v = 0; v < m; ++v) {
      if (v != seed) order.push_back(v);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (tau[a] != tau[b]) return tau[a] < tau[b];
                return r.node_global[a] < r.node_global[b];
              });
    for (const std::uint32_t v : order) {
      StarEdge se;
      se.member = r.node_global[v];
      se.parent = r.node_global[prev_parent[v]];
      bake_payload(se, g, r.gedge[prev_edge[v]], se.member, se.parent);
      sink.push_back(se);
    }
  };

  if (groups_enabled) {
    // Connected components over core stub routers (edges between two core
    // stub routers only). A component whose members see exactly one core
    // transit neighbor is a valid group behind that attachment; anything
    // else stays in the inner core.
    std::vector<std::uint8_t> core_stub(n, 0);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (is_pendant[v] == 0 &&
          !topology.as_info(AsId(g.router_as[v])).is_transit) {
        core_stub[v] = 1;
      }
    }
    std::vector<std::uint32_t> component(n, kNone);
    std::vector<std::uint32_t> stack, members;
    for (std::uint32_t start = 0; start < n; ++start) {
      if (core_stub[start] == 0 || component[start] != kNone) continue;
      members.clear();
      stack.assign(1, start);
      component[start] = start;
      while (!stack.empty()) {
        const std::uint32_t u = stack.back();
        stack.pop_back();
        members.push_back(u);
        const std::uint32_t end = g.offsets[u + 1];
        for (std::uint32_t e = g.offsets[u]; e < end; ++e) {
          const std::uint32_t head = g.heads[e];
          if (core_stub[head] != 0 && component[head] == kNone) {
            component[head] = start;
            stack.push_back(head);
          }
        }
      }
      // Attachments: distinct core transit neighbors of the members.
      std::uint32_t attachment = kNone;
      bool valid = true;
      for (const std::uint32_t u : members) {
        const std::uint32_t end = g.offsets[u + 1];
        for (std::uint32_t e = g.offsets[u]; e < end; ++e) {
          const std::uint32_t head = g.heads[e];
          if (core_stub[head] != 0 || is_pendant[head] != 0) continue;
          if (attachment == kNone) {
            attachment = head;
          } else if (attachment != head) {
            valid = false;
          }
        }
        if (!valid) break;
      }
      if (!valid || attachment == kNone) continue;  // stays inner core
      if (topology.as_info(AsId(g.router_as[attachment])).is_transit ==
          false) {
        continue;  // non-transit attachment: shapeless, stay inner core
      }

      Group group;
      group.attachment = attachment;
      std::sort(members.begin(), members.end());
      std::vector<std::uint32_t> region_nodes = members;
      region_nodes.insert(
          std::lower_bound(region_nodes.begin(), region_nodes.end(),
                           attachment),
          attachment);
      group.region = build_region(g, region_nodes, local_of);
      group.attachment_local = static_cast<std::uint32_t>(
          std::lower_bound(region_nodes.begin(), region_nodes.end(),
                           attachment) -
          region_nodes.begin());

      // Star test: plan-time Dijkstra from the attachment; star mode is
      // valid only when every member's entry edge wins by more than
      // 4 * margin over every other in-region in-edge — then the same
      // edge wins under any source offset and any rounding, with no
      // equality ties, so runtime expansion is one add + fold per member.
      const RegionCsr& r = group.region;
      const std::size_t m = r.size();
      std::vector<double> tau;
      std::vector<std::uint32_t> prev_edge, prev_parent;
      group.star =
          region_tree(r, group.attachment_local, tau, prev_edge, prev_parent);
      if (group.star) {
        group.first_star =
            static_cast<std::uint32_t>(plan->star_edges_.size());
        emit_tree(r, group.attachment_local, tau, prev_edge, prev_parent,
                  plan->star_edges_);
        group.star_count = static_cast<std::uint32_t>(m - 1);
        ++plan->star_group_count_;
      }

      const auto index = static_cast<std::uint32_t>(plan->groups_.size());
      for (const std::uint32_t u : members) plan->group_of_[u] = index;
      plan->groups_.push_back(std::move(group));
    }
  }

  // Dense phase-C index: star groups stream StarBlocks (16 bytes each),
  // non-star groups fall back to the vector-heavy Group records.
  for (std::uint32_t gi = 0;
       gi < static_cast<std::uint32_t>(plan->groups_.size()); ++gi) {
    const Group& grp = plan->groups_[gi];
    if (grp.star) {
      plan->star_blocks_.push_back(
          StarBlock{gi, grp.attachment, grp.first_star, grp.star_count});
    } else {
      plan->mini_groups_.push_back(gi);
    }
  }

  // Inner core: every core router not claimed by a valid group. Group
  // regions never shortcut between inner routers (they would re-enter
  // their attachment), so phase B can run on this subgraph alone.
  std::vector<std::uint32_t> inner;
  for (const std::uint32_t v : plan->core_order_) {
    if (plan->group_of_[v] == kNone) inner.push_back(v);
  }
  plan->inner_core_ = build_region(g, inner, local_of);
  return plan;
}

// --- AltLandmarks --------------------------------------------------------

std::shared_ptr<const AltLandmarks> AltLandmarks::build(
    const AsTopology& topology, std::uint32_t count) {
  std::shared_ptr<AltLandmarks> lm(new AltLandmarks());
  const AsTopology::RouterCsr& g = topology.csr();
  const std::size_t n = topology.router_count();
  lm->n_ = n;
  if (n == 0 || count == 0) return lm;
  count = std::min<std::uint32_t>(count, static_cast<std::uint32_t>(n));
  CalendarQueue queue;
  std::vector<double> min_dist(n, kUnreachableLatency);
  std::uint32_t next = 0;  // landmark 0: router 0
  for (std::uint32_t k = 0; k < count; ++k) {
    lm->ids_.push_back(next);
    lm->dists_.resize(lm->ids_.size() * n, kUnreachableLatency);
    double* row = lm->dists_.data() + std::size_t(k) * n;
    dijkstra_dist(g, next, row, queue);
    // Farthest-point: the next landmark maximizes the distance to the
    // chosen set (reachable routers only; ties to the smallest id).
    next = kNone;
    double best = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      min_dist[v] = std::min(min_dist[v], row[v]);
      if (min_dist[v] != kUnreachableLatency && min_dist[v] > best) {
        best = min_dist[v];
        next = v;
      }
    }
    if (next == kNone) break;  // every reachable router is a landmark
  }
  return lm;
}

std::shared_ptr<const AltLandmarks> AltLandmarks::adopt(
    std::span<const std::uint32_t> ids, std::span<const double> dists,
    std::size_t routers) {
  std::shared_ptr<AltLandmarks> lm(new AltLandmarks());
  lm->n_ = routers;
  lm->ids_.assign(ids.begin(), ids.end());
  lm->dists_.assign(dists.begin(), dists.end());
  return lm;
}

double AltLandmarks::lower_bound(std::uint32_t a, std::uint32_t b) const {
  double best = 0.0;
  for (std::uint32_t k = 0; k < ids_.size(); ++k) {
    const double* r = row(k);
    const double d = std::fabs(r[a] - r[b]);
    if (d > best) best = d;
  }
  return best;
}

double AltLandmarks::upper_bound(std::uint32_t a, std::uint32_t b) const {
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t k = 0; k < ids_.size(); ++k) {
    const double* r = row(k);
    const double d = r[a] + r[b];
    if (d < best) best = d;
  }
  return best;
}

// --- RoutingTable hierarchical entry points ------------------------------

const HierarchyPlan& RoutingTable::ensure_hierarchy() {
  // The plan is cached on the topology: every table over the same
  // topology (oracle rebuilds, bench loops) shares one build.
  if (hierarchy_ == nullptr) hierarchy_ = topology_.hierarchy_plan();
  return *hierarchy_;
}

const AltLandmarks& RoutingTable::ensure_landmarks() {
  if (landmarks_ == nullptr) landmarks_ = AltLandmarks::build(topology_);
  return *landmarks_;
}

void RoutingTable::compute_row_hierarchical(std::uint32_t src,
                                            const HierarchyPlan& plan) {
  const AsTopology::RouterCsr& g = topology_.csr();
  const std::size_t n = topology_.router_count();
  SourceRow& out = rows_[src];
  if (out.entries == nullptr) {
    // Unlike compute_row, NOT value-initialized: zeroing the row would
    // double the row-image write traffic, and every entry is fully
    // written anyway — reachable ones by a fold (all eight fields,
    // reserved included), unreachable ones by the sweep below. Rows live
    // in the shared arena when a full warm allocated one.
    if (row_arena_ != nullptr) {
      out.entries = row_arena_.get() + std::size_t(src) * n;
    } else {
      out.owned.reset(new DestEntry[n]);
      out.entries = out.owned.get();
    }
  }
  DestEntry* const row = out.entries;

  HierScratch& s = hier_scratch();
  s.dist.assign(n, kUnreachableLatency);
  sim::SimTime* const dist = s.dist.data();

  dist[src] = 0.0;
  row[src] = DestEntry{0.0, std::numeric_limits<double>::max(), UINT32_MAX,
                       0,   0,
                       0,   0,
                       0};

  // Pendant source: hop onto the (core) parent through the precomputed
  // winning up edge — fl(0 + w) == w, so the seed is exact.
  std::uint32_t h = src;
  if (plan.pendant_parent(src) != kNone) {
    const std::uint32_t p = plan.pendant_parent(src);
    const std::uint32_t e = plan.pendant_up_edge(src);
    const sim::SimTime w = g.weights[e];
    dist[p] = w;
    fold_entry(row[p], row[src], g, e, p, g.router_as[src], w);
    h = p;
  }

  // Phase A: if the seed sits inside a stub group, settle that whole
  // region first (every path out of the group passes its attachment). The
  // region Dijkstra is seeded at the source's own offset — 0 for a member,
  // the up-edge weight for a pendant — so every tie breaks as in the flat
  // run. It runs here, inside the parallel warm, rather than being recorded
  // per source at plan time: each source replays its tree exactly once per
  // warm, so a recording would only move the same work onto the serial plan.
  std::uint32_t core_seed = h;
  const std::uint32_t own_group = plan.group_of(h);
  if (own_group != kNone) {
    const HierarchyPlan::Group& grp = plan.groups()[own_group];
    const auto& nodes = grp.region.node_global;
    const auto seed_local = static_cast<std::uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), h) - nodes.begin());
    run_region(grp.region, seed_local, g, dist, row, s.queue);
    core_seed = grp.attachment;
  }

  // Phase B: Dijkstra over the inner transit core only.
  {
    const RegionCsr& inner = plan.inner_core();
    const auto& nodes = inner.node_global;
    const auto seed_local = static_cast<std::uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), core_seed) -
        nodes.begin());
    run_region(inner, seed_local, g, dist, row, s.queue);
  }

  // Phase C: expand every other group from its (now settled) attachment —
  // star groups by streaming their baked fold records in distance order,
  // the rest by a region-local Dijkstra. Group order is irrelevant for
  // byte identity: groups touch disjoint member sets and read only their
  // own (phase-B-settled) attachment, so star and mini groups may run in
  // separate passes. The star loop is the warm-all hot path: per member
  // it reads one 32-byte record sequentially, one cached parent entry,
  // and writes dist + the row entry — no global CSR gathers.
  const auto star_edges = plan.star_edges();
  for (const HierarchyPlan::StarBlock& sb : plan.star_blocks()) {
    if (sb.group == own_group) continue;
    if (dist[sb.attachment] == kUnreachableLatency) continue;
    const std::uint32_t end = sb.first + sb.count;
    for (std::uint32_t i = sb.first; i < end; ++i) {
      fold_star(star_edges[i], dist, row);
    }
  }
  const auto groups = plan.groups();
  for (const std::uint32_t gi : plan.mini_groups()) {
    if (gi == own_group) continue;
    const HierarchyPlan::Group& grp = groups[gi];
    if (dist[grp.attachment] == kUnreachableLatency) continue;
    run_region(grp.region, grp.attachment_local, g, dist, row, s.queue);
  }

  // Phase D: pendant destinations fold from their parent's settled row —
  // the parent's CSR-ordered relaxations into v, replayed exactly from
  // the baked candidate records.
  const auto cands = plan.pendant_cands();
  for (const HierarchyPlan::PendantDest& pd : plan.pendant_dests()) {
    if (pd.v == src) continue;
    const sim::SimTime parent_dist = dist[pd.parent];
    if (parent_dist == kUnreachableLatency) continue;
    const DestEntry parent = row[pd.parent];
    sim::SimTime best = kUnreachableLatency;
    const std::uint32_t end = pd.first_cand + pd.cand_count;
    for (std::uint32_t i = pd.first_cand; i < end; ++i) {
      const HierarchyPlan::PendantCand& c = cands[i];
      const sim::SimTime candidate = parent_dist + c.weight;
      if (candidate < best) {
        best = candidate;
        row[pd.v] = DestEntry{
            candidate,
            std::min(parent.bottleneck, c.bandwidth),
            c.link,
            static_cast<std::uint16_t>(parent.router_hops + 1),
            static_cast<std::uint16_t>(parent.transit + c.transit_inc),
            static_cast<std::uint16_t>(parent.peering + c.peering_inc),
            static_cast<std::uint16_t>(parent.as_crossings + c.as_inc),
            0};
      }
    }
    dist[pd.v] = best;
  }

  // Same unreachable sweep as compute_row, byte-equal on disconnected
  // graphs. On a connected graph every entry was already written by a
  // fold phase, so the whole scan is skipped.
  if (!plan.connected()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i] == kUnreachableLatency) {
        row[i] =
            DestEntry{kUnreachableLatency, 0.0, UINT32_MAX, 0, 0, 0, 0, 0};
      }
    }
  }
  row[src].bottleneck = 0.0;  // self-paths report no bandwidth constraint
}

namespace {

/// Process-global recycler for retired row-arena images. Faulting in a
/// fresh multi-hundred-MB anonymous mapping costs more than all the fold
/// arithmetic of a hierarchical warm (the kernel zeroes every page on
/// first touch); re-warming into an already-faulted image skips that
/// entirely. The steady-state consumers — oracle snapshot rebuilds,
/// repeated warms in a bench loop — retire one table before warming the
/// next, so the pool keeps exactly one arena (newest wins) and holds at
/// most one row image beyond the live tables' own.
class RowArenaPool {
 public:
  static RowArenaPool& instance() {
    static RowArenaPool pool;
    return pool;
  }

  std::unique_ptr<RoutingTable::DestEntry[]> take(std::size_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    if (arena_ == nullptr) return nullptr;
    if (count_ != count) {
      // Topology size changed: the retired image can never match a take
      // again, so release it now instead of stranding a multi-GB mapping
      // until some same-sized warm happens to replace it.
      arena_.reset();
      count_ = 0;
      return nullptr;
    }
    count_ = 0;
    return std::move(arena_);
  }

  void put(std::unique_ptr<RoutingTable::DestEntry[]> arena,
           std::size_t count) {
    if (arena == nullptr || count == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    arena_ = std::move(arena);  // newest wins; the old image is released
    count_ = count;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    arena_.reset();
    count_ = 0;
  }

 private:
  std::mutex mu_;
  std::unique_ptr<RoutingTable::DestEntry[]> arena_;
  std::size_t count_ = 0;
};

}  // namespace

RoutingTable::~RoutingTable() {
  RowArenaPool::instance().put(std::move(row_arena_), row_arena_count_);
}

void RoutingTable::trim_row_arena_pool() { RowArenaPool::instance().clear(); }

void RoutingTable::ensure_row_arena() {
  if (row_arena_ != nullptr) return;
  const std::size_t n = topology_.router_count();
  if (n == 0) return;
  for (const SourceRow& r : rows_) {
    // A partially warmed or snapshot-adopted table keeps its existing
    // storage; the arena only backs an all-fresh hierarchical warm.
    if (r.entries != nullptr) return;
  }
  row_arena_count_ = n * n;
  row_arena_ = RowArenaPool::instance().take(row_arena_count_);
  if (row_arena_ != nullptr) return;  // recycled image: pages already warm
  // Deliberately NOT value-initialized (compute_row_hierarchical fully
  // writes every entry); zeroing would fault and write the whole image
  // twice.
  row_arena_.reset(new DestEntry[n * n]);
#ifdef __linux__
  // One huge-page fault per 2 MB instead of one soft fault per 4 KB page
  // of the image — first-touch faults otherwise cost more than the folds.
  auto begin = reinterpret_cast<std::uintptr_t>(row_arena_.get());
  auto end = begin + n * n * sizeof(DestEntry);
  begin = (begin + 4095u) & ~std::uintptr_t(4095);
  end &= ~std::uintptr_t(4095);
  if (end > begin) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#endif
}

void RoutingTable::warm_all_hierarchical(std::size_t threads) {
  const std::size_t n = topology_.router_count();
  (void)topology_.csr();  // build once before workers share it read-only
  const HierarchyPlan& plan = ensure_hierarchy();
  ensure_row_arena();
  parallel_for(
      n,
      [this, &plan](std::size_t src) {
        if (rows_[src].entries == nullptr) {
          compute_row_hierarchical(static_cast<std::uint32_t>(src), plan);
        }
      },
      threads);
  cached_sources_ = n;
}

// --- ALT point-to-point queries ------------------------------------------

namespace {

/// Sparse per-query scratch: epoch stamps avoid the O(n) clear, so a
/// pruned query touches memory proportional to what it actually visits.
struct PointScratch {
  std::vector<sim::SimTime> dist;
  std::vector<RoutingTable::DestEntry> entry;
  std::vector<std::uint32_t> epoch;
  std::uint32_t current = 0;
  CalendarQueue queue;
};

PointScratch& point_scratch() {
  thread_local PointScratch instance;
  return instance;
}

}  // namespace

double RoutingTable::alt_lower_bound(RouterId a, RouterId b) const {
  if (landmarks_ == nullptr) return 0.0;
  return landmarks_->lower_bound(a.value(), b.value());
}

PathInfo RoutingTable::point_path(RouterId src_id, RouterId dst_id) {
  const std::uint32_t src = src_id.value(), dst = dst_id.value();
  if (rows_[src].entries != nullptr) {  // warmed row: plain lookup
    return summarize(rows_[src].entries[dst]);
  }
  const AltLandmarks& lm = ensure_landmarks();
  const AsTopology::RouterCsr& g = topology_.csr();
  const std::size_t n = topology_.router_count();

  PointScratch& s = point_scratch();
  if (s.dist.size() < n) {
    s.dist.resize(n);
    s.entry.resize(n);
    s.epoch.assign(n, 0);
    s.current = 0;
  }
  if (++s.current == 0) {  // epoch wrap: one real clear every 2^32 queries
    std::fill(s.epoch.begin(), s.epoch.end(), 0u);
    s.current = 1;
  }
  const std::uint32_t cur = s.current;

  // Pruning threshold: a node on any path that can still influence the
  // destination entry satisfies candidate + lb <= true distance + a few
  // rounding errors <= ub + a few more, so a generous multiple of the
  // accumulated-error margin keeps the prune sound (slack only costs
  // performance, never bytes).
  const double margin = std::ldexp(double(n + 1) * g.max_weight, -36);
  const double limit = lm.upper_bound(src, dst) + 16.0 * margin;

  s.dist[src] = 0.0;
  s.entry[src] = DestEntry{0.0, std::numeric_limits<double>::max(),
                           UINT32_MAX, 0,
                           0,          0,
                           0,          0};
  s.epoch[src] = cur;
  s.queue.reset(g.max_weight, g.heads.size() + 1);
  s.queue.seed(src);
  while (s.queue.size() != 0) {
    const CalendarQueue::Slot top = s.queue.pop();
    const std::uint32_t node = top.node;
    const sim::SimTime node_dist = s.dist[node];
    if (enc(node_dist) < top.key) continue;
    if (node == dst) {
      DestEntry settled = s.entry[node];
      if (node == src) settled.bottleneck = 0.0;
      return summarize(settled);
    }
    const DestEntry parent = s.entry[node];
    const std::uint32_t parent_as = g.router_as[node];
    const std::uint32_t end = g.offsets[node + 1];
    for (std::uint32_t e = g.offsets[node]; e < end; ++e) {
      const std::uint32_t next = g.heads[e];
      const sim::SimTime candidate = node_dist + g.weights[e];
      const sim::SimTime next_dist =
          s.epoch[next] == cur ? s.dist[next] : kUnreachableLatency;
      if (candidate < next_dist) {
        if (candidate + lm.lower_bound(next, dst) > limit) continue;
        s.dist[next] = candidate;
        s.epoch[next] = cur;
        fold_entry(s.entry[next], parent, g, e, next, parent_as, candidate);
        s.queue.push(candidate, next);
      }
    }
  }
  PathInfo info;
  info.latency_ms = kUnreachableLatency;
  return info;
}

}  // namespace uap2p::underlay
