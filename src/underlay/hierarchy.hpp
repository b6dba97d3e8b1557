// Hierarchical routing preprocessing (DESIGN.md "Hierarchical routing").
//
// Transit-stub topologies route every inter-domain path through a stub
// AS's single transit attachment point, so the all-pairs warm-up does not
// need n full-graph Dijkstras: contract pendant routers onto their unique
// neighbor, contract stub components onto their attachment, Dijkstra only
// over the contracted transit core, and re-expand the contracted parts by
// folding aggregates through the (unique, precomputed) entry edges. The
// contract is *byte identity*: RoutingTable::warm_all_hierarchical must
// produce exactly the rows the per-source Dijkstra (path()) would — same
// IEEE-754 additions in the same order, same canonical (distance, router
// id, CSR position) tie-breaks — which is what lets snapshots, the bench
// cache, and the oracle tier mix batch-warmed and lazily computed rows.
//
// The plan is conservative by construction: any router, component, or
// whole topology that fails a contraction precondition (several distinct
// attachments, edge weights small enough that float error could flip a
// tie, ambiguous entry edges) simply stays in the Dijkstra core. The
// degenerate plan — no pendants, no groups — makes
// warm_all_hierarchical one per-source Dijkstra per router, so the
// hierarchical path is always correct and merely fastest when the
// topology cooperates.
//
// AltLandmarks adds ALT (A*, landmarks, triangle inequality) lower
// bounds on top: a handful of deterministic farthest-point landmarks
// with full-graph distance rows, giving point-to-point queries
// (RoutingTable::point_path) a pruned early-exit Dijkstra that never
// warms a row yet returns byte-identical PathInfo.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "underlay/topology.hpp"

namespace uap2p::underlay {

/// One contracted subgraph, re-indexed with dense local ids. Local ids
/// ascend with global router ids, so the calendar queue's (distance,
/// local id) tie-break reproduces the flat run's (distance, global id)
/// order among region nodes — the invariant byte identity rests on.
struct RegionCsr {
  std::vector<std::uint32_t> node_global;  ///< local id -> global router id.
  std::vector<std::uint32_t> offsets;      ///< Local CSR offsets.
  std::vector<std::uint32_t> head_local;   ///< Edge head, local id.
  std::vector<std::uint32_t> head_global;  ///< Edge head, global id.
  std::vector<double> weights;             ///< Edge latency (global copy).
  std::vector<std::uint32_t> gedge;        ///< Global CSR edge index (payload).

  [[nodiscard]] std::size_t size() const { return node_global.size(); }
  [[nodiscard]] std::size_t edge_count() const { return head_local.size(); }
};

/// The preprocessing product: pendant contraction, stub-group regions with
/// star/mini expansion modes, and the inner transit core. Immutable after
/// build(); shared read-only by every warm_all_hierarchical worker.
class HierarchyPlan {
 public:
  /// A contracted stub component: `members` reach the rest of the graph
  /// only through `attachment`. `star` means every member has one entry
  /// edge whose win margin exceeds float error for *any* source offset,
  /// so expansion is one float add + aggregate fold per member (in
  /// distance-sorted order); otherwise expansion re-runs Dijkstra over
  /// `region` seeded at the attachment (mini mode — still region-local).
  struct Group {
    std::uint32_t attachment = 0;        ///< Global id of the transit core node.
    std::uint32_t attachment_local = 0;  ///< Its local id inside `region`.
    RegionCsr region;                    ///< Members + attachment.
    bool star = false;
    std::uint32_t first_star = 0;  ///< Index into star_edges.
    std::uint32_t star_count = 0;
  };

  /// One star-mode expansion step: member's distance is one rounded add
  /// from its (already expanded) parent. The edge payload (weight,
  /// bandwidth, link, aggregate increments) is baked in at plan time so
  /// the per-source fold streams this one record and touches no global
  /// CSR array — the expansion loop is pure sequential reads plus the row
  /// write. `weight` is a bit-exact copy of the CSR weight, so the
  /// rounded add matches the flat relaxation to the last ulp.
  struct StarEdge {
    std::uint32_t member = 0;      ///< Global id.
    std::uint32_t parent = 0;      ///< Global id; expanded before member.
    double weight = 0.0;           ///< CSR edge weight, bit-exact.
    double bandwidth = 0.0;        ///< CSR edge bandwidth.
    std::uint32_t link = 0;        ///< Global link index.
    std::uint8_t transit_inc = 0;  ///< 1 iff the edge is LinkType::kTransit.
    std::uint8_t peering_inc = 0;  ///< 1 iff the edge is LinkType::kPeering.
    std::uint8_t as_inc = 0;       ///< 1 iff member and parent AS differ.
    std::uint8_t pad = 0;
  };
  static_assert(sizeof(StarEdge) == 32, "one fold record per half line");

  /// Dense per-star-group expansion header: everything phase C needs for
  /// a star group, without striding the vector-heavy Group records.
  struct StarBlock {
    std::uint32_t group = 0;       ///< Index into groups().
    std::uint32_t attachment = 0;  ///< Global id.
    std::uint32_t first = 0;       ///< Index into star_edges.
    std::uint32_t count = 0;
  };

  /// A contracted pendant destination: row[v] folds from row[parent]
  /// through the candidate edges (parent's CSR order, first achiever of
  /// the minimum rounded sum wins — exactly the flat relaxation).
  struct PendantDest {
    std::uint32_t v = 0;
    std::uint32_t parent = 0;
    std::uint32_t first_cand = 0;  ///< Index into pendant_cands.
    std::uint32_t cand_count = 0;
  };

  /// One candidate edge for a pendant destination, payload baked at plan
  /// time like StarEdge (the candidates sit in the parent's CSR order).
  struct PendantCand {
    double weight = 0.0;           ///< CSR edge weight, bit-exact.
    double bandwidth = 0.0;
    std::uint32_t link = 0;
    std::uint8_t transit_inc = 0;
    std::uint8_t peering_inc = 0;
    std::uint8_t as_inc = 0;
    std::uint8_t pad = 0;
  };

  /// Builds the plan for `topology` (must outlive the plan). Always
  /// succeeds; see the conservative-demotion notes above.
  [[nodiscard]] static std::shared_ptr<const HierarchyPlan> build(
      const AsTopology& topology);

  [[nodiscard]] std::size_t router_count() const { return n_; }
  /// Absolute float-error bound for any computed path value; contraction
  /// preconditions require wins/weights to clear multiples of this.
  [[nodiscard]] double margin() const { return margin_; }
  /// True when the whole graph is one connected component — then every
  /// fold phase settles every destination and the per-source unreachable
  /// sweep can be skipped outright.
  [[nodiscard]] bool connected() const { return connected_; }

  /// UINT32_MAX for core routers, parent global id for pendants.
  [[nodiscard]] std::uint32_t pendant_parent(std::uint32_t v) const {
    return pendant_parent_[v];
  }
  /// For a pendant source: the global CSR edge index of the up edge the
  /// flat run would keep (minimum weight, first in CSR order).
  [[nodiscard]] std::uint32_t pendant_up_edge(std::uint32_t v) const {
    return pendant_up_edge_[v];
  }
  /// Group index for a core router, UINT32_MAX when it is inner core.
  [[nodiscard]] std::uint32_t group_of(std::uint32_t v) const {
    return group_of_[v];
  }

  [[nodiscard]] std::span<const Group> groups() const { return groups_; }
  [[nodiscard]] std::span<const StarEdge> star_edges() const {
    return star_edges_;
  }
  /// Star groups only, in groups() order.
  [[nodiscard]] std::span<const StarBlock> star_blocks() const {
    return star_blocks_;
  }
  /// Indices of non-star (mini-Dijkstra) groups, in groups() order.
  [[nodiscard]] std::span<const std::uint32_t> mini_groups() const {
    return mini_groups_;
  }
  [[nodiscard]] std::span<const PendantDest> pendant_dests() const {
    return pendant_dests_;
  }
  [[nodiscard]] std::span<const PendantCand> pendant_cands() const {
    return pendant_cands_;
  }
  /// Inner transit core (+ demoted routers): the subgraph phase B runs
  /// Dijkstra over. Contains every group attachment.
  [[nodiscard]] const RegionCsr& inner_core() const { return inner_core_; }

  /// Ascending global ids of all non-contracted (core) routers — the
  /// contraction order snapshots persist (snapshot section kCoreOrder).
  [[nodiscard]] std::span<const std::uint32_t> core_order() const {
    return core_order_;
  }

  [[nodiscard]] std::size_t pendant_count() const {
    return pendant_dests_.size();
  }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] std::size_t star_group_count() const {
    return star_group_count_;
  }
  /// True when the plan actually contracted something; false means
  /// warm_all_hierarchical degenerates to one per-source Dijkstra per
  /// router.
  [[nodiscard]] bool contracted() const {
    return !pendant_dests_.empty() || !groups_.empty();
  }

 private:
  HierarchyPlan() = default;

  std::size_t n_ = 0;
  double margin_ = 0.0;
  std::vector<std::uint32_t> pendant_parent_;
  std::vector<std::uint32_t> pendant_up_edge_;
  std::vector<std::uint32_t> group_of_;
  bool connected_ = false;
  std::vector<Group> groups_;
  std::vector<StarEdge> star_edges_;
  std::vector<StarBlock> star_blocks_;
  std::vector<std::uint32_t> mini_groups_;
  std::vector<PendantDest> pendant_dests_;
  std::vector<PendantCand> pendant_cands_;
  RegionCsr inner_core_;
  std::vector<std::uint32_t> core_order_;
  std::size_t star_group_count_ = 0;
};

/// ALT landmark tables: K deterministic farthest-point landmarks with
/// full-graph distance rows. lower_bound/upper_bound sandwich the true
/// distance; point_path uses them to prune its early-exit Dijkstra.
/// Immutable after build/adopt; snapshots persist the rows verbatim
/// (sections kLandmarkIds/kLandmarkDists) so a load skips the K
/// build-time Dijkstras.
class AltLandmarks {
 public:
  static constexpr std::uint32_t kDefaultCount = 8;

  /// Deterministic selection: landmark 0 is router 0; each next landmark
  /// is the reachable router maximizing the minimum distance to the
  /// already chosen set (ties to the smallest id). Distances are computed
  /// by the same canonical Dijkstra as the routing rows.
  [[nodiscard]] static std::shared_ptr<const AltLandmarks> build(
      const AsTopology& topology, std::uint32_t count = kDefaultCount);

  /// Re-wraps persisted tables (snapshot load): `dists` holds
  /// ids.size() rows of `routers` doubles, row-major, copied in.
  [[nodiscard]] static std::shared_ptr<const AltLandmarks> adopt(
      std::span<const std::uint32_t> ids, std::span<const double> dists,
      std::size_t routers);

  [[nodiscard]] std::uint32_t count() const {
    return static_cast<std::uint32_t>(ids_.size());
  }
  [[nodiscard]] std::size_t router_count() const { return n_; }
  [[nodiscard]] std::span<const std::uint32_t> ids() const { return ids_; }
  [[nodiscard]] std::span<const double> dists() const { return dists_; }
  [[nodiscard]] const double* row(std::uint32_t k) const {
    return dists_.data() + std::size_t(k) * n_;
  }

  /// max_k |d_k(a) - d_k(b)| — never exceeds the true distance (up to
  /// the float error the caller's margin absorbs).
  [[nodiscard]] double lower_bound(std::uint32_t a, std::uint32_t b) const;
  /// min_k (d_k(a) + d_k(b)) — a realizable two-leg path, so an upper
  /// bound; +inf when no landmark reaches both.
  [[nodiscard]] double upper_bound(std::uint32_t a, std::uint32_t b) const;

 private:
  AltLandmarks() = default;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> ids_;
  std::vector<double> dists_;  ///< ids_.size() rows of n_ doubles.
};

}  // namespace uap2p::underlay
