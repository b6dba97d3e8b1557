// Gnutella-style unstructured overlay with optional oracle-biased neighbor
// selection — the system behind [1]'s Table 1 and Figure 5 (reprinted as
// the survey's Figure 5 and Table 1).
//
// Protocol model (Gnutella 0.6 ultrapeer/leaf):
//  * Ultrapeers keep a bounded number of ultrapeer neighbors and leaves;
//    leaves attach to a small number of ultrapeers.
//  * Ping floods among ultrapeers with a TTL; every node reached answers
//    with a Pong routed back hop-by-hop along the reverse path (each hop
//    is one counted Pong message, as in the real protocol). Pongs feed the
//    receiving node's hostcache.
//  * Query floods among ultrapeers with a TTL; ultrapeers forward a query
//    to exactly those of their leaves that share matching content (a
//    perfect-recall Query-Routing-Table abstraction). QueryHits route back
//    along the reverse path.
//  * File exchange happens outside the overlay via HTTP-like request/data
//    messages (the "localization of content exchange" stage of [1]).
//
// Neighbor selection: when joining, a node submits its hostcache to the
// ISP oracle and connects to the top-ranked candidates (biased), or picks
// uniformly at random (unbiased). Optionally the oracle is consulted a
// second time at the file-exchange stage over the QueryHit set — the
// variant that lifts intra-AS exchanges from ~7% to ~40% in [1].
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_map.hpp"
#include "common/ids.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "netinfo/oracle.hpp"
#include "netinfo/pinger.hpp"
#include "underlay/network.hpp"

namespace uap2p::overlay::gnutella {

enum class NodeRole { kUltrapeer, kLeaf };

enum class NeighborSelection {
  kRandom,        ///< Uniform choice from the hostcache (unbiased Gnutella).
  kOracleBiased,  ///< Hostcache ranked by the ISP oracle ([1]).
};

struct Config {
  std::size_t max_ultrapeer_degree = 6;   ///< UP-UP connections per UP.
  std::size_t max_leaves = 8;             ///< Leaves accepted per UP.
  std::size_t leaf_attachments = 2;       ///< UPs each leaf connects to.
  int ping_ttl = 2;
  int query_ttl = 4;
  std::size_t hostcache_size = 100;       ///< [1] evaluates 100 and 1000.
  /// Pong caching (Gnutella 0.6): a pinged node answers with its own Pong
  /// plus up to this many fresh cached Pongs, and suppresses forwarding
  /// the Ping when the cache alone satisfies it.
  std::size_t pongs_per_ping = 8;
  sim::SimTime pong_cache_ttl_ms = sim::seconds(120);
  std::size_t pong_cache_capacity = 64;
  /// Dynamic querying (expanding ring): search in TTL-escalating waves and
  /// stop as soon as `desired_results` providers answered. This is the
  /// mechanism through which locality reduces Query/QueryHit counts in
  /// [1]'s Table 1 — local hits terminate the search in the first wave.
  bool dynamic_querying = true;
  std::size_t desired_results = 3;
  NeighborSelection selection = NeighborSelection::kRandom;
  /// Under biased selection, each ultrapeer reserves this many connection
  /// slots for candidates from a different AS — the "minimal number of
  /// inter-AS connections necessary to keep the network connected" of the
  /// survey's Figure 6 discussion.
  std::size_t min_external_ultrapeer_links = 1;
  /// Consult the oracle again when picking the download source among the
  /// QueryHits (the second consultation stage of [1]).
  bool oracle_at_file_exchange = false;
  std::uint32_t ping_bytes = 23;       ///< Header-only descriptor.
  std::uint32_t pong_bytes = 37;       ///< Header + pong payload.
  std::uint32_t query_bytes = 64;
  std::uint32_t queryhit_bytes = 120;
  std::uint32_t http_request_bytes = 256;
  std::uint32_t file_bytes = 1 << 20;  ///< Content size for downloads.
  std::uint64_t seed = 99;
};

/// Per-type message counters ([1]'s Table 1 rows). Counted at send time,
/// per transmission (each routed hop of a Pong/QueryHit counts once).
struct MessageCounts {
  std::uint64_t ping = 0;
  std::uint64_t pong = 0;
  std::uint64_t query = 0;
  std::uint64_t query_hit = 0;

  MessageCounts& operator+=(const MessageCounts& other);
  [[nodiscard]] std::uint64_t total() const {
    return ping + pong + query + query_hit;
  }
};

/// Outcome of one search + optional download.
struct SearchOutcome {
  bool found = false;
  std::size_t result_count = 0;
  sim::SimTime time_to_first_hit_ms = -1.0;
  /// Filled when a download was performed.
  bool downloaded = false;
  bool download_intra_as = false;
  PeerId provider = PeerId::invalid();
  sim::SimTime download_time_ms = -1.0;
};

/// The whole overlay (all nodes share this object; per-node state lives in
/// internal structs). Single-threaded, driven by the shared sim Engine.
class GnutellaSystem {
 public:
  /// `roles[i]` assigns peers[i]'s role. The oracle may be null for
  /// kRandom selection.
  GnutellaSystem(underlay::Network& network, std::vector<PeerId> peers,
                 std::vector<NodeRole> roles, Config config,
                 const netinfo::Oracle* oracle = nullptr);

  /// Joins all nodes: fills hostcaches with random subsets of the
  /// population ([1]'s testlab setup) and connects neighbors according to
  /// the configured selection policy. Synchronous (graph construction);
  /// message exchange starts with ping_cycle()/search().
  void bootstrap();

  /// Declares that `peer` shares `content`.
  void share(PeerId peer, ContentId content);

  /// One keepalive round: every online ultrapeer floods one Ping. Runs the
  /// engine until the flood quiesces.
  void ping_cycle();

  /// Floods a query from `origin`; runs the engine until the flood
  /// quiesces; optionally downloads from one QueryHit provider.
  SearchOutcome search(PeerId origin, ContentId content,
                       bool download = true);

  /// Location-aware topology matching (LTM, Liu et al. [21]; paper
  /// Table 1): each ultrapeer measures its UP links, cuts its slowest one
  /// when it exceeds `cut_factor` x its best link's RTT, and reconnects
  /// to the lowest-RTT known candidate with spare capacity. One call is
  /// one optimization round; returns the number of links rewired.
  /// Measurement cost is paid through the supplied pinger.
  std::size_t ltm_round(netinfo::Pinger& pinger, double cut_factor = 3.0);

  /// Mean RTT over all overlay edges (the metric LTM optimizes).
  [[nodiscard]] double mean_edge_rtt_ms() const;

  /// Churn repair: drops overlay links to offline peers and refills from
  /// hostcaches (ultrapeers re-mesh, leaves re-attach) using the
  /// configured selection policy. Returns the number of links re-created.
  std::size_t repair_overlay();

  /// Topology metrics (Fig. 5/6) -------------------------------------
  /// Fraction of overlay edges whose endpoints share an AS.
  [[nodiscard]] double intra_as_edge_fraction() const;
  [[nodiscard]] std::size_t edge_count() const;
  [[nodiscard]] std::size_t inter_as_edge_count() const;
  /// Minimum number of inter-AS edges that keep the AS-quotient graph of
  /// the overlay connected (spanning-tree bound, Fig. 6 discussion).
  [[nodiscard]] std::size_t min_inter_as_edges_for_connectivity() const;

  /// Table 1 per-type counts, re-derived from the "gnutella.messages.*"
  /// registry counters (same values the --metrics snapshot exports).
  [[nodiscard]] const MessageCounts& counts() const {
    counts_.ping = ping_count_.value();
    counts_.pong = pong_count_.value();
    counts_.query = query_count_.value();
    counts_.query_hit = query_hit_count_.value();
    return counts_;
  }
  [[nodiscard]] const underlay::Network& network() const { return network_; }
  [[nodiscard]] std::vector<PeerId> neighbors_of(PeerId peer) const;
  [[nodiscard]] NodeRole role_of(PeerId peer) const;
  /// `peer`'s hostcache in insertion order (slots replaced in place on
  /// eviction). Valid until the next message delivery or bootstrap().
  [[nodiscard]] std::span<const PeerId> hostcache_of(PeerId peer) const {
    return node(peer).hostcache;
  }
  /// All peers currently sharing `content`.
  [[nodiscard]] std::vector<PeerId> providers_of(ContentId content) const;

  /// Observability ---------------------------------------------------------
  /// Re-homes the "gnutella.messages.*" counters into `registry` (the
  /// system always counts into an internal registry otherwise). Current
  /// values carry over, so counts() is exact across a rebind.
  void bind_metrics(obs::MetricsRegistry& registry);
  /// Emits kOverlay records (search start/done, ping cycles, LTM rewires,
  /// churn repair); nullptr disables.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  struct Node {
    PeerId peer;
    NodeRole role = NodeRole::kLeaf;
    std::vector<PeerId> up_neighbors;   // UP-UP links (UPs only)
    std::vector<PeerId> leaves;         // attached leaves (UPs only)
    std::vector<PeerId> ultrapeers;     // attachments (leaves only)
    std::vector<PeerId> hostcache;
    // Hostcache membership, one bit per PeerId value (N/8 bytes per node):
    // the Pong path's duplicate check is one load, not a hostcache scan.
    // Every write to `hostcache` sets or clears the matching bits with it.
    std::vector<std::uint64_t> hostcache_bits;
    // Merged flood dedup + reverse-path state: guid -> previous hop, with
    // PeerId::invalid() marking "this node originated the flood". One flat
    // probe answers both "seen before?" and "route back where?"; reset per
    // flood cycle by an O(1) epoch bump (capacity retained), so a
    // steady-state flood never touches the allocator.
    FlatMap<std::uint64_t, PeerId> flood_state;
    FlatSet<std::uint32_t> shared;  // ContentId values
    // Pong cache as parallel arrays, oldest first: pong_seen[i] is the
    // last-seen sim time of address pong_ids[i]. The membership scan on
    // every Pong reads only the 4-byte ids.
    std::vector<PeerId> pong_ids;
    std::vector<sim::SimTime> pong_seen;
    // Hostcache eviction draws. Per-node (not the shared rng_), so the
    // eviction stream is a function of the node's own pong sequence only;
    // the Table 1 counts are pinned to these streams.
    Rng cache_rng;

    [[nodiscard]] bool in_hostcache(PeerId p) const {
      return (hostcache_bits[p.value() >> 6] >> (p.value() & 63)) & 1u;
    }
    void set_in_hostcache(PeerId p, bool member) {
      const std::uint64_t bit = std::uint64_t{1} << (p.value() & 63);
      std::uint64_t& word = hostcache_bits[p.value() >> 6];
      word = member ? (word | bit) : (word & ~bit);
    }
  };

  struct PingPayload {
    std::uint64_t guid;
    int ttl;
  };
  struct PongPayload {
    std::uint64_t guid;
    PeerId about;
  };
  struct QueryPayload {
    std::uint64_t guid;
    int ttl;
    std::uint32_t content;
  };
  struct QueryHitPayload {
    std::uint64_t guid;
    PeerId provider;
    std::uint32_t content;
  };
  struct HttpRequestPayload {
    std::uint32_t content;
  };
  // The flooded descriptors must ride inline in the message: a spilled
  // payload would cost one allocation per forwarded copy.
  static_assert(sizeof(PingPayload) <= Payload::kInlineCapacity);
  static_assert(sizeof(PongPayload) <= Payload::kInlineCapacity);
  static_assert(sizeof(QueryPayload) <= Payload::kInlineCapacity);
  static_assert(sizeof(QueryHitPayload) <= Payload::kInlineCapacity);

  Node& node(PeerId peer) { return nodes_[index_of_[peer]]; }
  const Node& node(PeerId peer) const { return nodes_[index_of_[peer]]; }

  void connect_ultrapeer(Node& joining);
  void attach_leaf(Node& joining);
  [[nodiscard]] std::vector<PeerId> selection_order(const Node& joining,
                                                    bool ups_only);
  void add_to_hostcache(Node& node, PeerId peer);
  void cache_pong(Node& node, PeerId about);

  void on_message(PeerId self, const underlay::Message& msg);
  void handle_ping(PeerId self, PeerId from, const PingPayload& ping);
  void handle_pong(PeerId self, const PongPayload& pong);
  void handle_query(PeerId self, PeerId from, const QueryPayload& query);
  void handle_query_hit(PeerId self, const QueryHitPayload& hit);

  void send_typed(PeerId from, PeerId to, int type, std::uint32_t bytes,
                  Payload payload);
  /// Epoch-resets every node's flood_state before a new flood cycle. Safe
  /// because the engine quiesces between floods and guids never repeat.
  void begin_flood_cycle();

  underlay::Network& network_;
  Config config_;
  const netinfo::Oracle* oracle_;
  Rng rng_;
  std::vector<Node> nodes_;
  DenseIndex<PeerId> index_of_;  // PeerId -> nodes_ position
  // Per-type counters live in a metrics registry (the internal one until
  // bind_metrics re-homes them); counts_ is the cache counts() refreshes
  // from the counters so the legacy API keeps returning a reference.
  obs::MetricsRegistry own_metrics_;
  obs::Counter ping_count_;
  obs::Counter pong_count_;
  obs::Counter query_count_;
  obs::Counter query_hit_count_;
  mutable MessageCounts counts_;
  obs::TraceSink* trace_ = nullptr;
  std::uint64_t next_guid_ = 1;

  // Search in flight (one at a time; searches are issued sequentially and
  // the engine is drained between them). A plain member rather than an
  // optional so the guid/provider vectors keep their capacity from search
  // to search — steady-state searches allocate nothing.
  struct ActiveSearch {
    std::vector<std::uint64_t> guids;  // one per expanding-ring wave
    PeerId origin = PeerId::invalid();
    sim::SimTime started = 0.0;
    sim::SimTime first_hit = -1.0;
    sim::SimTime download_done_at = -1.0;
    std::vector<PeerId> providers;

    [[nodiscard]] bool owns(std::uint64_t guid) const {
      return std::find(guids.begin(), guids.end(), guid) != guids.end();
    }
  };
  ActiveSearch active_search_;
  bool search_active_ = false;
};

/// Builds the role vector of [1]'s testlab: one ultrapeer for every
/// `leaves_per_up` leaves. When `as_count` is given, peers are assumed
/// AS-round-robin ordered (as Network::populate produces) and the pattern
/// is applied per AS — this guarantees every AS gets its share of
/// ultrapeers even when as_count and the group size are not coprime.
std::vector<NodeRole> testlab_roles(std::size_t peer_count,
                                    std::size_t leaves_per_up = 2,
                                    std::size_t as_count = 0);

}  // namespace uap2p::overlay::gnutella
