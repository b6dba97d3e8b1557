// Kademlia DHT with optional proximity neighbor selection.
//
// Implements the full Kademlia machinery — 64-bit XOR metric, k-buckets,
// iterative alpha-parallel FIND_NODE lookups with RPC timeouts, STORE /
// FIND_VALUE replication to the k closest nodes — plus the
// locality extension of Kaune et al. [17] ("Embracing the peer next
// door", paper §4): bucket maintenance prefers contacts that are close in
// the underlay (AS-hop distance via the oracle), which is routing-safe
// because any contact with the right prefix keeps lookups correct, and
// cuts the inter-AS traffic of lookups.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "netinfo/oracle.hpp"
#include "underlay/network.hpp"

namespace uap2p::overlay::kademlia {

/// 64-bit overlay identifier (enough key space for simulated populations).
using NodeId = std::uint64_t;
using Key = std::uint64_t;

/// XOR distance, the Kademlia metric.
[[nodiscard]] constexpr std::uint64_t xor_distance(NodeId a, NodeId b) {
  return a ^ b;
}
/// Index of the highest set bit of the distance = bucket index (0..63);
/// distance 0 is invalid (a node never buckets itself).
[[nodiscard]] int bucket_index(NodeId self, NodeId other);

enum class BucketPolicy {
  kVanilla,    ///< Classic Kademlia: full bucket rejects newcomers (LRS).
  kProximity,  ///< Kaune [17]: evict the underlay-farthest contact when a
               ///< closer-in-the-underlay candidate appears.
};

struct Config {
  std::size_t k = 8;          ///< Bucket size and replication factor.
  std::size_t alpha = 3;      ///< Lookup parallelism.
  BucketPolicy policy = BucketPolicy::kVanilla;
  sim::SimTime rpc_timeout_ms = sim::seconds(2);
  std::uint32_t find_node_bytes = 40;
  std::uint32_t contact_bytes = 20;  ///< Per contact in a reply.
  std::uint32_t store_bytes = 256;
  std::uint64_t seed = 77;
};

struct Contact {
  NodeId id = 0;
  PeerId peer = PeerId::invalid();
};

struct LookupResult {
  bool converged = false;
  std::vector<Contact> closest;       ///< k closest found, XOR-ascending.
  std::size_t messages_sent = 0;      ///< FIND_NODE RPCs issued.
  std::size_t hops = 0;               ///< Iterations until convergence.
  sim::SimTime duration_ms = 0.0;
  /// Mean AS-hop distance between the origin and the peers it queried —
  /// the lookup-traffic locality metric of Kaune [17] (0 when no oracle).
  double mean_rpc_as_hops = 0.0;
  std::optional<std::string> value;   ///< For find_value lookups.
};

class KademliaSystem {
 public:
  KademliaSystem(underlay::Network& network, std::vector<PeerId> peers,
                 Config config, const netinfo::Oracle* oracle = nullptr);

  /// Sequentially joins every node: seeds its routing table with an
  /// already-joined node and self-lookups to populate buckets. Drains the
  /// engine; returns when the overlay is formed.
  void join_all();

  /// Iterative node lookup from `origin` toward `target`.
  LookupResult lookup(PeerId origin, NodeId target);

  /// Stores `value` under `key` on the k closest nodes (lookup + STOREs).
  LookupResult store(PeerId origin, Key key, std::string value);

  /// Bucket maintenance: for each non-empty bucket of `peer`, looks up a
  /// random id inside that bucket's range (the standard Kademlia refresh;
  /// repopulates buckets after churn). Returns the number of lookups run.
  std::size_t refresh_buckets(PeerId peer);

  /// Value lookup; stops early when any queried node returns the value.
  LookupResult find_value(PeerId origin, Key key);

  [[nodiscard]] NodeId node_id(PeerId peer) const { return node(peer).id; }
  /// All contacts currently in `peer`'s buckets.
  [[nodiscard]] std::vector<Contact> routing_table(PeerId peer) const;
  /// Fraction of routing-table entries pointing into the owner's AS.
  [[nodiscard]] double intra_as_contact_fraction() const;
  [[nodiscard]] std::uint64_t total_rpcs() const { return rpcs_; }

  /// Observability ---------------------------------------------------------
  /// Binds "kad.*" counters in `registry` (nullptr detaches); counters
  /// count from bind time onward.
  void set_metrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) {
      rpc_metric_ = {};
      timeout_metric_ = {};
      return;
    }
    rpc_metric_ = registry->counter("kad.rpcs");
    timeout_metric_ = registry->counter("kad.rpc_timeouts");
  }
  /// Emits a kOverlay op::kLookup record per completed lookup.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  struct Bucket {
    std::vector<Contact> contacts;  // oldest first (vanilla LRS order)
  };
  struct Node {
    PeerId peer;
    NodeId id = 0;
    std::vector<Bucket> buckets;  // 64
    std::unordered_map<Key, std::string> storage;
  };

  struct FindNodePayload {
    std::uint64_t rpc_id;
    NodeId target;
    bool want_value = false;
    Key key = 0;
  };
  struct FindNodeReply {
    std::uint64_t rpc_id;
    NodeId responder_id;
    std::vector<Contact> contacts;
    std::optional<std::string> value;
  };
  struct StorePayload {
    Key key;
    std::string value;
  };

  struct ShortlistEntry {
    Contact contact;
    bool queried = false;
    bool responded = false;
    bool failed = false;
  };
  struct ActiveLookup {
    std::uint64_t lookup_id = 0;
    PeerId origin = PeerId::invalid();
    NodeId target = 0;
    bool want_value = false;
    Key key = 0;
    std::vector<ShortlistEntry> shortlist;  // XOR-ascending by contact.id
    std::size_t in_flight = 0;
    std::size_t messages = 0;
    std::size_t hops = 0;
    double rpc_as_hops_sum = 0.0;
    bool done = false;
    std::optional<std::string> value;
    sim::SimTime started = 0.0;
    std::unordered_map<std::uint64_t, sim::EventHandle> timeouts;  // rpc_id
  };

  Node& node(PeerId peer) { return nodes_[index_of_[peer]]; }
  const Node& node(PeerId peer) const { return nodes_[index_of_[peer]]; }
  void observe(Node& self, const Contact& contact);
  [[nodiscard]] std::vector<Contact> closest_contacts(const Node& self,
                                                      NodeId target,
                                                      std::size_t count) const;
  void on_message(PeerId self, const underlay::Message& msg);
  void insert_into_shortlist(ActiveLookup& lookup, const Contact& contact);
  void issue_queries(ActiveLookup& lookup);
  void finish_if_converged(ActiveLookup& lookup);
  LookupResult run_lookup(PeerId origin, NodeId target, bool want_value,
                          Key key);
  [[nodiscard]] double proximity_cost(PeerId a, PeerId b) const;

  underlay::Network& network_;
  Config config_;
  const netinfo::Oracle* oracle_;
  Rng rng_;
  std::vector<Node> nodes_;
  DenseIndex<PeerId> index_of_;  // PeerId -> nodes_ position
  std::uint64_t next_rpc_ = 1;
  std::uint64_t rpcs_ = 0;
  obs::Counter rpc_metric_;
  obs::Counter timeout_metric_;
  obs::TraceSink* trace_ = nullptr;
  std::optional<ActiveLookup> active_;
};

}  // namespace uap2p::overlay::kademlia
