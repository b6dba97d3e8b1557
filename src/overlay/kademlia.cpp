#include "overlay/kademlia.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "netinfo/msg_types.hpp"

namespace uap2p::overlay::kademlia {

int bucket_index(NodeId self, NodeId other) {
  const std::uint64_t distance = xor_distance(self, other);
  assert(distance != 0);
  return 63 - std::countl_zero(distance);
}

KademliaSystem::KademliaSystem(underlay::Network& network,
                               std::vector<PeerId> peers, Config config,
                               const netinfo::Oracle* oracle)
    : network_(network),
      config_(config),
      oracle_(oracle),
      rng_(config.seed),
      index_of_(peers) {
  assert(config_.policy == BucketPolicy::kVanilla || oracle_ != nullptr);
  nodes_.reserve(peers.size());
  for (const PeerId peer : peers) {
    Node node;
    node.peer = peer;
    // Unique random 64-bit id.
    do {
      node.id = rng_();
    } while (node.id == 0 ||
             std::any_of(nodes_.begin(), nodes_.end(),
                         [&](const Node& n) { return n.id == node.id; }));
    node.buckets.resize(64);
    nodes_.push_back(std::move(node));
    network_.add_handler(peer, [this, peer](const underlay::Message& msg) {
      on_message(peer, msg);
    });
  }
}

double KademliaSystem::proximity_cost(PeerId a, PeerId b) const {
  // AS-hop distance from the oracle; ties broken upstream by insertion
  // order. Lower = closer in the underlay.
  return oracle_ ? static_cast<double>(oracle_->as_hops(a, b)) : 0.0;
}

void KademliaSystem::observe(Node& self, const Contact& contact) {
  if (contact.id == self.id || !contact.peer.is_valid()) return;
  Bucket& bucket = self.buckets[bucket_index(self.id, contact.id)];
  auto existing = std::find_if(
      bucket.contacts.begin(), bucket.contacts.end(),
      [&](const Contact& c) { return c.id == contact.id; });
  if (existing != bucket.contacts.end()) {
    // Move to tail (most recently seen).
    std::rotate(existing, existing + 1, bucket.contacts.end());
    return;
  }
  if (bucket.contacts.size() < config_.k) {
    bucket.contacts.push_back(contact);
    return;
  }
  if (config_.policy == BucketPolicy::kProximity) {
    // Kaune [17]: replace the underlay-farthest contact if the newcomer is
    // strictly closer in the underlay.
    auto farthest = std::max_element(
        bucket.contacts.begin(), bucket.contacts.end(),
        [&](const Contact& x, const Contact& y) {
          return proximity_cost(self.peer, x.peer) <
                 proximity_cost(self.peer, y.peer);
        });
    if (proximity_cost(self.peer, contact.peer) <
        proximity_cost(self.peer, farthest->peer)) {
      *farthest = contact;
    }
  }
  // Vanilla: full bucket keeps its long-lived entries (the least-recently
  // seen ping check degenerates to "keep old" when nodes rarely die).
}

std::vector<Contact> KademliaSystem::closest_contacts(
    const Node& self, NodeId target, std::size_t count) const {
  std::vector<Contact> all;
  for (const Bucket& bucket : self.buckets) {
    all.insert(all.end(), bucket.contacts.begin(), bucket.contacts.end());
  }
  std::sort(all.begin(), all.end(), [target](const Contact& a,
                                             const Contact& b) {
    return xor_distance(a.id, target) < xor_distance(b.id, target);
  });
  if (all.size() > count) all.resize(count);
  return all;
}

void KademliaSystem::on_message(PeerId self_peer,
                                const underlay::Message& msg) {
  Node& self = node(self_peer);
  switch (msg.type) {
    case msg::kKademliaFindNode: {
      const auto* payload = payload_cast<FindNodePayload>(&msg.payload);
      if (payload == nullptr) return;
      const NodeId sender_id = node(msg.src).id;
      observe(self, Contact{sender_id, msg.src});
      FindNodeReply reply;
      reply.rpc_id = payload->rpc_id;
      reply.responder_id = self.id;
      if (payload->want_value) {
        auto it = self.storage.find(payload->key);
        if (it != self.storage.end()) reply.value = it->second;
      }
      if (!reply.value) {
        reply.contacts = closest_contacts(self, payload->target, config_.k);
        // Never hand back the asker itself.
        std::erase_if(reply.contacts, [&](const Contact& c) {
          return c.peer == msg.src;
        });
      }
      underlay::Message out;
      out.src = self_peer;
      out.dst = msg.src;
      out.type = msg::kKademliaFindNodeReply;
      out.size_bytes =
          config_.find_node_bytes +
          static_cast<std::uint32_t>(reply.contacts.size()) *
              config_.contact_bytes;
      out.payload = std::move(reply);
      network_.send(std::move(out));
      break;
    }
    case msg::kKademliaFindNodeReply: {
      const auto* reply = payload_cast<FindNodeReply>(&msg.payload);
      if (reply == nullptr || !active_ || self_peer != active_->origin) return;
      auto timeout = active_->timeouts.find(reply->rpc_id);
      if (timeout == active_->timeouts.end()) return;  // stale / timed out
      timeout->second.cancel();
      active_->timeouts.erase(timeout);
      assert(active_->in_flight > 0);
      --active_->in_flight;

      observe(node(self_peer), Contact{reply->responder_id, msg.src});
      for (auto& entry : active_->shortlist) {
        if (entry.contact.peer == msg.src) entry.responded = true;
      }
      if (reply->value) {
        active_->value = reply->value;
        active_->done = true;
        return;
      }
      for (const Contact& contact : reply->contacts) {
        observe(node(self_peer), contact);
        insert_into_shortlist(*active_, contact);
      }
      ++active_->hops;
      issue_queries(*active_);
      finish_if_converged(*active_);
      break;
    }
    case msg::kKademliaStore: {
      const auto* payload = payload_cast<StorePayload>(&msg.payload);
      if (payload == nullptr) return;
      observe(self, Contact{node(msg.src).id, msg.src});
      self.storage[payload->key] = payload->value;
      break;
    }
    default:
      break;
  }
}

void KademliaSystem::insert_into_shortlist(ActiveLookup& lookup,
                                           const Contact& contact) {
  if (!contact.peer.is_valid() || contact.peer == lookup.origin) return;
  for (const auto& entry : lookup.shortlist) {
    if (entry.contact.id == contact.id) return;
  }
  auto position = std::lower_bound(
      lookup.shortlist.begin(), lookup.shortlist.end(), contact,
      [&](const ShortlistEntry& entry, const Contact& c) {
        return xor_distance(entry.contact.id, lookup.target) <
               xor_distance(c.id, lookup.target);
      });
  lookup.shortlist.insert(position, ShortlistEntry{contact});
}

void KademliaSystem::issue_queries(ActiveLookup& lookup) {
  if (lookup.done) return;
  // Candidate window: the k closest live entries. Vanilla Kademlia
  // queries them in XOR order; the proximity variant ([17]) orders the
  // *unqueried* window entries by underlay distance — every one of them
  // is eventually queried, so convergence is unaffected, but the early
  // RPCs (which dominate when results arrive fast) go to nearby peers.
  std::vector<ShortlistEntry*> window;
  for (auto& entry : lookup.shortlist) {
    if (window.size() >= config_.k) break;
    if (!entry.failed) window.push_back(&entry);
  }
  if (config_.policy == BucketPolicy::kProximity) {
    std::stable_sort(window.begin(), window.end(),
                     [&](const ShortlistEntry* a, const ShortlistEntry* b) {
                       return proximity_cost(lookup.origin, a->contact.peer) <
                              proximity_cost(lookup.origin, b->contact.peer);
                     });
  }
  for (ShortlistEntry* slot : window) {
    ShortlistEntry& entry = *slot;
    if (lookup.in_flight >= config_.alpha) break;
    if (entry.queried || entry.failed) continue;
    entry.queried = true;
    ++lookup.in_flight;
    ++lookup.messages;
    ++rpcs_;
    rpc_metric_.inc();
    if (oracle_ != nullptr) {
      lookup.rpc_as_hops_sum += proximity_cost(lookup.origin, entry.contact.peer);
    }

    const std::uint64_t rpc_id = next_rpc_++;
    FindNodePayload payload{rpc_id, lookup.target, lookup.want_value,
                            lookup.key};
    underlay::Message out;
    out.src = lookup.origin;
    out.dst = entry.contact.peer;
    out.type = msg::kKademliaFindNode;
    out.size_bytes = config_.find_node_bytes;
    out.payload = payload;
    network_.send(std::move(out));

    const PeerId queried_peer = entry.contact.peer;
    lookup.timeouts[rpc_id] = network_.engine().schedule(
        config_.rpc_timeout_ms, [this, rpc_id, queried_peer] {
          if (!active_ || !active_->timeouts.contains(rpc_id)) return;
          active_->timeouts.erase(rpc_id);
          --active_->in_flight;
          timeout_metric_.inc();
          for (auto& e : active_->shortlist) {
            if (e.contact.peer == queried_peer) e.failed = true;
          }
          issue_queries(*active_);
          finish_if_converged(*active_);
        });
  }
}

void KademliaSystem::finish_if_converged(ActiveLookup& lookup) {
  if (lookup.done) return;
  if (lookup.in_flight > 0) return;
  // Converged when every live entry among the k closest has been queried.
  std::size_t considered = 0;
  for (const auto& entry : lookup.shortlist) {
    if (entry.failed) continue;
    if (++considered > config_.k) break;
    if (!entry.queried) {
      issue_queries(lookup);
      return;
    }
  }
  lookup.done = true;
}

LookupResult KademliaSystem::run_lookup(PeerId origin, NodeId target,
                                        bool want_value, Key key) {
  assert(!active_ && "one lookup at a time");
  sim::OriginScope trace_origin(network_.engine(), obs::origin::kLookup);
  ActiveLookup lookup;
  lookup.origin = origin;
  lookup.target = target;
  lookup.want_value = want_value;
  lookup.key = key;
  lookup.started = network_.engine().now();
  for (const Contact& contact :
       closest_contacts(node(origin), target, config_.k)) {
    insert_into_shortlist(lookup, contact);
  }
  active_ = std::move(lookup);
  issue_queries(*active_);
  finish_if_converged(*active_);

  // Drain until the lookup settles; the timeout chain guarantees progress.
  while (!active_->done) {
    if (network_.engine().run(512) == 0) break;  // queue drained
  }

  LookupResult result;
  result.converged = active_->done;
  result.messages_sent = active_->messages;
  result.hops = active_->hops;
  result.duration_ms = network_.engine().now() - active_->started;
  result.mean_rpc_as_hops =
      active_->messages > 0
          ? active_->rpc_as_hops_sum / double(active_->messages)
          : 0.0;
  result.value = active_->value;
  for (const auto& entry : active_->shortlist) {
    if (entry.failed || !entry.responded) continue;
    result.closest.push_back(entry.contact);
    if (result.closest.size() >= config_.k) break;
  }
  for (auto& [rpc, handle] : active_->timeouts) handle.cancel();
  active_.reset();
  if (trace_ != nullptr) {
    trace_->record({network_.engine().now(), obs::TraceKind::kOverlay,
                    static_cast<std::int32_t>(origin.value()), -1,
                    obs::op::kLookup,
                    static_cast<double>(result.messages_sent)});
  }
  return result;
}

void KademliaSystem::join_all() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) {
      // Seed with a random already-joined node.
      const std::size_t seed_index = rng_.uniform(i);
      observe(nodes_[i],
              Contact{nodes_[seed_index].id, nodes_[seed_index].peer});
      // Self-lookup populates buckets along the path (standard join).
      lookup(nodes_[i].peer, nodes_[i].id);
    }
  }
}

LookupResult KademliaSystem::lookup(PeerId origin, NodeId target) {
  return run_lookup(origin, target, /*want_value=*/false, /*key=*/0);
}

std::size_t KademliaSystem::refresh_buckets(PeerId peer) {
  const Node& self = node(peer);
  std::size_t refreshed = 0;
  for (int bucket = 0; bucket < 64; ++bucket) {
    if (self.buckets[std::size_t(bucket)].contacts.empty()) continue;
    // A random id whose XOR distance from self has its top bit at
    // `bucket`: flip that bit and randomize everything below it.
    const std::uint64_t top = 1ull << bucket;
    const std::uint64_t low_mask = top - 1;
    const NodeId target = (self.id ^ top) ^ (rng_() & low_mask);
    lookup(peer, target);
    ++refreshed;
  }
  return refreshed;
}

LookupResult KademliaSystem::store(PeerId origin, Key key, std::string value) {
  LookupResult result = run_lookup(origin, key, /*want_value=*/false, key);
  for (const Contact& contact : result.closest) {
    underlay::Message out;
    out.src = origin;
    out.dst = contact.peer;
    out.type = msg::kKademliaStore;
    out.size_bytes = config_.store_bytes;
    out.payload = StorePayload{key, value};
    network_.send(std::move(out));
  }
  // Also store locally if the origin is among the k closest.
  const std::uint64_t own_distance = xor_distance(node_id(origin), key);
  if (result.closest.size() < config_.k ||
      own_distance < xor_distance(result.closest.back().id, key)) {
    node(origin).storage[key] = value;
  }
  network_.run_until(network_.engine().now() + sim::seconds(5));
  return result;
}

LookupResult KademliaSystem::find_value(PeerId origin, Key key) {
  // Check local storage first.
  auto& self = node(origin);
  auto it = self.storage.find(key);
  if (it != self.storage.end()) {
    LookupResult result;
    result.converged = true;
    result.value = it->second;
    return result;
  }
  return run_lookup(origin, key, /*want_value=*/true, key);
}

std::vector<Contact> KademliaSystem::routing_table(PeerId peer) const {
  const Node& self = node(peer);
  std::vector<Contact> all;
  for (const Bucket& bucket : self.buckets)
    all.insert(all.end(), bucket.contacts.begin(), bucket.contacts.end());
  return all;
}

double KademliaSystem::intra_as_contact_fraction() const {
  std::size_t total = 0;
  std::size_t intra = 0;
  for (const Node& self : nodes_) {
    const AsId my_as = network_.host(self.peer).as;
    for (const Bucket& bucket : self.buckets) {
      for (const Contact& contact : bucket.contacts) {
        ++total;
        if (network_.host(contact.peer).as == my_as) ++intra;
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(intra) /
                                static_cast<double>(total);
}

}  // namespace uap2p::overlay::kademlia
