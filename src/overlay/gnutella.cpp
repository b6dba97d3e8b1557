#include "overlay/gnutella.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "netinfo/msg_types.hpp"

namespace uap2p::overlay::gnutella {
namespace {
/// How long to let a flood settle before reading results. Generous: the
/// deepest TTL-4 flood over continental latencies finishes well within it.
constexpr sim::SimTime kQuiesceHorizonMs = sim::seconds(30);
}  // namespace

MessageCounts& MessageCounts::operator+=(const MessageCounts& other) {
  ping += other.ping;
  pong += other.pong;
  query += other.query;
  query_hit += other.query_hit;
  return *this;
}

std::vector<NodeRole> testlab_roles(std::size_t peer_count,
                                    std::size_t leaves_per_up,
                                    std::size_t as_count) {
  std::vector<NodeRole> roles(peer_count, NodeRole::kLeaf);
  const std::size_t group = leaves_per_up + 1;
  if (as_count == 0) {
    for (std::size_t i = 0; i < peer_count; i += group)
      roles[i] = NodeRole::kUltrapeer;
  } else {
    // AS-round-robin layout: peer i sits in AS i % as_count at position
    // i / as_count; promote every `group`-th position within each AS.
    for (std::size_t i = 0; i < peer_count; ++i) {
      if ((i / as_count) % group == 0) roles[i] = NodeRole::kUltrapeer;
    }
  }
  return roles;
}

GnutellaSystem::GnutellaSystem(underlay::Network& network,
                               std::vector<PeerId> peers,
                               std::vector<NodeRole> roles, Config config,
                               const netinfo::Oracle* oracle)
    : network_(network),
      config_(config),
      oracle_(oracle),
      rng_(config.seed),
      index_of_(peers) {
  assert(peers.size() == roles.size());
  assert(config_.selection == NeighborSelection::kRandom || oracle_ != nullptr);
  bind_metrics(own_metrics_);
  const std::size_t bit_words = (index_of_.id_bound() + 63) / 64;
  nodes_.reserve(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    Node node;
    node.peer = peers[i];
    node.role = roles[i];
    node.cache_rng = Rng(config_.seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    node.hostcache_bits.assign(bit_words, 0);
    nodes_.push_back(std::move(node));
    network_.add_handler(peers[i], [this, peer = peers[i]](
                                       const underlay::Message& msg) {
      on_message(peer, msg);
    });
  }
}

void GnutellaSystem::add_to_hostcache(Node& node, PeerId peer) {
  if (peer == node.peer || node.in_hostcache(peer)) return;
  if (node.hostcache.size() < config_.hostcache_size) {
    node.hostcache.push_back(peer);
    node.set_in_hostcache(peer, true);
  } else if (!node.hostcache.empty()) {
    PeerId& victim =
        node.hostcache[node.cache_rng.uniform(node.hostcache.size())];
    node.set_in_hostcache(victim, false);
    victim = peer;
    node.set_in_hostcache(peer, true);
  }
}

std::vector<PeerId> GnutellaSystem::selection_order(const Node& joining,
                                                    bool ups_only) {
  std::vector<PeerId> candidates;
  candidates.reserve(joining.hostcache.size());
  for (const PeerId candidate : joining.hostcache) {
    if (ups_only && node(candidate).role != NodeRole::kUltrapeer) continue;
    if (!network_.is_online(candidate)) continue;
    candidates.push_back(candidate);
  }
  if (config_.selection == NeighborSelection::kOracleBiased) {
    return oracle_->rank(joining.peer, candidates);
  }
  // Unbiased: uniformly random order.
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng_.uniform(i)]);
  }
  return candidates;
}

void GnutellaSystem::connect_ultrapeer(Node& joining) {
  const auto order = selection_order(joining, /*ups_only=*/true);
  auto try_connect = [&](PeerId candidate) {
    Node& other = node(candidate);
    if (other.up_neighbors.size() >= config_.max_ultrapeer_degree) return false;
    if (std::find(joining.up_neighbors.begin(), joining.up_neighbors.end(),
                  candidate) != joining.up_neighbors.end()) {
      return false;
    }
    joining.up_neighbors.push_back(candidate);
    other.up_neighbors.push_back(joining.peer);
    return true;
  };
  // Under biased selection, hold back slots for external (other-AS)
  // candidates so the clustered overlay stays connected (Fig. 6).
  const std::size_t reserved =
      config_.selection == NeighborSelection::kOracleBiased
          ? std::min(config_.min_external_ultrapeer_links,
                     config_.max_ultrapeer_degree)
          : 0;
  for (const PeerId candidate : order) {
    if (joining.up_neighbors.size() + reserved >=
        config_.max_ultrapeer_degree) {
      break;
    }
    try_connect(candidate);
  }
  if (reserved > 0) {
    const AsId my_as = network_.host(joining.peer).as;
    std::size_t externals = 0;
    for (const PeerId neighbor : joining.up_neighbors) {
      if (network_.host(neighbor).as != my_as) ++externals;
    }
    // The oracle ranks by AS hops, so walking the order finds the
    // *nearest* external ASes first — minimal links, minimal distance.
    for (const PeerId candidate : order) {
      if (externals >= reserved ||
          joining.up_neighbors.size() >= config_.max_ultrapeer_degree) {
        break;
      }
      if (network_.host(candidate).as == my_as) continue;
      if (try_connect(candidate)) ++externals;
    }
    // Any still-unused slots go to the best-ranked remaining candidates.
    for (const PeerId candidate : order) {
      if (joining.up_neighbors.size() >= config_.max_ultrapeer_degree) break;
      try_connect(candidate);
    }
  }
}

void GnutellaSystem::attach_leaf(Node& joining) {
  for (const PeerId candidate : selection_order(joining, /*ups_only=*/true)) {
    if (joining.ultrapeers.size() >= config_.leaf_attachments) break;
    Node& up = node(candidate);
    if (up.leaves.size() >= config_.max_leaves) continue;
    if (std::find(joining.ultrapeers.begin(), joining.ultrapeers.end(),
                  candidate) != joining.ultrapeers.end()) {
      continue;
    }
    joining.ultrapeers.push_back(candidate);
    up.leaves.push_back(joining.peer);
  }
}

void GnutellaSystem::bootstrap() {
  // [1]'s testlab: "The Hostcache of each node is filled with a random
  // subset of the network nodes' IP addresses."
  const std::size_t cache =
      std::min(config_.hostcache_size, nodes_.size() - 1);
  for (Node& node : nodes_) {
    const auto sample =
        rng_.sample_without_replacement(nodes_.size(), cache + 1);
    node.hostcache.clear();
    std::fill(node.hostcache_bits.begin(), node.hostcache_bits.end(), 0);
    for (const std::size_t index : sample) {
      if (nodes_[index].peer == node.peer) continue;
      if (node.hostcache.size() >= cache) break;
      node.hostcache.push_back(nodes_[index].peer);
      node.set_in_hostcache(nodes_[index].peer, true);
    }
  }
  // Ultrapeers mesh first (random join order), then leaves attach.
  auto order = rng_.sample_without_replacement(nodes_.size(), nodes_.size());
  for (const std::size_t index : order) {
    if (nodes_[index].role == NodeRole::kUltrapeer)
      connect_ultrapeer(nodes_[index]);
  }
  for (const std::size_t index : order) {
    if (nodes_[index].role == NodeRole::kLeaf) attach_leaf(nodes_[index]);
  }
}

void GnutellaSystem::share(PeerId peer, ContentId content) {
  node(peer).shared.insert(content.value());
}

void GnutellaSystem::begin_flood_cycle() {
  // Guids are monotonic and the engine quiesces between flood cycles, so
  // no in-flight message can reference a guid from a previous cycle;
  // epoch-bumping every node's table is a safe O(nodes) reset that keeps
  // all slot capacity for the next flood.
  for (Node& me : nodes_) me.flood_state.clear();
}

void GnutellaSystem::bind_metrics(obs::MetricsRegistry& registry) {
  // Move the current values into the target registry, so counts() stays
  // exact across a rebind (e.g. GnutellaLab attaching its per-trial
  // registry after construction). Zeroing the old slots first makes the
  // migration correct even when the target is the registry already bound.
  const MessageCounts current = counts();
  ping_count_.set(0);
  pong_count_.set(0);
  query_count_.set(0);
  query_hit_count_.set(0);
  ping_count_ = registry.counter("gnutella.messages.ping");
  pong_count_ = registry.counter("gnutella.messages.pong");
  query_count_ = registry.counter("gnutella.messages.query");
  query_hit_count_ = registry.counter("gnutella.messages.query_hit");
  ping_count_.inc(current.ping);
  pong_count_.inc(current.pong);
  query_count_.inc(current.query);
  query_hit_count_.inc(current.query_hit);
}

void GnutellaSystem::send_typed(PeerId from, PeerId to, int type,
                                std::uint32_t bytes, Payload payload) {
  switch (type) {
    case msg::kGnutellaPing: ping_count_.inc(); break;
    case msg::kGnutellaPong: pong_count_.inc(); break;
    case msg::kGnutellaQuery: query_count_.inc(); break;
    case msg::kGnutellaQueryHit: query_hit_count_.inc(); break;
    default: break;
  }
  underlay::Message msg;
  msg.src = from;
  msg.dst = to;
  msg.type = type;
  msg.size_bytes = bytes;
  msg.payload = std::move(payload);
  network_.send(std::move(msg));
}

void GnutellaSystem::on_message(PeerId self, const underlay::Message& msg) {
  switch (msg.type) {
    case msg::kGnutellaPing:
      handle_ping(self, msg.src, *payload_cast<PingPayload>(&msg.payload));
      break;
    case msg::kGnutellaPong:
      handle_pong(self, *payload_cast<PongPayload>(&msg.payload));
      break;
    case msg::kGnutellaQuery:
      handle_query(self, msg.src, *payload_cast<QueryPayload>(&msg.payload));
      break;
    case msg::kGnutellaQueryHit:
      handle_query_hit(self,
                       *payload_cast<QueryHitPayload>(&msg.payload));
      break;
    case msg::kGnutellaHttpData: {
      if (search_active_ && active_search_.origin == self) {
        active_search_.download_done_at = network_.engine().now();
      }
      break;
    }
    case msg::kGnutellaHttpRequest: {
      // Serve the file: one data message of the full content size.
      underlay::Message data;
      data.src = self;
      data.dst = msg.src;
      data.type = msg::kGnutellaHttpData;
      data.size_bytes = config_.file_bytes;
      network_.send(std::move(data));
      break;
    }
    default:
      break;  // not ours
  }
}

void GnutellaSystem::cache_pong(Node& me, PeerId about) {
  if (about == me.peer) return;
  const sim::SimTime now = network_.engine().now();
  const auto hit = std::find(me.pong_ids.begin(), me.pong_ids.end(), about);
  if (hit != me.pong_ids.end()) {
    me.pong_seen[hit - me.pong_ids.begin()] = now;
    return;
  }
  me.pong_ids.push_back(about);
  me.pong_seen.push_back(now);
  if (me.pong_ids.size() > config_.pong_cache_capacity) {
    // Drop the stalest entry (the first one on ties).
    const auto oldest =
        std::min_element(me.pong_seen.begin(), me.pong_seen.end()) -
        me.pong_seen.begin();
    me.pong_ids.erase(me.pong_ids.begin() + oldest);
    me.pong_seen.erase(me.pong_seen.begin() + oldest);
  }
}

void GnutellaSystem::handle_ping(PeerId self, PeerId from,
                                 const PingPayload& ping) {
  Node& me = node(self);
  // One probe both detects duplicate flood copies and records the reverse
  // path (the previous hop) for routing Pongs back.
  if (!me.flood_state.try_emplace(ping.guid, from).second) return;
  // Answer with a Pong about ourselves, routed back hop-by-hop.
  send_typed(self, from, msg::kGnutellaPong, config_.pong_bytes,
             PongPayload{ping.guid, self});
  // Pong caching (0.6): serve fresh cached addresses too, and suppress
  // forwarding when the cache alone satisfies the ping.
  const sim::SimTime now = network_.engine().now();
  std::size_t served = 0;
  for (std::size_t i = 0; i < me.pong_ids.size(); ++i) {
    if (served + 1 >= config_.pongs_per_ping) break;
    if (now - me.pong_seen[i] > config_.pong_cache_ttl_ms) continue;
    if (me.pong_ids[i] == from) continue;
    send_typed(self, from, msg::kGnutellaPong, config_.pong_bytes,
               PongPayload{ping.guid, me.pong_ids[i]});
    ++served;
  }
  const bool satisfied = served + 1 >= config_.pongs_per_ping;
  if (me.role == NodeRole::kUltrapeer && ping.ttl > 1 && !satisfied) {
    for (const PeerId next : me.up_neighbors) {
      if (next == from) continue;
      send_typed(self, next, msg::kGnutellaPing, config_.ping_bytes,
                 PingPayload{ping.guid, ping.ttl - 1});
    }
  }
}

void GnutellaSystem::handle_pong(PeerId self, const PongPayload& pong) {
  Node& me = node(self);
  // Every node a Pong transits learns the address (hostcache + cache).
  add_to_hostcache(me, pong.about);
  cache_pong(me, pong.about);
  const PeerId* route = me.flood_state.find(pong.guid);
  // No entry or the origin marker: the Pong is consumed here.
  if (route == nullptr || !route->is_valid()) return;
  send_typed(self, *route, msg::kGnutellaPong, config_.pong_bytes, pong);
}

void GnutellaSystem::handle_query(PeerId self, PeerId from,
                                  const QueryPayload& query) {
  Node& me = node(self);
  if (!me.flood_state.try_emplace(query.guid, from).second) return;
  // Local hit?
  if (me.shared.contains(query.content)) {
    send_typed(self, from, msg::kGnutellaQueryHit, config_.queryhit_bytes,
               QueryHitPayload{query.guid, self, query.content});
  }
  if (me.role != NodeRole::kUltrapeer) return;
  // Perfect-QRT leaf forwarding: only leaves that actually share it.
  for (const PeerId leaf : me.leaves) {
    if (leaf == from) continue;
    if (node(leaf).shared.contains(query.content)) {
      send_typed(self, leaf, msg::kGnutellaQuery, config_.query_bytes,
                 QueryPayload{query.guid, 1, query.content});
    }
  }
  if (query.ttl > 1) {
    for (const PeerId next : me.up_neighbors) {
      if (next == from) continue;
      send_typed(self, next, msg::kGnutellaQuery, config_.query_bytes,
                 QueryPayload{query.guid, query.ttl - 1, query.content});
    }
  }
}

void GnutellaSystem::handle_query_hit(PeerId self, const QueryHitPayload& hit) {
  Node& me = node(self);
  const PeerId* route = me.flood_state.find(hit.guid);
  if (route == nullptr || !route->is_valid()) {
    // We are the search origin; collect the result.
    if (search_active_ && active_search_.owns(hit.guid)) {
      if (active_search_.first_hit < 0.0) {
        active_search_.first_hit =
            network_.engine().now() - active_search_.started;
      }
      if (std::find(active_search_.providers.begin(),
                    active_search_.providers.end(),
                    hit.provider) == active_search_.providers.end()) {
        active_search_.providers.push_back(hit.provider);
      }
    }
    return;
  }
  send_typed(self, *route, msg::kGnutellaQueryHit, config_.queryhit_bytes,
             hit);
}

void GnutellaSystem::ping_cycle() {
  sim::OriginScope trace_origin(network_.engine(), obs::origin::kMaintenance);
  if (trace_ != nullptr) {
    trace_->record({network_.engine().now(), obs::TraceKind::kOverlay, -1, -1,
                    obs::op::kPingCycle, 0.0});
  }
  begin_flood_cycle();
  for (Node& me : nodes_) {
    if (!network_.is_online(me.peer)) continue;
    const std::uint64_t guid = next_guid_++;
    me.flood_state.try_emplace(guid, PeerId::invalid());
    if (me.role == NodeRole::kUltrapeer) {
      for (const PeerId next : me.up_neighbors) {
        send_typed(me.peer, next, msg::kGnutellaPing, config_.ping_bytes,
                   PingPayload{guid, config_.ping_ttl});
      }
    } else {
      for (const PeerId up : me.ultrapeers) {
        send_typed(me.peer, up, msg::kGnutellaPing, config_.ping_bytes,
                   PingPayload{guid, 1});
      }
    }
  }
  network_.run_until(network_.engine().now() + kQuiesceHorizonMs);
}

SearchOutcome GnutellaSystem::search(PeerId origin, ContentId content,
                                     bool download) {
  sim::OriginScope trace_origin(network_.engine(), obs::origin::kFlooding);
  Node& me = node(origin);
  SearchOutcome outcome;
  if (trace_ != nullptr) {
    trace_->record({network_.engine().now(), obs::TraceKind::kOverlay,
                    static_cast<std::int32_t>(origin.value()), -1,
                    obs::op::kSearchStart,
                    static_cast<double>(content.value())});
  }
  begin_flood_cycle();
  active_search_.guids.clear();
  active_search_.providers.clear();
  active_search_.origin = origin;
  active_search_.started = network_.engine().now();
  active_search_.first_hit = -1.0;
  active_search_.download_done_at = -1.0;
  search_active_ = true;

  // Dynamic querying: expanding-ring waves, stopping as soon as enough
  // providers answered. Without it, a single full-TTL flood is issued.
  const int first_ttl = config_.dynamic_querying ? 1 : config_.query_ttl;
  for (int ttl = first_ttl; ttl <= config_.query_ttl; ++ttl) {
    const std::uint64_t guid = next_guid_++;
    me.flood_state.try_emplace(guid, PeerId::invalid());
    active_search_.guids.push_back(guid);
    if (me.role == NodeRole::kUltrapeer) {
      if (ttl == first_ttl) {
        // Check own leaves once (we are their proxy).
        for (const PeerId leaf : me.leaves) {
          if (node(leaf).shared.contains(content.value())) {
            send_typed(origin, leaf, msg::kGnutellaQuery, config_.query_bytes,
                       QueryPayload{guid, 1, content.value()});
          }
        }
      }
      for (const PeerId next : me.up_neighbors) {
        send_typed(origin, next, msg::kGnutellaQuery, config_.query_bytes,
                   QueryPayload{guid, ttl, content.value()});
      }
    } else {
      for (const PeerId up : me.ultrapeers) {
        send_typed(origin, up, msg::kGnutellaQuery, config_.query_bytes,
                   QueryPayload{guid, ttl, content.value()});
      }
    }
    network_.run_until(network_.engine().now() + kQuiesceHorizonMs);
    if (active_search_.providers.size() >= config_.desired_results) break;
  }

  outcome.found = !active_search_.providers.empty();
  outcome.result_count = active_search_.providers.size();
  outcome.time_to_first_hit_ms = active_search_.first_hit;

  if (download && outcome.found) {
    // Pick the provider: randomly ([1]'s default "chooses a node randomly
    // and initiates an HTTP session"), or oracle-ranked when the second
    // consultation stage is enabled.
    PeerId provider = PeerId::invalid();
    if (config_.oracle_at_file_exchange && oracle_ != nullptr) {
      provider = oracle_->best(origin, active_search_.providers);
    }
    if (!provider.is_valid()) {
      provider = active_search_.providers[rng_.uniform(
          active_search_.providers.size())];
    }
    outcome.provider = provider;
    outcome.download_intra_as =
        network_.host(origin).as == network_.host(provider).as;
    sim::OriginScope download_origin(network_.engine(), obs::origin::kTransfer);
    const sim::SimTime before = network_.engine().now();
    underlay::Message request;
    request.src = origin;
    request.dst = provider;
    request.type = msg::kGnutellaHttpRequest;
    request.size_bytes = config_.http_request_bytes;
    if (network_.send(std::move(request))) {
      network_.run_until(network_.engine().now() + kQuiesceHorizonMs);
      if (active_search_.download_done_at >= 0.0) {
        outcome.downloaded = true;
        outcome.download_time_ms = active_search_.download_done_at - before;
      }
    }
  }
  search_active_ = false;
  if (trace_ != nullptr) {
    trace_->record({network_.engine().now(), obs::TraceKind::kOverlay,
                    static_cast<std::int32_t>(origin.value()),
                    outcome.provider.is_valid()
                        ? static_cast<std::int32_t>(outcome.provider.value())
                        : -1,
                    obs::op::kSearchDone,
                    static_cast<double>(outcome.result_count)});
  }
  return outcome;
}

std::size_t GnutellaSystem::repair_overlay() {
  // Pass 1: drop every link whose far end is offline.
  for (Node& me : nodes_) {
    auto offline = [&](PeerId peer) { return !network_.is_online(peer); };
    std::erase_if(me.up_neighbors, offline);
    std::erase_if(me.leaves, offline);
    std::erase_if(me.ultrapeers, offline);
  }
  // Pass 2: online nodes refill from their hostcaches.
  std::size_t recreated = 0;
  for (Node& me : nodes_) {
    if (!network_.is_online(me.peer)) continue;
    if (me.role == NodeRole::kUltrapeer) {
      const std::size_t before = me.up_neighbors.size();
      if (before < config_.max_ultrapeer_degree) connect_ultrapeer(me);
      recreated += me.up_neighbors.size() - before;
    } else {
      const std::size_t before = me.ultrapeers.size();
      if (before < config_.leaf_attachments) attach_leaf(me);
      recreated += me.ultrapeers.size() - before;
    }
  }
  if (trace_ != nullptr) {
    trace_->record({network_.engine().now(), obs::TraceKind::kOverlay, -1, -1,
                    obs::op::kRepair, static_cast<double>(recreated)});
  }
  return recreated;
}

std::size_t GnutellaSystem::ltm_round(netinfo::Pinger& pinger,
                                      double cut_factor) {
  sim::OriginScope trace_origin(network_.engine(), obs::origin::kMaintenance);
  std::size_t rewired = 0;
  for (Node& me : nodes_) {
    if (me.role != NodeRole::kUltrapeer) continue;
    if (me.up_neighbors.size() < 2) continue;
    if (!network_.is_online(me.peer)) continue;
    // Measure all UP links (paid probes).
    double best = 1e300, worst = -1.0;
    PeerId worst_neighbor = PeerId::invalid();
    for (const PeerId neighbor : me.up_neighbors) {
      const double rtt = pinger.measure_rtt(me.peer, neighbor);
      if (rtt < 0) continue;
      best = std::min(best, rtt);
      if (rtt > worst) {
        worst = rtt;
        worst_neighbor = neighbor;
      }
    }
    if (!worst_neighbor.is_valid() || worst < best * cut_factor) continue;
    // Look for a strictly better replacement in the hostcache.
    PeerId replacement = PeerId::invalid();
    double replacement_rtt = worst;
    for (const PeerId candidate : me.hostcache) {
      Node& other = node(candidate);
      if (other.role != NodeRole::kUltrapeer) continue;
      if (other.up_neighbors.size() >= config_.max_ultrapeer_degree) continue;
      if (std::find(me.up_neighbors.begin(), me.up_neighbors.end(),
                    candidate) != me.up_neighbors.end()) {
        continue;
      }
      const double rtt = pinger.measure_rtt(me.peer, candidate);
      if (rtt > 0 && rtt < replacement_rtt) {
        replacement_rtt = rtt;
        replacement = candidate;
      }
    }
    if (!replacement.is_valid()) continue;
    // Cut the slow link, keep both graphs consistent, add the fast one.
    Node& old = node(worst_neighbor);
    std::erase(me.up_neighbors, worst_neighbor);
    std::erase(old.up_neighbors, me.peer);
    me.up_neighbors.push_back(replacement);
    node(replacement).up_neighbors.push_back(me.peer);
    ++rewired;
    if (trace_ != nullptr) {
      trace_->record({network_.engine().now(), obs::TraceKind::kOverlay,
                      static_cast<std::int32_t>(me.peer.value()),
                      static_cast<std::int32_t>(replacement.value()),
                      obs::op::kLtmRewire, replacement_rtt});
    }
  }
  return rewired;
}

double GnutellaSystem::mean_edge_rtt_ms() const {
  RunningStats rtt;
  // const_cast-free: rtt_ms needs a non-const Network (routing cache);
  // GnutellaSystem holds a non-const reference already.
  for (const Node& me : nodes_) {
    for (const PeerId other : me.up_neighbors) {
      if (me.peer < other) rtt.add(network_.rtt_ms(me.peer, other));
    }
    for (const PeerId leaf : me.leaves) {
      rtt.add(network_.rtt_ms(me.peer, leaf));
    }
  }
  return rtt.mean();
}

double GnutellaSystem::intra_as_edge_fraction() const {
  std::size_t total = 0;
  std::size_t intra = 0;
  for (const Node& me : nodes_) {
    const AsId my_as = network_.host(me.peer).as;
    for (const PeerId other : me.up_neighbors) {
      if (other < me.peer) continue;  // count each UP-UP edge once
      ++total;
      if (network_.host(other).as == my_as) ++intra;
    }
    for (const PeerId leaf : me.leaves) {
      ++total;
      if (network_.host(leaf).as == my_as) ++intra;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(intra) /
                                static_cast<double>(total);
}

std::size_t GnutellaSystem::edge_count() const {
  std::size_t total = 0;
  for (const Node& me : nodes_) {
    for (const PeerId other : me.up_neighbors) {
      if (me.peer < other) ++total;
    }
    total += me.leaves.size();
  }
  return total;
}

std::size_t GnutellaSystem::inter_as_edge_count() const {
  std::size_t inter = 0;
  for (const Node& me : nodes_) {
    const AsId my_as = network_.host(me.peer).as;
    for (const PeerId other : me.up_neighbors) {
      if (other < me.peer) continue;
      if (network_.host(other).as != my_as) ++inter;
    }
    for (const PeerId leaf : me.leaves) {
      if (network_.host(leaf).as != my_as) ++inter;
    }
  }
  return inter;
}

std::size_t GnutellaSystem::min_inter_as_edges_for_connectivity() const {
  // Count distinct ASes that host at least one overlay node; a spanning
  // tree over them needs exactly count-1 inter-AS edges.
  std::unordered_set<std::uint32_t> ases;
  for (const Node& me : nodes_) ases.insert(network_.host(me.peer).as.value());
  return ases.empty() ? 0 : ases.size() - 1;
}

std::vector<PeerId> GnutellaSystem::neighbors_of(PeerId peer) const {
  const Node& me = node(peer);
  std::vector<PeerId> result = me.up_neighbors;
  result.insert(result.end(), me.leaves.begin(), me.leaves.end());
  result.insert(result.end(), me.ultrapeers.begin(), me.ultrapeers.end());
  return result;
}

NodeRole GnutellaSystem::role_of(PeerId peer) const { return node(peer).role; }

std::vector<PeerId> GnutellaSystem::providers_of(ContentId content) const {
  std::vector<PeerId> result;
  for (const Node& me : nodes_) {
    if (me.shared.contains(content.value())) result.push_back(me.peer);
  }
  return result;
}

}  // namespace uap2p::overlay::gnutella
