#include "overlay/superpeer.hpp"

#include <algorithm>
#include <cassert>

#include "netinfo/msg_types.hpp"

namespace uap2p::overlay::superpeer {
namespace {
constexpr sim::SimTime kQuiesceHorizonMs = sim::seconds(10);
// Reuses the gnutella HTTP tag space is avoided; superpeer queries use the
// gnutella Query range offset by 80 to stay distinct.
constexpr int kSpQuery = 180;
constexpr int kSpRelay = 181;
constexpr int kSpReply = 182;

struct QueryPayload {
  std::uint64_t search_id;
  PeerId origin;
  std::uint32_t content;
};
// Flooded among super-peers: keep it inline so relaying never allocates.
static_assert(sizeof(QueryPayload) <= Payload::kInlineCapacity);
struct ReplyPayload {
  std::uint64_t search_id;
  std::vector<PeerId> providers;
};
}  // namespace

SuperPeerOverlay::SuperPeerOverlay(underlay::Network& network,
                                   std::vector<PeerId> peers, Config config,
                                   const netinfo::SkyEye* skyeye)
    : network_(network),
      config_(config),
      rng_(config.seed),
      peers_(std::move(peers)) {
  assert(config_.superpeer_count >= 1 &&
         config_.superpeer_count <= peers_.size());
  assert(config_.election != ElectionPolicy::kSkyEye || skyeye != nullptr);
  elect(skyeye);
  attach_clients();
  for (const PeerId peer : peers_) {
    network_.add_handler(peer, [this, peer](const underlay::Message& msg) {
      on_message(peer, msg);
    });
  }
}

void SuperPeerOverlay::elect(const netinfo::SkyEye* skyeye) {
  switch (config_.election) {
    case ElectionPolicy::kRandom: {
      const auto sample = rng_.sample_without_replacement(
          peers_.size(), config_.superpeer_count);
      for (const std::size_t index : sample)
        superpeers_.push_back(peers_[index]);
      break;
    }
    case ElectionPolicy::kGroundTruth: {
      std::vector<PeerId> sorted = peers_;
      std::sort(sorted.begin(), sorted.end(), [&](PeerId a, PeerId b) {
        return network_.host(a).resources.capacity_score() >
               network_.host(b).resources.capacity_score();
      });
      sorted.resize(config_.superpeer_count);
      superpeers_ = std::move(sorted);
      break;
    }
    case ElectionPolicy::kSkyEye: {
      for (const auto& entry :
           skyeye->query_top_capacity(config_.superpeer_count)) {
        superpeers_.push_back(entry.peer);
      }
      // SkyEye may know fewer candidates than requested (cold start /
      // churn); pad with the best remaining peers by ground truth so the
      // overlay still forms (a real deployment would use any cached list).
      std::vector<PeerId> rest;
      for (const PeerId peer : peers_) {
        if (std::find(superpeers_.begin(), superpeers_.end(), peer) ==
            superpeers_.end()) {
          rest.push_back(peer);
        }
      }
      std::sort(rest.begin(), rest.end(), [&](PeerId a, PeerId b) {
        return network_.host(a).resources.capacity_score() >
               network_.host(b).resources.capacity_score();
      });
      for (const PeerId peer : rest) {
        if (superpeers_.size() >= config_.superpeer_count) break;
        superpeers_.push_back(peer);
      }
      break;
    }
  }
}

void SuperPeerOverlay::attach_clients() {
  for (const PeerId peer : peers_) {
    if (std::find(superpeers_.begin(), superpeers_.end(), peer) !=
        superpeers_.end()) {
      continue;
    }
    PeerId chosen = PeerId::invalid();
    if (config_.attachment == AttachmentPolicy::kLatency) {
      double best = std::numeric_limits<double>::max();
      for (const PeerId sp : superpeers_) {
        const double rtt = network_.rtt_ms(peer, sp);
        if (rtt < best) {
          best = rtt;
          chosen = sp;
        }
      }
    } else {
      chosen = superpeers_[rng_.uniform(superpeers_.size())];
    }
    attachment_[peer.value()] = chosen;
  }
}

void SuperPeerOverlay::publish(PeerId peer, ContentId content) {
  const PeerId sp = superpeer_of(peer);
  index_[sp.value()][content.value()].push_back(peer);
}

PeerId SuperPeerOverlay::superpeer_of(PeerId client) const {
  auto it = attachment_.find(client.value());
  if (it != attachment_.end()) return it->second;
  // Super-peers index their own content.
  if (std::find(superpeers_.begin(), superpeers_.end(), client) !=
      superpeers_.end()) {
    return client;
  }
  return PeerId::invalid();
}

void SuperPeerOverlay::on_message(PeerId self, const underlay::Message& msg) {
  if (msg.type == kSpQuery || msg.type == kSpRelay) {
    const auto* payload = payload_cast<QueryPayload>(&msg.payload);
    if (payload == nullptr) return;
    // Answer from the local index.
    auto sp_index = index_.find(self.value());
    if (sp_index != index_.end()) {
      auto hit = sp_index->second.find(payload->content);
      if (hit != sp_index->second.end() && !hit->second.empty()) {
        underlay::Message reply;
        reply.src = self;
        reply.dst = payload->origin;
        reply.type = kSpReply;
        reply.size_bytes = config_.reply_bytes;
        reply.payload = ReplyPayload{payload->search_id, hit->second};
        if (network_.send(std::move(reply)) && active_) ++active_->messages;
      }
    }
    // First-hop super-peer relays across the mesh exactly once.
    if (msg.type == kSpQuery) {
      for (const PeerId other : superpeers_) {
        if (other == self) continue;
        underlay::Message relay;
        relay.src = self;
        relay.dst = other;
        relay.type = kSpRelay;
        relay.size_bytes = config_.query_bytes;
        relay.payload = *payload;
        if (network_.send(std::move(relay)) && active_) ++active_->messages;
      }
    }
  } else if (msg.type == kSpReply) {
    const auto* payload = payload_cast<ReplyPayload>(&msg.payload);
    if (payload == nullptr) return;
    if (!active_ || active_->id != payload->search_id ||
        self != active_->origin) {
      return;
    }
    if (active_->first_reply < 0.0) {
      active_->first_reply = network_.engine().now() - active_->started;
    }
    for (const PeerId provider : payload->providers) {
      active_->providers.insert(provider.value());
    }
  }
}

SearchResult SuperPeerOverlay::search(PeerId origin, ContentId content) {
  SearchResult result;
  const PeerId sp = superpeer_of(origin);
  if (!sp.is_valid() || !network_.is_online(sp)) return result;

  active_ = ActiveSearch{next_search_++, origin, {}, network_.engine().now(),
                         -1.0, 0};
  underlay::Message msg;
  msg.src = origin;
  msg.dst = sp;
  msg.type = kSpQuery;
  msg.size_bytes = config_.query_bytes;
  msg.payload = QueryPayload{active_->id, origin, content.value()};
  if (origin == sp) {
    // A super-peer searching consults itself directly.
    on_message(origin, msg);
  } else if (network_.send(std::move(msg))) {
    ++active_->messages;
  }
  network_.engine().run_until(network_.engine().now() + kQuiesceHorizonMs);

  result.found = !active_->providers.empty();
  result.providers = active_->providers.size();
  result.latency_ms = active_->first_reply;
  result.messages = active_->messages;
  active_.reset();
  return result;
}

double SuperPeerOverlay::mean_superpeer_capacity() const {
  if (superpeers_.empty()) return 0.0;
  double acc = 0.0;
  for (const PeerId sp : superpeers_)
    acc += network_.host(sp).resources.capacity_score();
  return acc / static_cast<double>(superpeers_.size());
}

double SuperPeerOverlay::expected_stability() const {
  if (superpeers_.empty()) return 0.0;
  double acc = 0.0;
  for (const PeerId sp : superpeers_) {
    const double online = network_.host(sp).resources.expected_online_ms;
    acc += online / (online + sim::minutes(10));  // vs mean downtime
  }
  return acc / static_cast<double>(superpeers_.size());
}

double SuperPeerOverlay::mean_attachment_rtt_ms() {
  if (attachment_.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& [client, sp] : attachment_) {
    acc += network_.rtt_ms(PeerId(client), sp);
  }
  return acc / static_cast<double>(attachment_.size());
}

std::vector<std::size_t> SuperPeerOverlay::load_distribution() const {
  std::vector<std::size_t> load(superpeers_.size(), 0);
  for (const auto& [client, sp] : attachment_) {
    for (std::size_t i = 0; i < superpeers_.size(); ++i) {
      if (superpeers_[i] == sp) {
        ++load[i];
        break;
      }
    }
  }
  return load;
}

}  // namespace uap2p::overlay::superpeer
