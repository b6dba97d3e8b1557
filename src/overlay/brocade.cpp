#include "overlay/brocade.hpp"

#include <cassert>

namespace uap2p::overlay::brocade {
namespace {
// Message tags local to Brocade (distinct from msg_types ranges).
constexpr int kBrocadeForward = 600;
constexpr int kBrocadeDeliver = 601;

struct ForwardPayload {
  std::uint64_t route_id;
  PeerId final_dst;
  std::uint32_t bytes;
};
// Relayed hop by hop: keep it inline so forwarding never allocates.
static_assert(sizeof(ForwardPayload) <= Payload::kInlineCapacity);
}  // namespace

BrocadeSystem::BrocadeSystem(underlay::Network& network,
                             std::vector<PeerId> peers, Config config)
    : network_(network), config_(config), peers_(std::move(peers)) {
  supernode_of_as_.assign(network_.topology().as_count(), PeerId::invalid());
  elect();
  for (const PeerId peer : peers_) {
    network_.add_handler(peer, [this, peer](const underlay::Message& msg) {
      on_message(peer, msg);
    });
  }
}

void BrocadeSystem::elect() {
  std::fill(supernode_of_as_.begin(), supernode_of_as_.end(),
            PeerId::invalid());
  std::vector<double> best(supernode_of_as_.size(), -1.0);
  for (const PeerId peer : peers_) {
    if (!network_.is_online(peer)) continue;
    const auto& host = network_.host(peer);
    const double capacity = host.resources.capacity_score();
    if (capacity > best[host.as.value()]) {
      best[host.as.value()] = capacity;
      supernode_of_as_[host.as.value()] = peer;
    }
  }
}

void BrocadeSystem::repair() { elect(); }

PeerId BrocadeSystem::supernode_of(AsId as) const {
  return supernode_of_as_[as.value()];
}

std::size_t BrocadeSystem::supernode_count() const {
  std::size_t count = 0;
  for (const PeerId supernode : supernode_of_as_) {
    if (supernode.is_valid()) ++count;
  }
  return count;
}

bool BrocadeSystem::send_leg(PeerId from, PeerId to, std::uint32_t bytes) {
  if (active_) {
    active_->crossings += network_.path_between(from, to).as_hops();
  }
  underlay::Message msg;
  msg.src = from;
  msg.dst = to;
  msg.type = to == active_->dst ? kBrocadeDeliver : kBrocadeForward;
  msg.size_bytes = bytes + config_.header_bytes;
  msg.payload = ForwardPayload{active_->id, active_->dst, bytes};
  return network_.send(std::move(msg));
}

void BrocadeSystem::on_message(PeerId self, const underlay::Message& msg) {
  if (msg.type != kBrocadeForward && msg.type != kBrocadeDeliver) return;
  const auto* payload = payload_cast<ForwardPayload>(&msg.payload);
  if (payload == nullptr || !active_ || active_->id != payload->route_id) {
    return;
  }
  ++active_->hops;
  if (msg.type == kBrocadeDeliver || self == payload->final_dst) {
    active_->delivered = true;
    active_->delivered_at = network_.engine().now();
    return;
  }
  ++forwarded_;
  // We are a supernode on the path. If the destination is in our AS (we
  // are its home supernode), deliver; else tunnel to its home supernode.
  const AsId dst_as = network_.host(payload->final_dst).as;
  const PeerId dst_supernode = supernode_of_as_[dst_as.value()];
  const PeerId next =
      (self == dst_supernode || !dst_supernode.is_valid())
          ? payload->final_dst
          : dst_supernode;
  send_leg(self, next, payload->bytes);
}

RouteResult BrocadeSystem::route(PeerId src, PeerId dst, std::uint32_t bytes) {
  RouteResult result;
  const sim::SimTime start = network_.engine().now();
  active_ = ActiveRoute{next_route_++, dst, start, false, 0, 0};

  const AsId src_as = network_.host(src).as;
  const AsId dst_as = network_.host(dst).as;
  PeerId first_hop;
  if (src_as == dst_as) {
    first_hop = dst;  // intra-domain: no tunneling needed
  } else {
    const PeerId local_supernode = supernode_of_as_[src_as.value()];
    first_hop = (local_supernode.is_valid() && local_supernode != src)
                    ? local_supernode
                    : supernode_of_as_[dst_as.value()];
    if (!first_hop.is_valid()) first_hop = dst;  // degraded: direct
  }
  send_leg(src, first_hop, bytes);
  network_.engine().run_until(network_.engine().now() +
                              config_.delivery_timeout_ms);

  result.delivered = active_->delivered;
  result.overlay_hops = active_->hops;
  result.inter_as_crossings = active_->crossings;
  if (result.delivered) result.latency_ms = active_->delivered_at - start;
  active_.reset();
  return result;
}

}  // namespace uap2p::overlay::brocade
