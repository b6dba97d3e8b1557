#include "underlay/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace uap2p::underlay {

// The delivery closure carries the message by value; it must stay inside
// the engine slot's inline buffer or every send would allocate.
static_assert(sizeof(Message) + sizeof(Network*) <=
              sim::detail::EventCallback::kInlineCapacity);

double HostResources::capacity_score() const {
  // Geometric blend; upload bandwidth and uptime dominate because a
  // super-peer must relay traffic and stay reachable.
  const double uptime_hours = expected_online_ms / sim::hours(1);
  return std::pow(upload_mbps, 0.40) * std::pow(std::max(0.1, uptime_hours), 0.35) *
         std::pow(cpu_score, 0.15) * std::pow(std::max(0.1, memory_gb), 0.10);
}

HostResources sample_resources(Rng& rng) {
  HostResources res;
  const double roll = rng.uniform01();
  if (roll < 0.10) {
    // Well-provisioned host (campus / server).
    res.upload_mbps = rng.uniform_real(20.0, 100.0);
    res.download_mbps = res.upload_mbps;
    res.cpu_score = rng.uniform_real(2.0, 8.0);
    res.memory_gb = rng.uniform_real(8.0, 32.0);
    res.disk_gb = rng.uniform_real(500.0, 4000.0);
    res.expected_online_ms = sim::hours(rng.uniform_real(8.0, 24.0));
  } else if (roll < 0.40) {
    // Cable-class.
    res.upload_mbps = rng.uniform_real(2.0, 10.0);
    res.download_mbps = rng.uniform_real(16.0, 50.0);
    res.cpu_score = rng.uniform_real(1.0, 3.0);
    res.memory_gb = rng.uniform_real(2.0, 8.0);
    res.disk_gb = rng.uniform_real(100.0, 1000.0);
    res.expected_online_ms = sim::hours(rng.uniform_real(2.0, 8.0));
  } else {
    // DSL-class.
    res.upload_mbps = rng.uniform_real(0.25, 2.0);
    res.download_mbps = rng.uniform_real(2.0, 16.0);
    res.cpu_score = rng.uniform_real(0.5, 2.0);
    res.memory_gb = rng.uniform_real(1.0, 4.0);
    res.disk_gb = rng.uniform_real(40.0, 500.0);
    res.expected_online_ms = sim::hours(rng.uniform_real(0.5, 4.0));
  }
  return res;
}

namespace {

TrafficAccountant make_accountant(const AsTopology& topology,
                                  const Pricing& pricing) {
  std::size_t peering_links = 0;
  for (const Link& link : topology.links())
    if (link.type == LinkType::kPeering) ++peering_links;
  TrafficAccountant traffic(pricing);
  traffic.set_peering_links(peering_links);
  return traffic;
}

}  // namespace

void Network::enable_traffic_matrix() {
  traffic_.enable_matrix(static_cast<std::uint32_t>(topology_->as_count()));
}

Network::Network(sim::Engine& engine, const AsTopology& topology,
                 std::uint64_t seed, Pricing pricing)
    : engine_(engine),
      topology_(&topology),
      owned_routing_(std::make_unique<RoutingTable>(topology)),
      rng_(seed),
      hosts_per_as_(topology.as_count(), 0),
      traffic_(make_accountant(topology, pricing)) {}

Network::Network(sim::Engine& engine,
                 std::shared_ptr<const SharedRouting> routing,
                 std::uint64_t seed, Pricing pricing)
    : engine_(engine),
      shared_routing_(std::move(routing)),
      topology_(&shared_routing_->topology()),
      rng_(seed),
      hosts_per_as_(topology_->as_count(), 0),
      traffic_(make_accountant(*topology_, pricing)) {}

PeerId Network::add_host(RouterId attachment, HostResources resources) {
  Host host;
  host.id = PeerId(static_cast<std::uint32_t>(hosts_.size()));
  host.attachment = attachment;
  host.as = topology_->as_of(attachment);
  // IPs count up from .0.2 inside the AS prefix (gateway-style offsets).
  const auto& as = topology_->as_info(host.as);
  host.ip = IpAddress{as.prefix + 2 + hosts_per_as_[host.as.value()]++};
  const auto& router = topology_->router(attachment);
  host.location = GeoPoint{router.location.lat_deg + rng_.uniform_real(-0.1, 0.1),
                           router.location.lon_deg + rng_.uniform_real(-0.1, 0.1)};
  host.resources = resources;
  host.access_latency_ms = rng_.uniform_real(1.0, 12.0);
  hosts_.push_back(host);
  handlers_.emplace_back();
  return host.id;
}

PeerId Network::add_host_in_as(AsId as, HostResources resources) {
  const auto& routers = topology_->as_info(as).routers;
  const RouterId router = routers[rng_.uniform(routers.size())];
  return add_host(router, resources);
}

std::vector<PeerId> Network::populate(std::size_t count) {
  std::vector<PeerId> peers;
  peers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const AsId as(static_cast<std::uint32_t>(i % topology_->as_count()));
    peers.push_back(add_host_in_as(as, sample_resources(rng_)));
  }
  return peers;
}

void Network::set_handler(PeerId peer, Handler handler) {
  handlers_[peer.value()].clear();
  if (handler) handlers_[peer.value()].push_back(std::move(handler));
}

void Network::add_handler(PeerId peer, Handler handler) {
  if (handler) handlers_[peer.value()].push_back(std::move(handler));
}

void Network::set_online(PeerId peer, bool online) {
  hosts_[peer.value()].online = online;
}

bool Network::is_online(PeerId peer) const {
  return hosts_[peer.value()].online;
}

void Network::move_host(PeerId peer, const GeoPoint& location) {
  Host& host = hosts_[peer.value()];
  host.location = location;
  // Re-attach to the geographically nearest router.
  RouterId best = host.attachment;
  double best_km = std::numeric_limits<double>::max();
  for (const auto& router : topology_->routers()) {
    const double km = haversine_km(router.location, location);
    if (km < best_km) {
      best_km = km;
      best = router.id;
    }
  }
  if (best != host.attachment) {
    host.attachment = best;
    const AsId new_as = topology_->as_of(best);
    if (new_as != host.as) {
      host.as = new_as;
      const auto& as = topology_->as_info(new_as);
      host.ip = IpAddress{as.prefix + 2 + hosts_per_as_[new_as.value()]++};
    }
  }
  // A new access link (cellular handover / new DSLAM).
  host.access_latency_ms = rng_.uniform_real(1.0, 12.0);
}

namespace {

// Cold outlined trace emission: keeps the TraceRecord construction out of
// the send/delivery hot paths so the disabled case is a single predicted
// branch with no code-size cost (the flood bench gates this; see
// BM_ObsOverhead).
[[gnu::noinline]] void emit_msg_trace(obs::TraceSink* trace, double now,
                                      obs::TraceKind kind, PeerId src,
                                      PeerId dst, int type, double value) {
  trace->record({now, kind, static_cast<std::int32_t>(src.value()),
                 static_cast<std::int32_t>(dst.value()),
                 static_cast<std::uint64_t>(type), value});
}

}  // namespace

void Network::drop_at_send(const Message& msg, sim::SimTime now) {
  ++dropped_;
  dropped_metric_.inc();
  if (trace_ != nullptr) {
    emit_msg_trace(trace_, now, obs::TraceKind::kMsgDropped, msg.src,
                   msg.dst, msg.type, static_cast<double>(msg.size_bytes));
  }
}

bool Network::send(Message msg) {
  assert(msg.src.value() < hosts_.size() && msg.dst.value() < hosts_.size());
  const Host& src = hosts_[msg.src.value()];
  const Host& dst = hosts_[msg.dst.value()];
  const sim::SimTime now = engine_.now();
  if (!src.online || !dst.online) {
    drop_at_send(msg, now);
    return false;
  }
  const PathInfo path = route(src.attachment, dst.attachment);
  if (!path.reachable) {
    drop_at_send(msg, now);
    return false;
  }
  traffic_.record(path, msg.size_bytes, now,
                  static_cast<std::uint32_t>(src.as.value()),
                  static_cast<std::uint32_t>(dst.as.value()));
  sent_metric_.inc();
  bytes_metric_.inc(msg.size_bytes);
  if (trace_ != nullptr) [[unlikely]] {
    emit_msg_trace(trace_, now, obs::TraceKind::kMsgSent, msg.src, msg.dst,
                   msg.type, static_cast<double>(msg.size_bytes));
    emit_msg_trace(trace_, now, obs::TraceKind::kMsgHop, msg.src, msg.dst,
                   msg.type, static_cast<double>(path.router_hops));
  }

  const double transmission_ms =
      src.resources.upload_mbps > 0.0
          ? static_cast<double>(msg.size_bytes) * 8.0 /
                (src.resources.upload_mbps * 1e6) * 1000.0
          : 0.0;
  const sim::SimTime delay = src.access_latency_ms + path.latency_ms +
                             dst.access_latency_ms + transmission_ms;
  engine_.schedule(delay, [this, m = std::move(msg)] { deliver(m); });
  return true;
}

void Network::deliver(const Message& delivered) {
  const PeerId dst_id = delivered.dst;
  if (!hosts_[dst_id.value()].online) {
    ++dropped_;
    dropped_metric_.inc();
    if (trace_ != nullptr) {
      emit_msg_trace(trace_, engine_.now(), obs::TraceKind::kMsgDropped,
                     delivered.src, dst_id, delivered.type,
                     static_cast<double>(delivered.size_bytes));
    }
  } else {
    const auto index = static_cast<std::size_t>(std::max(0, delivered.type));
    if (delivered_by_type_.size() <= index)
      delivered_by_type_.resize(index + 1, 0);
    ++delivered_by_type_[index];
    delivered_metric_.inc();
    if (trace_ != nullptr) [[unlikely]] {
      emit_msg_trace(trace_, engine_.now(), obs::TraceKind::kMsgDelivered,
                     delivered.src, dst_id, delivered.type,
                     static_cast<double>(delivered.size_bytes));
    }
    // Handlers may send() recursively; engine slots never move and the
    // firing one is not recycled until this returns, so `delivered` stays
    // valid while new deliveries are scheduled.
    for (const auto& handler : handlers_[dst_id.value()]) handler(delivered);
  }
}

std::uint64_t Network::run_until(sim::SimTime until) {
  // Forward the horizon to the accountant so billing-window growth
  // happens here (cold path) and record() stays allocation-free through
  // the run. The horizon is quantized up to the next whole simulated
  // hour: reserve_windows sizes capacity to the target exactly, so an
  // unquantized `until + slack` would creep forward with every
  // quiesce-horizon-at-a-time caller (overlay floods advance 30 s per
  // call) and reallocate at each new billing window. Rounding up means
  // the target — and hence capacity — changes once per simulated hour.
  const double hour = sim::hours(1);
  traffic_.reserve_windows(hour * (std::floor(until / hour) + 1.0));
  return engine_.run_until(until);
}

sim::SimTime Network::rtt_ms(PeerId a, PeerId b) {
  const Host& ha = hosts_[a.value()];
  const Host& hb = hosts_[b.value()];
  const PathInfo forward = route(ha.attachment, hb.attachment);
  const PathInfo back = route(hb.attachment, ha.attachment);
  // Summing kUnreachableLatency overflows to +inf; report the sentinel
  // unchanged when either direction has no route.
  if (!forward.reachable || !back.reachable) return kUnreachableLatency;
  return 2.0 * (ha.access_latency_ms + hb.access_latency_ms) +
         forward.latency_ms + back.latency_ms;
}

PathInfo Network::path_between(PeerId a, PeerId b) {
  return route(hosts_[a.value()].attachment, hosts_[b.value()].attachment);
}

void Network::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    sent_metric_ = {};
    delivered_metric_ = {};
    dropped_metric_ = {};
    bytes_metric_ = {};
    return;
  }
  sent_metric_ = registry->counter("net.messages.sent");
  delivered_metric_ = registry->counter("net.messages.delivered");
  dropped_metric_ = registry->counter("net.messages.dropped");
  bytes_metric_ = registry->counter("net.bytes.sent");
}

std::uint64_t Network::delivered_count(int type) const {
  const auto index = static_cast<std::size_t>(std::max(0, type));
  return index < delivered_by_type_.size() ? delivered_by_type_[index] : 0;
}

std::uint64_t Network::dropped_count() const { return dropped_; }

}  // namespace uap2p::underlay
