// End hosts and message transport over the underlay.
//
// Network attaches peers to routers, allocates their IPs from the owning
// AS's prefix, and delivers overlay messages with the latency the routing
// table computes (plus last-mile access latency and transmission delay).
// Every delivered message is charged to the TrafficAccountant, which is
// where the intra-AS / transit / peering byte split that the paper's
// evaluation reasons about comes from.
//
// The transport runs over one sim::Engine per scenario. A send moves the
// message into its delivery event's closure, which fits the engine slot's
// inline buffer, so the steady-state send -> deliver cycle never touches
// the allocator and an in-flight message is one engine slot. Scenarios
// scale out across trials (one engine per trial, bench::run_trials), not
// inside one event loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "underlay/cost.hpp"
#include "underlay/routing.hpp"
#include "underlay/topology.hpp"

namespace uap2p::underlay {

/// Peer capability vector (paper §2.3: bandwidth, processing power, disk
/// space, memory, online times).
struct HostResources {
  double upload_mbps = 1.0;
  double download_mbps = 16.0;
  double cpu_score = 1.0;   ///< Normalized processing power (1.0 = average).
  double disk_gb = 100.0;
  double memory_gb = 2.0;
  sim::SimTime expected_online_ms = sim::hours(2);

  /// Composite capacity used by super-peer election (higher = better).
  /// Upload bandwidth and expected online time dominate, matching the
  /// super-peer criteria of hybrid systems the paper cites [11].
  [[nodiscard]] double capacity_score() const;
};

/// Draws a heterogeneous resource profile: a small fraction of peers are
/// well-provisioned "university" hosts, the bulk are DSL-class.
HostResources sample_resources(Rng& rng);

struct Host {
  PeerId id;
  RouterId attachment;
  AsId as;
  IpAddress ip;
  GeoPoint location;
  HostResources resources;
  sim::SimTime access_latency_ms = 5.0;  ///< Last-mile one-way latency.
  bool online = true;
};

/// An overlay message in flight. `type` is an overlay-defined tag used for
/// the per-type counting that [1]'s Table 1 reports. The payload is a
/// small-buffer box (common/payload.hpp): descriptor-sized payloads live
/// inline in the message, so sending one does not touch the allocator.
/// 40 bytes: the delivery closure carries it by value (network.cpp).
struct Message {
  PeerId src;
  PeerId dst;
  int type = 0;
  std::uint32_t size_bytes = 64;
  Payload payload;
};

/// The transport. One instance per experiment; owns hosts, delegates
/// routing to RoutingTable and billing to TrafficAccountant.
class Network {
 public:
  /// Owned-routing mode: the network builds its own lazy RoutingTable
  /// over `topology` (which must outlive the network).
  Network(sim::Engine& engine, const AsTopology& topology,
          std::uint64_t seed = 1, Pricing pricing = {});
  /// Shared-routing mode: borrows an immutable, fully warmed snapshot
  /// (typically group-wide across parallel trials). Path lookups are pure
  /// reads; results are byte-identical to the owned mode.
  Network(sim::Engine& engine, std::shared_ptr<const SharedRouting> routing,
          std::uint64_t seed = 1, Pricing pricing = {});

  /// Host management ------------------------------------------------------
  /// Attaches a host to a specific router.
  PeerId add_host(RouterId attachment, HostResources resources = {});
  /// Attaches a host to a uniformly random router of `as`.
  PeerId add_host_in_as(AsId as, HostResources resources = {});
  /// Attaches `count` hosts spread uniformly over all ASes (round-robin AS,
  /// random router within), with resources drawn from sample_resources.
  std::vector<PeerId> populate(std::size_t count);

  using Handler = std::function<void(const Message&)>;
  /// Installs the message handler for a peer (an overlay node's receive
  /// loop). Replaces any previous handlers.
  void set_handler(PeerId peer, Handler handler);
  /// Adds an additional handler; every handler sees every delivered
  /// message, so overlays sharing a network must filter on Message::type.
  /// Message type tags are namespaced per overlay (see msg_types.hpp).
  void add_handler(PeerId peer, Handler handler);

  /// Online/offline state; offline peers silently drop traffic in both
  /// directions (the churn model toggles this).
  void set_online(PeerId peer, bool online);
  [[nodiscard]] bool is_online(PeerId peer) const;

  /// Mobility support (paper §6): moves a host to a new physical position
  /// and re-attaches it to the nearest router (possibly in a different
  /// AS, with a fresh IP from that AS's block and fresh access latency).
  /// Cached underlay information held by collectors goes stale — exactly
  /// the §6 "continuous variation" problem.
  void move_host(PeerId peer, const GeoPoint& location);

  /// Transport ------------------------------------------------------------
  /// Sends `msg`; returns false (and delivers nothing) if either endpoint
  /// is offline or unreachable. Delivery is scheduled at
  ///   now + access(src) + path latency + access(dst) + size/upload.
  /// Offline-at-delivery destinations drop the message (packet loss under
  /// churn).
  bool send(Message msg);

  /// Ground-truth round-trip time between two online peers, including
  /// access latency on both ends. This is what an ideal ping measures.
  [[nodiscard]] sim::SimTime rtt_ms(PeerId a, PeerId b);

  /// Routing summary between two peers' attachment routers.
  [[nodiscard]] PathInfo path_between(PeerId a, PeerId b);

  /// Accessors -------------------------------------------------------------
  [[nodiscard]] const Host& host(PeerId peer) const {
    return hosts_[peer.value()];
  }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] const std::vector<Host>& hosts() const { return hosts_; }
  [[nodiscard]] const AsTopology& topology() const { return *topology_; }
  [[nodiscard]] TrafficAccountant& traffic() { return traffic_; }
  [[nodiscard]] const TrafficAccountant& traffic() const { return traffic_; }
  /// Arms the per-(src AS, dst AS) TrafficMatrix (off by default; costs
  /// one predicted branch per send while disabled).
  void enable_traffic_matrix();
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Advances simulation to `until`, first sizing the accountant's
  /// billing windows so sends stay allocation-free. Returns events
  /// executed.
  std::uint64_t run_until(sim::SimTime until);

  /// Per-message-type delivered counts (indexable by overlay tags).
  [[nodiscard]] std::uint64_t delivered_count(int type) const;
  [[nodiscard]] std::uint64_t dropped_count() const;

  /// Observability ---------------------------------------------------------
  /// Binds "net.*" counters in `registry` (nullptr detaches). Counters
  /// start from the registry's current values; bind before traffic flows
  /// for totals to match delivered/dropped_count().
  void set_metrics(obs::MetricsRegistry* registry);
  /// Emits kMsgSent/kMsgHop/kMsgDelivered/kMsgDropped records; nullptr
  /// (the default) costs one predicted branch per send/delivery.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  /// Path lookup dispatch: shared snapshot (pure read) or owned lazy table.
  [[nodiscard]] PathInfo route(RouterId src, RouterId dst) {
    return shared_routing_ != nullptr ? shared_routing_->path(src, dst)
                                      : owned_routing_->path(src, dst);
  }

  /// Executes one delivery (the engine callback body). `msg` lives in the
  /// firing event's slot, which stays put through re-entrant sends.
  void deliver(const Message& msg);

  void drop_at_send(const Message& msg, sim::SimTime now);

  sim::Engine& engine_;
  std::shared_ptr<const SharedRouting> shared_routing_;  ///< Null when owned.
  const AsTopology* topology_;
  std::unique_ptr<RoutingTable> owned_routing_;  ///< Null when shared.
  Rng rng_;
  std::vector<Host> hosts_;
  std::vector<std::vector<Handler>> handlers_;
  std::vector<std::uint32_t> hosts_per_as_;

  std::vector<std::uint64_t> delivered_by_type_;
  std::uint64_t dropped_ = 0;
  TrafficAccountant traffic_;
  obs::Counter sent_metric_;  // unbound (no-op) until set_metrics
  obs::Counter delivered_metric_;
  obs::Counter dropped_metric_;
  obs::Counter bytes_metric_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace uap2p::underlay
