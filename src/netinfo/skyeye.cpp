#include "netinfo/skyeye.hpp"

#include <algorithm>
#include <cassert>

#include "netinfo/msg_types.hpp"

namespace uap2p::netinfo {
namespace {
/// Wire payload of a kSkyEyeReport message.
struct ReportPayload {
  std::size_t sender_index;
  SystemView view;
};
struct QueryPayload {
  std::uint64_t query_id;
  PeerId asker;
  std::uint32_t k;  ///< 32 bits keep the payload inline (16 bytes).
};
static_assert(sizeof(QueryPayload) <= Payload::kInlineCapacity);
struct QueryReplyPayload {
  std::uint64_t query_id;
  std::vector<CapacityEntry> entries;
};
}  // namespace

void merge_views(SystemView& a, const SystemView& b, std::size_t top_k) {
  if (b.peer_count == 0) return;
  const double total_capacity =
      a.mean_capacity * static_cast<double>(a.peer_count) +
      b.mean_capacity * static_cast<double>(b.peer_count);
  a.peer_count += b.peer_count;
  a.total_upload_mbps += b.total_upload_mbps;
  a.total_storage_gb += b.total_storage_gb;
  a.mean_capacity = total_capacity / static_cast<double>(a.peer_count);
  a.freshest_ms = std::max(a.freshest_ms, b.freshest_ms);
  a.oldest_ms = a.top_capacity.empty() && a.peer_count == b.peer_count
                    ? b.oldest_ms
                    : std::min(a.oldest_ms, b.oldest_ms);
  a.top_capacity.insert(a.top_capacity.end(), b.top_capacity.begin(),
                        b.top_capacity.end());
  std::sort(a.top_capacity.begin(), a.top_capacity.end(),
            [](const CapacityEntry& x, const CapacityEntry& y) {
              if (x.capacity != y.capacity) return x.capacity > y.capacity;
              return x.peer < y.peer;
            });
  if (a.top_capacity.size() > top_k) a.top_capacity.resize(top_k);
}

SkyEye::SkyEye(underlay::Network& network, std::span<const PeerId> peers,
               SkyEyeConfig config)
    : network_(network),
      config_(config),
      peers_(peers.begin(), peers.end()) {
  assert(!peers_.empty());
  assert(config_.branching >= 1);
  child_reports_.resize(peers_.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    child_reports_[i].resize(config_.branching);
    network_.add_handler(peers_[i], [this, i](const underlay::Message& msg) {
      on_message(i, msg);
    });
  }
  timers_.resize(peers_.size());
}

std::optional<std::size_t> SkyEye::parent_index(std::size_t index) const {
  if (index == 0) return std::nullopt;
  return (index - 1) / config_.branching;
}

void SkyEye::start() {
  running_ = true;
  sim::OriginScope origin(network_.engine(), obs::origin::kCoords);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    // Stagger first reports uniformly over one period.
    const sim::SimTime offset =
        config_.update_period_ms * (static_cast<double>(i % 16) + 1.0) / 17.0;
    timers_[i] = network_.engine().schedule(offset, [this, i] {
      send_report(i);
      schedule_report(i);
    });
  }
}

void SkyEye::stop() {
  running_ = false;
  for (auto& timer : timers_) timer.cancel();
}

void SkyEye::schedule_report(std::size_t index) {
  if (!running_) return;
  sim::OriginScope origin(network_.engine(), obs::origin::kCoords);
  timers_[index] =
      network_.engine().schedule(config_.update_period_ms, [this, index] {
        send_report(index);
        schedule_report(index);
      });
}

SystemView SkyEye::self_view(std::size_t index) const {
  const auto& host = network_.host(peers_[index]);
  SystemView view;
  view.peer_count = 1;
  view.total_upload_mbps = host.resources.upload_mbps;
  view.total_storage_gb = host.resources.disk_gb;
  view.mean_capacity = host.resources.capacity_score();
  view.top_capacity = {CapacityEntry{peers_[index], view.mean_capacity}};
  view.freshest_ms = network_.engine().now();
  view.oldest_ms = network_.engine().now();
  return view;
}

SystemView SkyEye::aggregate_subtree(std::size_t index) const {
  SystemView view = self_view(index);
  const sim::SimTime now = network_.engine().now();
  for (const Report& report : child_reports_[index]) {
    if (!report.valid) continue;
    if (now - report.sent_at > config_.staleness_limit_ms) continue;
    merge_views(view, report.view, config_.top_k);
  }
  return view;
}

void SkyEye::send_report(std::size_t index) {
  if (!network_.is_online(peers_[index])) return;
  SystemView view = aggregate_subtree(index);
  if (index == 0) {
    // The root folds its aggregate into the published oracle view.
    root_view_ = view;
    return;
  }
  // Walk up the ancestor chain past offline parents (simple tree repair).
  std::size_t target = index;
  while (true) {
    const auto parent = parent_index(target);
    if (!parent) return;  // every ancestor offline; drop this cycle
    target = *parent;
    if (network_.is_online(peers_[target])) break;
  }
  underlay::Message msg;
  msg.src = peers_[index];
  msg.dst = peers_[target];
  msg.type = msg::kSkyEyeReport;
  msg.size_bytes = config_.report_base_bytes +
                   static_cast<std::uint32_t>(view.top_capacity.size()) *
                       config_.report_entry_bytes;
  msg.payload = ReportPayload{index, std::move(view)};
  if (network_.send(std::move(msg))) ++reports_sent_;
}

void SkyEye::on_message(std::size_t index, const underlay::Message& msg) {
  if (msg.type == msg::kSkyEyeQuery && index == 0) {
    const auto* query = payload_cast<QueryPayload>(&msg.payload);
    if (query == nullptr) return;
    underlay::Message reply;
    reply.src = peers_[0];
    reply.dst = query->asker;
    reply.type = msg::kSkyEyeQueryReply;
    const auto entries = query_top_capacity(query->k);
    reply.size_bytes = config_.report_base_bytes +
                       static_cast<std::uint32_t>(entries.size()) *
                           config_.report_entry_bytes;
    reply.payload = QueryReplyPayload{query->query_id, entries};
    network_.send(std::move(reply));
    return;
  }
  if (msg.type == msg::kSkyEyeQueryReply) {
    const auto* reply = payload_cast<QueryReplyPayload>(&msg.payload);
    if (reply == nullptr || !active_query_ ||
        active_query_->id != reply->query_id ||
        peers_[index] != active_query_->asker) {
      return;
    }
    active_query_->answered = true;
    active_query_->answered_at = network_.engine().now();
    active_query_->entries = reply->entries;
    return;
  }
  if (msg.type != msg::kSkyEyeReport) return;
  const auto* payload = payload_cast<ReportPayload>(&msg.payload);
  if (payload == nullptr) return;
  // Slot by child position; fallback reports from grandchildren reuse the
  // slot of the subtree they belong to (modulo branching keeps it stable).
  const std::size_t slot = (payload->sender_index - 1) % config_.branching;
  Report& report = child_reports_[index][slot];
  report.view = payload->view;
  report.sent_at = network_.engine().now();
  report.valid = true;
}

SkyEye::RemoteQueryResult SkyEye::query_remote(PeerId asker, std::size_t k) {
  RemoteQueryResult result;
  active_query_ = ActiveQuery{next_query_++, asker,
                              network_.engine().now(), false, 0.0, {}};
  underlay::Message msg;
  msg.src = asker;
  msg.dst = peers_[0];
  msg.type = msg::kSkyEyeQuery;
  msg.size_bytes = 32;
  assert(k <= UINT32_MAX);
  msg.payload =
      QueryPayload{active_query_->id, asker, static_cast<std::uint32_t>(k)};
  if (asker == peers_[0]) {
    // The root asking itself answers locally.
    result.entries = query_top_capacity(k);
    result.answered = true;
    result.latency_ms = 0.0;
    active_query_.reset();
    return result;
  }
  if (network_.send(std::move(msg))) {
    network_.engine().run_until(network_.engine().now() + sim::seconds(5));
  }
  result.answered = active_query_->answered;
  result.entries = active_query_->entries;
  if (result.answered) {
    result.latency_ms = active_query_->answered_at - active_query_->started;
  }
  active_query_.reset();
  return result;
}

std::vector<CapacityEntry> SkyEye::query_top_capacity(std::size_t k) const {
  std::vector<CapacityEntry> result;
  for (const CapacityEntry& entry : root_view_.top_capacity) {
    if (!network_.is_online(entry.peer)) continue;
    result.push_back(entry);
    if (result.size() >= k) break;
  }
  return result;
}

}  // namespace uap2p::netinfo
