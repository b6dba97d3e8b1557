#include "sim/engine.hpp"

#include <limits>

#include "obs/metrics.hpp"

namespace uap2p::sim {

bool Engine::pop_and_run(SimTime until) {
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    const std::uint32_t index = static_cast<std::uint32_t>(entry.tag) &
                                kSlotMask;
    Slot& slot = slot_at(index);
    // Tombstones are skipped wherever they sit relative to `until`, so
    // their timestamps never gate progress.
    if (slot.armed_tag != entry.tag) {
      queue_.pop();
      continue;
    }
    if (entry.when > until) return false;
    queue_.pop();
    // Pull the next event's slot (its callback and, for a delivery, the
    // whole in-flight message) toward the cache while this one runs: at
    // Table-1 scale the slab is far larger than L2 and each slot would
    // otherwise be a cold miss at fire time.
    if (!queue_.empty()) {
      const std::uint32_t next = static_cast<std::uint32_t>(queue_.top().tag) &
                                 kSlotMask;
      __builtin_prefetch(&slot_at(next), /*rw=*/1);
    }
    now_ = entry.when;
    if (trace_ != nullptr) [[unlikely]] {
      // Inherit the firing event's origin before invoking the callback so
      // anything it schedules stays attributed to the same causal chain.
      origin_ = slot_origin(index);
      trace_event(obs::TraceKind::kEventFired, entry.tag, 0.0, origin_);
    }
    // Disarm before invoking, so cancel()/pending() on the firing event
    // no-op inside its own callback. The callback runs in place: chunked
    // slab storage never relocates, and the slot is kept off the free
    // list until after the call, so re-entrant schedule() cannot clobber
    // it.
    slot.armed_tag = kFreeBit | kInvalidSlot;
    slot.fn.fire();
    slot.armed_tag = kFreeBit | free_head_;
    free_head_ = index;
    ++executed_;
    return true;
  }
  return false;
}

std::uint64_t Engine::run(std::uint64_t limit) {
  std::uint64_t ran = 0;
  constexpr SimTime kNoHorizon = std::numeric_limits<SimTime>::infinity();
  while (ran < limit && pop_and_run(kNoHorizon)) ++ran;
  return ran;
}

std::uint64_t Engine::run_until(SimTime until) {
  std::uint64_t ran = 0;
  while (pop_and_run(until)) ++ran;
  if (now_ < until) now_ = until;
  return ran;
}

void Engine::trace_event(obs::TraceKind kind, std::uint64_t tag, double value,
                         std::uint8_t origin) {
  trace_->record({now_, kind, static_cast<std::int32_t>(origin), -1, tag,
                  value});
}

void Engine::note_scheduled(std::uint32_t slot, std::uint64_t tag,
                            SimTime when) {
  // Resizes only when the slab grew since the last traced schedule; the
  // steady state (recycled slots) never allocates here.
  if (slot_origins_.size() < slot_count_) slot_origins_.resize(slot_count_);
  slot_origins_[slot] = origin_;
  trace_event(obs::TraceKind::kEventScheduled, tag, when, origin_);
}

void Engine::export_metrics(obs::MetricsRegistry& registry) const {
  const EngineStats s = stats();
  registry.counter("engine.events.scheduled").set(s.scheduled);
  registry.counter("engine.events.executed").set(s.executed);
  registry.counter("engine.events.cancelled").set(s.cancelled);
  registry.counter("engine.callbacks.inline").set(s.inline_callbacks);
  registry.counter("engine.callbacks.spilled").set(s.spilled_callbacks);
  registry.counter("engine.queue.high_water").set(s.queue_high_water);
  registry.counter("engine.slab.slots").set(s.slab_slots);
}

}  // namespace uap2p::sim
