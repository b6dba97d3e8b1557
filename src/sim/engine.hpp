// Discrete-event simulation engine.
//
// A single-threaded event loop: callbacks are scheduled at absolute
// simulated times and executed in (time, insertion-order) order. All of
// uap2p's network and overlay behaviour is expressed as events on one
// Engine, which makes runs bit-reproducible.
//
// Performance model (see DESIGN.md "Performance model"): the steady-state
// schedule -> run cycle is allocation-free. Callbacks live in a chunked
// slab of recycled slots; captures up to EventCallback::kInlineCapacity
// bytes are stored inline in the slot (larger ones spill to the heap).
// Cancellation uses per-event tags (a global sequence number packed with
// the slot index) instead of shared ownership, so an EventHandle is two
// words and never touches the allocator. Handles must not outlive their
// Engine.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace uap2p::obs {
class MetricsRegistry;
}  // namespace uap2p::obs

namespace uap2p::sim {

class Engine;

namespace detail {

/// Type-erased `void()` callback with small-buffer optimization. Captures
/// of at most kInlineCapacity bytes (and at most 8-byte aligned) are
/// stored in-place (no allocation); larger callables are heap-allocated
/// and owned through the same ops table. Move-only, like the slab slots
/// that hold it. 8-byte alignment keeps the callback at 56 bytes, so a
/// slab slot (callback + tag) is exactly one 64-byte cache line.
class EventCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 48;
  static constexpr std::size_t kInlineAlignment = 8;

  EventCallback() = default;
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~EventCallback() { reset(); }

  /// Returns true when the callable was stored inline (no allocation);
  /// false when it spilled to the heap. The engine feeds this into its
  /// inline-vs-spilled introspection counters.
  template <typename F>
  bool emplace(F&& fn) {
    using Decayed = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Decayed) <= kInlineCapacity &&
                  alignof(Decayed) <= kInlineAlignment &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      ops_ = &kInlineOps<Decayed>;
      return true;
    } else {
      ::new (static_cast<void*>(storage_)) Decayed*(
          new Decayed(std::forward<F>(fn)));
      ops_ = &kHeapOps<Decayed>;
      return false;
    }
  }

  void operator()() { ops_->invoke(storage_); }

  /// Invokes and then destroys the callable with a single ops dispatch
  /// (the event loop's per-fire path); leaves the callback empty. If the
  /// callable throws, it is leaked rather than double-destroyed.
  void fire() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(storage_);
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] bool empty() const { return ops_ == nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*invoke_destroy)(void*);
    void (*destroy)(void*);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src);
  };

  template <typename F>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(static_cast<F*>(p)))(); },
      [](void* p) {
        F* fn = std::launder(static_cast<F*>(p));
        (*fn)();
        fn->~F();
      },
      [](void* p) { std::launder(static_cast<F*>(p))->~F(); },
      [](void* dst, void* src) {
        F* from = std::launder(static_cast<F*>(src));
        ::new (dst) F(std::move(*from));
        from->~F();
      }};

  template <typename F>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**static_cast<F**>(p))(); },
      [](void* p) {
        F* fn = *static_cast<F**>(p);
        (*fn)();
        delete fn;
      },
      [](void* p) { delete *static_cast<F**>(p); },
      [](void* dst, void* src) { std::memcpy(dst, src, sizeof(F*)); }};

  void move_from(EventCallback& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlignment) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation (e.g. retransmission
/// timers that are disarmed when the reply arrives). A handle is an
/// {engine, tag} pair: the tag packs the event's globally unique sequence
/// number with its slab slot, so stale handles to fired or cancelled
/// events degrade to no-ops (the slot's armed tag no longer matches).
/// Must not be used after its Engine is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly and
  /// after the event fired (no-op then).
  void cancel();
  /// True if the event is still scheduled (not fired, not cancelled).
  [[nodiscard]] bool pending() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint64_t tag)
      : engine_(engine), tag_(tag) {}

  Engine* engine_ = nullptr;
  std::uint64_t tag_ = 0;
};

/// Engine introspection snapshot (DESIGN.md "Observability"). All values
/// are counted unconditionally — the increments ride on cache lines the
/// scheduling path already touches, so they are free in practice.
struct EngineStats {
  std::uint64_t scheduled = 0;   ///< schedule()/schedule_at() calls
  std::uint64_t executed = 0;    ///< callbacks fired
  std::uint64_t cancelled = 0;   ///< successful cancellations
  std::uint64_t inline_callbacks = 0;   ///< captures stored in the slab
  std::uint64_t spilled_callbacks = 0;  ///< captures heap-allocated
  std::size_t queue_high_water = 0;  ///< max concurrently queued entries
  std::size_t slab_slots = 0;        ///< slab capacity (slots ever created)
};

/// The event loop. Not thread-safe by design: one Engine per experiment.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. 0 before the first event fires.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at `now() + delay`. Negative delays clamp to 0
  /// (the event still runs after the current callback returns).
  template <typename F>
  EventHandle schedule(SimTime delay, F&& fn) {
    if (delay < 0) delay = 0;
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules at an absolute time; must be >= now().
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    assert(when >= now_);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    if (s.fn.emplace(std::forward<F>(fn))) {
      ++inline_callbacks_;
    } else {
      ++spilled_callbacks_;
    }
    const std::uint64_t tag = (next_seq_++ << kSlotBits) | slot;
    s.armed_tag = tag;
    queue_.push(QueueEntry{when, tag});
    if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
    if (trace_ != nullptr) [[unlikely]] {
      note_scheduled(slot, tag, when);
    }
    return EventHandle(this, tag);
  }

  /// Schedules `fn` to fire repeatedly at now()+interval, now()+2*interval,
  /// ... until it returns false. The periodic-flush shape (billing-window
  /// snapshots, stat rollups) without each caller hand-rolling the
  /// rescheduling chain; each firing is an ordinary event, so ties with
  /// other work at the same timestamp keep deterministic seq order.
  template <typename F>
  void schedule_every(SimTime interval, F fn) {
    assert(interval > 0);
    schedule(interval, [this, interval, fn = std::move(fn)]() mutable {
      if (fn()) schedule_every(interval, std::move(fn));
    });
  }

  /// Runs until the queue is empty or `limit` events fired.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Runs until simulated time reaches `until` (events at exactly `until`
  /// are executed). Returns the number of events executed.
  std::uint64_t run_until(SimTime until);

  /// Number of events currently queued (including cancelled tombstones).
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }

  /// Total events executed since construction (cancelled ones excluded).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Slab capacity: high-water mark of concurrently scheduled events.
  /// Exposed so tests can assert that steady-state churn recycles slots
  /// instead of growing the slab.
  [[nodiscard]] std::size_t slab_size() const { return slot_count_; }

  /// Introspection snapshot (schedule/fire/cancel counters, inline vs
  /// spilled callbacks, queue high-water mark).
  [[nodiscard]] EngineStats stats() const {
    EngineStats s;
    s.scheduled = inline_callbacks_ + spilled_callbacks_;
    s.executed = executed_;
    s.cancelled = cancelled_;
    s.inline_callbacks = inline_callbacks_;
    s.spilled_callbacks = spilled_callbacks_;
    s.queue_high_water = queue_high_water_;
    s.slab_slots = slot_count_;
    return s;
  }

  /// Exports stats() as "engine.*" counters into `registry` (idempotent
  /// set, not add — safe to call at any point, typically trial teardown).
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Attaches a trace sink for event scheduled/fired/cancelled records;
  /// nullptr (the default) disables tracing at the cost of one predicted
  /// branch per operation. The sink must outlive the engine or be
  /// detached before destruction.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Current scheduling origin (obs::origin::*). Events scheduled while an
  /// origin is set carry it in their trace records; events scheduled from
  /// inside a firing callback inherit the firing event's origin, so whole
  /// causal chains stay attributed without threading a tag through every
  /// producer. Only trace output depends on it — simulation behaviour is
  /// identical whether or not origins are set. Prefer OriginScope.
  void set_origin(std::uint8_t origin) { origin_ = origin; }
  [[nodiscard]] std::uint8_t origin() const { return origin_; }

 private:
  friend class EventHandle;

  // Event tags pack (sequence << kSlotBits) | slot into one word: the
  // sequence makes every scheduling globally unique (so a tag never
  // matches a reused slot — the generation-counter idea with the counter
  // shared engine-wide), and the slot index is recovered with a mask. 24
  // slot bits cap the slab at ~16.7M concurrent events; 40 sequence bits
  // allow ~10^12 schedules per Engine. Free slots are marked with
  // kFreeBit, which no live tag can carry below 5*10^11 schedules.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kInvalidSlot = kSlotMask;
  static constexpr std::uint64_t kFreeBit = 1ull << 63;

  /// One slab cell: the callback plus the tag it is armed with. While on
  /// the free list, armed_tag instead holds kFreeBit | next-free-slot
  /// (the callback storage is dead then, so the slot stays at 64 bytes).
  /// Line-aligned, so firing an event — tag check, closure, and for a
  /// network delivery the whole in-flight message — touches one cache
  /// line, which pop_and_run prefetches one event ahead.
  struct alignas(64) Slot {
    detail::EventCallback fn;
    std::uint64_t armed_tag = kFreeBit | kInvalidSlot;
  };
  static_assert(sizeof(Slot) == 64);

  /// The slab is a list of fixed-size chunks, so Slot addresses are stable
  /// for the Engine's lifetime: growth allocates a fresh chunk instead of
  /// relocating live callbacks the way a flat vector's realloc would, and
  /// stability is what lets pop_and_run invoke callbacks in place. A Slot
  /// is 64 bytes, so a chunk is 16 KiB.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  // slots
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  [[nodiscard]] Slot& slot_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  /// POD heap entry: 16 bytes, no ownership. The callback stays in the
  /// slab; the priority queue only orders (when, tag) — the tag's
  /// high-bits sequence number breaks time ties in insertion order — and
  /// remembers which slot to fire.
  struct QueueEntry {
    SimTime when;
    std::uint64_t tag;
  };

  /// Min-heap over (when, tag) specialized for the event loop: 4-ary (a
  /// quarter of the levels of a binary heap touch memory on each sift,
  /// and with 16-byte entries the four children share one cache line),
  /// hole-based sifting (one store per level instead of a swap), flat
  /// vector storage reused across runs so the steady state never
  /// allocates.
  class EventHeap {
   public:
    [[nodiscard]] bool empty() const { return entries_.empty(); }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    void reserve(std::size_t n) { entries_.reserve(n); }
    [[nodiscard]] const QueueEntry& top() const { return entries_.front(); }

    void push(const QueueEntry& entry) {
      std::size_t hole = entries_.size();
      entries_.push_back(entry);  // grows storage; value rewritten below
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 4;
        if (!earlier(entry, entries_[parent])) break;
        entries_[hole] = entries_[parent];
        hole = parent;
      }
      entries_[hole] = entry;
    }

    void pop() {
      // Bottom-up deletion (Wegener): walk the min-child path all the way
      // to a leaf, then sift the displaced back element up from there.
      // The displaced element came from the heap's bottom, so it almost
      // always belongs near the leaves — this saves the per-level
      // "min child vs displaced" comparison of the classic sift-down.
      const QueueEntry displaced = entries_.back();
      entries_.pop_back();
      const std::size_t n = entries_.size();
      if (n == 0) return;
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first_child = hole * 4 + 1;
        if (first_child >= n) break;
        const std::size_t end = std::min(first_child + 4, n);
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (earlier(entries_[c], entries_[best])) best = c;
        }
        entries_[hole] = entries_[best];
        hole = best;
      }
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 4;
        if (!earlier(displaced, entries_[parent])) break;
        entries_[hole] = entries_[parent];
        hole = parent;
      }
      entries_[hole] = displaced;
    }

   private:
    /// Branchless (when, tag) comparison: sift loops run it on
    /// unpredictable data, where a mispredicted branch costs more than
    /// evaluating both sides, so compose with bitwise ops instead of
    /// short-circuiting.
    static bool earlier(const QueueEntry& a, const QueueEntry& b) {
      return (a.when < b.when) |
             ((a.when == b.when) & (a.tag < b.tag));
    }

    std::vector<QueueEntry> entries_;
  };

  std::uint32_t acquire_slot() {
    if (free_head_ != kInvalidSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = static_cast<std::uint32_t>(slot_at(slot).armed_tag) &
                   kSlotMask;
      return slot;
    }
    assert(slot_count_ < kInvalidSlot);
    if ((slot_count_ & kChunkMask) == 0) {
      chunks_.emplace_back();
      chunks_.back().reserve(kChunkSize);  // data pointer is final
    }
    chunks_.back().emplace_back();
    return slot_count_++;
  }

  /// Destroys the slot's callback (if still present), invalidates stale
  /// handles/queue-entries (the armed tag is gone), and recycles the slot.
  void release_slot(std::uint32_t slot) {
    Slot& s = slot_at(slot);
    s.fn.reset();
    s.armed_tag = kFreeBit | free_head_;
    free_head_ = slot;
  }

  void cancel_tag(std::uint64_t tag) {
    const std::uint32_t slot = static_cast<std::uint32_t>(tag) & kSlotMask;
    if (slot >= slot_count_) return;
    if (slot_at(slot).armed_tag != tag) return;  // fired or recycled
    const std::uint8_t origin = slot_origin(slot);
    release_slot(slot);  // the queue entry becomes a tombstone
    ++cancelled_;
    if (trace_ != nullptr) [[unlikely]] {
      trace_event(obs::TraceKind::kEventCancelled, tag, 0.0, origin);
    }
  }

  /// Cold outlined trace emission (defined in engine.cpp) so the record
  /// construction stays out of the inlined scheduling hot paths.
  void trace_event(obs::TraceKind kind, std::uint64_t tag, double value,
                   std::uint8_t origin);

  /// Cold: records the scheduling origin for the slot and emits the
  /// scheduled trace record. Only called while tracing is on.
  void note_scheduled(std::uint32_t slot, std::uint64_t tag, SimTime when);

  /// Origin the slot's event was scheduled under (kUntagged when origins
  /// were never tracked for it — e.g. tracing was attached later).
  [[nodiscard]] std::uint8_t slot_origin(std::uint32_t slot) const {
    return slot < slot_origins_.size() ? slot_origins_[slot] : 0;
  }

  [[nodiscard]] bool tag_pending(std::uint64_t tag) const {
    const std::uint32_t slot = static_cast<std::uint32_t>(tag) & kSlotMask;
    return slot < slot_count_ && slot_at(slot).armed_tag == tag;
  }

  /// Fires the earliest live event if it is due by `until`, first
  /// discarding cancelled tombstones at the head. Returns false when the
  /// queue holds no live event at or before `until`.
  bool pop_and_run(SimTime until);

  EventHeap queue_;
  std::vector<std::vector<Slot>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kInvalidSlot;
  /// Scheduling origins, indexed by slot. Grown lazily on the traced
  /// scheduling path only — steady-state slot recycling never resizes it,
  /// so the obs-armed zero-allocation tests stay valid.
  std::vector<std::uint8_t> slot_origins_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t inline_callbacks_ = 0;
  std::uint64_t spilled_callbacks_ = 0;
  std::size_t queue_high_water_ = 0;
  std::uint8_t origin_ = 0;  ///< current scheduling origin (obs::origin::*)
  obs::TraceSink* trace_ = nullptr;
};

/// RAII scheduling-origin scope: producers wrap the region that schedules
/// events (a churn arm, a search flood, a maintenance cycle) and every
/// event scheduled inside — directly or transitively, via the firing-time
/// inheritance in the engine — is trace-attributed to that origin. Two
/// byte stores when tracing is off; never allocates.
class OriginScope {
 public:
  OriginScope(Engine& engine, std::uint8_t origin)
      : engine_(engine), previous_(engine.origin()) {
    engine_.set_origin(origin);
  }
  ~OriginScope() { engine_.set_origin(previous_); }
  OriginScope(const OriginScope&) = delete;
  OriginScope& operator=(const OriginScope&) = delete;

 private:
  Engine& engine_;
  std::uint8_t previous_;
};

inline void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel_tag(tag_);
}

inline bool EventHandle::pending() const {
  return engine_ != nullptr && engine_->tag_pending(tag_);
}

}  // namespace uap2p::sim
