// Structured sim-time tracing (DESIGN.md "Observability").
//
// Producers hold a raw `TraceSink*` that is null when tracing is off, so
// the disabled path is a single predicted branch and zero allocations —
// the alloc-probe tests enforce this on the steady-state Gnutella flood.
// Records are fixed-size POD (no strings on the hot path); sinks decide
// the encoding. Timestamps are simulated time, and because every producer
// emits at its engine's current now(), a single-engine trace is monotone
// non-decreasing in t (validate_trace checks this).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace uap2p::obs {

enum class TraceKind : std::uint8_t {
  kEventScheduled = 0,  ///< a=origin tag, tag=event tag, value=fire time
  kEventFired = 1,      ///< a=origin tag, tag=event tag
  kEventCancelled = 2,  ///< a=origin tag, tag=event tag
  kMsgSent = 3,         ///< a=src peer, b=dst peer, tag=type, value=bytes
  kMsgHop = 4,          ///< a=src, b=dst, tag=type, value=router hops
  kMsgDelivered = 5,    ///< a=src, b=dst, tag=type, value=bytes
  kMsgDropped = 6,      ///< a=src, b=dst, tag=type, value=bytes
  kOverlay = 7,         ///< protocol event; tag=op:: code, a/b peers
  kChurnJoin = 8,       ///< a=peer
  kChurnLeave = 9,      ///< a=peer
};

/// Returns a stable short name ("event_scheduled", "msg_sent", ...).
const char* trace_kind_name(TraceKind kind);

/// Inverse of trace_kind_name; returns false for unknown names.
bool trace_kind_from_name(std::string_view name, TraceKind& out);

/// Scheduling origins. Every engine event record (kEventScheduled /
/// kEventFired / kEventCancelled) carries the origin of the activity that
/// scheduled it in TraceRecord::a, and events scheduled from inside a
/// firing callback inherit the firing event's origin — so a whole
/// flood-forwarding chain stays attributed to kFlooding even though each
/// hop is a fresh delivery event. uap2p_traceprof folds fired spans by
/// these tags.
namespace origin {
inline constexpr std::uint8_t kUntagged = 0;     ///< no scope set
inline constexpr std::uint8_t kChurn = 1;        ///< session join/leave churn
inline constexpr std::uint8_t kMaintenance = 2;  ///< overlay ping/repair/LTM
inline constexpr std::uint8_t kFlooding = 3;     ///< query flood forwarding
inline constexpr std::uint8_t kPinger = 4;       ///< active RTT probing
inline constexpr std::uint8_t kTransfer = 5;     ///< content download traffic
inline constexpr std::uint8_t kMobility = 6;     ///< waypoint mobility moves
inline constexpr std::uint8_t kGossip = 7;       ///< gossip rounds
inline constexpr std::uint8_t kCoords = 8;       ///< coordinate maintenance
inline constexpr std::uint8_t kLookup = 9;       ///< DHT lookups / RPCs
inline constexpr std::uint8_t kCount = 10;
}  // namespace origin

/// Stable short name for an origin tag ("churn", "flooding", ...);
/// out-of-range values map to "untagged".
const char* origin_name(std::uint8_t origin);

/// Overlay protocol operation codes carried in TraceRecord::tag for
/// TraceKind::kOverlay records.
namespace op {
inline constexpr std::uint64_t kSearchStart = 1;
inline constexpr std::uint64_t kSearchDone = 2;
inline constexpr std::uint64_t kPingCycle = 3;
inline constexpr std::uint64_t kLtmRewire = 4;
inline constexpr std::uint64_t kRepair = 5;
inline constexpr std::uint64_t kLookup = 6;
inline constexpr std::uint64_t kProbe = 7;
inline constexpr std::uint64_t kPieceTransfer = 8;
}  // namespace op

/// One trace record; 32 bytes, trivially copyable. Field meaning depends
/// on `kind` (see the enum comments); unused fields are -1 / 0.
struct TraceRecord {
  double t = 0.0;  ///< Simulated time (ms) at emission.
  TraceKind kind = TraceKind::kEventScheduled;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::uint64_t tag = 0;
  double value = 0.0;
};

/// Sink interface. record() is the hot path: implementations must not
/// allocate per record (the alloc-probe tests cover the ring sink and the
/// producers; JSONL writes through a stack buffer into stdio).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceRecord& rec) = 0;
  virtual void flush() {}
};

/// Writes one JSON object per line:
///   {"t": 12.5, "kind": "msg_sent", "a": 3, "b": 7, "tag": 102, "value": 64}
/// record() formats directly into a preallocated batch buffer and only
/// calls fwrite when the buffer nears capacity (plus a large setvbuf
/// buffer on owned files), so the per-record cost is one snprintf — no
/// stdio locking, no allocator traffic. Bytes on disk are identical to the
/// unbatched writer (the tracediff-self-check gate covers this).
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  /// Adopts `file` (does not close it) — e.g. a test's tmpfile().
  explicit JsonlTraceSink(std::FILE* file) : file_(file) { arm_buffer(); }
  ~JsonlTraceSink() override;
  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  void record(const TraceRecord& rec) override;
  void flush() override;
  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  [[nodiscard]] std::uint64_t records_written() const { return written_; }

 private:
  /// Batch capacity; drained whenever fewer than kMaxRecordBytes remain.
  static constexpr std::size_t kBufferBytes = 256 * 1024;
  static constexpr std::size_t kMaxRecordBytes = 192;

  void arm_buffer();
  void drain();  ///< fwrite the batch buffer (no fflush).

  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  std::uint64_t written_ = 0;
  std::vector<char> buffer_;
  std::size_t used_ = 0;
};

/// Keeps the most recent `capacity` records in a preallocated ring —
/// always-on flight recording with zero steady-state allocations.
class RingTraceSink final : public TraceSink {
 public:
  explicit RingTraceSink(std::size_t capacity) : records_(capacity) {}

  void record(const TraceRecord& rec) override {
    records_[head_] = rec;
    head_ = head_ + 1 == records_.size() ? 0 : head_ + 1;
    ++total_;
  }

  [[nodiscard]] std::size_t capacity() const { return records_.size(); }
  [[nodiscard]] std::size_t size() const {
    return total_ < records_.size() ? static_cast<std::size_t>(total_)
                                    : records_.size();
  }
  /// Total records ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  /// i-th retained record, oldest first (i < size()).
  [[nodiscard]] const TraceRecord& at(std::size_t i) const {
    const std::size_t start =
        total_ < records_.size() ? 0 : head_;  // oldest retained
    const std::size_t idx = start + i;
    return records_[idx < records_.size() ? idx : idx - records_.size()];
  }

  /// Replays the retained records, oldest first, into another sink —
  /// e.g. a JsonlTraceSink to dump the flight recorder after a failure.
  /// When the ring has wrapped, the resulting file starts mid-run (the
  /// "truncated head"): fired records whose scheduled record was
  /// overwritten are expected, and the trace tools tolerate them.
  void dump(TraceSink& to) const {
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) to.record(at(i));
  }

 private:
  std::vector<TraceRecord> records_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace uap2p::obs
