#include "obs/trace.hpp"

#include <charconv>
#include <cinttypes>
#include <cstring>

namespace uap2p::obs {

namespace {

/// memcpy a string literal (length known at compile time) and advance.
template <std::size_t N>
char* put(char* out, const char (&literal)[N]) {
  std::memcpy(out, literal, N - 1);
  return out + (N - 1);
}

}  // namespace

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kEventScheduled: return "event_scheduled";
    case TraceKind::kEventFired: return "event_fired";
    case TraceKind::kEventCancelled: return "event_cancelled";
    case TraceKind::kMsgSent: return "msg_sent";
    case TraceKind::kMsgHop: return "msg_hop";
    case TraceKind::kMsgDelivered: return "msg_delivered";
    case TraceKind::kMsgDropped: return "msg_dropped";
    case TraceKind::kOverlay: return "overlay";
    case TraceKind::kChurnJoin: return "churn_join";
    case TraceKind::kChurnLeave: return "churn_leave";
  }
  return "unknown";
}

bool trace_kind_from_name(std::string_view name, TraceKind& out) {
  for (std::uint8_t k = 0; k <= static_cast<std::uint8_t>(TraceKind::kChurnLeave);
       ++k) {
    const TraceKind kind = static_cast<TraceKind>(k);
    if (name == trace_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

const char* origin_name(std::uint8_t origin) {
  switch (origin) {
    case origin::kUntagged: return "untagged";
    case origin::kChurn: return "churn";
    case origin::kMaintenance: return "maintenance";
    case origin::kFlooding: return "flooding";
    case origin::kPinger: return "pinger";
    case origin::kTransfer: return "transfer";
    case origin::kMobility: return "mobility";
    case origin::kGossip: return "gossip";
    case origin::kCoords: return "coords";
    case origin::kLookup: return "lookup";
    default: return "untagged";
  }
}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")), owns_file_(true) {
  if (file_ != nullptr) {
    // Large stdio buffer so the batched fwrites below hit the kernel in
    // megabyte strides instead of the 4-8 KiB default.
    std::setvbuf(file_, nullptr, _IOFBF, 1 << 20);
  }
  arm_buffer();
}

JsonlTraceSink::~JsonlTraceSink() {
  drain();
  if (file_ != nullptr) std::fflush(file_);
  if (file_ != nullptr && owns_file_) std::fclose(file_);
}

void JsonlTraceSink::arm_buffer() {
  if (file_ != nullptr) buffer_.resize(kBufferBytes);
}

void JsonlTraceSink::drain() {
  if (used_ == 0 || file_ == nullptr) return;
  std::fwrite(buffer_.data(), 1, used_, file_);
  used_ = 0;
}

void JsonlTraceSink::record(const TraceRecord& rec) {
  if (file_ == nullptr) return;
  if (buffer_.size() - used_ < kMaxRecordBytes) drain();
  // Hand-assembled record: std::to_chars produces byte-identical text to
  // the historical snprintf "%.6f" / "%.17g" formats (fixed/general are
  // specified in terms of printf, and both sides round correctly) while
  // skipping format parsing and locale machinery — record() is the hot
  // path of every --trace run.
  char* out = buffer_.data() + used_;
  char* const start = out;
  char* const end = start + kMaxRecordBytes;
  // 6 = strlen("{\"t\": "), written below once t is known to fit; 136
  // covers the worst case of everything after t (52 literal bytes, the
  // longest kind name, two int32s, a uint64, and a %.17g double).
  const auto t_result =
      std::to_chars(out + 6, end - 136, rec.t, std::chars_format::fixed, 6);
  if (t_result.ec != std::errc{}) {
    // Absurdly large timestamp: fall back to snprintf, which truncates the
    // record at kMaxRecordBytes exactly as the historical code did.
    const int n = std::snprintf(
        start, kMaxRecordBytes,
        "{\"t\": %.6f, \"kind\": \"%s\", \"a\": %" PRId32 ", \"b\": %" PRId32
        ", \"tag\": %" PRIu64 ", \"value\": %.17g}\n",
        rec.t, trace_kind_name(rec.kind), rec.a, rec.b, rec.tag, rec.value);
    if (n > 0) {
      used_ += static_cast<std::size_t>(n);
      ++written_;
    }
    return;
  }
  put(out, "{\"t\": ");  // writes the 6 bytes skipped above
  out = t_result.ptr;
  out = put(out, ", \"kind\": \"");
  const char* kind = trace_kind_name(rec.kind);
  const std::size_t kind_len = std::strlen(kind);
  std::memcpy(out, kind, kind_len);
  out += kind_len;
  out = put(out, "\", \"a\": ");
  out = std::to_chars(out, end, rec.a).ptr;
  out = put(out, ", \"b\": ");
  out = std::to_chars(out, end, rec.b).ptr;
  out = put(out, ", \"tag\": ");
  out = std::to_chars(out, end, rec.tag).ptr;
  out = put(out, ", \"value\": ");
  out = std::to_chars(out, end, rec.value, std::chars_format::general, 17).ptr;
  out = put(out, "}\n");
  used_ += static_cast<std::size_t>(out - start);
  ++written_;
}

void JsonlTraceSink::flush() {
  drain();
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace uap2p::obs
