// Workload `oracle-open`: oracled::OracleService with 2 workers serving
// the warmed 2730-router transit_stub(10, 90, 0.3) snapshot, whose 238 MB
// of DestEntry rows lie far beyond the last-level cache. One generator
// thread offers an open-loop Poisson stream (8 candidates per request):
// a warm-up, a fixed ladder of rates walked upward, a closed-window
// capacity phase, then segments at the reference rate. A side thread
// publishes one of two SharedRouting::load'ed snapshots once a second. No
// sim or overlay code runs.
//
// Latency is timed from each request's due time on the seeded arrival
// schedule, so a generator stall is charged to the requests it delays.
// Refusals (no free request slot, or the service shedding at admission)
// and deadline sheds are failed requests and miss every latency limit.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "oracle/service.hpp"
#include "stack.hpp"
#include "underlay/snapshot.hpp"

namespace perfbench {
namespace {

using namespace uap2p;
using oracled::Candidate;
using oracled::OracleService;
using oracled::RankRequest;
using oracled::RequestState;

/// The latency limit max_rate_rps is judged against (on the p99).
constexpr double kLimitNs = 1e6;
/// The latency a failed request is counted with.
constexpr double kMissedNs = 1e12;
/// Generator lateness (p99) that marks it as fallen behind the schedule.
constexpr double kBehindNs = 1e6;
/// Capacity is the median completion rate over windows this long.
constexpr double kThroughputWindowS = 0.05;
/// Requests in flight beyond which a rung is a growing backlog (and stops,
/// so the generator's window and the rings never fill).
constexpr std::size_t kBacklog = 1 << 15;
constexpr std::size_t kWindow = 1 << 17;  ///< Generator request slots.
constexpr std::size_t kRingCapacity = 1 << 16;  ///< Per worker.
/// Requests kept in flight while measuring capacity.
constexpr std::size_t kSaturationDepth = 4096;
/// Most requests one segment may offer; a segment stops offering there.
constexpr std::size_t kMaxSegment = 1 << 21;
constexpr std::uint64_t kMissing = 0;  ///< Digest of an unanswered request.
/// Set-ups an untraced run times; setup_s is their median.
constexpr std::size_t kSetups = 7;

/// The fixed ladder: rung k offers base * 2^(k/4) requests/s, about 19%
/// apart, for k = 0 .. kRungs - 1 (base to 16x base).
constexpr int kRungs = 17;
double ladder_rate(double base, int k) { return base * std::exp2(k / 4.0); }

/// One stretch of load at one offered rate, summarised.
struct Segment {
  double rate = 0.0;
  std::uint64_t first_index = 0;  ///< Stream index of its first request.
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;         ///< Admission or deadline sheds seen.
  std::uint64_t window_full = 0;  ///< No free slot when the request was due.
  bool backlog = false;           ///< Stopped: in-flight exceeded kBacklog.
  double p50_ns = 0.0;
  double p99_ns = 0.0;       ///< Failed requests count as misses.
  double late_p99_ns = 0.0;  ///< Of the generator's lateness.
  /// Completions per second per window (saturation segments only).
  std::vector<double> throughput_windows;

  /// A rung meets the limit when its p99 is within it, the generator
  /// kept up with the schedule and no backlog built up.
  [[nodiscard]] bool meets_limit() const {
    return !backlog && late_p99_ns <= kBehindNs && p99_ns <= kLimitNs;
  }
};

/// The open-loop generator: a window of caller-owned request slots, an
/// in-flight FIFO harvested from its head, and per-request latency,
/// lateness and reply digest for the current segment, all preallocated.
class Generator {
 public:
  Generator(OracleService& service, std::uint64_t seed, std::uint32_t routers)
      : service_(service),
        seed_(seed),
        routers_(routers),
        arrivals_(derive_seed(seed, 1)),
        slots_(std::make_unique<RankRequest[]>(kWindow)),
        candidates_(kWindow * kCandidates),
        ranked_(kWindow * kCandidates),
        index_(kWindow),
        due_(kWindow),
        fifo_(kWindow),
        latency_(kMaxSegment),
        late_(kMaxSegment),
        digests_(kMaxSegment) {
    free_.reserve(kWindow);
    for (std::size_t i = kWindow; i-- > 0;) {
      free_.push_back(std::uint32_t(i));
      slots_[i].ranked = ranked_.data() + i * kCandidates;
    }
  }

  /// Offers `rate` requests/s for `seconds`, then waits for every request
  /// it admitted. With `stop_on_backlog` the rung ends early once the
  /// in-flight count shows a growing backlog.
  Segment run(double rate, double seconds, bool stop_on_backlog) {
    Segment seg;
    seg.rate = rate;
    seg.first_index = next_index_;
    latencies_ = 0;
    const double mean_gap_ns = 1e9 / rate;
    const std::uint64_t start = now_ns();
    const auto end = std::uint64_t(double(start) + seconds * 1e9);
    double due = double(start);
    for (;;) {
      const std::uint64_t now = now_ns();
      harvest(seg, 32);
      if (due > double(now)) continue;
      if (due >= double(end) || seg.attempted == kMaxSegment) break;
      late_[seg.attempted] = double(now) - due;
      offer(seg, due);
      // Exponential inter-arrival gap: u in (0, 1], -ln(u) * mean.
      const double u =
          (double(splitmix64(arrivals_) >> 11) + 1.0) / 9007199254740993.0;
      due += -std::log(u) * mean_gap_ns;
      if (stop_on_backlog && in_flight_ > kBacklog) {
        seg.backlog = true;
        break;
      }
    }
    while (in_flight_ != 0) harvest(seg, kWindow);

    std::vector<double> latency(latency_.begin(),
                                latency_.begin() + std::ptrdiff_t(latencies_));
    seg.p50_ns = quantile(latency, 0.5);
    seg.p99_ns = quantile(latency, 0.99);
    std::vector<double> late(late_.begin(),
                             late_.begin() + std::ptrdiff_t(seg.attempted));
    seg.late_p99_ns = quantile(late, 0.99);
    return seg;
  }

  /// Closed loop at saturation: keeps `depth` requests in flight for
  /// `seconds` and records the completion rate of every
  /// kThroughputWindowS window in `throughput_windows`.
  Segment saturate(double seconds, std::size_t depth) {
    Segment seg;
    seg.first_index = next_index_;
    latencies_ = 0;
    const auto window_ns = std::uint64_t(kThroughputWindowS * 1e9);
    const std::uint64_t start = now_ns();
    const auto end = std::uint64_t(double(start) + seconds * 1e9);
    std::uint64_t window_start = start;
    std::uint64_t window_done = 0;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= end) break;
      harvest(seg, 64);
      while (in_flight_ < depth && seg.attempted < kMaxSegment) {
        late_[seg.attempted] = 0.0;
        offer(seg, double(now));
      }
      if (now - window_start >= window_ns) {
        seg.throughput_windows.push_back(double(seg.completed - window_done) *
                                         1e9 / double(now - window_start));
        window_start = now;
        window_done = seg.completed;
      }
    }
    while (in_flight_ != 0) harvest(seg, kWindow);
    return seg;
  }

  /// Replays the last segment's requests through rank_request on
  /// `routing` (in parallel); returns how many answered ones disagree.
  std::uint64_t verify(const underlay::SharedRouting& routing,
                       const Segment& seg) const {
    std::vector<std::uint64_t> mismatches(kThreads, 0);
    const std::size_t chunk = (seg.attempted + kThreads - 1) / kThreads;
    parallel_for(
        kThreads,
        [&](std::size_t t) {
          Candidate candidates[kCandidates];
          std::uint32_t ranked[kCandidates];
          const std::size_t end = std::min<std::size_t>(seg.attempted,
                                                        (t + 1) * chunk);
          for (std::size_t i = t * chunk; i < end; ++i) {
            if (digests_[i] == kMissing) continue;
            RankRequest req;
            fill_request(seed_, seg.first_index + i, routers_, req,
                         candidates);
            req.ranked = ranked;
            oracled::rank_request(routing, req);
            if (reply_digest(req) != digests_[i]) ++mismatches[t];
          }
        },
        kThreads);
    std::uint64_t total = 0;
    for (const std::uint64_t m : mismatches) total += m;
    return total;
  }

 private:
  /// Offers the stream's next request, due at `due`: submits it, or
  /// counts it failed when no slot is free or the service sheds it.
  void offer(Segment& seg, double due) {
    const std::uint64_t index = next_index_++;
    digests_[seg.attempted] = kMissing;
    ++seg.attempted;
    if (free_.empty()) {
      ++seg.window_full;
      latency_[latencies_++] = kMissedNs;
      return;
    }
    const std::uint32_t slot = free_.back();
    RankRequest& req = slots_[slot];
    fill_request(seed_, index, routers_, req,
                 candidates_.data() + std::size_t(slot) * kCandidates);
    if (!service_.submit(&req)) {
      ++seg.shed;
      latency_[latencies_++] = kMissedNs;
      return;
    }
    free_.pop_back();
    index_[slot] = index;
    due_[slot] = due;
    fifo_[(head_ + in_flight_) % kWindow] = slot;
    ++in_flight_;
  }

  /// Retires up to `limit` terminal requests from the FIFO head.
  void harvest(Segment& seg, std::size_t limit) {
    while (in_flight_ != 0 && limit-- != 0) {
      const std::uint32_t slot = fifo_[head_];
      RankRequest& req = slots_[slot];
      const RequestState state = req.state.load(std::memory_order_acquire);
      if (state == RequestState::kQueued) return;
      if (state == RequestState::kDone) {
        latency_[latencies_++] = double(req.done_ns) - due_[slot];
        digests_[index_[slot] - seg.first_index] = reply_digest(req);
        ++seg.completed;
      } else {
        ++seg.shed;
        latency_[latencies_++] = kMissedNs;
      }
      req.state.store(RequestState::kFree, std::memory_order_relaxed);
      free_.push_back(slot);
      head_ = (head_ + 1) % kWindow;
      --in_flight_;
    }
  }

  OracleService& service_;
  std::uint64_t seed_;
  std::uint32_t routers_;
  std::uint64_t arrivals_;  ///< splitmix64 state of the arrival schedule.
  std::unique_ptr<RankRequest[]> slots_;
  std::vector<Candidate> candidates_;
  std::vector<std::uint32_t> ranked_;
  std::vector<std::uint64_t> index_;  ///< Request index held by each slot.
  std::vector<double> due_;           ///< Due time of each slot's request.
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> fifo_;
  std::size_t head_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t next_index_ = 0;
  // Per request of the current segment.
  std::vector<double> latency_;  ///< In completion order; misses kMissedNs.
  std::size_t latencies_ = 0;
  std::vector<double> late_;              ///< By offer order.
  std::vector<std::uint64_t> digests_;    ///< By offer order.
};

/// Publishes two loaded snapshots in turn, once a second, until stopped:
/// the writer beside the workers' reads on the SharedRoutingSlot.
class Republisher {
 public:
  Republisher(OracleService& service,
              std::shared_ptr<const underlay::SharedRouting> a,
              std::shared_ptr<const underlay::SharedRouting> b)
      : service_(service), snapshots_{std::move(a), std::move(b)} {
    thread_ = std::thread([this] { loop(); });
  }
  ~Republisher() { stop(); }
  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  void stop() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> publish_us;  ///< Read after stop().

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    for (std::size_t n = 1; !cv_.wait_for(lock, std::chrono::seconds(1),
                                          [this] { return stopping_; });
         ++n) {
      lock.unlock();
      const std::uint64_t t = now_ns();
      service_.publish(snapshots_[n % 2]);
      publish_us.push_back(double(now_ns() - t) * 1e-3);
      lock.lock();
    }
  }

  OracleService& service_;
  std::shared_ptr<const underlay::SharedRouting> snapshots_[2];
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;  ///< Declared last: it uses every member above.
};

/// Reads one byte of every page of `routing`'s rows, so the mapping's
/// page faults land in set-up rather than on the first requests served.
std::uint64_t touch_rows(const underlay::SharedRouting& routing) {
  const std::size_t n = routing.topology().router_count();
  constexpr std::size_t kStride =
      4096 / sizeof(underlay::RoutingTable::DestEntry);
  std::uint64_t sum = 0;
  for (std::size_t src = 0; src < n; ++src) {
    const auto row = routing.table().row(RouterId(std::uint32_t(src)));
    for (std::size_t i = 0; i < row.size(); i += kStride) {
      sum += row[i].router_hops;
    }
  }
  return sum;
}

/// rank_batch on one thread over the first `count` requests of the
/// stream, in service-sized batches: the ranking cost without the rings.
double rank_ns_per_request(const underlay::SharedRouting& routing,
                           std::uint64_t seed, std::size_t count) {
  const auto routers = std::uint32_t(routing.topology().router_count());
  constexpr std::size_t kBatch = 256;
  std::vector<RankRequest> reqs(kBatch);
  std::vector<Candidate> candidates(kBatch * kCandidates);
  std::vector<std::uint32_t> ranked(kBatch * kCandidates);
  std::vector<RankRequest*> batch(kBatch);
  std::uint64_t busy = 0;
  for (std::size_t base = 0; base < count; base += kBatch) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      fill_request(seed, base + i, routers, reqs[i],
                   candidates.data() + i * kCandidates);
      reqs[i].ranked = ranked.data() + i * kCandidates;
      batch[i] = &reqs[i];
    }
    const std::uint64_t t = now_ns();
    oracled::rank_batch(routing, batch);
    busy += now_ns() - t;
  }
  return double(busy) / double(count);
}

}  // namespace

Outcome run_oracle_open(const Options& options, Report& report,
                        Tracer& tracer) {
  Outcome outcome;
  const bool tracing = tracer.enabled();
  // One provider network for every seed; the seed draws the request
  // stream and its arrival schedule.
  const std::uint64_t topo_seed = derive_seed(0, 100);
  const std::uint64_t request_seed = derive_seed(options.seed, 300);
  const std::string path =
      (std::filesystem::path(options.out_dir) /
       ("oracle-open-" + std::to_string(options.seed) + ".uap2psnap"))
          .string();
  // The rate p50/p99 are reported at, also the ladder's lowest rung.
  const double reference_rate = options.small ? 20000.0 : 200000.0;
  const double rung_s = options.small ? 0.05 : 0.5;
  const double saturate_s = options.small ? 0.1 : 0.5;
  const double segment_s = options.small ? 0.25 : 1.0;
  const double warmup_s = options.small ? 0.1 : 0.5;

  // Set-up, kSetups times over, each from a cold row arena: topology,
  // routing build, snapshot write, two loads of the snapshot with every
  // row page touched, service start and its first reply. The last one
  // serves the run; the republisher alternates its two loads.
  std::shared_ptr<const underlay::SharedRouting> loaded[2];
  std::unique_ptr<OracleService> service;
  oracled::ServiceConfig config;
  config.workers = 2;
  config.ring_capacity = kRingCapacity;
  config.deadline_ns = 50'000'000;  // 50 ms: a stale ranking is worthless
  std::uint64_t touched = 0;
  const std::size_t setups = tracing ? 1 : kSetups;
  for (std::size_t s = 0; s < setups; ++s) {
    service.reset();
    loaded[0].reset();
    loaded[1].reset();
    // The previous set-up's file is removed off the clock: a write that
    // replaced it would also pay for freeing its 240 MB of pages.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    underlay::RoutingTable::trim_row_arena_pool();
    ScopedSpan setup_span(tracer, "perfbench.setup");
    const std::uint64_t start = now_ns();
    {
      std::int32_t span = tracer.begin("routing.build");
      std::uint64_t t = now_ns();
      auto built = underlay::SharedRouting::build(
          provider_topology(options.small, topo_seed), kThreads);
      report.sample("routing.build_ms", double(now_ns() - t) * 1e-6, "ms");
      report.set("routing.row_mb", double(built->table().row_bytes()) / 1e6,
                 "MB");
      tracer.end(span);
      span = tracer.begin("snapshot.write");
      t = now_ns();
      std::string error;
      const bool ok = underlay::snapshot::write(built->topology(),
                                                built->table(), path, &error);
      outcome.check(ok, "snapshot write failed: " + error);
      report.sample("snapshot.write_ms", double(now_ns() - t) * 1e-6, "ms");
      tracer.end(span);
    }
    underlay::RoutingTable::trim_row_arena_pool();
    for (auto& snapshot : loaded) {
      ScopedSpan span(tracer, "snapshot.load");
      const std::uint64_t t = now_ns();
      std::string error;
      snapshot = underlay::SharedRouting::load(
          provider_topology(options.small, topo_seed), path, kThreads, &error);
      report.sample("snapshot.load_ms", double(now_ns() - t) * 1e-6, "ms");
      if (snapshot == nullptr) {
        outcome.check(false, "snapshot load failed: " + error);
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return outcome;
      }
      ScopedSpan touch(tracer, "snapshot.touch_rows");
      touched += touch_rows(*snapshot);
    }
    const std::uint64_t service_start = now_ns();
    {
      ScopedSpan span(tracer, "oracle.service_start");
      service = std::make_unique<OracleService>(loaded[0], config);
    }
    {
      ScopedSpan span(tracer, "oracle.first_reply");
      const auto routers = std::uint32_t(loaded[0]->topology().router_count());
      outcome.check(ask(*service, request_seed, routers) != 0,
                    "the service did not answer its first request");
    }
    report.sample("oracle.first_reply_us",
                  double(now_ns() - service_start) * 1e-3, "us");
    report.sample("setup_s", seconds_since(start), "s");
  }
  report.set("snapshot.file_mb",
             double(std::filesystem::file_size(path)) / 1e6, "MB");
  outcome.check(touched != 0, "the loaded snapshots read back as all zero");
  if (tracing) {
    const BuildSteps steps = build_stepwise(
        [&] { return provider_topology(options.small, topo_seed); }, tracer);
    report.set("underlay.topology_ms", steps.topology_ms, "ms");
    report.set("underlay.as_hops_ms", steps.as_hops_ms, "ms");
    report.set("underlay.csr_ms", steps.csr_ms, "ms");
    report.set("routing.plan_ms", steps.plan_ms, "ms");
    report.set("routing.warm_ms", steps.warm_ms, "ms");
    report.set("routing.landmarks_ms", steps.landmarks_ms, "ms");
    report.set("routing.step_sum_ms", steps.sum_ms(), "ms");
  }

  // Serving: warm-up, the ladder climb, the capacity phase, then
  // reference-rate segments for the rest of the run.
  const underlay::SharedRouting& routing = *loaded[0];
  const auto routers = std::uint32_t(routing.topology().router_count());
  Generator generator(*service, request_seed, routers);
  std::vector<double> ref_p50, ref_p99, ref_late_p99;
  std::vector<double> ref_p50_on, ref_p50_off;
  std::uint64_t attempted = 0, shed = 0, window_full = 0, completed = 0;
  std::uint64_t mismatches = 0;
  // Every segment's replies are checked right after it, off the clock.
  const auto account = [&](const Segment& seg) {
    mismatches += generator.verify(routing, seg);
    attempted += seg.attempted;
    completed += seg.completed;
    shed += seg.shed;
    window_full += seg.window_full;
  };
  Republisher republisher(*service, loaded[1], loaded[0]);
  {
    // Warm-up at the reference rate: lazy first touches of the request
    // buffers and the rows land here, not in the first rung.
    ScopedSpan span(tracer, "oracle.warmup");
    account(generator.run(reference_rate, warmup_s, false));
  }
  const std::uint64_t serve_start = now_ns();
  {
    ScopedSpan climb(tracer, "oracle.ladder");
    // Every rung of the fixed ladder, upward; max rate is the highest rung
    // that meets the limit. Rungs past capacity end within milliseconds
    // on their growing backlog.
    double max_rate = 0.0;
    for (int k = 0; k < kRungs; ++k) {
      ScopedSpan span(tracer, "oracle.rung");
      const Segment seg =
          generator.run(ladder_rate(reference_rate, k), rung_s, true);
      account(seg);
      std::printf("ladder: %9.0f req/s  p99 %10.1f us  %s\n", seg.rate,
                  seg.p99_ns * 1e-3, seg.meets_limit() ? "meets" : "misses");
      if (seg.meets_limit()) max_rate = seg.rate;
    }
    report.set("oracle.max_rate_rps", max_rate, "1/s");
  }
  {
    // Capacity: completions per second with a closed window of requests
    // in flight, median over windows. Steadier on a shared host than the
    // ladder's max rate, whose pass/fail edge amplifies stolen slices.
    std::vector<double> windows;
    for (int s = 0; s < (options.small ? 2 : 4); ++s) {
      ScopedSpan span(tracer, "oracle.saturate");
      const Segment seg = generator.saturate(saturate_s, kSaturationDepth);
      account(seg);
      windows.insert(windows.end(), seg.throughput_windows.begin(),
                     seg.throughput_windows.end());
    }
    report.set("ops_per_s", median(windows), "1/s");
    report.set("oracle.saturated_rps", median(windows), "1/s");
  }
  const double ladder_s = seconds_since(serve_start);
  {
    const double remaining = std::max(0.0, options.seconds - ladder_s);
    const auto segments =
        std::max<std::size_t>(3, std::size_t(remaining / segment_s));
    for (std::size_t s = 0; s < segments; ++s) {
      // The traced run alternates traced and untraced segments.
      const bool traced = tracing && s % 2 == 0;
      tracer.set_enabled(traced);
      std::int32_t span = tracer.begin("oracle.reference_segment");
      Segment seg = generator.run(reference_rate, segment_s, false);
      tracer.end(span);
      account(seg);
      const double p50 = seg.p50_ns * 1e-3;
      (traced ? ref_p50_on : ref_p50_off).push_back(p50);
      if (!traced) {
        ref_p50.push_back(p50);
        ref_p99.push_back(seg.p99_ns * 1e-3);
        ref_late_p99.push_back(seg.late_p99_ns * 1e-3);
      }
    }
    tracer.set_enabled(tracing);
  }
  republisher.stop();
  service->stop();

  // Checks and accounting.
  outcome.check(mismatches == 0,
                std::to_string(mismatches) +
                    " replies differ from rank_request on the same snapshot");
  outcome.check(completed > 0, "no request completed");
  outcome.attempted = attempted;
  outcome.failed = shed + window_full + mismatches;

  obs::MetricsRegistry registry;
  service->export_metrics(registry);
  const double batches = double(registry.counter("oracled.batches").value());
  report.set("p50_us", median(ref_p50), "us");
  report.set("oracle.p50_us", median(ref_p50), "us");
  report.set("oracle.p99_us", median(ref_p99), "us");
  report.set("oracle.gen_late_us", median(ref_late_p99), "us");
  report.set("oracle.fail_frac",
             double(shed + window_full) / double(std::max<std::uint64_t>(
                                              attempted, 1)),
             "ratio");
  report.set("oracle.shed_admission", double(service->shed_admission()),
             "count");
  report.set("oracle.shed_deadline", double(service->shed_deadline()),
             "count");
  report.set("oracle.window_full", double(window_full), "count");
  report.set("oracle.mean_batch",
             double(service->completed()) / std::max(batches, 1.0), "count");
  report.set("oracle.swaps_observed", double(service->swaps_observed()),
             "count");
  report.set("oracle.requests", double(attempted), "count");
  report.set("oracle.publish_us", median(republisher.publish_us), "us");
  if (tracing) {
    const double rank_ns = rank_ns_per_request(
        routing, request_seed, options.small ? 20000 : 200000);
    report.set("oracle.rank_ns_per_req", rank_ns, "ns");
    report.set("oracle.service_overhead_us",
               median(ref_p50) - rank_ns * 1e-3, "us");
    report.set("trace.overhead_pct",
               (median(ref_p50_on) / median(ref_p50_off) - 1.0) * 100.0, "%");
  }
  service.reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return outcome;
}

}  // namespace perfbench
