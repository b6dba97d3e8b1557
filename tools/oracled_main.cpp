// uap2p_oracled — the oracle query service as a command-line daemon
// harness (src/oracle/service.hpp, DESIGN.md "Oracle service").
//
//   uap2p_oracled gen-requests --out=FILE --requests=N [--candidates=K]
//                 [--peers=N] [--seed=S] [topology flags]
//   uap2p_oracled serve --requests=FILE --out=FILE [--workers=N]
//                 [--ring=N] [--batch=N] [--swap-every=N] [topology flags]
//
// Topology flags match uap2p_snapshot (defaults in brackets):
//   --generator=transit-stub|mesh|ring|star|tree   [transit-stub]
//   --topo-seed=N [1]  --routers-per-as=N [3]
//   --transit=N [3] --stubs=N [5] --peering=P [0.3]
//   --ases=N [60] --edge-prob=P [0.1] --branching=N [2]
//
// `gen-requests` writes a deterministic request file (splitmix64 over
// --seed; no std::random distribution, so the bytes are identical on any
// platform). `serve` warms a SharedRouting for the same topology, starts
// an OracleService, pushes every request through the worker pool, and
// writes one line of ranked peer ids per request in input order. Ranking
// is a pure function of (snapshot, request), so the output is
// byte-identical for any --workers value — and for any --swap-every
// cadence, which republishes an identically-built snapshot mid-serve to
// exercise the swap path. The oracled-smoke CTest gate byte-diffs both
// against a committed golden.
//
// A numeric flag that does not parse completely exits with status 2.
// `serve` refuses a request file with a malformed line — a field with no
// digits, a value above UINT32_MAX, text after the last candidate, or a
// line longer than the 64 KiB read buffer — and names the line.
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "common/flag_number.hpp"
#include "oracle/service.hpp"
#include "underlay/routing.hpp"
#include "underlay/topology.hpp"

using namespace uap2p;
using namespace uap2p::underlay;
using namespace uap2p::oracled;

namespace {

struct Args {
  std::string command;
  std::string out;
  std::string requests_file;
  std::size_t requests = 256;
  std::size_t candidates = 8;
  std::size_t peers = 4096;
  std::uint64_t seed = 42;
  std::size_t workers = 2;
  std::size_t ring = 1024;
  std::size_t batch = 64;
  std::size_t swap_every = 0;
  // Topology flags (uap2p_snapshot's vocabulary).
  std::string generator = "transit-stub";
  std::uint64_t topo_seed = 1;
  std::size_t routers_per_as = 3;
  std::size_t transit = 3;
  std::size_t stubs = 5;
  double peering = 0.3;
  std::size_t ases = 60;
  double edge_prob = 0.1;
  std::size_t branching = 2;
};

bool parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const auto value = [&](std::string_view prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? argv[i] + prefix.size() : nullptr;
    };
    if (const char* v = value("--out=")) args.out = v;
    else if (const char* v = value("--requests=")) {
      // gen-requests counts; serve takes a file path.
      if (args.command == "serve") args.requests_file = v;
      else args.requests = parse_flag_number<std::size_t>("--requests", v);
    }
    else if (const char* v = value("--candidates=")) args.candidates = parse_flag_number<std::size_t>("--candidates", v);
    else if (const char* v = value("--peers=")) args.peers = parse_flag_number<std::size_t>("--peers", v);
    else if (const char* v = value("--seed=")) args.seed = parse_flag_number<std::uint64_t>("--seed", v);
    else if (const char* v = value("--workers=")) args.workers = parse_flag_number<std::size_t>("--workers", v);
    else if (const char* v = value("--ring=")) args.ring = parse_flag_number<std::size_t>("--ring", v);
    else if (const char* v = value("--batch=")) args.batch = parse_flag_number<std::size_t>("--batch", v);
    else if (const char* v = value("--swap-every=")) args.swap_every = parse_flag_number<std::size_t>("--swap-every", v);
    else if (const char* v = value("--generator=")) args.generator = v;
    else if (const char* v = value("--topo-seed=")) args.topo_seed = parse_flag_number<std::uint64_t>("--topo-seed", v);
    else if (const char* v = value("--routers-per-as=")) args.routers_per_as = parse_flag_number<std::size_t>("--routers-per-as", v);
    else if (const char* v = value("--transit=")) args.transit = parse_flag_number<std::size_t>("--transit", v);
    else if (const char* v = value("--stubs=")) args.stubs = parse_flag_number<std::size_t>("--stubs", v);
    else if (const char* v = value("--peering=")) args.peering = parse_flag_number<double>("--peering", v);
    else if (const char* v = value("--ases=")) args.ases = parse_flag_number<std::size_t>("--ases", v);
    else if (const char* v = value("--edge-prob=")) args.edge_prob = parse_flag_number<double>("--edge-prob", v);
    else if (const char* v = value("--branching=")) args.branching = parse_flag_number<std::size_t>("--branching", v);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return args.command == "gen-requests" || args.command == "serve";
}

AsTopology make_topology(const Args& args) {
  TopologyConfig config;
  config.seed = args.topo_seed;
  config.routers_per_as = args.routers_per_as;
  if (args.generator == "transit-stub") {
    return AsTopology::transit_stub(args.transit, args.stubs, args.peering,
                                    config);
  }
  if (args.generator == "mesh") {
    return AsTopology::mesh(args.ases, args.edge_prob, config);
  }
  if (args.generator == "ring") return AsTopology::ring(args.ases, config);
  if (args.generator == "star") return AsTopology::star(args.ases, config);
  if (args.generator == "tree") {
    return AsTopology::tree(args.ases, args.branching, config);
  }
  std::fprintf(stderr, "unknown generator: %s\n", args.generator.c_str());
  std::exit(2);
}

/// Platform-stable generator for the request fixture (std:: distributions
/// are not byte-stable across standard libraries).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int cmd_gen_requests(const Args& args) {
  const AsTopology topo = make_topology(args);
  const std::uint64_t routers = topo.router_count();
  std::FILE* out = std::fopen(args.out.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(out, "# uap2p_oracled requests v1\n");
  std::uint64_t state = args.seed;
  for (std::size_t r = 0; r < args.requests; ++r) {
    const std::uint64_t client = splitmix64(state) % routers;
    std::fprintf(out, "%llu %zu", (unsigned long long)client, args.candidates);
    for (std::size_t c = 0; c < args.candidates; ++c) {
      const std::uint64_t peer = splitmix64(state) % args.peers;
      const std::uint64_t router = splitmix64(state) % routers;
      std::fprintf(out, " %llu:%llu", (unsigned long long)peer,
                   (unsigned long long)router);
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::printf("wrote %zu requests (%zu candidates each, %llu routers) to %s\n",
              args.requests, args.candidates, (unsigned long long)routers,
              args.out.c_str());
  return 0;
}

struct ParsedRequests {
  // RankRequest carries an atomic (not movable), so the arena is a fixed
  // array sized once after parsing.
  std::unique_ptr<RankRequest[]> requests;
  std::size_t count = 0;
  std::vector<Candidate> candidates;  ///< One arena; requests point into it.
  std::vector<std::uint32_t> ranked;  ///< Output arena.
};

/// One unsigned decimal field of a request line at `cursor` (leading
/// blanks skipped), advancing past it. Null on success, else why not.
const char* read_u32(const char*& cursor, const char* end,
                     std::uint32_t& out) {
  while (cursor < end && (*cursor == ' ' || *cursor == '\t')) ++cursor;
  const auto [stop, ec] = std::from_chars(cursor, end, out);
  if (ec == std::errc::result_out_of_range) return "value above UINT32_MAX";
  if (ec != std::errc()) return "field has no digits";
  cursor = stop;
  return nullptr;
}

/// Parses one "client count peer:router..." line, appending its
/// candidates to the arena. Null on success, else why it is malformed.
const char* parse_request_line(const char* cursor, const char* end,
                               std::uint32_t& client, std::uint32_t& count,
                               std::vector<Candidate>& candidates) {
  if (const char* why = read_u32(cursor, end, client)) return why;
  if (const char* why = read_u32(cursor, end, count)) return why;
  for (std::uint32_t c = 0; c < count; ++c) {
    Candidate candidate{};
    if (const char* why = read_u32(cursor, end, candidate.peer)) return why;
    if (cursor == end || *cursor != ':') return "candidate without ':'";
    ++cursor;
    if (const char* why = read_u32(cursor, end, candidate.router)) return why;
    candidates.push_back(candidate);
  }
  for (; cursor < end; ++cursor) {
    if (std::isspace(static_cast<unsigned char>(*cursor)) == 0) {
      return "trailing text after the last candidate";
    }
  }
  return nullptr;
}

bool load_requests(const std::string& path, ParsedRequests& parsed) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  struct Raw {
    std::uint32_t client;
    std::size_t first;
    std::uint32_t count;
  };
  std::vector<Raw> raw;
  char line[1 << 16];
  std::size_t line_number = 0;
  while (std::fgets(line, sizeof line, in) != nullptr) {
    ++line_number;
    const std::size_t length = std::strlen(line);
    const char* why = nullptr;
    Raw r{0, parsed.candidates.size(), 0};
    if (length == sizeof line - 1 && line[length - 1] != '\n') {
      why = "longer than the 64 KiB line buffer";
    } else if (line[0] == '#' || line[0] == '\n' || line[0] == '\0') {
      continue;
    } else {
      why = parse_request_line(line, line + length, r.client, r.count,
                               parsed.candidates);
    }
    if (why != nullptr) {
      std::fprintf(stderr, "%s: malformed request line %zu: %s\n",
                   path.c_str(), line_number, why);
      std::fclose(in);
      return false;
    }
    raw.push_back(r);
  }
  std::fclose(in);
  // The candidate arena is final; now the pointers are stable.
  parsed.ranked.assign(parsed.candidates.size(), 0);
  parsed.count = raw.size();
  parsed.requests = std::make_unique<RankRequest[]>(parsed.count);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    RankRequest& req = parsed.requests[i];
    req.client_router = raw[i].client;
    req.candidate_count = raw[i].count;
    req.candidates = parsed.candidates.data() + raw[i].first;
    req.ranked = parsed.ranked.data() + raw[i].first;
  }
  return true;
}

int cmd_serve(const Args& args) {
  if (args.requests_file.empty()) {
    std::fprintf(stderr, "serve needs --requests=FILE\n");
    return 2;
  }
  ParsedRequests parsed;
  if (!load_requests(args.requests_file, parsed)) return 1;

  const AsTopology topo = make_topology(args);
  auto snapshot = SharedRouting::build(topo, /*threads=*/0);
  // A second, identically-built snapshot lets --swap-every exercise the
  // publication path on every cadence tick without mid-serve warm-up cost;
  // the ranked output must stay byte-identical through every swap.
  std::shared_ptr<const SharedRouting> alternate;
  if (args.swap_every != 0) {
    alternate = SharedRouting::build(make_topology(args), /*threads=*/0);
  }

  ServiceConfig config;
  config.workers = args.workers;
  config.ring_capacity = args.ring;
  config.max_batch = args.batch;
  OracleService service(snapshot, config);

  std::size_t swaps = 0;
  for (std::size_t i = 0; i < parsed.count; ++i) {
    RankRequest* req = &parsed.requests[i];
    while (!service.submit(req)) {
      // Ring full (tiny --ring values): the service is draining; retry.
      std::this_thread::yield();
    }
    if (args.swap_every != 0 && (i + 1) % args.swap_every == 0) {
      service.publish((++swaps % 2 != 0) ? alternate : snapshot);
    }
  }
  for (std::size_t i = 0; i < parsed.count; ++i) {
    wait_terminal(parsed.requests[i]);
  }
  service.stop();

  std::FILE* out = std::fopen(args.out.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < parsed.count; ++i) {
    const RankRequest& req = parsed.requests[i];
    if (req.state.load(std::memory_order_acquire) != RequestState::kDone) {
      std::fprintf(out, "SHED\n");
      continue;
    }
    for (std::uint32_t i = 0; i < req.candidate_count; ++i) {
      std::fprintf(out, i == 0 ? "%u" : " %u", req.ranked[i]);
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stderr,
               "served %zu requests (%llu completed, %llu shed, %llu swaps "
               "observed) with %zu workers\n",
               parsed.count,
               (unsigned long long)service.completed(),
               (unsigned long long)(service.shed_admission() +
                                    service.shed_deadline()),
               (unsigned long long)service.swaps_observed(), args.workers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: uap2p_oracled <gen-requests|serve> --out=FILE "
                 "[--requests=N|FILE] [service/topology flags]\n");
    return 2;
  }
  if (args.out.empty()) {
    std::fprintf(stderr, "missing --out=\n");
    return 2;
  }
  if (args.command == "gen-requests") return cmd_gen_requests(args);
  return cmd_serve(args);
}
