// uap2p_snapshot — write / inspect / verify persistent warmed-routing
// snapshots (underlay/snapshot.hpp, DESIGN.md "Snapshot format").
//
//   uap2p_snapshot write  --out=FILE  [topology flags]
//   uap2p_snapshot info   --file=FILE
//   uap2p_snapshot verify --file=FILE [topology flags]
//
// Topology flags (defaults in brackets):
//   --generator=transit-stub|mesh|ring|star|tree   [transit-stub]
//   --seed=N [1]  --routers-per-as=N [3]
//   --transit=N [3] --stubs=N [5] --peering=P [0.3]   (transit-stub)
//   --ases=N [60] --edge-prob=P [0.1]                 (mesh/ring/star/tree)
//   --branching=N [2]                                 (tree)
//
// `write` generates the topology, batch-warms all-pairs routing through
// warm_all_hierarchical (landmarks included), and serializes it. `info`
// dumps the header, section table, and recomputed checksums. `verify`
// regenerates the topology from the flags, recomputes every row through a
// fresh table's lazy per-source Dijkstra — independent of the
// hierarchical path that wrote the file — and byte-compares each against
// the snapshot: the strong form of the round-trip guarantee the
// snapshot-roundtrip CTest gate relies on. A numeric flag that does not
// parse completely exits with status 2.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "common/flag_number.hpp"
#include "underlay/routing.hpp"
#include "underlay/snapshot.hpp"
#include "underlay/topology.hpp"

using namespace uap2p;
using namespace uap2p::underlay;

namespace {

struct Args {
  std::string command;
  std::string file;
  std::string generator = "transit-stub";
  std::uint64_t seed = 1;
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
    if (const char* v = value("--out=")) args.file = v;
    else if (const char* v = value("--file=")) args.file = v;
    else if (const char* v = value("--generator=")) args.generator = v;
    else if (const char* v = value("--seed=")) args.seed = parse_flag_number<std::uint64_t>("--seed", v);
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
  return args.command == "write" || args.command == "info" ||
         args.command == "verify";
}

AsTopology make_topology(const Args& args) {
  TopologyConfig config;
  config.seed = args.seed;
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

int cmd_write(const Args& args) {
  const AsTopology topo = make_topology(args);
  RoutingTable table(topo);
  // Hierarchical warm (byte-identical to the per-source Dijkstra, which
  // `verify` recomputes and diffs, so the claim is checked end to end)
  // plus the ALT landmark tables, so the file carries the v2 sections and
  // a load skips the landmark Dijkstras too.
  table.warm_all_hierarchical();
  table.ensure_landmarks();
  std::string error;
  if (!snapshot::write(topo, table, args.file, &error)) {
    std::fprintf(stderr, "write failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu ASes, %zu routers, %zu links, %zu row bytes\n",
              args.file.c_str(), topo.as_count(), topo.router_count(),
              topo.link_count(), table.row_bytes());
  return 0;
}

int cmd_info(const Args& args) {
  std::string error;
  const auto info = snapshot::inspect(args.file, &error);
  if (!info.has_value()) {
    std::fprintf(stderr, "inspect failed: %s\n", error.c_str());
    return 1;
  }
  const snapshot::Header& h = info->header;
  std::printf("snapshot %s\n", args.file.c_str());
  std::printf("  magic           0x%016" PRIx64 "\n", h.magic);
  std::printf("  format version  %u\n", h.version);
  std::printf("  routers         %" PRIu64 "\n", h.router_count);
  std::printf("  directed edges  %" PRIu64 "\n", h.edge_count);
  std::printf("  as-path pairs   %" PRIu64 "\n", h.pair_count);
  std::printf("  max edge weight %.6f ms\n", h.max_weight);
  std::printf("  content hash    0x%016" PRIx64 "\n", h.content_hash);
  std::printf("  header hash     0x%016" PRIx64 "\n", h.header_hash);
  std::printf("  sections        %u\n", h.section_count);
  for (const snapshot::SectionInfo& s : info->sections) {
    std::printf("    %-14s offset %10" PRIu64 "  %12" PRIu64
                " bytes  hash 0x%016" PRIx64 " %s\n",
                snapshot::to_string(static_cast<snapshot::SectionId>(s.record.id)),
                s.record.offset, s.record.size, s.record.hash,
                s.hash_ok ? "ok" : "MISMATCH");
  }
  std::printf("  checksums       %s\n", info->checksums_ok ? "ok" : "MISMATCH");
  return info->checksums_ok ? 0 : 1;
}

int cmd_verify(const Args& args) {
  std::string error;
  const auto snap = snapshot::MappedSnapshot::open(
      args.file, &error, snapshot::MappedSnapshot::Verify::kAlways);
  if (snap == nullptr) {
    std::fprintf(stderr, "verify failed: %s\n", error.c_str());
    return 1;
  }
  const AsTopology topo = make_topology(args);
  RoutingTable fresh(topo);
  if (!snapshot::attach(*snap, topo, fresh, &error)) {
    // attach only compares the CSR; a mismatch means the flags describe a
    // different topology than the snapshot was written from.
    std::fprintf(stderr, "verify failed: %s\n", error.c_str());
    return 1;
  }
  // Recompute every row from scratch through the lazy per-source Dijkstra
  // (serial; a path() query fills its source's row) and byte-compare
  // against the mapped image: the recompute-and-diff form of the
  // round-trip guarantee.
  RoutingTable recomputed(topo);
  const std::size_t n = topo.router_count();
  for (std::size_t src = 0; src < n; ++src) {
    const auto id = RouterId(static_cast<std::uint32_t>(src));
    (void)recomputed.path(id, id);
    const auto stored = fresh.row(id);
    const auto live = recomputed.row(id);
    if (std::memcmp(stored.data(), live.data(), stored.size_bytes()) != 0) {
      std::fprintf(stderr,
                   "verify failed: source row %zu differs from a fresh "
                   "warm-all\n",
                   src);
      return 1;
    }
  }
  std::printf("verify ok: %zu rows (%zu entries each) byte-identical to a "
              "fresh warm-all\n",
              n, n);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: uap2p_snapshot <write|info|verify> "
                 "[--out=|--file=FILE] [topology flags]\n");
    return 2;
  }
  if (args.file.empty()) {
    std::fprintf(stderr, "missing --out=/--file=\n");
    return 2;
  }
  if (args.command == "write") return cmd_write(args);
  if (args.command == "info") return cmd_info(args);
  return cmd_verify(args);
}
