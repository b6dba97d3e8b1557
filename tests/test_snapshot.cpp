// Persistent warmed-routing snapshots (underlay/snapshot.hpp): round-trip
// byte-identity against the table the file was written from,
// deterministic serialization regardless of as-path query order, and
// rejection of corrupted / truncated / version-skewed / wrong-topology
// files with a working fresh-build fallback after every rejection.
#include "underlay/snapshot.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "lazy_warm.hpp"
#include "underlay/hierarchy.hpp"
#include "underlay/routing.hpp"
#include "underlay/topology.hpp"

namespace uap2p::underlay {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "uap2p_" + name + ".uap2psnap";
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Writes a warmed snapshot of `topo` to `path` and returns the table it
/// was serialized from (for byte comparisons).
RoutingTable write_snapshot(const AsTopology& topo, const std::string& path) {
  RoutingTable table(topo);
  warm_lazily(topo, table);
  std::string error;
  EXPECT_TRUE(snapshot::write(topo, table, path, &error)) << error;
  return table;
}

void expect_rows_identical(const AsTopology& topo, const RoutingTable& a,
                           const RoutingTable& b) {
  const std::size_t n = topo.router_count();
  for (std::size_t src = 0; src < n; ++src) {
    const auto id = RouterId(static_cast<std::uint32_t>(src));
    const auto ra = a.row(id);
    const auto rb = b.row(id);
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_EQ(std::memcmp(ra.data(), rb.data(), ra.size_bytes()), 0)
        << "source row " << src << " differs";
  }
}

TEST(Snapshot, RoundTripByteIdentity60Routers) {
  const AsTopology topo = AsTopology::mesh(20, 0.4);
  const std::string path = temp_path("roundtrip60");
  RoutingTable fresh = write_snapshot(topo, path);

  std::string error;
  const auto snap = snapshot::MappedSnapshot::open(
      path, &error, snapshot::MappedSnapshot::Verify::kAlways);
  ASSERT_NE(snap, nullptr) << error;
  RoutingTable loaded(topo);
  ASSERT_TRUE(snapshot::attach(*snap, topo, loaded, &error)) << error;
  EXPECT_EQ(loaded.cached_sources(), topo.router_count());
  expect_rows_identical(topo, fresh, loaded);
}

TEST(Snapshot, RoundTripByteIdentity200Routers) {
  // The snapshot-roundtrip gate's shape: 4 transit + 64 stub ASes, 204
  // routers, all link types in play.
  const AsTopology topo = AsTopology::transit_stub(4, 16, 0.3);
  const std::string path = temp_path("roundtrip200");
  RoutingTable fresh = write_snapshot(topo, path);

  std::string error;
  const auto snap = snapshot::MappedSnapshot::open(
      path, &error, snapshot::MappedSnapshot::Verify::kAlways);
  ASSERT_NE(snap, nullptr) << error;
  RoutingTable loaded(topo);
  ASSERT_TRUE(snapshot::attach(*snap, topo, loaded, &error)) << error;
  expect_rows_identical(topo, fresh, loaded);

  // Loaded tables answer queries through the mapped image.
  const auto last = RouterId(std::uint32_t(topo.router_count() - 1));
  EXPECT_EQ(fresh.path(RouterId(0), last).router_hops,
            loaded.path(RouterId(0), last).router_hops);
  EXPECT_DOUBLE_EQ(fresh.latency_ms(RouterId(0), last),
                   loaded.latency_ms(RouterId(0), last));
}

TEST(Snapshot, SerializationIndependentOfAsPathQueryOrder) {
  // The as-path intern table fills lazily in query order; the snapshot
  // must not depend on it. Two tables warmed identically but queried in
  // opposite orders have to serialize to byte-identical files.
  const AsTopology topo = AsTopology::mesh(10, 0.5);
  const auto n = static_cast<std::uint32_t>(topo.router_count());

  RoutingTable forward(topo);
  warm_lazily(topo, forward);
  for (std::uint32_t s = 0; s < n; ++s)
    for (std::uint32_t d = 0; d < n; ++d)
      (void)forward.as_path(RouterId(s), RouterId(d));

  RoutingTable backward(topo);
  warm_lazily(topo, backward);
  for (std::uint32_t s = n; s-- > 0;)
    for (std::uint32_t d = n; d-- > 0;)
      (void)backward.as_path(RouterId(s), RouterId(d));

  const std::string path_f = temp_path("order_forward");
  const std::string path_b = temp_path("order_backward");
  std::string error;
  ASSERT_TRUE(snapshot::write(topo, forward, path_f, &error)) << error;
  ASSERT_TRUE(snapshot::write(topo, backward, path_b, &error)) << error;
  EXPECT_EQ(read_file(path_f), read_file(path_b));
}

TEST(Snapshot, LoadedTableAnswersAsPathsIdentically) {
  const AsTopology topo = AsTopology::mesh(12, 0.4);
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  const std::string path = temp_path("aspaths");

  RoutingTable fresh(topo);
  warm_lazily(topo, fresh);
  for (std::uint32_t s = 0; s < n; ++s)
    for (std::uint32_t d = 0; d < n; ++d)
      (void)fresh.as_path(RouterId(s), RouterId(d));
  std::string error;
  ASSERT_TRUE(snapshot::write(topo, fresh, path, &error)) << error;

  const auto snap = snapshot::MappedSnapshot::open(
      path, &error, snapshot::MappedSnapshot::Verify::kAlways);
  ASSERT_NE(snap, nullptr) << error;
  EXPECT_EQ(snap->as_path_pairs().size(), std::size_t(n) * n);
  RoutingTable loaded(topo);
  ASSERT_TRUE(snapshot::attach(*snap, topo, loaded, &error)) << error;
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t d = 0; d < n; ++d) {
      const auto want = fresh.as_path(RouterId(s), RouterId(d));
      const auto got = loaded.as_path(RouterId(s), RouterId(d));
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
          << "as_path(" << s << "," << d << ") differs";
    }
  }
}

TEST(Snapshot, RejectsFlippedPayloadByte) {
  const AsTopology topo = AsTopology::mesh(8, 0.5);
  const std::string path = temp_path("corrupt_src");
  write_snapshot(topo, path);

  std::vector<char> bytes = read_file(path);
  // Flip one byte in the middle of the row image (well past header and
  // CSR sections).
  bytes[bytes.size() / 2] = char(bytes[bytes.size() / 2] ^ 0x40);
  const std::string corrupt = temp_path("corrupt_flipped");
  write_file(corrupt, bytes);

  std::string error;
  EXPECT_EQ(snapshot::MappedSnapshot::open(
                corrupt, &error, snapshot::MappedSnapshot::Verify::kAlways),
            nullptr);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(Snapshot, RejectsTruncatedFile) {
  const AsTopology topo = AsTopology::mesh(8, 0.5);
  const std::string path = temp_path("trunc_src");
  write_snapshot(topo, path);

  std::vector<char> bytes = read_file(path);
  for (const std::size_t keep :
       {std::size_t(10), std::size_t(100), bytes.size() - 1}) {
    std::vector<char> cut(bytes.begin(), bytes.begin() + std::ptrdiff_t(keep));
    const std::string truncated =
        temp_path("trunc_" + std::to_string(keep));
    write_file(truncated, cut);
    std::string error;
    EXPECT_EQ(snapshot::MappedSnapshot::open(
                  truncated, &error, snapshot::MappedSnapshot::Verify::kAlways),
              nullptr)
        << "accepted a file truncated to " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST(Snapshot, RejectsVersionSkew) {
  const AsTopology topo = AsTopology::mesh(8, 0.5);
  const std::string path = temp_path("skew_src");
  write_snapshot(topo, path);

  std::vector<char> bytes = read_file(path);
  // Header layout: magic (8) then version (4). Pretend a future format.
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  ASSERT_EQ(version, snapshot::kFormatVersion);
  version = snapshot::kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  const std::string skewed = temp_path("skew_bumped");
  write_file(skewed, bytes);

  std::string error;
  EXPECT_EQ(snapshot::MappedSnapshot::open(
                skewed, &error, snapshot::MappedSnapshot::Verify::kAlways),
            nullptr);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Snapshot, RejectsBadMagic) {
  const std::string garbage = temp_path("bad_magic");
  write_file(garbage, std::vector<char>(4096, char(0x5a)));
  std::string error;
  EXPECT_EQ(snapshot::MappedSnapshot::open(
                garbage, &error, snapshot::MappedSnapshot::Verify::kAlways),
            nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Snapshot, AttachRejectsWrongTopology) {
  // Same generator, different seed: the CSR bytes differ, so attach must
  // refuse — a snapshot is keyed to one exact topology.
  const AsTopology topo = AsTopology::mesh(10, 0.5);
  const std::string path = temp_path("wrong_topo");
  write_snapshot(topo, path);

  TopologyConfig other_config;
  other_config.seed = 99;
  const AsTopology other = AsTopology::mesh(10, 0.5, other_config);
  std::string error;
  const auto snap = snapshot::MappedSnapshot::open(
      path, &error, snapshot::MappedSnapshot::Verify::kAlways);
  ASSERT_NE(snap, nullptr) << error;
  RoutingTable table(other);
  EXPECT_FALSE(snapshot::attach(*snap, other, table, &error));
  EXPECT_FALSE(error.empty());

  // The rejected table is still usable as a fresh fallback.
  table.warm_all_hierarchical();
  EXPECT_EQ(table.cached_sources(), other.router_count());
}

TEST(Snapshot, SharedRoutingLoadFallsBackCleanly) {
  const AsTopology topo = AsTopology::mesh(10, 0.5);
  std::string error;
  // Missing file: load fails with an error, build still works.
  EXPECT_EQ(SharedRouting::load(topo, temp_path("does_not_exist"), 0, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
  const auto built = SharedRouting::build(topo);
  ASSERT_NE(built, nullptr);
  EXPECT_FALSE(built->snapshot_backed());

  // With a real snapshot, load succeeds and serves identical paths.
  const std::string path = temp_path("shared_load");
  ASSERT_TRUE(snapshot::write(built->topology(), built->table(), path, &error))
      << error;
  const auto loaded = SharedRouting::load(topo, path, 0, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_TRUE(loaded->snapshot_backed());
  const auto last = RouterId(std::uint32_t(topo.router_count() - 1));
  EXPECT_DOUBLE_EQ(built->path(RouterId(0), last).latency_ms,
                   loaded->path(RouterId(0), last).latency_ms);
}

TEST(Snapshot, InspectReportsSectionsAndChecksums) {
  const AsTopology topo = AsTopology::mesh(8, 0.5);
  const std::string path = temp_path("inspect");
  write_snapshot(topo, path);

  std::string error;
  const auto info = snapshot::inspect(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->header.magic, snapshot::kMagic);
  EXPECT_EQ(info->header.version, snapshot::kFormatVersion);
  EXPECT_EQ(info->header.router_count, topo.router_count());
  EXPECT_EQ(info->sections.size(), std::size_t(9));
  EXPECT_TRUE(info->checksums_ok);
  for (const auto& section : info->sections) EXPECT_TRUE(section.hash_ok);
}

TEST(Snapshot, WriteRefusesUnwarmedTable) {
  const AsTopology topo = AsTopology::mesh(8, 0.5);
  RoutingTable cold(topo);
  std::string error;
  EXPECT_FALSE(snapshot::write(topo, cold, temp_path("unwarmed"), &error));
  EXPECT_FALSE(error.empty());
}

TEST(Snapshot, V2RoundTripAdoptsLandmarks) {
  // A hierarchically warmed table with landmark tables writes the three
  // v2 sections; SharedRouting::load adopts the landmarks verbatim
  // instead of re-running the K landmark Dijkstras.
  const AsTopology topo = AsTopology::transit_stub(3, 6, 0.3);
  const std::string path = temp_path("v2_landmarks");
  RoutingTable table(topo);
  table.warm_all_hierarchical();
  const AltLandmarks& built = table.ensure_landmarks();
  std::string error;
  ASSERT_TRUE(snapshot::write(topo, table, path, &error)) << error;

  const auto snap = snapshot::MappedSnapshot::open(
      path, &error, snapshot::MappedSnapshot::Verify::kAlways);
  ASSERT_NE(snap, nullptr) << error;
  EXPECT_EQ(snap->header().version, snapshot::kFormatVersion);
  EXPECT_EQ(snap->sections().size(), std::size_t(12));
  ASSERT_EQ(snap->landmark_ids().size(), built.count());
  ASSERT_EQ(snap->landmark_dists().size(),
            std::size_t(built.count()) * topo.router_count());
  EXPECT_FALSE(snap->core_order().empty());

  const auto shared = SharedRouting::load(topo, path, 1, &error);
  ASSERT_NE(shared, nullptr) << error;
  const auto adopted = shared->table().landmarks();
  ASSERT_NE(adopted, nullptr);
  ASSERT_EQ(adopted->count(), built.count());
  ASSERT_EQ(adopted->router_count(), built.router_count());
  EXPECT_EQ(std::memcmp(adopted->ids().data(), built.ids().data(),
                        built.ids().size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(adopted->dists().data(), built.dists().data(),
                        built.dists().size_bytes()),
            0);
  const auto last = std::uint32_t(topo.router_count() - 1);
  EXPECT_DOUBLE_EQ(adopted->lower_bound(0, last), built.lower_bound(0, last));
  EXPECT_DOUBLE_EQ(adopted->upper_bound(0, last), built.upper_bound(0, last));
}

TEST(Snapshot, FlatWarmedWriteCarriesNoV2Sections) {
  // A flat-warmed table has neither landmarks nor a hierarchy plan, so a
  // v2 writer emits exactly the v1 section set (only the header version
  // differs) and a load simply finds no landmarks to adopt.
  const AsTopology topo = AsTopology::mesh(8, 0.5);
  const std::string path = temp_path("v2_flat");
  write_snapshot(topo, path);

  std::string error;
  const auto snap = snapshot::MappedSnapshot::open(
      path, &error, snapshot::MappedSnapshot::Verify::kAlways);
  ASSERT_NE(snap, nullptr) << error;
  EXPECT_EQ(snap->sections().size(), std::size_t(9));
  EXPECT_TRUE(snap->landmark_ids().empty());
  EXPECT_TRUE(snap->landmark_dists().empty());
  EXPECT_TRUE(snap->core_order().empty());
  RoutingTable loaded(topo);
  ASSERT_TRUE(snapshot::attach(*snap, topo, loaded, &error)) << error;
  EXPECT_EQ(loaded.landmarks(), nullptr);
}

TEST(Snapshot, AcceptsOlderFormatVersion) {
  // Loaders accept every version back to kMinFormatVersion: rewrite a
  // fresh file's header as v1 (re-sealing header_hash, which covers the
  // version field) and check that open/attach/load all still work, with
  // the landmark tables rebuilt rather than adopted.
  const AsTopology topo = AsTopology::mesh(8, 0.5);
  const std::string path = temp_path("v1_src");
  write_snapshot(topo, path);

  std::vector<char> bytes = read_file(path);
  // Header layout: version u32 at offset 8, section_count u32 at 12,
  // header_hash u64 at 56 — the hash of header + section table with the
  // hash field itself zeroed, which content_hash reproduces because the
  // two regions are contiguous in the file.
  std::uint32_t version = snapshot::kMinFormatVersion;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 12, sizeof(section_count));
  const std::size_t sealed_bytes =
      sizeof(snapshot::Header) + section_count * sizeof(snapshot::SectionRecord);
  ASSERT_LE(sealed_bytes, bytes.size());
  std::memset(bytes.data() + 56, 0, sizeof(std::uint64_t));
  const std::uint64_t header_hash =
      snapshot::content_hash(bytes.data(), sealed_bytes);
  std::memcpy(bytes.data() + 56, &header_hash, sizeof(header_hash));
  const std::string old_path = temp_path("v1_patched");
  write_file(old_path, bytes);

  std::string error;
  const auto snap = snapshot::MappedSnapshot::open(
      old_path, &error, snapshot::MappedSnapshot::Verify::kAlways);
  ASSERT_NE(snap, nullptr) << error;
  EXPECT_EQ(snap->header().version, snapshot::kMinFormatVersion);
  EXPECT_TRUE(snap->landmark_ids().empty());

  RoutingTable loaded(topo);
  ASSERT_TRUE(snapshot::attach(*snap, topo, loaded, &error)) << error;
  EXPECT_EQ(loaded.cached_sources(), topo.router_count());
  EXPECT_EQ(loaded.landmarks(), nullptr);

  const auto shared = SharedRouting::load(topo, old_path, 1, &error);
  ASSERT_NE(shared, nullptr) << error;
  EXPECT_TRUE(shared->snapshot_backed());
  // load() rebuilds the landmark tables an old-format file cannot carry.
  EXPECT_NE(shared->table().landmarks(), nullptr);
}

TEST(Snapshot, ReverifiesAfterInPlaceEditWithRestoredMtime) {
  // An in-place edit (same inode, same size) with the mtime put back
  // must not pass as the file open() already verified.
  const AsTopology topo = AsTopology::mesh(8, 0.5);
  const std::string path = temp_path("forged_identity");
  write_snapshot(topo, path);
  std::string error;
  std::uint64_t rows_offset = 0;
  {
    const auto snap = snapshot::MappedSnapshot::open(path, &error);
    ASSERT_NE(snap, nullptr) << error;
    for (const auto& record : snap->sections()) {
      if (record.id == std::uint32_t(snapshot::SectionId::kDestRows)) {
        rows_offset = record.offset;
      }
    }
  }
  ASSERT_NE(rows_offset, 0u);
  struct stat before;
  ASSERT_EQ(::stat(path.c_str(), &before), 0);

  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    char byte = 0;
    file.seekg(std::streamoff(rows_offset + 17));
    file.read(&byte, 1);
    byte = char(byte ^ 0x40);
    file.seekp(std::streamoff(rows_offset + 17));
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }
  // Put the mtime back. On a kernel with coarse timestamps the edit can
  // land in the same clock tick as the write, so repeat the restore
  // (which itself moves ctime) until ctime has left the old value.
  const struct timespec times[2] = {before.st_atim, before.st_mtim};
  struct stat after;
  for (int tries = 0;; ++tries) {
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    if (after.st_ctim.tv_sec != before.st_ctim.tv_sec ||
        after.st_ctim.tv_nsec != before.st_ctim.tv_nsec) {
      break;
    }
    ASSERT_LT(tries, 1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(after.st_ino, before.st_ino);
  ASSERT_EQ(after.st_size, before.st_size);
  ASSERT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  ASSERT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);

  EXPECT_EQ(snapshot::MappedSnapshot::open(path, &error), nullptr);
  EXPECT_NE(error.find("checksum mismatch in section dest-rows"),
            std::string::npos)
      << error;
}

/// Writes `table` to a fresh temp file named `name` and returns its bytes.
std::vector<char> written_bytes(const AsTopology& topo,
                                const RoutingTable& table,
                                const std::string& name) {
  const std::string path = temp_path(name);
  std::string error;
  EXPECT_TRUE(snapshot::write(topo, table, path, &error)) << error;
  return read_file(path);
}

TEST(Snapshot, LazyOwnedRowsWriteSameBytesAsArenaRows) {
  // One writer path for both row layouts: rows computed one by one by
  // path() (each in its own allocation) must serialize exactly like the
  // contiguous row arena of a full warm. 60 routers fit one staging
  // chunk; 204 routers' rows straddle chunk boundaries.
  for (const AsTopology& topo :
       {AsTopology::mesh(20, 0.4), AsTopology::transit_stub(4, 16, 0.3)}) {
    const auto n = static_cast<std::uint32_t>(topo.router_count());
    RoutingTable arena(topo);
    arena.warm_all_hierarchical();
    arena.ensure_landmarks();

    RoutingTable lazy(topo);
    lazy.ensure_hierarchy();  // the plan, for the core-order section
    lazy.ensure_landmarks();
    for (std::uint32_t src = n; src-- > 0;) {
      (void)lazy.path(RouterId(src), RouterId(0));
    }
    ASSERT_EQ(lazy.cached_sources(), std::size_t(n));

    const std::string tag = std::to_string(n);
    const std::vector<char> want = written_bytes(topo, arena, "arena" + tag);
    EXPECT_EQ(written_bytes(topo, lazy, "lazy" + tag), want) << n << " routers";
    EXPECT_GT(want.size(), std::size_t(n) * n * 32);
  }
}

TEST(Snapshot, ShortWriteFailsCleanly) {
  // The file-size limit makes write(2) fail partway through the rows;
  // write() must report it, remove its temp file and leave the previous
  // file at `path` untouched (the header goes out last, so a torn temp
  // file is never renamed into place).
  const AsTopology topo = AsTopology::transit_stub(4, 16, 0.3);
  RoutingTable table(topo);
  table.warm_all_hierarchical();
  const std::string path = temp_path("short_write");
  std::string error;
  ASSERT_TRUE(snapshot::write(topo, table, path, &error)) << error;
  const std::vector<char> previous = read_file(path);

  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit lowered = saved;
  lowered.rlim_cur = 300 * 1024;  // past the first 256 KiB flush
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  const bool limited = ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  const bool ok = limited && snapshot::write(topo, table, path, &error);
  const bool restored = ::setrlimit(RLIMIT_FSIZE, &saved) == 0;
  std::signal(SIGXFSZ, old_handler);
  ASSERT_TRUE(limited);
  ASSERT_TRUE(restored);

  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("short write"), std::string::npos) << error;
  struct stat info;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &info), 0) << "temp file left";
  EXPECT_EQ(read_file(path), previous);
}

TEST(Snapshot, ContentHashIsStableAndSensitive) {
  const std::vector<std::uint8_t> data(1027, 0xab);
  const std::uint64_t h1 = snapshot::content_hash(data.data(), data.size());
  const std::uint64_t h2 = snapshot::content_hash(data.data(), data.size());
  EXPECT_EQ(h1, h2);
  std::vector<std::uint8_t> tweaked = data;
  tweaked[1000] ^= 1;
  EXPECT_NE(snapshot::content_hash(tweaked.data(), tweaked.size()), h1);
  // Length-sensitive too (same bytes, one fewer).
  EXPECT_NE(snapshot::content_hash(data.data(), data.size() - 1), h1);
}

}  // namespace
}  // namespace uap2p::underlay
