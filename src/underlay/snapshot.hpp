// Persistent warmed-routing snapshots (DESIGN.md "Snapshot format").
//
// A snapshot serializes an AsTopology's RouterCsr plus every warmed
// per-source DestEntry row (and the sorted keys of any materialized
// as-paths) into one fixed-width-record file: a 64-byte header, a section
// table, then 64-byte-aligned little-endian POD sections, each carrying
// its own 64-bit content hash. Loading mmaps the file and adopts the row
// image in place — zero Dijkstra, zero copies of the O(N²) rows — after
// byte-comparing the stored CSR against the live topology's, which pins
// the file to one exact (generator, params, seed).
//
// Verification policy: header + section table + bounds are checked on
// every open. Section *content* hashes cover every payload byte, but
// re-hashing a multi-hundred-MB row image runs at memory bandwidth (on a
// 4-vCPU Intel Xeon, Release: 45-52 ms to hash the 238 MB row image of
// 2730 routers from DRAM, ~5 GB/s on one core; 65-69 ms for a full
// verifying open of the 288 MB 3000-router file — slower than the whole
// rest of the load path), so open() verifies content once per file
// identity (path, device, inode, size, mtime, ctime) per process and
// skips the re-hash for later opens of the unchanged file; any rewrite,
// in place or not, changes the identity (ctime cannot be set back from
// user space) and forces a fresh verify. Verify::kAlways (the CLI
// `verify`/`info` path and the corruption tests) re-hashes
// unconditionally.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "underlay/routing.hpp"
#include "underlay/topology.hpp"

namespace uap2p::underlay::snapshot {

/// "UAP2PSNP" little-endian.
inline constexpr std::uint64_t kMagic = 0x504e535032504155ull;
/// Bump on any layout change; loaders reject *newer* versions (no
/// migration — a snapshot is a cache, the fallback is a fresh warm) but
/// keep accepting every older version whose sections are a subset of the
/// current layout. v2 added the optional hierarchical-preprocessing
/// sections (landmark tables + contraction order); v1 files still load,
/// they just carry no landmarks to adopt.
inline constexpr std::uint32_t kFormatVersion = 2;
/// Oldest version open() accepts.
inline constexpr std::uint32_t kMinFormatVersion = 1;

enum class SectionId : std::uint32_t {
  kCsrOffsets = 1,    ///< u32[router_count + 1]
  kCsrHeads = 2,      ///< u32[edge_count]
  kCsrWeights = 3,    ///< f64[edge_count]
  kCsrLinks = 4,      ///< u32[edge_count]
  kCsrBandwidths = 5, ///< f64[edge_count]
  kCsrTypes = 6,      ///< u8[edge_count]
  kCsrRouterAs = 7,   ///< u32[router_count]
  kDestRows = 8,      ///< DestEntry[router_count²], source-major
  kAsPathPairs = 9,   ///< u64[pair_count], sorted (src << 32 | dst)
  // v2 optional sections (hierarchical preprocessing, DESIGN.md
  // "Hierarchical routing"):
  kLandmarkIds = 10,   ///< u32[landmark_count]: ALT landmark router ids
  kLandmarkDists = 11, ///< f64[landmark_count * router_count], row-major
  kCoreOrder = 12,     ///< u32[core_count]: non-contracted routers, ascending
};

[[nodiscard]] const char* to_string(SectionId id);

/// 64-byte file header; every field little-endian.
struct Header {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t section_count = 0;
  std::uint64_t router_count = 0;
  std::uint64_t edge_count = 0;  ///< Directed CSR edge entries.
  std::uint64_t pair_count = 0;  ///< Materialized as-path pair keys.
  double max_weight = 0.0;       ///< RouterCsr::max_weight.
  std::uint64_t content_hash = 0;  ///< Fold of the per-section hashes.
  std::uint64_t header_hash = 0;   ///< Hash of header + section table,
                                   ///< computed with this field zeroed.
};
static_assert(sizeof(Header) == 64, "fixed 64-byte header");

/// One section-table record (32 bytes).
struct SectionRecord {
  std::uint32_t id = 0;        ///< SectionId.
  std::uint32_t reserved = 0;  ///< Zero; room for per-section flags.
  std::uint64_t offset = 0;    ///< Absolute file offset, 64-byte aligned.
  std::uint64_t size = 0;      ///< Payload bytes (padding excluded).
  std::uint64_t hash = 0;      ///< content_hash() of the payload.
};
static_assert(sizeof(SectionRecord) == 32, "fixed 32-byte record");

/// 8-lane word-striped FNV-1a variant: same avalanche shape as FNV but
/// with eight independent multiply chains, so it runs at memory bandwidth
/// instead of multiply latency. Deterministic across platforms (input
/// read as little-endian 64-bit words plus a byte-wise tail).
[[nodiscard]] std::uint64_t content_hash(const void* data, std::size_t size);

/// Serializes `topology`'s CSR plus every row of `table` (which must be
/// fully warmed) to `path`, atomically (write to <path>.tmp, rename).
/// One pass over the rows: each is copied into a 256 KiB staging buffer,
/// hashed there while cache-hot, and flushed with one unbuffered write;
/// the header and section table are rewritten last, once the row hash is
/// known. Returns false with `error` set on I/O failure (no <path>.tmp
/// left behind, any existing `path` untouched) or an unwarmed table.
bool write(const AsTopology& topology, const RoutingTable& table,
           const std::string& path, std::string* error = nullptr);

/// A checksum-verified read-only mapping of a snapshot file. Owns the
/// mmap region (heap fallback when mmap is unavailable); every span
/// points into it, so keep the object alive as long as any consumer —
/// RoutingTable::adopt_rows consumers included — can read it.
class MappedSnapshot {
 public:
  enum class Verify {
    kOncePerIdentity,  ///< Skip content re-hash for an unchanged file.
    kAlways,           ///< Re-hash every section on this open.
  };

  /// Maps and validates `path`. Null (with `error` describing the reject)
  /// on I/O failure, bad magic, version skew, truncation, out-of-bounds
  /// sections, or checksum mismatch.
  [[nodiscard]] static std::unique_ptr<MappedSnapshot> open(
      const std::string& path, std::string* error = nullptr,
      Verify verify = Verify::kOncePerIdentity);
  ~MappedSnapshot();

  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  [[nodiscard]] const Header& header() const;
  [[nodiscard]] std::span<const SectionRecord> sections() const;
  /// Raw payload bytes of `id`; empty when the section is absent.
  [[nodiscard]] std::span<const std::byte> section(SectionId id) const;

  /// Typed views over the CSR and row sections.
  [[nodiscard]] std::span<const std::uint32_t> csr_offsets() const;
  [[nodiscard]] std::span<const std::uint32_t> csr_heads() const;
  [[nodiscard]] std::span<const double> csr_weights() const;
  [[nodiscard]] std::span<const std::uint32_t> csr_links() const;
  [[nodiscard]] std::span<const double> csr_bandwidths() const;
  [[nodiscard]] std::span<const std::uint8_t> csr_types() const;
  [[nodiscard]] std::span<const std::uint32_t> csr_router_as() const;
  [[nodiscard]] std::span<const RoutingTable::DestEntry> dest_rows() const;
  [[nodiscard]] std::span<const std::uint64_t> as_path_pairs() const;
  /// v2 optional sections; empty spans when absent (v1 files, or a table
  /// that was warmed without hierarchical preprocessing).
  [[nodiscard]] std::span<const std::uint32_t> landmark_ids() const;
  [[nodiscard]] std::span<const double> landmark_dists() const;
  [[nodiscard]] std::span<const std::uint32_t> core_order() const;

  [[nodiscard]] std::size_t file_bytes() const { return size_; }

 private:
  MappedSnapshot() = default;
  template <typename T>
  [[nodiscard]] std::span<const T> typed(SectionId id) const;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mmapped_ = false;  ///< False on the heap-read fallback.
};

/// Attaches a verified snapshot to a freshly constructed `table` over
/// `topology`: byte-compares the stored CSR sections against
/// topology.csr() (count mismatch or any differing byte rejects — this is
/// what keys a snapshot to one exact topology), adopts the mapped row
/// image, and re-materializes the stored as-path pairs in sorted order.
/// On false, `table` keeps only the (idempotent) CSR build. `snap` must
/// outlive `table`.
bool attach(const MappedSnapshot& snap, const AsTopology& topology,
            RoutingTable& table, std::string* error = nullptr);

/// Header/section dump for `uap2p_snapshot info`.
struct SectionInfo {
  SectionRecord record;
  bool hash_ok = false;
};
struct Info {
  Header header;
  std::vector<SectionInfo> sections;
  bool checksums_ok = false;  ///< Every section hash recomputed clean.
};
[[nodiscard]] std::optional<Info> inspect(const std::string& path,
                                          std::string* error = nullptr);

}  // namespace uap2p::underlay::snapshot
