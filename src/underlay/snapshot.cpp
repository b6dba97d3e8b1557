#include "underlay/snapshot.hpp"

#include "underlay/hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_set>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define UAP2P_SNAPSHOT_MMAP 1
#endif

namespace uap2p::underlay::snapshot {

// The format stores raw little-endian PODs; a big-endian host would need
// a byte-swapping load path nobody has asked for yet.
static_assert(std::endian::native == std::endian::little,
              "snapshot files are little-endian");

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint64_t kLaneSeed = 0x9e3779b97f4a7c15ull;
constexpr std::size_t kAlign = 64;
constexpr std::size_t kMaxSections = 64;
/// snapshot::write's staging buffer: big enough that each flush is one
/// cheap write(2), small enough that a staged piece is still in L2 when
/// the row hasher reads it back.
constexpr std::size_t kStageBytes = 256 * 1024;

/// Streaming form of content_hash: 64-byte blocks feed eight independent
/// FNV-1a chains (one 8-byte word each); finish() folds the lanes and
/// FNV-steps any buffered tail byte-wise. One-shot and chunked updates
/// over the same bytes produce the same digest.
class Hasher {
 public:
  Hasher() {
    for (std::size_t i = 0; i < 8; ++i) lane_[i] = kFnvOffset + kLaneSeed * i;
  }

  void update(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::byte*>(data);
    if (buffered_ != 0) {
      const std::size_t take = std::min(size, kAlign - buffered_);
      std::memcpy(buffer_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      size -= take;
      if (buffered_ == kAlign) {
        consume(buffer_);
        buffered_ = 0;
      }
    }
    for (; size >= kAlign; p += kAlign, size -= kAlign) consume(p);
    if (size != 0) {
      std::memcpy(buffer_, p, size);
      buffered_ = size;
    }
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t hash = kFnvOffset;
    for (const std::uint64_t lane : lane_) hash = (hash ^ lane) * kFnvPrime;
    for (std::size_t i = 0; i < buffered_; ++i) {
      hash = (hash ^ static_cast<std::uint8_t>(buffer_[i])) * kFnvPrime;
    }
    return hash;
  }

 private:
  void consume(const std::byte* block) {
    for (std::size_t l = 0; l < 8; ++l) {
      std::uint64_t word;
      std::memcpy(&word, block + 8 * l, sizeof(word));
      lane_[l] = (lane_[l] ^ word) * kFnvPrime;
    }
  }

  std::uint64_t lane_[8];
  std::byte buffer_[kAlign];
  std::size_t buffered_ = 0;
};

[[nodiscard]] std::uint64_t fold_section_hashes(
    std::span<const SectionRecord> table) {
  std::uint64_t hash = kFnvOffset;
  for (const SectionRecord& record : table) {
    hash = (hash ^ record.hash) * kFnvPrime;
  }
  return hash;
}

/// Hash of header + section table with header_hash itself zeroed.
[[nodiscard]] std::uint64_t header_table_hash(
    Header header, std::span<const SectionRecord> table) {
  header.header_hash = 0;
  Hasher hasher;
  hasher.update(&header, sizeof(header));
  hasher.update(table.data(), table.size_bytes());
  return hasher.finish();
}

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

[[nodiscard]] std::size_t align_up(std::size_t offset) {
  return (offset + kAlign - 1) & ~(kAlign - 1);
}

/// Process-wide registry of file identities whose section contents have
/// already been hash-verified; an unchanged (path, device, inode, size,
/// mtime, ctime) identity is trusted on re-open (the expensive part of
/// open() is re-reading a multi-hundred-MB image at memory bandwidth just
/// to re-hash it).
class VerifiedIdentities {
 public:
  [[nodiscard]] bool contains(const std::string& key) {
    std::lock_guard lock(mutex_);
    return keys_.contains(key);
  }
  void insert(const std::string& key) {
    std::lock_guard lock(mutex_);
    keys_.insert(key);
  }

 private:
  std::mutex mutex_;
  std::unordered_set<std::string> keys_;
};

VerifiedIdentities& verified_identities() {
  static VerifiedIdentities instance;
  return instance;
}

[[nodiscard]] std::string identity_key(const std::string& path) {
#if defined(UAP2P_SNAPSHOT_MMAP)
  struct stat info;
  if (::stat(path.c_str(), &info) == 0) {
    // mtime alone is forgeable (utimensat restores it after an in-place
    // edit); ctime is not settable from user space and moves on every
    // write, and (dev, inode) pins the file itself.
    const auto stamp = [](const struct timespec& t) {
      return std::to_string(t.tv_sec) + "." + std::to_string(t.tv_nsec);
    };
    return path + "|" + std::to_string(info.st_dev) + "|" +
           std::to_string(info.st_ino) + "|" + std::to_string(info.st_size) +
           "|" + stamp(info.st_mtim) + "|" + stamp(info.st_ctim);
  }
#endif
  return {};  // unknown identity: never remembered as verified
}

struct SectionSpec {
  SectionId id;
  const void* data;
  std::size_t size;
};

}  // namespace

const char* to_string(SectionId id) {
  switch (id) {
    case SectionId::kCsrOffsets: return "csr-offsets";
    case SectionId::kCsrHeads: return "csr-heads";
    case SectionId::kCsrWeights: return "csr-weights";
    case SectionId::kCsrLinks: return "csr-links";
    case SectionId::kCsrBandwidths: return "csr-bandwidths";
    case SectionId::kCsrTypes: return "csr-types";
    case SectionId::kCsrRouterAs: return "csr-router-as";
    case SectionId::kDestRows: return "dest-rows";
    case SectionId::kAsPathPairs: return "as-path-pairs";
    case SectionId::kLandmarkIds: return "landmark-ids";
    case SectionId::kLandmarkDists: return "landmark-dists";
    case SectionId::kCoreOrder: return "core-order";
  }
  return "?";
}

std::uint64_t content_hash(const void* data, std::size_t size) {
  Hasher hasher;
  hasher.update(data, size);
  return hasher.finish();
}

bool write(const AsTopology& topology, const RoutingTable& table,
           const std::string& path, std::string* error) {
  const std::size_t n = topology.router_count();
  if (table.cached_sources() != n) {
    set_error(error, "routing table is not fully warmed (" +
                         std::to_string(table.cached_sources()) + "/" +
                         std::to_string(n) + " sources)");
    return false;
  }
  const AsTopology::RouterCsr& csr = topology.csr();
  const std::vector<std::uint64_t> pairs = table.materialized_pair_keys();

  std::vector<SectionSpec> specs = {
      {SectionId::kCsrOffsets, csr.offsets.data(),
       csr.offsets.size() * sizeof(std::uint32_t)},
      {SectionId::kCsrHeads, csr.heads.data(),
       csr.heads.size() * sizeof(std::uint32_t)},
      {SectionId::kCsrWeights, csr.weights.data(),
       csr.weights.size() * sizeof(double)},
      {SectionId::kCsrLinks, csr.links.data(),
       csr.links.size() * sizeof(std::uint32_t)},
      {SectionId::kCsrBandwidths, csr.bandwidths.data(),
       csr.bandwidths.size() * sizeof(double)},
      {SectionId::kCsrTypes, csr.types.data(),
       csr.types.size() * sizeof(std::uint8_t)},
      {SectionId::kCsrRouterAs, csr.router_as.data(),
       csr.router_as.size() * sizeof(std::uint32_t)},
      {SectionId::kDestRows, nullptr, n * n * sizeof(RoutingTable::DestEntry)},
      {SectionId::kAsPathPairs, pairs.data(),
       pairs.size() * sizeof(std::uint64_t)},
  };
  // v2 optional sections: only emitted when the table was warmed through
  // the hierarchical path. A table filled by lazy per-source queries
  // writes a file whose section set matches v1 exactly (apart from the
  // header version).
  const std::shared_ptr<const AltLandmarks> landmarks = table.landmarks();
  if (landmarks != nullptr && landmarks->count() > 0) {
    specs.push_back({SectionId::kLandmarkIds, landmarks->ids().data(),
                     landmarks->ids().size() * sizeof(std::uint32_t)});
    specs.push_back({SectionId::kLandmarkDists, landmarks->dists().data(),
                     landmarks->dists().size() * sizeof(double)});
  }
  const std::shared_ptr<const HierarchyPlan> plan = table.hierarchy();
  if (plan != nullptr && !plan->core_order().empty()) {
    specs.push_back({SectionId::kCoreOrder, plan->core_order().data(),
                     plan->core_order().size() * sizeof(std::uint32_t)});
  }
  const std::size_t kSectionCount = specs.size();

  // Lay the sections out and hash every section but the row image, which
  // is hashed while it streams through the staging buffer below.
  std::vector<SectionRecord> records(kSectionCount);
  std::size_t offset =
      align_up(sizeof(Header) + kSectionCount * sizeof(SectionRecord));
  std::size_t rows_index = 0;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    records[i].id = static_cast<std::uint32_t>(specs[i].id);
    records[i].offset = offset;
    records[i].size = specs[i].size;
    if (specs[i].id == SectionId::kDestRows) {
      rows_index = i;
    } else {
      records[i].hash = content_hash(specs[i].data, specs[i].size);
    }
    offset = align_up(offset + specs[i].size);
  }

  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    set_error(error, "cannot open " + tmp + " for writing");
    return false;
  }
  // One pass over the file: everything goes through a kStageBytes staging
  // buffer flushed with one unbuffered fwrite, so every flush starts on a
  // kStageBytes-aligned offset. The header and section table go out as
  // zeroed placeholders and are rewritten once the row hash is known.
  std::setvbuf(file, nullptr, _IONBF, 0);
  const std::unique_ptr<std::byte[]> stage(new std::byte[kStageBytes]);
  std::size_t staged = 0;
  bool ok = true;
  auto flush = [&] {
    ok = ok && std::fwrite(stage.get(), 1, staged, file) == staged;
    staged = 0;
  };
  // Appends `size` bytes (zeros when `data` is null), feeding each staged
  // piece to `hasher` while it is cache-hot.
  auto emit = [&](const void* data, std::size_t size,
                  Hasher* hasher = nullptr) {
    const auto* p = static_cast<const std::byte*>(data);
    while (ok && size != 0) {
      const std::size_t take = std::min(size, kStageBytes - staged);
      std::byte* dst = stage.get() + staged;
      if (p != nullptr) {
        std::memcpy(dst, p, take);
        p += take;
      } else {
        std::memset(dst, 0, take);
      }
      if (hasher != nullptr) hasher->update(dst, take);
      staged += take;
      size -= take;
      if (staged == kStageBytes) flush();
    }
  };
  std::size_t written = 0;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    const std::size_t section_offset = records[i].offset;
    emit(nullptr, section_offset - written);  // placeholders or padding
    if (i == rows_index) {
      Hasher hasher;
      for (std::size_t src = 0; src < n; ++src) {
        const auto row = table.row(RouterId(static_cast<std::uint32_t>(src)));
        emit(row.data(), row.size_bytes(), &hasher);
      }
      records[i].hash = hasher.finish();
    } else {
      emit(specs[i].data, specs[i].size);
    }
    written = section_offset + specs[i].size;
  }
  flush();

  Header header;
  header.section_count = kSectionCount;
  header.router_count = n;
  header.edge_count = csr.heads.size();
  header.pair_count = pairs.size();
  header.max_weight = csr.max_weight;
  header.content_hash = fold_section_hashes(records);
  header.header_hash = header_table_hash(header, records);
  ok = ok && std::fseek(file, 0, SEEK_SET) == 0 &&
       std::fwrite(&header, sizeof(header), 1, file) == 1 &&
       std::fwrite(records.data(), sizeof(SectionRecord), kSectionCount,
                   file) == kSectionCount;
  ok = ok && std::fflush(file) == 0;
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    set_error(error, "short write to " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "cannot rename " + tmp + " to " + path);
    std::remove(tmp.c_str());
    return false;
  }
  // The freshly written identity is verified by construction.
  if (const std::string key = identity_key(path); !key.empty()) {
    verified_identities().insert(key);
  }
  return true;
}

// --- MappedSnapshot ------------------------------------------------------

MappedSnapshot::~MappedSnapshot() {
#if defined(UAP2P_SNAPSHOT_MMAP)
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
    return;
  }
#endif
  delete[] data_;
}

const Header& MappedSnapshot::header() const {
  return *reinterpret_cast<const Header*>(data_);
}

std::span<const SectionRecord> MappedSnapshot::sections() const {
  return {reinterpret_cast<const SectionRecord*>(data_ + sizeof(Header)),
          header().section_count};
}

std::span<const std::byte> MappedSnapshot::section(SectionId id) const {
  for (const SectionRecord& record : sections()) {
    if (record.id == static_cast<std::uint32_t>(id)) {
      return {data_ + record.offset, record.size};
    }
  }
  return {};
}

template <typename T>
std::span<const T> MappedSnapshot::typed(SectionId id) const {
  const std::span<const std::byte> raw = section(id);
  return {reinterpret_cast<const T*>(raw.data()), raw.size() / sizeof(T)};
}

std::span<const std::uint32_t> MappedSnapshot::csr_offsets() const {
  return typed<std::uint32_t>(SectionId::kCsrOffsets);
}
std::span<const std::uint32_t> MappedSnapshot::csr_heads() const {
  return typed<std::uint32_t>(SectionId::kCsrHeads);
}
std::span<const double> MappedSnapshot::csr_weights() const {
  return typed<double>(SectionId::kCsrWeights);
}
std::span<const std::uint32_t> MappedSnapshot::csr_links() const {
  return typed<std::uint32_t>(SectionId::kCsrLinks);
}
std::span<const double> MappedSnapshot::csr_bandwidths() const {
  return typed<double>(SectionId::kCsrBandwidths);
}
std::span<const std::uint8_t> MappedSnapshot::csr_types() const {
  return typed<std::uint8_t>(SectionId::kCsrTypes);
}
std::span<const std::uint32_t> MappedSnapshot::csr_router_as() const {
  return typed<std::uint32_t>(SectionId::kCsrRouterAs);
}
std::span<const RoutingTable::DestEntry> MappedSnapshot::dest_rows() const {
  return typed<RoutingTable::DestEntry>(SectionId::kDestRows);
}
std::span<const std::uint64_t> MappedSnapshot::as_path_pairs() const {
  return typed<std::uint64_t>(SectionId::kAsPathPairs);
}
std::span<const std::uint32_t> MappedSnapshot::landmark_ids() const {
  return typed<std::uint32_t>(SectionId::kLandmarkIds);
}
std::span<const double> MappedSnapshot::landmark_dists() const {
  return typed<double>(SectionId::kLandmarkDists);
}
std::span<const std::uint32_t> MappedSnapshot::core_order() const {
  return typed<std::uint32_t>(SectionId::kCoreOrder);
}

std::unique_ptr<MappedSnapshot> MappedSnapshot::open(const std::string& path,
                                                     std::string* error,
                                                     Verify verify) {
  // Capture the identity before reading, so a file replaced mid-open can
  // at worst fail verification, never be wrongly remembered as clean.
  const std::string identity = identity_key(path);

  std::unique_ptr<MappedSnapshot> snap(new MappedSnapshot);
#if defined(UAP2P_SNAPSHOT_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    set_error(error, "cannot open " + path);
    return nullptr;
  }
  struct stat info;
  if (::fstat(fd, &info) != 0 || info.st_size < 0) {
    ::close(fd);
    set_error(error, "cannot stat " + path);
    return nullptr;
  }
  snap->size_ = static_cast<std::size_t>(info.st_size);
  if (snap->size_ > 0) {
    void* mapping =
        ::mmap(nullptr, snap->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapping != MAP_FAILED) {
      snap->data_ = static_cast<const std::byte*>(mapping);
      snap->mmapped_ = true;
    }
  }
  if (!snap->mmapped_) {
    auto* buffer = new std::byte[snap->size_];
    std::size_t done = 0;
    while (done < snap->size_) {
      const ::ssize_t got =
          ::pread(fd, buffer + done, snap->size_ - done, ::off_t(done));
      if (got <= 0) break;
      done += static_cast<std::size_t>(got);
    }
    snap->data_ = buffer;
    if (done != snap->size_) {
      ::close(fd);
      set_error(error, "short read from " + path);
      return nullptr;
    }
  }
  ::close(fd);
#else
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    set_error(error, "cannot open " + path);
    return nullptr;
  }
  std::fseek(file, 0, SEEK_END);
  snap->size_ = static_cast<std::size_t>(std::ftell(file));
  std::fseek(file, 0, SEEK_SET);
  auto* buffer = new std::byte[snap->size_];
  const bool read_ok =
      std::fread(buffer, 1, snap->size_, file) == snap->size_;
  std::fclose(file);
  snap->data_ = buffer;
  if (!read_ok) {
    set_error(error, "short read from " + path);
    return nullptr;
  }
#endif

  // Structural validation: every check below guards the one after it.
  if (snap->size_ < sizeof(Header)) {
    set_error(error, path + ": truncated (no header)");
    return nullptr;
  }
  const Header& header = snap->header();
  if (header.magic != kMagic) {
    set_error(error, path + ": bad magic (not a uap2p snapshot)");
    return nullptr;
  }
  if (header.version > kFormatVersion || header.version < kMinFormatVersion) {
    set_error(error, path + ": format version " +
                         std::to_string(header.version) + ", supported " +
                         std::to_string(kMinFormatVersion) + ".." +
                         std::to_string(kFormatVersion));
    return nullptr;
  }
  if (header.section_count == 0 || header.section_count > kMaxSections ||
      snap->size_ <
          sizeof(Header) + header.section_count * sizeof(SectionRecord)) {
    set_error(error, path + ": truncated section table");
    return nullptr;
  }
  const std::span<const SectionRecord> table = snap->sections();
  if (header.header_hash != header_table_hash(header, table)) {
    set_error(error, path + ": header checksum mismatch");
    return nullptr;
  }
  if (header.content_hash != fold_section_hashes(table)) {
    set_error(error, path + ": content checksum fold mismatch");
    return nullptr;
  }
  for (const SectionRecord& record : table) {
    if (record.offset % kAlign != 0 || record.offset > snap->size_ ||
        record.size > snap->size_ - record.offset) {
      set_error(error, path + ": section " +
                           to_string(static_cast<SectionId>(record.id)) +
                           " out of bounds (truncated?)");
      return nullptr;
    }
  }

  // Content verification (the memory-bandwidth-bound part; see the header
  // comment for the once-per-identity policy).
  const bool need_content_hash =
      verify == Verify::kAlways || identity.empty() ||
      !verified_identities().contains(identity);
  if (need_content_hash) {
    for (const SectionRecord& record : table) {
      if (content_hash(snap->data_ + record.offset, record.size) !=
          record.hash) {
        set_error(error, path + ": checksum mismatch in section " +
                             to_string(static_cast<SectionId>(record.id)));
        return nullptr;
      }
    }
    if (!identity.empty()) verified_identities().insert(identity);
  }
  return snap;
}

// --- attach / load -------------------------------------------------------

namespace {

template <typename T>
[[nodiscard]] bool same_bytes(std::span<const T> stored,
                              const std::vector<T>& live) {
  return stored.size() == live.size() &&
         (stored.empty() ||
          std::memcmp(stored.data(), live.data(), stored.size_bytes()) == 0);
}

}  // namespace

bool attach(const MappedSnapshot& snap, const AsTopology& topology,
            RoutingTable& table, std::string* error) {
  const Header& header = snap.header();
  const std::size_t n = topology.router_count();
  const AsTopology::RouterCsr& csr = topology.csr();
  if (header.router_count != n || header.edge_count != csr.heads.size()) {
    set_error(error, "snapshot is for a different topology (" +
                         std::to_string(header.router_count) + " routers / " +
                         std::to_string(header.edge_count) + " edges, live " +
                         std::to_string(n) + " / " +
                         std::to_string(csr.heads.size()) + ")");
    return false;
  }
  // Byte-compare the whole stored CSR against the live topology's: this
  // is what keys a snapshot file to one exact (generator, params, seed) —
  // any other topology differs somewhere in these sections.
  const bool csr_matches =
      same_bytes(snap.csr_offsets(), csr.offsets) &&
      same_bytes(snap.csr_heads(), csr.heads) &&
      same_bytes(snap.csr_weights(), csr.weights) &&
      same_bytes(snap.csr_links(), csr.links) &&
      same_bytes(snap.csr_bandwidths(), csr.bandwidths) &&
      same_bytes(snap.csr_types(), csr.types) &&
      same_bytes(snap.csr_router_as(), csr.router_as) &&
      header.max_weight == csr.max_weight;
  if (!csr_matches) {
    set_error(error, "snapshot CSR does not byte-match the live topology "
                     "(different generator parameters or seed?)");
    return false;
  }
  const auto rows = snap.dest_rows();
  if (rows.size() != n * n) {
    set_error(error, "snapshot row image has " + std::to_string(rows.size()) +
                         " entries, expected " + std::to_string(n * n));
    return false;
  }
  const auto pairs = snap.as_path_pairs();
  for (const std::uint64_t key : pairs) {
    if ((key >> 32) >= n || (key & 0xFFFFFFFFull) >= n) {
      set_error(error, "snapshot as-path pair key out of range");
      return false;
    }
  }
  // v2 optional sections. A v1 file simply has none; a v2 file that
  // carries them must be internally consistent with the router count, or
  // it is corrupt (our writer cannot produce such a file).
  const auto lm_ids = snap.landmark_ids();
  const auto lm_dists = snap.landmark_dists();
  if (lm_ids.empty() != lm_dists.empty() ||
      lm_dists.size() != lm_ids.size() * n) {
    set_error(error, "snapshot landmark sections are inconsistent (" +
                         std::to_string(lm_ids.size()) + " ids, " +
                         std::to_string(lm_dists.size()) + " distances)");
    return false;
  }
  for (const std::uint32_t id : lm_ids) {
    if (id >= n) {
      set_error(error, "snapshot landmark id " + std::to_string(id) +
                           " out of range");
      return false;
    }
  }
  const auto core = snap.core_order();
  for (std::size_t i = 0; i < core.size(); ++i) {
    if (core[i] >= n || (i > 0 && core[i] <= core[i - 1])) {
      set_error(error, "snapshot core order is not ascending in [0, n)");
      return false;
    }
  }
  table.adopt_rows(rows);
  // Stored keys are sorted by (src, dst), so the rebuilt intern table is
  // deterministic regardless of the query order that built the snapshot.
  table.materialize_pairs(pairs);
  if (!lm_ids.empty()) {
    table.adopt_landmarks(AltLandmarks::adopt(lm_ids, lm_dists, n));
  }
  return true;
}

std::optional<Info> inspect(const std::string& path, std::string* error) {
  const std::unique_ptr<MappedSnapshot> snap =
      MappedSnapshot::open(path, error, MappedSnapshot::Verify::kAlways);
  if (snap == nullptr) return std::nullopt;
  Info info;
  info.header = snap->header();
  info.checksums_ok = true;  // open(kAlways) re-hashed every section
  for (const SectionRecord& record : snap->sections()) {
    info.sections.push_back(SectionInfo{record, true});
  }
  return info;
}

}  // namespace uap2p::underlay::snapshot

namespace uap2p::underlay {

SharedRouting::~SharedRouting() = default;

std::shared_ptr<const SharedRouting> SharedRouting::load(
    AsTopology topology, const std::string& snapshot_path, std::size_t threads,
    std::string* error) {
  std::unique_ptr<snapshot::MappedSnapshot> mapped =
      snapshot::MappedSnapshot::open(snapshot_path, error);
  if (mapped == nullptr) return nullptr;
  std::shared_ptr<SharedRouting> shared(new SharedRouting(std::move(topology)));
  if (!snapshot::attach(*mapped, shared->topology_, shared->table_, error)) {
    return nullptr;
  }
  shared->mapped_ = std::move(mapped);
  shared->topology_.warm_as_hops(threads);
  // attach() adopts persisted landmark tables (v2 files); a v1 snapshot
  // carries none, so rebuild them here — K Dijkstras, noise next to the
  // row image the snapshot just saved us — so load and build hand the
  // oracle tier tables in the same state either way.
  if (shared->table_.landmarks() == nullptr) {
    shared->table_.ensure_landmarks();
  }
  return shared;
}

}  // namespace uap2p::underlay
