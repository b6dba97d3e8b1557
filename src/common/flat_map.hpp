// Flat hash containers for allocation-free hot paths.
//
// PR 1 proved the pattern inside underlay::RoutingTable: a power-of-two
// open-addressing index (linear probing, Fibonacci mixing) over a chunked
// value store whose addresses never move. This header extracts that
// pattern so overlays can use it too, and adds the piece flooding needs:
// *epoch-stamped* slots, so per-flood dedup state is reset in O(1) by
// bumping a generation counter instead of touching (or worse, freeing)
// every slot.
//
// Containers:
//  * FlatMap<K, V>   — open-addressing map, integral keys, epoch reset.
//  * FlatSet<K>      — same, without values.
//  * ChunkedStore<T> — append-only store with stable element addresses.
//  * DenseIndex<Id>  — strong id -> position array over a fixed member list.
//
// None of them are thread-safe; like the engine and the routing table,
// one instance belongs to one simulation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace uap2p {

/// Fibonacci multiplicative mix. Keys in the hot paths are dense small
/// integers (guids, content ids, packed id pairs), so spreading via the
/// high bits of key * phi keeps probe chains short without a hash library.
[[nodiscard]] inline std::size_t flat_hash_mix(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
}

/// Open-addressing hash map: power-of-two capacity, linear probing, grown
/// at 70% load. Slots carry an epoch stamp; clear() bumps the map's epoch,
/// which retires every entry at once — O(1), no destructor walk, no
/// allocator traffic — and later inserts recycle the stale slots in place.
///
/// Trade-offs, by design:
///  * Keys must be integral (ids, guids, packed pairs).
///  * Values in retired or erased slots are not destroyed until the slot
///    is overwritten, the map grows, or the map is destroyed. Keep values
///    trivially reusable (PODs, ids) — that is the point of the container.
///  * References returned by find()/insert() stay valid across clear()
///    and erase() (slots never move), but not across a growth rehash.
///    Pair a FlatMap index with a ChunkedStore when callers hold long-
///    lived references (see RoutingTable).
template <typename Key, typename Value>
class FlatMap {
  static_assert(std::is_integral_v<Key>, "FlatMap keys are integral ids");

 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Ensures capacity for `n` live entries without rehashing mid-flood.
  void reserve(std::size_t n) {
    while (slots_.size() * 7 < (n + 1) * 10) grow();
  }

  [[nodiscard]] Value* find(Key key) {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = probe_start(key, mask);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return nullptr;  // chain ends at a free slot
      if (slot.key == key) return &slot.value;
    }
  }
  [[nodiscard]] const Value* find(Key key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  /// Inserts `value` under `key` if absent. Returns the slot value and
  /// whether it was inserted (false = key already present, value intact).
  std::pair<Value*, bool> try_emplace(Key key, Value value = Value{}) {
    if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = probe_start(key, mask);
    for (; slots_[i].epoch == epoch_; i = (i + 1) & mask) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    Slot& slot = slots_[i];
    slot.key = key;
    slot.value = std::move(value);
    slot.epoch = epoch_;
    ++size_;
    return {&slot.value, true};
  }

  /// Inserts or overwrites.
  Value& insert_or_assign(Key key, Value value) {
    Value* stored = try_emplace(key).first;
    *stored = std::move(value);
    return *stored;
  }

  Value& operator[](Key key) { return *try_emplace(key).first; }

  /// Removes `key` if present. Backward-shift deletion: later entries of
  /// the probe chain slide into the hole, so lookups never need
  /// tombstones and chains stay gap-free.
  bool erase(Key key) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = probe_start(key, mask);
    for (;; hole = (hole + 1) & mask) {
      if (slots_[hole].epoch != epoch_) return false;
      if (slots_[hole].key == key) break;
    }
    for (std::size_t j = (hole + 1) & mask; slots_[j].epoch == epoch_;
         j = (j + 1) & mask) {
      // An entry may fill the hole only if its home position lies at or
      // cyclically before the hole — otherwise the move would break the
      // entry's own probe chain.
      const std::size_t home = probe_start(slots_[j].key, mask);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].epoch = 0;
    --size_;
    return true;
  }

  /// Retires every entry in O(1) by bumping the epoch. Capacity (and the
  /// values parked in now-stale slots) is retained for reuse.
  void clear() {
    size_ = 0;
    if (++epoch_ == 0) {
      // The 32-bit epoch wrapped (after ~4G clears): scrub stale stamps
      // so no ancient slot can collide with a recycled epoch value.
      for (Slot& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

 private:
  struct Slot {
    Key key{};
    /// Occupies no space when Value is empty (FlatSet).
    [[no_unique_address]] Value value{};
    /// 0 = never used; live iff equal to the map's current epoch.
    std::uint32_t epoch = 0;
  };

  static std::size_t probe_start(Key key, std::size_t mask) {
    return flat_hash_mix(static_cast<std::uint64_t>(key)) & mask;
  }

  void grow() {
    const std::size_t new_capacity =
        slots_.empty() ? kMinCapacity : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(new_capacity);
    const std::size_t mask = new_capacity - 1;
    const std::uint32_t live = epoch_;
    epoch_ = 1;  // fresh slots are all epoch 0, so 1 is unused
    for (Slot& slot : old) {
      if (slot.epoch != live) continue;
      std::size_t i = probe_start(slot.key, mask);
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i].key = slot.key;
      slots_[i].value = std::move(slot.value);
      slots_[i].epoch = epoch_;
    }
  }

  static constexpr std::size_t kMinCapacity = 16;

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

/// FlatMap without values: the dedup-set shape (seen guids, shared
/// content ids). Same epoch-reset and probing semantics.
template <typename Key>
class FlatSet {
  struct Empty {};

 public:
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return map_.capacity(); }
  void reserve(std::size_t n) { map_.reserve(n); }
  [[nodiscard]] bool contains(Key key) const { return map_.contains(key); }
  /// True if `key` was newly inserted.
  bool insert(Key key) { return map_.try_emplace(key).second; }
  bool erase(Key key) { return map_.erase(key); }
  void clear() { map_.clear(); }

 private:
  FlatMap<Key, Empty> map_;
};

/// Append-only store over fixed-size, fully-reserved chunks: element
/// addresses are stable for the store's lifetime (growth appends a chunk,
/// never relocates). clear() keeps the chunks, so refilling to the
/// previous high-water mark allocates no chunk storage; a recycled slot
/// is move-assigned over, which for buffer-owning element types adopts
/// the incoming value's buffer rather than reusing the old one.
template <typename T, std::size_t ChunkSize = 64>
class ChunkedStore {
  static_assert(ChunkSize > 0 && (ChunkSize & (ChunkSize - 1)) == 0,
                "chunk size must be a power of two for cheap indexing");

 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Appends and returns a stable reference.
  T& push(T value) {
    const std::size_t chunk = size_ / ChunkSize;
    const std::size_t offset = size_ % ChunkSize;
    if (chunk == chunks_.size()) {
      chunks_.emplace_back();
      chunks_.back().reserve(ChunkSize);  // data pointer is final
    }
    std::vector<T>& storage = chunks_[chunk];
    ++size_;
    if (offset < storage.size()) {
      // Recycled slot from a previous clear(): assign in place.
      storage[offset] = std::move(value);
      return storage[offset];
    }
    storage.push_back(std::move(value));
    return storage.back();
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return chunks_[i / ChunkSize][i % ChunkSize];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return chunks_[i / ChunkSize][i % ChunkSize];
  }

  /// Logically empties the store; chunks and element capacity retained.
  void clear() { size_ = 0; }

 private:
  std::vector<std::vector<T>> chunks_;
  std::size_t size_ = 0;
};

/// Position of each member in a fixed member list, indexed directly by the
/// id's value: one array load per lookup where a hash map would hash and
/// probe. Sized by the largest member value, so it suits dense small ids
/// (PeerIds are handed out consecutively by Network::populate). Looking up
/// a non-member is a caller bug and asserts.
template <typename Id>
class DenseIndex {
 public:
  explicit DenseIndex(const std::vector<Id>& members) {
    std::size_t bound = 0;
    for (const Id id : members) {
      bound = std::max<std::size_t>(bound, std::size_t{id.value()} + 1);
    }
    position_.assign(bound, kNone);
    for (std::size_t i = 0; i < members.size(); ++i) {
      assert(position_[members[i].value()] == kNone && "duplicate member");
      position_[members[i].value()] = static_cast<std::uint32_t>(i);
    }
  }

  /// One past the largest member's value.
  [[nodiscard]] std::size_t id_bound() const { return position_.size(); }

  [[nodiscard]] std::uint32_t operator[](Id id) const {
    assert(id.value() < position_.size() && position_[id.value()] != kNone &&
           "not a member");
    return position_[id.value()];
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> position_;
};

}  // namespace uap2p
