// Flat hash containers (common/flat_map.hpp): growth, reference
// stability, backward-shift erase, and the epoch-reset contract that the
// overlay flood path depends on (clear() is O(1) and steady-state
// insert-after-clear cycles never touch the allocator).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "alloc_probe.hpp"
#include "common/flat_map.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"

namespace uap2p {
namespace {

TEST(FlatMap, InsertFindGrow) {
  FlatMap<std::uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42u), nullptr);

  // Push well past several growth thresholds and mirror against the
  // standard map.
  std::unordered_map<std::uint64_t, int> mirror;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng() % 2048;
    const int value = i;
    map.insert_or_assign(key, value);
    mirror[key] = value;
  }
  EXPECT_EQ(map.size(), mirror.size());
  for (const auto& [key, value] : mirror) {
    const int* found = map.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value);
  }
  EXPECT_FALSE(map.contains(999999u));
}

TEST(FlatMap, TryEmplaceKeepsExisting) {
  FlatMap<std::uint32_t, int> map;
  auto [first, inserted] = map.try_emplace(7u, 1);
  EXPECT_TRUE(inserted);
  auto [second, inserted_again] = map.try_emplace(7u, 2);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(first, second);
  EXPECT_EQ(*second, 1);
}

TEST(FlatMap, ReferencesSurviveClearAndErase) {
  FlatMap<std::uint64_t, int> map;
  map.reserve(64);  // no growth below: references must stay valid
  int* a = map.try_emplace(1u, 10).first;
  int* b = map.try_emplace(2u, 20).first;
  map.erase(1u);
  EXPECT_EQ(map.find(2u), b);  // slots never move on erase
  map.clear();
  int* a2 = map.try_emplace(1u, 30).first;
  EXPECT_EQ(a2, a);  // same home slot recycled across the epoch bump
  EXPECT_EQ(*a2, 30);
}

TEST(FlatMap, EraseBackwardShiftKeepsChainsIntact) {
  // Force colliding probe chains by using many keys in a small table,
  // then erase from the middle of chains and verify every survivor is
  // still reachable.
  FlatMap<std::uint64_t, std::uint64_t> map;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 200; ++k) {
    map.insert_or_assign(k, k * 3);
    keys.push_back(k);
  }
  Rng rng(23);
  std::unordered_map<std::uint64_t, std::uint64_t> mirror;
  for (const std::uint64_t k : keys) mirror[k] = k * 3;
  for (int round = 0; round < 150; ++round) {
    const std::uint64_t victim = rng() % 200;
    EXPECT_EQ(map.erase(victim), mirror.erase(victim) > 0);
    for (const auto& [key, value] : mirror) {
      const std::uint64_t* found = map.find(key);
      ASSERT_NE(found, nullptr) << "lost key " << key << " erasing " << victim;
      EXPECT_EQ(*found, value);
    }
  }
  EXPECT_EQ(map.size(), mirror.size());
}

TEST(FlatMap, EpochClearRetiresEverythingInO1) {
  FlatMap<std::uint64_t, int> map;
  for (std::uint64_t k = 0; k < 100; ++k) map.insert_or_assign(k, 1);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), capacity);  // storage retained
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(map.contains(k));
  // Slots recycle in place across epochs.
  for (std::uint64_t k = 0; k < 100; ++k) map.insert_or_assign(k, 2);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(*map.find(50u), 2);
}

TEST(FlatMap, SteadyStateClearInsertCycleIsAllocationFree) {
  FlatMap<std::uint64_t, std::uint32_t> map;
  auto fill = [&] {
    for (std::uint64_t k = 0; k < 500; ++k) {
      map.try_emplace(k * 0x10001, std::uint32_t(k));
    }
  };
  fill();  // warm-up grows to steady-state capacity
  map.clear();
  const std::uint64_t before = testing::allocation_count();
  for (int round = 0; round < 50; ++round) {
    fill();
    map.clear();
  }
  EXPECT_EQ(testing::allocation_count() - before, 0u);
}

TEST(FlatSet, InsertContainsClear) {
  FlatSet<std::uint32_t> set;
  EXPECT_TRUE(set.insert(5u));
  EXPECT_FALSE(set.insert(5u));  // duplicate
  EXPECT_TRUE(set.contains(5u));
  EXPECT_FALSE(set.contains(6u));
  set.clear();
  EXPECT_FALSE(set.contains(5u));
  EXPECT_TRUE(set.insert(5u));
}

TEST(ChunkedStore, AddressesStableAcrossGrowth) {
  ChunkedStore<std::uint64_t, 64> store;
  std::vector<std::uint64_t*> addresses;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    addresses.push_back(&store.push(i));
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(addresses[i], &store[i]);  // growth never relocated
    EXPECT_EQ(store[i], i);
  }
}

TEST(ChunkedStore, ClearRecyclesChunkStorage) {
  ChunkedStore<std::uint64_t, 64> store;
  for (std::uint64_t i = 0; i < 300; ++i) store.push(i);
  const std::uint64_t* address_of_first = &store[0];
  store.clear();
  EXPECT_TRUE(store.empty());
  const std::uint64_t before = testing::allocation_count();
  // Refill to the high-water mark: the chunks are retained, so the store
  // must not allocate.
  for (std::uint64_t i = 0; i < 300; ++i) store.push(i * 2);
  EXPECT_EQ(testing::allocation_count() - before, 0u);
  EXPECT_EQ(&store[0], address_of_first);
  EXPECT_EQ(store[100], 200u);
}

TEST(DenseIndex, MapsEachMemberToItsListPosition) {
  // A member list out of id order, with gaps: the index answers each
  // member's position, and is sized by the largest member value.
  const std::vector<PeerId> members = {PeerId(7), PeerId(2), PeerId(40),
                                       PeerId(0)};
  const DenseIndex<PeerId> index(members);
  EXPECT_EQ(index.id_bound(), 41u);
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(index[members[i]], i);
  }
}

}  // namespace
}  // namespace uap2p
