// Payload, the small-buffer box every underlay::Message carries: which
// types stay inline (no allocation), which spill to the heap, and the
// value semantics (copy, move, typed cast, self-assignment) for both.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>

#include "alloc_probe.hpp"
#include "common/payload.hpp"

namespace uap2p {
namespace {

struct Exact {
  std::array<std::uint8_t, Payload::kInlineCapacity> bytes{};
};
static_assert(sizeof(Exact) == Payload::kInlineCapacity);

struct OneOver {
  std::array<std::uint8_t, Payload::kInlineCapacity + 1> bytes{};
};
static_assert(sizeof(OneOver) == 17);

struct alignas(16) Aligned16 {
  std::uint64_t value = 0;
};
static_assert(sizeof(Aligned16) <= Payload::kInlineCapacity);

template <typename T>
T filled(std::uint8_t seed) {
  T value;
  for (std::size_t i = 0; i < value.bytes.size(); ++i) {
    value.bytes[i] = static_cast<std::uint8_t>(seed + i);
  }
  return value;
}

TEST(Payload, TypeOfExactlyInlineCapacityStaysInline) {
  const Exact value = filled<Exact>(3);
  const std::uint64_t before = testing::allocation_count();
  {
    Payload payload(value);
    Payload copy(payload);
    Payload moved(std::move(copy));
    ASSERT_NE(payload_cast<Exact>(&moved), nullptr);
    EXPECT_EQ(payload_cast<Exact>(&moved)->bytes, value.bytes);
  }
  EXPECT_EQ(testing::allocation_count() - before, 0u);
}

TEST(Payload, SeventeenByteTypeSpillsWithOneAllocation) {
  const OneOver value = filled<OneOver>(9);
  const std::uint64_t before = testing::allocation_count();
  Payload payload(value);
  EXPECT_EQ(testing::allocation_count() - before, 1u);
  ASSERT_NE(payload_cast<OneOver>(&payload), nullptr);
  EXPECT_EQ(payload_cast<OneOver>(&payload)->bytes, value.bytes);
  // Moving a spilled payload hands over the heap object.
  const std::uint64_t before_move = testing::allocation_count();
  Payload moved(std::move(payload));
  EXPECT_EQ(testing::allocation_count() - before_move, 0u);
}

TEST(Payload, OverAlignedTypeSpills) {
  const std::uint64_t before = testing::allocation_count();
  Payload payload(Aligned16{42});
  EXPECT_EQ(testing::allocation_count() - before, 1u);
  const Aligned16* stored = payload_cast<Aligned16>(&payload);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->value, 42u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(stored) % 16, 0u);
}

template <typename T>
void expect_copy_and_move(std::uint8_t seed) {
  const T value = filled<T>(seed);
  Payload original(value);

  Payload copy(original);
  ASSERT_NE(payload_cast<T>(&copy), nullptr);
  ASSERT_NE(payload_cast<T>(&original), nullptr);
  EXPECT_NE(payload_cast<T>(&copy), payload_cast<T>(&original));
  EXPECT_EQ(payload_cast<T>(&copy)->bytes, value.bytes);

  Payload assigned;
  assigned = original;
  EXPECT_EQ(payload_cast<T>(&assigned)->bytes, value.bytes);
  EXPECT_EQ(payload_cast<T>(&original)->bytes, value.bytes);

  Payload moved(std::move(copy));
  EXPECT_FALSE(copy.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(payload_cast<T>(&moved)->bytes, value.bytes);

  Payload move_assigned(filled<T>(static_cast<std::uint8_t>(seed + 1)));
  move_assigned = std::move(moved);
  EXPECT_FALSE(moved.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(payload_cast<T>(&move_assigned)->bytes, value.bytes);
}

TEST(Payload, CopyAndMoveInline) { expect_copy_and_move<Exact>(1); }

TEST(Payload, CopyAndMoveHeap) { expect_copy_and_move<OneOver>(5); }

TEST(Payload, CastReturnsNullForWrongTypeOrEmpty) {
  const Payload empty{};
  EXPECT_FALSE(empty.has_value());
  EXPECT_EQ(payload_cast<Exact>(&empty), nullptr);
  EXPECT_EQ(payload_cast<Exact>(static_cast<const Payload*>(nullptr)),
            nullptr);

  const Payload inline_payload(Exact{});
  EXPECT_EQ(payload_cast<OneOver>(&inline_payload), nullptr);
  EXPECT_EQ(payload_cast<std::uint64_t>(&inline_payload), nullptr);
  EXPECT_NE(payload_cast<Exact>(&inline_payload), nullptr);

  const Payload heap_payload(OneOver{});
  EXPECT_EQ(payload_cast<Exact>(&heap_payload), nullptr);
  EXPECT_NE(payload_cast<OneOver>(&heap_payload), nullptr);
}

TEST(Payload, SelfAssignmentKeepsTheValue) {
  const Exact small = filled<Exact>(11);
  Payload inline_payload(small);
  Payload& inline_alias = inline_payload;
  inline_payload = inline_alias;
  inline_payload = std::move(inline_alias);
  ASSERT_NE(payload_cast<Exact>(&inline_payload), nullptr);
  EXPECT_EQ(payload_cast<Exact>(&inline_payload)->bytes, small.bytes);

  const OneOver big = filled<OneOver>(13);
  Payload heap_payload(big);
  Payload& heap_alias = heap_payload;
  heap_payload = heap_alias;
  heap_payload = std::move(heap_alias);
  ASSERT_NE(payload_cast<OneOver>(&heap_payload), nullptr);
  EXPECT_EQ(payload_cast<OneOver>(&heap_payload)->bytes, big.bytes);
}

TEST(Payload, ReassigningADifferentTypeReplacesTheValue) {
  Payload payload(filled<OneOver>(2));
  payload = filled<Exact>(4);
  EXPECT_EQ(payload_cast<OneOver>(&payload), nullptr);
  ASSERT_NE(payload_cast<Exact>(&payload), nullptr);
  EXPECT_EQ(payload_cast<Exact>(&payload)->bytes, filled<Exact>(4).bytes);
  payload.reset();
  EXPECT_FALSE(payload.has_value());
}

}  // namespace
}  // namespace uap2p
