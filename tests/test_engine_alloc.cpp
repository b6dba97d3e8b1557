// Steady-state allocation behaviour of the slab-backed engine: after
// warm-up, schedule -> run of small-capture events must not touch the
// allocator at all (slab slots and priority-queue storage are recycled).
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_probe.hpp"
#include "sim/engine.hpp"

namespace uap2p::sim {
namespace {

TEST(EngineAllocation, SteadyStateScheduleRunIsAllocationFree) {
  Engine engine;
  std::uint64_t fired = 0;
  auto fill_and_run = [&] {
    for (int i = 0; i < 256; ++i) {
      engine.schedule(double(i % 17), [&fired] { ++fired; });
    }
    engine.run();
  };
  // Warm-up: grows the slab and the queue's backing vector to their
  // steady-state footprint.
  for (int round = 0; round < 3; ++round) fill_and_run();
  const std::size_t slab = engine.slab_size();

  const std::uint64_t before = testing::allocation_count();
  for (int round = 0; round < 10; ++round) fill_and_run();
  const std::uint64_t after = testing::allocation_count();

  EXPECT_EQ(after - before, 0u) << "steady-state schedule/run allocated";
  EXPECT_EQ(engine.slab_size(), slab) << "slab grew instead of recycling";
  EXPECT_EQ(fired, 13u * 256u);
}

TEST(EngineAllocation, CancellationIsAllocationFree) {
  Engine engine;
  std::vector<EventHandle> handles(128);
  auto churn = [&] {
    for (int i = 0; i < 128; ++i) {
      handles[i] = engine.schedule(double(i), [] {});
    }
    for (int i = 0; i < 128; i += 2) handles[i].cancel();
    engine.run();
  };
  churn();  // warm-up
  const std::uint64_t before = testing::allocation_count();
  for (int round = 0; round < 5; ++round) churn();
  EXPECT_EQ(testing::allocation_count() - before, 0u);
}

TEST(EngineAllocation, InlineCapacityBoundaryStaysInline) {
  // A capture of exactly kInlineCapacity bytes must stay in the slot.
  struct Capture {
    unsigned char bytes[detail::EventCallback::kInlineCapacity - 8];
    std::uint64_t* counter;
  };
  static_assert(sizeof(Capture) <= detail::EventCallback::kInlineCapacity);
  Engine engine;
  std::uint64_t fired = 0;
  Capture capture{};
  capture.counter = &fired;
  engine.schedule(1.0, [capture] { ++*capture.counter; });  // warm slab+queue
  engine.run();
  const std::uint64_t before = testing::allocation_count();
  for (int i = 0; i < 64; ++i) {
    engine.schedule(1.0, [capture] { ++*capture.counter; });
    engine.run();
  }
  EXPECT_EQ(testing::allocation_count() - before, 0u);
  EXPECT_EQ(fired, 65u);
}

TEST(EngineAllocation, OversizedCapturesSpillButStillRun) {
  struct Big {
    unsigned char bytes[128] = {};
    std::uint64_t* counter = nullptr;
  };
  static_assert(sizeof(Big) > detail::EventCallback::kInlineCapacity);
  Engine engine;
  std::uint64_t fired = 0;
  Big big;
  big.counter = &fired;
  engine.schedule(1.0, [big] { ++*big.counter; });
  engine.run();
  EXPECT_EQ(fired, 1u);  // correctness of the heap-fallback path
}

TEST(EngineAllocation, OverAlignedCapturesSpillButStillRun) {
  // The slab keeps slots at one cache line by storing captures 8-byte
  // aligned; a small but 16-byte-aligned capture must take the heap path.
  struct alignas(16) Aligned {
    std::uint64_t* counter = nullptr;
  };
  static_assert(sizeof(Aligned) <= detail::EventCallback::kInlineCapacity);
  Engine engine;
  std::uint64_t fired = 0;
  Aligned aligned;
  aligned.counter = &fired;
  engine.schedule(1.0, [aligned] { ++*aligned.counter; });
  engine.run();
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(engine.stats().spilled_callbacks, 1u);
  EXPECT_EQ(engine.stats().inline_callbacks, 0u);
}

}  // namespace
}  // namespace uap2p::sim
