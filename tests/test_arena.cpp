// Invariants of the per-thread scratch arena the chunked hot paths rely on:
// alignment of every pointer, non-moving growth, Scope rewind semantics,
// reserve(), the coalescing reset() that makes steady-state chunk loops
// allocation-free, and (under AddressSanitizer) the poisoning of the space
// the arena does not hand out.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/arena.h"

namespace sperr {
namespace {

bool aligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % Arena::kAlignment == 0;
}

TEST(Arena, EveryPointerIsCacheLineAligned) {
  Arena a;
  // Deliberately odd sizes so round-up is exercised, plus a zero-byte ask.
  for (const size_t bytes : {1ul, 3ul, 63ul, 64ul, 65ul, 1000ul, 0ul}) {
    void* p = a.allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(aligned(p)) << "allocate(" << bytes << ")";
  }
  EXPECT_TRUE(aligned(a.alloc<double>(17)));
  EXPECT_TRUE(aligned(a.alloc<uint8_t>(1)));
}

TEST(Arena, GrowthDoesNotMoveLiveAllocations) {
  Arena a;
  double* first = a.alloc<double>(100);
  for (size_t i = 0; i < 100; ++i) first[i] = double(i) * 0.5;

  // Force several growth blocks while `first` is live.
  for (int i = 0; i < 8; ++i) a.alloc<double>(1 << 16);

  for (size_t i = 0; i < 100; ++i)
    ASSERT_EQ(first[i], double(i) * 0.5) << "growth moved or clobbered data";
}

TEST(Arena, ScopeRewindsNestedAllocationsOnly) {
  Arena a;
  double* outer = a.alloc<double>(8);
  outer[0] = 42.0;
  const size_t used_outer = a.used();

  {
    Arena::Scope s(a);
    double* inner = a.alloc<double>(1 << 15);  // forces growth mid-scope
    inner[0] = 1.0;
    EXPECT_GT(a.used(), used_outer);
  }
  EXPECT_EQ(a.used(), used_outer);
  EXPECT_EQ(outer[0], 42.0);

  // Space released by the scope is reusable without new system allocations.
  const size_t allocs = a.system_alloc_count();
  a.alloc<double>(1 << 15);
  EXPECT_EQ(a.system_alloc_count(), allocs);
}

TEST(Arena, ResetCoalescesBlocksAndRetainsCapacity) {
  Arena a;
  // Provoke multiple blocks.
  a.alloc<double>(1 << 13);
  a.alloc<double>(1 << 14);
  a.alloc<double>(1 << 15);
  a.alloc<double>(1 << 16);
  const size_t cap = a.capacity();
  ASSERT_GT(cap, 0u);

  a.reset();
  EXPECT_EQ(a.used(), 0u);
  EXPECT_GE(a.capacity(), cap) << "reset must not shrink capacity";

  // A second reset on the now-single block must not re-allocate.
  const size_t allocs = a.system_alloc_count();
  a.reset();
  EXPECT_EQ(a.system_alloc_count(), allocs);
}

TEST(Arena, SteadyStateWorkloadIsAllocationFree) {
  // Model a chunk loop: same allocation pattern every iteration, reset in
  // between. After one warm-up + reset (which coalesces), the system
  // allocation count must freeze.
  Arena a;
  auto iteration = [&a] {
    a.alloc<double>(4096);
    {
      Arena::Scope s(a);
      a.alloc<double>(32 * 256);
      a.alloc<double>(32 * 256);
    }
    a.alloc<uint8_t>(513);
    a.reset();
  };

  iteration();  // warm-up: grows and coalesces
  iteration();  // single-block steady state reached
  const size_t allocs = a.system_alloc_count();
  for (int i = 0; i < 16; ++i) iteration();
  EXPECT_EQ(a.system_alloc_count(), allocs);
}

TEST(Arena, PreSizedConstructorAvoidsGrowth) {
  Arena a(1 << 20);
  const size_t allocs = a.system_alloc_count();
  EXPECT_EQ(allocs, 1u);
  a.alloc<double>((1 << 20) / sizeof(double));
  EXPECT_EQ(a.system_alloc_count(), allocs);
}

TEST(Arena, ReserveKeepsLaterStagesInOneBlock) {
  // A cold arena: the first allocation fills its block exactly, so without
  // the reservation each later stage would open a block of its own.
  Arena a;
  a.alloc<uint8_t>(1 << 16);
  a.reserve(1 << 20);
  const size_t allocs = a.system_alloc_count();
  uint8_t* stage1 = nullptr;
  {
    Arena::Scope s(a);
    stage1 = a.alloc<uint8_t>(1 << 19);
    a.alloc<uint8_t>(1 << 18);
  }
  // The next stage lands on the released stage's pages, in the same block.
  EXPECT_EQ(a.alloc<uint8_t>(1 << 19), stage1);
  a.alloc<uint8_t>(1 << 18);
  EXPECT_EQ(a.system_alloc_count(), allocs);

  a.reset();
  const size_t coalesced = a.system_alloc_count();
  a.reserve(a.capacity() / 2);  // room on a warm arena: a no-op
  EXPECT_EQ(a.system_alloc_count(), coalesced);
}

TEST(ArenaDeathTest, WriteOnePastAnAllocationIsReported) {
#if SPERR_ARENA_POISON
  // Two arrays back to back, as the SPECK coders lay out their state: a
  // write one element past the first lands in its red zone, not silently in
  // the second.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Arena a;
        uint32_t* first = a.alloc<uint32_t>(16);
        uint32_t* second = a.alloc<uint32_t>(16);
        second[0] = 1;
        volatile uint32_t* p = first;
        p[16] = 7;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "the arena poisons its free space only under AddressSanitizer";
#endif
}

TEST(Arena, ReleasedScopeIsReusedAfterPoisoning) {
  // Whatever the build, memory a Scope released is handed out again and is
  // fully usable (under ASan: unpoisoned again).
  Arena a;
  uint8_t* kept = a.alloc<uint8_t>(100);
  uint8_t* inner = nullptr;
  {
    Arena::Scope s(a);
    inner = a.alloc<uint8_t>(1000);
    std::memset(inner, 1, 1000);
  }
  uint8_t* again = a.alloc<uint8_t>(1000);
  EXPECT_EQ(again, inner);
  std::memset(again, 2, 1000);
  std::memset(kept, 3, 100);
  a.reset();
  std::memset(a.alloc<uint8_t>(100), 4, 100);
}

TEST(Arena, TlsArenaIsPerThreadAndPersistent) {
  Arena& first = tls_arena();
  Arena& second = tls_arena();
  EXPECT_EQ(&first, &second);
}

}  // namespace
}  // namespace sperr
