// The blocked, line-batched DWT drivers must be bit-identical — not merely
// close — to the per-line reference implementation they replaced: the SPECK
// coder and the PWE guarantee both consume the exact coefficient bits, so
// any rounding difference would silently change every stream the library
// produces.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "oracle/oracle.h"
#include "wavelet/dwt.h"

namespace sperr::wavelet {
namespace {

std::vector<double> random_field(Dims dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> f(dims.total());
  for (auto& v : f) v = rng.uniform(-100.0, 100.0);
  return f;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class BlockedEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(BlockedEquivalence, ForwardAndInverseBitIdenticalAllKernels) {
  const auto [x, y, z] = GetParam();
  const Dims dims{x, y, z};
  const auto orig = random_field(dims, 29 + x + 1000 * y + 1000000 * z);

  for (const Kernel k : {Kernel::cdf97, Kernel::cdf53, Kernel::haar}) {
    auto blocked = orig;
    auto reference = orig;
    forward_dwt(blocked.data(), dims, k);
    forward_dwt_reference(reference.data(), dims, k);
    EXPECT_TRUE(bit_equal(blocked, reference))
        << "forward, dims " << dims.to_string() << ", kernel " << to_string(k);

    inverse_dwt(blocked.data(), dims, k);
    inverse_dwt_reference(reference.data(), dims, k);
    EXPECT_TRUE(bit_equal(blocked, reference))
        << "inverse, dims " << dims.to_string() << ", kernel " << to_string(k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedEquivalence,
    ::testing::Values(
        std::make_tuple(64, 64, 64),   // cube, multiple of the batch width
        std::make_tuple(33, 57, 9),    // odd extents everywhere
        std::make_tuple(100, 1, 1),    // 1-D non-power-of-two
        std::make_tuple(31, 17, 129),  // non-power-of-two 3-D
        std::make_tuple(8, 8, 64),     // x extent below the batch width
        std::make_tuple(64, 64, 1),    // 2-D plane
        std::make_tuple(1, 128, 1),    // degenerate y-line
        std::make_tuple(130, 66, 34),  // just past batch multiples
        std::make_tuple(5, 5, 5)));    // below transform threshold: no-op

TEST(BlockedPartialInverse, KeepZeroMatchesReferenceFullInverse) {
  const Dims dims{64, 48, 32};
  auto full = random_field(dims, 4242);
  forward_dwt(full.data(), dims);

  auto blocked = full;
  inverse_dwt_partial(blocked.data(), dims, 0);
  auto reference = full;
  inverse_dwt_reference(reference.data(), dims);
  EXPECT_TRUE(bit_equal(blocked, reference));
}

TEST(BlockedPartialInverse, KeepMaxIsIdentity) {
  const Dims dims{48, 40, 24};
  auto full = random_field(dims, 77);
  forward_dwt(full.data(), dims);

  auto kept = full;
  inverse_dwt_partial(kept.data(), dims, plan_levels(dims).max());
  EXPECT_TRUE(bit_equal(kept, full));
}

TEST(BlockedDwtArena, SteadyStateTransformsAllocateNothing) {
  const Dims dims{48, 40, 24};
  Arena arena;
  auto f = random_field(dims, 11);

  // Warm up twice so the arena has coalesced into its final single block.
  for (int i = 0; i < 2; ++i) {
    forward_dwt(f.data(), dims, Kernel::cdf97, &arena);
    inverse_dwt(f.data(), dims, Kernel::cdf97, &arena);
    arena.reset();
  }
  const size_t allocs_after_warmup = arena.system_alloc_count();

  for (int i = 0; i < 3; ++i) {
    forward_dwt(f.data(), dims, Kernel::cdf97, &arena);
    inverse_dwt(f.data(), dims, Kernel::cdf97, &arena);
    arena.reset();
  }
  EXPECT_EQ(arena.system_alloc_count(), allocs_after_warmup)
      << "steady-state transforms must not touch the heap";
}

TEST(BlockedDwtArena, CallerAllocationsSurviveNestedTransform) {
  // The pipeline allocates its coefficient buffer from the same arena it
  // hands to forward_dwt; the transform's internal Scope must rewind its
  // tiles without disturbing that earlier allocation.
  const Dims dims{33, 30, 17};
  Arena arena;
  const auto orig = random_field(dims, 5);

  double* buf = arena.alloc<double>(dims.total());
  std::memcpy(buf, orig.data(), dims.total() * sizeof(double));
  const size_t used_before = arena.used();

  forward_dwt(buf, dims, Kernel::cdf97, &arena);
  EXPECT_EQ(arena.used(), used_before) << "transform scratch leaked";

  auto reference = orig;
  forward_dwt_reference(reference.data(), dims);
  EXPECT_EQ(std::memcmp(buf, reference.data(), dims.total() * sizeof(double)), 0);
}

}  // namespace
}  // namespace sperr::wavelet
