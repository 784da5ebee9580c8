#include "sperr/chunker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

namespace sperr {
namespace {

TEST(Chunker, SingleChunkWhenVolumeFits) {
  const auto chunks = make_chunks(Dims{64, 64, 64}, Dims{256, 256, 256});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].dims, (Dims{64, 64, 64}));
  EXPECT_EQ(chunks[0].origin, (Dims{0, 0, 0}));
}

TEST(Chunker, EvenDivision) {
  const auto chunks = make_chunks(Dims{128, 128, 128}, Dims{64, 64, 64});
  EXPECT_EQ(chunks.size(), 8u);
  uint64_t total = 0;
  for (const auto& c : chunks) total += c.dims.total();
  EXPECT_EQ(total, Dims(128, 128, 128).total());
}

TEST(Chunker, NonDivisibleDimsCovered) {
  // The paper requires support for volumes not divisible by the chunk size.
  const Dims vol{100, 70, 35};
  const auto chunks = make_chunks(vol, Dims{32, 32, 32});
  uint64_t total = 0;
  for (const auto& c : chunks) total += c.dims.total();
  EXPECT_EQ(total, vol.total());
  // No chunk may be degenerate-small along a split axis (slivers are folded
  // into their neighbour).
  for (const auto& c : chunks) {
    EXPECT_GE(c.dims.x, 16u);
    EXPECT_GE(c.dims.y, 16u);
  }
}

TEST(Chunker, ChunksAreDisjointAndComplete) {
  const Dims vol{50, 33, 17};
  const auto chunks = make_chunks(vol, Dims{16, 16, 16});
  std::set<size_t> covered;
  for (const auto& c : chunks)
    for (size_t z = 0; z < c.dims.z; ++z)
      for (size_t y = 0; y < c.dims.y; ++y)
        for (size_t x = 0; x < c.dims.x; ++x) {
          const size_t idx =
              vol.index(c.origin.x + x, c.origin.y + y, c.origin.z + z);
          EXPECT_TRUE(covered.insert(idx).second) << "overlap at " << idx;
        }
  EXPECT_EQ(covered.size(), vol.total());
}

TEST(Chunker, GatherScatterRoundTrip) {
  const Dims vol{37, 23, 11};
  std::vector<double> volume(vol.total());
  std::iota(volume.begin(), volume.end(), 0.0);

  const auto chunks = make_chunks(vol, Dims{16, 8, 4});
  std::vector<double> rebuilt(vol.total(), -1.0);
  for (const auto& c : chunks) {
    std::vector<double> buf(c.dims.total());
    gather_chunk(volume.data(), vol, c, buf.data());
    scatter_chunk(buf.data(), c, rebuilt.data(), vol);
  }
  EXPECT_EQ(rebuilt, volume);
}

TEST(Chunker, GatherExtractsCorrectValues) {
  const Dims vol{8, 8, 8};
  std::vector<double> volume(vol.total());
  std::iota(volume.begin(), volume.end(), 0.0);
  const Chunk c{Dims{4, 4, 4}, Dims{4, 4, 4}};
  std::vector<double> buf(c.dims.total());
  gather_chunk(volume.data(), vol, c, buf.data());
  EXPECT_EQ(buf[0], double(vol.index(4, 4, 4)));
  EXPECT_EQ(buf[c.dims.index(3, 3, 3)], double(vol.index(7, 7, 7)));
}

TEST(Chunker, LargestChunkMatchesEnumeration) {
  for (size_t n = 1; n <= 40; ++n)
    for (size_t pref = 0; pref <= 45; ++pref) {
      size_t longest = 0;
      for (const Chunk& c : make_chunks(Dims{n, 1, 1}, Dims{pref, 1, 1}))
        longest = std::max(longest, c.dims.x);
      EXPECT_EQ(largest_chunk(Dims{n, 1, 1}, Dims{pref, 1, 1}).x, longest)
          << "n " << n << " pref " << pref;
    }
  EXPECT_EQ(largest_chunk(Dims{300, 512, 40}, Dims{256, 256, 256}),
            (Dims{300, 256, 40}));
}

TEST(Chunker, PreferredLargerThanVolumeClamped) {
  const auto chunks = make_chunks(Dims{10, 1, 1}, Dims{1000, 1000, 1000});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].dims, (Dims{10, 1, 1}));
}

}  // namespace
}  // namespace sperr
