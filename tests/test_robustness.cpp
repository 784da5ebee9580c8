// Adversarial-input robustness: every public decoder must survive random
// truncation and random byte corruption of valid streams — returning an
// error status or a sane (full-size, finite) reconstruction, never crashing
// or over-reading. These are deterministic mini-fuzzers (seeded), so
// failures reproduce.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

#include "baselines/mgardlike/compressor.h"
#include "baselines/szlike/compressor.h"
#include "baselines/tthreshlike/compressor.h"
#include "baselines/zfplike/compressor.h"
#include "common/byteio.h"
#include "common/resource.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/server.h"
#include "lossless/codec.h"
#include "oracle/oracle.h"
#include "outlier/coder.h"
#include "speck/common.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/outofcore.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"
#include "testkit/replies.h"
#include "wavelet/dwt.h"

namespace sperr {
namespace {

std::vector<uint8_t> make_blob() {
  const Dims dims{24, 24, 12};
  const auto field = data::miranda_density(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  return compress(field.data(), dims, cfg);
}

template <class DecodeFn>
void fuzz_decoder(const std::vector<uint8_t>& valid, uint64_t seed, DecodeFn&& fn) {
  Rng rng(seed);
  // Truncations at every scale.
  for (int i = 0; i < 60; ++i) {
    auto cut = valid;
    cut.resize(rng.below(valid.size()));
    fn(cut);
  }
  // Single- and multi-byte corruptions.
  for (int i = 0; i < 120; ++i) {
    auto bad = valid;
    const int flips = 1 + int(rng.below(8));
    for (int f = 0; f < flips; ++f)
      bad[rng.below(bad.size())] ^= uint8_t(1 + rng.below(255));
    fn(bad);
  }
  // Pure garbage.
  for (int i = 0; i < 40; ++i) {
    std::vector<uint8_t> junk(rng.below(4096));
    for (auto& b : junk) b = uint8_t(rng.next());
    fn(junk);
  }
}

void expect_sane_field(Status s, const std::vector<double>& out, Dims dims) {
  if (s != Status::ok) return;  // rejecting is always fine
  ASSERT_EQ(out.size(), dims.total());
  // Entropy-coded payloads carry no checksummed content; a flipped payload
  // bit may decode to *different* values, but never to NaN/Inf and never to
  // a wrongly-sized field.
  for (double v : out) ASSERT_TRUE(std::isfinite(v));
}

TEST(Robustness, SperrDecompressorSurvivesFuzz) {
  const auto blob = make_blob();
  fuzz_decoder(blob, 1001, [](const std::vector<uint8_t>& bytes) {
    std::vector<double> out;
    Dims dims;
    const Status s = decompress(bytes.data(), bytes.size(), out, dims);
    expect_sane_field(s, out, dims);
  });
}

TEST(Robustness, SperrLowresSurvivesFuzz) {
  const auto blob = make_blob();
  fuzz_decoder(blob, 1002, [](const std::vector<uint8_t>& bytes) {
    std::vector<double> out;
    Dims cd;
    const Status s = decompress_lowres(bytes.data(), bytes.size(), 1, out, cd);
    expect_sane_field(s, out, cd);
  });
}

TEST(Robustness, SperrTolerantDecoderSurvivesFuzz) {
  // The recovery path takes the same adversarial inputs as the strict one,
  // with a stronger postcondition: whenever it says ok, the field is usable
  // (full-size and finite) no matter what the fill policy had to patch.
  const auto blob = make_blob();
  uint64_t seed = 1013;
  for (const Recovery policy : {Recovery::zero_fill, Recovery::coarse_fill}) {
    fuzz_decoder(blob, seed++, [policy](const std::vector<uint8_t>& bytes) {
      std::vector<double> out;
      Dims dims;
      DecodeReport rep;
      const Status s =
          decompress_tolerant(bytes.data(), bytes.size(), policy, out, dims, &rep);
      expect_sane_field(s, out, dims);
      if (s == Status::ok) {
        ASSERT_TRUE(rep.field_valid);
      }
    });
  }
}

TEST(Robustness, VerifyContainerSurvivesFuzz) {
  const auto blob = make_blob();
  fuzz_decoder(blob, 1015, [](const std::vector<uint8_t>& bytes) {
    DecodeReport rep;
    (void)verify_container(bytes.data(), bytes.size(), &rep);
    // An audit never fabricates more damage than chunks it saw.
    ASSERT_LE(rep.damaged, rep.chunks.size());
  });
}

TEST(Robustness, OutOfCoreReaderSurvivesFuzz) {
  // The file-based reader shares the tolerant core but adds its own I/O
  // paths; run a reduced-iteration fuzz through a scratch file.
  const auto blob = make_blob();
  const std::string dir = ::testing::TempDir();
  const std::string in_path = dir + "/ooc_fuzz.sperr";
  const std::string out_path = dir + "/ooc_fuzz.raw";
  auto run = [&](const std::vector<uint8_t>& bytes) {
    {
      std::ofstream f(in_path, std::ios::binary);
      f.write(reinterpret_cast<const char*>(bytes.data()),
              std::streamsize(bytes.size()));
    }
    (void)outofcore::decompress_file(in_path, out_path, 8);
    DecodeReport rep;
    (void)outofcore::decompress_file(in_path, out_path, 8, Recovery::zero_fill,
                                     &rep);
  };
  Rng rng(1014);
  for (int i = 0; i < 25; ++i) {
    auto cut = blob;
    cut.resize(rng.below(blob.size()));
    run(cut);
  }
  for (int i = 0; i < 50; ++i) {
    auto bad = blob;
    const int flips = 1 + int(rng.below(8));
    for (int f = 0; f < flips; ++f)
      bad[rng.below(bad.size())] ^= uint8_t(1 + rng.below(255));
    run(bad);
  }
}

TEST(Robustness, MultiChunkCorruptionLeavesOthersBitIdentical) {
  // Randomized version of the acceptance contract: flip bits in a random
  // subset of chunks of an 8-chunk archive; the remaining chunks must come
  // back byte-for-byte equal to a clean decode under both fill policies.
  const Dims dims{48, 48, 48};
  const auto field = data::miranda_pressure(dims, 5);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  cfg.chunk_dims = Dims{24, 24, 24};
  cfg.lossless_pass = false;
  const auto blob = compress(field.data(), dims, cfg);

  detail::OpenedContainer oc;
  ASSERT_EQ(detail::open_tolerant(blob.data(), blob.size(), Recovery::fail_fast, oc,
                                  nullptr),
            Status::ok);
  std::vector<std::pair<size_t, size_t>> ranges;  // offset, length in blob
  for (const detail::ChunkSlice& sl : oc.slices)
    ranges.emplace_back(ContainerHeader::kOuterBytes + sl.offset,
                        sl.speck_avail + sl.outlier_avail);

  std::vector<double> clean;
  Dims od;
  ASSERT_EQ(decompress(blob.data(), blob.size(), clean, od), Status::ok);
  const auto& chunks = oc.chunks;

  Rng rng(1016);
  for (int round = 0; round < 12; ++round) {
    auto bad = blob;
    std::vector<bool> hit(ranges.size(), false);
    const size_t nvictims = 1 + rng.below(3);
    for (size_t v = 0; v < nvictims; ++v) {
      const size_t victim = rng.below(ranges.size());
      hit[victim] = true;
      bad[ranges[victim].first + rng.below(ranges[victim].second)] ^=
          uint8_t(1u << rng.below(8));
    }
    for (const Recovery policy : {Recovery::zero_fill, Recovery::coarse_fill}) {
      std::vector<double> out;
      DecodeReport rep;
      ASSERT_EQ(decompress_tolerant(bad.data(), bad.size(), policy, out, od, &rep),
                Status::ok);
      for (size_t i = 0; i < chunks.size(); ++i) {
        if (hit[i]) continue;  // this chunk was (maybe) damaged
        ASSERT_EQ(rep.chunks[i].status, Status::ok) << "chunk " << i;
        const Chunk& c = chunks[i];
        for (size_t z = 0; z < c.dims.z; ++z)
          for (size_t y = 0; y < c.dims.y; ++y)
            for (size_t x = 0; x < c.dims.x; ++x) {
              const size_t vi = oc.hdr.dims.index(c.origin.x + x, c.origin.y + y,
                                                  c.origin.z + z);
              ASSERT_EQ(clean[vi], out[vi]) << "chunk " << i;
            }
      }
    }
  }
}

/// Hand-build a v2 archive (16-byte directory entries, no checksums — so
/// crafted lengths reach the slicer unchallenged) with the given directory
/// and `payload_bytes` bytes of chunk payload.
std::vector<uint8_t> craft_v2_container(Dims dims, Dims cdims,
                                        const std::vector<ChunkEntry>& entries,
                                        size_t payload_bytes) {
  std::vector<uint8_t> inner;
  put_u32(inner, ContainerHeader::kInnerMagic);
  put_u8(inner, uint8_t(Mode::pwe));
  put_u8(inner, 8);
  put_u64(inner, dims.x);
  put_u64(inner, dims.y);
  put_u64(inner, dims.z);
  put_u64(inner, cdims.x);
  put_u64(inner, cdims.y);
  put_u64(inner, cdims.z);
  put_f64(inner, 1e-3);
  put_u32(inner, uint32_t(entries.size()));
  for (const ChunkEntry& e : entries) {
    put_u64(inner, e.speck_len);
    put_u64(inner, e.outlier_len);
  }
  inner.insert(inner.end(), payload_bytes, uint8_t(0xab));

  std::vector<uint8_t> blob;
  put_u32(blob, ContainerHeader::kOuterMagic);
  put_u8(blob, 2);  // container v2
  put_u8(blob, 0);  // no lossless pass
  put_u64(blob, inner.size());
  blob.insert(blob.end(), inner.begin(), inner.end());
  return blob;
}

TEST(Robustness, WrappingDirectoryLengthsAreRejected) {
  // A directory entry whose u64 speck_len + outlier_len wraps to a tiny
  // value must read as damage (truncation) — never as an "intact" chunk
  // whose huge advertised lengths then size the decode reads.
  const Dims dims{8, 8, 8};
  const auto blob = craft_v2_container(dims, dims, {ChunkEntry(UINT64_MAX, 2)}, 1);

  std::vector<double> out;
  Dims od;
  EXPECT_EQ(decompress(blob.data(), blob.size(), out, od),
            Status::truncated_stream);

  // decompress_lowres runs the same chunk loop: the wrapping lengths fail it
  // the same way.
  std::vector<double> low;
  Dims cd;
  EXPECT_EQ(decompress_lowres(blob.data(), blob.size(), 1, low, cd),
            Status::truncated_stream);

  for (const Recovery policy : {Recovery::zero_fill, Recovery::coarse_fill}) {
    DecodeReport rep;
    const Status s =
        decompress_tolerant(blob.data(), blob.size(), policy, out, od, &rep);
    expect_sane_field(s, out, od);
    ASSERT_EQ(rep.chunks.size(), 1u);
    EXPECT_TRUE(rep.chunks[0].damaged());
  }
}

TEST(Robustness, OverrunningChunkDoesNotAliasLaterChunks) {
  // Chunk 0 advertises (wrapping) huge extents, chunk 1 a small one. The
  // slicer must saturate at end-of-payload — both chunks report truncation
  // at honest offsets — instead of wrapping `pos` and handing chunk 1 a
  // slice aliased onto earlier payload bytes.
  const Dims dims{16, 8, 8};
  const Dims cdims{8, 8, 8};
  const auto blob = craft_v2_container(
      dims, cdims, {ChunkEntry(UINT64_MAX, 2), ChunkEntry(4, 0)}, 8);

  std::vector<double> out;
  Dims od;
  DecodeReport rep;
  const Status s = decompress_tolerant(blob.data(), blob.size(),
                                       Recovery::zero_fill, out, od, &rep);
  expect_sane_field(s, out, od);
  ASSERT_EQ(rep.chunks.size(), 2u);
  EXPECT_TRUE(rep.chunks[0].damaged());
  // Chunk 1 must report truncation at the stream tail — chunk 0's garbage
  // extent consumed the payload — not a decode verdict on an aliased slice.
  EXPECT_EQ(rep.chunks[1].status, Status::truncated_stream);
  EXPECT_GE(rep.chunks[1].offset, rep.chunks[0].offset);
  for (const ChunkReport& c : rep.chunks) EXPECT_LE(c.offset, blob.size());
}

TEST(Robustness, LosslessCodecSurvivesFuzz) {
  std::vector<uint8_t> payload(20000);
  Rng rng(7);
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = uint8_t(i % 251) ^ uint8_t(rng.below(4));
  const auto packed = lossless::compress(payload);
  fuzz_decoder(packed, 1003, [](const std::vector<uint8_t>& bytes) {
    std::vector<uint8_t> out;
    (void)lossless::decompress(bytes.data(), bytes.size(), out);
  });
}

TEST(Robustness, BlockedLosslessSurvivesFuzz) {
  // Same fuzz aimed at the block-parallel framing: a multi-block stream with
  // a mix of LZ and raw blocks, small blocks so the directory is a real
  // attack surface.
  std::vector<uint8_t> payload(6 * 4096 + 321);
  Rng rng(9);
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = i % 3 ? uint8_t(i % 251) : uint8_t(rng.next());
  const auto packed = lossless::compress(payload, {4096, 0});
  fuzz_decoder(packed, 1011, [](const std::vector<uint8_t>& bytes) {
    std::vector<uint8_t> out;
    size_t bad = 0;
    (void)lossless::decompress(bytes.data(), bytes.size(), out, &bad);
  });
}

TEST(Robustness, FlippedLosslessPayloadBitIsBlockIndexed) {
  // The tentpole's corruption contract, end to end: one flipped bit inside a
  // lossless block payload of a real SPERR archive must surface as
  // Status::corrupt_block naming that block — not a crash, not silent
  // garbage, not a vague error.
  const auto blob = make_blob();
  ASSERT_GT(blob.size(), 14u);
  ASSERT_EQ(blob[5], 1u) << "archive should carry a lossless payload";

  constexpr size_t kOuterBytes = ContainerHeader::kOuterBytes;
  lossless::StreamInfo info;
  ASSERT_EQ(lossless::inspect(blob.data() + kOuterBytes, blob.size() - kOuterBytes,
                              info),
            Status::ok);
  ASSERT_TRUE(info.blocked);
  ASSERT_FALSE(info.blocks.empty());

  Rng rng(1012);
  for (int i = 0; i < 40; ++i) {
    const size_t victim = rng.below(info.blocks.size());
    const auto& bi = info.blocks[victim];
    auto bad = blob;
    const size_t byte =
        kOuterBytes + size_t(bi.offset) + rng.below(size_t(bi.comp_size));
    bad[byte] ^= uint8_t(1u << rng.below(8));

    std::vector<uint8_t> inner;
    size_t bad_block = SIZE_MAX;
    ASSERT_EQ(unwrap_container(bad.data(), bad.size(), inner, &bad_block),
              Status::corrupt_block);
    ASSERT_EQ(bad_block, victim);

    // And through the public API: a clean error, never a silent field.
    std::vector<double> out;
    Dims od;
    ASSERT_EQ(decompress(bad.data(), bad.size(), out, od), Status::corrupt_block);
  }
}

TEST(Robustness, OutlierDecoderSurvivesFuzz) {
  std::vector<outlier::Outlier> outliers;
  Rng rng(8);
  for (int i = 0; i < 500; ++i)
    outliers.push_back({rng.below(100000), rng.uniform(1.1, 50.0)});
  // Deduplicate positions.
  std::sort(outliers.begin(), outliers.end(),
            [](const auto& a, const auto& b) { return a.pos < b.pos; });
  outliers.erase(std::unique(outliers.begin(), outliers.end(),
                             [](const auto& a, const auto& b) {
                               return a.pos == b.pos;
                             }),
                 outliers.end());
  const auto stream = outlier::encode(outliers, 100000, 1.0);
  fuzz_decoder(stream, 1004, [](const std::vector<uint8_t>& bytes) {
    std::vector<outlier::Outlier> out;
    (void)outlier::decode(bytes.data(), bytes.size(), 100000, out);
    for (const auto& o : out) ASSERT_LT(o.pos, 100000u);
  });
}

TEST(Robustness, SpeckPayloadBitFlipsSurviveBothDecoders) {
  // Corruption aimed squarely at the SPECK payload (bytes past the fixed
  // header): a flipped significance/sign/refinement bit desynchronizes the
  // set traversal, which must still terminate with a full-size finite field
  // — in the flattened decoder AND the reference decoder, which share the
  // stream format.
  const Dims dims{21, 18, 10};
  auto coeffs = data::miranda_density(dims);
  wavelet::forward_dwt(coeffs.data(), dims);
  double max_mag = 0.0;
  for (const double c : coeffs) max_mag = std::max(max_mag, std::fabs(c));
  const auto stream = speck::encode(coeffs.data(), dims, std::ldexp(max_mag, -14));
  ASSERT_GT(stream.size(), speck::Header::kBytes + 16);

  Rng rng(1009);
  auto decode_both = [&](const std::vector<uint8_t>& bytes) {
    std::vector<double> fast_out(dims.total()), ref_out(dims.total());
    const Status sf =
        speck::decode(bytes.data(), bytes.size(), dims, fast_out.data());
    const Status sr =
        speck::decode_reference(bytes.data(), bytes.size(), dims, ref_out.data());
    // The two decoders implement one format: same accept/reject verdict,
    // same reconstruction, corrupt or not.
    ASSERT_EQ(sf, sr);
    expect_sane_field(sf, fast_out, dims);
    if (sf == Status::ok) {
      for (size_t i = 0; i < fast_out.size(); ++i)
        ASSERT_EQ(fast_out[i], ref_out[i]) << "decoder divergence at " << i;
    }
  };

  const size_t payload_begin = speck::Header::kBytes;
  for (int i = 0; i < 150; ++i) {
    auto bad = stream;
    const int flips = 1 + int(rng.below(6));
    for (int f = 0; f < flips; ++f) {
      const size_t byte = payload_begin + rng.below(bad.size() - payload_begin);
      bad[byte] ^= uint8_t(1u << rng.below(8));  // single bit, inside payload
    }
    decode_both(bad);
  }
  // Payload truncation at bit granularity via the header's nbits field is
  // already covered by prefix tests; here cut at byte granularity too.
  for (int i = 0; i < 60; ++i) {
    auto cut = stream;
    cut.resize(payload_begin + rng.below(cut.size() - payload_begin));
    decode_both(cut);
  }
}

TEST(Robustness, SpeckSortingWordBitFlipsSurviveThreadSweep) {
  // The sweep engine consumes sorting-pass bits through 64-wide packed
  // significance words; flips landing inside those words are the corruption
  // most likely to desynchronize the batched kernels differently at
  // different lane counts. Aim every flip at a sorting-pass bit span
  // (located from EncodeStats::passes — each plane's payload is its sorting
  // bits followed by its refinement bits) and hold the decoder to the full
  // thread wall: at 1/2/4/8 intra-chunk threads AND in the reference
  // decoder, verdicts and reconstructions must stay identical.
  const Dims dims{26, 19, 14};
  auto coeffs = data::miranda_density(dims);
  wavelet::forward_dwt(coeffs.data(), dims);
  double max_mag = 0.0;
  for (const double c : coeffs) max_mag = std::max(max_mag, std::fabs(c));
  speck::EncodeStats stats;
  const auto stream =
      speck::encode(coeffs.data(), dims, std::ldexp(max_mag, -12), 0, &stats);
  ASSERT_FALSE(stats.passes.empty());

  std::vector<std::pair<uint64_t, uint64_t>> sort_spans;
  uint64_t cursor = 0;
  for (const auto& pass : stats.passes) {
    if (pass.sorting_bits > 0)
      sort_spans.push_back({cursor, cursor + pass.sorting_bits});
    cursor += pass.sorting_bits + pass.refinement_bits;
  }
  ASSERT_FALSE(sort_spans.empty());

  const int threads[] = {1, 2, 4, 8};
  auto decode_wall = [&](const std::vector<uint8_t>& bytes) {
    std::vector<double> ref_out(dims.total());
    const Status sr =
        speck::decode_reference(bytes.data(), bytes.size(), dims, ref_out.data());
    expect_sane_field(sr, ref_out, dims);
    for (const int t : threads) {
      std::vector<double> out(dims.total());
      const Status st =
          speck::decode(bytes.data(), bytes.size(), dims, out.data(), nullptr, t);
      ASSERT_EQ(st, sr) << "verdict diverges at threads=" << t;
      if (st == Status::ok) {
        for (size_t i = 0; i < out.size(); ++i)
          ASSERT_EQ(out[i], ref_out[i])
              << "threads=" << t << " coefficient " << i;
      }
    }
  };

  Rng rng(1011);
  for (int i = 0; i < 120; ++i) {
    auto bad = stream;
    const int flips = 1 + int(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const auto& span = sort_spans[rng.below(sort_spans.size())];
      const uint64_t bit = span.first + rng.below(span.second - span.first);
      bad[speck::Header::kBytes + size_t(bit / 8)] ^= uint8_t(1u << (bit % 8));
    }
    decode_wall(bad);
  }
}

TEST(Robustness, CraftedSpeckPayloadsMatchReference) {
  // Payloads no encoder writes, behind a valid header: all 1s (every set
  // significant and every sign negative, so discoveries come as fast as the
  // bits allow), all 0s, alternating bits in both phases, and random
  // bytes. Each is read under header nbits from 0 to the whole payload,
  // around the sorting sweep's 16- and 64-bit switches, and under top
  // planes that hold K in 32 bits, in 64 bits, and above the integer planes
  // (the double-valued deep prefix). The sweep writes its LSP by index into
  // arrays sized once to min(coefficients, bits) + 1, so the address
  // sanitizer build catches a write past them here. Every decode must come
  // back ok and equal the reference decoder's, at 1 and 4 threads.
  const Dims shapes[] = {{1, 1, 1}, {17, 9, 5}, {32, 32, 32}};
  for (const Dims dims : shapes) {
    const size_t payload = dims.total() / 2 + 16;
    Rng rng(1013);
    std::vector<uint8_t> random(payload);
    for (auto& b : random) b = uint8_t(rng.next());
    const std::vector<std::vector<uint8_t>> patterns = {
        std::vector<uint8_t>(payload, 0xff), std::vector<uint8_t>(payload, 0x00),
        std::vector<uint8_t>(payload, 0x55), std::vector<uint8_t>(payload, 0xaa),
        random};
    const uint64_t bits = 8 * uint64_t(payload);
    for (size_t k = 0; k < patterns.size(); ++k) {
      for (const int32_t n_max : {2, 31, 40, 60}) {
        for (const uint64_t nbits : {uint64_t(0), uint64_t(1), uint64_t(15),
                                     uint64_t(16), uint64_t(17), uint64_t(63),
                                     uint64_t(64), uint64_t(65), bits / 3, bits}) {
          SCOPED_TRACE(dims.to_string() + " pattern " + std::to_string(k) +
                       " n_max " + std::to_string(n_max) + " nbits " +
                       std::to_string(nbits));
          speck::Header hdr;
          hdr.q = 0.75;
          hdr.n_max = n_max;
          hdr.nbits = nbits;
          std::vector<uint8_t> stream;
          hdr.serialize(stream);
          stream.insert(stream.end(), patterns[k].begin(), patterns[k].end());

          std::vector<double> ref_out(dims.total());
          speck::DecodeStats ref_ds;
          ASSERT_EQ(speck::decode_reference(stream.data(), stream.size(), dims,
                                            ref_out.data(), &ref_ds),
                    Status::ok);
          for (const int t : {1, 4}) {
            std::vector<double> out(dims.total());
            speck::DecodeStats ds;
            ASSERT_EQ(speck::decode(stream.data(), stream.size(), dims, out.data(),
                                    &ds, t),
                      Status::ok);
            EXPECT_EQ(ds.bits_consumed, ref_ds.bits_consumed);
            EXPECT_EQ(ds.significant_count, ref_ds.significant_count);
            EXPECT_EQ(ds.truncated, ref_ds.truncated);
            for (size_t i = 0; i < out.size(); ++i)
              ASSERT_EQ(out[i], ref_out[i]) << "threads " << t << " coefficient " << i;
          }
        }
      }
    }
  }
}

TEST(Robustness, TolerantDecodeSurvivesSpeckSweepCorruption) {
  // The same corruption one level up: a chunked archive whose SPECK chunk
  // payloads are damaged. The strict decoder may cleanly reject (per-chunk
  // checksums catch the flip); the tolerant decoder with a fill policy must
  // always come back with a usable full-size finite field, and must agree
  // with the strict decoder whenever the strict decoder accepts.
  const Dims dims{24, 24, 12};
  const auto field = data::miranda_density(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 14);
  cfg.lossless_pass = false;
  const auto blob = compress(field.data(), dims, cfg);

  const size_t payload_begin = std::min<size_t>(64, blob.size() / 2);
  Rng rng(1012);
  for (int i = 0; i < 80; ++i) {
    auto bad = blob;
    const int flips = 1 + int(rng.below(5));
    for (int f = 0; f < flips; ++f) {
      const size_t byte = payload_begin + rng.below(bad.size() - payload_begin);
      bad[byte] ^= uint8_t(1u << rng.below(8));
    }
    std::vector<double> strict_out;
    Dims sd;
    const Status ss = decompress(bad.data(), bad.size(), strict_out, sd);
    expect_sane_field(ss, strict_out, sd);

    std::vector<double> tol_out;
    Dims td;
    const Status st =
        decompress_tolerant(bad.data(), bad.size(), Recovery::coarse_fill, tol_out, td);
    expect_sane_field(st, tol_out, td);
    if (ss == Status::ok) {
      ASSERT_EQ(st, Status::ok) << "tolerant rejects a stream strict accepts";
      ASSERT_EQ(tol_out.size(), strict_out.size());
      for (size_t k = 0; k < tol_out.size(); ++k)
        ASSERT_EQ(tol_out[k], strict_out[k]) << "coefficient " << k;
    }
  }
}

TEST(Robustness, ContainerPayloadBitFlipsSurviveFuzz) {
  // Same idea one level up: flip bits strictly after the container header of
  // an unpacked (lossless_pass=false) archive, so corruption lands in chunk
  // payloads rather than the framing. The decompressor must keep returning
  // full-size finite fields or a clean error.
  const Dims dims{24, 24, 12};
  const auto field = data::miranda_density(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  cfg.lossless_pass = false;
  const auto blob = compress(field.data(), dims, cfg);

  // Skip the container magic/header region conservatively (first 64 bytes).
  const size_t payload_begin = std::min<size_t>(64, blob.size() / 2);
  Rng rng(1010);
  for (int i = 0; i < 120; ++i) {
    auto bad = blob;
    const int flips = 1 + int(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const size_t byte = payload_begin + rng.below(bad.size() - payload_begin);
      bad[byte] ^= uint8_t(1u << rng.below(8));
    }
    std::vector<double> out;
    Dims od;
    const Status s = decompress(bad.data(), bad.size(), out, od);
    expect_sane_field(s, out, od);
  }
}

TEST(Robustness, BaselineDecodersSurviveFuzz) {
  const Dims dims{20, 20, 10};
  const auto field = data::s3d_ch4(dims);

  fuzz_decoder(szlike::compress(field.data(), dims, 1e-4), 1005,
               [](const std::vector<uint8_t>& bytes) {
                 std::vector<double> out;
                 Dims od;
                 (void)szlike::decompress(bytes.data(), bytes.size(), out, od);
               });
  fuzz_decoder(zfplike::compress_accuracy(field.data(), dims, 1e-4), 1006,
               [](const std::vector<uint8_t>& bytes) {
                 std::vector<double> out;
                 Dims od;
                 (void)zfplike::decompress(bytes.data(), bytes.size(), out, od);
               });
  fuzz_decoder(mgardlike::compress(field.data(), dims, 1e-4), 1007,
               [](const std::vector<uint8_t>& bytes) {
                 std::vector<double> out;
                 Dims od;
                 (void)mgardlike::decompress(bytes.data(), bytes.size(), out, od);
               });
  fuzz_decoder(tthreshlike::compress(field.data(), dims, 60.0), 1008,
               [](const std::vector<uint8_t>& bytes) {
                 std::vector<double> out;
                 Dims od;
                 (void)tthreshlike::decompress(bytes.data(), bytes.size(), out, od);
               });
}

// ---------------------------------------------------------------------------
// Decompression-bomb defense (common/resource.h). A bomb is a tiny,
// well-formed stream whose *header* declares enormous decoded output; the
// contract is that every decode entry point answers Status::resource_exhausted
// from the header alone — quickly, and without sizing a single allocation
// from the hostile declaration.

/// Hand-crafted v2 container: outer wrapper + inner header + `nchunks`
/// zero-length chunk entries. The declared dims / chunk grid are the
/// payload-free bomb.
std::vector<uint8_t> bomb_container(Dims dims, Dims chunk_dims, uint32_t nchunks = 1) {
  std::vector<uint8_t> inner;
  put_u32(inner, 0x43525053);  // 'SPRC'
  put_u8(inner, 0);            // mode = pwe
  put_u8(inner, 8);            // precision = f64
  put_u64(inner, dims.x);
  put_u64(inner, dims.y);
  put_u64(inner, dims.z);
  put_u64(inner, chunk_dims.x);
  put_u64(inner, chunk_dims.y);
  put_u64(inner, chunk_dims.z);
  put_f64(inner, 1e-6);  // quality
  put_u32(inner, nchunks);
  for (uint32_t i = 0; i < nchunks; ++i) {
    put_u64(inner, 0);  // speck_len
    put_u64(inner, 0);  // outlier_len
  }

  std::vector<uint8_t> out;
  put_u32(out, 0x5a525053);  // 'SPRZ'
  put_u8(out, 2);            // v2: no header checksum to forge
  put_u8(out, 0);            // lossless pass: off
  put_u64(out, inner.size());
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

/// Reference lossless framing declaring `raw_size` decoded bytes out of a
/// 25-byte stream.
std::vector<uint8_t> bomb_reference_stream(uint64_t raw_size) {
  std::vector<uint8_t> s;
  put_u8(s, 1);  // kModeLz
  put_u64(s, raw_size);
  for (int i = 0; i < 16; ++i) put_u8(s, 0xa5);
  return s;
}

/// Run `fn` and require it to answer resource_exhausted within `budget_ms`
/// of wall clock — a bomb rejection must cost header-parse time, not
/// allocation or decode time.
template <class Fn>
void expect_fast_rejection(const char* what, Fn&& fn, int64_t budget_ms = 250) {
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = fn();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_EQ(s, Status::resource_exhausted) << what;
  EXPECT_LT(ms, budget_ms) << what << " took " << ms << " ms to reject";
}

[[nodiscard]] long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(ResourceLimits, MemoryBudgetGrantsAtomicallyAndReleases) {
  MemoryBudget pool(1000);
  EXPECT_TRUE(pool.try_reserve(600));
  EXPECT_EQ(pool.used(), 600u);
  EXPECT_FALSE(pool.try_reserve(401));  // over by one: no partial debit
  EXPECT_EQ(pool.used(), 600u);
  EXPECT_TRUE(pool.try_reserve(400));
  EXPECT_EQ(pool.available(), 0u);
  pool.release(1000);
  EXPECT_EQ(pool.used(), 0u);

  // Reservation RAII: the grant dies with the object.
  {
    Reservation r;
    EXPECT_TRUE(r.acquire(&pool, 999));
    EXPECT_EQ(pool.used(), 999u);
    Reservation moved = std::move(r);
    EXPECT_EQ(pool.used(), 999u);  // move transfers, never double-releases
  }
  EXPECT_EQ(pool.used(), 0u);

  // Null budget: always granted, nothing tracked.
  Reservation r;
  EXPECT_TRUE(r.acquire(nullptr, UINT64_MAX));
}

TEST(ResourceLimits, ExpansionCheckSurvivesOverflowingDeclarations) {
  const ResourceLimits& rl = ResourceLimits::defaults();
  // A 25-byte stream declaring UINT64_MAX raw must not overflow the check.
  EXPECT_FALSE(rl.admits_expansion(25, UINT64_MAX));
  EXPECT_FALSE(rl.admits_expansion(0, uint64_t(2) << 20));
  // The 1 MiB floor: tiny legitimate streams are never pinched.
  EXPECT_TRUE(rl.admits_expansion(1, uint64_t(1) << 20));
  // The encoder's own per-block bound (4096x) passes exactly.
  EXPECT_TRUE(rl.admits_expansion(1 << 10, uint64_t(4096) << 10));
}

TEST(Robustness, BombHugeDimsRejectedFastByEveryDecoder) {
  // 96 bytes declaring 2^21 x 2^21 x 1 doubles = 32 TiB of output.
  const auto bomb =
      bomb_container({size_t(1) << 21, size_t(1) << 21, 1}, {256, 256, 256});
  ASSERT_LE(bomb.size(), size_t(1024));
  const long rss_before = peak_rss_kb();

  expect_fast_rejection("decompress<double>", [&] {
    std::vector<double> out;
    Dims od;
    return decompress(bomb.data(), bomb.size(), out, od);
  });
  expect_fast_rejection("decompress<float>", [&] {
    std::vector<float> out;
    Dims od;
    return decompress(bomb.data(), bomb.size(), out, od);
  });
  expect_fast_rejection("decompress_tolerant", [&] {
    std::vector<double> out;
    Dims od;
    return decompress_tolerant(bomb.data(), bomb.size(), Recovery::zero_fill,
                               out, od);
  });
  expect_fast_rejection("verify_container", [&] {
    return verify_container(bomb.data(), bomb.size());
  });
  expect_fast_rejection("decompress_lowres", [&] {
    std::vector<double> out;
    Dims od;
    return decompress_lowres(bomb.data(), bomb.size(), 1, out, od);
  });

  // 2^16 x 2^16 x 256 doubles (8 TiB) at 256^3 chunks: 65536 chunks, under
  // the chunk-count cap. Its coarse output at a deep drop is small, but
  // every chunk would decode at full resolution, so the full field must be
  // admitted whatever the drop.
  const uint32_t nchunks = 256 * 256;
  ASSERT_LE(uint64_t(nchunks), ResourceLimits::defaults().max_chunks);
  const auto wide = bomb_container({size_t(1) << 16, size_t(1) << 16, 256},
                                   {256, 256, 256}, nchunks);
  for (const size_t drop : {size_t(1), size_t(99)})
    expect_fast_rejection("decompress_lowres under the chunk cap", [&] {
      std::vector<double> out;
      Dims od;
      return decompress_lowres(wide.data(), wide.size(), drop, out, od);
    });

  // None of the rejections may have touched the declared fields: peak RSS
  // must not have grown by more than scratch noise.
  EXPECT_LT(peak_rss_kb() - rss_before, 64 * 1024)
      << "bomb rejection grew peak RSS";
}

TEST(Robustness, BombChunkGridExplosionRejected) {
  // Plausible output size, but 2^32 one-voxel chunks: enumerating the grid
  // (32 bytes of directory bookkeeping per chunk) is itself the bomb.
  const auto bomb =
      bomb_container({size_t(1) << 20, size_t(1) << 12, 1}, {1, 1, 1});
  expect_fast_rejection("chunk-grid bomb", [&] {
    std::vector<double> out;
    Dims od;
    return decompress(bomb.data(), bomb.size(), out, od);
  });
  expect_fast_rejection("chunk-grid bomb (verify)", [&] {
    return verify_container(bomb.data(), bomb.size());
  });
}

TEST(Robustness, BombLosslessRawSizeRejected) {
  // The reference framing's declared raw size is gated against the
  // expansion cap immediately: 25 bytes cannot legitimately decode to 2 TiB.
  const auto stream = bomb_reference_stream(uint64_t(1) << 41);
  expect_fast_rejection("lossless reference bomb", [&] {
    std::vector<uint8_t> out;
    return lossless::decompress(stream, out);
  });

  // The same stream smuggled in as a container's lossless payload.
  std::vector<uint8_t> container;
  put_u32(container, 0x5a525053);  // 'SPRZ'
  put_u8(container, 3);
  put_u8(container, 1);  // lossless pass: on
  put_u64(container, stream.size());
  container.insert(container.end(), stream.begin(), stream.end());
  expect_fast_rejection("container-wrapped lossless bomb", [&] {
    std::vector<double> out;
    Dims od;
    return decompress(container.data(), container.size(), out, od);
  });
}

TEST(Robustness, BombTightLimitsRejectLegitimateOversize) {
  // The per-call ceilings work on honest streams too: a valid container
  // whose decoded field exceeds a caller's ResourceLimits is refused
  // before decode, not after.
  const auto blob = make_blob();  // 24*24*12 doubles = 54 KiB decoded
  ResourceLimits tight;
  tight.max_output_bytes = 16 << 10;
  tight.max_working_bytes = 16 << 10;
  std::vector<double> out;
  Dims od;
  EXPECT_EQ(decompress(blob.data(), blob.size(), out, od, &tight),
            Status::resource_exhausted);
  // Under the defaults the same bytes decode fine.
  EXPECT_EQ(decompress(blob.data(), blob.size(), out, od), Status::ok);
}

TEST(Robustness, BombServerAnswersResourceExhaustedOnWire) {
  using namespace server;
  ServerConfig sc;
  sc.workers = 1;
  sc.queue_capacity = 4;
  Server srv(sc);
  ASSERT_EQ(srv.start(), Status::ok);
  const int fd = connect_loopback_deadline(srv.port(), -1);
  ASSERT_GE(fd, 0);
  // A neighbouring connection's honest DECOMPRESS, before and after the
  // bomb, must be answered with the direct decode's bytes both times.
  const int victim = connect_loopback_deadline(srv.port(), -1);
  ASSERT_GE(victim, 0);
  const auto honest = make_blob();
  const auto honest_body = build_decompress_body(0, 8, honest.data(), honest.size());
  const auto expected = expected_decompress_reply(honest);
  ASSERT_FALSE(expected.empty());

  const auto bomb =
      bomb_container({size_t(1) << 21, size_t(1) << 21, 1}, {256, 256, 256});
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(victim, Opcode::decompress, 1, honest_body, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  EXPECT_EQ(reply, expected);

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(exchange(fd, Opcode::decompress, 1,
                        build_decompress_body(0, 8, bomb.data(), bomb.size()),
                        h, reply));
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_EQ(h.code, uint8_t(WireStatus::resource_exhausted));
  EXPECT_TRUE(reply.empty());
  EXPECT_LT(ms, 250) << "wire bomb rejection took " << ms << " ms";

  ASSERT_TRUE(exchange(victim, Opcode::decompress, 2, honest_body, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  EXPECT_EQ(reply, expected);
  ::close(victim);

  // A bomb is an answered request, not a dropped connection: the same
  // socket keeps working, and STATS accounts the rejection.
  ASSERT_TRUE(exchange(fd, Opcode::verify, 2, bomb, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::resource_exhausted));
  ASSERT_TRUE(exchange(fd, Opcode::stats, 3, {}, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  StatsSnapshot snap;
  ASSERT_TRUE(StatsSnapshot::parse(reply.data(), reply.size(), snap));
  EXPECT_EQ(snap.resource_exhausted, 2u);
  EXPECT_EQ(snap.errors, 2u);
  ::close(fd);
}

TEST(Robustness, BombServerMemoryBudgetBoundsHonestRequests) {
  using namespace server;
  const auto blob = make_blob();  // decodes to 54 KiB
  const auto body = build_decompress_body(0, 8, blob.data(), blob.size());

  // One DECOMPRESS of `blob` on a fresh server with these budgets.
  auto decompress_with = [&](uint64_t max_output, uint64_t max_memory,
                             FrameHeader& h, std::vector<uint8_t>& reply) {
    ServerConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 4;
    sc.max_output_bytes = max_output;
    sc.max_memory_bytes = max_memory;
    Server srv(sc);
    ASSERT_EQ(srv.start(), Status::ok);
    const int fd = connect_loopback_deadline(srv.port(), -1);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(exchange(fd, Opcode::decompress, 1, body, h, reply));
    ::close(fd);
  };

  FrameHeader h;
  std::vector<uint8_t> reply;
  // A per-request output ceiling below the honest decode size: status 8.
  decompress_with(16 << 10, 0, h, reply);
  EXPECT_EQ(h.code, uint8_t(WireStatus::resource_exhausted));
  // So is a memory pool below it.
  decompress_with(0, 32 << 10, h, reply);
  EXPECT_EQ(h.code, uint8_t(WireStatus::resource_exhausted));

  // A generous ceiling admits the same request, and the reply is the
  // direct decode byte for byte.
  decompress_with(1 << 20, 4 << 20, h, reply);
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  const auto expected = expected_decompress_reply(blob);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(reply, expected);
}

}  // namespace
}  // namespace sperr
