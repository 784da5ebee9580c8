// Fault-isolated decoding: container v3 checksums every chunk, so a damaged
// archive must (a) name exactly the damaged chunks, (b) hand back every
// other chunk bit-identical to a clean decode under the fill policies, and
// (c) fail deterministically (lowest damaged index) under fail_fast. Plus
// unit coverage of the faultinject planner these guarantees are fuzzed with.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "data/synthetic.h"
#include "sperr/archive.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/outofcore.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"
#include "testkit/faultinject.h"

namespace sperr {
namespace {

constexpr size_t kOuterBytes = ContainerHeader::kOuterBytes;

/// An 8-chunk PWE archive (48^3 field, 24^3 chunks), lossless pass optional.
std::vector<uint8_t> make_multichunk_blob(std::vector<double>* field_out = nullptr,
                                          bool lossless = false) {
  const Dims dims{48, 48, 48};
  auto field = data::miranda_pressure(dims, 5);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 16);
  cfg.chunk_dims = Dims{24, 24, 24};
  cfg.lossless_pass = lossless;
  auto blob = compress(field.data(), dims, cfg);
  if (field_out) *field_out = std::move(field);
  return blob;
}

/// Absolute byte ranges of each chunk's streams within a NON-lossless blob
/// (inner bytes sit verbatim after the outer wrapper).
std::vector<faultinject::ByteRange> chunk_ranges(const std::vector<uint8_t>& blob,
                                                 ContainerHeader* hdr_out = nullptr) {
  detail::OpenedContainer oc;
  EXPECT_EQ(detail::open_tolerant(blob.data(), blob.size(), Recovery::fail_fast, oc,
                                  nullptr),
            Status::ok);
  std::vector<faultinject::ByteRange> ranges;
  for (const detail::ChunkSlice& sl : oc.slices)
    ranges.push_back({kOuterBytes + sl.offset, sl.speck_avail + sl.outlier_avail});
  if (hdr_out) *hdr_out = oc.hdr;
  return ranges;
}

/// Every sample of every chunk NOT in `damaged` must match the clean decode
/// exactly; damaged chunks must at least be finite.
void expect_good_chunks_bit_identical(const std::vector<double>& clean,
                                      const std::vector<double>& recovered,
                                      Dims dims, Dims chunk_dims,
                                      const std::vector<size_t>& damaged) {
  ASSERT_EQ(clean.size(), recovered.size());
  const auto chunks = make_chunks(dims, chunk_dims);
  for (size_t i = 0; i < chunks.size(); ++i) {
    const bool bad =
        std::find(damaged.begin(), damaged.end(), i) != damaged.end();
    const Chunk& c = chunks[i];
    for (size_t z = 0; z < c.dims.z; ++z)
      for (size_t y = 0; y < c.dims.y; ++y)
        for (size_t x = 0; x < c.dims.x; ++x) {
          const size_t vi =
              dims.index(c.origin.x + x, c.origin.y + y, c.origin.z + z);
          if (bad) {
            ASSERT_TRUE(std::isfinite(recovered[vi])) << "chunk " << i;
          } else {
            ASSERT_EQ(clean[vi], recovered[vi])
                << "chunk " << i << " should be untouched";
          }
        }
  }
}

// ---- faultinject unit tests ------------------------------------------------

TEST(FaultInject, PlanIsDeterministicAndRespectsStructure) {
  const std::vector<faultinject::ByteRange> slices{{10, 30}, {40, 0}, {40, 25}};
  const auto a = faultinject::plan(42, 5, slices, 100);
  const auto b = faultinject::plan(42, 5, slices, 100);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].mask, b[i].mask);
  }
  EXPECT_FALSE(a.empty());
  // At most one structural fault, and only in last position.
  for (size_t i = 0; i + 1 < a.size(); ++i)
    EXPECT_LE(uint8_t(a[i].kind), uint8_t(faultinject::FaultKind::zero_range));
  for (const auto& f : a) {
    EXPECT_NE(f.target, 1u) << "zero-length slice must never be targeted";
    EXPECT_FALSE(to_string(f).empty());
  }
  // Different seeds diverge (overwhelmingly likely over 5 faults).
  const auto c = faultinject::plan(43, 5, slices, 100);
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].kind != c[i].kind || a[i].offset != c[i].offset ||
              a[i].mask != c[i].mask || a[i].target != c[i].target;
  EXPECT_TRUE(differs);
}

TEST(FaultInject, DamagedSlicesIsExactGroundTruth) {
  std::vector<uint8_t> buf(100);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = uint8_t(i);
  const std::vector<faultinject::ByteRange> slices{{0, 25}, {25, 25}, {50, 25}, {75, 25}};

  // A single bit flip in slice 2 damages exactly slice 2.
  faultinject::Fault f;
  f.kind = faultinject::FaultKind::bit_flip;
  f.target = 2;
  f.offset = 7;
  f.mask = 0x20;
  const auto mutated = faultinject::apply(buf.data(), buf.size(), slices, {f});
  ASSERT_EQ(mutated.size(), buf.size());
  EXPECT_EQ(mutated[50 + 7], buf[50 + 7] ^ 0x20);
  const auto damaged = faultinject::damaged_slices(buf.data(), buf.size(), slices, {f});
  EXPECT_EQ(damaged, (std::vector<size_t>{2}));

  // Swapping slices 0 and 3 damages both (contents differ).
  faultinject::Fault sw;
  sw.kind = faultinject::FaultKind::swap_slices;
  sw.target = 0;
  sw.other = 3;
  const auto d2 = faultinject::damaged_slices(buf.data(), buf.size(), slices, {sw});
  EXPECT_EQ(d2, (std::vector<size_t>{0, 3}));

  // Truncating 30 bytes cuts slice 3 entirely and slice 2 partially.
  faultinject::Fault tr;
  tr.kind = faultinject::FaultKind::truncate_tail;
  tr.length = 30;
  const auto d3 = faultinject::damaged_slices(buf.data(), buf.size(), slices, {tr});
  EXPECT_EQ(d3, (std::vector<size_t>{2, 3}));
}

// ---- verify_container -------------------------------------------------------

TEST(Recovery, VerifyCleanArchive) {
  const auto blob = make_multichunk_blob(nullptr, true);
  DecodeReport rep;
  ASSERT_EQ(verify_container(blob.data(), blob.size(), &rep), Status::ok);
  EXPECT_TRUE(rep.header_ok);
  EXPECT_EQ(rep.version, ContainerHeader::kVersion);
  EXPECT_EQ(rep.damaged, 0u);
  ASSERT_EQ(rep.chunks.size(), 8u);
  for (const auto& c : rep.chunks) {
    EXPECT_TRUE(c.checksum_present);
    EXPECT_TRUE(c.checksum_ok);
    EXPECT_EQ(c.checksum_stored, c.checksum_computed);
    EXPECT_EQ(c.status, Status::ok);
  }
}

// ---- the acceptance contract: 1 damaged chunk out of 8 ----------------------

TEST(Recovery, OneCorruptChunkOfEightIsIsolated) {
  std::vector<double> field;
  const auto blob = make_multichunk_blob(&field);
  ContainerHeader hdr;
  const auto ranges = chunk_ranges(blob, &hdr);
  ASSERT_EQ(ranges.size(), 8u);

  std::vector<double> clean;
  Dims dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), clean, dims), Status::ok);

  for (const size_t victim : {size_t(0), size_t(3), size_t(7)}) {
    auto bad = blob;
    bad[ranges[victim].offset + ranges[victim].length / 2] ^= 0x40;

    // verify: exactly the victim flagged.
    DecodeReport vrep;
    ASSERT_EQ(verify_container(bad.data(), bad.size(), &vrep),
              Status::corrupt_chunk);
    EXPECT_EQ(vrep.damaged, 1u);
    EXPECT_EQ(vrep.first_damaged(), victim);
    for (const auto& c : vrep.chunks)
      EXPECT_EQ(c.checksum_ok, c.index != victim);

    // fail_fast (and the plain decompress API): deterministic error naming
    // the victim, no field.
    std::vector<double> out;
    Dims od;
    DecodeReport frep;
    ASSERT_EQ(decompress_tolerant(bad.data(), bad.size(), Recovery::fail_fast,
                                  out, od, &frep),
              Status::corrupt_chunk);
    EXPECT_FALSE(frep.field_valid);
    EXPECT_EQ(frep.first_damaged(), victim);
    ASSERT_EQ(decompress(bad.data(), bad.size(), out, od), Status::corrupt_chunk);

    // zero_fill: usable field, victim zeroed, everything else bit-identical.
    DecodeReport zrep;
    ASSERT_EQ(decompress_tolerant(bad.data(), bad.size(), Recovery::zero_fill,
                                  out, od, &zrep),
              Status::ok);
    EXPECT_TRUE(zrep.field_valid);
    EXPECT_EQ(zrep.damaged, 1u);
    EXPECT_EQ(zrep.recovered, 1u);
    EXPECT_EQ(zrep.chunks[victim].action, ChunkAction::zeroed);
    expect_good_chunks_bit_identical(clean, out, dims, hdr.chunk_dims, {victim});

    // coarse_fill: usable field, victim patched (coarse or DC), rest identical.
    DecodeReport crep;
    ASSERT_EQ(decompress_tolerant(bad.data(), bad.size(), Recovery::coarse_fill,
                                  out, od, &crep),
              Status::ok);
    EXPECT_TRUE(crep.field_valid);
    EXPECT_EQ(crep.damaged, 1u);
    EXPECT_NE(crep.chunks[victim].action, ChunkAction::none);
    expect_good_chunks_bit_identical(clean, out, dims, hdr.chunk_dims, {victim});
  }
}

TEST(Recovery, MultiChunkCorruptionIsolatesEachChunk) {
  std::vector<double> field;
  const auto blob = make_multichunk_blob(&field);
  ContainerHeader hdr;
  const auto ranges = chunk_ranges(blob, &hdr);

  std::vector<double> clean;
  Dims dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), clean, dims), Status::ok);

  auto bad = blob;
  const std::vector<size_t> victims{1, 4, 6};
  for (const size_t v : victims) bad[ranges[v].offset + 3] ^= 0x04;

  // fail_fast reports the LOWEST index, deterministically, run after run.
  for (int run = 0; run < 4; ++run) {
    std::vector<double> out;
    Dims od;
    DecodeReport rep;
    ASSERT_EQ(decompress_tolerant(bad.data(), bad.size(), Recovery::fail_fast,
                                  out, od, &rep),
              Status::corrupt_chunk);
    EXPECT_EQ(rep.first_damaged(), victims.front());
    EXPECT_EQ(rep.damaged, victims.size());
  }

  std::vector<double> out;
  Dims od;
  DecodeReport rep;
  ASSERT_EQ(decompress_tolerant(bad.data(), bad.size(), Recovery::coarse_fill,
                                out, od, &rep),
            Status::ok);
  EXPECT_EQ(rep.damaged, victims.size());
  expect_good_chunks_bit_identical(clean, out, dims, hdr.chunk_dims, victims);
}

TEST(Recovery, TailTruncationIsRecoverable) {
  const auto blob = make_multichunk_blob();
  ContainerHeader hdr;
  const auto ranges = chunk_ranges(blob, &hdr);

  std::vector<double> clean;
  Dims dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), clean, dims), Status::ok);

  // Cut into the middle of the last chunk's streams.
  auto cut = blob;
  cut.resize(ranges.back().offset + ranges.back().length / 3);

  std::vector<double> out;
  Dims od;
  DecodeReport rep;
  ASSERT_EQ(decompress_tolerant(cut.data(), cut.size(), Recovery::zero_fill, out,
                                od, &rep),
            Status::ok);
  EXPECT_EQ(rep.damaged, 1u);
  EXPECT_EQ(rep.first_damaged(), ranges.size() - 1);
  expect_good_chunks_bit_identical(clean, out, dims, hdr.chunk_dims,
                                   {ranges.size() - 1});

  // fail_fast refuses, as it always did.
  ASSERT_NE(decompress(cut.data(), cut.size(), out, od), Status::ok);
}

TEST(Recovery, DirectoryDamageIsUnrecoverable) {
  const auto blob = make_multichunk_blob();
  // Flip a byte in the chunk directory (fixed header fields end at 66; the
  // directory follows). The header self-checksum must catch it and every
  // policy must refuse — mis-sliced payloads are worse than no payload.
  auto bad = blob;
  bad[kOuterBytes + 70] ^= 0x01;
  for (const Recovery policy :
       {Recovery::fail_fast, Recovery::zero_fill, Recovery::coarse_fill}) {
    std::vector<double> out;
    Dims od;
    DecodeReport rep;
    EXPECT_EQ(decompress_tolerant(bad.data(), bad.size(), policy, out, od, &rep),
              Status::corrupt_stream);
    EXPECT_FALSE(rep.header_ok);
  }
}

TEST(Recovery, CorruptLosslessBlockIsRecoverable) {
  // With the lossless pass on, chunk damage arrives via a zero-filled
  // lossless block. The fill policies must still isolate it; fail_fast must
  // keep returning corrupt_block exactly as before.
  std::vector<double> field;
  const Dims dims{48, 48, 48};
  field = data::miranda_pressure(dims, 5);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 16);
  cfg.chunk_dims = Dims{24, 24, 24};
  cfg.lossless_block_size = size_t(1) << 12;  // several blocks
  const auto blob = compress(field.data(), dims, cfg);

  std::vector<double> clean;
  Dims od;
  ASSERT_EQ(decompress(blob.data(), blob.size(), clean, od), Status::ok);

  // Flip a byte deep inside the lossless payload (well past the framing).
  auto bad = blob;
  bad[blob.size() / 2] ^= 0x10;
  std::vector<double> out;
  ASSERT_EQ(decompress(bad.data(), bad.size(), out, od), Status::corrupt_block);

  DecodeReport rep;
  const Status s = decompress_tolerant(bad.data(), bad.size(),
                                       Recovery::zero_fill, out, od, &rep);
  if (s == Status::ok) {
    EXPECT_TRUE(rep.field_valid);
    EXPECT_FALSE(rep.lossless_bad_blocks.empty());
    EXPECT_GT(rep.damaged, 0u);
    std::vector<size_t> damaged;
    for (const auto& c : rep.chunks)
      if (c.damaged()) damaged.push_back(c.index);
    expect_good_chunks_bit_identical(clean, out, od, Dims{24, 24, 24}, damaged);
  } else {
    // The flipped byte may land in the lossless directory itself, which is
    // genuinely unrecoverable; a clean refusal is the correct answer then.
    EXPECT_FALSE(rep.field_valid);
  }
}

TEST(Recovery, LowresVerifiesChunkChecksum) {
  const Dims dims{32, 32, 16};
  const auto field = data::miranda_pressure(dims, 9);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 14);
  cfg.lossless_pass = false;  // single chunk, streams at a known offset
  const auto blob = compress(field.data(), dims, cfg);

  std::vector<double> coarse;
  Dims cd;
  ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), 1, coarse, cd), Status::ok);

  const auto ranges = chunk_ranges(blob);
  ASSERT_EQ(ranges.size(), 1u);
  auto bad = blob;
  bad[ranges[0].offset + ranges[0].length / 2] ^= 0x08;
  EXPECT_EQ(decompress_lowres(bad.data(), bad.size(), 1, coarse, cd),
            Status::corrupt_chunk);
}

// ---- float output: every reader narrows per chunk ---------------------------

/// `f32` is float() of `f64`, bit for bit.
void expect_narrowed(const std::vector<double>& f64, const std::vector<float>& f32) {
  ASSERT_EQ(f32.size(), f64.size());
  for (size_t i = 0; i < f64.size(); ++i) {
    const float want = float(f64[i]);
    ASSERT_EQ(std::memcmp(&f32[i], &want, sizeof(float)), 0) << "index " << i;
  }
}

TEST(Recovery, FloatOutputIsTheDoubleOutputNarrowed) {
  const auto blob = make_multichunk_blob();
  const auto ranges = chunk_ranges(blob);
  auto bad = blob;
  bad[ranges[3].offset + ranges[3].length / 2] ^= 0x40;

  const auto check = [](const std::vector<uint8_t>& b, Recovery policy,
                        size_t damaged) {
    std::vector<double> f64;
    std::vector<float> f32;
    Dims d64, d32;
    DecodeReport r64, r32;
    ASSERT_EQ(decompress_tolerant(b.data(), b.size(), policy, f64, d64, &r64),
              Status::ok);
    ASSERT_EQ(decompress_tolerant(b.data(), b.size(), policy, f32, d32, &r32),
              Status::ok);
    EXPECT_EQ(d32, d64);
    EXPECT_EQ(r64.damaged, damaged);
    EXPECT_EQ(r32.damaged, damaged);
    expect_narrowed(f64, f32);
  };
  check(blob, Recovery::fail_fast, 0);
  check(bad, Recovery::zero_fill, 1);
  check(bad, Recovery::coarse_fill, 1);

  std::vector<float> f32;
  Dims d32;
  EXPECT_EQ(decompress_tolerant(bad.data(), bad.size(), Recovery::fail_fast, f32, d32),
            Status::corrupt_chunk);

  // Multi-resolution reads: a drop every chunk takes, and one clamped to
  // the levels the chunks share.
  for (const size_t drop : {size_t(1), size_t(99)}) {
    std::vector<double> f64;
    Dims d64;
    ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), drop, f64, d64), Status::ok);
    ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), drop, f32, d32), Status::ok);
    EXPECT_EQ(d32, d64) << "drop " << drop;
    EXPECT_LT(d64.total(), size_t(48) * 48 * 48) << "drop " << drop;
    expect_narrowed(f64, f32);
  }
}

/// Decode into a fresh vector, then into a right-sized one pre-filled with
/// NaN: the two must agree bit for bit, since the decoders size `out`
/// without refilling it and every value must come from the decode.
template <typename T, typename Decode>
void expect_reused_vector_overwritten(const std::string& what, const Decode& decode) {
  SCOPED_TRACE(what);
  std::vector<T> fresh, reused;
  Dims d_fresh, d_reused;
  ASSERT_EQ(decode(fresh, d_fresh), Status::ok);
  reused.assign(fresh.size(), std::numeric_limits<T>::quiet_NaN());
  ASSERT_EQ(decode(reused, d_reused), Status::ok);
  EXPECT_EQ(d_reused, d_fresh);
  ASSERT_EQ(reused.size(), fresh.size());
  EXPECT_EQ(std::memcmp(reused.data(), fresh.data(), fresh.size() * sizeof(T)), 0);
}

TEST(Recovery, ReusedOutputVectorIsOverwrittenEverywhere) {
  // Covers the patched chunk of a damaged archive under both fill policies
  // and the coarse boxes of a multi-resolution read.
  const auto blob = make_multichunk_blob();
  const auto ranges = chunk_ranges(blob);
  auto bad = blob;
  bad[ranges[3].offset + ranges[3].length / 2] ^= 0x40;

  const auto plain = [&](auto& out, Dims& d) {
    return decompress(blob.data(), blob.size(), out, d);
  };
  expect_reused_vector_overwritten<double>("decompress f64", plain);
  expect_reused_vector_overwritten<float>("decompress f32", plain);
  for (const Recovery policy : {Recovery::zero_fill, Recovery::coarse_fill}) {
    const auto tolerant = [&](auto& out, Dims& d) {
      DecodeReport rep;
      const Status s =
          decompress_tolerant(bad.data(), bad.size(), policy, out, d, &rep);
      EXPECT_EQ(rep.damaged, 1u);
      return s;
    };
    const std::string name =
        policy == Recovery::zero_fill ? "zero_fill" : "coarse_fill";
    expect_reused_vector_overwritten<double>(name + " f64", tolerant);
    expect_reused_vector_overwritten<float>(name + " f32", tolerant);
  }
  const auto lowres = [&](auto& out, Dims& d) {
    return decompress_lowres(blob.data(), blob.size(), 1, out, d);
  };
  expect_reused_vector_overwritten<double>("lowres drop 1 f64", lowres);
  expect_reused_vector_overwritten<float>("lowres drop 1 f32", lowres);
}

TEST(Recovery, FloatReadsOfAnF32ContainerHoldThePweBound) {
  // The tolerance is below the float spacing of the field's larger values,
  // so the bound holds only because the encoder priced the float rounding.
  const Dims dims{40, 26, 18};
  const auto wide = data::miranda_pressure(dims, 9);
  const std::vector<float> field(wide.begin(), wide.end());
  Config cfg;
  cfg.tolerance = 0.05;
  cfg.chunk_dims = Dims{16, 16, 16};
  const auto blob = compress(field.data(), dims, cfg);

  std::vector<float> tolerant, lowres;
  Dims dt, dl;
  ASSERT_EQ(decompress_tolerant(blob.data(), blob.size(), Recovery::zero_fill,
                                tolerant, dt),
            Status::ok);
  ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), 0, lowres, dl), Status::ok);
  ASSERT_EQ(dt, dims);
  ASSERT_EQ(dl, dims);
  for (size_t i = 0; i < field.size(); ++i) {
    ASSERT_LE(std::fabs(double(field[i]) - double(tolerant[i])), cfg.tolerance)
        << "tolerant, index " << i;
    ASSERT_LE(std::fabs(double(field[i]) - double(lowres[i])), cfg.tolerance)
        << "lowres drop 0, index " << i;
  }
}

TEST(Recovery, TruncateRefusesDamagedChunk) {
  // A cut re-hashes every chunk it writes, so it must check the stored
  // checksum first: cutting a damaged chunk would hand back a container
  // whose checksums vouch for the damage.
  const Dims dims{48, 48, 24};
  const auto field = data::miranda_pressure(dims, 9);
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 4.0;
  cfg.chunk_dims = Dims{24, 24, 24};
  cfg.lossless_pass = false;  // streams at known offsets
  const auto blob = compress(field.data(), dims, cfg);
  std::vector<uint8_t> cut;
  ASSERT_EQ(truncate_fixed_rate(blob.data(), blob.size(), 1.0, cut), Status::ok);

  const auto ranges = chunk_ranges(blob);
  ASSERT_EQ(ranges.size(), 4u);
  auto bad = blob;
  bad[ranges[2].offset + 40] ^= 0x10;  // inside the first bits the cut keeps
  EXPECT_EQ(truncate_fixed_rate(bad.data(), bad.size(), 1.0, cut),
            Status::corrupt_chunk);
}

// ---- out-of-core reader ------------------------------------------------------

TEST(Recovery, OutOfCoreTolerantMatchesInMemory) {
  std::vector<double> field;
  const auto blob = make_multichunk_blob(&field);
  const auto ranges = chunk_ranges(blob);
  auto bad = blob;
  bad[ranges[2].offset + 5] ^= 0x80;

  const std::string dir = ::testing::TempDir();
  const std::string bad_path = dir + "/recovery_bad.sperr";
  const std::string out_path = dir + "/recovery_out.raw";
  {
    std::ofstream f(bad_path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bad.data()), std::streamsize(bad.size()));
    ASSERT_TRUE(f.good());
  }

  // fail_fast (the default policy) refuses.
  ASSERT_EQ(outofcore::decompress_file(bad_path, out_path, 8),
            Status::corrupt_chunk);

  // zero_fill writes a full file matching the in-memory tolerant decode.
  DecodeReport rep;
  ASSERT_EQ(outofcore::decompress_file(bad_path, out_path, 8,
                                       Recovery::zero_fill, &rep),
            Status::ok);
  EXPECT_EQ(rep.damaged, 1u);
  EXPECT_EQ(rep.first_damaged(), 2u);

  std::vector<double> mem;
  Dims dims;
  ASSERT_EQ(decompress_tolerant(bad.data(), bad.size(), Recovery::zero_fill, mem,
                                dims, nullptr),
            Status::ok);

  std::ifstream f(out_path, std::ios::binary);
  std::vector<double> disk(dims.total());
  ASSERT_TRUE(f.read(reinterpret_cast<char*>(disk.data()),
                     std::streamsize(disk.size() * 8)));
  for (size_t i = 0; i < mem.size(); ++i)
    ASSERT_EQ(mem[i], disk[i]) << "index " << i;
}

TEST(Recovery, OutOfCoreFailFastKeepsDestinationAndMatchesInMemoryVerdicts) {
  // fail_fast out of core runs the in-memory loop: every chunk is decoded,
  // the lowest damaged chunk's status is returned, the per-chunk verdicts
  // equal decompress_tolerant's, and the staged file is dropped, leaving an
  // existing destination as it was.
  const auto blob = make_multichunk_blob();
  const auto ranges = chunk_ranges(blob);
  ASSERT_EQ(ranges.size(), 8u);
  auto bad = blob;
  bad[ranges[1].offset + 5] ^= 0x80;
  bad[ranges[3].offset + ranges[3].length / 2] ^= 0x40;

  const std::string dir = ::testing::TempDir();
  const std::string bad_path = dir + "/recovery_ff_bad.sperr";
  const std::string out_path = dir + "/recovery_ff_out.raw";
  const std::string old_content = "previous destination";
  std::ofstream(bad_path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bad.data()), std::streamsize(bad.size()));
  std::ofstream(out_path, std::ios::binary) << old_content;

  DecodeReport frep;
  EXPECT_EQ(outofcore::decompress_file(bad_path, out_path, 8, Recovery::fail_fast, &frep),
            Status::corrupt_chunk);
  std::ifstream kept(out_path, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(kept), {}), old_content);
  EXPECT_FALSE(std::ifstream(out_path + ".tmp").good());

  DecodeReport mrep;
  std::vector<double> mem;
  Dims dims;
  EXPECT_EQ(decompress_tolerant(bad.data(), bad.size(), Recovery::fail_fast, mem, dims,
                                &mrep),
            Status::corrupt_chunk);
  EXPECT_EQ(frep.status, mrep.status);
  EXPECT_FALSE(frep.field_valid);
  EXPECT_EQ(frep.damaged, 2u);
  EXPECT_EQ(frep.first_damaged(), 1u);
  ASSERT_EQ(frep.chunks.size(), mrep.chunks.size());
  for (size_t i = 0; i < frep.chunks.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(frep.chunks[i].index, i);
    EXPECT_EQ(frep.chunks[i].status, mrep.chunks[i].status);
    EXPECT_EQ(frep.chunks[i].checksum_ok, mrep.chunks[i].checksum_ok);
    EXPECT_EQ(frep.chunks[i].offset, mrep.chunks[i].offset);
    EXPECT_EQ(frep.chunks[i].action, mrep.chunks[i].action);
  }
  std::remove(bad_path.c_str());
  std::remove(out_path.c_str());
}

// ---- archive wrappers ---------------------------------------------------------

TEST(Recovery, ArchiveVerifyAndExtractTolerant) {
  std::vector<double> field;
  const auto blob = make_multichunk_blob(&field);
  const auto ranges = chunk_ranges(blob);
  auto bad_container = blob;
  bad_container[ranges[5].offset + 1] ^= 0x02;

  archive::Writer w;
  w.add_container("clean", blob);
  w.add_container("damaged", std::move(bad_container));
  const auto ar = w.finish();
  ASSERT_FALSE(ar.empty());

  archive::Reader r;
  ASSERT_EQ(archive::Reader::open(ar.data(), ar.size(), r), Status::ok);
  EXPECT_EQ(r.verify("clean"), Status::ok);
  DecodeReport rep;
  EXPECT_EQ(r.verify("damaged", &rep), Status::corrupt_chunk);
  EXPECT_EQ(rep.first_damaged(), 5u);

  std::vector<double> out;
  Dims dims;
  EXPECT_EQ(r.extract("damaged", out, dims), Status::corrupt_chunk);
  EXPECT_EQ(r.extract_tolerant("damaged", Recovery::coarse_fill, out, dims, &rep),
            Status::ok);
  EXPECT_EQ(rep.damaged, 1u);
  EXPECT_EQ(r.verify("missing"), Status::invalid_argument);
}

}  // namespace
}  // namespace sperr
