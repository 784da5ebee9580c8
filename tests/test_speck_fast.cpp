// Differential tests: the library's SPECK coder (speck::encode /
// speck::decode) against the recursive oracle coder it was derived from
// (encode_reference / decode_reference, oracle/speck_reference.cpp). The
// contract is total: bit-identical streams, equal EncodeStats, identical
// exported reconstructions (unbudgeted; a budgeted encode exports none), and
// identical decodes — over randomized shapes including degenerate ones,
// budgeted and unbudgeted modes, adversarial magnitudes (exact powers of two
// sit right on the strict significance threshold), and magnitudes hundreds
// of planes above q. Plus the embedded-prefix property the format
// guarantees: any prefix decodes to a finite field whose coefficient RMSE
// never increases as the prefix grows.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "oracle/oracle.h"
#include "speck/common.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "speck/settree.h"

namespace sperr::speck {
namespace {

/// Heavy-tailed coefficients with adversarial values mixed in: exact
/// power-of-two multiples of q (the strict `m > 2^n` boundary), exact
/// threshold magnitudes, negative zeros, and dead-zone values. `scale` (a
/// power of two keeps the boundaries exact) lifts everything but the dead
/// zone, so the top plane sits log2(scale) planes higher.
std::vector<double> adversarial_coeffs(Dims dims, uint64_t seed, double q,
                                       double scale = 1.0) {
  Rng rng(seed);
  std::vector<double> c(dims.total());
  for (auto& v : c) {
    const double u = rng.uniform();
    if (u < 0.08) {
      v = (rng.next() & 1 ? -1.0 : 1.0) * std::ldexp(q, int(rng.below(12))) * scale;
    } else if (u < 0.12) {
      v = rng.next() & 1 ? -0.0 : 0.0;
    } else if (u < 0.2) {
      v = rng.uniform(-q, q);  // dead zone
    } else {
      v = rng.gaussian() * (u < 0.25 ? 1000.0 : (u < 0.55 ? 10.0 : 0.1)) * q * scale;
    }
  }
  return c;
}

void expect_stats_equal(const EncodeStats& a, const EncodeStats& b) {
  EXPECT_EQ(a.payload_bits, b.payload_bits);
  EXPECT_EQ(a.planes_coded, b.planes_coded);
  EXPECT_EQ(a.significant_count, b.significant_count);
}

void expect_decode_stats_equal(const DecodeStats& a, const DecodeStats& b) {
  EXPECT_EQ(a.bits_consumed, b.bits_consumed);
  EXPECT_EQ(a.significant_count, b.significant_count);
  EXPECT_EQ(a.truncated, b.truncated);
}

/// The thread counts every case in the differential wall is held to. 1 is
/// fully serial; 2/4/8 split the element-wise loops into lanes (the
/// encoder's recon export, the decoder's refinement passes and export)
/// where every lane gets kLaneGrain items, including more lanes than this
/// machine has cores (correctness must not depend on real concurrency).
constexpr int kThreadWall[] = {1, 2, 4, 8};

/// The most lanes any thread count of the wall asks for.
constexpr size_t kMostLanes = size_t(kThreadWall[std::size(kThreadWall) - 1]);

/// Full differential check of one field at one (q, budget), at every
/// thread count in kThreadWall: the encoded stream must be byte-identical
/// to the reference coder's (and so to every other thread count), per-pass
/// bit counts must be thread-invariant and sum to the payload, and decodes
/// bit-identical. Reconstructions are compared unbudgeted; a budgeted
/// encode must leave them empty (its stream's decode is the one compared).
void expect_field_identical(const std::vector<double>& coeffs, Dims dims,
                            double q, size_t budget) {
  SCOPED_TRACE(dims.to_string() + " q=" + std::to_string(q) +
               " budget=" + std::to_string(budget));
  EncodeStats ref_stats, fast_stats;
  std::vector<double> ref_recon, fast_recon;
  const auto ref = encode_reference(coeffs.data(), dims, q, budget, &ref_stats, &ref_recon);
  const auto fast = encode(coeffs.data(), dims, q, budget, &fast_stats, &fast_recon);

  ASSERT_EQ(fast, ref) << "stream bytes diverge";
  expect_stats_equal(fast_stats, ref_stats);
  uint64_t pass_bits = 0;
  for (const PassTiming& p : fast_stats.passes)
    pass_bits += p.sorting_bits + p.refinement_bits;
  EXPECT_EQ(pass_bits, fast_stats.payload_bits);
  if (budget == 0) {
    ASSERT_EQ(fast_recon.size(), dims.total());
    ASSERT_EQ(ref_recon.size(), dims.total());
    for (size_t i = 0; i < ref_recon.size(); ++i)
      ASSERT_EQ(fast_recon[i], ref_recon[i]) << "recon coefficient " << i;
  } else {
    EXPECT_TRUE(fast_recon.empty());
    EXPECT_TRUE(ref_recon.empty());
  }

  // Thread-sweep wall: parallel encodes must reproduce the reference stream
  // byte for byte, with identical stats, recon exports, and per-pass bit
  // counts (the wall-clock pass timings are the only fields allowed to
  // differ). The recon vector starts non-empty, so a budgeted encode must
  // clear it.
  for (const int t : kThreadWall) {
    SCOPED_TRACE("encode threads=" + std::to_string(t));
    EncodeStats ts;
    std::vector<double> trecon(3, 1.0);
    const auto par = encode(coeffs.data(), dims, q, budget, &ts, &trecon, t);
    ASSERT_EQ(par, ref) << "stream bytes diverge from reference";
    expect_stats_equal(ts, ref_stats);
    ASSERT_EQ(ts.passes.size(), fast_stats.passes.size());
    for (size_t i = 0; i < ts.passes.size(); ++i) {
      ASSERT_EQ(ts.passes[i].plane, fast_stats.passes[i].plane);
      ASSERT_EQ(ts.passes[i].sorting_bits, fast_stats.passes[i].sorting_bits);
      ASSERT_EQ(ts.passes[i].refinement_bits,
                fast_stats.passes[i].refinement_bits);
    }
    ASSERT_EQ(trecon, ref_recon);
  }

  // Decode differential: full stream and a mid-stream truncation, each at
  // every thread count.
  const size_t cuts[] = {ref.size(), Header::kBytes + (ref.size() - Header::kBytes) / 2};
  for (const size_t nbytes : cuts) {
    SCOPED_TRACE("decode nbytes=" + std::to_string(nbytes));
    std::vector<double> ref_out(dims.total());
    DecodeStats ref_ds;
    ASSERT_EQ(decode_reference(ref.data(), nbytes, dims, ref_out.data(), &ref_ds),
              Status::ok);
    for (const int t : kThreadWall) {
      SCOPED_TRACE("decode threads=" + std::to_string(t));
      std::vector<double> fast_out(dims.total());
      DecodeStats fast_ds;
      ASSERT_EQ(decode(ref.data(), nbytes, dims, fast_out.data(), &fast_ds, t),
                Status::ok);
      expect_decode_stats_equal(fast_ds, ref_ds);
      for (size_t i = 0; i < ref_out.size(); ++i)
        ASSERT_EQ(fast_out[i], ref_out[i]) << "decoded coefficient " << i;
    }
  }
}

/// expect_field_identical on adversarial_coeffs(dims, seed, q, scale); a
/// nonzero `spike` overwrites one coefficient with spike * q.
void expect_coders_identical(Dims dims, double q, size_t budget, uint64_t seed,
                             double scale = 1.0, double spike = 0.0) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " scale=2^" +
               std::to_string(std::ilogb(scale)) + " spike=" + std::to_string(spike));
  auto coeffs = adversarial_coeffs(dims, seed, q, scale);
  if (spike != 0.0) coeffs[coeffs.size() / 3] = spike * q;
  expect_field_identical(coeffs, dims, q, budget);
}

TEST(SpeckFast, DegenerateShapesMatchReference) {
  const Dims shapes[] = {{1, 1, 1}, {2, 1, 1},  {1, 7, 1},   {1, 1, 64},
                         {1, 31, 17}, {5, 1, 9}, {64, 1, 1},  {3, 3, 3},
                         {33, 17, 1}, {16, 16, 16}, {13, 9, 5}, {40, 25, 7}};
  uint64_t seed = 100;
  for (const Dims& d : shapes) {
    expect_coders_identical(d, 0.5, 0, ++seed);
    expect_coders_identical(d, 1.3, 0, ++seed);
  }
}

TEST(SpeckFast, BudgetedModesMatchReference) {
  const Dims shapes[] = {{32, 32, 1}, {16, 16, 8}, {1, 48, 3}, {25, 11, 4}};
  uint64_t seed = 300;
  for (const Dims& d : shapes) {
    const size_t n = d.total();
    // Budgets from starving (a handful of bits) through mid-stream to
    // beyond the unbudgeted stream length.
    for (const size_t budget : {size_t(3), size_t(64), n / 2, 2 * n, 100 * n})
      expect_coders_identical(d, 0.25, budget, ++seed);
  }
}

TEST(SpeckFast, DeepPlanesMatchReference) {
  // Tops far above q: discoveries past plane 50 take the residual walk
  // instead of the integer closed form, and sorting passes above plane 126
  // read the tree's planes instead of the saturated bucket bytes. A lone
  // +/-2^1000 q spike spans ~1000 planes with one significant coefficient
  // on top of an ordinary field.
  const Dims shapes[] = {{16, 16, 8}, {25, 11, 4}, {1, 48, 3}};
  uint64_t seed = 600;
  for (const Dims& d : shapes) {
    const size_t n = d.total();
    for (const double scale : {std::ldexp(1.0, 60), std::ldexp(1.0, 200)})
      for (const size_t budget : {size_t(0), n / 2, 40 * n})
        expect_coders_identical(d, 0.25, budget, ++seed, scale);
    for (const double spike : {std::ldexp(1.0, 1000), -std::ldexp(1.0, 1000)})
      for (const size_t budget : {size_t(0), n / 2, 4 * n})
        expect_coders_identical(d, 0.25, budget, ++seed, 1.0, spike);
  }
}

// The integer-magnitude path: a coefficient found at plane n <= 50 is coded
// from K = ceil(m) - 1, held in 32 bits while the top plane is at most 29.
// These grids hold kMostLanes * kLaneGrain coefficients, so the recon
// export splits into 2, 4 and 8 lanes at 2/4/8 threads.
constexpr Dims kLaneDims{128, 64, 64};
static_assert(kLaneDims.total() >= kMostLanes * kLaneGrain);

/// Overwrite every `stride`-th coefficient with a random sign times m * q.
template <class Magnitude>
void plant(std::vector<double>& c, double q, size_t stride, uint64_t seed,
           Magnitude&& magnitude) {
  Rng rng(seed);
  for (size_t i = 0; i < c.size(); i += stride)
    c[i] = (rng.next() & 1 ? -1.0 : 1.0) * magnitude(rng) * q;
}

TEST(SpeckFast, IntegerMagnitudeBoundariesMatchReference) {
  // Exact integers m = k, where ceil(m) - 1 = k - 1 but truncation gives k,
  // and the next double above them, where the two agree. q = 0.25 keeps
  // m = c / q exact; q = 0.3 puts m within an ulp of the integer.
  const Dims dims = kLaneDims;
  for (const double q : {0.25, 0.3}) {
    auto c = adversarial_coeffs(dims, 900, q);
    plant(c, q, 3, 901, [](Rng& rng) {
      const double k = double(1 + rng.below(1u << 12));
      return rng.next() & 1 ? k : std::nextafter(k, 2 * k);
    });
    for (const size_t budget : {size_t(0), dims.total() / 2, 3 * dims.total()})
      expect_field_identical(c, dims, q, budget);
  }
}

TEST(SpeckFast, ClosedFormBoundaryPlanesMatchReference) {
  // One stream with discoveries at planes 49, 50, 51 and 52: the deep
  // prefix (51, 52) walks the residual chain, the suffix (49, 50) and the
  // ordinary field below take K, and every later refinement pass lists
  // both. Interval tops, exact integers and their successors included.
  const Dims dims = kLaneDims;
  const double q = 0.5;
  auto c = adversarial_coeffs(dims, 950, q);
  int slot = 0;
  plant(c, q, 97, 951, [&](Rng& rng) {
    const double base = std::ldexp(1.0, 49 + slot++ % 4);
    const double m = std::floor(base * (1.0 + rng.uniform()));
    switch (rng.below(4)) {
      case 0: return 2 * base;
      case 1: return m;
      case 2: return std::nextafter(m, 2 * m);
      default: return base * (1.0 + rng.uniform());
    }
  });
  double top = 0.0;
  for (const double v : c) top = std::max(top, std::fabs(v) / q);
  ASSERT_EQ(plane_of(top), 52);
  const size_t n = dims.total();
  for (const size_t budget : {size_t(0), n / 2, 8 * n, 40 * n})
    expect_field_identical(c, dims, q, budget);
}

TEST(SpeckFast, IntegerWidthBoundaryMatchesReference) {
  // The encoder's leaf words and LSP are 32-bit while the top plane is at
  // most 29 (sign in bit 30, K < 2^30 below it) and 64-bit above. Tops 28
  // and 29 fill the 32-bit K up to its top bit, 30 and 31 take the 64-bit
  // word. At top 50 the 64-bit K is at its widest (K < 2^51); from top 51
  // the top coefficients are deep words (their linear index, walked). The
  // interval top m = 2^(top + 1) gives the largest K.
  const Dims dims = kLaneDims;
  const double q = 0.5;
  for (const int top : {28, 29, 30, 31, 50, 51}) {
    SCOPED_TRACE("top plane " + std::to_string(top));
    const double scale = std::ldexp(1.0, top - 16);
    auto c = adversarial_coeffs(dims, 960 + uint64_t(top), q, scale);
    const double base = std::ldexp(1.0, top);
    plant(c, q, 211, 970 + uint64_t(top), [&](Rng& rng) {
      switch (rng.below(3)) {
        case 0: return 2 * base;
        case 1: return std::floor(base * (1.0 + rng.uniform())) + 1.0;
        default: return base * (1.0 + rng.uniform());
      }
    });
    double m_top = 0.0;
    for (const double v : c) m_top = std::max(m_top, std::fabs(v) / q);
    ASSERT_EQ(plane_of(m_top), top);
    for (const size_t budget : {size_t(0), dims.total(), 20 * dims.total()})
      expect_field_identical(c, dims, q, budget);
  }
}

TEST(SpeckFast, LanesAboveTheGrainMatchSerial) {
  // An odd coefficient count above kMostLanes * kLaneGrain: at 2/4/8
  // threads the encoder's recon export and the decoder's export split into
  // that many lanes (the decoder's longer refinement passes into up to that
  // many), the lane bounds fall at different places for each count, and the
  // first (count mod lanes) lanes take one item more.
  constexpr Dims dims{91, 89, 83};
  static_assert(dims.total() % 2 == 1 && dims.total() > kMostLanes * kLaneGrain);
  const double q = 0.5;
  // Lifted 2^8, so that most of the field, the small values included, is
  // significant and the decoder's LSP also splits kMostLanes ways.
  const auto c = adversarial_coeffs(dims, 990, q, 256.0);
  EncodeStats stats;
  (void)encode(c.data(), dims, q, 0, &stats);
  ASSERT_GE(stats.significant_count, kMostLanes * kLaneGrain);
  for (const size_t budget : {size_t(0), dims.total()})
    expect_field_identical(c, dims, q, budget);
}

/// Bit `i` of an encoded stream's payload.
bool payload_bit(const std::vector<uint8_t>& stream, size_t i) {
  return (stream[Header::kBytes + i / 8] >> (i % 8)) & 1u;
}

TEST(SpeckFast, BudgetsInsideFusedWritesMatchReference) {
  // The encoder writes several stream bits in one put_bits: a leaf-only
  // set's significance and sign bits, a bucket leaf's zero run, 1 and
  // sign, and a descent's sibling gap, 1 and sign. Budgets at every bit of
  // these streams cut inside each such write, just before, on and just
  // after its sign bits.
  //
  // A 2x2x2 grid is one set of eight leaves. At q = 1, plane 2: the root's
  // 1 is bit 0, then one write codes the leaves: 5 "10", -0.25 "0", -6
  // "11", 1.5 "0", 7 "10", -3 "0", 0 "0", -4.5 "11" (bits 1-12, signs at
  // 2, 5, 8, 12). Plane 1: bucket leaves -0.25, 1.5, -3, 0: one write "0011"
  // (bits 13-16, sign at 16), "0", then four refinement bits. Plane 0:
  // "010" (sign at 24), "0", five refinement bits: 31 bits.
  const Dims cube{2, 2, 2};
  const std::vector<double> c = {5, -0.25, -6, 1.5, 7, -3, 0, -4.5};
  EncodeStats st;
  const auto full = encode(c.data(), cube, 1.0, 0, &st);
  ASSERT_EQ(st.payload_bits, 31u);
  const char* expect = "1100110100011" "0011" "0" "0010" "010" "0" "01000";
  for (size_t i = 0; i < 31; ++i)
    ASSERT_EQ(payload_bit(full, i), expect[i] == '1') << "payload bit " << i;
  for (size_t budget = 1; budget <= 32; ++budget)
    expect_field_identical(c, cube, 1.0, budget);

  // Odd extents give sets with set and leaf children, so leaves are also
  // found inside descent frames.
  const Dims odd{5, 3, 3};
  const auto f = adversarial_coeffs(odd, 1234, 0.5);
  EncodeStats ost;
  (void)encode(f.data(), odd, 0.5, 0, &ost);
  for (size_t budget = 1; budget <= ost.payload_bits + 1; ++budget)
    expect_field_identical(f, odd, 0.5, budget);
}

TEST(SpeckFast, BudgetsCuttingRefinementPassesMatchReference) {
  // Cuts one bit into, halfway through and one bit short of the end of
  // refinement passes, on a 32-bit-K field and on one whose top plane lies
  // in the deep prefix.
  const Dims dims{32, 32, 16};
  const double q = 0.1;
  for (const double scale : {1.0, std::ldexp(1.0, 42)}) {
    SCOPED_TRACE("scale 2^" + std::to_string(std::ilogb(scale)));
    const auto c = adversarial_coeffs(dims, 990, q, scale);
    EncodeStats st;
    (void)encode(c.data(), dims, q, 0, &st);
    uint64_t pos = 0;
    int cut_passes = 0;
    for (const auto& p : st.passes) {
      pos += p.sorting_bits;
      // Passes around the closed-form boundary (plane 50) and the last
      // three, wherever they have bits to refine.
      if (p.refinement_bits > 2 && (p.plane >= 46 || p.plane < 3)) {
        ++cut_passes;
        for (const uint64_t b : {pos + 1, pos + p.refinement_bits / 2,
                                 pos + p.refinement_bits - 1})
          expect_field_identical(c, dims, q, size_t(b));
      }
      pos += p.refinement_bits;
    }
    EXPECT_GE(cut_passes, 3);
  }
}

TEST(SpeckFast, RandomizedShapeSweepMatchesReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Random ranks and extents, biased toward awkward non-power-of-two
    // shapes and thin slabs.
    const int rank = 1 + int(rng.below(3));
    size_t e[3] = {1, 1, 1};
    for (int a = 0; a < rank; ++a) e[a] = 1 + rng.below(40);
    const Dims dims{e[rng.below(3) % 3], e[(1 + rng.below(3)) % 3], e[2]};
    const double q = std::ldexp(1.0, int(rng.below(6)) - 3) * (1.0 + rng.uniform());
    const size_t budget = (rng.next() & 1) ? 0 : 1 + rng.below(8 * dims.total());
    expect_coders_identical(dims, q, budget, 4000 + uint64_t(trial));
  }
}

TEST(SpeckFast, PureSyntheticSpecialsMatchReference) {
  // All-zero, constant, all-dead-zone, and single-spike fields.
  const Dims dims{24, 24, 6};
  const size_t n = dims.total();
  std::vector<double> field(n, 0.0);
  auto check = [&](const char* what) {
    SCOPED_TRACE(what);
    EncodeStats rs, fs;
    const auto ref = encode_reference(field.data(), dims, 0.5, 0, &rs);
    const auto fast = encode(field.data(), dims, 0.5, 0, &fs);
    ASSERT_EQ(fast, ref);
    expect_stats_equal(fs, rs);
  };
  check("all zero");
  field.assign(n, 0.4);
  check("dead zone constant");
  field.assign(n, 0.0);
  field[dims.index(17, 5, 3)] = -777.25;
  check("single spike");
  field.assign(n, 8.0);  // exactly 2^4 * q: max magnitude on a plane boundary
  check("power-of-two constant");
}

TEST(SpeckFast, PlaneOfMatchesStrictThresholdSemantics) {
  // plane_of(m) must equal the largest n >= 0 with m > 2^n under plain
  // double comparison — the reference coder's significance test.
  auto brute = [](double m) {
    int16_t p = kDeadPlane;
    for (int n = 0; n <= 40; ++n)
      if (m > std::ldexp(1.0, n)) p = int16_t(n);
    return p;
  };
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const double m = std::ldexp(1.0 + rng.uniform(), int(rng.below(38)) - 2);
    ASSERT_EQ(plane_of(m), brute(m)) << "m=" << m;
  }
  for (int k = 0; k <= 38; ++k) {
    const double pow2 = std::ldexp(1.0, k);
    ASSERT_EQ(plane_of(pow2), brute(pow2)) << "2^" << k;           // exact boundary
    ASSERT_EQ(plane_of(std::nextafter(pow2, 2 * pow2)), brute(std::nextafter(pow2, 2 * pow2)));
    ASSERT_EQ(plane_of(std::nextafter(pow2, 0.0)), brute(std::nextafter(pow2, 0.0)));
  }
  EXPECT_EQ(plane_of(0.0), kDeadPlane);
  EXPECT_EQ(plane_of(1.0), kDeadPlane);
  EXPECT_EQ(plane_of(0.999), kDeadPlane);
  EXPECT_EQ(plane_of(std::numeric_limits<double>::infinity()), kMaxPlane);
}

TEST(SpeckFast, EmbeddedPrefixSweepIsFiniteAndMonotone) {
  // The embedded-prefix invariant, swept densely: decoding ANY prefix of a
  // SPECK stream yields a finite field, and the coefficient RMSE is
  // non-increasing as the prefix grows byte by byte.
  const Dims dims{20, 18, 3};
  const auto coeffs = adversarial_coeffs(dims, 77, 0.05);
  const auto stream = encode(coeffs.data(), dims, 0.05);
  ASSERT_GT(stream.size(), Header::kBytes + 8);

  std::vector<double> recon(dims.total());
  double prev_rmse = 1e300;
  // Every byte boundary near the front (where planes are coarse and error
  // moves fastest), then every 5th byte to the end.
  for (size_t nbytes = Header::kBytes; nbytes <= stream.size();
       nbytes += (nbytes < Header::kBytes + 64 ? 1 : 5)) {
    ASSERT_EQ(decode(stream.data(), nbytes, dims, recon.data()), Status::ok);
    double sq = 0.0;
    for (size_t i = 0; i < recon.size(); ++i) {
      ASSERT_TRUE(std::isfinite(recon[i])) << "prefix " << nbytes << " index " << i;
      const double e = coeffs[i] - recon[i];
      sq += e * e;
    }
    const double rmse = std::sqrt(sq / double(recon.size()));
    EXPECT_LE(rmse, prev_rmse * (1.0 + 1e-9)) << "prefix bytes " << nbytes;
    prev_rmse = rmse;
  }
  EXPECT_LT(prev_rmse, 0.05);  // the full stream hits the quantization floor
}

/// Truncate `stream` to exactly `nbits` payload bits: patch the header's
/// nbits field (u64 LE at byte offset 14) and drop the surplus payload
/// bytes. This is the format's own embedded-truncation mechanism.
std::vector<uint8_t> truncate_to_bits(const std::vector<uint8_t>& stream,
                                      uint64_t nbits) {
  std::vector<uint8_t> cut(stream.begin(),
                           stream.begin() + long(Header::kBytes + (nbits + 7) / 8));
  for (int b = 0; b < 8; ++b) cut[14 + size_t(b)] = uint8_t(nbits >> (8 * b));
  return cut;
}

TEST(SpeckFast, PrefixAtPlaneBoundaryEqualsCoarserQualityEncode) {
  // The embedding property, exactly: cutting a stream at the end of plane
  // k's passes is the SAME coder run at quantization step q*2^k. Both the
  // payload bits and the decoded coefficients must match bit for bit —
  // binary scaling shifts every significance test, refinement bit, and
  // reconstruction by exact powers of two.
  const Dims dims{30, 22, 9};
  const double q = 0.04;
  const auto coeffs = adversarial_coeffs(dims, 4242, q);

  EncodeStats stats;
  const auto stream = encode(coeffs.data(), dims, q, 0, &stats);
  ASSERT_GT(stats.passes.size(), 3u);

  std::vector<double> full(dims.total());
  ASSERT_EQ(decode(stream.data(), stream.size(), dims, full.data()), Status::ok);

  double prev_rmse = 1e300;
  // Walk boundaries coarse-to-fine (passes run top plane first), checking
  // the prefix/quality equivalence at each and RMSE monotonicity across
  // them.
  uint64_t prefix_bits = 0;
  for (const auto& pass : stats.passes) {
    prefix_bits += pass.sorting_bits + pass.refinement_bits;
    const int32_t k = pass.plane;
    SCOPED_TRACE("boundary after plane " + std::to_string(k));

    // Re-encode at the coarser step q2 = q * 2^k: payload must equal the
    // prefix exactly, bit count included.
    const double q2 = std::ldexp(q, int(k));
    EncodeStats s2;
    const auto coarse = encode(coeffs.data(), dims, q2, 0, &s2);
    ASSERT_EQ(uint64_t(s2.payload_bits), prefix_bits);
    for (uint64_t bit = 0; bit < prefix_bits; ++bit) {
      const size_t byte = Header::kBytes + size_t(bit / 8);
      const unsigned sh = unsigned(bit % 8);
      ASSERT_EQ((stream[byte] >> sh) & 1, (coarse[byte] >> sh) & 1)
          << "payload bit " << bit;
    }

    // Decode the truncated stream and the coarse stream: identical doubles.
    const auto cut = truncate_to_bits(stream, prefix_bits);
    std::vector<double> cut_out(dims.total()), coarse_out(dims.total());
    ASSERT_EQ(decode(cut.data(), cut.size(), dims, cut_out.data()), Status::ok);
    ASSERT_EQ(decode(coarse.data(), coarse.size(), dims, coarse_out.data()),
              Status::ok);
    for (size_t i = 0; i < cut_out.size(); ++i)
      ASSERT_EQ(cut_out[i], coarse_out[i]) << "coefficient " << i;

    // Quality is monotone across plane boundaries (strictly more planes,
    // never worse RMSE).
    double sq = 0.0;
    for (size_t i = 0; i < cut_out.size(); ++i) {
      const double e = coeffs[i] - cut_out[i];
      sq += e * e;
    }
    const double rmse = std::sqrt(sq / double(dims.total()));
    EXPECT_LE(rmse, prev_rmse * (1.0 + 1e-12));
    prev_rmse = rmse;
  }
  // The last boundary is the whole stream.
  ASSERT_EQ(prefix_bits, uint64_t(stats.payload_bits));
}

/// `stream` with the header's nbits lowered to `nbits` and every payload
/// byte kept: the bits past the cut are still in the buffer, and the
/// decoder must read them as absent.
std::vector<uint8_t> cut_header_at(std::vector<uint8_t> stream, uint64_t nbits) {
  for (int b = 0; b < 8; ++b) stream[14 + size_t(b)] = uint8_t(nbits >> (8 * b));
  return stream;
}

TEST(SpeckFast, DecodesCutAtEveryPassBoundaryMatchReference) {
  // Cuts at the sorting start (and one bit in), the refinement start, the
  // middle of the refinement pass and one bit before its end, in every
  // pass: the points where the integer decoder's export switches planes.
  // Top plane 31 holds K in 32 bits, 32 and 33 in 64, and 60 puts a deep
  // prefix (discoveries above plane 50) in front of the integer LSP. 32^3
  // coefficients put the LSP past the parallel grain, so the 4-thread
  // decodes run their refinement passes and export in lanes. Cuts
  // alternate between lowering the header's nbits only and also dropping
  // the payload bytes past the cut.
  const Dims dims{32, 32, 32};
  const double q = 0.5;
  for (const int top : {31, 32, 33, 60}) {
    SCOPED_TRACE("top plane " + std::to_string(top));
    auto c = adversarial_coeffs(dims, 1300 + uint64_t(top), q,
                                std::ldexp(1.0, top - 16));
    c[c.size() / 2] = -1.5 * std::ldexp(q, top);
    EncodeStats st;
    const auto stream = encode(c.data(), dims, q, 0, &st);
    ASSERT_EQ(st.passes.front().plane, top);

    std::vector<uint64_t> cuts;
    uint64_t pos = 0;
    for (const auto& p : st.passes) {
      cuts.insert(cuts.end(), {pos, pos + 1});
      pos += p.sorting_bits;
      cuts.insert(cuts.end(), {pos, pos + p.refinement_bits / 2,
                               pos + p.refinement_bits - 1});
      pos += p.refinement_bits;
    }
    std::vector<double> ref_out(dims.total()), out(dims.total());
    for (size_t k = 0; k < cuts.size(); ++k) {
      const uint64_t nbits = cuts[k];
      if (nbits >= st.payload_bits) continue;
      SCOPED_TRACE("cut at bit " + std::to_string(nbits));
      const auto cut =
          k % 2 ? truncate_to_bits(stream, nbits) : cut_header_at(stream, nbits);
      DecodeStats ref_ds;
      ASSERT_EQ(decode_reference(cut.data(), cut.size(), dims, ref_out.data(), &ref_ds),
                Status::ok);
      for (const int t : {1, 4}) {
        DecodeStats ds;
        ASSERT_EQ(decode(cut.data(), cut.size(), dims, out.data(), &ds, t), Status::ok);
        expect_decode_stats_equal(ds, ref_ds);
        for (size_t i = 0; i < out.size(); ++i)
          ASSERT_EQ(out[i], ref_out[i]) << "threads " << t << " coefficient " << i;
      }
    }
  }
}

TEST(SpeckFast, DecodesCutAtEveryBitNearTheWordPathMatchReference) {
  // The sorting sweep decodes from whole words while 64 payload bits
  // remain, a set of only leaves from one peeked word while 16 remain, and
  // bit by bit after that. A cut at bit N puts those switches at N - 64 and
  // N - 16, so cutting at every bit of a window slides them, and the stream
  // end itself, across every kind of bit: a bucket leaf's significance bit
  // and its sign, a set's bit, the bits of a descent. Each sorting pass
  // sweeps the leaf bucket first and the shallow set buckets (whose
  // descents end in sets of only leaves) last, so the windows are bits
  // [256, 416) of a pass and its last 160 bits, in the pass densest in
  // discoveries per sorting bit and in the sparsest one. The field makes
  // both: nearly half its coefficients sit just above 2^8 q, so descents at
  // plane 8 list the rest as leaves; nearly half sit just above 4q, so the
  // leaf bucket at plane 2 is nearly all discoveries, and a tenth spread
  // over the planes between keeps those sweeps sparse but not empty. Cuts
  // alternate between lowering the header's nbits only and also dropping
  // the bytes past the cut; 32^3 coefficients put the LSP past the
  // parallel grain.
  const Dims dims{32, 32, 32};
  const double q = 0.5;
  Rng rng(1500);
  std::vector<double> c(dims.total());
  for (auto& v : c) {
    const double u = rng.uniform();
    const int plane = u < 0.45 ? 8 : (u < 0.9 ? 2 : 3 + int(rng.below(5)));
    v = (rng.next() & 1 ? -1.0 : 1.0) * std::ldexp(q, plane) * (1.0 + 0.9 * rng.uniform());
  }
  EncodeStats st;
  const auto stream = encode(c.data(), dims, q, 0, &st);

  // Discoveries per sorting bit of each pass long enough for both windows,
  // from the reference's counts at the pass's sorting start and end.
  std::vector<double> ref_out(dims.total()), out(dims.total());
  auto ref_found = [&](uint64_t nbits) {
    const auto cut = cut_header_at(stream, nbits);
    DecodeStats ds;
    EXPECT_EQ(decode_reference(cut.data(), cut.size(), dims, ref_out.data(), &ds),
              Status::ok);
    return double(ds.significant_count);
  };
  struct Span {
    uint64_t begin, end;
    double density;
  };
  std::vector<Span> spans;
  uint64_t pos = 0;
  for (const auto& p : st.passes) {
    const uint64_t end = pos + p.sorting_bits;
    if (p.sorting_bits >= 1024 && end < st.payload_bits)
      spans.push_back({pos, end, (ref_found(end) - ref_found(pos)) / double(p.sorting_bits)});
    pos = end + p.refinement_bits;
  }
  ASSERT_GE(spans.size(), 2u);
  const auto [sparse, dense] = std::minmax_element(
      spans.begin(), spans.end(),
      [](const Span& a, const Span& b) { return a.density < b.density; });
  ASSERT_LT(sparse->density, 0.1);
  ASSERT_GT(dense->density, 0.3);

  for (const Span* span : {&*dense, &*sparse}) {
    for (const uint64_t from : {span->begin + 256, span->end - 160}) {
      SCOPED_TRACE("density " + std::to_string(span->density) + ", cuts from bit " +
                   std::to_string(from));
      // A cut that drops a discovery the next bit completes falls between a
      // significance bit and its sign.
      bool sign_cut = false;
      size_t prev_found = 0;
      for (uint64_t nbits = from; nbits < from + 160; ++nbits) {
        SCOPED_TRACE("cut at bit " + std::to_string(nbits));
        const auto cut = nbits % 2 ? truncate_to_bits(stream, nbits)
                                   : cut_header_at(stream, nbits);
        DecodeStats ref_ds;
        ASSERT_EQ(decode_reference(cut.data(), cut.size(), dims, ref_out.data(), &ref_ds),
                  Status::ok);
        ASSERT_TRUE(ref_ds.truncated);
        sign_cut |= nbits > from && ref_ds.significant_count > prev_found;
        prev_found = ref_ds.significant_count;
        for (const int t : {1, 4}) {
          DecodeStats ds;
          ASSERT_EQ(decode(cut.data(), cut.size(), dims, out.data(), &ds, t), Status::ok);
          expect_decode_stats_equal(ds, ref_ds);
          for (size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], ref_out[i]) << "threads " << t << " coefficient " << i;
        }
      }
      EXPECT_TRUE(sign_cut);
    }
  }
}

TEST(SpeckFast, DecodeTimingsAccountForTheCall) {
  // The decode counters are non-negative, their seconds fit inside the
  // call's wall time, and a full stream reports every coded plane.
  const Dims dims{40, 33, 11};
  const auto coeffs = adversarial_coeffs(dims, 1400, 0.1);
  EncodeStats st;
  const auto stream = encode(coeffs.data(), dims, 0.1, 0, &st);
  std::vector<double> out(dims.total());
  for (const int t : kThreadWall) {
    SCOPED_TRACE("threads " + std::to_string(t));
    DecodeStats ds;
    const Timer wall;
    ASSERT_EQ(decode(stream.data(), stream.size(), dims, out.data(), &ds, t),
              Status::ok);
    const double wall_s = wall.seconds();
    EXPECT_GE(ds.setup_s, 0.0);
    EXPECT_GE(ds.sorting_s, 0.0);
    EXPECT_GE(ds.refinement_s, 0.0);
    EXPECT_GE(ds.finish_s, 0.0);
    EXPECT_LE(ds.setup_s + ds.sorting_s + ds.refinement_s + ds.finish_s, wall_s);
    EXPECT_EQ(ds.planes_decoded, st.planes_coded);
  }
}

TEST(SpeckFast, PerPassBitCountsPartitionThePayload) {
  // EncodeStats::passes is the ground truth the prefix machinery and the
  // bench records rely on: pass bit counts must sum to the payload exactly,
  // planes must descend from n_max, and every count must be reproducible
  // across thread counts (checked per-case in the differential wall; here
  // across a real field too).
  const Dims dims{40, 33, 11};
  const auto coeffs = adversarial_coeffs(dims, 777, 0.1);
  EncodeStats st;
  const auto stream = encode(coeffs.data(), dims, 0.1, 0, &st);
  ASSERT_FALSE(st.passes.size() == 0);
  uint64_t sum = 0;
  int32_t prev_plane = st.passes.front().plane + 1;
  for (const auto& p : st.passes) {
    EXPECT_EQ(p.plane, prev_plane - 1) << "planes must descend consecutively";
    prev_plane = p.plane;
    sum += p.sorting_bits + p.refinement_bits;
  }
  EXPECT_EQ(st.passes.back().plane, 0);
  EXPECT_EQ(sum, uint64_t(st.payload_bits));

  for (const int t : kThreadWall) {
    EncodeStats ts;
    (void)encode(coeffs.data(), dims, 0.1, 0, &ts, nullptr, t);
    ASSERT_EQ(ts.passes.size(), st.passes.size());
    for (size_t i = 0; i < ts.passes.size(); ++i) {
      EXPECT_EQ(ts.passes[i].sorting_bits, st.passes[i].sorting_bits);
      EXPECT_EQ(ts.passes[i].refinement_bits, st.passes[i].refinement_bits);
    }
  }

  // Budgeted: the passes cover exactly the truncated payload. Cut points
  // inside a sorting pass, inside a refinement pass (mid-byte), and one bit
  // short of the whole stream.
  const uint64_t full = st.payload_bits;
  const uint64_t sorting_end = st.passes[0].sorting_bits + st.passes[0].refinement_bits +
                         st.passes[1].sorting_bits / 2;
  for (const uint64_t budget : {sorting_end, full / 2 + 3, full - 1}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    EncodeStats bs;
    const auto cut = encode(coeffs.data(), dims, 0.1, budget, &bs);
    EXPECT_EQ(bs.payload_bits, budget);
    EXPECT_EQ(cut.size(), Header::kBytes + (budget + 7) / 8);
    EXPECT_EQ(bs.planes_coded, bs.passes.size());
    uint64_t bsum = 0;
    for (size_t i = 0; i < bs.passes.size(); ++i) {
      EXPECT_EQ(bs.passes[i].plane, st.passes[i].plane);
      bsum += bs.passes[i].sorting_bits + bs.passes[i].refinement_bits;
    }
    EXPECT_EQ(bsum, budget);
    // The cut stream is the unbudgeted one's prefix.
    for (uint64_t bit = 0; bit < budget; ++bit) {
      const size_t byte = Header::kBytes + size_t(bit / 8);
      const unsigned sh = unsigned(bit % 8);
      ASSERT_EQ((cut[byte] >> sh) & 1, (stream[byte] >> sh) & 1) << "bit " << bit;
    }
  }
}

TEST(SpeckFast, RejectsGridsBeyondTheCoefficientLimit) {
  // Node ids are uint32 and decoded indices carry the sign in bit 31: the
  // coder refuses 2^31 coefficients before touching the data.
  const Dims big{2048, 1024, 1024};
  ASSERT_EQ(big.total(), kMaxCoefficients);
  EXPECT_THROW((void)encode(nullptr, big, 1.0), std::invalid_argument);
  const Dims small{4, 4, 4};
  const std::vector<double> field(small.total(), 3.0);
  const auto stream = encode(field.data(), small, 1.0);
  EXPECT_EQ(decode(stream.data(), stream.size(), big, nullptr), Status::corrupt_stream);
}

/// Walks the flattened tree against split_box applied recursively — the
/// reference partition — checking child order, that every set's record
/// names its own box (origin, first leaf ordinal, which children are
/// leaves), and that leaf ordinals count the coefficients in DFS order.
/// Fills ord_to_index and marks every node id visited.
void walk_against_split_box(const SetTree& t, uint32_t id, const Box& box,
                            uint32_t& next_ord, std::vector<uint32_t>& ord_to_index,
                            std::vector<int>& visited) {
  const Dims dims = t.dims();
  ASSERT_LT(id, t.size());
  ++visited[id];
  const SetTree::Node& nd = t.node(id);
  EXPECT_EQ(nd.origin, dims.index(box.x, box.y, box.z));
  EXPECT_EQ(nd.leaf0, next_ord);
  Box children[8];
  const int nc = split_box(box, children);
  ASSERT_EQ(nd.nchild, nc);
  uint32_t sets = 0;
  for (int j = 0; j < nc; ++j) {
    const Box& c = children[j];
    if (c.is_single()) {
      ASSERT_TRUE((nd.leaves >> j) & 1u) << "child " << j;
      ASSERT_EQ(SetTree::leaf_ordinal(nd, unsigned(j)), next_ord);
      EXPECT_EQ(t.leaf_index(nd, unsigned(j)), dims.index(c.x, c.y, c.z));
      ord_to_index[next_ord++] = t.leaf_index(nd, unsigned(j));
      continue;
    }
    ASSERT_FALSE((nd.leaves >> j) & 1u) << "child " << j;
    const uint32_t child = nd.first + sets++;
    ASSERT_GT(child, id);  // DFS ids: children after their parent
    walk_against_split_box(t, child, c, next_ord, ord_to_index, visited);
  }
}

TEST(SpeckFast, SetTreeMatchesRecursiveSplitBox) {
  for (const Dims dims :
       {Dims{1, 1, 1}, Dims{1, 1, 1000}, Dims{1, 9, 2}, Dims{3, 3, 3}, Dims{7, 5, 3},
        Dims{48, 37, 1}, Dims{16, 16, 16}, Dims{31, 17, 9}}) {
    SCOPED_TRACE(dims.to_string());
    const SetTree t(dims);
    std::vector<uint32_t> ord_to_index(dims.total(), UINT32_MAX);
    uint32_t next_ord = 0;
    if (dims.total() == 1) {
      EXPECT_EQ(t.size(), 0u);
      EXPECT_EQ(t.root(), kLeafTag);  // leaf ordinal 0, linear index 0
      ord_to_index[next_ord++] = 0;
    } else {
      std::vector<int> visited(t.size(), 0);
      Box root;
      root.nx = uint32_t(dims.x);
      root.ny = uint32_t(dims.y);
      root.nz = uint32_t(dims.z);
      ASSERT_EQ(t.root(), 0u);
      walk_against_split_box(t, 0, root, next_ord, ord_to_index, visited);
      for (size_t id = 0; id < visited.size(); ++id)
        EXPECT_EQ(visited[id], 1) << "node " << id;
    }
    // Leaf ordinals are 0 .. n-1 and map onto the linear indices one to one.
    ASSERT_EQ(next_ord, dims.total());
    std::vector<int> seen(dims.total(), 0);
    for (const uint32_t idx : ord_to_index) {
      ASSERT_LT(idx, dims.total());
      ++seen[idx];
    }
    for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << "index " << i;
  }
}

TEST(SpeckFast, SetTreeFor256CubeFitsAThirdOfTheLeafRecordTree) {
  // A power-of-two cube is a pure octree: (n - 1) / 7 sets. The tree that
  // also kept one 8-byte record per leaf took 8 * (n + (n - 1) / 7) bytes.
  const Dims dims{256, 256, 256};
  const SetTree t(dims);
  const size_t n = dims.total();
  EXPECT_EQ(t.size(), (n - 1) / 7);
  const size_t leaf_record_bytes = 8 * (n + (n - 1) / 7);  // 153,391,688
  EXPECT_LE(t.bytes(), leaf_record_bytes / 3);
}

/// Structural equality of a tree with a freshly built one of its shape.
void expect_same_tree(const SetTree& t, Dims dims) {
  const SetTree fresh(dims);
  ASSERT_EQ(t.dims(), dims);
  ASSERT_EQ(t.size(), fresh.size());
  for (uint32_t id = 0; id < t.size(); ++id) {
    const SetTree::Node &a = t.node(id), &b = fresh.node(id);
    ASSERT_EQ(a.first, b.first) << "node " << id;
    ASSERT_EQ(a.leaf0, b.leaf0) << "node " << id;
    ASSERT_EQ(a.origin, b.origin) << "node " << id;
    ASSERT_EQ(a.nchild, b.nchild) << "node " << id;
    ASSERT_EQ(a.leaves, b.leaves) << "node " << id;
    ASSERT_EQ(a.shape, b.shape) << "node " << id;
  }
}

TEST(SetTreeCache, EvictsLeastRecentlyUsedAndKeepsLeasedTreesAlive) {
  const Dims a{24, 24, 24}, b{20, 30, 10}, c{12, 9, 11}, big{64, 64, 64};
  const size_t ab = SetTree(a).bytes() + SetTree(b).bytes();
  SetTreeCache cache(ab);
  EXPECT_GT(cache.get(a).build_s, 0.0);
  SetTreeCache::Lease held = cache.get(b);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.retained_bytes(), ab);

  // A hit builds nothing and refreshes a's use, so c's build evicts b.
  const SetTreeCache::Lease hit = cache.get(a);
  EXPECT_EQ(hit.build_s, 0.0);
  EXPECT_EQ(cache.builds(), 2u);
  (void)cache.get(c);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_LE(cache.retained_bytes(), cache.capacity());
  EXPECT_EQ(cache.get(a).tree, hit.tree);
  EXPECT_EQ(cache.builds(), 3u);

  // b was evicted while leased: the lease still holds a whole tree, and the
  // next caller gets a fresh build.
  expect_same_tree(*held.tree, b);
  const SetTreeCache::Lease rebuilt = cache.get(b);
  EXPECT_EQ(cache.builds(), 4u);
  EXPECT_NE(rebuilt.tree, held.tree);
  EXPECT_LE(cache.retained_bytes(), cache.capacity());

  // A tree larger than the whole cap is built, handed out and not kept.
  const size_t before = cache.retained_bytes();
  const SetTreeCache::Lease oversized = cache.get(big);
  ASSERT_GT(oversized.tree->bytes(), cache.capacity());
  expect_same_tree(*oversized.tree, big);
  EXPECT_EQ(cache.retained_bytes(), before);
  (void)cache.get(big);
  EXPECT_EQ(cache.builds(), 6u);
}

TEST(SetTreeCache, ConcurrentCallersOfOneShapeShareOneBuild) {
  SetTreeCache cache(size_t(64) << 20);
  const Dims dims{96, 80, 64};
  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const SetTree>> trees(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      trees[size_t(i)] = cache.get(dims).tree;
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(cache.builds(), 1u);
  for (const auto& t : trees) EXPECT_EQ(t, trees[0]);
  expect_same_tree(*trees[0], dims);
}

/// A deterministic field for the concurrency wall: 3-D shapes get
/// adversarial coefficients; the long 1-D shapes, whose trees are the
/// largest per coefficient (n - 1 sets), are sparse so they code fast.
std::vector<double> concurrency_field(Dims dims, uint64_t seed) {
  if (dims.rank() > 1) return adversarial_coeffs(dims, seed, 0.5);
  Rng rng(seed);
  std::vector<double> c(dims.total(), 0.0);
  for (int i = 0; i < 400; ++i)
    c[rng.below(c.size())] = rng.gaussian() * std::ldexp(1.0, int(rng.below(16)));
  return c;
}

TEST(SpeckFast, ConcurrentCodersMatchSerialAcrossCacheEvictions) {
  // Threads encode and decode a mix of shapes at once through the shared
  // tree cache. The 1-D shapes' trees (16 bytes per coefficient) add up to
  // more than the cache retains, so trees are evicted while other coders
  // hold them. Every stream must equal the serial one byte for byte and
  // every decode the serial decode bit for bit, and the cache must never
  // retain more than its cap.
  SetTreeCache& cache = SetTreeCache::shared();
  std::vector<Dims> shapes = {Dims{17, 9, 5}, Dims{32, 32, 32}, Dims{40, 3, 21},
                              Dims{1, 1, 1}, Dims{64, 48, 1}};
  size_t long_bytes = 0;
  for (size_t k = 0; long_bytes <= cache.capacity() + (size_t(16) << 20); ++k) {
    const size_t len = 1'150'000 + 1'000 * k;
    shapes.push_back(k % 3 == 0 ? Dims{len, 1, 1}
                                : (k % 3 == 1 ? Dims{1, len, 1} : Dims{1, 1, len}));
    long_bytes += 16 * (len - 1);
  }

  struct Serial {
    std::vector<uint8_t> stream;
    std::vector<double> decoded;
  };
  std::vector<Serial> serial(shapes.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto field = concurrency_field(shapes[s], 7100 + s);
    serial[s].stream = encode(field.data(), shapes[s], 0.5);
    serial[s].decoded.resize(field.size());
    ASSERT_EQ(decode(serial[s].stream.data(), serial[s].stream.size(), shapes[s],
                     serial[s].decoded.data()),
              Status::ok);
  }

  const size_t serial_builds = cache.builds();
  std::atomic<bool> done{false};
  std::atomic<size_t> over_cap{0};
  std::thread monitor([&] {
    while (!done.load()) {
      if (cache.retained_bytes() > cache.capacity()) over_cap.fetch_add(1);
      std::this_thread::yield();
    }
  });
  constexpr int kThreads = 3;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> coders;
  for (int t = 0; t < kThreads; ++t)
    coders.emplace_back([&, t] {
      for (size_t i = 0; i < shapes.size(); ++i) {
        // Each thread walks the shapes from a different start.
        const size_t s = (i + size_t(t) * 3) % shapes.size();
        const Dims dims = shapes[s];
        const auto field = concurrency_field(dims, 7100 + s);
        const auto stream = encode(field.data(), dims, 0.5);
        std::vector<double> out(field.size());
        const Status st = decode(stream.data(), stream.size(), dims, out.data());
        if (stream != serial[s].stream)
          failures[size_t(t)] += " stream " + dims.to_string();
        else if (st != Status::ok ||
                 std::memcmp(out.data(), serial[s].decoded.data(),
                             out.size() * sizeof(double)) != 0)
          failures[size_t(t)] += " decode " + dims.to_string();
      }
    });
  for (auto& th : coders) th.join();
  done.store(true);
  monitor.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[size_t(t)], "") << "thread " << t;
  EXPECT_EQ(over_cap.load(), 0u);
  EXPECT_LE(cache.retained_bytes(), cache.capacity());
  // The serial walk left the first long shapes evicted: the threads rebuilt.
  EXPECT_GT(cache.builds(), serial_builds);
}

TEST(SpeckFast, TreeBuildTimeIsZeroOnACacheHit) {
  // A shape no other test uses: the first call builds the tree (and counts
  // that inside setup_s), every later call of either coder finds it.
  const Dims dims{23, 41, 13};
  const auto coeffs = adversarial_coeffs(dims, 1700, 0.1);
  EncodeStats first, again;
  const auto stream = encode(coeffs.data(), dims, 0.1, 0, &first);
  EXPECT_GT(first.tree_build_s, 0.0);
  EXPECT_LE(first.tree_build_s, first.setup_s);
  (void)encode(coeffs.data(), dims, 0.1, 0, &again);
  EXPECT_EQ(again.tree_build_s, 0.0);
  std::vector<double> out(dims.total());
  DecodeStats ds;
  ASSERT_EQ(decode(stream.data(), stream.size(), dims, out.data(), &ds), Status::ok);
  EXPECT_EQ(ds.tree_build_s, 0.0);
}

}  // namespace
}  // namespace sperr::speck
