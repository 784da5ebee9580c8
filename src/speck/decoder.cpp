// SPECK decoder: flattened counterpart of encoder.cpp. The set hierarchy
// comes from the shared SetTree of the grid's extents (the encoder's, since
// it depends only on the extents), so the per-plane traversal walks packed
// node ids instead of re-deriving box splits; a single coefficient is
// listed as kLeafTag | its linear index, read off its parent's record.
// Mirrors the traversal of the recursive oracle decoder in oracle/
// (including the deducible-significance rule and truncated-stream
// semantics) bit for bit.
//
// Integer magnitudes in LSP order, the encoder's design read backwards:
//   * a coefficient found significant at plane n appends its sign-tagged
//     index and K = 1 (the leading bit of its magnitude) to the LSP;
//   * a refinement pass at plane p appends one bit to the K of every entry
//     found above p, K = 2K + bit. The pass's bits are contiguous in the
//     payload, so they are read as whole 64-bit words and shifted into
//     four (or two) K per SSE2 step; with threads > 1 the pass is cut into
//     fixed contiguous lanes of element-independent updates (Lanes, the
//     helper the encoder's recon export also uses);
//   * the reconstruction is exported once, at the end: an entry whose last
//     applied plane is p decodes to (K + 0.5) * 2^p * q. The reference's
//     per-pass sum 1.5 * 2^n +/- 2^b / 2 ... telescopes to exactly that,
//     and every partial sum is exact while K < 2^52, so the two agree bit
//     for bit.
// Coefficients found above plane kIntegerPlanes would overflow that
// exactness; they are found first, so they form an LSP prefix that keeps
// the reference's per-pass double update.
//
// The sorting pass is bit-serial by nature (each bit's meaning depends on
// every bit before it): runs of 0-bits (still-insignificant sets) are
// skipped with one word-level peek_zero_run and stay listed, compacted in
// place, and only significant sets descend bit by bit. Parallelism never
// touches it, so the output is identical at every thread count.

#include "speck/decoder.h"

#include <algorithm>
#include <cmath>
#include <memory>

#if defined(__SSE2__) && !defined(SPERR_SCALAR)
#include <emmintrin.h>
#endif

#include "common/bitstream.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "speck/settree.h"

namespace sperr::speck {

namespace {

/// Deepest discovery plane whose coefficients are held as integer K: their
/// K < 2^51, so K + 0.5 and every partial sum of the reference's updates
/// are exact doubles. The encoder's closed-form boundary.
constexpr int32_t kIntegerPlanes = 50;

/// K = 2K + bit for k[0 .. count), count <= 64, bit i of `w` going to k[i].
/// The SSE2 path broadcasts the bits, compares them against one mask bit
/// per lane (all-ones where set) and subtracts that from 2K.
template <class Mag>
void shift_in(Mag* k, uint64_t w, unsigned count) {
  unsigned i = 0;
#if defined(__SSE2__) && !defined(SPERR_SCALAR)
  constexpr unsigned kLanes = 16 / sizeof(Mag);
  // A 64-bit lane's mask bit sits in both of its 32-bit halves, so the
  // 32-bit compare yields a whole 64-bit all-ones lane.
  const __m128i sel = kLanes == 4 ? _mm_setr_epi32(1, 2, 4, 8)
                                  : _mm_setr_epi32(1, 1, 2, 2);
  for (; i + kLanes <= count; i += kLanes) {
    const __m128i b = _mm_set1_epi32(int(uint32_t(w >> i)));
    const __m128i set = _mm_cmpeq_epi32(_mm_and_si128(b, sel), sel);
    auto* p = reinterpret_cast<__m128i*>(k + i);
    const __m128i v = _mm_loadu_si128(p);
    if constexpr (kLanes == 4)
      _mm_storeu_si128(p, _mm_sub_epi32(_mm_add_epi32(v, v), set));
    else
      _mm_storeu_si128(p, _mm_sub_epi64(_mm_add_epi64(v, v), set));
  }
#endif
  for (; i < count; ++i) k[i] = Mag((k[i] << 1) | ((w >> i) & 1u));
}

/// `Mag` holds K < 2^(n_max + 1), leading bit included: uint32_t while
/// n_max <= 31, else uint64_t.
template <class Mag>
class Decoder {
 public:
  Decoder(BitReader br, Dims dims, const Header& hdr, int threads)
      : br_(br), dims_(dims), hdr_(hdr), lanes_(threads) {}

  Status run(double* coeffs, DecodeStats* stats, const Timer& setup) {
    double build_s = 0.0;
    if (hdr_.n_max >= 0) {
      SetTreeCache::Lease lease = SetTreeCache::shared().get(dims_);
      tree_ = std::move(lease.tree);
      build_s = lease.build_s;
      lis_.resize(max_depth(dims_) + 1);
      lis_[0].push_back(tree_->root());
      // A significant coefficient costs at least its sign bit, so this
      // bounds the LSP without ever growing (and copying) it.
      const size_t cap = std::min<size_t>(dims_.total(), br_.bits_left());
      sidx_.reserve(cap);
      mag_.reserve(cap);
    }
    const double setup_s = setup.seconds();

    // Where decoding stopped, for the export: LSP entries [0, refined) last
    // took a bit at plane `last`, [refined, listed) one plane above it, and
    // [listed, end) were found at `last`. A full decode ends with
    // last = 0 and refined = listed.
    int32_t last = 0;
    size_t refined = 0, listed = 0;
    double sorting_s = 0.0, refinement_s = 0.0;
    size_t planes = 0;
    Timer t;
    for (int32_t p = hdr_.n_max; p >= 0; --p) {
      const size_t bits0 = br_.bits_read();
      thrd_ = std::ldexp(1.0, p);
      listed = sidx_.size();
      refined = 0;
      last = p;
      t.reset();
      sorting_pass(p);
      sorting_s += t.seconds();
      if (!done_) {
        t.reset();
        refined = refinement_pass(listed);
        refinement_s += t.seconds();
      }
      planes += br_.bits_read() != bits0;
      if (done_) break;
    }

    t.reset();
    export_coeffs(coeffs, last, refined, listed);
    if (stats) {
      stats->bits_consumed = br_.bits_read();
      stats->significant_count = sidx_.size();
      stats->truncated = done_;
      stats->planes_decoded = planes;
      stats->setup_s = setup_s;
      stats->tree_build_s = build_s;
      stats->sorting_s = sorting_s;
      stats->refinement_s = refinement_s;
      stats->finish_s = t.seconds();
    }
    return Status::ok;
  }

 private:
  static constexpr uint32_t kIdxMask = 0x7fffffffu;  ///< sign rides in bit 31

  struct Frame {
    const SetTree::Node* node;
    uint8_t next;  ///< child cursor
    uint8_t sets;  ///< children before the cursor that are sets
    bool any_sig;
  };

  [[nodiscard]] bool get(bool& bit) {
    bit = br_.get();
    if (br_.exhausted()) {
      done_ = true;
      return false;
    }
    return true;
  }

  /// Sweep every LIS bucket, deepest first, compacting it in place: the
  /// sets that stay insignificant keep their order, and a descent only ever
  /// lists sets in deeper buckets, never in the one being swept.
  void sorting_pass(int32_t p) {
    for (size_t d = lis_.size(); d-- > 0;) {
      uint32_t* ids = lis_[d].data();
      const size_t count = lis_[d].size();
      size_t i = 0, kept = 0;
      while (i < count) {
        // A run of 0-bits is a run of still-insignificant sets: skip it and
        // keep the ids with one move instead of a get() per set.
        const size_t run = br_.peek_zero_run(count - i);
        if (run != 0) {
          br_.skip(run);
          if (kept != i) std::copy(ids + i, ids + i + run, ids + kept);
          kept += run;
          i += run;
          if (i == count) break;
        }
        // The run ended on a 1-bit (a significant set) or at the stream end.
        process_significant(ids[i++], uint32_t(d), p);
        if (done_) return;
      }
      lis_[d].resize(kept);
    }
  }

  /// Mirror of the encoder's descent: significance bits come from the
  /// stream instead of the max tree; everything else — DFS order, LIS
  /// bucketing, the deducible-last-child rule, stop-on-exhaustion — is the
  /// same state machine. Consumes the set's own 1-bit first; a missing bit
  /// ends the decode, as in the reference.
  void process_significant(uint32_t id, uint32_t depth, int32_t p) {
    bool sig;
    if (!get(sig)) return;
    if (id & kLeafTag) {
      found_significant(id & ~kLeafTag, p);
      return;
    }
    frames_.clear();
    frames_.push_back({&tree_->node(id), 0, 0, false});
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const SetTree::Node& nd = *f.node;
      if (f.next == nd.nchild) {
        frames_.pop_back();
        continue;
      }
      const unsigned j = f.next;
      const bool leaf = (nd.leaves >> j) & 1u;
      const uint32_t child = leaf ? kLeafTag | tree_->leaf_index(nd, j)
                                  : nd.first + f.sets++;
      const bool last = ++f.next == nd.nchild;
      const bool deducible = last && !f.any_sig;
      bool csig = true;
      if (!deducible && !get(csig)) return;
      f.any_sig |= csig;
      if (!csig) {
        lis_[depth + frames_.size()].push_back(child);
        continue;
      }
      if (leaf) {
        found_significant(child & ~kLeafTag, p);
        if (done_) return;
        continue;
      }
      frames_.push_back({&tree_->node(child), 0, 0, false});
    }
  }

  /// A coefficient found at plane p lies in (2^p, 2^(p+1)]: K = 1, recon
  /// 1.5 * 2^p. Above kIntegerPlanes the recon itself is kept, as a double.
  void found_significant(uint32_t idx, int32_t p) {
    bool negative;
    if (!get(negative)) return;  // sign bit missing: entry dropped, as reference
    sidx_.push_back(idx | (uint32_t(negative) << 31));
    mag_.push_back(1);
    if (p > kIntegerPlanes) deep_.push_back(1.5 * thrd_);
  }

  /// Refine LSP entries [0, count) — everything found above this plane —
  /// with the next `count` payload bits, in LSP order. Stops exactly where
  /// the per-bit reference does: the first entry whose bit is missing gets
  /// no update and latches `done_`. Returns the entries refined.
  size_t refinement_pass(size_t count) {
    const size_t take = std::min(count, br_.bits_left());
    const size_t start = br_.bits_read();
    const size_t nd = std::min(deep_.size(), take);
    const double half = thrd_ / 2.0;
    for (size_t j = 0; j < nd; j += 64) {
      const uint64_t w = br_.word_at(start + j);
      const size_t e = std::min(nd, j + 64);
      for (size_t i = j; i < e; ++i)
        deep_[i] += ((w >> (i - j)) & 1u) ? half : -half;
    }
    Mag* k = mag_.data();
    const BitReader& br = br_;
    lanes_.run(nd, take, [k, start, &br](size_t b, size_t e) {
      for (size_t j = b; j < e; j += 64)
        shift_in(k + j, br.word_at(start + j),
                 unsigned(std::min<size_t>(64, e - j)));
    });
    br_.skip(take);
    if (take < count) done_ = true;  // pass unfinished
    return take;
  }

  /// Zero the dead zone, then write every LSP entry once: the deep prefix
  /// from its double recon, the rest as (K + 0.5) * 2^plane * q with the
  /// plane's scale precomputed (see run() for the three ranges). Every
  /// coefficient turns significant at most once, so the indices are unique
  /// and lanes never collide.
  void export_coeffs(double* coeffs, int32_t last, size_t refined, size_t listed) {
    const double q = hdr_.q;
    std::fill(coeffs, coeffs + dims_.total(), 0.0);
    const uint32_t* sidx = sidx_.data();
    const size_t nd = deep_.size();
    for (size_t j = 0; j < nd; ++j)
      coeffs[sidx[j] & kIdxMask] = (sidx[j] >> 31 ? -deep_[j] : deep_[j]) * q;

    // With any integer entry listed, last <= kIntegerPlanes; the clamp only
    // keeps the unused scales of an all-deep LSP well defined.
    const int32_t p = std::min(last, kIntegerPlanes);
    const double at = std::ldexp(q, p), above = std::ldexp(q, p + 1);
    const Mag* k = mag_.data();
    auto emit = [sidx, k, coeffs](size_t b, size_t e, double scale) {
      for (size_t j = b; j < e; ++j) {
        const double v = (double(k[j]) + 0.5) * scale;
        coeffs[sidx[j] & kIdxMask] = sidx[j] >> 31 ? -v : v;
      }
    };
    lanes_.run(nd, sidx_.size(), [&](size_t b, size_t e) {
      emit(b, std::min(e, refined), at);
      emit(std::max(b, refined), std::min(e, listed), above);
      emit(std::max(b, listed), e, at);
    });
  }

  BitReader br_;
  Dims dims_;
  Header hdr_;
  Lanes lanes_;  ///< refinement-pass and export lanes
  bool done_ = false;
  double thrd_ = 0.0;  ///< 2^p of the plane being decoded

  std::shared_ptr<const SetTree> tree_;  ///< shared, read-only
  /// Node ids and kLeafTag | linear index, by depth.
  std::vector<std::vector<uint32_t>> lis_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> sidx_;  ///< sign<<31 | coefficient index, LSP order
  std::vector<Mag> mag_;        ///< K per LSP entry (deep prefix: unused)
  std::vector<double> deep_;    ///< recon of the LSP prefix found above
                                ///< kIntegerPlanes, scaled units
};

template <class Mag>
Status decode_as(const BitReader& br, Dims dims, const Header& hdr, int threads,
                 double* coeffs, DecodeStats* stats, const Timer& setup) {
  Decoder<Mag> dec(br, dims, hdr, threads);
  return dec.run(coeffs, stats, setup);
}

}  // namespace

Status decode(const uint8_t* stream,
              size_t nbytes,
              Dims dims,
              double* coeffs,
              DecodeStats* stats,
              int threads) {
  const Timer setup;
  if (dims.total() >= kMaxCoefficients) return Status::corrupt_stream;

  ByteReader hr(stream, nbytes);
  Header hdr;
  if (const Status s = hdr.deserialize(hr); s != Status::ok) return s;

  // A payload shorter than the header promises is still decodable: the
  // stream is embedded, so we clamp to the bits present (prefix decode).
  const size_t payload_bytes = nbytes - hr.pos();
  const uint64_t nbits = std::min<uint64_t>(hdr.nbits, payload_bytes * 8);

  const BitReader br(stream + hr.pos(), payload_bytes, nbits);
  return hdr.n_max <= 31
             ? decode_as<uint32_t>(br, dims, hdr, threads, coeffs, stats, setup)
             : decode_as<uint64_t>(br, dims, hdr, threads, coeffs, stats, setup);
}

}  // namespace sperr::speck
