// SPECK encoder: one data-parallel sweep engine for every mode, emitting
// the paper's embedded stream bit for bit (tests/test_speck_fast.cpp holds
// it to the recursive oracle coder in oracle/).
//
//   * Setup quantizes once. A max-|c| pass gives the top plane; then one
//     reverse sweep over the shared, read-only SetTree of the grid's extents
//     (settree.h, built once per shape) turns every coefficient into a leaf
//     word at its DFS leaf ordinal — its sign and K = ceil(|c|/q) - 1, two
//     coefficients per SSE2 step — and folds every set's maximum
//     significance plane into an array beside the tree. A leaf's plane is
//     the bit length of K, less one; a set's plane test is one int8 load and
//     compare. Words are 32-bit while the top plane is at most 29, else
//     64-bit (see Encoder).
//   * Worklists are stable SoA buckets: an entry (a set's node id, or a
//     tagged leaf, see leaf_entry) and its cached max plane are appended
//     once and never copied again; a descended entry is tombstoned
//     (kConsumed) in place. The per-plane sorting sweep packs each bucket's
//     significance and liveness tests into 64-wide words (SSE2 byte
//     compares where available, a scalar compare loop otherwise), counts
//     insignificant-set runs with popcounts over those words, and emits
//     each run as one put_zeros — the memory traffic per plane is one byte
//     per listed set instead of a worklist copy. Only significant sets
//     enter the frame-stack descent (the recursive coder's order,
//     preserving the deducible-significance rule bit for bit).
//   * A discovery touches only what it holds. A leaf entry carries its sign
//     and K (while words are 32-bit), so a leaf found in a bucket writes
//     its zero run, its 1 and its sign in one put_bits and appends K to a
//     contiguous LSP array. A set whose children are all leaves codes them
//     in one put_bits of at most 16 bits, with no descent frame. A
//     coefficient's refinement bits are K's binary digits below its
//     discovery plane n <= 50, and its final recon is K + 0.5 (see
//     found_significant). A refinement pass pulls bit n of every earlier
//     entry's K, 48 entries per put_bits; the PWE recon export recomputes K
//     in one linear pass over the coefficients.
//   * The sweep is serial: one bit writer, one set of buckets, one LSP.
//     Lanes (threads > 1) split only the PWE recon export, an element-wise
//     pass over the coefficients, through run_lanes, which the decoder also
//     calls (common/threadpool.h), so the stream never depends on the
//     thread count.
//   * The coder state lives in one Arena::Scope of the calling worker's
//     arena: the leaf words, the set planes, the LSP (sized to the
//     significant count setup finds) and the buckets with their packed
//     significance and liveness words (each bucket sized once to its depth's
//     entry count in the SetTree, since an entry is appended at most once).
//     Nothing regrows or is copied, and a warm arena serves a steady-state
//     encode without fresh pages. The recon export needs only the
//     coefficients (reconstruct), so it runs after the scope has closed and
//     its output may take the coder state's pages.
//   * Size-bounded mode is the same sweep, stopped after the first whole
//     plane that reaches the bit budget; the payload is then cut at the
//     budget bit (the stream is embedded, so the cut is a valid prefix) and
//     that plane's pass records are clipped to it. The encoder keeps no
//     other books on a cut: its reconstruction is what speck::decode
//     returns for the cut stream.
//
// Timing of each plane's sorting / significance-scan / refinement phases is
// recorded into EncodeStats::passes for `bench_micro --speck_json`.

#include "speck/encoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#if defined(__SSE2__) && !defined(SPERR_SCALAR)
#include <emmintrin.h>
#endif

#include "common/bitstream.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "speck/settree.h"

namespace sperr::speck {

namespace {

/// Tombstone plane for a bucket entry whose set has descended. Strictly
/// below every cached plane, so a consumed entry can never test significant.
constexpr int8_t kConsumed = -128;

/// Bucket entries cache their set's max plane as one byte, saturated here.
/// Sorting passes at planes up to this one test the cached byte (n - 1
/// still fits the SSE2 signed-byte compare); passes above it — reached only
/// by fields spanning more than 126 planes — read the int16 planes
/// (entry_plane).
constexpr int32_t kCachedPlaneMax = 126;

/// Deepest discovery plane whose coefficients take the integer closed form:
/// K = ceil(m) - 1 < 2^51 and the final recon K + 0.5 stay exact doubles.
/// Coefficients discovered above it walk the residual chain instead; they
/// are found first, so they always form a prefix of the LSP.
constexpr int32_t kClosedFormPlanes = 50;

/// Smallest scaled magnitude discovered above kClosedFormPlanes:
/// plane_of(m) > kClosedFormPlanes <=> m > 2^(kClosedFormPlanes + 1).
constexpr double kDeepMagnitude = double(uint64_t(1) << (kClosedFormPlanes + 1));

int8_t cached_plane(int16_t p) {
  return int8_t(std::min<int16_t>(p, kCachedPlaneMax));
}

/// The recursive coder's refinement chain for a coefficient of scaled
/// magnitude m found significant at plane n: the residual r = m - 2^n walks
/// planes n-1 .. 0, each emitting `r > 2^b` (subtracting 2^b on a 1) and
/// moving the recon, seeded at the interval center 1.5 * 2^n, by +/- 2^b/2.
/// `visit(b, bit)` sees each bit; returns the final recon.
///
/// Up to plane kClosedFormPlanes the walk has a closed form. Every
/// subtraction is exact (Sterbenz), so the bits are the binary digits of
/// ceil(m - 2^n) - 1 = K - 2^n (for a fractional residual strict > reads
/// the integer part's digits; for an integral one it shifts everything to
/// I - 1), and the recon accumulation 1.5 * 2^n + sum(+/- 2^b / 2)
/// telescopes to K + 0.5, exact while 2^(n+1) fits the 53-bit mantissa
/// with room to spare.
template <class Visit>
double refine_walk(double m, int32_t n, Visit&& visit) {
  const double top = std::ldexp(1.0, n);
  double r = m - top;
  double recon = 1.5 * top;
  for (int32_t b = n - 1; b >= 0; --b) {
    const double thrd = std::ldexp(1.0, b);
    const bool bit = r > thrd;
    visit(b, bit);
    if (bit) r -= thrd;
    recon += bit ? thrd / 2.0 : -thrd / 2.0;
  }
  return recon;
}

/// Bit n of each of k[0 .. count), count <= 48, packed LSB-first.
template <class Mag>
uint64_t plane_word(const Mag* k, unsigned count, int32_t n) {
  uint64_t w = 0;
#if defined(__SSE2__) && !defined(SPERR_SCALAR)
  if (count == 48) {
    // Shift bit n into each lane's sign bit, then movemask gathers the
    // signs: four 32-bit or two 64-bit lanes per 16-byte load.
    constexpr unsigned kLanes = 16 / sizeof(Mag);
    const __m128i sh = _mm_cvtsi32_si128(int(8 * sizeof(Mag)) - 1 - n);
    for (unsigned g = 0; g < 48 / kLanes; ++g) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + kLanes * g));
      unsigned bits;
      if constexpr (kLanes == 4)
        bits = unsigned(_mm_movemask_ps(_mm_castsi128_ps(_mm_sll_epi32(v, sh))));
      else
        bits = unsigned(_mm_movemask_pd(_mm_castsi128_pd(_mm_sll_epi64(v, sh))));
      w |= uint64_t(bits) << (kLanes * g);
    }
    return w;
  }
#endif
  for (unsigned i = 0; i < count; ++i) w |= uint64_t((k[i] >> n) & 1u) << i;
  return w;
}

/// Append bit n of each of k[0 .. count) to `bw` in order, 48 per put_bits.
template <class Mag>
void put_plane_bits(const Mag* k, size_t count, int32_t n, WordBitWriter& bw) {
  for (size_t j = 0; j < count; j += 48) {
    const auto c = unsigned(std::min<size_t>(48, count - j));
    bw.put_bits(plane_word(k + j, c, n), c);
  }
}

/// Top bitplane of the coefficients scaled by 1/q, from one max-|c| pass:
/// division by q > 0 is monotone, so max(|c|) / q == max(|c| / q) and
/// plane_of of it is the largest plane (kDeadPlane when none).
int32_t top_plane(const double* coeffs, size_t n, double q) {
  double top = 0.0;
  size_t i = 0;
#if defined(__SSE2__) && !defined(SPERR_SCALAR)
  // maxpd returns its second operand when either is NaN: NaN is skipped,
  // as the scalar compare below skips it.
  const __m128d sign = _mm_set1_pd(-0.0);
  __m128d t = _mm_setzero_pd();
  for (; i + 2 <= n; i += 2)
    t = _mm_max_pd(_mm_andnot_pd(sign, _mm_loadu_pd(coeffs + i)), t);
  double lanes[2];
  _mm_storeu_pd(lanes, t);
  top = std::max(lanes[0], lanes[1]);
#endif
  for (; i < n; ++i) {
    const double a = std::fabs(coeffs[i]);
    top = a > top ? a : top;
  }
  return plane_of(top / q);
}

/// Append `zeros` zero bits, then the low `count` bits of `bits`: one
/// put_bits unless the run is too long to share it.
void put_after_zeros(WordBitWriter& bw, size_t zeros, uint64_t bits,
                     unsigned count) {
  if (zeros + count <= 56) {
    bw.put_bits(bits << zeros, unsigned(zeros + count));
    return;
  }
  bw.put_zeros(zeros);
  bw.put_bits(bits, count);
}

/// `Word` is one leaf word: uint32_t while n_max <= 29, else uint64_t. A
/// leaf word holds a coefficient's sign (kSign) and its integer magnitude
/// K = ceil(|c|/q) - 1 (0 in the dead zone, where the whole word is 0).
/// K < 2^(n_max + 1) must stay below kSign, and bit 31 above it free for
/// the worklist entries' kLeafTag (leaf_entry), hence the width switch at
/// plane 29. Words of 64 bits also code the deep prefix: a coefficient
/// above kClosedFormPlanes is held as kDeep | sign | its linear index, and
/// its plane and walk are read off the coefficient.
template <class Word>
class Encoder {
  static constexpr unsigned kBits = 8 * sizeof(Word);
  static constexpr Word kSign = Word(1) << (kBits - 2);
  static constexpr Word kDeep = kBits == 64 ? Word(1) << (kBits - 3) : 0;
  static constexpr Word kLow = (kDeep ? kDeep : kSign) - 1;  ///< K or index

 public:
  /// Takes every array from `arena`; the caller's Arena::Scope releases them.
  Encoder(const double* coeffs, Dims dims, double q, size_t budget_bits,
          int32_t n_max, Arena& arena)
      : coeffs_(coeffs), dims_(dims), q_(q), budget_(budget_bits),
        n_max_(n_max), arena_(arena) {
    if (n_max_ >= 0) {
      SetTreeCache::Lease lease = SetTreeCache::shared().get(dims);
      tree_ = std::move(lease.tree);
      build_s_ = lease.build_s;
      lsp_ = arena_.alloc<Word>(gather_leaves());
    }
  }

  std::vector<uint8_t> run(double setup_s, EncodeStats* stats) {
    if (n_max_ >= 0) run_sweeps();
    Timer finish;
    size_t nbits = wbw_.bit_count();
    const bool cut = budget_ && nbits >= budget_;
    if (cut) {
      // Only the last plane reaches the budget (run_sweeps stops there):
      // clip its pass records so that they still sum to the payload.
      PassTiming& last = pass_times_.back();
      const uint64_t over = nbits - budget_;
      const uint64_t ref_over = std::min<uint64_t>(over, last.refinement_bits);
      last.refinement_bits -= ref_over;
      last.sorting_bits -= over - ref_over;
      nbits = budget_;
    }
    const size_t significant = cut ? kept_ : nlsp_;

    Header hdr;
    hdr.q = q_;
    hdr.n_max = n_max_;
    hdr.nbits = nbits;
    std::vector<uint8_t> out;
    out.reserve(Header::kBytes + (nbits + 7) / 8);
    hdr.write(out, wbw_.finish().data());

    if (stats) {
      stats->payload_bits = nbits;
      stats->planes_coded = pass_times_.size();
      stats->significant_count = significant;
      stats->passes = std::move(pass_times_);
      stats->setup_s = setup_s;
      stats->tree_build_s = build_s_;
      stats->finish_s = finish.seconds();
    }
    return out;
  }

 private:
  /// A worklist: entries append once and are tombstoned in place when their
  /// set descends — never copied, unlike a re-listed LIS. `planes` caches
  /// each set's max plane (saturated, see kCachedPlaneMax), so a sweep's
  /// significance tests read one contiguous byte per entry. Both arrays hold
  /// the depth's whole entry count, so a push never checks capacity.
  struct Bucket {
    uint32_t* ids;
    int8_t* planes;
    size_t size = 0;

    void push(uint32_t id, int8_t plane) {
      ids[size] = id;
      planes[size++] = plane;
    }
  };

  /// Descent frame: the node's children are scanned once at frame creation
  /// into their worklist entries, a significance mask and packed plane
  /// bytes (see make_frame), so the walk emits sibling runs in batches
  /// instead of testing one child per iteration.
  struct SweepFrame {
    uint32_t ids[8];  ///< child entries (see leaf_entry)
    uint8_t nc;
    uint8_t next;     ///< child cursor
    uint8_t mask;     ///< child significance bits at the current plane
    bool any_sig;     ///< a significant child has been coded
    uint64_t planes;  ///< eight packed cached child planes (for spills)
  };

  [[nodiscard]] double mag(uint64_t idx) const {
    return std::fabs(coeffs_[idx]) / q_;
  }

  static uint64_t sign_bit(Word w) { return (w >> (kBits - 2)) & 1u; }

  /// Significance plane of a leaf word: the bit length of K, less one.
  [[nodiscard]] int16_t leaf_plane(Word w) const {
    if constexpr (kDeep != 0)
      if (w & kDeep) return plane_of(mag(w & kLow));
    return int16_t(std::bit_width(w & kLow)) - 1;
  }

  /// Worklist entry of the leaf at ordinal `ord`, whose word is w: the
  /// tagged word itself while words are 32-bit, else the tagged ordinal, and
  /// discovery reads the 8-byte word back. Entries stay 4 bytes: 8-byte ones
  /// would double the largest bucket and measured no faster.
  static uint32_t leaf_entry(uint32_t ord, Word w) {
    if constexpr (kBits == 32) return kLeafTag | w;
    else return kLeafTag | ord;
  }

  /// Leaf word of a leaf's worklist entry (tag bit included while 32-bit).
  [[nodiscard]] Word leaf_word(uint32_t e) const {
    if constexpr (kBits == 32) return e;
    else return leaf_[e & ~kLeafTag];
  }

  /// Max significance plane of a worklist entry's set.
  [[nodiscard]] int16_t entry_plane(uint32_t e) const {
    return e & kLeafTag ? leaf_plane(leaf_word(e)) : planes_[e];
  }

  static bool leaf_only(const SetTree::Node& nd) {
    return nd.leaves == (1u << nd.nchild) - 1u;
  }

  /// Leaf word of coeffs_[idx], the scalar twin of quantize_leaves' SSE2
  /// step. K = ceil(m) - 1 comes from m rounded to the nearest integer by
  /// adding 2^52 (exact below 2^52, as in export_recon): the sum's low
  /// mantissa bits are round(m), less one where round(m) >= m.
  [[nodiscard]] Word quantize(uint32_t idx) const {
    constexpr double kRound = 0x1p52;
    const double c = coeffs_[idx];
    const double m = std::fabs(c) / q_;
    const double t = m + kRound;
    const uint64_t k = std::bit_cast<uint64_t>(t) - std::bit_cast<uint64_t>(kRound) -
                       uint64_t(!(t - kRound < m));
    const Word w = Word(k) | Word(std::bit_cast<uint64_t>(c) >> 63) << (kBits - 2);
    return m > 1.0 ? w : 0;
  }

  /// Leaf words of coeffs_[idx[0 .. count)], count <= 8, into out; returns
  /// their max plane. Two coefficients per SSE2 step, the scalar twin for
  /// the rest. Above kClosedFormPlanes (64-bit words only) a scalar pass
  /// swaps in the deep words.
  int16_t quantize_leaves(const uint32_t* idx, unsigned count, Word* out) {
    unsigned j = 0;
#if defined(__SSE2__) && !defined(SPERR_SCALAR)
    const __m128d q = _mm_set1_pd(q_), one = _mm_set1_pd(1.0);
    const __m128d round = _mm_set1_pd(0x1p52), sign = _mm_set1_pd(-0.0);
    for (; j + 2 <= count; j += 2) {
      const __m128d c = _mm_loadh_pd(_mm_load_sd(coeffs_ + idx[j]), coeffs_ + idx[j + 1]);
      const __m128d m = _mm_div_pd(_mm_andnot_pd(sign, c), q);
      const __m128d t = _mm_add_pd(m, round);
      // round(m) - 1 where round(m) >= m: the compare's all-ones is -1.
      const __m128i k = _mm_add_epi64(
          _mm_sub_epi64(_mm_castpd_si128(t), _mm_castpd_si128(round)),
          _mm_castpd_si128(_mm_cmpge_pd(_mm_sub_pd(t, round), m)));
      const __m128i s = _mm_srli_epi64(_mm_castpd_si128(_mm_and_pd(c, sign)),
                                       kBits == 64 ? 1 : 33);
      const __m128i w = _mm_and_si128(_mm_or_si128(k, s),
                                      _mm_castpd_si128(_mm_cmpgt_pd(m, one)));
      if constexpr (kBits == 64)
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j), w);
      else
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + j),
                         _mm_shuffle_epi32(w, _MM_SHUFFLE(3, 1, 2, 0)));
    }
#endif
    for (; j < count; ++j) out[j] = quantize(idx[j]);
    Word any = 0;
    for (j = 0; j < count; ++j) {
      any |= out[j];
      significant_ += out[j] != 0;
    }
    if constexpr (kDeep != 0) {
      if (n_max_ > kClosedFormPlanes) {
        int16_t top = kDeadPlane;
        for (j = 0; j < count; ++j) {
          if (mag(idx[j]) > kDeepMagnitude)
            out[j] = kDeep | Word(std::signbit(coeffs_[idx[j]])) << (kBits - 2) | idx[j];
          top = std::max(top, leaf_plane(out[j]));
        }
        return top;
      }
    }
    return int16_t(std::bit_width(any & kLow)) - 1;
  }

  /// One reverse sweep over the tree's sets, children before parents: each
  /// leaf child's word lands at its DFS ordinal, and every set's max plane
  /// folds from its children's. Returns the significant count.
  size_t gather_leaves() {
    leaf_ = arena_.alloc<Word>(dims_.total());
    const SetTree& tree = *tree_;
    if (tree.size() == 0) {  // a one-coefficient grid: the root is a leaf
      const uint32_t idx = 0;
      (void)quantize_leaves(&idx, 1, leaf_);
      return significant_;
    }
    planes_ = arena_.alloc<int16_t>(tree.size());
    // The leaves are read in reverse DFS order, which the hardware
    // prefetchers do not follow: fetch those of the set kAhead ids on.
    constexpr size_t kAhead = 16;
    for (size_t i = tree.size(); i-- > 0;) {
      if (i >= kAhead) {
        const SetTree::Node& next = tree.node(uint32_t(i - kAhead));
        for (unsigned j = 0; j < next.nchild; ++j)
          if ((next.leaves >> j) & 1u) __builtin_prefetch(coeffs_ + tree.leaf_index(next, j));
      }
      const SetTree::Node& nd = tree.node(uint32_t(i));
      int16_t mx = kDeadPlane;
      uint32_t idx[8];
      unsigned nl = 0;
      uint32_t set = nd.first;
      for (unsigned j = 0; j < nd.nchild; ++j) {
        if ((nd.leaves >> j) & 1u)
          idx[nl++] = tree.leaf_index(nd, j);
        else
          mx = std::max(mx, planes_[set++]);
      }
      if (nl == nd.nchild) {
        // Only leaf children: their ordinals run from leaf0.
        mx = quantize_leaves(idx, nl, leaf_ + nd.leaf0);
      } else if (nl) {
        Word w[8];
        mx = std::max(mx, quantize_leaves(idx, nl, w));
        for (unsigned j = 0, k = 0; j < nd.nchild; ++j)
          if ((nd.leaves >> j) & 1u) leaf_[SetTree::leaf_ordinal(nd, j)] = w[k++];
      }
      planes_[i] = mx;
    }
    return significant_;
  }

  void run_sweeps() {
    // Every bucket holds its depth's whole entry count; the packed words
    // cover the largest.
    const std::vector<uint32_t>& entries = tree_->entries_by_depth();
    buckets_.resize(entries.size());
    size_t widest = 0;
    for (size_t d = 0; d < entries.size(); ++d) {
      buckets_[d].ids = arena_.alloc<uint32_t>(entries[d]);
      buckets_[d].planes = arena_.alloc<int8_t>(entries[d]);
      widest = std::max<size_t>(widest, entries[d]);
    }
    sig_ = arena_.alloc<uint64_t>((widest + 63) / 64);
    live_ = arena_.alloc<uint64_t>((widest + 63) / 64);
    const uint32_t root = tree_->size() ? tree_->root() : leaf_entry(0, leaf_[0]);
    buckets_[0].push(root, cached_plane(entry_plane(root)));
    // Coefficients found above kClosedFormPlanes deposit their refinement
    // bits for plane b into ref_streams_[b] at discovery.
    if (n_max_ > kClosedFormPlanes) ref_streams_.resize(size_t(n_max_) + 1);

    for (int32_t n = n_max_; n >= 0; --n) {
      // Everything found above the closed-form planes is the deep prefix.
      if (n == kClosedFormPlanes) deep_ = nlsp_;
      // Closed-form entries found above plane n are refined at n.
      const size_t refined = n < kClosedFormPlanes ? nlsp_ : deep_;
      PassTiming pt;
      pt.plane = n;
      Timer t;
      const uint64_t b0 = wbw_.bit_count();
      sweep_sorting_pass(n, pt);
      pt.sorting_s = t.seconds();
      pt.sorting_bits = wbw_.bit_count() - b0;
      t.reset();
      sweep_refinement_pass(n, refined);
      pt.refinement_s = t.seconds();
      pt.refinement_bits = wbw_.bit_count() - b0 - pt.sorting_bits;
      pass_times_.push_back(pt);
      if (budget_ && wbw_.bit_count() >= budget_) break;
    }
  }

  void sweep_sorting_pass(int32_t n, PassTiming& pt) {
    // Deepest (smallest) sets first; children spawned by descents land in
    // deeper buckets that were already swept, so every set is examined
    // exactly once per plane — the recursive coder's order.
    for (size_t d = buckets_.size(); d-- > 0;) {
      if (buckets_[d].size == 0) continue;
      Timer t;
      fill_sig_words(buckets_[d], n);
      pt.significance_s += t.seconds();
      sweep_bucket(d, n);
    }
  }

  /// Pack significance (set plane >= n) and liveness (`plane != kConsumed`)
  /// of a bucket's entries into sig_'s / live_'s words — one linear pass
  /// over the cached plane bytes (plus the entries' exact planes above
  /// kCachedPlaneMax). Every word is written in full, so no prior clearing
  /// is needed.
  void fill_sig_words(const Bucket& bk, int32_t n) {
    uint64_t* sw = sig_;
    uint64_t* lw = live_;
    const int8_t* p = bk.planes;
    const bool deep = n > kCachedPlaneMax;
    const size_t e = bk.size;
    size_t i = 0;
    for (size_t w = 0; i < e; ++w) {
      uint64_t sig = 0, live = 0;
#if defined(__SSE2__) && !defined(SPERR_SCALAR)
      if (!deep && e - i >= 64) {
        // Four 16-byte compares per word: signed byte cmpgt gives the
        // significance mask (plane >= n <=> plane > n-1), cmpeq against the
        // tombstone gives ~liveness.
        const __m128i thr = _mm_set1_epi8(int8_t(n - 1));
        const __m128i dead = _mm_set1_epi8(kConsumed);
        for (unsigned g = 0; g < 4; ++g) {
          const __m128i bytes =
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i + 16 * g));
          const auto s = unsigned(_mm_movemask_epi8(_mm_cmpgt_epi8(bytes, thr)));
          const auto c = unsigned(_mm_movemask_epi8(_mm_cmpeq_epi8(bytes, dead)));
          sig |= uint64_t(s) << (16 * g);
          live |= uint64_t(~c & 0xffffu) << (16 * g);
        }
        i += 64;
        sw[w] = sig;
        lw[w] = live;
        continue;
      }
#endif
      const size_t lim = std::min(e, i + 64);
      for (unsigned k = 0; i < lim; ++i, ++k) {
        const int8_t pl = p[i];
        const bool alive = pl != kConsumed;
        const bool s = deep ? alive && entry_plane(bk.ids[i]) >= n : pl >= n;
        sig |= uint64_t(s) << k;
        live |= uint64_t(alive) << k;
      }
      sw[w] = sig;
      lw[w] = live;
    }
  }

  /// Sweep bucket `d`: runs of live insignificant sets are counted by
  /// popcount and emitted as one batched zero run (the sets themselves stay
  /// listed in place — no copy); significant sets emit their 1-bit,
  /// descend, and are tombstoned. A significant leaf's zero run, 1 and sign
  /// go out in one write.
  void sweep_bucket(size_t d, int32_t n) {
    Bucket& bk = buckets_[d];
    const uint64_t* sigw = sig_;
    const uint64_t* livew = live_;
    const size_t e = bk.size;
    size_t zeros = 0;
    for (size_t w = 0; w * 64 < e; ++w) {
      const size_t base = w * 64;
      uint64_t window = ~uint64_t(0);
      if (e - base < 64) window = (uint64_t(1) << (e - base)) - 1;
      uint64_t sig = sigw[w] & window;
      uint64_t live = livew[w] & window;
      while (sig != 0) {
        const unsigned k = unsigned(std::countr_zero(sig));
        const uint64_t below = (uint64_t(1) << k) - 1;
        zeros += size_t(std::popcount(live & below));
        live &= ~below & ~(uint64_t(1) << k);
        sig &= sig - 1;
        const size_t idx = base + k;
        const uint32_t id = bk.ids[idx];
        if (id & kLeafTag) {
          const Word word = leaf_word(id);
          put_after_zeros(wbw_, zeros, 1 | sign_bit(word) << 1, 2);
          found_significant(word, n, wbw_.bit_count());
        } else {
          put_after_zeros(wbw_, zeros, 1, 1);
          sweep_descend(id, uint32_t(d), n);
        }
        zeros = 0;
        bk.planes[idx] = kConsumed;
      }
      zeros += size_t(std::popcount(live));
    }
    if (zeros) wbw_.put_zeros(zeros);
  }

  /// One pass over a node's children: their worklist entries (sets by id,
  /// leaves by word), their cached planes packed into byte lanes of a
  /// uint64, and their significance tests at plane n as a mask. Replaces
  /// the per-child lazy plane load + compare with eight predictable
  /// iterations.
  [[nodiscard]] SweepFrame make_frame(const SetTree::Node& nd, int32_t n) const {
    SweepFrame f{};
    uint64_t planes = 0;
    uint32_t mask = 0;
    uint32_t set = nd.first;
    for (unsigned j = 0; j < nd.nchild; ++j) {
      uint32_t e;
      int16_t p;
      if ((nd.leaves >> j) & 1u) {
        const uint32_t ord = SetTree::leaf_ordinal(nd, j);
        e = leaf_entry(ord, leaf_[ord]);
        p = leaf_plane(leaf_[ord]);
      } else {
        e = set++;
        p = planes_[e];
      }
      f.ids[j] = e;
      planes |= uint64_t(uint8_t(cached_plane(p))) << (8 * j);
      mask |= uint32_t(p >= n) << j;
    }
    f.nc = nd.nchild;
    f.next = 0;
    f.mask = uint8_t(mask);
    f.any_sig = false;
    f.planes = planes;
    return f;
  }

  /// A significant set whose children are all single coefficients, coded
  /// without a frame: each child's significance bit (none for a deduced
  /// last child) and each found one's sign go out in one put_bits of at
  /// most 16 bits; the insignificant ones spill to bucket `depth`.
  void code_leaf_set(const SetTree::Node& nd, size_t depth, int32_t n) {
    const Word* w = leaf_ + nd.leaf0;
    Bucket& dest = buckets_[depth];
    const size_t at = wbw_.bit_count();
    const unsigned last = nd.nchild - 1u;
    uint64_t bits = 0;
    unsigned len = 0;
    bool any_sig = false;
    for (unsigned j = 0; j < nd.nchild; ++j) {
      const Word e = w[j];
      const int16_t p = leaf_plane(e);
      if (p < n) {
        ++len;
        dest.push(leaf_entry(nd.leaf0 + j, e), cached_plane(p));
        continue;
      }
      // The last child of a set with no significant sibling must itself be
      // significant: only its sign (encoder and decoder both deduce it).
      const bool deduced = j == last && !any_sig;
      const uint64_t sign = sign_bit(e);
      bits |= (deduced ? sign : 1 | sign << 1) << len;
      len += deduced ? 1 : 2;
      any_sig = true;
      found_significant(e, n, at + len);
    }
    wbw_.put_bits(bits, len);
  }

  /// The recursive coder's descent of a significant set, iteratively, in
  /// identical DFS order with the identical deducible-significance rule —
  /// but emitting sibling bits in batches. The child significance mask is
  /// known at frame creation, so a run of insignificant siblings, the
  /// following significant child's 1-bit and, for a leaf, its sign collapse
  /// into one put_bits (or put_zeros) call, and the per-child branches on
  /// the bit value disappear. A set of only leaves is coded whole
  /// (code_leaf_set). Spilled-set order and the emitted bit sequence are
  /// unchanged: bits and bucket arrivals are separate channels, and each
  /// stays in child order.
  void sweep_descend(uint32_t id, uint32_t depth, int32_t n) {
    const SetTree::Node& top = tree_->node(id);
    if (leaf_only(top)) {
      code_leaf_set(top, depth + 1, n);
      return;
    }
    frames_.clear();
    frames_.push_back(make_frame(top, n));
    while (!frames_.empty()) {
      SweepFrame& f = frames_.back();
      // Child depth = entry depth + descent depth (frames_ holds the
      // child's ancestors up to and including its parent).
      const size_t child_depth = depth + frames_.size();
      const uint32_t rem = uint32_t(f.mask) >> f.next;
      if (rem == 0) {
        // Every remaining child is insignificant: one batched zero run,
        // spill them all, pop. (Cannot be reached with any_sig still false:
        // a significant parent has at least one significant child.)
        const uint32_t cnt = uint32_t(f.nc) - f.next;
        if (cnt) {
          wbw_.put_zeros(cnt);
          Bucket& dest = buckets_[child_depth];
          for (uint32_t i = f.next; i < f.nc; ++i)
            dest.push(f.ids[i], int8_t(f.planes >> (8 * i)));
        }
        frames_.pop_back();
        continue;
      }
      const uint32_t j = f.next + uint32_t(std::countr_zero(rem));
      const uint32_t gap = j - f.next;  // insignificant siblings before j
      if (gap) {
        Bucket& dest = buckets_[child_depth];
        for (uint32_t i = f.next; i < j; ++i)
          dest.push(f.ids[i], int8_t(f.planes >> (8 * i)));
      }
      // Last child of a parent with no significant sibling must itself be
      // significant: no bit (encoder and decoder both deduce it).
      const bool deduced = j == uint32_t(f.nc) - 1 && !f.any_sig;
      f.any_sig = true;
      f.next = uint8_t(j + 1);
      const uint32_t child = f.ids[j];
      if (child & kLeafTag) {
        const Word w = leaf_word(child);
        const uint64_t sign = sign_bit(w);
        put_after_zeros(wbw_, gap, deduced ? sign : 1 | sign << 1, deduced ? 1 : 2);
        found_significant(w, n, wbw_.bit_count());
        continue;
      }
      if (deduced) {
        if (gap) wbw_.put_zeros(gap);
      } else {
        wbw_.put_bits(uint64_t(1) << gap, gap + 1);
      }
      const SetTree::Node& nd = tree_->node(child);
      if (leaf_only(nd))
        code_leaf_set(nd, child_depth + 1, n);
      else
        frames_.push_back(make_frame(nd, n));
    }
  }

  /// A coefficient turning significant at plane n has magnitude
  /// m in (2^n, 2^(n+1)]; its refinement bits at planes n-1 .. 0 follow
  /// from m alone (refine_walk). Up to plane kClosedFormPlanes they are
  /// K's digits, and K joins the LSP for the refinement passes to pull bits
  /// from; above it the walk writes its bits into the per-plane deep-prefix
  /// streams at once and the LSP slot is a placeholder. `sign_end` is the
  /// stream position just past the coefficient's sign bit.
  void found_significant(Word e, int32_t n, size_t sign_end) {
    if constexpr (kDeep != 0) {
      if (e & kDeep) {
        refine_walk(mag(e & kLow), n, [&](int32_t b, bool bit) {
          ref_streams_[size_t(b)].put_bits(uint64_t(bit), 1);
        });
        e = 0;
      }
    }
    lsp_[nlsp_++] = e & kLow;
    if (budget_ && sign_end < budget_) kept_ = nlsp_;
  }

  /// Emit plane n's refinement bits in LSP order: the deep prefix's bits,
  /// deposited at discovery, then bit n of the K of every closed-form
  /// entry found above n (LSP entries [deep_, refined)).
  void sweep_refinement_pass(int32_t n, size_t refined) {
    if (size_t(n) < ref_streams_.size()) {
      WordBitWriter& rb = ref_streams_[size_t(n)];
      if (rb.bit_count()) {
        wbw_.append_bits(rb.finish().data(), rb.bit_count());
        rb.clear();
      }
    }
    if (refined > deep_)
      put_plane_bits(lsp_ + deep_, refined - deep_, n, wbw_);
  }

  const double* coeffs_;
  Dims dims_;
  double q_;
  size_t budget_;

  int32_t n_max_ = -1;
  std::vector<PassTiming> pass_times_;

  Arena& arena_;  ///< holds every array below
  std::shared_ptr<const SetTree> tree_;  ///< shared, read-only
  double build_s_ = 0.0;  ///< seconds this call spent building tree_
  int16_t* planes_ = nullptr;  ///< max plane per tree node id
  Word* leaf_ = nullptr;       ///< leaf word per leaf ordinal
  size_t significant_ = 0;     ///< nonzero leaf words

  std::vector<Bucket> buckets_;  ///< sweep worklists, bucketed by depth
  std::vector<SweepFrame> frames_;  ///< descent stack
  uint64_t* sig_ = nullptr;   ///< a bucket's packed significance bits (scratch)
  uint64_t* live_ = nullptr;  ///< a bucket's packed liveness bits (scratch)

  Word* lsp_ = nullptr;  ///< K per significant coefficient, discovery order
  size_t nlsp_ = 0;      ///< LSP entries (at most significant_)
  size_t deep_ = 0;      ///< LSP prefix found above kClosedFormPlanes
  std::vector<WordBitWriter> ref_streams_;  ///< deep-prefix bits per plane

  size_t kept_ = 0;  ///< budgeted: LSP entries whose sign bit precedes the last bit
  WordBitWriter wbw_;  ///< master stream
};

template <class Word>
std::vector<uint8_t> encode_as(const double* coeffs, Dims dims, double q,
                               size_t budget_bits, int32_t n_max, const Timer& setup,
                               EncodeStats* stats, Arena& arena) {
  const Arena::Scope scope(arena);
  Encoder<Word> enc(coeffs, dims, q, budget_bits, n_max, arena);
  return enc.run(setup.seconds(), stats);
}

/// Recon of coefficients [b, e) into o, the whole reconstruct(): every
/// significant coefficient was coded through plane 0, so its recon follows
/// from the coefficient alone. The closed form K + 0.5 = ceil(m) - 0.5 is
/// taken from m rounded to the nearest integer by adding and removing 2^52
/// (exact below 2^52), so there is no integer conversion and SSE2 codes two
/// coefficients per step; where the range holds a deep-plane coefficient
/// (m > kDeepMagnitude), those are then redone with the walk.
void export_range(const double* coeffs, double q, double* o, size_t b, size_t e) {
  constexpr double kRound = 0x1p52;
  size_t i = b;
  bool deep = false;
#if defined(__SSE2__) && !defined(SPERR_SCALAR)
  const __m128d qv = _mm_set1_pd(q), one = _mm_set1_pd(1.0);
  const __m128d round = _mm_set1_pd(kRound), half = _mm_set1_pd(0.5);
  const __m128d sign = _mm_set1_pd(-0.0), deep_m = _mm_set1_pd(kDeepMagnitude);
  __m128d any_deep = _mm_setzero_pd();
  for (; i + 2 <= e; i += 2) {
    const __m128d c = _mm_loadu_pd(coeffs + i);
    const __m128d m = _mm_div_pd(_mm_andnot_pd(sign, c), qv);
    const __m128d near = _mm_sub_pd(_mm_add_pd(m, round), round);
    // near + 0.5 where near < m, near - 0.5 elsewhere; then c's sign.
    const __m128d up = _mm_cmplt_pd(near, m);
    const __m128d r = _mm_add_pd(near, _mm_or_pd(half, _mm_andnot_pd(up, sign)));
    const __m128d signed_r = _mm_or_pd(r, _mm_and_pd(c, sign));
    _mm_storeu_pd(o + i, _mm_and_pd(_mm_cmpgt_pd(m, one), _mm_mul_pd(signed_r, qv)));
    any_deep = _mm_or_pd(any_deep, _mm_cmpgt_pd(m, deep_m));
  }
  deep = _mm_movemask_pd(any_deep) != 0;
#endif
  for (; i < e; ++i) {
    const double c = coeffs[i];
    const double m = std::fabs(c) / q;
    const double near = (m + kRound) - kRound;
    const double r = near < m ? near + 0.5 : near - 0.5;
    o[i] = m > 1.0 ? std::copysign(r, c) * q : 0.0;
    deep |= m > kDeepMagnitude;
  }
  if (deep)
    for (size_t k = b; k < e; ++k) {
      const double m = std::fabs(coeffs[k]) / q;
      if (!(m > kDeepMagnitude)) continue;
      const double r = refine_walk(m, plane_of(m), [](int32_t, bool) {});
      o[k] = std::copysign(r, coeffs[k]) * q;
    }
}
}  // namespace

std::vector<uint8_t> encode(const double* coeffs,
                            Dims dims,
                            double q,
                            size_t budget_bits,
                            EncodeStats* stats,
                            std::vector<double>* recon_out,
                            int threads,
                            Arena* arena) {
  if (dims.total() >= kMaxCoefficients)
    throw std::invalid_argument("speck::encode: " + dims.to_string() +
                                " exceeds the 2^31-coefficient limit");
  const Timer setup;
  const int32_t n_max = top_plane(coeffs, dims.total(), q);
  Arena& a = arena ? *arena : tls_arena();
  std::vector<uint8_t> out =
      n_max <= 29
          ? encode_as<uint32_t>(coeffs, dims, q, budget_bits, n_max, setup, stats, a)
          : encode_as<uint64_t>(coeffs, dims, q, budget_bits, n_max, setup, stats, a);
  if (recon_out && budget_bits) {
    recon_out->clear();
  } else if (recon_out) {
    const Timer t;
    recon_out->resize(dims.total());
    reconstruct(coeffs, dims, q, recon_out->data(), threads);
    if (stats) stats->finish_s += t.seconds();
  }
  return out;
}

size_t encode_arena_bytes(Dims dims) {
  // Per coefficient: a leaf word and an LSP entry of 8 B, at most one set
  // (2 B of plane), two bucket entries (id and plane byte, for a set and a
  // leaf) and two bits of packed words; then each allocation's alignment
  // and red zone, a few hundred of them at most.
  const size_t n = dims.total();
  return n * (2 * sizeof(uint64_t) + sizeof(int16_t) + 2 * (sizeof(uint32_t) + sizeof(int8_t))) +
         2 * ((n + 63) / 64) * sizeof(uint64_t) + 512 * 2 * Arena::kAlignment;
}

void reconstruct(const double* coeffs, Dims dims, double q, double* out, int threads) {
  run_lanes(threads, 0, dims.total(), [&](size_t b, size_t e) {
    export_range(coeffs, q, out, b, e);
  });
}

}  // namespace sperr::speck
