// SPECK encoder: one data-parallel sweep engine for every mode, emitting
// the paper's embedded stream bit for bit (tests/test_speck_fast.cpp holds
// it to the recursive oracle coder in oracle/).
//
//   * The set hierarchy is the shared, read-only SetTree of the grid's
//     extents (settree.h, built once per shape), and every set's maximum
//     significance plane is folded once per call into an array beside it —
//     the per-plane significance test collapses from a lazy strided box
//     scan plus a double compare to one int8 load and compare. A single
//     coefficient has no tree record: it is listed as kLeafTag | its DFS
//     leaf ordinal, and its plane is read off its value.
//   * Worklists are stable SoA buckets: an entry's set id and its cached
//     max plane are appended once and never copied again; a descended
//     entry is tombstoned (kConsumed) in place. The per-plane sorting
//     sweep packs each bucket's significance and liveness tests into
//     64-wide words (SSE2 byte compares where available, a scalar
//     compare loop otherwise), counts insignificant-set runs with
//     popcounts over those words, and emits each run as one put_zeros —
//     the memory traffic per plane is one byte per listed set instead of
//     a worklist copy. Only significant sets enter the frame-stack
//     descent (the recursive coder's order, preserving the
//     deducible-significance rule bit for bit).
//   * Integer magnitudes in tree leaf order: setup stores every coefficient
//     scaled by 1/q in the SetTree's DFS leaf order (gather_leaves), so a
//     discovery reads its neighbour's cache line instead of missing on a
//     random linear index. A coefficient found at plane n <= 50 is
//     quantized there, once, to K = ceil(|c|/q) - 1 (its refinement bits
//     are K's binary digits below n and its final recon is K + 0.5, see
//     sweep_found_significant), and K joins a contiguous LSP array. A
//     refinement pass pulls bit n of every earlier entry's K, 48 entries per
//     put_bits; the PWE recon export recomputes K in one linear pass over
//     the coefficients.
//   * Deterministic intra-chunk parallelism (threads > 1): each bucket's
//     entries are partitioned into fixed, word-aligned contiguous lanes;
//     every lane sweeps its slice into private bit/arrival/LSP buffers,
//     and the per-lane outputs merge in lane order. Lane
//     concatenation reproduces the serial entry order exactly, so the
//     stream is byte-identical at every thread count. (Safe because a
//     descent from bucket d only spawns entries for strictly deeper
//     buckets, never for the bucket being swept.)
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

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/bitset.h"
#include "common/bitstream.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "speck/settree.h"

namespace sperr::speck {

namespace {

/// Buckets below this size are swept serially even in parallel mode: the
/// fork-join dispatch would cost more than the sweep. The output is
/// invariant to this threshold — lane merge order equals serial order — so
/// it is a pure tuning knob.
constexpr size_t kParallelSortGrain = size_t(1) << 12;

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

/// Integer magnitude K = ceil(m) - 1 of a scaled magnitude m in
/// (1, kDeepMagnitude], without libm: m > 0, so the truncating conversion
/// is floor, and ceil differs from floor + 1 exactly when m is integral.
/// For m in (2^n, 2^(n+1)], K lies in [2^n, 2^(n+1)) and its binary digits
/// below n are the reference walk's refinement bits (refine_walk).
uint64_t magnitude_of(double m) {
  const auto t = int64_t(m);  // m <= 2^51: one signed conversion each way
  return uint64_t(double(t) == m ? t - 1 : t);
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
#if defined(__SSE2__)
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

/// What the encoder learns from one linear pass over the coefficients,
/// before any structure is built.
struct Scan {
  size_t significant = 0;  ///< coefficients outside the dead zone
  int32_t n_max = -1;      ///< top bitplane (kDeadPlane when none)
};

Scan scan_coefficients(const double* coeffs, size_t n, double q) {
  Scan s;
  double top = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double m = std::fabs(coeffs[i]) / q;
    s.significant += m > 1.0;
    top = m > top ? m : top;
  }
  // plane_of(max m) == max plane_of(m): the top plane is the largest n
  // with 2^n < max magnitude.
  s.n_max = plane_of(top);
  return s;
}

/// `Mag` holds the integer magnitudes K < 2^(n_max + 1) in the LSP. The LSP
/// only serves refinement bits, which lie below the top plane, so K's bits
/// from n_max up may be dropped: uint32_t while n_max <= 32, else uint64_t.
template <class Mag>
class Encoder {
 public:
  Encoder(const double* coeffs, Dims dims, double q, size_t budget_bits,
          int threads, const Scan& scan)
      : coeffs_(coeffs), dims_(dims), q_(q), budget_(budget_bits),
        n_max_(scan.n_max) {
    if (n_max_ >= 0) {
      SetTreeCache::Lease lease = SetTreeCache::shared().get(dims);
      tree_ = std::move(lease.tree);
      build_s_ = lease.build_s;
      gather_leaves();
      lsp_.reserve(scan.significant);
    }
    // Budgeted mode reads the global bit position of every sign bit
    // (sweep_found_significant), so it sweeps serially.
    threads_ = budget_ ? 1 : resolve_thread_count(threads);
  }

  std::vector<uint8_t> run(double setup_s, EncodeStats* stats,
                           std::vector<double>* recon_out) {
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
    const size_t significant = cut ? kept_ : lsp_.size();

    Header hdr;
    hdr.q = q_;
    hdr.n_max = n_max_;
    hdr.nbits = nbits;
    std::vector<uint8_t> out;
    out.reserve(Header::kBytes + (nbits + 7) / 8);
    hdr.write(out, wbw_.finish().data());

    // The coder state is dead: free it before the export allocates the
    // recon, so the two never share the peak.
    tree_.reset();
    planes_.reset();
    leaf_val_.reset();
    lsp_ = {};
    buckets_ = {};
    lanes_ = {};
    wbw_ = {};
    if (recon_out && budget_)
      recon_out->clear();
    else if (recon_out)
      export_recon(*recon_out);

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
  /// significance tests read one contiguous byte per entry.
  struct Bucket {
    std::vector<uint32_t> ids;
    std::vector<int8_t> planes;

    void push(uint32_t id, int8_t plane) {
      ids.push_back(id);
      planes.push_back(plane);
    }
  };

  /// Descent frame: the node's children are scanned once at frame creation
  /// into their worklist entries, a significance mask and packed plane
  /// bytes (see make_frame), so the walk emits sibling runs in batches
  /// instead of testing one child per iteration.
  struct SweepFrame {
    uint32_t ids[8];  ///< child entries: node id or kLeafTag | ordinal
    uint8_t nc;
    uint8_t next;     ///< child cursor
    uint8_t mask;     ///< child significance bits at the current plane
    bool any_sig;     ///< a significant child has been coded
    uint64_t planes;  ///< eight packed cached child planes (for spills)
  };

  /// One sweep lane's output channels. The serial sweep's lane points
  /// straight at the master structures (zero merge cost); parallel lanes
  /// point at private buffers that merge, in lane order, after each bucket.
  struct Lane {
    WordBitWriter* bw = nullptr;
    std::vector<Bucket>* spill = nullptr;  ///< per-depth arrival dest
    std::vector<Mag>* lsp = nullptr;       ///< K per discovery, LSP order
    std::vector<WordBitWriter>* ref = nullptr;  ///< deep-prefix bits per plane
    std::vector<SweepFrame> frames;  ///< descent stack (always private)
    WordBitWriter local_bw;
    std::vector<Bucket> local_spill;
    std::vector<Mag> local_lsp;
    std::vector<WordBitWriter> local_ref;
    double significance_s = 0.0;  ///< this bucket's packed-scan time
  };

  [[nodiscard]] double mag(uint64_t idx) const {
    return std::fabs(coeffs_[idx]) / q_;
  }

  /// Max significance plane of a worklist entry's set.
  [[nodiscard]] int16_t entry_plane(uint32_t e) const {
    return e & kLeafTag ? plane_of(std::fabs(leaf_val_[e & ~kLeafTag]))
                        : planes_[e];
  }

  /// One reverse sweep over the tree's sets, children before parents: each
  /// leaf child's c / q lands at its DFS ordinal (the scaled coefficient
  /// gives discovery its sign and magnitude), and every set's max plane
  /// folds from its children's.
  void gather_leaves() {
    leaf_val_.reset(new double[dims_.total()]);
    const auto leaf = [this](uint32_t ord, uint32_t idx) {
      const double s = coeffs_[idx] / q_;
      leaf_val_[ord] = s;
      return plane_of(std::fabs(s));
    };
    const SetTree& tree = *tree_;
    if (tree.size() == 0) {
      (void)leaf(0, 0);  // a one-coefficient grid: the root is a leaf
      return;
    }
    planes_.reset(new int16_t[tree.size()]);
    for (size_t i = tree.size(); i-- > 0;) {
      const SetTree::Node& nd = tree.node(uint32_t(i));
      int16_t mx = kDeadPlane;
      uint32_t set = nd.first;
      for (unsigned j = 0; j < nd.nchild; ++j)
        mx = std::max(mx, (nd.leaves >> j) & 1u
                              ? leaf(SetTree::leaf_ordinal(nd, j),
                                     tree.leaf_index(nd, j))
                              : planes_[set++]);
      planes_[i] = mx;
    }
  }

  /// Every significant coefficient was coded through plane 0, so its recon
  /// follows from the coefficient alone: one linear pass, no LSP scatter.
  /// The closed form K + 0.5 = ceil(m) - 0.5 is taken from m rounded to
  /// the nearest integer by adding and removing 2^52 (exact below 2^52), so
  /// there is no integer conversion and SSE2 codes two coefficients per
  /// step; deep-plane coefficients are then redone with the walk.
  void export_recon(std::vector<double>& out) const {
    const size_t n = dims_.total();
    out.resize(n);
    double* o = out.data();
    constexpr double kRound = 0x1p52;
    size_t i = 0;
#if defined(__SSE2__)
    const __m128d q = _mm_set1_pd(q_), one = _mm_set1_pd(1.0);
    const __m128d round = _mm_set1_pd(kRound), half = _mm_set1_pd(0.5);
    const __m128d sign = _mm_set1_pd(-0.0);
    for (; i + 2 <= n; i += 2) {
      const __m128d c = _mm_loadu_pd(coeffs_ + i);
      const __m128d m = _mm_div_pd(_mm_andnot_pd(sign, c), q);
      const __m128d near = _mm_sub_pd(_mm_add_pd(m, round), round);
      // near + 0.5 where near < m, near - 0.5 elsewhere; then c's sign.
      const __m128d up = _mm_cmplt_pd(near, m);
      const __m128d r = _mm_add_pd(near, _mm_or_pd(half, _mm_andnot_pd(up, sign)));
      const __m128d signed_r = _mm_or_pd(r, _mm_and_pd(c, sign));
      _mm_storeu_pd(o + i, _mm_and_pd(_mm_cmpgt_pd(m, one), _mm_mul_pd(signed_r, q)));
    }
#endif
    for (; i < n; ++i) {
      const double c = coeffs_[i];
      const double m = std::fabs(c) / q_;
      const double near = (m + kRound) - kRound;
      const double r = near < m ? near + 0.5 : near - 0.5;
      o[i] = m > 1.0 ? std::copysign(r, c) * q_ : 0.0;
    }
    if (n_max_ > kClosedFormPlanes)
      for (size_t k = 0; k < n; ++k) {
        const double m = mag(k);
        if (!(m > kDeepMagnitude)) continue;
        const double r = refine_walk(m, plane_of(m), [](int32_t, bool) {});
        o[k] = std::copysign(r, coeffs_[k]) * q_;
      }
  }

  void run_sweeps() {
    buckets_.resize(max_depth(dims_) + 1);
    buckets_[0].push(tree_->root(), cached_plane(entry_plane(tree_->root())));
    // Coefficients found above kClosedFormPlanes deposit their refinement
    // bits for plane b into ref_streams_[b] at discovery.
    if (n_max_ > kClosedFormPlanes) ref_streams_.resize(size_t(n_max_) + 1);
    serial_lane_.bw = &wbw_;
    serial_lane_.spill = &buckets_;
    serial_lane_.lsp = &lsp_;
    serial_lane_.ref = &ref_streams_;
    if (threads_ > 1) {
      pool_ = std::make_unique<TaskPool>(threads_);
      lanes_.resize(size_t(threads_));
      for (Lane& ln : lanes_) {
        ln.bw = &ln.local_bw;
        ln.local_spill.resize(buckets_.size());
        ln.spill = &ln.local_spill;
        ln.lsp = &ln.local_lsp;
        ln.local_ref.resize(ref_streams_.size());
        ln.ref = &ln.local_ref;
      }
    }

    for (int32_t n = n_max_; n >= 0; --n) {
      // Everything found above the closed-form planes is the deep prefix.
      if (n == kClosedFormPlanes) deep_ = lsp_.size();
      // Closed-form entries found above plane n are refined at n.
      const size_t refined = n < kClosedFormPlanes ? lsp_.size() : deep_;
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
      Bucket& bk = buckets_[d];
      const size_t count = bk.ids.size();
      if (count == 0) continue;
      const size_t nwords = (count + 63) / 64;
      sig_.resize_for_overwrite(count);
      live_.resize_for_overwrite(count);

      if (pool_ && count >= kParallelSortGrain) {
        // Word-aligned contiguous lanes: each lane packs and sweeps its own
        // slice (its run scans never read another lane's words or mark
        // another lane's tombstones), then the outputs merge below in lane
        // order == serial entry order.
        const int L = threads_;
        pool_->run([&](int lane) {
          Lane& ln = lanes_[size_t(lane)];
          const LaneRange wr = lane_range(nwords, L, lane);
          const size_t b = wr.begin * 64;
          const size_t e = std::min(wr.end * 64, count);
          if (b >= e) return;
          Timer lt;
          fill_sig_words(bk, n, b, e);
          ln.significance_s = lt.seconds();
          sweep_range(d, n, b, e, ln);
        });
        for (Lane& ln : lanes_) merge_lane(ln, n, pt);
      } else {
        Timer t;
        fill_sig_words(bk, n, 0, count);
        pt.significance_s += t.seconds();
        sweep_range(d, n, 0, count, serial_lane_);
      }
    }
  }

  /// Append a parallel lane's outputs to the master structures (lanes are
  /// merged in lane order == serial entry order) and clear them.
  void merge_lane(Lane& ln, int32_t n, PassTiming& pt) {
    pt.significance_s += ln.significance_s;  // folded in lane order
    ln.significance_s = 0.0;
    wbw_.append_bits(ln.local_bw.finish().data(), ln.local_bw.bit_count());
    ln.local_bw.clear();
    for (size_t dd = 0; dd < buckets_.size(); ++dd) {
      Bucket& src = ln.local_spill[dd];
      buckets_[dd].ids.insert(buckets_[dd].ids.end(), src.ids.begin(),
                              src.ids.end());
      buckets_[dd].planes.insert(buckets_[dd].planes.end(), src.planes.begin(),
                                 src.planes.end());
      src.ids.clear();
      src.planes.clear();
    }
    lsp_.insert(lsp_.end(), ln.local_lsp.begin(), ln.local_lsp.end());
    ln.local_lsp.clear();
    for (size_t b = 0; b < ln.local_ref.size() && b < size_t(n); ++b) {
      WordBitWriter& src = ln.local_ref[b];
      if (src.bit_count()) {
        ref_streams_[b].append_bits(src.finish().data(), src.bit_count());
        src.clear();
      }
    }
  }

  /// Pack significance (set plane >= n) and liveness (`plane != kConsumed`)
  /// of bucket entries [b, e) into sig_'s / live_'s words — one linear pass
  /// over the cached plane bytes (plus the tree's planes above
  /// kCachedPlaneMax). `b` is a multiple of 64; every covered word is
  /// written in full, so no prior clearing is needed (resize_for_overwrite
  /// above).
  void fill_sig_words(const Bucket& bk, int32_t n, size_t b, size_t e) {
    uint64_t* sw = sig_.word_data();
    uint64_t* lw = live_.word_data();
    const int8_t* p = bk.planes.data();
    const bool deep = n > kCachedPlaneMax;
    size_t i = b;
    for (size_t w = b >> 6; i < e; ++w) {
      uint64_t sig = 0, live = 0;
#if defined(__SSE2__)
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

  /// Sweep entries [b, e) of bucket `d`: runs of live insignificant sets
  /// are counted by popcount and emitted as one batched zero run (the sets
  /// themselves stay listed in place — no copy); significant sets emit
  /// their 1-bit, descend, and are tombstoned. `b` is a multiple of 64.
  void sweep_range(size_t d, int32_t n, size_t b, size_t e, Lane& lane) {
    Bucket& bk = buckets_[d];
    const uint64_t* sigw = sig_.word_data();
    const uint64_t* livew = live_.word_data();
    size_t zeros = 0;
    for (size_t w = b >> 6; w * 64 < e; ++w) {
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
        if (zeros) {
          lane.bw->put_zeros(zeros);
          zeros = 0;
        }
        lane.bw->put_bits(1, 1);
        const size_t idx = base + k;
        sweep_descend(bk.ids[idx], uint32_t(d), n, lane);
        bk.planes[idx] = kConsumed;
      }
      zeros += size_t(std::popcount(live));
    }
    if (zeros) lane.bw->put_zeros(zeros);
  }

  /// One pass over a node's children: their worklist entries (sets by id,
  /// leaves by ordinal), their cached planes packed into byte lanes of a
  /// uint64, and their significance tests at plane n as a mask. Replaces
  /// the per-child lazy plane load + compare with eight predictable
  /// iterations.
  [[nodiscard]] SweepFrame make_frame(uint32_t node, int32_t n) const {
    const SetTree::Node& nd = tree_->node(node);
    SweepFrame f{};
    uint64_t planes = 0;
    uint32_t mask = 0;
    uint32_t set = nd.first;
    for (unsigned j = 0; j < nd.nchild; ++j) {
      const bool leaf = (nd.leaves >> j) & 1u;
      const uint32_t e = leaf ? kLeafTag | SetTree::leaf_ordinal(nd, j) : set++;
      const int16_t p = entry_plane(e);
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

  /// The recursive coder's descent of a significant set, iteratively, in
  /// identical DFS order with the identical deducible-significance rule —
  /// but emitting sibling bits in batches. The child significance mask is
  /// known at frame creation, so a run of insignificant siblings and the
  /// following significant child's 1-bit collapse into one put_bits (or
  /// put_zeros) call, and the per-child branches on the bit value disappear.
  /// Spilled-set order and the emitted bit sequence are unchanged: bits and
  /// bucket arrivals are separate channels, and each stays in child order.
  void sweep_descend(uint32_t id, uint32_t depth, int32_t n, Lane& lane) {
    if (id & kLeafTag) {
      sweep_found_significant(id & ~kLeafTag, n, lane);
      return;
    }
    auto& frames = lane.frames;
    frames.clear();
    frames.push_back(make_frame(id, n));
    while (!frames.empty()) {
      SweepFrame& f = frames.back();
      const uint32_t rem = uint32_t(f.mask) >> f.next;
      if (rem == 0) {
        // Every remaining child is insignificant: one batched zero run,
        // spill them all, pop. (Cannot be reached with any_sig still false:
        // a significant parent has at least one significant child.)
        const uint32_t cnt = uint32_t(f.nc) - f.next;
        if (cnt) {
          lane.bw->put_zeros(cnt);
          // Child depth = entry depth + descent depth (frames holds the
          // child's ancestors up to and including its parent).
          Bucket& dest = (*lane.spill)[depth + frames.size()];
          for (uint32_t i = f.next; i < f.nc; ++i)
            dest.push(f.ids[i], int8_t(f.planes >> (8 * i)));
        }
        frames.pop_back();
        continue;
      }
      const uint32_t j = f.next + uint32_t(std::countr_zero(rem));
      const uint32_t gap = j - f.next;  // insignificant siblings before j
      if (gap) {
        Bucket& dest = (*lane.spill)[depth + frames.size()];
        for (uint32_t i = f.next; i < j; ++i)
          dest.push(f.ids[i], int8_t(f.planes >> (8 * i)));
      }
      if (j == uint32_t(f.nc) - 1 && !f.any_sig) {
        // Last child of a parent with no significant sibling must itself be
        // significant: no bit (encoder and decoder both deduce it).
        if (gap) lane.bw->put_zeros(gap);
      } else {
        lane.bw->put_bits(uint64_t(1) << gap, gap + 1);
      }
      f.any_sig = true;
      f.next = uint8_t(j + 1);
      const uint32_t child = f.ids[j];
      if (child & kLeafTag) {
        sweep_found_significant(child & ~kLeafTag, n, lane);
        continue;
      }
      frames.push_back(make_frame(child, n));
    }
  }

  /// A coefficient turning significant at plane n has magnitude
  /// m in (2^n, 2^(n+1)]; its refinement bits at planes n-1 .. 0 follow
  /// from m alone (refine_walk). Up to plane kClosedFormPlanes they are read
  /// off K = magnitude_of(m), which joins the LSP for the refinement passes
  /// to pull bits from; above it the walk writes its bits into the
  /// per-plane deep-prefix streams at once and the LSP slot is a
  /// placeholder.
  void sweep_found_significant(uint32_t ord, int32_t n, Lane& lane) {
    const double s = leaf_val_[ord];
    lane.bw->put_bits(uint64_t(std::signbit(s)), 1);
    const double m = std::fabs(s);
    if (n > kClosedFormPlanes) {
      auto& refs = *lane.ref;
      refine_walk(m, n, [&](int32_t b, bool bit) {
        refs[size_t(b)].put_bits(uint64_t(bit), 1);
      });
      lane.lsp->push_back(0);
    } else {
      lane.lsp->push_back(Mag(magnitude_of(m)));
    }
    // Budgeted mode is serial, so the lane writes the master stream and its
    // bit count is this sign bit's global position + 1.
    if (budget_ && lane.bw->bit_count() < budget_) kept_ = lsp_.size();
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
      put_plane_bits(lsp_.data() + deep_, refined - deep_, n, wbw_);
  }

  const double* coeffs_;
  Dims dims_;
  double q_;
  size_t budget_;

  int32_t n_max_ = -1;
  std::vector<PassTiming> pass_times_;

  std::shared_ptr<const SetTree> tree_;  ///< shared, read-only
  double build_s_ = 0.0;  ///< seconds this call spent building tree_
  std::unique_ptr<int16_t[]> planes_;   ///< max plane per tree node id
  std::unique_ptr<double[]> leaf_val_;  ///< c / q per leaf ordinal

  int threads_ = 1;
  std::unique_ptr<TaskPool> pool_;  ///< non-null only when threads_ > 1
  Lane serial_lane_;
  std::vector<Lane> lanes_;
  std::vector<Bucket> buckets_;  ///< sweep worklists, bucketed by depth
  PackedBits sig_;   ///< per-bucket packed significance bits (scratch)
  PackedBits live_;  ///< per-bucket packed liveness bits (scratch)

  std::vector<Mag> lsp_;  ///< K per significant coefficient, discovery order
  size_t deep_ = 0;       ///< LSP prefix found above kClosedFormPlanes
  std::vector<WordBitWriter> ref_streams_;  ///< deep-prefix bits per plane

  size_t kept_ = 0;  ///< budgeted: LSP entries whose sign bit precedes the last bit
  WordBitWriter wbw_;  ///< master stream
};

template <class Mag>
std::vector<uint8_t> encode_as(const double* coeffs, Dims dims, double q,
                               size_t budget_bits, int threads, const Scan& scan,
                               const Timer& setup, EncodeStats* stats,
                               std::vector<double>* recon_out) {
  Encoder<Mag> enc(coeffs, dims, q, budget_bits, threads, scan);
  return enc.run(setup.seconds(), stats, recon_out);
}

}  // namespace

std::vector<uint8_t> encode(const double* coeffs,
                            Dims dims,
                            double q,
                            size_t budget_bits,
                            EncodeStats* stats,
                            std::vector<double>* recon_out,
                            int threads) {
  if (dims.total() >= kMaxCoefficients)
    throw std::invalid_argument("speck::encode: " + dims.to_string() +
                                " exceeds the 2^31-coefficient limit");
  const Timer setup;
  const Scan scan = scan_coefficients(coeffs, dims.total(), q);
  return scan.n_max <= 32
             ? encode_as<uint32_t>(coeffs, dims, q, budget_bits, threads, scan,
                                   setup, stats, recon_out)
             : encode_as<uint64_t>(coeffs, dims, q, budget_bits, threads, scan,
                                   setup, stats, recon_out);
}

}  // namespace sperr::speck
