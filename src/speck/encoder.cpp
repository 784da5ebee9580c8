// SPECK encoder: one data-parallel sweep engine for every mode, emitting
// the paper's embedded stream bit for bit (tests/test_speck_fast.cpp holds
// it to the recursive oracle coder in oracle/).
//
//   * The set hierarchy and every set's maximum significance plane are
//     precomputed once into the contiguous SetTree (settree.h) — the
//     per-plane significance test collapses from a lazy strided box scan
//     plus a double compare to one int8 load and compare.
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
//   * Refinement bits are transposed at discovery: when a coefficient
//     turns significant at plane p, its whole future refinement sequence
//     and its final reconstruction are known (see sweep_found_significant),
//     and its bits are appended to per-plane bit buffers right there. A
//     refinement pass is then a single word-batched append of the
//     prebuilt buffer for that plane — it never rescans the LSP.
//   * Deterministic intra-chunk parallelism (threads > 1): each bucket's
//     entries are partitioned into fixed, word-aligned contiguous lanes;
//     every lane sweeps its slice into private bit/arrival/LSP/refinement
//     buffers, and the per-lane outputs merge in lane order. Lane
//     concatenation reproduces the serial entry order exactly, so the
//     stream is byte-identical at every thread count. (Safe because a
//     descent from bucket d only spawns entries for strictly deeper
//     buckets, never for the bucket being swept.)
//   * Size-bounded mode is the same sweep, stopped after the first whole
//     plane that reaches the bit budget; the payload is then cut at the
//     budget bit (the stream is embedded, so the cut is a valid prefix) and
//     the cut-time statistics are derived from each entry's bit positions
//     (apply_cut).
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
/// by fields spanning more than 126 planes — read the tree's int16 planes.
constexpr int32_t kCachedPlaneMax = 126;

/// Deepest discovery plane whose refinement takes the integer closed form:
/// the subtracted total 2^n + v and the final recon stay exact doubles.
/// Coefficients discovered above it walk the residual chain instead.
constexpr int32_t kClosedFormPlanes = 50;

int8_t cached_plane(int16_t p) {
  return int8_t(std::min<int16_t>(p, kCachedPlaneMax));
}

/// The recursive coder's refinement chain for a coefficient of scaled
/// magnitude m found significant at plane n: the residual r = m - 2^n walks
/// planes n-1 .. 0, each emitting `r > 2^b` (subtracting 2^b on a 1) and
/// moving the recon, seeded at the interval center 1.5 * 2^n, by +/- 2^b/2.
/// `visit(b, bit)` sees each bit before it takes effect and returns false to
/// stop the walk there. Returns the recon after the last applied bit.
template <class Visit>
double refine_walk(double m, int32_t n, Visit&& visit) {
  const double top = std::ldexp(1.0, n);
  double r = m - top;
  double recon = 1.5 * top;
  for (int32_t b = n - 1; b >= 0; --b) {
    const double thrd = std::ldexp(1.0, b);
    const bool bit = r > thrd;
    if (!visit(b, bit)) break;
    if (bit) r -= thrd;
    recon += bit ? thrd / 2.0 : -thrd / 2.0;
  }
  return recon;
}

class Encoder {
 public:
  Encoder(const double* coeffs, Dims dims, double q, size_t budget_bits,
          int threads)
      : coeffs_(coeffs), dims_(dims), q_(q), budget_(budget_bits) {
    const size_t n = dims.total();
    // One linear scan: per-coefficient significance planes (consumed by the
    // tree fill below) and the dead-zone squared magnitudes for
    // estimated_rmse(), summed in index order like the oracle's.
    std::vector<int16_t> planes(n);
    int16_t max_plane = kDeadPlane;
    for (size_t i = 0; i < n; ++i) {
      const double m = std::fabs(coeffs[i]) / q;
      const int16_t p = plane_of(m);
      planes[i] = p;
      if (p == kDeadPlane) dead_sq_ += m * m;
      if (p > max_plane) max_plane = p;
    }
    // plane_of(max m) == max plane_of(m): the top plane is the largest n
    // with 2^n < max magnitude.
    n_max_ = max_plane;
    if (n_max_ >= 0) {
      tree_.build(dims);
      tree_.fill_planes(planes.data());
    }
    // Budgeted mode tracks the global bit position of every sign bit
    // (sweep_found_significant), so it sweeps serially.
    threads_ = budget_ ? 1 : resolve_thread_count(threads);
  }

  /// Coefficient-domain RMSE of the quantization: never-coded coefficients
  /// err by their full magnitude, coded ones by |m - recon|. The two sums
  /// stay apart — folding them into one running total of m^2 minus the
  /// coded m^2 cancels catastrophically when nearly everything is coded.
  [[nodiscard]] double estimated_rmse() const {
    double coded_sq = 0.0;
    for (size_t j = 0; j < lsp_idx_.size(); ++j) {
      const double e = mag(lsp_idx_[j]) - lsp_recon_[j];
      coded_sq += e * e;
    }
    const size_t n = dims_.total();
    return n ? q_ * std::sqrt((dead_sq_ + coded_sq) / double(n)) : 0.0;
  }

  void export_recon(std::vector<double>& out) const {
    out.assign(dims_.total(), 0.0);
    for (size_t j = 0; j < lsp_idx_.size(); ++j) {
      const uint32_t idx = lsp_idx_[j];
      const double r = lsp_recon_[j];
      out[idx] = (std::signbit(coeffs_[idx]) ? -r : r) * q_;
    }
  }

  std::vector<uint8_t> run(EncodeStats* stats) {
    if (n_max_ >= 0) run_sweeps();
    size_t nbits = wbw_.bit_count();
    if (budget_ && nbits >= budget_) {
      nbits = budget_;
      apply_cut();
    }

    Header hdr;
    hdr.q = q_;
    hdr.n_max = n_max_;
    hdr.nbits = nbits;
    if (stats) {
      stats->payload_bits = nbits;
      stats->planes_coded = pass_times_.size();
      stats->significant_count = lsp_idx_.size();
      stats->estimated_coeff_rmse = estimated_rmse();
      stats->passes = std::move(pass_times_);
      stats->threads_used = threads_;
    }

    const size_t nbytes = (nbits + 7) / 8;
    std::vector<uint8_t> out;
    out.reserve(Header::kBytes + nbytes);
    hdr.serialize(out);
    const auto& payload = wbw_.finish();
    out.insert(out.end(), payload.begin(), payload.begin() + ptrdiff_t(nbytes));
    if (nbits % 8) out.back() &= uint8_t((1u << (nbits % 8)) - 1u);
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
  /// into a significance mask and packed plane bytes (branchless — see
  /// scan_children), so the walk emits sibling runs in batches instead of
  /// testing one child per iteration.
  struct SweepFrame {
    uint32_t node;
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
    std::vector<uint32_t>* lsp_idx = nullptr;
    std::vector<double>* lsp_recon = nullptr;
    std::vector<WordBitWriter>* ref = nullptr;  ///< per-plane refinement bits
    std::vector<SweepFrame> frames;  ///< descent stack (always private)
    WordBitWriter local_bw;
    std::vector<Bucket> local_spill;
    std::vector<uint32_t> local_lsp_idx;
    std::vector<double> local_lsp_recon;
    std::vector<WordBitWriter> local_ref;
    double significance_s = 0.0;  ///< this bucket's packed-scan time
  };

  [[nodiscard]] double mag(uint64_t idx) const {
    return std::fabs(coeffs_[idx]) / q_;
  }

  void run_sweeps() {
    buckets_.resize(max_depth(dims_) + 1);
    buckets_[0].push(0, cached_plane(tree_.plane(0)));
    // Refinement bits for plane n collect in ref_streams_[n] as coefficients
    // are discovered (planes n_max_-1 .. 0 can receive bits).
    ref_streams_.resize(size_t(n_max_) + 1);
    serial_lane_.bw = &wbw_;
    serial_lane_.spill = &buckets_;
    serial_lane_.lsp_idx = &lsp_idx_;
    serial_lane_.lsp_recon = &lsp_recon_;
    serial_lane_.ref = &ref_streams_;
    if (threads_ > 1) {
      pool_ = std::make_unique<TaskPool>(threads_);
      lanes_.resize(size_t(threads_));
      for (Lane& ln : lanes_) {
        ln.bw = &ln.local_bw;
        ln.local_spill.resize(buckets_.size());
        ln.spill = &ln.local_spill;
        ln.lsp_idx = &ln.local_lsp_idx;
        ln.lsp_recon = &ln.local_lsp_recon;
        ln.local_ref.resize(ref_streams_.size());
        ln.ref = &ln.local_ref;
      }
    }

    for (int32_t n = n_max_; n >= 0; --n) {
      const double thrd = std::ldexp(1.0, n);
      PassTiming pt;
      pt.plane = n;
      Timer t;
      const uint64_t b0 = wbw_.bit_count();
      sweep_sorting_pass(n, thrd, pt);
      pt.sorting_s = t.seconds();
      pt.sorting_bits = wbw_.bit_count() - b0;
      t.reset();
      sweep_refinement_pass(n);
      pt.refinement_s = t.seconds();
      pt.refinement_bits = wbw_.bit_count() - b0 - pt.sorting_bits;
      pass_times_.push_back(pt);
      if (budget_ && wbw_.bit_count() >= budget_) break;
    }
  }

  void sweep_sorting_pass(int32_t n, double thrd, PassTiming& pt) {
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
          sweep_range(d, n, thrd, b, e, ln);
        });
        for (Lane& ln : lanes_) {
          pt.significance_s += ln.significance_s;  // folded in lane order
          ln.significance_s = 0.0;
          const auto& bits = ln.local_bw.finish();
          wbw_.append_bits(bits.data(), ln.local_bw.bit_count());
          ln.local_bw.clear();
          for (size_t dd = 0; dd < buckets_.size(); ++dd) {
            Bucket& src = ln.local_spill[dd];
            buckets_[dd].ids.insert(buckets_[dd].ids.end(), src.ids.begin(),
                                    src.ids.end());
            buckets_[dd].planes.insert(buckets_[dd].planes.end(),
                                       src.planes.begin(), src.planes.end());
            src.ids.clear();
            src.planes.clear();
          }
          lsp_idx_.insert(lsp_idx_.end(), ln.local_lsp_idx.begin(),
                          ln.local_lsp_idx.end());
          lsp_recon_.insert(lsp_recon_.end(), ln.local_lsp_recon.begin(),
                            ln.local_lsp_recon.end());
          ln.local_lsp_idx.clear();
          ln.local_lsp_recon.clear();
          for (int32_t b = 0; b < n; ++b) {
            WordBitWriter& src = ln.local_ref[size_t(b)];
            if (src.bit_count()) {
              ref_streams_[size_t(b)].append_bits(src.finish().data(),
                                                  src.bit_count());
              src.clear();
            }
          }
        }
      } else {
        Timer t;
        fill_sig_words(bk, n, 0, count);
        pt.significance_s += t.seconds();
        sweep_range(d, n, thrd, 0, count, serial_lane_);
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
        const bool s = deep ? alive && tree_.plane(bk.ids[i]) >= n : pl >= n;
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
  void sweep_range(size_t d, int32_t n, double thrd, size_t b, size_t e,
                   Lane& lane) {
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
        sweep_descend(bk.ids[idx], uint32_t(d), n, thrd, lane);
        bk.planes[idx] = kConsumed;
      }
      zeros += size_t(std::popcount(live));
    }
    if (zeros) lane.bw->put_zeros(zeros);
  }

  /// One branchless pass over a node's children: pack their cached planes
  /// into byte lanes of a uint64 and their significance tests at plane n
  /// into a mask. Replaces the per-child lazy plane load + compare with
  /// eight predictable iterations.
  [[nodiscard]] std::pair<uint64_t, uint32_t> scan_children(uint32_t node,
                                                            int32_t n) const {
    const uint32_t first = tree_.first_child(node);
    const uint32_t nc = tree_.child_count(node);
    uint64_t planes = 0;
    uint32_t mask = 0;
    for (uint32_t i = 0; i < nc; ++i) {
      const int16_t p = tree_.plane(first + i);
      planes |= uint64_t(uint8_t(cached_plane(p))) << (8 * i);
      mask |= uint32_t(p >= n) << i;
    }
    return {planes, mask};
  }

  [[nodiscard]] SweepFrame make_frame(uint32_t node, int32_t n) const {
    const auto [planes, mask] = scan_children(node, n);
    return {node, uint8_t(tree_.child_count(node)), 0, uint8_t(mask), false,
            planes};
  }

  /// The recursive coder's descent of a significant set, iteratively, in
  /// identical DFS order with the identical deducible-significance rule —
  /// but emitting sibling bits in batches. The child significance mask is
  /// known at frame creation, so a run of insignificant siblings and the
  /// following significant child's 1-bit collapse into one put_bits (or
  /// put_zeros) call, and the per-child branches on the bit value disappear.
  /// Spilled-set order and the emitted bit sequence are unchanged: bits and
  /// bucket arrivals are separate channels, and each stays in child order.
  void sweep_descend(uint32_t id, uint32_t depth, int32_t n, double thrd,
                     Lane& lane) {
    if (tree_.is_leaf(id)) {
      sweep_found_significant(tree_.coeff_index(id), n, thrd, lane);
      return;
    }
    auto& frames = lane.frames;
    frames.clear();
    frames.push_back(make_frame(id, n));
    while (!frames.empty()) {
      SweepFrame& f = frames.back();
      const uint32_t first = tree_.first_child(f.node);
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
            dest.push(first + i, int8_t(f.planes >> (8 * i)));
        }
        frames.pop_back();
        continue;
      }
      const uint32_t j = f.next + uint32_t(std::countr_zero(rem));
      const uint32_t gap = j - f.next;  // insignificant siblings before j
      if (gap) {
        Bucket& dest = (*lane.spill)[depth + frames.size()];
        for (uint32_t i = f.next; i < j; ++i)
          dest.push(first + i, int8_t(f.planes >> (8 * i)));
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
      const uint32_t child = first + j;
      if (tree_.is_leaf(child)) {
        sweep_found_significant(tree_.coeff_index(child), n, thrd, lane);
        continue;
      }
      frames.push_back(make_frame(child, n));
    }
  }

  /// A coefficient turning significant at plane n has magnitude
  /// m in (2^n, 2^(n+1)]; its refinement bits at planes n-1 .. 0 and its
  /// final recon follow from m alone (refine_walk). Both are settled here:
  /// the bits go straight into the per-plane refinement streams, so
  /// refinement passes never revisit the coefficient, and the LSP keeps
  /// only the index and the final recon.
  ///
  /// Up to plane kClosedFormPlanes the walk has a closed form. Every
  /// subtraction is exact (Sterbenz), so the bits are exactly the binary
  /// digits of v = ceil(r0) - 1 with r0 = m - 2^n: for r0 = I + f (integer
  /// I, fraction f > 0) strict > reads digit b of I; for integral r0 = I the
  /// strict inequality shifts everything to I - 1. The recon accumulation
  /// 1.5 * 2^n + sum(+/- 2^b / 2) then telescopes to 2^n + v + 0.5, exact
  /// while 2^(n+1) fits the 53-bit mantissa with room to spare.
  void sweep_found_significant(uint32_t idx, int32_t n, double thrd,
                               Lane& lane) {
    const double c = coeffs_[idx];
    lane.bw->put_bits(uint64_t(std::signbit(c)), 1);
    auto& refs = *lane.ref;
    double recon = 1.5 * thrd;  // n == 0: m in (1, 2], no refinement bits
    if (n > kClosedFormPlanes) {
      recon = refine_walk(std::fabs(c) / q_, n, [&](int32_t b, bool bit) {
        refs[size_t(b)].put_bits(uint64_t(bit), 1);
        return true;
      });
    } else if (n > 0) {
      const double r0 = std::fabs(c) / q_ - thrd;  // exact: m in (thrd, 2*thrd]
      // ceil(r0) - 1 without libm: r0 > 0, so trunc == floor, and ceil
      // differs from floor + 1 exactly when r0 is integral.
      const uint64_t t = uint64_t(r0);
      const uint64_t v = double(t) == r0 ? t - 1 : t;
      for (int32_t b = n - 1; b >= 0; --b)
        refs[size_t(b)].put_bits((v >> unsigned(b)) & uint64_t(1), 1);
      recon = double((uint64_t(1) << n) + v) + 0.5;
    }
    lane.lsp_idx->push_back(idx);
    lane.lsp_recon->push_back(recon);
    // Budgeted mode is serial, so the lane writes the master stream and its
    // bit count is this sign bit's global position + 1.
    if (budget_ && lane.bw->bit_count() < budget_) kept_ = lane.lsp_idx->size();
  }

  /// Emit plane n's refinement bits: every entry discovered at a plane
  /// above n already deposited its bit for plane n into ref_streams_[n]
  /// (in LSP discovery order — lane merges preserve it), so the pass is one
  /// word-batched append.
  void sweep_refinement_pass(int32_t n) {
    WordBitWriter& rb = ref_streams_[size_t(n)];
    if (rb.bit_count()) {
      wbw_.append_bits(rb.finish().data(), rb.bit_count());
      rb.clear();
    }
  }

  /// Bring the encoder state to what a coder stopping on the budget bit
  /// holds: that last bit's update is skipped, so only bits at positions
  /// below budget_ - 1 take effect. A coefficient whose sign bit falls at or
  /// past that point is dropped (its magnitude joins the dead-zone sum), a
  /// kept one is refined by exactly the bits before it, and the pass
  /// records are clipped to the payload. Plane b's refinement pass lists
  /// the LSP in discovery order, so entry j's bit there sits at that pass's
  /// start + j.
  void apply_cut() {
    const uint64_t limit = budget_ - 1;
    std::vector<uint64_t> ref_start(size_t(n_max_) + 1, UINT64_MAX);
    uint64_t pos = 0;
    size_t passes = 0;
    for (PassTiming& pt : pass_times_) {
      if (pos >= budget_) break;
      ref_start[size_t(pt.plane)] = pos + pt.sorting_bits;
      pt.sorting_bits = std::min<uint64_t>(pt.sorting_bits, budget_ - pos);
      pos += pt.sorting_bits;
      pt.refinement_bits = std::min<uint64_t>(pt.refinement_bits, budget_ - pos);
      pos += pt.refinement_bits;
      ++passes;
    }
    pass_times_.resize(passes);

    lsp_idx_.resize(kept_);
    lsp_recon_.resize(kept_);
    PackedBits coded(dims_.total());
    for (size_t j = 0; j < kept_; ++j) {
      const double m = mag(lsp_idx_[j]);
      // j < limit: every kept entry's sign bit, and j before it, precede it.
      lsp_recon_[j] = refine_walk(m, plane_of(m), [&](int32_t b, bool) {
        return ref_start[size_t(b)] < limit - j;
      });
      coded.set(lsp_idx_[j]);
    }
    for (size_t i = 0; i < dims_.total(); ++i) {
      const double m = mag(i);
      if (m > 1.0 && !coded.get(i)) dead_sq_ += m * m;
    }
  }

  const double* coeffs_;
  Dims dims_;
  double q_;
  size_t budget_;

  double dead_sq_ = 0.0;  ///< sum of m^2 over never-coded coefficients
  int32_t n_max_ = -1;
  std::vector<PassTiming> pass_times_;

  SetTree tree_;

  int threads_ = 1;
  std::unique_ptr<TaskPool> pool_;  ///< non-null only when threads_ > 1
  Lane serial_lane_;
  std::vector<Lane> lanes_;
  std::vector<Bucket> buckets_;  ///< sweep worklists, bucketed by depth
  PackedBits sig_;   ///< per-bucket packed significance bits (scratch)
  PackedBits live_;  ///< per-bucket packed liveness bits (scratch)
  std::vector<WordBitWriter> ref_streams_;  ///< per-plane refinement bits

  std::vector<uint32_t> lsp_idx_;  ///< coefficient indices, LSP order
  std::vector<double> lsp_recon_;  ///< final recon magnitudes (scaled units)
  size_t kept_ = 0;  ///< budgeted: entries whose sign bit precedes the last bit
  WordBitWriter wbw_;  ///< master stream
};

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
  Encoder enc(coeffs, dims, q, budget_bits, threads);
  auto stream = enc.run(stats);
  if (recon_out) enc.export_recon(*recon_out);
  return stream;
}

}  // namespace sperr::speck
