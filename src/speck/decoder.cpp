// SPECK decoder: flattened counterpart of encoder.cpp. The set hierarchy is
// precomputed once into the SetTree (identical to the encoder's, since it
// depends only on the extents), so the per-plane traversal walks packed
// node ids instead of re-deriving box splits. Mirrors the traversal of the
// recursive oracle decoder in oracle/ (including the deducible-significance
// rule and truncated-stream semantics) bit for bit.
//
// The batch structure matches the encoder's sweeps:
//   * sorting passes skip runs of 0-bits (still-insignificant sets) with a
//     single peek_zero_run + bulk re-list instead of a get() per set;
//   * refinement passes gather the pass's bits into 64-wide words first,
//     then apply the +/- thrd/2 updates over the contiguous value array —
//     element-independent work that the intra-chunk parallel mode (threads
//     > 1) partitions into fixed contiguous lanes, as it does the final
//     coefficient scatter. The sorting pass itself is bit-serial by nature
//     (each bit's meaning depends on every bit before it), so parallelism
//     never touches it and the output is identical at every thread count.
//
// Significant-coefficient state lives in LSP order, not coefficient order:
// parallel arrays of sign-tagged indices and reconstruction values appended
// at discovery. The refinement pass — the dominant cost at deep bitplanes —
// then updates a contiguous value array instead of scattering into a
// dims.total()-sized buffer, and the final coefficient write-out is a single
// scatter. The per-entry arithmetic (1.5*thrd seed, +/- thrd/2 refinements)
// is unchanged, so reconstructions stay bit-identical to the reference.

#include "speck/decoder.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/bitstream.h"
#include "common/threadpool.h"
#include "speck/settree.h"

namespace sperr::speck {

namespace {

/// Parallel-lane grain for the refinement apply and the final scatter;
/// below it the dispatch costs more than the loop. Output-invariant.
constexpr size_t kParallelGrain = size_t(1) << 14;

class FastDecoder {
 public:
  FastDecoder(BitReader br, Dims dims, const Header& hdr, int threads)
      : br_(br), dims_(dims), hdr_(hdr), threads_(resolve_thread_count(threads)) {}

  Status run(double* coeffs, DecodeStats* stats) {
    const size_t n = dims_.total();

    if (hdr_.n_max >= 0) {
      tree_.build(dims_);
      lis_.resize(max_depth(dims_) + 1);
      lis_[0].push_back(0);  // root node id

      for (int32_t p = hdr_.n_max; p >= 0 && !done_; --p) {
        const double thrd = std::ldexp(1.0, p);
        sorting_pass(thrd);
        if (done_) break;
        refinement_pass(thrd);
      }
    }

    // Dead-zone coefficients are exact zeros; scatter the refined values
    // over them. Same per-element expression as the reference's write-out;
    // every coefficient turns significant at most once, so the indices are
    // unique and lanes never collide.
    std::fill(coeffs, coeffs + n, 0.0);
    scatter(lsp_sidx_, lsp_val_, coeffs);
    scatter(lnsp_sidx_, lnsp_val_, coeffs);

    if (stats) {
      stats->bits_consumed = br_.bits_read();
      stats->significant_count = lsp_sidx_.size() + lnsp_sidx_.size();
      stats->truncated = done_;
    }
    return Status::ok;
  }

 private:
  static constexpr uint32_t kIdxMask = 0x7fffffffu;  ///< sign rides in bit 31

  struct Frame {
    uint32_t node;
    uint8_t next;
    bool any_sig;
  };

  /// Lazily spawned worker pool: most streams never reach the parallel
  /// grain, and a pool they would not use should cost nothing.
  [[nodiscard]] TaskPool* pool() {
    if (!pool_ && threads_ > 1) pool_ = std::make_unique<TaskPool>(threads_);
    return pool_.get();
  }

  [[nodiscard]] bool get(bool& bit) {
    bit = br_.get();
    if (br_.exhausted()) {
      done_ = true;
      return false;
    }
    return true;
  }

  void sorting_pass(double thrd) {
    for (size_t d = lis_.size(); d-- > 0;) {
      pending_.clear();
      pending_.swap(lis_[d]);
      const size_t count = pending_.size();
      size_t i = 0;
      while (i < count) {
        // A run of 0-bits is a run of still-insignificant sets: skip it and
        // re-list the ids in bulk instead of a get() + push_back per set.
        const size_t run = br_.peek_zero_run(count - i);
        if (run != 0) {
          br_.skip(run);
          lis_[d].insert(lis_[d].end(), pending_.begin() + ptrdiff_t(i),
                         pending_.begin() + ptrdiff_t(i + run));
          i += run;
          if (i == count) break;
        }
        // The next bit is a 1 (significant set) or missing (stream end);
        // process_entry's first get() handles both exactly as the reference.
        process_entry(pending_[i], uint32_t(d), thrd);
        ++i;
        if (done_) return;
      }
    }
  }

  /// Mirror of the encoder's descent: significance bits come from the
  /// stream instead of the max tree; everything else — DFS order, LIS
  /// bucketing, the deducible-last-child rule, stop-on-exhaustion — is the
  /// same state machine.
  void process_entry(uint32_t id, uint32_t depth, double thrd) {
    bool sig;
    if (!get(sig)) return;
    if (!sig) {
      lis_[depth].push_back(id);
      return;
    }
    if (tree_.is_leaf(id)) {
      found_significant(tree_.coeff_index(id), thrd);
      return;
    }
    frames_.clear();
    frames_.push_back({id, 0, false});
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const uint32_t nc = tree_.child_count(f.node);
      if (f.next == nc) {
        frames_.pop_back();
        continue;
      }
      const uint32_t child = tree_.first_child(f.node) + f.next;
      const bool last = ++f.next == nc;
      const bool deducible = last && !f.any_sig;
      bool csig = true;
      if (!deducible && !get(csig)) return;
      f.any_sig |= csig;
      if (!csig) {
        lis_[depth + frames_.size()].push_back(child);
        continue;
      }
      if (tree_.is_leaf(child)) {
        found_significant(tree_.coeff_index(child), thrd);
        if (done_) return;
        continue;
      }
      frames_.push_back({child, 0, false});
    }
  }

  void found_significant(uint32_t idx, double thrd) {
    bool negative;
    if (!get(negative)) return;  // sign bit missing: entry dropped, as reference
    lnsp_sidx_.push_back(idx | (uint32_t(negative) << 31));
    lnsp_val_.push_back(1.5 * thrd);  // center of (thrd, 2*thrd]
  }

  void refinement_pass(double thrd) {
    // Gather this pass's bits into 64-wide words (the serial, bit-consuming
    // part), then apply the updates over the contiguous value array — a
    // branch-free, element-independent loop that parallel lanes partition.
    // Stops exactly where the per-bit reference does: the first entry whose
    // bit is missing gets no update and latches `done_`.
    const size_t count = lsp_val_.size();
    const size_t take = std::min(count, br_.bits_left());
    if (take != 0) {
      const size_t nwords = (take + 63) / 64;
      ref_words_.resize(nwords);
      for (size_t w = 0; w < nwords; ++w) {
        const unsigned m = unsigned(std::min<size_t>(64, take - w * 64));
        ref_words_[w] = br_.get_bits(m);
      }
      const double half = thrd / 2.0;
      double* vals = lsp_val_.data();
      const uint64_t* words = ref_words_.data();
      auto apply = [=](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
          vals[i] += ((words[i >> 6] >> (i & 63)) & 1u) ? half : -half;
      };
      if (threads_ > 1 && take >= kParallelGrain) {
        const int L = threads_;
        pool()->run([&](int lane) {
          const LaneRange r = lane_range(take, L, lane);
          apply(r.begin, r.end);
        });
      } else {
        apply(0, take);
      }
    }
    if (take < count) {
      done_ = true;
      return;  // pass unfinished: the LNSP stays unmerged, as the reference
    }
    lsp_sidx_.insert(lsp_sidx_.end(), lnsp_sidx_.begin(), lnsp_sidx_.end());
    lsp_val_.insert(lsp_val_.end(), lnsp_val_.begin(), lnsp_val_.end());
    lnsp_sidx_.clear();
    lnsp_val_.clear();
  }

  void scatter(const std::vector<uint32_t>& sidx, const std::vector<double>& val,
               double* coeffs) {
    const double q = hdr_.q;
    auto emit = [&](size_t b, size_t e) {
      for (size_t j = b; j < e; ++j) {
        const uint32_t idx = sidx[j] & kIdxMask;
        coeffs[idx] = (sidx[j] >> 31 ? -val[j] : val[j]) * q;
      }
    };
    if (threads_ > 1 && sidx.size() >= kParallelGrain) {
      const int L = threads_;
      pool()->run([&](int lane) {
        const LaneRange r = lane_range(sidx.size(), L, lane);
        emit(r.begin, r.end);
      });
    } else {
      emit(0, sidx.size());
    }
  }

  BitReader br_;
  Dims dims_;
  Header hdr_;
  int threads_;
  std::unique_ptr<TaskPool> pool_;
  bool done_ = false;

  SetTree tree_;  ///< structure only (planes are the encoder's side)
  std::vector<std::vector<uint32_t>> lis_;  ///< packed node ids, by depth
  std::vector<uint32_t> pending_;
  std::vector<Frame> frames_;
  std::vector<uint64_t> ref_words_;  ///< per-pass gathered refinement bits
  std::vector<uint32_t> lsp_sidx_;  ///< sign<<31 | coefficient index
  std::vector<double> lsp_val_;     ///< reconstruction magnitude, scaled units
  std::vector<uint32_t> lnsp_sidx_;
  std::vector<double> lnsp_val_;
};

}  // namespace

Status decode(const uint8_t* stream,
              size_t nbytes,
              Dims dims,
              double* coeffs,
              DecodeStats* stats,
              int threads) {
  if (dims.total() >= kMaxCoefficients) return Status::corrupt_stream;

  ByteReader hr(stream, nbytes);
  Header hdr;
  if (const Status s = hdr.deserialize(hr); s != Status::ok) return s;

  // A payload shorter than the header promises is still decodable: the
  // stream is embedded, so we clamp to the bits present (prefix decode).
  const size_t payload_bytes = nbytes - hr.pos();
  const uint64_t nbits = std::min<uint64_t>(hdr.nbits, payload_bytes * 8);

  BitReader br(stream + hr.pos(), payload_bytes, nbits);
  FastDecoder dec(br, dims, hdr, threads);
  return dec.run(coeffs, stats);
}

}  // namespace sperr::speck
