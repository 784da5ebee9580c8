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
//     four (or two) K per SSE2 step; with threads > 1 a long pass is cut
//     into fixed contiguous lanes of element-independent updates
//     (run_lanes, which the encoder's recon export also calls);
//   * the reconstruction is exported once, at the end: an entry whose last
//     applied plane is p decodes to (K + 0.5) * 2^p * q. The reference's
//     per-pass sum 1.5 * 2^n +/- 2^b / 2 ... telescopes to exactly that,
//     and every partial sum is exact while K < 2^52, so the two agree bit
//     for bit.
// Coefficients found above plane kIntegerPlanes would overflow that
// exactness; they are found first, so they form an LSP prefix that keeps
// the reference's per-pass double update.
//
// The sorting pass reads the stream a 64-bit word at a time. Each bit's
// meaning depends on every bit before it, so the words are taken in order,
// but one word decodes many bucket entries: runs of 0-bits
// (still-insignificant sets) are counted with countr_zero and stay listed,
// compacted in place; a leaf entry decodes without a branch on its bit (its
// id kept and an LSP slot written either way, the bit choosing which one
// counts); a significant set whose children are all leaves decodes from one
// peeked word, and any other descent reads each frame's children from one.
// The bucket sweep's last 63 bits take the bit-serial path (peek_zero_run,
// then get()), and a descent checks each bit against the bits left, so a
// cut stream stops exactly where the reference stops. The LSP and the
// buckets are sized once to their bounds and written by index, in one
// Arena::Scope of the calling worker's arena, so a warm arena serves a
// steady-state decode without fresh pages.
// Parallelism never touches the sorting pass, so the output is identical at
// every thread count.

#include "speck/decoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

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
  /// Takes every array from `arena`; the caller's Arena::Scope releases them.
  Decoder(BitReader br, Dims dims, const Header& hdr, int threads, Arena& arena)
      : br_(br),
        dims_(dims),
        hdr_(hdr),
        threads_(resolve_thread_count(threads)),
        arena_(arena) {}

  Status run(double* coeffs, DecodeStats* stats, const Timer& setup) {
    double build_s = 0.0;
    if (hdr_.n_max >= 0) {
      SetTreeCache::Lease lease = SetTreeCache::shared().get(dims_);
      tree_ = std::move(lease.tree);
      build_s = lease.build_s;
      // A significant coefficient costs at least its sign bit, so this
      // bounds the LSP without ever growing (and copying) it; the extra
      // slot takes the sweep's unconditional write past the last entry.
      const size_t bits = br_.bits_left();
      const size_t cap = std::min<size_t>(dims_.total(), bits) + 1;
      sidx_ = arena_.alloc<uint32_t>(cap);
      mag_ = arena_.alloc<Mag>(cap);
      // A bucket lists each entry of its depth at most once, and every
      // listed entry but the root cost a 0-bit.
      const std::vector<uint32_t>& entries = tree_->entries_by_depth();
      lis_.resize(entries.size());
      for (size_t d = 0; d < entries.size(); ++d)
        lis_[d].ids = arena_.alloc<uint32_t>(std::min<size_t>(entries[d], bits + 1));
      lis_[0].push(tree_->root());
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
      listed = nsig_;
      refined = 0;
      last = p;
      t.reset();
      sorting_pass();
      // The pass's discoveries lie in (2^p, 2^(p+1)]: K = 1, recon
      // 1.5 * 2^p. Above kIntegerPlanes the recon itself is kept, as a
      // double.
      std::fill(mag_ + listed, mag_ + nsig_, Mag(1));
      if (p > kIntegerPlanes) deep_.resize(nsig_, 1.5 * thrd_);
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
      stats->significant_count = nsig_;
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

  /// A LIS bucket: `size` entries of an array sized once to its bound.
  struct Bucket {
    uint32_t* ids;
    size_t size = 0;

    void push(uint32_t id) { ids[size++] = id; }
  };

  /// One bucket's sweep state: entries [i, count) are still to decode, and
  /// the `kept` entries before them stay listed.
  struct Sweep {
    uint32_t* ids;
    size_t count;
    size_t i = 0;
    size_t kept = 0;
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
  /// lists sets in deeper buckets, never in the one being swept. Entries
  /// decode from whole words while 64 payload bits remain (sweep_words),
  /// then bit by bit (sweep_bits), so a cut stream stops exactly where the
  /// reference stops.
  void sorting_pass() {
    for (size_t d = lis_.size(); d-- > 0;) {
      Sweep s{lis_[d].ids, lis_[d].size};
      sweep_words(s, uint32_t(d));
      if (!done_) sweep_bits(s, uint32_t(d));
      if (done_) return;
      lis_[d].size = s.kept;
    }
  }

  /// The word path of a bucket sweep: each 64-bit word decodes entries
  /// until fewer than two of its bits are left (a found leaf takes its
  /// 1-bit and its sign). A run of 8 or more 0-bits (still-insignificant
  /// sets) moves with one copy. Any other entry but a significant set
  /// decodes without a branch on its bit b: its id is kept and its LSP slot
  /// written either way, and b picks which of the two counts and whether
  /// the sign bit is consumed. A significant set takes its 1-bit and
  /// descends. Stops with fewer than 64 payload bits left.
  void sweep_words(Sweep& s, uint32_t depth) {
    uint32_t* const ids = s.ids;
    uint32_t* const sidx = sidx_;
    const size_t count = s.count;
    size_t i = s.i, kept = s.kept, n = nsig_;
    while (i < count && br_.bits_left() >= 64) {
      const uint64_t w = br_.word_at(br_.bits_read());
      unsigned used = 0;
      uint32_t set = kLeafTag;  // no set to descend
      while (used < 63 && i < count) {
        const uint64_t rest = w >> used;
        if ((rest & 0xffu) == 0) {
          const size_t run = std::min<size_t>(
              std::min(unsigned(std::countr_zero(rest)), 64 - used), count - i);
          if (kept != i) std::copy(ids + i, ids + i + run, ids + kept);
          kept += run;
          i += run;
          used += unsigned(run);
          continue;
        }
        // A significant set's descent starts with a load of its node at a
        // random place in the tree: fetch the one 16 entries on early.
        if (i + 16 < count && !(ids[i + 16] & kLeafTag))
          __builtin_prefetch(&tree_->node(ids[i + 16]));
        const uint32_t id = ids[i++];
        const uint32_t b = uint32_t(rest) & 1u;
        if (b & ~(id >> 31)) {  // a significant set: its 1-bit, then descend
          set = id;
          ++used;
          break;
        }
        ids[kept] = id;
        sidx[n] = (id & kIdxMask) | (uint32_t(rest >> 1) & 1u) << 31;
        kept += 1 - b;
        n += b;
        used += 1 + b;
      }
      br_.skip(used);
      if (set != kLeafTag) {
        nsig_ = n;
        descend(set, depth);
        if (done_) return;
        n = nsig_;
      }
    }
    s.i = i;
    s.kept = kept;
    nsig_ = n;
  }

  /// The bit-serial rest of a bucket sweep, the stream's last bits: a run
  /// of 0-bits is skipped with one peek_zero_run and the sets keep their
  /// ids with one move; the entry at the 1-bit (or the stream end) is read
  /// with get(), which latches done_ where a bit is missing.
  void sweep_bits(Sweep& s, uint32_t depth) {
    while (s.i < s.count) {
      const size_t run = br_.peek_zero_run(s.count - s.i);
      if (run != 0) {
        br_.skip(run);
        if (s.kept != s.i) std::copy(s.ids + s.i, s.ids + s.i + run, s.ids + s.kept);
        s.kept += run;
        s.i += run;
        if (s.i == s.count) return;
      }
      const uint32_t id = s.ids[s.i++];
      bool sig;
      if (!get(sig)) return;
      if (id & kLeafTag)
        found_significant(id & kIdxMask);
      else
        descend(id, depth);
      if (done_) return;
    }
  }

  /// Mirror of the encoder's descent of a significant set (its 1-bit
  /// already read): significance bits come from the stream instead of the
  /// max tree; everything else — DFS order, LIS bucketing, the
  /// deducible-last-child rule, stop-on-exhaustion — is the same state
  /// machine. A set of only leaves decodes whole (decode_leaf_set). Any
  /// other set gets a frame, and each visit of a frame decodes its children
  /// from one peeked word up to the first significant child set: at most
  /// 16 bits, a significance bit and a sign per child. A bit at or past the
  /// stream end stops the decode there, as in the reference.
  void descend(uint32_t id, uint32_t depth) {
    const SetTree::Node& top = tree_->node(id);
    if (leaf_only(top) && br_.bits_left() >= 16) {
      decode_leaf_set(top, lis_[depth + 1]);
      return;
    }
    frames_.clear();
    frames_.push_back({&top, 0, 0, false});
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const SetTree::Node& nd = *f.node;
      Bucket& dest = lis_[depth + frames_.size()];
      const size_t avail = std::min<size_t>(64, br_.bits_left());
      const uint64_t w = br_.word_at(br_.bits_read());
      unsigned used = 0;
      const SetTree::Node* child_set = nullptr;
      while (f.next < nd.nchild) {
        const unsigned j = f.next++;
        const bool leaf = (nd.leaves >> j) & 1u;
        // The last child of a set with no significant sibling must itself
        // be significant: it has no bit.
        if (f.next != nd.nchild || f.any_sig) {
          if (used == avail) return stop(used);
          if (((w >> used++) & 1u) == 0) {
            dest.push(leaf ? kLeafTag | tree_->leaf_index(nd, j) : nd.first + f.sets++);
            continue;
          }
        }
        f.any_sig = true;
        if (!leaf) {
          child_set = &tree_->node(nd.first + f.sets++);
          break;
        }
        if (used == avail) return stop(used);  // sign bit missing: dropped
        sidx_[nsig_++] = tree_->leaf_index(nd, j) | uint32_t((w >> used++) & 1u) << 31;
      }
      br_.skip(used);
      if (!child_set) {
        frames_.pop_back();
      } else if (leaf_only(*child_set) && br_.bits_left() >= 16) {
        decode_leaf_set(*child_set, lis_[depth + frames_.size() + 1]);
      } else {
        frames_.push_back({child_set, 0, 0, false});
      }
    }
  }

  static bool leaf_only(const SetTree::Node& nd) {
    return nd.leaves == (1u << nd.nchild) - 1u;
  }

  /// A significant set whose children are all single coefficients, decoded
  /// from one peeked word (at least 16 bits must remain): the mirror of the
  /// encoder's code_leaf_set. Each child's bit b (1 without a bit for a
  /// deduced last child) picks, without a branch, whether the child spills
  /// to `dest` or takes an LSP slot and its sign bit.
  void decode_leaf_set(const SetTree::Node& nd, Bucket& dest) {
    const uint64_t w = br_.word_at(br_.bits_read());
    uint32_t* const sidx = sidx_;
    size_t n = nsig_;
    uint32_t spill[8];
    unsigned kept = 0, used = 0;
    uint32_t any_sig = 0;
    const unsigned last = nd.nchild - 1u;
    for (unsigned j = 0; j < nd.nchild; ++j) {
      const uint32_t idx = tree_->leaf_index(nd, j);
      const uint32_t deduced = uint32_t(j == last) & ~any_sig & 1u;
      const uint32_t b = deduced | (uint32_t(w >> used) & 1u);
      used += 1 - deduced;
      spill[kept] = kLeafTag | idx;
      sidx[n] = idx | (uint32_t(w >> used) & 1u) << 31;
      kept += 1 - b;
      n += b;
      used += b;
      any_sig |= b;
    }
    std::copy(spill, spill + kept, dest.ids + dest.size);
    dest.size += kept;
    nsig_ = n;
    br_.skip(used);
  }

  /// The stream ended inside a descent: consume the `used` bits read so far
  /// (the rest of the stream) and end the decode.
  void stop(unsigned used) {
    br_.skip(used);
    done_ = true;
  }

  /// Sign of a bucket leaf found significant on the bit-serial path; a
  /// missing sign bit drops the entry, as in the reference.
  void found_significant(uint32_t idx) {
    bool negative;
    if (!get(negative)) return;
    sidx_[nsig_++] = idx | (uint32_t(negative) << 31);
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
    Mag* k = mag_;
    const BitReader& br = br_;
    run_lanes(threads_, nd, take, [k, start, &br](size_t b, size_t e) {
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
    const uint32_t* sidx = sidx_;
    const size_t nd = deep_.size();
    for (size_t j = 0; j < nd; ++j)
      coeffs[sidx[j] & kIdxMask] = (sidx[j] >> 31 ? -deep_[j] : deep_[j]) * q;

    // With any integer entry listed, last <= kIntegerPlanes; the clamp only
    // keeps the unused scales of an all-deep LSP well defined.
    const int32_t p = std::min(last, kIntegerPlanes);
    const double at = std::ldexp(q, p), above = std::ldexp(q, p + 1);
    const Mag* k = mag_;
    auto emit = [sidx, k, coeffs](size_t b, size_t e, double scale) {
      for (size_t j = b; j < e; ++j) {
        const double v = (double(k[j]) + 0.5) * scale;
        coeffs[sidx[j] & kIdxMask] = sidx[j] >> 31 ? -v : v;
      }
    };
    run_lanes(threads_, nd, nsig_, [&](size_t b, size_t e) {
      emit(b, std::min(e, refined), at);
      emit(std::max(b, refined), std::min(e, listed), above);
      emit(std::max(b, listed), e, at);
    });
  }

  BitReader br_;
  Dims dims_;
  Header hdr_;
  int threads_;  ///< lanes of the refinement passes and the export
  bool done_ = false;
  double thrd_ = 0.0;  ///< 2^p of the plane being decoded

  Arena& arena_;  ///< holds the LSP and the buckets
  std::shared_ptr<const SetTree> tree_;  ///< shared, read-only
  /// Node ids and kLeafTag | linear index, by depth.
  std::vector<Bucket> lis_;
  std::vector<Frame> frames_;
  /// The LSP, nsig_ entries, sized once to its bound (see run()).
  uint32_t* sidx_ = nullptr;  ///< sign<<31 | coefficient index
  Mag* mag_ = nullptr;        ///< K per entry (deep prefix: unused)
  size_t nsig_ = 0;
  std::vector<double> deep_;    ///< recon of the LSP prefix found above
                                ///< kIntegerPlanes, scaled units
};

template <class Mag>
Status decode_as(const BitReader& br, Dims dims, const Header& hdr, int threads,
                 double* coeffs, DecodeStats* stats, const Timer& setup,
                 Arena& arena) {
  const Arena::Scope scope(arena);
  Decoder<Mag> dec(br, dims, hdr, threads, arena);
  return dec.run(coeffs, stats, setup);
}

}  // namespace

Status decode(const uint8_t* stream,
              size_t nbytes,
              Dims dims,
              double* coeffs,
              DecodeStats* stats,
              int threads,
              Arena* arena) {
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
  Arena& a = arena ? *arena : tls_arena();
  return hdr.n_max <= 31
             ? decode_as<uint32_t>(br, dims, hdr, threads, coeffs, stats, setup, a)
             : decode_as<uint64_t>(br, dims, hdr, threads, coeffs, stats, setup, a);
}

}  // namespace sperr::speck
