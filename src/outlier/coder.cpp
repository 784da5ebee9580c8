#include "outlier/coder.h"

#include <algorithm>
#include <cmath>

#include "common/bitstream.h"
#include "common/byteio.h"

namespace sperr::outlier {

namespace {

constexpr uint16_t kMagic = 0x4f43;  // "OC"

struct StreamHeader {
  static constexpr size_t kBytes = 2 + 8 + 4 + 8;
  double t = 0.0;
  int32_t n_max = -1;  ///< -1 => no outliers, empty payload
  uint64_t nbits = 0;
};

/// Split a range in half: first child gets ceil(len/2). Mirrors the SPECK
/// box split so both coders share the same deterministic zoom-in shape.
struct Range {
  uint64_t start = 0;
  uint64_t len = 0;
};

inline void split_range(const Range& r, Range& a, Range& b) {
  const uint64_t half = (r.len + 1) / 2;
  a = {r.start, half};
  b = {r.start + half, r.len - half};
}

inline uint32_t range_max_depth(uint64_t n) {
  uint32_t d = 1;
  while ((uint64_t(1) << d) < n) ++d;
  return d + 2;
}

/// One direction's working lists, kept per thread across calls: the LIS
/// buckets by depth, the significant points (LSP) and the ones found this
/// pass (LNSP). A sorting pass compacts each bucket in place and no list is
/// ever freed or moved, so each grows to its high-water mark once and a
/// steady-state call reuses that capacity.
template <class Set, class Sig>
struct Lists {
  std::vector<std::vector<Set>> lis;
  std::vector<Sig> lsp;
  std::vector<Sig> lnsp;

  /// Empty lists for an array of `array_len`; returns the bucket count.
  size_t prepare(uint64_t array_len) {
    const size_t depths = range_max_depth(array_len) + 1;
    if (lis.size() < depths) lis.resize(depths);
    for (auto& l : lis) l.clear();
    lsp.clear();
    lnsp.clear();
    return depths;
  }

  /// The calling thread's lists (no call on a thread runs inside another).
  static Lists& local() {
    thread_local Lists lists;
    return lists;
  }
};

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

class Encoder {
 public:
  Encoder(std::vector<Outlier> outliers, uint64_t array_len, double t)
      : outliers_(std::move(outliers)), array_len_(array_len), t_(t) {
    // The pipeline locates outliers in index order: sort only if needed.
    const auto by_pos = [](const Outlier& a, const Outlier& b) { return a.pos < b.pos; };
    if (!std::is_sorted(outliers_.begin(), outliers_.end(), by_pos))
      std::sort(outliers_.begin(), outliers_.end(), by_pos);
    max_mag_ = 0.0;
    for (const auto& o : outliers_) max_mag_ = std::max(max_mag_, std::fabs(o.corr));
    // Listing 1 line 4: the largest n >= 0 with 2^n * t < max |corr|.
    n_max_ = -1;
    if (!outliers_.empty()) {
      n_max_ = 0;
      while (std::ldexp(t_, n_max_ + 1) < max_mag_) ++n_max_;
    }
  }

  std::vector<uint8_t> run(EncodeStats* stats) {
    depths_ = lists_.prepare(array_len_);
    if (n_max_ >= 0) {
      lists_.lis[0].push_back({Range{0, array_len_}, 0, 0, uint32_t(outliers_.size()), max_mag_});
      for (int32_t n = n_max_; n >= 0; --n) {
        const double thrd = std::ldexp(t_, n);
        relist_ = n > 0;
        sorting_pass(thrd);
        refinement_pass(thrd);
      }
    }

    std::vector<uint8_t> out;
    put_u16(out, kMagic);
    put_f64(out, t_);
    put_u32(out, uint32_t(n_max_));
    const size_t nbits = bw_.bit_count();
    put_u64(out, nbits);
    const auto payload = bw_.take();
    out.insert(out.end(), payload.begin(), payload.end());

    if (stats) {
      stats->payload_bits = nbits;
      stats->num_outliers = outliers_.size();
    }
    return out;
  }

 private:
  /// A set in the LIS: an index range plus the slice [lo, hi) of the sorted
  /// outlier array that falls inside it, and its max |corr|.
  struct SetEntry {
    Range range;
    uint32_t depth;
    uint32_t lo, hi;
    double max_mag;
  };

  struct SigEntry {
    uint32_t outlier_idx;
    double residual;
  };

  void put(bool bit) { bw_.put_bits(bit, 1); }

  [[nodiscard]] double mag(uint32_t i) const { return std::fabs(outliers_[i].corr); }

  void sorting_pass(double thrd) {
    // Listing 2 line 1: sets in increasing order of size (deepest bucket
    // first); children spawned by Code() land in deeper, already-finished
    // buckets, so each LIS set is processed exactly once per pass. A bucket
    // is compacted in place: the sets that stay insignificant keep their
    // order, and nothing is appended to the bucket being swept.
    for (size_t d = depths_; d-- > 0;) {
      std::vector<SetEntry>& list = lists_.lis[d];
      size_t kept = 0;
      for (size_t i = 0; i < list.size(); ++i)
        if (!process(list[i], thrd) && relist_) list[kept++] = list[i];
      list.resize(kept);
    }
  }

  /// List an insignificant child set. The last plane lists nothing: no
  /// later pass reads the LIS.
  void relist(const SetEntry& e) {
    if (relist_) lists_.lis[e.depth].push_back(e);
  }

  /// Examine one set (Listing 2's Process). `known_sig` marks the deducible
  /// case — a second child whose sibling tested insignificant under a
  /// significant parent — for which no bit is emitted. Returns significance;
  /// an insignificant set is its caller's to list.
  bool process(const SetEntry& e, double thrd, bool known_sig = false) {
    const bool sig = known_sig || e.max_mag > thrd;
    if (!known_sig) put(sig);  // Listing 2 line 3
    if (!sig) return false;
    if (e.range.len == 1) {
      // A single significant point: emit its sign and move it to LNSP.
      // (e.lo indexes the unique outlier at this position.)
      put(outliers_[e.lo].corr < 0.0);  // Listing 2 line 6
      lists_.lnsp.push_back({e.lo, mag(e.lo)});
      return true;
    }
    // Listing 2, Code(S): split and process both halves immediately.
    Range a, b;
    split_range(e.range, a, b);
    SetEntry ca{a, e.depth + 1, e.lo, e.lo, 0.0};
    SetEntry cb{b, e.depth + 1, 0, e.hi, 0.0};
    split_slice(e, b.start, ca, cb);
    const bool first_sig = process(ca, thrd);
    if (!first_sig) relist(ca);
    if (!process(cb, thrd, !first_sig)) relist(cb);
    return true;
  }

  /// Split e's slice between its halves at position `at` (the first
  /// position of the second half) and find each half's max |corr|: one pass
  /// over the slice, which Code(S) needs whole anyway, since it tests both
  /// halves at once.
  void split_slice(const SetEntry& e, uint64_t at, SetEntry& first, SetEntry& second) const {
    uint32_t i = e.lo;
    for (; i < e.hi && outliers_[i].pos < at; ++i) first.max_mag = std::max(first.max_mag, mag(i));
    first.hi = second.lo = i;
    for (; i < e.hi; ++i) second.max_mag = std::max(second.max_mag, mag(i));
  }

  void refinement_pass(double thrd) {
    // Listing 3: refine previously significant points, then quantize the
    // newly found ones by subtracting the current threshold.
    for (auto& p : lists_.lsp) {
      const bool bit = p.residual > thrd;
      put(bit);
      if (bit) p.residual -= thrd;
    }
    for (auto& p : lists_.lnsp) p.residual -= thrd;
    lists_.lsp.insert(lists_.lsp.end(), lists_.lnsp.begin(), lists_.lnsp.end());
    lists_.lnsp.clear();
  }

  std::vector<Outlier> outliers_;  // sorted by position
  uint64_t array_len_;
  double t_;
  double max_mag_ = 0.0;
  int32_t n_max_ = -1;

  Lists<SetEntry, SigEntry>& lists_ = Lists<SetEntry, SigEntry>::local();
  size_t depths_ = 0;    ///< LIS buckets in use
  bool relist_ = true;   ///< insignificant sets stay listed (not the last plane)
  WordBitWriter bw_;
};

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

class Decoder {
 public:
  Decoder(BitReader br, uint64_t array_len, double t, int32_t n_max)
      : br_(br), array_len_(array_len), t_(t), n_max_(n_max) {}

  void run(std::vector<Outlier>& out) {
    depths_ = lists_.prepare(array_len_);  // also drops the last call's points
    if (n_max_ >= 0) {
      lists_.lis[0].push_back({Range{0, array_len_}, 0});
      for (int32_t n = n_max_; n >= 0 && !done_; --n) {
        const double thrd = std::ldexp(t_, n);
        relist_ = n > 0;
        sorting_pass(thrd);
        if (done_) break;
        refinement_pass(thrd);
      }
    }
    out.clear();
    out.reserve(lists_.lsp.size() + lists_.lnsp.size());
    auto emit = [&](const SigEntry& p) {
      out.push_back({p.pos, p.negative ? -p.value : p.value});
    };
    for (const auto& p : lists_.lsp) emit(p);
    for (const auto& p : lists_.lnsp) emit(p);
  }

 private:
  struct SetEntry {
    Range range;
    uint32_t depth;
  };

  struct SigEntry {
    uint64_t pos;
    double value;
    bool negative;
  };

  [[nodiscard]] bool get(bool& bit) {
    bit = br_.get();
    if (br_.exhausted()) {
      done_ = true;
      return false;
    }
    return true;
  }

  /// The encoder's sweep and listing, with the bits read; the decode stops
  /// at the first missing bit (the lists are not read after that).
  void sorting_pass(double thrd) {
    for (size_t d = depths_; d-- > 0;) {
      std::vector<SetEntry>& list = lists_.lis[d];
      size_t kept = 0;
      for (size_t i = 0; i < list.size(); ++i) {
        const bool sig = process(list[i], thrd);
        if (done_) return;
        if (!sig && relist_) list[kept++] = list[i];
      }
      list.resize(kept);
    }
  }

  void relist(const SetEntry& e) {
    if (relist_) lists_.lis[e.depth].push_back(e);
  }

  bool process(SetEntry& e, double thrd, bool known_sig = false) {
    bool sig = true;
    if (!known_sig && !get(sig)) return false;
    if (!sig) return false;
    if (e.range.len == 1) {
      bool negative;
      if (!get(negative)) return true;
      lists_.lnsp.push_back({e.range.start, 1.5 * thrd, negative});
      return true;
    }
    Range a, b;
    split_range(e.range, a, b);
    SetEntry ca{a, e.depth + 1};
    SetEntry cb{b, e.depth + 1};
    const bool first_sig = process(ca, thrd);
    if (done_) return true;
    if (!first_sig) relist(ca);
    if (!process(cb, thrd, !first_sig) && !done_) relist(cb);
    return true;
  }

  void refinement_pass(double thrd) {
    for (auto& p : lists_.lsp) {
      bool bit;
      if (!get(bit)) return;
      p.value += bit ? thrd / 2.0 : -thrd / 2.0;
    }
    lists_.lsp.insert(lists_.lsp.end(), lists_.lnsp.begin(), lists_.lnsp.end());
    lists_.lnsp.clear();
  }

  BitReader br_;
  uint64_t array_len_;
  double t_;
  int32_t n_max_;
  bool done_ = false;

  Lists<SetEntry, SigEntry>& lists_ = Lists<SetEntry, SigEntry>::local();
  size_t depths_ = 0;    ///< LIS buckets in use
  bool relist_ = true;   ///< insignificant sets stay listed (not the last plane)
};

}  // namespace

std::vector<uint8_t> encode(std::vector<Outlier> outliers,
                            uint64_t array_len,
                            double t,
                            EncodeStats* stats) {
  Encoder enc(std::move(outliers), array_len, t);
  return enc.run(stats);
}

Status decode(const uint8_t* stream,
              size_t nbytes,
              uint64_t array_len,
              std::vector<Outlier>& out) {
  ByteReader hr(stream, nbytes);
  if (hr.u16() != kMagic) return Status::corrupt_stream;
  const double t = hr.f64();
  const int32_t n_max = int32_t(hr.u32());
  const uint64_t nbits = hr.u64();
  if (!hr.ok()) return Status::truncated_stream;
  if (n_max >= 0 && !(t > 0.0)) return Status::corrupt_stream;

  const size_t payload_bytes = nbytes - hr.pos();
  if (payload_bytes * 8 < nbits) return Status::truncated_stream;

  BitReader br(stream + hr.pos(), payload_bytes, nbits);
  Decoder dec(br, array_len, t, n_max);
  dec.run(out);
  return Status::ok;
}

}  // namespace sperr::outlier
