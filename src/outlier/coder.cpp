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

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

class Encoder {
 public:
  Encoder(std::vector<Outlier> outliers, uint64_t array_len, double t)
      : outliers_(std::move(outliers)), array_len_(array_len), t_(t) {
    std::sort(outliers_.begin(), outliers_.end(),
              [](const Outlier& a, const Outlier& b) { return a.pos < b.pos; });
    mags_.reserve(outliers_.size());
    negs_.reserve(outliers_.size());
    double max_mag = 0.0;
    for (const auto& o : outliers_) {
      const double m = std::fabs(o.corr);
      mags_.push_back(m);
      negs_.push_back(o.corr < 0.0);
      max_mag = std::max(max_mag, m);
    }
    // Listing 1 line 4: the largest n >= 0 with 2^n * t < max |corr|.
    n_max_ = -1;
    if (!outliers_.empty()) {
      n_max_ = 0;
      while (std::ldexp(t_, n_max_ + 1) < max_mag) ++n_max_;
    }
  }

  std::vector<uint8_t> run(EncodeStats* stats) {
    if (n_max_ >= 0) {
      lis_.resize(range_max_depth(array_len_) + 1);
      lis_[0].push_back({Range{0, array_len_}, 0, 0, uint32_t(outliers_.size()), -1.0});
      for (int32_t n = n_max_; n >= 0; --n) {
        const double thrd = std::ldexp(t_, n);
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
  /// outlier array that falls inside it, and a lazily computed max |corr|.
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

  void sorting_pass(double thrd) {
    // Listing 2 line 1: sets in increasing order of size (deepest bucket
    // first); children spawned by Code() land in deeper, already-finished
    // buckets, so each LIS set is processed exactly once per pass.
    for (size_t d = lis_.size(); d-- > 0;) {
      auto pending = std::move(lis_[d]);
      lis_[d].clear();
      for (auto& e : pending) process(e, thrd);
    }
  }

  /// Examine one set (Listing 2's Process). `known_sig` marks the deducible
  /// case — a second child whose sibling tested insignificant under a
  /// significant parent — for which no bit is emitted. Returns significance.
  bool process(SetEntry& e, double thrd, bool known_sig = false) {
    if (e.max_mag < 0.0) {
      e.max_mag = 0.0;
      for (uint32_t i = e.lo; i < e.hi; ++i) e.max_mag = std::max(e.max_mag, mags_[i]);
    }
    const bool sig = known_sig || e.max_mag > thrd;
    if (!known_sig) put(sig);  // Listing 2 line 3
    if (!sig) {
      lis_[e.depth].push_back(e);
      return false;
    }
    if (e.range.len == 1) {
      // A single significant point: emit its sign and move it to LNSP.
      // (e.lo indexes the unique outlier at this position.)
      put(negs_[e.lo]);  // Listing 2 line 6
      lnsp_.push_back({e.lo, mags_[e.lo]});
      return true;
    }
    // Listing 2, Code(S): split and process both halves immediately.
    Range a, b;
    split_range(e.range, a, b);
    const uint32_t mid = partition_point(e.lo, e.hi, b.start);
    SetEntry ca{a, e.depth + 1, e.lo, mid, -1.0};
    SetEntry cb{b, e.depth + 1, mid, e.hi, -1.0};
    const bool first_sig = process(ca, thrd);
    process(cb, thrd, !first_sig);
    return true;
  }

  /// First outlier index in [lo, hi) whose position is >= split.
  [[nodiscard]] uint32_t partition_point(uint32_t lo, uint32_t hi, uint64_t split) const {
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (outliers_[mid].pos < split)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  void refinement_pass(double thrd) {
    // Listing 3: refine previously significant points, then quantize the
    // newly found ones by subtracting the current threshold.
    for (auto& p : lsp_) {
      const bool bit = p.residual > thrd;
      put(bit);
      if (bit) p.residual -= thrd;
    }
    for (auto& p : lnsp_) p.residual -= thrd;
    lsp_.insert(lsp_.end(), lnsp_.begin(), lnsp_.end());
    lnsp_.clear();
  }

  std::vector<Outlier> outliers_;  // sorted by position
  uint64_t array_len_;
  double t_;
  std::vector<double> mags_;
  std::vector<uint8_t> negs_;
  int32_t n_max_ = -1;

  std::vector<std::vector<SetEntry>> lis_;
  std::vector<SigEntry> lsp_;
  std::vector<SigEntry> lnsp_;
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
    if (n_max_ >= 0) {
      lis_.resize(range_max_depth(array_len_) + 1);
      lis_[0].push_back({Range{0, array_len_}, 0});
      for (int32_t n = n_max_; n >= 0 && !done_; --n) {
        const double thrd = std::ldexp(t_, n);
        sorting_pass(thrd);
        if (done_) break;
        refinement_pass(thrd);
      }
    }
    out.clear();
    out.reserve(lsp_.size() + lnsp_.size());
    auto emit = [&](const SigEntry& p) {
      out.push_back({p.pos, p.negative ? -p.value : p.value});
    };
    for (const auto& p : lsp_) emit(p);
    for (const auto& p : lnsp_) emit(p);
    std::sort(out.begin(), out.end(),
              [](const Outlier& a, const Outlier& b) { return a.pos < b.pos; });
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

  void sorting_pass(double thrd) {
    for (size_t d = lis_.size(); d-- > 0;) {
      auto pending = std::move(lis_[d]);
      lis_[d].clear();
      for (auto& e : pending) {
        process(e, thrd);
        if (done_) return;
      }
    }
  }

  bool process(SetEntry& e, double thrd, bool known_sig = false) {
    bool sig = true;
    if (!known_sig && !get(sig)) return false;
    if (!sig) {
      lis_[e.depth].push_back(e);
      return false;
    }
    if (e.range.len == 1) {
      bool negative;
      if (!get(negative)) return true;
      lnsp_.push_back({e.range.start, 1.5 * thrd, negative});
      return true;
    }
    Range a, b;
    split_range(e.range, a, b);
    SetEntry ca{a, e.depth + 1};
    SetEntry cb{b, e.depth + 1};
    const bool first_sig = process(ca, thrd);
    if (!done_) process(cb, thrd, !first_sig);
    return true;
  }

  void refinement_pass(double thrd) {
    for (auto& p : lsp_) {
      bool bit;
      if (!get(bit)) return;
      p.value += bit ? thrd / 2.0 : -thrd / 2.0;
    }
    lsp_.insert(lsp_.end(), lnsp_.begin(), lnsp_.end());
    lnsp_.clear();
  }

  BitReader br_;
  uint64_t array_len_;
  double t_;
  int32_t n_max_;
  bool done_ = false;

  std::vector<std::vector<SetEntry>> lis_;
  std::vector<SigEntry> lsp_;
  std::vector<SigEntry> lnsp_;
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
