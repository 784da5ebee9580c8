// The original recursive SPECK coder, the bit-exactness oracle for the
// flattened library coder (src/speck/encoder.cpp / decoder.cpp) — the same
// role the per-line wavelet drivers play for the blocked DWT. Sets are
// materialized lazily as box entries, set maxima are computed by strided
// box scans on first test, and the set descent is recursive. Slow but
// obviously faithful to the paper's listing; tests/test_speck_fast.cpp
// holds the library coder to bit-identical streams and equal stats.

#include <algorithm>
#include <cmath>

#include "common/bitstream.h"
#include "oracle/oracle.h"

namespace sperr::speck {

namespace {

/// A set awaiting significance in the LIS. `max_mag` caches the set's
/// maximum scaled magnitude (negative = not yet computed); computing it
/// lazily on first test keeps total work at O(N · depth) without a
/// precomputed max tree.
struct SetEntry {
  Box box;
  uint32_t depth;
  double max_mag = -1.0;
};

class RefEncoder {
 public:
  RefEncoder(const double* coeffs, Dims dims, double q, size_t budget_bits)
      : dims_(dims), q_(q), budget_(budget_bits) {
    const size_t n = dims.total();
    mag_.resize(n);
    neg_.resize(n);
    double max_m = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double c = coeffs[i];
      neg_[i] = std::signbit(c);
      const double m = std::fabs(c) / q;
      mag_[i] = m;
      if (m > max_m) max_m = m;
    }
    // Top bitplane: the largest n >= 0 with 2^n < max magnitude. If even the
    // largest magnitude is inside the dead zone nothing is ever coded.
    n_max_ = -1;
    if (max_m > 1.0) {
      n_max_ = 0;
      while (std::ldexp(1.0, n_max_ + 1) < max_m) ++n_max_;
    }
  }

  /// Fill `out` with the reconstruction a decoder of the full stream
  /// produces (dead-zone coefficients are zero).
  void export_recon(std::vector<double>& out) const {
    out.assign(dims_.total(), 0.0);
    auto emit = [&](const SigEntry& p) {
      out[p.idx] = (neg_[p.idx] ? -p.recon : p.recon) * q_;
    };
    for (const auto& p : lsp_) emit(p);
    for (const auto& p : lnsp_) emit(p);
  }

  std::vector<uint8_t> run(EncodeStats* stats) {
    if (n_max_ >= 0) {
      lis_.resize(max_depth(dims_) + 1);
      Box root;
      root.nx = uint32_t(dims_.x);
      root.ny = uint32_t(dims_.y);
      root.nz = uint32_t(dims_.z);
      lis_[0].push_back({root, 0, -1.0});

      for (int32_t n = n_max_; n >= 0 && !budget_hit_; --n) {
        const double thrd = std::ldexp(1.0, n);
        sorting_pass(thrd);
        if (budget_hit_) break;
        refinement_pass(thrd);
      }
    }

    Header hdr;
    hdr.q = q_;
    hdr.n_max = n_max_;
    hdr.nbits = bw_.bit_count();
    if (stats) {
      stats->payload_bits = bw_.bit_count();
      stats->planes_coded = planes_;
      stats->significant_count = lsp_.size() + lnsp_.size();
    }

    std::vector<uint8_t> out;
    out.reserve(Header::kBytes + bw_.byte_count());
    hdr.serialize(out);
    const auto payload = bw_.take();
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
  }

 private:
  struct SigEntry {
    uint64_t idx;
    double residual;  ///< remaining magnitude to refine away
    double recon;     ///< decoder-equivalent reconstruction (scaled units)
  };

  void put(bool bit) {
    bw_.put_bits(bit, 1);
    if (budget_ && bw_.bit_count() >= budget_) budget_hit_ = true;
  }

  [[nodiscard]] double set_max(const Box& b) const {
    double m = 0.0;
    for (uint32_t z = b.z; z < b.z + b.nz; ++z)
      for (uint32_t y = b.y; y < b.y + b.ny; ++y) {
        const size_t row = dims_.index(b.x, y, z);
        for (uint32_t x = 0; x < b.nx; ++x) m = std::max(m, mag_[row + x]);
      }
    return m;
  }

  void sorting_pass(double thrd) {
    ++planes_;
    // Smallest (deepest) sets first; children spawned by splits land in
    // deeper buckets that have already been iterated this pass, so every set
    // is examined exactly once per plane.
    for (size_t d = lis_.size(); d-- > 0;) {
      auto pending = std::move(lis_[d]);
      lis_[d].clear();
      for (auto& e : pending) {
        process(e, thrd);
        if (budget_hit_) {
          // Keep the not-yet-visited entries so state stays consistent
          // (encoding stops anyway; this matters only for stats).
          return;
        }
      }
    }
  }

  /// Examine one set. `known_sig` marks the deducible case — the last child
  /// of a significant parent whose siblings all tested insignificant — for
  /// which no significance bit is emitted (the decoder deduces it too).
  /// Returns whether the set was significant.
  bool process(SetEntry& e, double thrd, bool known_sig = false) {
    if (e.max_mag < 0.0) e.max_mag = set_max(e.box);
    const bool sig = known_sig || e.max_mag > thrd;
    if (!known_sig) {
      put(sig);
      if (budget_hit_) return sig;
    }
    if (!sig) {
      lis_[e.depth].push_back(e);
      return false;
    }
    if (e.box.is_single()) {
      const uint64_t idx = dims_.index(e.box.x, e.box.y, e.box.z);
      put(neg_[idx]);
      if (budget_hit_) return true;
      lnsp_.push_back({idx, mag_[idx], 1.5 * thrd});
      return true;
    }
    Box children[8];
    const int nc = split_box(e.box, children);
    bool any_sig = false;
    for (int i = 0; i < nc && !budget_hit_; ++i) {
      SetEntry child{children[i], e.depth + 1, -1.0};
      const bool deducible = (i == nc - 1) && !any_sig;
      any_sig |= process(child, thrd, deducible);
    }
    return true;
  }

  void refinement_pass(double thrd) {
    for (auto& p : lsp_) {
      const bool bit = p.residual > thrd;
      put(bit);
      if (budget_hit_) return;
      if (bit) p.residual -= thrd;
      p.recon += bit ? thrd / 2.0 : -thrd / 2.0;
    }
    for (auto& p : lnsp_) p.residual -= thrd;
    lsp_.insert(lsp_.end(), lnsp_.begin(), lnsp_.end());
    lnsp_.clear();
  }

  Dims dims_;
  double q_;
  size_t budget_;
  bool budget_hit_ = false;

  std::vector<double> mag_;  ///< |coeff| / q
  std::vector<uint8_t> neg_;
  int32_t n_max_ = -1;
  size_t planes_ = 0;

  std::vector<std::vector<SetEntry>> lis_;
  std::vector<SigEntry> lsp_;
  std::vector<SigEntry> lnsp_;
  WordBitWriter bw_;
};

struct DecSetEntry {
  Box box;
  uint32_t depth;
};

class RefDecoder {
 public:
  RefDecoder(BitReader br, Dims dims, const Header& hdr)
      : br_(br), dims_(dims), hdr_(hdr) {}

  Status run(double* coeffs, DecodeStats* stats) {
    const size_t n = dims_.total();
    value_.assign(n, 0.0);
    neg_.assign(n, 0);

    if (hdr_.n_max >= 0) {
      lis_.resize(max_depth(dims_) + 1);
      Box root;
      root.nx = uint32_t(dims_.x);
      root.ny = uint32_t(dims_.y);
      root.nz = uint32_t(dims_.z);
      lis_[0].push_back({root, 0});

      for (int32_t p = hdr_.n_max; p >= 0 && !done_; --p) {
        const double thrd = std::ldexp(1.0, p);
        sorting_pass(thrd);
        if (done_) break;
        refinement_pass(thrd);
      }
    }

    for (size_t i = 0; i < n; ++i)
      coeffs[i] = (neg_[i] ? -value_[i] : value_[i]) * hdr_.q;

    if (stats) {
      stats->bits_consumed = br_.bits_read();
      stats->significant_count = lsp_.size() + lnsp_.size();
      stats->truncated = done_;
    }
    return Status::ok;
  }

 private:
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
        if (done_) {
          // Preserve the rest for consistency (decoding ends regardless).
          return;
        }
      }
    }
  }

  /// Mirror of the encoder's process(), including the deducible-significance
  /// case where the last child of a significant parent with all-insignificant
  /// siblings carries no significance bit. Returns set significance.
  bool process(DecSetEntry& e, double thrd, bool known_sig = false) {
    bool sig = true;
    if (!known_sig && !get(sig)) return false;
    if (!sig) {
      lis_[e.depth].push_back(e);
      return false;
    }
    if (e.box.is_single()) {
      bool negative;
      if (!get(negative)) return true;
      const uint64_t idx = dims_.index(e.box.x, e.box.y, e.box.z);
      neg_[idx] = negative;
      value_[idx] = 1.5 * thrd;  // center of (thrd, 2*thrd]
      lnsp_.push_back(idx);
      return true;
    }
    Box children[8];
    const int nc = split_box(e.box, children);
    bool any_sig = false;
    for (int i = 0; i < nc && !done_; ++i) {
      DecSetEntry child{children[i], e.depth + 1};
      const bool deducible = (i == nc - 1) && !any_sig;
      any_sig |= process(child, thrd, deducible);
    }
    return true;
  }

  void refinement_pass(double thrd) {
    for (uint64_t idx : lsp_) {
      bool bit;
      if (!get(bit)) return;
      value_[idx] += bit ? thrd / 2.0 : -thrd / 2.0;
    }
    lsp_.insert(lsp_.end(), lnsp_.begin(), lnsp_.end());
    lnsp_.clear();
  }

  BitReader br_;
  Dims dims_;
  Header hdr_;
  bool done_ = false;

  std::vector<double> value_;
  std::vector<uint8_t> neg_;
  std::vector<std::vector<DecSetEntry>> lis_;
  std::vector<uint64_t> lsp_;
  std::vector<uint64_t> lnsp_;
};

}  // namespace

std::vector<uint8_t> encode_reference(const double* coeffs,
                                      Dims dims,
                                      double q,
                                      size_t budget_bits,
                                      EncodeStats* stats,
                                      std::vector<double>* recon_out) {
  RefEncoder enc(coeffs, dims, q, budget_bits);
  auto stream = enc.run(stats);
  if (recon_out && budget_bits)
    recon_out->clear();
  else if (recon_out)
    enc.export_recon(*recon_out);
  return stream;
}

Status decode_reference(const uint8_t* stream,
                        size_t nbytes,
                        Dims dims,
                        double* coeffs,
                        DecodeStats* stats) {
  ByteReader hr(stream, nbytes);
  Header hdr;
  if (const Status s = hdr.deserialize(hr); s != Status::ok) return s;

  // A payload shorter than the header promises is still decodable: the
  // stream is embedded, so we clamp to the bits present (prefix decode).
  const size_t payload_bytes = nbytes - hr.pos();
  const uint64_t nbits = std::min<uint64_t>(hdr.nbits, payload_bytes * 8);

  BitReader br(stream + hr.pos(), payload_bytes, nbits);
  RefDecoder dec(br, dims, hdr);
  return dec.run(coeffs, stats);
}

}  // namespace sperr::speck
