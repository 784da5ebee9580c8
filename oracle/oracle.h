#pragma once

// Equivalence oracles: the straightforward implementations each production
// stage was rewritten from, outside the library. Each promises the same
// output as its production counterpart, bit for bit:
//
//   speck::encode_reference / decode_reference  vs speck::encode / decode
//     (recursive, lazily evaluated set partitioning; speck_reference.cpp)
//   wavelet::forward_dwt_reference / inverse_dwt_reference  vs the blocked
//     forward_dwt / inverse_dwt (one strided line at a time through the
//     scalar line kernels; wavelet_reference.cpp)
//   lossless::encode_reference  vs nothing current: it writes the single-block
//     legacy format that lossless::decode_reference still reads
//     (lossless_reference.cpp, with the materializing LZ77 tokenizer)

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "lossless/lz77.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "wavelet/kernels.h"

namespace sperr::speck {

/// The recursive SPECK coder: same stream bytes, EncodeStats (minus the
/// per-pass records it does not keep) and recon export as speck::encode,
/// for every input, mode and size. Like speck::encode, a budgeted encode
/// clears `recon_out`.
std::vector<uint8_t> encode_reference(const double* coeffs,
                                      Dims dims,
                                      double q,
                                      size_t budget_bits = 0,
                                      EncodeStats* stats = nullptr,
                                      std::vector<double>* recon_out = nullptr);

/// The recursive decoder: same coefficients and DecodeStats as
/// speck::decode for every stream, including truncated and corrupt ones.
Status decode_reference(const uint8_t* stream,
                        size_t nbytes,
                        Dims dims,
                        double* coeffs,
                        DecodeStats* stats = nullptr);

}  // namespace sperr::speck

namespace sperr::wavelet {

/// Scalar CDF 9/7 pass on one contiguous line (the contract of
/// cdf97_analysis_batch with one lane) and its inverse.
void cdf97_analysis(double* x, size_t n, double* scratch);
void cdf97_synthesis(double* x, size_t n, double* scratch);

/// One forward / inverse pass of kernel `k` on one contiguous line, output
/// de-interleaved (approximation first); `scratch` holds n doubles. The
/// batched kernels in the library are bit-identical per lane.
void line_analysis(Kernel k, double* x, size_t n, double* scratch);
void line_synthesis(Kernel k, double* x, size_t n, double* scratch);

/// Per-line multi-dimensional drivers, bit-identical to forward_dwt /
/// inverse_dwt.
void forward_dwt_reference(double* data, Dims dims, Kernel kernel = Kernel::cdf97);
void inverse_dwt_reference(double* data, Dims dims, Kernel kernel = Kernel::cdf97);

}  // namespace sperr::wavelet

namespace sperr::lossless {

/// Single-block codec: one serial LZ77+Huffman pass over the whole input,
/// no directory, no checksums (lossless formats 0-1, decoded by
/// lossless::decompress through decode_reference).
std::vector<uint8_t> encode_reference(const uint8_t* data, size_t size);

inline std::vector<uint8_t> encode_reference(const std::vector<uint8_t>& data) {
  return encode_reference(data.data(), data.size());
}

/// Tokenize `data` into a materialized token vector (lz77_scan + push_back).
std::vector<Token> lz77_tokenize(const uint8_t* data, size_t size);

/// Reconstruct the original bytes from a token stream, appending to `out`.
/// Returns false if a token references data before the start of the output.
bool lz77_reconstruct(const std::vector<Token>& tokens, std::vector<uint8_t>& out);

}  // namespace sperr::lossless
