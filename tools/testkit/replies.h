#pragma once

// Expected server replies built from direct library calls, for tests that
// compare what comes off the wire byte for byte.

#include <cstdint>
#include <vector>

#include "common/byteio.h"
#include "sperr/sperr.h"

namespace sperr::server {

/// The DECOMPRESS reply at precision 8 for `blob` (docs/PROTOCOL.md): the
/// three u64 extents, then the f64 samples of a direct sperr::decompress.
/// Empty if the blob does not decode, which no ok reply is.
inline std::vector<uint8_t> expected_decompress_reply(const std::vector<uint8_t>& blob) {
  std::vector<double> field;
  Dims dims;
  if (decompress(blob.data(), blob.size(), field, dims) != Status::ok) return {};
  std::vector<uint8_t> reply;
  for (const size_t e : {dims.x, dims.y, dims.z}) put_u64(reply, e);
  const auto* p = reinterpret_cast<const uint8_t*>(field.data());
  reply.insert(reply.end(), p, p + field.size() * sizeof(double));
  return reply;
}

}  // namespace sperr::server
