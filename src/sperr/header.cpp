#include "sperr/header.h"

#include <algorithm>

#include "common/byteio.h"
#include "common/checksum.h"
#include "lossless/codec.h"
#include "speck/common.h"
#include "sperr/chunker.h"

namespace sperr {

namespace {
constexpr size_t kEntryBytesV2 = 16;  ///< u64 speck_len + u64 outlier_len
constexpr size_t kEntryBytesV3 = 32;  ///< + u64 checksum + f64 mean
}  // namespace

void ContainerHeader::serialize(std::vector<uint8_t>& out) const {
  const size_t start = out.size();
  put_u32(out, kInnerMagic);
  put_u8(out, uint8_t(mode));
  put_u8(out, precision);
  put_u64(out, dims.x);
  put_u64(out, dims.y);
  put_u64(out, dims.z);
  put_u64(out, chunk_dims.x);
  put_u64(out, chunk_dims.y);
  put_u64(out, chunk_dims.z);
  put_f64(out, quality);
  put_u32(out, uint32_t(entries.size()));
  for (const ChunkEntry& e : entries) {
    put_u64(out, e.speck_len);
    put_u64(out, e.outlier_len);
    put_u64(out, e.checksum);
    put_f64(out, e.mean);
  }
  // Self-checksum over every header byte so far: directory damage is caught
  // before the lengths mis-slice the payload.
  put_u64(out, xxhash64(out.data() + start, out.size() - start));
}

Status ContainerHeader::deserialize(ByteReader& br, uint8_t ver) {
  const size_t start = br.pos();
  version = ver;
  if (br.u32() != kInnerMagic) return Status::corrupt_stream;
  const uint8_t m = br.u8();
  if (m > uint8_t(Mode::target_rmse)) return Status::corrupt_stream;
  mode = Mode(m);
  precision = br.u8();
  if (precision != 4 && precision != 8) return Status::corrupt_stream;
  dims.x = br.u64();
  dims.y = br.u64();
  dims.z = br.u64();
  chunk_dims.x = br.u64();
  chunk_dims.y = br.u64();
  chunk_dims.z = br.u64();
  quality = br.f64();
  const uint32_t n = br.u32();
  if (!br.ok()) return Status::truncated_stream;
  if (!plausible_dims(dims)) return Status::corrupt_stream;
  // No encoder writes a chunk the SPECK coder cannot take; refuse such a
  // header before its directory is allocated.
  if (largest_chunk(dims, chunk_dims).total() >= speck::kMaxCoefficients)
    return Status::corrupt_stream;
  const size_t entry_bytes = has_integrity() ? kEntryBytesV3 : kEntryBytesV2;
  // An entry count beyond what the remaining bytes can hold is garbage.
  if (n > br.remaining() / entry_bytes) return Status::truncated_stream;
  entries.clear();
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ChunkEntry e;
    e.speck_len = br.u64();
    e.outlier_len = br.u64();
    if (has_integrity()) {
      e.checksum = br.u64();
      e.mean = br.f64();
    }
    if (!br.ok()) return Status::truncated_stream;
    entries.push_back(e);
  }
  if (has_integrity()) {
    const size_t hashed = br.pos() - start;
    const uint64_t stored = br.u64();
    if (!br.ok()) return Status::truncated_stream;
    if (stored != xxhash64(br.base() + start, hashed)) return Status::corrupt_stream;
  }
  if (dims.total() == 0) return Status::corrupt_stream;
  return Status::ok;
}

std::vector<uint8_t> wrap_container(std::vector<uint8_t> inner, bool lossless,
                                    const lossless::EncodeOptions& opts) {
  std::vector<uint8_t> payload =
      lossless ? lossless::compress(inner, opts) : std::move(inner);

  std::vector<uint8_t> out;
  out.reserve(ContainerHeader::kOuterBytes + payload.size());
  put_u32(out, ContainerHeader::kOuterMagic);
  put_u8(out, ContainerHeader::kVersion);
  put_u8(out, lossless ? 1 : 0);
  put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status unwrap_container(const uint8_t* data, size_t size, std::vector<uint8_t>& inner,
                        size_t* corrupt_block, uint8_t* version,
                        const ResourceLimits* limits, std::vector<size_t>* bad_blocks) {
  ByteReader br(data, size);
  if (br.u32() != ContainerHeader::kOuterMagic) return Status::corrupt_stream;
  const uint8_t ver = br.u8();
  if (ver < ContainerHeader::kMinVersion || ver > ContainerHeader::kVersion)
    return Status::corrupt_stream;
  if (version) *version = ver;
  const uint8_t lossless_flag = br.u8();
  const uint64_t len = br.u64();
  if (!br.ok()) return Status::truncated_stream;
  if (len > br.remaining() && !bad_blocks) return Status::truncated_stream;
  const size_t avail = std::min<uint64_t>(len, br.remaining());
  const uint8_t* payload = br.base() + br.pos();

  if (!lossless_flag) {
    inner.assign(payload, payload + avail);
    return Status::ok;
  }
  if (!bad_blocks)
    return lossless::decompress(payload, avail, inner, corrupt_block, limits);
  const Status s =
      lossless::decompress_tolerant(payload, avail, inner, *bad_blocks, limits);
  // corrupt_block means the framing held and the good blocks decoded —
  // recoverable. Anything else destroyed the lossless framing itself.
  return s == Status::corrupt_block ? Status::ok : s;
}

}  // namespace sperr
