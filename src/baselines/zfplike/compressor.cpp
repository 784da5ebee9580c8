#include "baselines/zfplike/compressor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/byteio.h"
#include "baselines/zfplike/block_codec.h"

namespace sperr::zfplike {

namespace {

constexpr uint32_t kMagic = 0x4b50465a;  // "ZFPK"
constexpr uint8_t kModeAccuracy = 0;
constexpr uint8_t kModeRate = 1;

int field_dims(Dims d) {
  return d.z > 1 ? 3 : d.y > 1 ? 2 : 1;
}

/// Gather a 4^d block at origin (bx, by, bz), replicating edge samples for
/// partial blocks.
void gather(const double* data, Dims dims, size_t bx, size_t by, size_t bz,
            int d, double* block) {
  const int ny = d >= 2 ? kBlockSide : 1;
  const int nz = d >= 3 ? kBlockSide : 1;
  int out = 0;
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < kBlockSide; ++x) {
        const size_t sx = std::min(bx + size_t(x), dims.x - 1);
        const size_t sy = std::min(by + size_t(y), dims.y - 1);
        const size_t sz = std::min(bz + size_t(z), dims.z - 1);
        block[out++] = data[dims.index(sx, sy, sz)];
      }
}

void scatter(const double* block, Dims dims, size_t bx, size_t by, size_t bz,
             int d, double* data) {
  const int ny = d >= 2 ? kBlockSide : 1;
  const int nz = d >= 3 ? kBlockSide : 1;
  int in = 0;
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < kBlockSide; ++x, ++in) {
        const size_t sx = bx + size_t(x), sy = by + size_t(y), sz = bz + size_t(z);
        if (sx < dims.x && sy < dims.y && sz < dims.z)
          data[dims.index(sx, sy, sz)] = block[in];
      }
}

template <class PerBlock>
void for_each_block(Dims dims, int d, PerBlock&& fn) {
  const size_t stepy = d >= 2 ? kBlockSide : 1;
  const size_t stepz = d >= 3 ? kBlockSide : 1;
  for (size_t z = 0; z < dims.z; z += stepz)
    for (size_t y = 0; y < dims.y; y += stepy)
      for (size_t x = 0; x < dims.x; x += kBlockSide) fn(x, y, z);
}

std::vector<uint8_t> compress_impl(const double* data, Dims dims, uint8_t mode,
                                   double quality) {
  const int d = field_dims(dims);
  BlockParams params;
  params.dims = d;
  size_t rate_bits = 0;
  if (mode == kModeAccuracy) {
    // minexp: exponent of the last bitplane to code. frexp-style convention
    // matches the block codec's emax.
    int e;
    (void)std::frexp(quality, &e);
    params.minexp = e;
  } else {
    rate_bits = size_t(std::llround(quality * block_points(d)));
    rate_bits = std::max<size_t>(rate_bits, 16);
    params.maxbits = rate_bits;
  }

  WordBitWriter bw;
  double block[64];
  for_each_block(dims, d, [&](size_t x, size_t y, size_t z) {
    gather(data, dims, x, y, z, d, block);
    const size_t before = bw.bit_count();
    encode_block(bw, block, params);
    if (mode == kModeRate) pad_block(bw, bw.bit_count() - before, rate_bits);
  });

  std::vector<uint8_t> out;
  put_u32(out, kMagic);
  put_u8(out, mode);
  put_u64(out, dims.x);
  put_u64(out, dims.y);
  put_u64(out, dims.z);
  put_f64(out, quality);
  put_u64(out, bw.bit_count());
  const auto payload = bw.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

std::vector<uint8_t> compress_accuracy(const double* data, Dims dims,
                                       double tolerance) {
  if (!(tolerance > 0.0))
    throw std::invalid_argument("zfplike: tolerance must be > 0");
  return compress_impl(data, dims, kModeAccuracy, tolerance);
}

std::vector<uint8_t> compress_rate(const double* data, Dims dims, double bpp) {
  if (!(bpp > 0.0)) throw std::invalid_argument("zfplike: bpp must be > 0");
  return compress_impl(data, dims, kModeRate, bpp);
}

Status decompress(const uint8_t* stream, size_t nbytes, std::vector<double>& out,
                  Dims& dims) try {
  ByteReader hr(stream, nbytes);
  if (hr.u32() != kMagic) return Status::corrupt_stream;
  const uint8_t mode = hr.u8();
  if (mode > kModeRate) return Status::corrupt_stream;
  dims.x = hr.u64();
  dims.y = hr.u64();
  dims.z = hr.u64();
  const double quality = hr.f64();
  const uint64_t nbits = hr.u64();
  if (!hr.ok() || !plausible_dims(dims)) return Status::corrupt_stream;
  if ((nbytes - hr.pos()) * 8 < nbits) return Status::truncated_stream;

  const int d = field_dims(dims);
  BlockParams params;
  params.dims = d;
  size_t rate_bits = 0;
  if (mode == kModeAccuracy) {
    int e;
    (void)std::frexp(quality, &e);
    params.minexp = e;
  } else {
    rate_bits = std::max<size_t>(size_t(std::llround(quality * block_points(d))), 16);
    params.maxbits = rate_bits;
  }

  BitReader br(stream + hr.pos(), nbytes - hr.pos(), nbits);
  out.assign(dims.total(), 0.0);
  double block[64];
  bool ok = true;
  for_each_block(dims, d, [&](size_t x, size_t y, size_t z) {
    if (!ok) return;
    const size_t before = br.bits_read();
    decode_block(br, block, params);
    if (mode == kModeRate) {
      // Skip the block's padding to stay aligned.
      while (br.bits_read() - before < rate_bits && !br.exhausted()) (void)br.get();
    }
    scatter(block, dims, x, y, z, d, out.data());
  });
  return ok ? Status::ok : Status::corrupt_stream;
} catch (const std::bad_alloc&) {
  return Status::resource_exhausted;
}

}  // namespace sperr::zfplike
