// Regenerates the committed fuzz seed corpus (tools/fuzz/corpus/). Seeds are
// small, deterministic, and split per target:
//
//   container/  valid containers (lossless / not, current and v2), a
//               truncation, and the bomb corpus: tiny headers declaring
//               terabytes of output, a chunk-grid explosion, and a
//               max-expansion lossless payload — each must be answered
//               resource_exhausted, never allocated.
//   lossless/   one stream per framing the block loop and the legacy
//               decoder serve: format 3 (and a truncation), format 2 (a
//               golden v2 container's payload), legacy format 1 (and a
//               truncation), and a legacy header declaring a 2 TiB raw size.
//   wire/       frame headers (valid / wrong magic) and STATS bodies at
//               every documented growth point (168 / 216 / 224 bytes).
//   server/     end-to-end request seeds for fuzz_server: selector byte +
//               request body (valid decompress, bomb decompress, verify,
//               extract, small compress).
//
//   usage: make_fuzz_corpus CORPUS_DIR
//
// Run from the repo root after a format change, then commit the output:
//   build/tools/fuzz/make_fuzz_corpus tools/fuzz/corpus

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/byteio.h"
#include "lossless/codec.h"
#include "oracle/oracle.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "sperr/sperr.h"

namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("  %s (%zu bytes)\n", path.c_str(), bytes.size());
}

/// A small smooth field the encoder compresses well (16^3 doubles).
std::vector<double> smooth_field(sperr::Dims d) {
  std::vector<double> f(d.total());
  for (size_t z = 0; z < d.z; ++z)
    for (size_t y = 0; y < d.y; ++y)
      for (size_t x = 0; x < d.x; ++x)
        f[d.index(x, y, z)] =
            std::sin(0.4 * double(x)) + std::cos(0.3 * double(y + z));
  return f;
}

std::vector<uint8_t> valid_container(bool lossless) {
  const sperr::Dims dims{16, 16, 16};
  const auto field = smooth_field(dims);
  sperr::Config cfg;
  cfg.mode = sperr::Mode::pwe;
  cfg.tolerance = 1e-3;
  cfg.chunk_dims = sperr::Dims{256, 256, 256};  // recorded in the header
  cfg.lossless_pass = lossless;
  return sperr::compress(field.data(), dims, cfg);
}

/// Hand-crafted v2 container (16-byte directory entries, no checksums):
/// outer wrapper + inner header + one empty chunk entry. The header is what
/// matters — the declared dims/chunk grid are the bomb.
std::vector<uint8_t> bomb_container(sperr::Dims dims, sperr::Dims chunk_dims) {
  std::vector<uint8_t> inner;
  sperr::put_u32(inner, 0x43525053);  // 'SPRC'
  sperr::put_u8(inner, 0);            // mode = pwe
  sperr::put_u8(inner, 8);            // precision = f64
  sperr::put_u64(inner, dims.x);
  sperr::put_u64(inner, dims.y);
  sperr::put_u64(inner, dims.z);
  sperr::put_u64(inner, chunk_dims.x);
  sperr::put_u64(inner, chunk_dims.y);
  sperr::put_u64(inner, chunk_dims.z);
  sperr::put_f64(inner, 1e-6);        // quality
  sperr::put_u32(inner, 1);           // nchunks
  sperr::put_u64(inner, 0);           // entry 0: speck_len
  sperr::put_u64(inner, 0);           // entry 0: outlier_len

  std::vector<uint8_t> out;
  sperr::put_u32(out, 0x5a525053);  // 'SPRZ'
  sperr::put_u8(out, 2);            // container version 2 (no header checksum)
  sperr::put_u8(out, 0);            // lossless pass: off
  sperr::put_u64(out, inner.size());
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

/// Reference lossless framing declaring `raw_size` decoded bytes out of a
/// few payload bytes: mode byte + u64 raw size (+ filler).
std::vector<uint8_t> bomb_reference_stream(uint64_t raw_size) {
  std::vector<uint8_t> s;
  sperr::put_u8(s, 1);  // kModeLz
  sperr::put_u64(s, raw_size);
  for (int i = 0; i < 16; ++i) sperr::put_u8(s, 0xa5);
  return s;
}

/// A container whose *lossless payload* is the bomb: the outer wrapper says
/// "lossless-coded inner container", the payload declares 2 TiB raw.
std::vector<uint8_t> bomb_lossless_container() {
  const auto payload = bomb_reference_stream(uint64_t(1) << 41);
  std::vector<uint8_t> out;
  sperr::put_u32(out, 0x5a525053);  // 'SPRZ'
  sperr::put_u8(out, 3);
  sperr::put_u8(out, 1);  // lossless pass: on
  sperr::put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// A committed golden fixture (tests/golden/), read whole.
std::vector<uint8_t> golden(const char* name) {
  const fs::path path = fs::path(SPERR_GOLDEN_DIR) / name;
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes(std::istreambuf_iterator<char>(in), {});
  if (bytes.empty()) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return bytes;
}

std::vector<uint8_t> truncate(std::vector<uint8_t> v, double keep) {
  v.resize(size_t(double(v.size()) * keep));
  return v;
}

/// fuzz_server input: selector byte (opcode = 1 + sel % 4) + body bytes.
std::vector<uint8_t> server_input(uint8_t selector,
                                  const std::vector<uint8_t>& body) {
  std::vector<uint8_t> out;
  out.push_back(selector);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s CORPUS_DIR\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  for (const char* sub : {"container", "lossless", "wire", "server"})
    fs::create_directories(root / sub);

  // --- container ------------------------------------------------------------
  const auto valid = valid_container(/*lossless=*/true);
  const auto valid_raw = valid_container(/*lossless=*/false);
  // 32 TiB of declared output from < 1 KiB of header.
  const auto bomb_dims = bomb_container({size_t(1) << 21, size_t(1) << 21, 1},
                                        {256, 256, 256});
  // Plausible output size, but a chunk grid whose enumeration alone would
  // allocate gigabytes (2^32 one-voxel chunks).
  const auto bomb_chunks =
      bomb_container({size_t(1) << 20, size_t(1) << 12, 1}, {1, 1, 1});
  const auto bomb_lossless = bomb_lossless_container();
  write_file(root / "container" / "seed_valid.sperr", valid);
  write_file(root / "container" / "seed_nolossless.sperr", valid_raw);
  write_file(root / "container" / "seed_truncated.sperr", truncate(valid, 0.6));
  write_file(root / "container" / "bomb_dims.sperr", bomb_dims);
  write_file(root / "container" / "bomb_chunks.sperr", bomb_chunks);
  write_file(root / "container" / "bomb_lossless.sperr", bomb_lossless);
  const auto v2 = golden("rate_3d_v2.sperr");
  write_file(root / "container" / "seed_v2.sperr", v2);

  // --- lossless -------------------------------------------------------------
  std::vector<uint8_t> bytes(64 * 1024);
  for (size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = uint8_t((i * 31) ^ (i >> 7));
  const auto blocked = sperr::lossless::compress(bytes);
  const auto reference = sperr::lossless::encode_reference(bytes);
  write_file(root / "lossless" / "seed_blocked.lz", blocked);
  write_file(root / "lossless" / "seed_reference.lz", reference);
  write_file(root / "lossless" / "seed_truncated.lz", truncate(blocked, 0.5));
  // Past the 14-byte outer wrapper: a format-2 lossless stream.
  write_file(root / "lossless" / "seed_v2.lz", {v2.begin() + 14, v2.end()});
  write_file(root / "lossless" / "seed_reference_truncated.lz",
             truncate(reference, 0.5));
  write_file(root / "lossless" / "bomb_rawsize.lz",
             bomb_reference_stream(uint64_t(1) << 41));

  // --- wire -----------------------------------------------------------------
  using namespace sperr::server;
  {
    std::vector<uint8_t> frame;
    put_frame_header(frame, kRequestMagic, uint8_t(Opcode::stats),
                     /*request_id=*/7, /*body_len=*/0);
    write_file(root / "wire" / "frame_stats.bin", frame);
    frame.clear();
    put_frame_header(frame, 0xdeadbeef, 0xff, ~uint64_t(0), ~uint64_t(0));
    write_file(root / "wire" / "frame_hostile.bin", frame);
  }
  {
    StatsSnapshot s;
    s.requests_total = 3;
    s.resource_exhausted = 1;
    const auto body = s.serialize();
    write_file(root / "wire" / "stats_224.bin", body);
    std::vector<uint8_t> v1(body.begin(), body.begin() + kStatsReplyBytesV1);
    write_file(root / "wire" / "stats_216.bin", v1);
    std::vector<uint8_t> v0(body.begin(), body.begin() + kStatsReplyBytesV0);
    write_file(root / "wire" / "stats_168.bin", v0);
    write_file(root / "wire" / "stats_short.bin",
               std::vector<uint8_t>(body.begin(), body.begin() + 9));
  }

  // --- server (selector byte + request body) --------------------------------
  write_file(root / "server" / "decompress_valid.bin",
             server_input(1, build_decompress_body(0, 8, valid.data(),
                                                   valid.size())));
  write_file(root / "server" / "decompress_bomb.bin",
             server_input(1, build_decompress_body(0, 8, bomb_dims.data(),
                                                   bomb_dims.size())));
  write_file(root / "server" / "verify_valid.bin", server_input(2, valid));
  write_file(root / "server" / "extract_chunk0.bin",
             server_input(3, build_extract_body(0, valid.data(), valid.size())));
  {
    const sperr::Dims dims{8, 8, 8};
    const auto field = smooth_field(dims);
    sperr::Config cfg;
    cfg.mode = sperr::Mode::pwe;
    cfg.tolerance = 1e-3;
    cfg.chunk_dims = sperr::Dims{256, 256, 256};  // the request carries it
    write_file(root / "server" / "compress_small.bin",
               server_input(0, build_compress_body(cfg, dims, field.data())));
  }
  std::printf("corpus regenerated under %s\n", root.c_str());
  return 0;
}
