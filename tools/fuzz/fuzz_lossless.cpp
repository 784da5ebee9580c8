// Fuzz target: the blocked lossless codec's three decode paths — strict,
// tolerant (zero-fill salvage), and the legacy reference framing — plus the
// directory-only inspect() used by `sperr_cc info`. All three entropy tags
// (raw / Huffman / arithmetic) are reachable: the per-block tag byte comes
// straight from the fuzzed directory. Tight ResourceLimits keep a declared
// multi-gigabyte raw size an O(1) rejection; the block count needs no limit,
// as the directory must fit in the input (12 bytes per block).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/resource.h"
#include "lossless/codec.h"

#ifdef _OPENMP
#include <omp.h>
#endif

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  sperr::ResourceLimits rl = sperr::ResourceLimits::defaults();
  rl.max_output_bytes = uint64_t(1) << 24;  // 16 MiB
  rl.max_working_bytes = uint64_t(1) << 24;
#ifdef _OPENMP
  omp_set_num_threads(1);  // serial block loop: a sanitizer report has one thread
#endif

  {
    std::vector<uint8_t> out;
    size_t corrupt_block = 0;
    (void)sperr::lossless::decompress(data, size, out, &corrupt_block, &rl);
  }
  {
    std::vector<uint8_t> out;
    std::vector<size_t> bad_blocks;
    (void)sperr::lossless::decompress_tolerant(data, size, out, bad_blocks, &rl);
  }
  {
    std::vector<uint8_t> out;
    (void)sperr::lossless::decode_reference(data, size, out, &rl);
  }
  {
    sperr::lossless::StreamInfo info;
    (void)sperr::lossless::inspect(data, size, info);
  }
  return 0;
}
