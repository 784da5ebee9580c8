// Helper for the torn-write tests in test_outofcore.cpp: runs one
// out-of-core operation with the crash hook armed, _exit(42)-ing at the
// named write stage. Exits 0 when the stage was never reached, 2 on a usage
// error.
//
//   ooc_crash_child STAGE compress RAW DEST NX NY NZ TOLERANCE CX CY CZ
//   ooc_crash_child STAGE decompress PACKED DEST
//
// compress runs compress_file(RAW, {NX,NY,NZ}, 8, cfg, DEST) with a PWE
// Config of the given tolerance (any strtod format, hex floats included)
// and chunk extents; decompress runs decompress_file(PACKED, DEST, 8).

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "sperr/outofcore.h"

namespace {

const char* g_stage = nullptr;

void crash_at_stage(const char* stage) {
  if (std::strcmp(stage, g_stage) == 0) _exit(42);
}

size_t arg_size(const char* s) { return size_t(std::strtoull(s, nullptr, 10)); }

}  // namespace

int main(int argc, char** argv) {
  using namespace sperr;
  if (argc < 3) return 2;
  g_stage = argv[1];
  outofcore::detail::set_crash_hook(&crash_at_stage);
  const std::string op = argv[2];
  if (op == "compress" && argc == 12) {
    Config cfg;
    cfg.tolerance = std::strtod(argv[8], nullptr);
    cfg.chunk_dims = Dims{arg_size(argv[9]), arg_size(argv[10]), arg_size(argv[11])};
    const Dims dims{arg_size(argv[5]), arg_size(argv[6]), arg_size(argv[7])};
    (void)outofcore::compress_file(argv[3], dims, 8, cfg, argv[4]);
    return 0;
  }
  if (op == "decompress" && argc == 5) {
    (void)outofcore::decompress_file(argv[3], argv[4], 8);
    return 0;
  }
  return 2;
}
