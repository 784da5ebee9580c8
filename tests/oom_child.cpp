// Helper for the allocation-failure test in test_outofcore.cpp: replaces the
// global operator new so that every allocation of LIMIT bytes or more throws
// std::bad_alloc, then calls each chunk-loop entry point once and prints one
// line per call: what it returned and, where it fills a DecodeReport, how
// many chunks the report marks resource_exhausted. It is a process of its
// own because the chunk loops' arenas must start cold: a warm arena serves a
// chunk without allocating, and nothing here can grow one to LIMIT.
//
//   oom_child LIMIT PACKED RAW DEST NX NY NZ CHUNK TOLERANCE
//
// PACKED is a container of the f64 field in RAW (extents NX NY NZ); CHUNK is
// the edge of the cubic chunks and TOLERANCE the PWE tolerance (any strtod
// format) that compress and compress_file use; DEST is a scratch output path.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "sperr/outofcore.h"
#include "sperr/sperr.h"

namespace {

std::atomic<size_t> g_limit{~size_t(0)};

void* allocate(size_t n, size_t align) {
  if (n >= g_limit.load(std::memory_order_relaxed)) throw std::bad_alloc();
  void* p = align == 0 ? std::malloc(n ? n : 1)
                       : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
}

size_t arg_size(const char* s) { return size_t(std::strtoull(s, nullptr, 10)); }

std::string exhausted(const sperr::DecodeReport& rep) {
  size_t n = 0;
  for (const auto& c : rep.chunks) n += c.status == sperr::Status::resource_exhausted;
  return " " + std::to_string(n) + " of " + std::to_string(rep.chunks.size());
}

}  // namespace

void* operator new(size_t n) { return allocate(n, 0); }
void* operator new[](size_t n) { return allocate(n, 0); }
void* operator new(size_t n, std::align_val_t a) { return allocate(n, size_t(a)); }
void* operator new[](size_t n, std::align_val_t a) { return allocate(n, size_t(a)); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }

int main(int argc, char** argv) {
  using namespace sperr;
  if (argc != 10) return 2;
  const std::string packed = argv[2], raw = argv[3], dest = argv[4];
  const Dims dims{arg_size(argv[5]), arg_size(argv[6]), arg_size(argv[7])};
  Config cfg;
  cfg.chunk_dims = Dims{arg_size(argv[8]), arg_size(argv[8]), arg_size(argv[8])};
  cfg.tolerance = std::strtod(argv[9], nullptr);

  // Everything the calls need is read and sized before the limit is set.
  std::ifstream in(packed, std::ios::binary);
  const std::vector<uint8_t> blob{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  std::vector<double> field(dims.total()), out64;
  std::ifstream(raw, std::ios::binary)
      .read(reinterpret_cast<char*>(field.data()), std::streamsize(field.size() * 8));
  std::vector<float> out32;
  out64.reserve(dims.total());  // so the output field itself is not refused
  out32.reserve(dims.total());
  Dims od;
  DecodeReport rep;
  std::string lines;
  g_limit = arg_size(argv[1]);

  try {
    (void)compress(field.data(), dims, cfg);
    lines += "compress returned\n";
  } catch (const std::bad_alloc&) {
    lines += "compress bad_alloc\n";
  }
  lines += std::string("compress_file ") +
           to_string(outofcore::compress_file(raw, dims, 8, cfg, dest)) + "\n";
  lines += std::string("decompress<double> ") +
           to_string(decompress(blob.data(), blob.size(), out64, od)) + "\n";
  lines += std::string("decompress<float> ") +
           to_string(decompress(blob.data(), blob.size(), out32, od)) + "\n";
  const Status tolerant = decompress_tolerant(blob.data(), blob.size(),
                                              Recovery::zero_fill, out64, od, &rep);
  lines += std::string("decompress_tolerant ") + to_string(tolerant) + exhausted(rep) + "\n";
  for (const Recovery policy : {Recovery::fail_fast, Recovery::zero_fill}) {
    const Status s = outofcore::decompress_file(packed, dest, 8, policy, &rep);
    lines += std::string("decompress_file ") + to_string(s) + exhausted(rep) + "\n";
  }
  g_limit = ~size_t(0);
  std::fputs(lines.c_str(), stdout);
  return 0;
}
