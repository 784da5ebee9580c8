// sperr_faultsim — deterministic fault-injection campaigns against the
// fault-isolation layer. Builds a known-good multi-chunk archive, derives a
// reproducible fault plan per seed (bit flips, byte bursts, zeroed ranges,
// tail truncation, slice duplication/reordering), applies it, and checks the
// recovery invariants the format promises:
//
//   I1  no crash, and any ok decode yields a full-size, finite field;
//   I2  report honesty: a chunk whose report says ok is bit-identical to the
//       clean decode (fill policies);
//   I3  detection: every chunk whose stored bytes the plan actually changed
//       (exact ground truth from faultinject::damaged_slices) is flagged;
//   I4  fail_fast coherence: ok iff nothing was damaged, and then the output
//       equals the clean decode everywhere;
//   I5  the out-of-core reader produces the same bytes as the in-memory
//       tolerant decoder under zero_fill.
//
//   sperr_faultsim [--seeds N] [--seed-start S] [--faults K]
//                  [--save-failing DIR] [--selftest]
//
// Exit 0 when every seed holds every invariant, 1 otherwise (failing seeds
// are listed; --save-failing writes each failing mutant + its plan).
//
// CI runs this under ASan/UBSan over a seed matrix (fuzz-smoke job).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "lossless/codec.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/outofcore.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"
#include "testkit/faultinject.h"

namespace {

using namespace sperr;

constexpr size_t kOuterBytes = ContainerHeader::kOuterBytes;

struct Baseline {
  std::vector<uint8_t> blob;
  std::vector<double> clean;  ///< clean decode of `blob`
  Dims dims;
  Dims chunk_dims;
  std::vector<Chunk> chunks;
  std::vector<faultinject::ByteRange> slices;  ///< fault targets within blob
  bool slices_are_chunks = false;  ///< slice i == chunk i's streams
};

/// Eight-chunk archive with the chunk streams as the slice table (lossless
/// pass off, so chunk bytes sit verbatim in the blob).
Baseline make_chunk_baseline() {
  Baseline b;
  b.dims = Dims{48, 48, 48};
  b.chunk_dims = Dims{24, 24, 24};
  const auto field = data::miranda_pressure(b.dims, 5);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 16);
  cfg.chunk_dims = b.chunk_dims;
  cfg.lossless_pass = false;
  b.blob = compress(field.data(), b.dims, cfg);

  detail::OpenedContainer oc;
  if (detail::open_tolerant(b.blob.data(), b.blob.size(), Recovery::fail_fast, oc,
                            nullptr) != Status::ok) {
    std::fprintf(stderr, "faultsim: cannot parse own baseline\n");
    std::exit(1);
  }
  for (const detail::ChunkSlice& sl : oc.slices)
    b.slices.push_back({kOuterBytes + sl.offset, sl.speck_avail + sl.outlier_avail});
  b.slices_are_chunks = true;
  b.chunks = std::move(oc.chunks);

  Dims od;
  if (decompress(b.blob.data(), b.blob.size(), b.clean, od) != Status::ok) {
    std::fprintf(stderr, "faultsim: baseline decode failed\n");
    std::exit(1);
  }
  return b;
}

/// Same archive with the lossless pass on; slices are the lossless blocks.
Baseline make_lossless_baseline() {
  Baseline b;
  b.dims = Dims{48, 48, 48};
  b.chunk_dims = Dims{24, 24, 24};
  const auto field = data::miranda_pressure(b.dims, 5);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 16);
  cfg.chunk_dims = b.chunk_dims;
  cfg.lossless_block_size = size_t(1) << 12;  // several blocks
  b.blob = compress(field.data(), b.dims, cfg);

  lossless::StreamInfo info;
  if (lossless::inspect(b.blob.data() + kOuterBytes, b.blob.size() - kOuterBytes,
                        info) != Status::ok ||
      !info.blocked) {
    std::fprintf(stderr, "faultsim: lossless baseline not blocked\n");
    std::exit(1);
  }
  for (const auto& bi : info.blocks)
    b.slices.push_back({kOuterBytes + size_t(bi.offset), size_t(bi.comp_size)});
  b.chunks = make_chunks(b.dims, b.chunk_dims);

  Dims od;
  if (decompress(b.blob.data(), b.blob.size(), b.clean, od) != Status::ok) {
    std::fprintf(stderr, "faultsim: baseline decode failed\n");
    std::exit(1);
  }
  return b;
}

bool chunk_matches_clean(const Baseline& b, const std::vector<double>& out,
                         size_t ci) {
  const Chunk& c = b.chunks[ci];
  for (size_t z = 0; z < c.dims.z; ++z)
    for (size_t y = 0; y < c.dims.y; ++y)
      for (size_t x = 0; x < c.dims.x; ++x) {
        const size_t vi =
            b.dims.index(c.origin.x + x, c.origin.y + y, c.origin.z + z);
        if (!(out[vi] == b.clean[vi])) return false;
      }
  return true;
}

bool chunk_is_finite(const Baseline& b, const std::vector<double>& out, size_t ci) {
  const Chunk& c = b.chunks[ci];
  for (size_t z = 0; z < c.dims.z; ++z)
    for (size_t y = 0; y < c.dims.y; ++y)
      for (size_t x = 0; x < c.dims.x; ++x) {
        const size_t vi =
            b.dims.index(c.origin.x + x, c.origin.y + y, c.origin.z + z);
        if (!std::isfinite(out[vi])) return false;
      }
  return true;
}

struct Options {
  uint64_t seed_start = 1;
  size_t seeds = 100;
  size_t faults = 3;
  std::string save_dir;
  bool ooc = true;  ///< also run the out-of-core equivalence check (I5)
};

std::string g_failure;  // first invariant violated for the current seed

bool fail(const std::string& what) {
  if (g_failure.empty()) g_failure = what;
  return false;
}

/// Run one seed against one baseline; returns false on invariant violation.
bool run_seed(const Baseline& b, uint64_t seed, const Options& opt,
              const std::vector<faultinject::Fault>& faults,
              const std::vector<uint8_t>& mutated) {
  const auto damaged = faultinject::damaged_slices(
      b.blob.data(), b.blob.size(), b.slices, faults);

  // fail_fast (I1, I4).
  {
    std::vector<double> out;
    Dims od;
    DecodeReport rep;
    const Status s = decompress_tolerant(mutated.data(), mutated.size(),
                                         Recovery::fail_fast, out, od, &rep);
    if (s == Status::ok) {
      if (rep.damaged != 0) return fail("fail_fast ok with damage reported");
      if (out.size() != b.dims.total()) return fail("fail_fast ok, wrong size");
      for (size_t i = 0; i < out.size(); ++i)
        if (!(out[i] == b.clean[i])) return fail("fail_fast ok, field differs");
    } else if (rep.header_ok && rep.damaged == 0 &&
               rep.lossless_bad_blocks.empty()) {
      return fail("fail_fast error without naming any damage");
    }
  }

  // Fill policies (I1, I2, I3).
  for (const Recovery policy : {Recovery::zero_fill, Recovery::coarse_fill}) {
    std::vector<double> out;
    Dims od;
    DecodeReport rep;
    const Status s =
        decompress_tolerant(mutated.data(), mutated.size(), policy, out, od, &rep);
    if (s != Status::ok) continue;  // wrapper/header/directory destroyed: fine
    if (out.size() != b.dims.total()) return fail("fill policy ok, wrong size");
    if (rep.chunks.size() != b.chunks.size())
      return fail("fill policy ok, wrong chunk count");
    for (size_t i = 0; i < rep.chunks.size(); ++i) {
      if (rep.chunks[i].status == Status::ok) {
        if (!chunk_matches_clean(b, out, i))
          return fail("chunk reported ok but differs from clean decode (I2)");
      } else if (!chunk_is_finite(b, out, i)) {
        return fail("patched chunk contains non-finite values (I1)");
      }
    }
    if (b.slices_are_chunks) {
      for (const size_t ci : damaged)
        if (rep.chunks[ci].status == Status::ok)
          return fail("damaged chunk " + std::to_string(ci) +
                      " not flagged (I3)");
    }
  }

  // Out-of-core equivalence (I5).
  if (opt.ooc) {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string dir = tmpdir && *tmpdir ? tmpdir : "/tmp";
    const std::string in_path =
        dir + "/faultsim_" + std::to_string(seed) + ".sperr";
    const std::string out_path =
        dir + "/faultsim_" + std::to_string(seed) + ".raw";
    {
      std::ofstream f(in_path, std::ios::binary);
      f.write(reinterpret_cast<const char*>(mutated.data()),
              std::streamsize(mutated.size()));
      if (!f.good()) return fail("cannot write scratch file");
    }
    std::vector<double> mem;
    Dims od;
    const Status ms = decompress_tolerant(mutated.data(), mutated.size(),
                                          Recovery::zero_fill, mem, od, nullptr);
    DecodeReport frep;
    const Status fs = outofcore::decompress_file(in_path, out_path, 8,
                                                 Recovery::zero_fill, &frep);
    std::remove(in_path.c_str());
    if ((ms == Status::ok) != (fs == Status::ok)) {
      std::remove(out_path.c_str());
      return fail("out-of-core verdict differs from in-memory (I5)");
    }
    if (fs == Status::ok) {
      std::ifstream f(out_path, std::ios::binary);
      std::vector<double> disk(mem.size());
      if (!f.read(reinterpret_cast<char*>(disk.data()),
                  std::streamsize(disk.size() * 8))) {
        std::remove(out_path.c_str());
        return fail("out-of-core output file short (I5)");
      }
      if (std::memcmp(disk.data(), mem.data(), mem.size() * 8) != 0) {
        std::remove(out_path.c_str());
        return fail("out-of-core bytes differ from in-memory (I5)");
      }
    }
    std::remove(out_path.c_str());
  }
  return true;
}

void save_failing(const Options& opt, const char* variant, uint64_t seed,
                  const std::vector<faultinject::Fault>& faults,
                  const std::vector<uint8_t>& mutated) {
  if (opt.save_dir.empty()) return;
  const std::string stem =
      opt.save_dir + "/" + variant + "_seed" + std::to_string(seed);
  std::ofstream blob(stem + ".sperr", std::ios::binary);
  blob.write(reinterpret_cast<const char*>(mutated.data()),
             std::streamsize(mutated.size()));
  std::ofstream plan(stem + ".txt");
  plan << "variant " << variant << " seed " << seed << "\n";
  plan << "violated: " << g_failure << "\n";
  for (const auto& f : faults) plan << faultinject::to_string(f) << "\n";
}

int run_campaign(const Options& opt) {
  const Baseline chunk_base = make_chunk_baseline();
  const Baseline lossless_base = make_lossless_baseline();
  const std::pair<const char*, const Baseline*> variants[] = {
      {"chunks", &chunk_base}, {"lossless", &lossless_base}};

  size_t failures = 0, with_damage = 0;
  for (uint64_t seed = opt.seed_start; seed < opt.seed_start + opt.seeds; ++seed) {
    for (const auto& [name, base] : variants) {
      const auto faults =
          faultinject::plan(seed, opt.faults, base->slices, base->blob.size());
      const auto mutated = faultinject::apply(base->blob.data(), base->blob.size(),
                                              base->slices, faults);
      with_damage += !faultinject::damaged_slices(base->blob.data(),
                                                  base->blob.size(), base->slices,
                                                  faults)
                          .empty();
      g_failure.clear();
      if (!run_seed(*base, seed, opt, faults, mutated)) {
        ++failures;
        std::fprintf(stderr, "FAIL %s seed %llu: %s\n", name,
                     static_cast<unsigned long long>(seed), g_failure.c_str());
        for (const auto& f : faults)
          std::fprintf(stderr, "  %s\n", faultinject::to_string(f).c_str());
        save_failing(opt, name, seed, faults, mutated);
      }
    }
  }

  std::printf("faultsim: %zu seeds x 2 variants, %zu plans caused damage, "
              "%zu invariant violations\n",
              opt.seeds, with_damage, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[i];
    };
    if (a == "--seeds")
      opt.seeds = size_t(std::atoll(next()));
    else if (a == "--seed-start")
      opt.seed_start = uint64_t(std::atoll(next()));
    else if (a == "--faults")
      opt.faults = size_t(std::atoll(next()));
    else if (a == "--save-failing")
      opt.save_dir = next();
    else if (a == "--no-ooc")
      opt.ooc = false;
    else if (a == "--selftest")
      selftest = true;
    else {
      std::fprintf(stderr,
                   "usage: sperr_faultsim [--seeds N] [--seed-start S] "
                   "[--faults K] [--save-failing DIR] [--no-ooc] [--selftest]\n");
      return 2;
    }
  }
  if (selftest) {
    opt.seeds = 25;
    opt.seed_start = 1;
    opt.faults = 3;
  }
  return run_campaign(opt);
}
