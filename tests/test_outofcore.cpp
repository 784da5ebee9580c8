#include "sperr/outofcore.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

#ifdef SPERR_HAVE_OPENMP
#include <omp.h>
#endif

namespace sperr::outofcore {
namespace {

/// A uniquely named file in the shared temp dir. The pid keeps concurrent
/// test processes (ctest runs each test in its own) from colliding.
class TempFile {
 public:
  explicit TempFile(const std::string& suffix) {
    static int counter = 0;
    path_ = testing::TempDir() + "sperr_ooc_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++) + suffix;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_raw(const std::string& path, const std::vector<double>& field,
               int precision) {
  std::ofstream out(path, std::ios::binary);
  if (precision == 4) {
    std::vector<float> f32(field.begin(), field.end());
    out.write(reinterpret_cast<const char*>(f32.data()),
              std::streamsize(f32.size() * 4));
  } else {
    out.write(reinterpret_cast<const char*>(field.data()),
              std::streamsize(field.size() * 8));
  }
}

std::vector<double> read_raw(const std::string& path, size_t n, int precision) {
  std::ifstream in(path, std::ios::binary);
  std::vector<double> out(n);
  if (precision == 4) {
    std::vector<float> f32(n);
    in.read(reinterpret_cast<char*>(f32.data()), std::streamsize(n * 4));
    out.assign(f32.begin(), f32.end());
  } else {
    in.read(reinterpret_cast<char*>(out.data()), std::streamsize(n * 8));
  }
  EXPECT_TRUE(bool(in));
  return out;
}

std::vector<uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Decoders run on the OpenMP team: return `fn()` run with it at `n` threads.
template <typename Fn>
auto with_omp_threads(int n, Fn&& fn) {
#ifdef SPERR_HAVE_OPENMP
  const int before = omp_get_max_threads();
  omp_set_num_threads(n);
  auto result = fn();
  omp_set_num_threads(before);
  return result;
#else
  (void)n;
  return fn();
#endif
}

TEST(OutOfCore, PweRoundTripMatchesInMemoryPath) {
  const Dims dims{50, 40, 30};  // non-divisible by the chunk size
  const auto field = data::miranda_density(dims);
  TempFile raw(".raw"), packed(".sperr"), restored(".raw");
  write_raw(raw.path(), field, 8);

  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  cfg.chunk_dims = Dims{32, 32, 32};
  Stats stats;
  ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, packed.path(), &stats),
            Status::ok);
  EXPECT_GT(stats.num_chunks, 1u);

  // The streamed container decodes exactly like an in-memory one.
  std::ifstream in(packed.path(), std::ios::binary);
  const std::vector<uint8_t> blob{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  std::vector<double> mem_recon;
  Dims od;
  ASSERT_EQ(decompress(blob.data(), blob.size(), mem_recon, od), Status::ok);

  ASSERT_EQ(decompress_file(packed.path(), restored.path(), 8), Status::ok);
  const auto file_recon = read_raw(restored.path(), field.size(), 8);
  EXPECT_EQ(file_recon, mem_recon);

  // And the PWE guarantee holds end to end.
  double max_err = 0;
  for (size_t i = 0; i < field.size(); ++i)
    max_err = std::max(max_err, std::fabs(field[i] - file_recon[i]));
  EXPECT_LE(max_err, cfg.tolerance);

  // Both entry points write through one container writer, so every count in
  // Stats matches the in-memory compressor's.
  Stats mem;
  EXPECT_EQ(compress(field.data(), dims, cfg, &mem), blob);
  EXPECT_EQ(stats.compressed_bytes, mem.compressed_bytes);
  EXPECT_EQ(stats.speck_bytes, mem.speck_bytes);
  EXPECT_EQ(stats.outlier_bytes, mem.outlier_bytes);
  EXPECT_EQ(stats.num_outliers, mem.num_outliers);
  EXPECT_EQ(stats.num_chunks, mem.num_chunks);
  EXPECT_EQ(stats.lossless_blocks, mem.lossless_blocks);
  EXPECT_GT(stats.lossless_blocks, 0u);
  EXPECT_EQ(stats.speck_payload_bits, mem.speck_payload_bits);
  EXPECT_GT(stats.speck_payload_bits, 0u);
  EXPECT_EQ(stats.speck_planes_coded, mem.speck_planes_coded);
  EXPECT_EQ(stats.speck_significant, mem.speck_significant);
  EXPECT_EQ(stats.bpp, mem.bpp);
}

TEST(OutOfCore, SinglePrecisionFiles) {
  const Dims dims{48, 24, 16};
  const auto field64 = data::nyx_velocity_x(dims);
  const std::vector<float> field32(field64.begin(), field64.end());
  std::vector<double> field(field32.begin(), field32.end());

  TempFile raw(".raw"), packed(".sperr"), restored(".raw");
  write_raw(raw.path(), field, 4);

  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 12);
  ASSERT_EQ(compress_file(raw.path(), dims, 4, cfg, packed.path()), Status::ok);
  ASSERT_EQ(decompress_file(packed.path(), restored.path(), 4), Status::ok);

  const auto recon = read_raw(restored.path(), field.size(), 4);
  double max_err = 0;
  for (size_t i = 0; i < field.size(); ++i)
    max_err = std::max(max_err, std::fabs(field[i] - recon[i]));
  EXPECT_LE(max_err, cfg.tolerance);
}

TEST(OutOfCore, SinglePrecisionBoundHoldsBelowFloatSpacing) {
  // At idx 24 the tolerance (~0.048) is below the float spacing of this
  // field's larger values (0.0625), so the decoder's rounding to float can
  // move a value that was within t past it. The compressor must locate
  // outliers against what an f32 decode hands back.
  const Dims dims{64, 64, 64};
  const auto field64 = data::make_field("miranda_pressure", dims);
  const std::vector<float> field32(field64.begin(), field64.end());
  const std::vector<double> field(field32.begin(), field32.end());

  TempFile raw(".raw"), packed(".sperr"), restored(".raw");
  write_raw(raw.path(), field, 4);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field32.data(), field32.size(), 24);
  ASSERT_EQ(compress_file(raw.path(), dims, 4, cfg, packed.path()), Status::ok);
  ASSERT_EQ(decompress_file(packed.path(), restored.path(), 4), Status::ok);

  const auto recon = read_raw(restored.path(), field.size(), 4);
  size_t over = 0;
  for (size_t i = 0; i < field.size(); ++i)
    over += std::fabs(field[i] - recon[i]) > cfg.tolerance;
  EXPECT_EQ(over, 0u) << "t = " << cfg.tolerance;
}

TEST(OutOfCore, FixedRateFiles) {
  const Dims dims{32, 32, 32};
  const auto field = data::s3d_temperature(dims);
  TempFile raw(".raw"), packed(".sperr");
  write_raw(raw.path(), field, 8);

  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 2.0;
  Stats stats;
  ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, packed.path(), &stats),
            Status::ok);
  EXPECT_LE(stats.bpp, 2.3);
}

TEST(OutOfCore, FixedRateBudgetMatchesInMemoryPath) {
  // At this bpp, bpp * voxels = 65535.67 bits: rounding and truncation pick
  // different budgets, and both entry points must pick the same one.
  const Dims dims{32, 32, 32};
  const auto field = data::s3d_temperature(dims);
  Config rate;
  rate.mode = Mode::fixed_rate;
  rate.bpp = 1.99999;
  const double exact = rate.bpp * double(dims.total());
  ASSERT_NE(size_t(exact), size_t(std::llround(exact)));

  // The error-bounded modes write the same container from a file as from
  // memory too, here over a non-divisible chunk grid.
  Config pwe;
  pwe.tolerance = tolerance_from_idx(field.data(), field.size(), 14);
  pwe.chunk_dims = Dims{20, 20, 20};
  Config rmse;
  rmse.mode = Mode::target_rmse;
  rmse.rmse = pwe.tolerance;
  rmse.chunk_dims = pwe.chunk_dims;

  TempFile raw(".raw"), packed(".sperr");
  write_raw(raw.path(), field, 8);
  for (const Config& cfg : {rate, pwe, rmse}) {
    SCOPED_TRACE(int(cfg.mode));
    ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, packed.path()), Status::ok);
    std::ifstream in(packed.path(), std::ios::binary);
    const std::vector<uint8_t> blob{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
    EXPECT_EQ(blob, compress(field.data(), dims, cfg));
  }
}

TEST(OutOfCore, CompressFileBytesMatchCompressAtOneAndFourThreads) {
  // compress_file runs compress's chunk loop, reading each chunk from the
  // file: the same container at any thread count, from f64 and f32 files.
  const Dims dims{40, 36, 28};
  const auto field = data::make_field("miranda_pressure", dims);
  const std::vector<float> field32(field.begin(), field.end());
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 18);
  cfg.chunk_dims = Dims{16, 16, 16};
  TempFile raw(".raw"), packed(".sperr");
  for (const int precision : {8, 4}) {
    write_raw(raw.path(), field, precision);
    const auto expected = precision == 8 ? compress(field.data(), dims, cfg)
                                         : compress(field32.data(), dims, cfg);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("f" + std::to_string(precision * 8) + ", threads " +
                   std::to_string(threads));
      cfg.num_threads = threads;
      ASSERT_EQ(compress_file(raw.path(), dims, precision, cfg, packed.path()),
                Status::ok);
      EXPECT_EQ(slurp(packed.path()), expected);
    }
  }
}

TEST(OutOfCore, DecompressFileMatchesDecompressAtOneAndFourThreads) {
  // decompress_file runs decompress's chunk loop, writing each chunk's rows
  // into the file: the same values at any team size, in f64 and in f32.
  const Dims dims{40, 36, 28};
  const auto field = data::make_field("miranda_pressure", dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 18);
  cfg.chunk_dims = Dims{16, 16, 16};
  const auto blob = compress(field.data(), dims, cfg);
  std::vector<double> mem64;
  std::vector<float> mem32;
  Dims od;
  ASSERT_EQ(decompress(blob.data(), blob.size(), mem64, od), Status::ok);
  ASSERT_EQ(decompress(blob.data(), blob.size(), mem32, od), Status::ok);

  TempFile packed(".sperr"), restored(".raw");
  {
    std::ofstream out(packed.path(), std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()), std::streamsize(blob.size()));
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ASSERT_EQ(with_omp_threads(threads, [&] {
                return decompress_file(packed.path(), restored.path(), 8);
              }),
              Status::ok);
    EXPECT_EQ(read_raw(restored.path(), field.size(), 8), mem64);
    ASSERT_EQ(with_omp_threads(threads, [&] {
                return decompress_file(packed.path(), restored.path(), 4);
              }),
              Status::ok);
    EXPECT_EQ(read_raw(restored.path(), field.size(), 4),
              std::vector<double>(mem32.begin(), mem32.end()));
  }
}

TEST(OutOfCore, OneChunkDecodeLanesFollowTheOpenMpTeam) {
  // Every decoder, in memory and out of core, runs detail::decode_chunks. A
  // lone chunk gives the SPECK decoder the team as lanes; a chunk loop
  // already fills the team, so each of its chunks decodes on one lane.
#ifndef SPERR_HAVE_OPENMP
  GTEST_SKIP() << "without OpenMP every decode runs on one thread";
#endif
  const Dims dims{40, 36, 28};
  const auto field = data::make_field("miranda_pressure", dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 18);
  const auto one = compress(field.data(), dims, cfg);
  cfg.chunk_dims = Dims{16, 16, 16};
  const auto many = compress(field.data(), dims, cfg);
  const auto opened = [](const std::vector<uint8_t>& blob) {
    sperr::detail::OpenedContainer oc;
    EXPECT_EQ(sperr::detail::open_tolerant(blob.data(), blob.size(),
                                           Recovery::fail_fast, oc, nullptr),
              Status::ok);
    return oc;
  };
  const auto one_oc = opened(one), many_oc = opened(many);
  ASSERT_EQ(one_oc.chunks.size(), 1u);

  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto lanes = [&](const sperr::detail::OpenedContainer& oc) {
      return with_omp_threads(threads, [&] { return sperr::detail::decode_lanes(oc); });
    };
    EXPECT_EQ(lanes(one_oc), threads);
    EXPECT_EQ(lanes(many_oc), 1);
  }
}

TEST(OutOfCore, DecodeAdmissionCountsEveryWorkersChunk) {
  // Each decode worker holds one chunk of doubles beside the output, so a
  // budget that covers the field and one chunk admits a decode on one
  // thread but not on four; out of core, the output is a file and the
  // budget needs to cover the chunks only.
#ifndef SPERR_HAVE_OPENMP
  GTEST_SKIP() << "without OpenMP every decode runs on one thread";
#endif
  const Dims dims{64, 64, 64};
  const auto field = data::make_field("miranda_pressure", dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 14);
  cfg.chunk_dims = Dims{32, 32, 32};
  const auto blob = compress(field.data(), dims, cfg);
  TempFile packed(".sperr"), restored(".raw");
  {
    std::ofstream out(packed.path(), std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()), std::streamsize(blob.size()));
  }
  const uint64_t field_bytes = dims.total() * sizeof(double);
  const uint64_t chunk_bytes = uint64_t(32 * 32 * 32) * sizeof(double);
  MemoryBudget in_memory(field_bytes + chunk_bytes), on_disk(chunk_bytes);
  ResourceLimits mem_limits, disk_limits;
  mem_limits.budget = &in_memory;
  disk_limits.budget = &on_disk;

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Status want = threads == 1 ? Status::ok : Status::resource_exhausted;
    std::vector<double> out;
    Dims od;
    EXPECT_EQ(with_omp_threads(threads, [&] {
                return decompress(blob.data(), blob.size(), out, od, &mem_limits);
              }),
              want);
    EXPECT_EQ(with_omp_threads(threads, [&] {
                return decompress_file(packed.path(), restored.path(), 8,
                                       Recovery::fail_fast, nullptr, &disk_limits);
              }),
              want);
  }
  EXPECT_EQ(in_memory.used(), 0u);
  EXPECT_EQ(on_disk.used(), 0u);
}

TEST(OutOfCore, AllocationFailureInChunkLoopIsResourceExhausted) {
  // An exception that leaves an OpenMP region calls std::terminate, so each
  // chunk loop catches std::bad_alloc per chunk: every entry point answers
  // resource_exhausted (compress rethrows std::bad_alloc) instead of
  // aborting. The helper refuses every allocation of one chunk of doubles
  // or more (oom_child.cpp), so each chunk's buffer fails inside the loop.
  const Dims dims{64, 64, 64};
  const auto field = data::make_field("miranda_pressure", dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 8);
  cfg.chunk_dims = Dims{32, 32, 32};
  cfg.lossless_pass = false;  // nothing outside the loop reaches the limit
  const size_t limit = 32 * 32 * 32 * sizeof(double);
  const auto blob = compress(field.data(), dims, cfg);
  ASSERT_LT(blob.size(), limit);

  TempFile raw(".raw"), packed(".sperr"), dest(".out");
  write_raw(raw.path(), field, 8);
  {
    std::ofstream out(packed.path(), std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()), std::streamsize(blob.size()));
  }
  char tol[32];
  std::snprintf(tol, sizeof tol, "%a", cfg.tolerance);
  const std::string cmd = std::string(SPERR_OOM_CHILD) + " " + std::to_string(limit) +
                          " " + packed.path() + " " + raw.path() + " " + dest.path() +
                          " 64 64 64 32 " + tol;
  FILE* child = ::popen(cmd.c_str(), "r");
  ASSERT_NE(child, nullptr);
  std::string output;
  char line[256];
  while (std::fgets(line, sizeof line, child)) output += line;
  const int wstatus = ::pclose(child);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "oom_child did not exit cleanly (wait status " << wstatus << ")";
  EXPECT_EQ(output,
            "compress bad_alloc\n"
            "compress_file resource_exhausted\n"
            "decompress<double> resource_exhausted\n"
            "decompress<float> resource_exhausted\n"
            "decompress_tolerant resource_exhausted 8 of 8\n"
            "decompress_file resource_exhausted 8 of 8\n"
            "decompress_file resource_exhausted 8 of 8\n");
  EXPECT_FALSE(file_exists(dest.path()));
  EXPECT_FALSE(file_exists(dest.path() + ".tmp"));
}

TEST(OutOfCore, NonFiniteInputRejected) {
  // A NaN or Inf sample fails the file compressor the way it fails the
  // in-memory one: nothing is written, not even the staged temp file.
  const Dims dims{24, 20, 18};
  Config cfg;
  cfg.tolerance = 1e-3;
  cfg.chunk_dims = Dims{16, 16, 16};
  for (const int precision : {8, 4}) {
    for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
      SCOPED_TRACE(std::to_string(precision) + " " + std::to_string(bad));
      auto field = data::miranda_density(dims);
      field[dims.index(20, 17, 9)] = bad;  // in the last chunk
      TempFile raw(".raw"), packed(".sperr");
      write_raw(raw.path(), field, precision);
      EXPECT_EQ(compress_file(raw.path(), dims, precision, cfg, packed.path()),
                Status::invalid_argument);
      EXPECT_FALSE(std::ifstream(packed.path()).good());
      EXPECT_FALSE(std::ifstream(packed.path() + ".tmp").good());
    }
  }
}

TEST(OutOfCore, SizeMismatchRejected) {
  const Dims dims{16, 16, 16};
  const auto field = data::s3d_ch4(dims);
  TempFile raw(".raw"), packed(".sperr");
  write_raw(raw.path(), field, 8);
  Config cfg;
  cfg.tolerance = 1e-3;
  // Claiming the wrong extents must be rejected, not mis-read.
  EXPECT_EQ(compress_file(raw.path(), Dims{16, 16, 17}, 8, cfg, packed.path()),
            Status::invalid_argument);
  EXPECT_EQ(compress_file(raw.path(), dims, 4, cfg, packed.path()),
            Status::invalid_argument);
}

// --- torn-write crash points ------------------------------------------------
//
// The crash-consistency contract of outofcore.h: kill the writer at EVERY
// stage boundary of the atomic write path and the destination is either
// absent, its previous content, or the complete new content — never a torn
// container. Each case runs the operation in a freshly exec'd helper
// (ooc_crash_child.cpp) that _exit()s inside the crash hook at one stage,
// and inspects what the "crashed" process left on disk. A plain fork of
// this process would not do: the clean runs below start libgomp's thread
// pool, and a forked child's first OpenMP region waits on pool threads that
// do not exist in it.

constexpr const char* kCrashStages[] = {"tmp_open",   "tmp_partial", "tmp_written",
                                        "tmp_synced", "renamed",     "dir_synced"};

/// Run the helper with `args` (its operation and paths) so that it
/// _exit(42)s at `stage`; returns true when the hook actually fired (guards
/// against a stage silently not reached).
bool crash_child_at(const char* stage, std::vector<std::string> args) {
  args.insert(args.begin(), {SPERR_OOC_CRASH_CHILD, stage});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 42;
}

/// Helper arguments that rerun compress_file(raw, dims, 8, cfg, dest) with
/// the tolerance and chunk extents of `cfg` (PWE mode, other fields default).
std::vector<std::string> compress_args(const std::string& raw, Dims dims,
                                       const Config& cfg, const std::string& dest) {
  char tol[32];
  std::snprintf(tol, sizeof tol, "%a", cfg.tolerance);
  return {"compress", raw, dest,
          std::to_string(dims.x), std::to_string(dims.y), std::to_string(dims.z),
          tol, std::to_string(cfg.chunk_dims.x), std::to_string(cfg.chunk_dims.y),
          std::to_string(cfg.chunk_dims.z)};
}

TEST(OutOfCoreCrash, CompressKilledAtEveryStageNeverTearsDestination) {
  const Dims dims{24, 24, 24};
  const auto field = data::miranda_density(dims);
  TempFile raw(".raw"), expected(".sperr"), dest(".sperr");
  write_raw(raw.path(), field, 8);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  cfg.chunk_dims = Dims{16, 16, 16};

  // Clean run: the content every successful write must reproduce exactly.
  ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, expected.path()), Status::ok);
  const std::vector<uint8_t> clean = slurp(expected.path());
  ASSERT_FALSE(clean.empty());

  const std::vector<uint8_t> old_content = {'o', 'l', 'd'};
  for (const char* stage : kCrashStages) {
    SCOPED_TRACE(stage);
    // Pre-populate the destination: a crash must leave either this exact
    // old content or the complete new container.
    {
      std::ofstream out(dest.path(), std::ios::binary);
      out.write(reinterpret_cast<const char*>(old_content.data()),
                std::streamsize(old_content.size()));
    }
    ASSERT_TRUE(crash_child_at(stage, compress_args(raw.path(), dims, cfg, dest.path())));
    ASSERT_TRUE(file_exists(dest.path()));
    const std::vector<uint8_t> found = slurp(dest.path());
    EXPECT_TRUE(found == old_content || found == clean)
        << "destination torn after crash at " << stage << " (size "
        << found.size() << ")";
    std::remove((dest.path() + ".tmp").c_str());
    std::remove(dest.path().c_str());
  }

  // Fresh-destination variant: the destination must be absent or complete,
  // never a partial file.
  for (const char* stage : kCrashStages) {
    SCOPED_TRACE(stage);
    ASSERT_TRUE(crash_child_at(stage, compress_args(raw.path(), dims, cfg, dest.path())));
    if (file_exists(dest.path())) {
      EXPECT_EQ(slurp(dest.path()), clean);
    }
    std::remove((dest.path() + ".tmp").c_str());
    std::remove(dest.path().c_str());
  }
}

TEST(OutOfCoreCrash, DecompressKilledAtEveryStageNeverTearsDestination) {
  const Dims dims{24, 24, 24};
  const auto field = data::nyx_velocity_x(dims);
  TempFile raw(".raw"), packed(".sperr"), expected(".raw"), dest(".raw");
  write_raw(raw.path(), field, 8);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 12);
  cfg.chunk_dims = Dims{16, 16, 16};
  ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, packed.path()), Status::ok);
  ASSERT_EQ(decompress_file(packed.path(), expected.path(), 8), Status::ok);
  const std::vector<uint8_t> clean = slurp(expected.path());
  ASSERT_FALSE(clean.empty());

  for (const char* stage : kCrashStages) {
    SCOPED_TRACE(stage);
    ASSERT_TRUE(crash_child_at(stage, {"decompress", packed.path(), dest.path()}));
    if (file_exists(dest.path())) {
      EXPECT_EQ(slurp(dest.path()), clean);
    }
    std::remove((dest.path() + ".tmp").c_str());
    std::remove(dest.path().c_str());
  }
}

TEST(OutOfCore, MissingInputRejected) {
  Config cfg;
  cfg.tolerance = 1.0;
  EXPECT_EQ(compress_file("/nonexistent/file.raw", Dims{8, 8, 8}, 8, cfg,
                          "/tmp/out.sperr"),
            Status::invalid_argument);
  EXPECT_EQ(decompress_file("/nonexistent/file.sperr", "/tmp/out.raw", 8),
            Status::invalid_argument);
}

}  // namespace
}  // namespace sperr::outofcore
