// Microbenchmarks (google-benchmark) for the individual pipeline stages:
// wavelet transforms, SPECK encode/decode, the outlier coder, the lossless
// back end, and the ZFP-like block codec. Useful for tracking throughput
// regressions independent of the figure-level harnesses.
//
// A second mode records the blocked-vs-reference wavelet speedup as a
// machine-readable JSON file (the PR-over-PR perf trail; CI uploads it as
// an artifact):
//   bench_micro --wavelet_json=BENCH_wavelet.json [--wavelet_n=256]
// A third mode does the same for the flattened-vs-reference SPECK coder:
//   bench_micro --speck_json=BENCH_speck.json [--speck_n=256] [--speck_threads=8]
// A fourth mode records the block-parallel lossless codec against the
// single-block reference on a real SPERR container payload:
//   bench_micro --lossless_json=BENCH_lossless.json [--lossless_n=256]
//               [--lossless_threads=8]
// A fifth mode records the cost of the fault-isolation layer: checksum
// verification overhead and tolerant decode of a damaged archive:
//   bench_micro --recovery_json=BENCH_recovery.json [--recovery_n=128]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/timer.h"
#include "oracle/oracle.h"

#include "baselines/zfplike/block_codec.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "lossless/codec.h"
#include "outlier/coder.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "speck/settree.h"
#include "sperr/sperr.h"
#include "wavelet/dwt.h"

namespace {

using sperr::Dims;

const std::vector<double>& test_volume(Dims dims) {
  static const Dims cached_dims{64, 64, 64};
  static const std::vector<double> vol =
      sperr::data::miranda_pressure(cached_dims);
  (void)dims;
  return vol;
}

void BM_ForwardDwt3D(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  const auto& vol = test_volume(dims);
  std::vector<double> work(vol.size());
  for (auto _ : state) {
    work = vol;
    sperr::wavelet::forward_dwt(work.data(), dims);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(vol.size()));
}
BENCHMARK(BM_ForwardDwt3D);

void BM_InverseDwt3D(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  auto coeffs = test_volume(dims);
  sperr::wavelet::forward_dwt(coeffs.data(), dims);
  std::vector<double> work(coeffs.size());
  for (auto _ : state) {
    work = coeffs;
    sperr::wavelet::inverse_dwt(work.data(), dims);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(coeffs.size()));
}
BENCHMARK(BM_InverseDwt3D);

void BM_ForwardDwt3D_Reference(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  const auto& vol = test_volume(dims);
  std::vector<double> work(vol.size());
  for (auto _ : state) {
    work = vol;
    sperr::wavelet::forward_dwt_reference(work.data(), dims);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(vol.size()));
}
BENCHMARK(BM_ForwardDwt3D_Reference);

void BM_InverseDwt3D_Reference(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  auto coeffs = test_volume(dims);
  sperr::wavelet::forward_dwt(coeffs.data(), dims);
  std::vector<double> work(coeffs.size());
  for (auto _ : state) {
    work = coeffs;
    sperr::wavelet::inverse_dwt_reference(work.data(), dims);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(coeffs.size()));
}
BENCHMARK(BM_InverseDwt3D_Reference);

void BM_SpeckEncode(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  auto coeffs = test_volume(dims);
  sperr::wavelet::forward_dwt(coeffs.data(), dims);
  const double q = std::ldexp(1.0e6, -int(state.range(0)));  // vs field scale
  for (auto _ : state) {
    auto stream = sperr::speck::encode(coeffs.data(), dims, q);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(coeffs.size()));
}
BENCHMARK(BM_SpeckEncode)->Arg(10)->Arg(20)->Arg(30);

void BM_SpeckDecode(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  auto coeffs = test_volume(dims);
  sperr::wavelet::forward_dwt(coeffs.data(), dims);
  const double q = std::ldexp(1.0e6, -int(state.range(0)));
  const auto stream = sperr::speck::encode(coeffs.data(), dims, q);
  std::vector<double> out(coeffs.size());
  for (auto _ : state) {
    (void)sperr::speck::decode(stream.data(), stream.size(), dims, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(coeffs.size()));
}
BENCHMARK(BM_SpeckDecode)->Arg(10)->Arg(20)->Arg(30);

void BM_SpeckEncode_Reference(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  auto coeffs = test_volume(dims);
  sperr::wavelet::forward_dwt(coeffs.data(), dims);
  const double q = std::ldexp(1.0e6, -int(state.range(0)));
  for (auto _ : state) {
    auto stream = sperr::speck::encode_reference(coeffs.data(), dims, q);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(coeffs.size()));
}
BENCHMARK(BM_SpeckEncode_Reference)->Arg(10)->Arg(20)->Arg(30);

void BM_SpeckDecode_Reference(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  auto coeffs = test_volume(dims);
  sperr::wavelet::forward_dwt(coeffs.data(), dims);
  const double q = std::ldexp(1.0e6, -int(state.range(0)));
  const auto stream = sperr::speck::encode(coeffs.data(), dims, q);
  std::vector<double> out(coeffs.size());
  for (auto _ : state) {
    (void)sperr::speck::decode_reference(stream.data(), stream.size(), dims,
                                         out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(coeffs.size()));
}
BENCHMARK(BM_SpeckDecode_Reference)->Arg(10)->Arg(20)->Arg(30);

void BM_OutlierEncode(benchmark::State& state) {
  sperr::Rng rng(1);
  const uint64_t len = 1 << 20;
  const size_t count = size_t(state.range(0));
  std::vector<sperr::outlier::Outlier> outliers;
  for (size_t i = 0; i < count; ++i)
    outliers.push_back({rng.below(len), (rng.uniform() - 0.5) * 10.0 + 2.0});
  for (auto _ : state) {
    auto stream = sperr::outlier::encode(outliers, len, 1.0);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(count));
}
BENCHMARK(BM_OutlierEncode)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LosslessCompress(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  auto coeffs = test_volume(dims);
  sperr::wavelet::forward_dwt(coeffs.data(), dims);
  const auto stream = sperr::speck::encode(coeffs.data(), dims, 1.0);
  for (auto _ : state) {
    auto packed = sperr::lossless::compress(stream);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(stream.size()));
}
BENCHMARK(BM_LosslessCompress);

void BM_ZfpBlockEncode(benchmark::State& state) {
  sperr::Rng rng(2);
  double block[64];
  for (auto& v : block) v = rng.gaussian();
  sperr::zfplike::BlockParams params;
  params.dims = 3;
  params.minexp = -20;
  for (auto _ : state) {
    sperr::WordBitWriter bw;
    sperr::zfplike::encode_block(bw, block, params);
    benchmark::DoNotOptimize(bw.byte_count());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_ZfpBlockEncode);

void BM_SperrEndToEnd(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  const auto& vol = test_volume(dims);
  sperr::Config cfg;
  cfg.tolerance = sperr::tolerance_from_idx(vol.data(), vol.size(), int(state.range(0)));
  for (auto _ : state) {
    auto blob = sperr::compress(vol.data(), dims, cfg);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(vol.size()));
}
BENCHMARK(BM_SperrEndToEnd)->Arg(10)->Arg(20)->Arg(30);

void BM_SyntheticGenerator(benchmark::State& state) {
  const Dims dims{64, 64, 64};
  for (auto _ : state) {
    auto f = sperr::data::nyx_dark_matter_density(dims, uint64_t(state.iterations()));
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(dims.total()));
}
BENCHMARK(BM_SyntheticGenerator);

// --- BENCH_wavelet.json: blocked-vs-reference CDF 9/7 speedup record -------

struct WaveletRecord {
  Dims dims;
  int repeats = 3;
  double reference_s = 0.0;  // best-of-repeats forward+inverse, per-line path
  double blocked_s = 0.0;    // same volume, blocked/batched path
  bool bit_identical = false;
};

WaveletRecord run_wavelet_record(size_t n, int repeats) {
  using namespace sperr::wavelet;
  WaveletRecord rec;
  rec.dims = Dims{n, n, n};
  rec.repeats = repeats;

  const auto vol = sperr::data::miranda_pressure(rec.dims);
  std::vector<double> a(vol), b(vol);

  // Equivalence first: the speedup claim is only meaningful if the blocked
  // path produces the very same bits as the reference it replaces.
  forward_dwt(a.data(), rec.dims);
  forward_dwt_reference(b.data(), rec.dims);
  rec.bit_identical =
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  inverse_dwt(a.data(), rec.dims);
  inverse_dwt_reference(b.data(), rec.dims);
  rec.bit_identical = rec.bit_identical &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;

  sperr::Timer timer;
  std::vector<double> work(vol.size());
  rec.reference_s = 1e300;
  rec.blocked_s = 1e300;
  for (int r = 0; r < repeats; ++r) {
    work = vol;
    timer.reset();
    forward_dwt_reference(work.data(), rec.dims);
    inverse_dwt_reference(work.data(), rec.dims);
    rec.reference_s = std::min(rec.reference_s, timer.seconds());

    work = vol;
    timer.reset();
    forward_dwt(work.data(), rec.dims);
    inverse_dwt(work.data(), rec.dims);
    rec.blocked_s = std::min(rec.blocked_s, timer.seconds());
  }
  return rec;
}

int write_wavelet_json(const std::string& path, size_t n, int repeats) {
  const WaveletRecord rec = run_wavelet_record(n, repeats);
  const double bytes = double(rec.dims.total()) * sizeof(double);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"benchmark\": \"cdf97_3d_forward_inverse\",\n"
                "  \"dims\": [%zu, %zu, %zu],\n"
                "  \"repeats\": %d,\n"
                "  \"line_batch\": %zu,\n"
                "  \"reference_seconds\": %.6f,\n"
                "  \"blocked_seconds\": %.6f,\n"
                "  \"speedup\": %.3f,\n"
                "  \"reference_mbps\": %.1f,\n"
                "  \"blocked_mbps\": %.1f,\n"
                "  \"bit_identical\": %s\n"
                "}\n",
                rec.dims.x, rec.dims.y, rec.dims.z, rec.repeats,
                sperr::wavelet::kLineBatch, rec.reference_s, rec.blocked_s,
                rec.reference_s / rec.blocked_s, bytes / rec.reference_s / 1e6,
                bytes / rec.blocked_s / 1e6, rec.bit_identical ? "true" : "false");
  out << buf;
  std::printf("%s", buf);
  // A blocked path that is not bit-identical to the reference is a
  // correctness regression: fail so CI notices.
  if (!rec.bit_identical) return 2;
  return 0;
}

// --- BENCH_speck.json: flattened-vs-reference SPECK speedup record ---------

struct SpeckRecord {
  Dims dims;
  int repeats = 3;
  int threads = 8;             // lanes for the parallel measurements
  size_t planes = 0;
  size_t payload_bits = 0;
  double ref_encode_s = 0.0;   // best-of-repeats, recursive reference coder
  double ref_decode_s = 0.0;
  double fast_encode_s = 0.0;  // flattened production coder, serial
  double fast_decode_s = 0.0;
  // The encoder's lanes split only its PWE recon export, so the lane
  // ratio times both encodes with recon_out: on one lane and on `threads`.
  double recon_encode_s = 0.0;
  double par_encode_s = 0.0;
  double par_decode_s = 0.0;   // production decoder at `threads` lanes
  bool bit_identical = false;      // serial fast coder vs reference
  bool parallel_bit_identical = false;  // every thread count vs reference
  std::vector<sperr::speck::PassTiming> passes;  // serial fast encode
  double setup_s = 0.0;   // serial fast encode, outside the passes
  double finish_s = 0.0;
  double tree_build_s = 0.0;  // the first fast encode's cold SetTree build
  size_t tree_bytes = 0;      // the shared SetTree of `dims`
  sperr::speck::DecodeStats decode_stats;  // serial fast decode
};

SpeckRecord run_speck_record(size_t n, int repeats, int threads) {
  using namespace sperr::speck;
  SpeckRecord rec;
  rec.dims = Dims{n, n, n};
  rec.repeats = repeats;
  rec.threads = threads;

  auto coeffs = sperr::data::miranda_pressure(rec.dims);
  sperr::wavelet::forward_dwt(coeffs.data(), rec.dims);
  double max_mag = 0.0;
  for (const double c : coeffs) max_mag = std::max(max_mag, std::fabs(c));
  const double q = std::ldexp(max_mag, -20);  // ~20 bitplanes of payload

  // Equivalence first: streams byte-identical, decodes bit-identical, stats
  // equal. The speedup claim is meaningless without this.
  EncodeStats ref_stats, fast_stats;
  const auto ref_stream = encode_reference(coeffs.data(), rec.dims, q, 0, &ref_stats);
  const auto fast_stream = encode(coeffs.data(), rec.dims, q, 0, &fast_stats);
  std::vector<double> ref_out(coeffs.size()), fast_out(coeffs.size());
  (void)decode_reference(ref_stream.data(), ref_stream.size(), rec.dims, ref_out.data());
  (void)decode(fast_stream.data(), fast_stream.size(), rec.dims, fast_out.data(),
               &rec.decode_stats);
  rec.bit_identical =
      fast_stream == ref_stream &&
      fast_stats.payload_bits == ref_stats.payload_bits &&
      fast_stats.planes_coded == ref_stats.planes_coded &&
      fast_stats.significant_count == ref_stats.significant_count &&
      std::memcmp(fast_out.data(), ref_out.data(),
                  ref_out.size() * sizeof(double)) == 0;
  rec.planes = fast_stats.planes_coded;
  rec.payload_bits = fast_stats.payload_bits;
  rec.passes = fast_stats.passes;
  rec.setup_s = fast_stats.setup_s;
  rec.finish_s = fast_stats.finish_s;
  // This process's first coder call on the shape built the tree; every
  // later call finds it in the cache, so only this one shows the build.
  rec.tree_build_s = fast_stats.tree_build_s;
  rec.tree_bytes = SetTreeCache::shared().get(rec.dims).tree->bytes();

  // Intra-chunk lane determinism: streams, recon exports and decodes must
  // stay identical at every thread count, not just the benchmarked one.
  std::vector<double> recon1, recon;
  rec.parallel_bit_identical =
      rec.bit_identical &&
      encode(coeffs.data(), rec.dims, q, 0, nullptr, &recon1) == ref_stream;
  for (const int t : {2, 4, 8}) {
    const auto s = encode(coeffs.data(), rec.dims, q, 0, nullptr, &recon, t);
    std::vector<double> out(coeffs.size());
    (void)decode(s.data(), s.size(), rec.dims, out.data(), nullptr, t);
    rec.parallel_bit_identical =
        rec.parallel_bit_identical && s == ref_stream &&
        std::memcmp(recon.data(), recon1.data(), recon1.size() * sizeof(double)) == 0 &&
        std::memcmp(out.data(), ref_out.data(),
                    out.size() * sizeof(double)) == 0;
  }

  sperr::Timer timer;
  rec.ref_encode_s = rec.ref_decode_s = 1e300;
  rec.fast_encode_s = rec.fast_decode_s = 1e300;
  rec.recon_encode_s = rec.par_encode_s = rec.par_decode_s = 1e300;
  for (int r = 0; r < repeats; ++r) {
    timer.reset();
    auto s = encode_reference(coeffs.data(), rec.dims, q);
    rec.ref_encode_s = std::min(rec.ref_encode_s, timer.seconds());
    benchmark::DoNotOptimize(s.data());

    timer.reset();
    s = encode(coeffs.data(), rec.dims, q);
    rec.fast_encode_s = std::min(rec.fast_encode_s, timer.seconds());
    benchmark::DoNotOptimize(s.data());

    timer.reset();
    s = encode(coeffs.data(), rec.dims, q, 0, nullptr, &recon);
    rec.recon_encode_s = std::min(rec.recon_encode_s, timer.seconds());
    benchmark::DoNotOptimize(recon.data());

    timer.reset();
    s = encode(coeffs.data(), rec.dims, q, 0, nullptr, &recon, threads);
    rec.par_encode_s = std::min(rec.par_encode_s, timer.seconds());
    benchmark::DoNotOptimize(recon.data());

    timer.reset();
    (void)decode_reference(ref_stream.data(), ref_stream.size(), rec.dims,
                           ref_out.data());
    rec.ref_decode_s = std::min(rec.ref_decode_s, timer.seconds());
    benchmark::DoNotOptimize(ref_out.data());

    timer.reset();
    (void)decode(fast_stream.data(), fast_stream.size(), rec.dims, fast_out.data());
    rec.fast_decode_s = std::min(rec.fast_decode_s, timer.seconds());
    benchmark::DoNotOptimize(fast_out.data());

    timer.reset();
    (void)decode(fast_stream.data(), fast_stream.size(), rec.dims,
                 fast_out.data(), nullptr, threads);
    rec.par_decode_s = std::min(rec.par_decode_s, timer.seconds());
    benchmark::DoNotOptimize(fast_out.data());
  }
  return rec;
}

int write_speck_json(const std::string& path, size_t n, int repeats, int threads) {
  const SpeckRecord rec = run_speck_record(n, repeats, threads);
  const double mvox_e = double(rec.dims.total()) / 1e6;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  char buf[2560];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"benchmark\": \"speck_3d_encode_decode\",\n"
      "  \"dims\": [%zu, %zu, %zu],\n"
      "  \"repeats\": %d,\n"
      "  \"threads\": %d,\n"
      "  \"planes\": %zu,\n"
      "  \"payload_bits\": %zu,\n"
      "  \"reference_encode_seconds\": %.6f,\n"
      "  \"reference_decode_seconds\": %.6f,\n"
      "  \"fast_encode_seconds\": %.6f,\n"
      "  \"fast_decode_seconds\": %.6f,\n"
      "  \"recon_encode_seconds\": %.6f,\n"
      "  \"parallel_encode_seconds\": %.6f,\n"
      "  \"parallel_decode_seconds\": %.6f,\n"
      "  \"encode_speedup\": %.3f,\n"
      "  \"decode_speedup\": %.3f,\n"
      "  \"combined_speedup\": %.3f,\n"
      "  \"parallel_encode_speedup\": %.3f,\n"
      "  \"parallel_decode_speedup\": %.3f,\n"
      "  \"fast_encode_mvox_s\": %.2f,\n"
      "  \"fast_decode_mvox_s\": %.2f,\n"
      "  \"bit_identical\": %s,\n"
      "  \"parallel_bit_identical\": %s,\n"
      "  \"setup_seconds\": %.6f,\n"
      "  \"finish_seconds\": %.6f,\n"
      "  \"tree_build_seconds\": %.6f,\n"
      "  \"tree_bytes\": %zu,\n"
      "  \"planes_decoded\": %zu,\n"
      "  \"decode_setup_seconds\": %.6f,\n"
      "  \"decode_sorting_seconds\": %.6f,\n"
      "  \"decode_refinement_seconds\": %.6f,\n"
      "  \"decode_finish_seconds\": %.6f,\n",
      rec.dims.x, rec.dims.y, rec.dims.z, rec.repeats, rec.threads, rec.planes,
      rec.payload_bits, rec.ref_encode_s, rec.ref_decode_s, rec.fast_encode_s,
      rec.fast_decode_s, rec.recon_encode_s, rec.par_encode_s, rec.par_decode_s,
      rec.ref_encode_s / rec.fast_encode_s,
      rec.ref_decode_s / rec.fast_decode_s,
      (rec.ref_encode_s + rec.ref_decode_s) /
          (rec.fast_encode_s + rec.fast_decode_s),
      rec.recon_encode_s / rec.par_encode_s,
      rec.fast_decode_s / rec.par_decode_s,
      mvox_e / rec.fast_encode_s, mvox_e / rec.fast_decode_s,
      rec.bit_identical ? "true" : "false",
      rec.parallel_bit_identical ? "true" : "false", rec.setup_s, rec.finish_s,
      rec.tree_build_s, rec.tree_bytes, rec.decode_stats.planes_decoded,
      rec.decode_stats.setup_s, rec.decode_stats.sorting_s, rec.decode_stats.refinement_s,
      rec.decode_stats.finish_s);
  std::string json(buf);
  // Per-pass cost records from the serial fast encode, top plane first
  // (setup_seconds + their seconds + finish_seconds is the whole call, and
  // setup_seconds includes tree_build_seconds, the cold SetTree build; the
  // decode_* seconds split the first serial fast decode the same way, with
  // the tree already cached). The
  // bit counts are stream properties (reproducible anywhere); the seconds
  // are this machine's wall clock.
  json += "  \"per_pass\": [\n";
  for (size_t i = 0; i < rec.passes.size(); ++i) {
    const auto& p = rec.passes[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"plane\": %d, \"sorting_seconds\": %.6f,"
                  " \"significance_seconds\": %.6f,"
                  " \"refinement_seconds\": %.6f,"
                  " \"sorting_bits\": %llu, \"refinement_bits\": %llu}%s\n",
                  p.plane, p.sorting_s, p.significance_s, p.refinement_s,
                  static_cast<unsigned long long>(p.sorting_bits),
                  static_cast<unsigned long long>(p.refinement_bits),
                  i + 1 < rec.passes.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  out << json;
  std::printf("%s", json.c_str());
  // A fast coder that is not bit-identical to the reference — serial or at
  // any lane count — is a correctness regression: fail so CI notices.
  if (!rec.bit_identical || !rec.parallel_bit_identical) return 2;
  return 0;
}

// --- BENCH_lossless.json: block-parallel vs reference lossless codec -------

struct LosslessRecord {
  Dims dims;
  int repeats = 3;
  int threads = 8;
  size_t input_bytes = 0;
  size_t nblocks = 0;
  size_t reference_bytes = 0;
  size_t blocked_bytes = 0;
  double ref_encode_s = 0.0;       // best-of-repeats, single-block reference
  double ref_decode_s = 0.0;
  double serial_encode_s = 0.0;    // blocked codec, 1 thread
  double serial_decode_s = 0.0;
  double parallel_encode_s = 0.0;  // blocked codec, `threads` threads
  double parallel_decode_s = 0.0;
  bool round_trip_ok = false;
};

/// Blocked lossless decode on an OpenMP team of `threads` (0 = the
/// default team): the decoder's block loop takes no thread count.
sperr::Status lossless_decode_on(int threads, const std::vector<uint8_t>& stream,
                                 std::vector<uint8_t>& out) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  if (threads > 0) omp_set_num_threads(threads);
#endif
  const sperr::Status s = sperr::lossless::decompress(stream, out);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  return s;
}

LosslessRecord run_lossless_record(size_t n, int repeats, int threads) {
  namespace ll = sperr::lossless;
  LosslessRecord rec;
  rec.dims = Dims{n, n, n};
  rec.repeats = repeats;
  rec.threads = threads;

  // The codec's production workload: a real SPERR container (SPECK +
  // outlier payloads, lossless pass withheld so we can apply it here).
  const auto vol = sperr::data::miranda_pressure(rec.dims);
  sperr::Config cfg;
  cfg.tolerance = sperr::tolerance_from_idx(vol.data(), vol.size(), 20);
  cfg.lossless_pass = false;
  const auto input = sperr::compress(vol.data(), rec.dims, cfg);
  rec.input_bytes = input.size();

  // Equivalence first: both framings must reproduce the input exactly.
  const auto ref_stream = ll::encode_reference(input);
  const auto blocked_stream = ll::compress(input, {size_t(1) << 20, threads});
  rec.reference_bytes = ref_stream.size();
  rec.blocked_bytes = blocked_stream.size();
  std::vector<uint8_t> ref_out, blocked_out;
  rec.round_trip_ok =
      ll::decode_reference(ref_stream.data(), ref_stream.size(), ref_out) ==
          sperr::Status::ok &&
      ll::decompress(blocked_stream, blocked_out) == sperr::Status::ok &&
      ref_out == input && blocked_out == input;
  ll::StreamInfo info;
  if (ll::inspect(blocked_stream.data(), blocked_stream.size(), info) ==
      sperr::Status::ok)
    rec.nblocks = info.blocks.size();

  sperr::Timer timer;
  rec.ref_encode_s = rec.ref_decode_s = 1e300;
  rec.serial_encode_s = rec.serial_decode_s = 1e300;
  rec.parallel_encode_s = rec.parallel_decode_s = 1e300;
  for (int r = 0; r < repeats; ++r) {
    timer.reset();
    auto s = ll::encode_reference(input);
    rec.ref_encode_s = std::min(rec.ref_encode_s, timer.seconds());
    benchmark::DoNotOptimize(s.data());

    timer.reset();
    s = ll::compress(input, {size_t(1) << 20, 1});
    rec.serial_encode_s = std::min(rec.serial_encode_s, timer.seconds());
    benchmark::DoNotOptimize(s.data());

    timer.reset();
    s = ll::compress(input, {size_t(1) << 20, threads});
    rec.parallel_encode_s = std::min(rec.parallel_encode_s, timer.seconds());
    benchmark::DoNotOptimize(s.data());

    timer.reset();
    (void)ll::decode_reference(ref_stream.data(), ref_stream.size(), ref_out);
    rec.ref_decode_s = std::min(rec.ref_decode_s, timer.seconds());
    benchmark::DoNotOptimize(ref_out.data());

    timer.reset();
    (void)lossless_decode_on(1, blocked_stream, blocked_out);
    rec.serial_decode_s = std::min(rec.serial_decode_s, timer.seconds());
    benchmark::DoNotOptimize(blocked_out.data());

    timer.reset();
    (void)lossless_decode_on(threads, blocked_stream, blocked_out);
    rec.parallel_decode_s = std::min(rec.parallel_decode_s, timer.seconds());
    benchmark::DoNotOptimize(blocked_out.data());
  }
  return rec;
}

int write_lossless_json(const std::string& path, size_t n, int repeats, int threads) {
  const LosslessRecord rec = run_lossless_record(n, repeats, threads);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  const double mb = double(rec.input_bytes) / 1e6;
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"benchmark\": \"lossless_blocked_encode_decode\",\n"
      "  \"dims\": [%zu, %zu, %zu],\n"
      "  \"repeats\": %d,\n"
      "  \"threads\": %d,\n"
      "  \"input_bytes\": %zu,\n"
      "  \"nblocks\": %zu,\n"
      "  \"reference_bytes\": %zu,\n"
      "  \"blocked_bytes\": %zu,\n"
      "  \"reference_encode_seconds\": %.6f,\n"
      "  \"reference_decode_seconds\": %.6f,\n"
      "  \"serial_encode_seconds\": %.6f,\n"
      "  \"serial_decode_seconds\": %.6f,\n"
      "  \"parallel_encode_seconds\": %.6f,\n"
      "  \"parallel_decode_seconds\": %.6f,\n"
      "  \"serial_speedup\": %.3f,\n"
      "  \"parallel_speedup\": %.3f,\n"
      "  \"serial_encode_mbps\": %.1f,\n"
      "  \"parallel_encode_mbps\": %.1f,\n"
      "  \"round_trip_ok\": %s\n"
      "}\n",
      rec.dims.x, rec.dims.y, rec.dims.z, rec.repeats, rec.threads,
      rec.input_bytes, rec.nblocks, rec.reference_bytes, rec.blocked_bytes,
      rec.ref_encode_s, rec.ref_decode_s, rec.serial_encode_s,
      rec.serial_decode_s, rec.parallel_encode_s, rec.parallel_decode_s,
      (rec.ref_encode_s + rec.ref_decode_s) /
          (rec.serial_encode_s + rec.serial_decode_s),
      (rec.ref_encode_s + rec.ref_decode_s) /
          (rec.parallel_encode_s + rec.parallel_decode_s),
      mb / rec.serial_encode_s, mb / rec.parallel_encode_s,
      rec.round_trip_ok ? "true" : "false");
  out << buf;
  std::printf("%s", buf);
  // A blocked codec that does not reproduce the input exactly is a
  // correctness regression: fail so CI notices.
  if (!rec.round_trip_ok) return 2;
  return 0;
}

// --- BENCH_recovery.json: fault-isolation overhead record ------------------

struct RecoveryRecord {
  Dims dims;
  int repeats = 3;
  size_t nchunks = 0;
  size_t blob_bytes = 0;
  double strict_decode_s = 1e300;    // best-of-repeats, plain decompress
  double verify_s = 1e300;           // verify_container (checksums only)
  double tolerant_clean_s = 1e300;   // decompress_tolerant, nothing damaged
  double zero_fill_damaged_s = 1e300;
  double coarse_fill_damaged_s = 1e300;
  bool recovery_ok = false;  // damaged decode succeeded and isolated the chunk
};

RecoveryRecord run_recovery_record(size_t n, int repeats) {
  RecoveryRecord rec;
  rec.dims = Dims{n, n, n};
  rec.repeats = repeats;

  // Lossless pass off so the damage lands verbatim in one chunk's streams
  // (checksum verification cost is the same either way).
  const auto vol = sperr::data::miranda_pressure(rec.dims);
  sperr::Config cfg;
  cfg.tolerance = sperr::tolerance_from_idx(vol.data(), vol.size(), 20);
  cfg.chunk_dims = Dims{n / 2, n / 2, n / 2};  // 8 chunks
  cfg.lossless_pass = false;
  const auto blob = sperr::compress(vol.data(), rec.dims, cfg);
  rec.blob_bytes = blob.size();

  auto damaged = blob;
  damaged[blob.size() / 2] ^= 0x40;  // mid-file: inside some chunk's streams

  sperr::Timer timer;
  std::vector<double> out;
  sperr::Dims od;
  for (int r = 0; r < repeats; ++r) {
    timer.reset();
    (void)sperr::decompress(blob.data(), blob.size(), out, od);
    rec.strict_decode_s = std::min(rec.strict_decode_s, timer.seconds());

    timer.reset();
    sperr::DecodeReport vrep;
    (void)sperr::verify_container(blob.data(), blob.size(), &vrep);
    rec.verify_s = std::min(rec.verify_s, timer.seconds());
    rec.nchunks = vrep.chunks.size();

    timer.reset();
    (void)sperr::decompress_tolerant(blob.data(), blob.size(),
                                     sperr::Recovery::zero_fill, out, od, nullptr);
    rec.tolerant_clean_s = std::min(rec.tolerant_clean_s, timer.seconds());

    timer.reset();
    sperr::DecodeReport zrep;
    const sperr::Status zs =
        sperr::decompress_tolerant(damaged.data(), damaged.size(),
                                   sperr::Recovery::zero_fill, out, od, &zrep);
    rec.zero_fill_damaged_s = std::min(rec.zero_fill_damaged_s, timer.seconds());
    rec.recovery_ok = zs == sperr::Status::ok && zrep.damaged == 1;

    timer.reset();
    (void)sperr::decompress_tolerant(damaged.data(), damaged.size(),
                                     sperr::Recovery::coarse_fill, out, od, nullptr);
    rec.coarse_fill_damaged_s = std::min(rec.coarse_fill_damaged_s, timer.seconds());
  }
  return rec;
}

int write_recovery_json(const std::string& path, size_t n, int repeats) {
  const RecoveryRecord rec = run_recovery_record(n, repeats);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"benchmark\": \"recovery_tolerant_decode\",\n"
      "  \"dims\": [%zu, %zu, %zu],\n"
      "  \"repeats\": %d,\n"
      "  \"nchunks\": %zu,\n"
      "  \"blob_bytes\": %zu,\n"
      "  \"strict_decode_seconds\": %.6f,\n"
      "  \"verify_seconds\": %.6f,\n"
      "  \"tolerant_clean_seconds\": %.6f,\n"
      "  \"zero_fill_damaged_seconds\": %.6f,\n"
      "  \"coarse_fill_damaged_seconds\": %.6f,\n"
      "  \"verify_vs_decode\": %.4f,\n"
      "  \"tolerant_overhead\": %.4f,\n"
      "  \"recovery_ok\": %s\n"
      "}\n",
      rec.dims.x, rec.dims.y, rec.dims.z, rec.repeats, rec.nchunks,
      rec.blob_bytes, rec.strict_decode_s, rec.verify_s, rec.tolerant_clean_s,
      rec.zero_fill_damaged_s, rec.coarse_fill_damaged_s,
      rec.verify_s / rec.strict_decode_s,
      rec.tolerant_clean_s / rec.strict_decode_s - 1.0,
      rec.recovery_ok ? "true" : "false");
  out << buf;
  std::printf("%s", buf);
  // A tolerant decoder that cannot isolate a single flipped bit is a
  // correctness regression: fail so CI notices.
  if (!rec.recovery_ok) return 2;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string speck_json_path;
  std::string lossless_json_path;
  std::string recovery_json_path;
  size_t wavelet_n = 256;
  size_t speck_n = 256;
  size_t lossless_n = 256;
  size_t recovery_n = 128;
  int repeats = 3;
  int speck_repeats = 3;
  int speck_threads = 8;
  int lossless_repeats = 3;
  int recovery_repeats = 3;
  int lossless_threads = 8;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--wavelet_json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--wavelet_json="));
    } else if (arg.rfind("--wavelet_n=", 0) == 0) {
      wavelet_n = std::stoul(arg.substr(std::strlen("--wavelet_n=")));
    } else if (arg.rfind("--wavelet_repeats=", 0) == 0) {
      repeats = std::stoi(arg.substr(std::strlen("--wavelet_repeats=")));
    } else if (arg.rfind("--speck_json=", 0) == 0) {
      speck_json_path = arg.substr(std::strlen("--speck_json="));
    } else if (arg.rfind("--speck_n=", 0) == 0) {
      speck_n = std::stoul(arg.substr(std::strlen("--speck_n=")));
    } else if (arg.rfind("--speck_repeats=", 0) == 0) {
      speck_repeats = std::stoi(arg.substr(std::strlen("--speck_repeats=")));
    } else if (arg.rfind("--speck_threads=", 0) == 0) {
      speck_threads = std::stoi(arg.substr(std::strlen("--speck_threads=")));
    } else if (arg.rfind("--lossless_json=", 0) == 0) {
      lossless_json_path = arg.substr(std::strlen("--lossless_json="));
    } else if (arg.rfind("--lossless_n=", 0) == 0) {
      lossless_n = std::stoul(arg.substr(std::strlen("--lossless_n=")));
    } else if (arg.rfind("--lossless_repeats=", 0) == 0) {
      lossless_repeats = std::stoi(arg.substr(std::strlen("--lossless_repeats=")));
    } else if (arg.rfind("--lossless_threads=", 0) == 0) {
      lossless_threads = std::stoi(arg.substr(std::strlen("--lossless_threads=")));
    } else if (arg.rfind("--recovery_json=", 0) == 0) {
      recovery_json_path = arg.substr(std::strlen("--recovery_json="));
    } else if (arg.rfind("--recovery_n=", 0) == 0) {
      recovery_n = std::stoul(arg.substr(std::strlen("--recovery_n=")));
    } else if (arg.rfind("--recovery_repeats=", 0) == 0) {
      recovery_repeats = std::stoi(arg.substr(std::strlen("--recovery_repeats=")));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return write_wavelet_json(json_path, wavelet_n, repeats);
  if (!speck_json_path.empty())
    return write_speck_json(speck_json_path, speck_n, speck_repeats,
                            speck_threads);
  if (!lossless_json_path.empty())
    return write_lossless_json(lossless_json_path, lossless_n, lossless_repeats,
                               lossless_threads);
  if (!recovery_json_path.empty())
    return write_recovery_json(recovery_json_path, recovery_n, recovery_repeats);

  int pass_argc = int(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
