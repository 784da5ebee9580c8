// sperr_cc — command-line compressor/decompressor for raw binary fields,
// mirroring the utilities the reference SPERR distribution ships.
//
//   compress:    sperr_cc c  IN.raw OUT.sperr --dims NX [NY [NZ]] --type f32|f64
//                          ( --pwe T | --idx K | --bpp R | --rmse E )
//                          [ --q-over-t Q ] [ --chunk CX CY CZ ]  (default 128^3)
//                          [ --threads N ] [ --intra-threads N ]
//                          [ --no-lossless ] [ --verify ]
//   decompress:  sperr_cc d  IN.sperr OUT.raw [--type f32|f64] [--drop L]
//                          [ --recover fail-fast|zero|coarse ]
//                          [ --max-output-mb M ]
//   inspect:     sperr_cc info IN.sperr [--verify] [--max-output-mb M]
//
// Raw files are x-fastest little-endian arrays, the layout SDRBench uses.
//
// Exit codes: 0 success, 1 I/O error, 2 usage error, 3 corrupt input (a
// damaged container, or a field to compress holding NaN or Inf: the message
// names the first such index), 4 verification/quality failure, 5 resource
// limit exceeded (the container header declares more decoded output than
// the decoder's ResourceLimits admit — the default 64 GiB ceiling, or
// --max-output-mb — or the compressor ran out of memory). Scripts can tell
// "the file is damaged" (3) apart from "I was called wrong" (2), "the disk
// failed" (1), and "this is a decompression bomb" (5).

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/timer.h"
#include "metrics/metrics.h"
#include "sperr/pipeline.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

namespace {

// Exit codes (documented in the header comment and asserted by
// tools/check_cli_codes.sh).
constexpr int kExitOk = 0;
constexpr int kExitIo = 1;
constexpr int kExitUsage = 2;
constexpr int kExitCorrupt = 3;
constexpr int kExitVerify = 4;
constexpr int kExitResource = 5;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  sperr_cc c IN.raw OUT.sperr --dims NX [NY [NZ]] --type f32|f64\n"
               "           (--pwe T | --idx K | --bpp R | --rmse E)\n"
               "           [--q-over-t Q] [--chunk CX CY CZ] [--threads N]\n"
               "           [--intra-threads N] [--no-lossless] [--verify]\n"
               "  sperr_cc d IN.sperr OUT.raw [--type f32|f64] [--drop L]\n"
               "           [--recover fail-fast|zero|coarse] [--max-output-mb M]\n"
               "  sperr_cc info IN.sperr [--verify] [--max-output-mb M]\n"
               "\n"
               "  --chunk defaults to the library's %s.\n"
               "  --drop L decodes a coarser field: each axis halves up to\n"
               "  L times, as often as every chunk allows.\n",
               sperr::Config{}.chunk_dims.to_string().c_str());
  std::exit(kExitUsage);
}

/// Numeric options parse strictly: a token that is not wholly a number in
/// [lo, hi] is a usage error, never a silent 0.
long long parse_int(const char* v, const char* what, long long lo, long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < lo || n > hi) usage(what);
  return n;
}

double parse_double(const char* v, const char* what) {
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v, &end);
  // strtod flags a subnormal result ERANGE too; only one that underflowed
  // to 0 or overflowed is out of range.
  const bool out_of_range = errno == ERANGE && (x == 0.0 || std::isinf(x));
  if (end == v || *end != '\0' || out_of_range) usage(what);
  return x;
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(kExitIo);
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const void* data, size_t size) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(static_cast<const char*>(data), std::streamsize(size))) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(kExitIo);
  }
}

struct Args {
  std::vector<std::string> positional;
  sperr::Dims dims{0, 1, 1};
  bool have_dims = false;
  std::string type = "f64";
  double pwe = 0, bpp = 0, rmse = 0, q_over_t = 1.5;
  int idx = -1;
  sperr::Dims chunk = sperr::Config{}.chunk_dims;
  int threads = 0;
  int intra_threads = 1;  ///< SPECK lanes per chunk (byte-identical output)
  bool lossless = true;
  bool verify = false;
  size_t drop = 0;
  bool have_recover = false;
  sperr::Recovery recover = sperr::Recovery::fail_fast;
  uint64_t max_output_mb = 0;  ///< 0 = the library's default ResourceLimits

  /// Decode ceilings for the d / info commands: the library defaults,
  /// tightened by --max-output-mb when given.
  [[nodiscard]] sperr::ResourceLimits limits() const {
    sperr::ResourceLimits rl = sperr::ResourceLimits::defaults();
    if (max_output_mb > 0) {
      rl.max_output_bytes = max_output_mb << 20;
      if (rl.max_working_bytes > rl.max_output_bytes)
        rl.max_working_bytes = rl.max_output_bytes;
    }
    return rl;
  }

  void set_recover(const std::string& v) {
    have_recover = true;
    if (v == "fail-fast" || v == "fail_fast")
      recover = sperr::Recovery::fail_fast;
    else if (v == "zero" || v == "zero-fill" || v == "zero_fill")
      recover = sperr::Recovery::zero_fill;
    else if (v == "coarse" || v == "coarse-fill" || v == "coarse_fill")
      recover = sperr::Recovery::coarse_fill;
    else
      usage("--recover takes fail-fast, zero or coarse");
  }

  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&](const char* what) -> const char* {
        if (++i >= argc) usage(what);
        return argv[i];
      };
      auto next_int = [&](const char* what) {
        return int(parse_int(next(what), what, INT_MIN, INT_MAX));
      };
      auto next_size = [&](const char* what) {  // a count or extent
        return size_t(parse_int(next(what), what, 0, LLONG_MAX));
      };
      auto next_double = [&](const char* what) { return parse_double(next(what), what); };
      // Up to three extents; the ones after the first are optional.
      auto extents = [&](sperr::Dims& d, const char* what) {
        d.x = next_size(what);
        if (i + 1 < argc && argv[i + 1][0] != '-') d.y = next_size(what);
        if (i + 1 < argc && argv[i + 1][0] != '-') d.z = next_size(what);
      };
      if (a == "--dims") {
        extents(dims, "--dims needs 1 to 3 extents");
        have_dims = true;
      } else if (a == "--type") {
        type = next("--type needs f32|f64");
      } else if (a == "--pwe") {
        pwe = next_double("--pwe needs a tolerance");
      } else if (a == "--idx") {
        idx = next_int("--idx needs an integer");
      } else if (a == "--bpp") {
        bpp = next_double("--bpp needs a rate");
      } else if (a == "--rmse") {
        rmse = next_double("--rmse needs a target");
      } else if (a == "--q-over-t") {
        q_over_t = next_double("--q-over-t needs a value");
      } else if (a == "--chunk") {
        extents(chunk, "--chunk needs 1 to 3 extents");
      } else if (a == "--threads") {
        threads = next_int("--threads needs a count");
      } else if (a == "--intra-threads") {
        intra_threads = next_int("--intra-threads needs a count");
      } else if (a == "--no-lossless") {
        lossless = false;
      } else if (a == "--verify") {
        verify = true;
      } else if (a == "--drop") {
        drop = next_size("--drop needs a level count");
      } else if (a == "--max-output-mb") {
        max_output_mb = next_size("--max-output-mb needs a size >= 0");
        // The ceiling is kept in bytes: a size that overflows them would wrap.
        if (max_output_mb > (UINT64_MAX >> 20)) usage("--max-output-mb is too large");
      } else if (a == "--recover") {
        set_recover(next("--recover needs a policy"));
      } else if (a.rfind("--recover=", 0) == 0) {
        set_recover(a.substr(10));
      } else if (!a.empty() && a[0] == '-') {
        usage(("unknown option " + a).c_str());
      } else {
        positional.push_back(a);
      }
    }
  }
};

/// The raw field in the file's own precision, T = float for f32, double
/// for f64.
template <class T>
std::vector<T> load_field(const std::string& path, const Args& args) {
  const auto bytes = read_file(path);
  std::vector<T> field(args.dims.total());
  if (bytes.size() != field.size() * sizeof(T))
    usage(sizeof(T) == 4 ? "file size does not match --dims for f32"
                         : "file size does not match --dims for f64");
  std::memcpy(field.data(), bytes.data(), bytes.size());
  return field;
}

const char* action_name(sperr::ChunkAction a) {
  switch (a) {
    case sperr::ChunkAction::zeroed: return "zero-filled";
    case sperr::ChunkAction::coarse: return "coarse SPECK-prefix decode";
    case sperr::ChunkAction::dc_fill: return "filled with stored chunk mean";
    default: return "none";
  }
}

/// One line per chunk: verdict, checksum comparison, extent, recovery action.
void print_chunk_reports(const sperr::DecodeReport& rep) {
  for (const auto& c : rep.chunks) {
    std::printf("chunk %4zu: %-15s", c.index, to_string(c.status));
    if (c.checksum_present)
      std::printf(" checksum %s (stored %016llx, computed %016llx)",
                  c.checksum_ok ? "ok " : "BAD",
                  static_cast<unsigned long long>(c.checksum_stored),
                  static_cast<unsigned long long>(c.checksum_computed));
    else
      std::printf(" checksum absent (v%u container)", rep.version);
    std::printf("  offset %llu, %llu+%llu bytes",
                static_cast<unsigned long long>(c.offset),
                static_cast<unsigned long long>(c.speck_len),
                static_cast<unsigned long long>(c.outlier_len));
    if (c.action != sperr::ChunkAction::none)
      std::printf("  -> %s", action_name(c.action));
    std::printf("\n");
  }
  for (const size_t b : rep.lossless_bad_blocks)
    std::printf("lossless block %zu: checksum BAD (payload zero-filled)\n", b);
}

/// Compress a T field (float input gives an f32 container, whose bound
/// holds for the floats a decode hands back); --verify decodes in T.
template <class T>
int compress_field(const Args& args) {
  const auto field = load_field<T>(args.positional[1], args);

  sperr::Config cfg;
  cfg.q_over_t = args.q_over_t;
  cfg.chunk_dims = args.chunk;
  cfg.num_threads = args.threads;
  cfg.intra_chunk_threads = args.intra_threads;
  cfg.lossless_pass = args.lossless;
  if (args.pwe > 0) {
    cfg.mode = sperr::Mode::pwe;
    cfg.tolerance = args.pwe;
  } else if (args.idx >= 0) {
    cfg.mode = sperr::Mode::pwe;
    cfg.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), args.idx);
  } else if (args.bpp > 0) {
    cfg.mode = sperr::Mode::fixed_rate;
    cfg.bpp = args.bpp;
  } else if (args.rmse > 0) {
    cfg.mode = sperr::Mode::target_rmse;
    cfg.rmse = args.rmse;
  } else {
    usage("pick a quality mode: --pwe, --idx, --bpp or --rmse");
  }
  if (const char* why = sperr::pipeline::config_error(args.dims, cfg)) usage(why);

  sperr::Timer timer;
  sperr::Stats stats;
  std::vector<uint8_t> blob;
  try {
    blob = sperr::compress(field.data(), args.dims, cfg, &stats);
  } catch (const std::invalid_argument& e) {
    // The options passed config_error, so the field holds a NaN or Inf;
    // the library's message names its index.
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitCorrupt;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "error: out of memory compressing %s\n",
                 args.positional[1].c_str());
    return kExitResource;
  }
  const double secs = timer.seconds();
  write_file(args.positional[2], blob.data(), blob.size());

  const size_t raw = field.size() * sizeof(T);
  std::printf("%s: %zu -> %zu bytes (%.2fx, %.3f bits/pt) in %.2fs, %zu chunks, %zu outliers\n",
              args.positional[1].c_str(), raw, blob.size(),
              double(raw) / double(blob.size()),
              double(blob.size()) * 8 / double(field.size()), secs,
              stats.num_chunks, stats.num_outliers);

  if (args.verify) {
    std::vector<T> recon;
    sperr::Dims od;
    if (sperr::decompress(blob.data(), blob.size(), recon, od) != sperr::Status::ok) {
      std::fprintf(stderr, "verify: decompression FAILED\n");
      return kExitVerify;
    }
    const auto q = sperr::metrics::compare(field.data(), recon.data(), field.size());
    std::printf("verify: max err %.4g, RMSE %.4g, PSNR %.2f dB", q.max_pwe,
                q.rmse, q.psnr);
    if (cfg.mode == sperr::Mode::pwe) {
      const bool ok = q.max_pwe <= cfg.tolerance;
      std::printf(" — PWE bound %s", ok ? "HELD" : "VIOLATED");
      if (!ok) {
        std::printf("\n");
        return kExitVerify;
      }
    }
    std::printf("\n");
  }
  return kExitOk;
}

int cmd_compress(const Args& args) {
  if (args.positional.size() != 3 || !args.have_dims) usage("compress needs IN OUT --dims");
  if (args.type == "f32") return compress_field<float>(args);
  if (args.type == "f64") return compress_field<double>(args);
  usage("--type must be f32 or f64");
}

/// Decode to T (float for --type f32: each chunk is narrowed as it is
/// decoded, so no double field is held) and write the raw values.
template <class T>
int decompress_field(const Args& args) {
  const auto blob = read_file(args.positional[1]);

  const sperr::ResourceLimits rl = args.limits();
  std::vector<T> field;
  sperr::Dims dims;
  sperr::DecodeReport rep;
  sperr::Status s;
  if (args.drop) {
    s = sperr::decompress_lowres(blob.data(), blob.size(), args.drop, field, dims,
                                 &rl);
  } else {
    s = sperr::decompress_tolerant(blob.data(), blob.size(), args.recover, field,
                                   dims, &rep, &rl);
    if (args.have_recover) {
      print_chunk_reports(rep);
      if (rep.damaged > 0)
        std::printf("%zu of %zu chunk(s) damaged, %zu recovered (policy %s)\n",
                    rep.damaged, rep.chunks.size(), rep.recovered,
                    args.recover == sperr::Recovery::zero_fill   ? "zero"
                    : args.recover == sperr::Recovery::coarse_fill ? "coarse"
                                                                   : "fail-fast");
    }
  }
  if (s == sperr::Status::resource_exhausted) {
    std::fprintf(stderr,
                 "error: container declares more output than the resource "
                 "limits admit (%s); raise --max-output-mb only for trusted "
                 "inputs\n",
                 to_string(s));
    return kExitResource;
  }
  if (s != sperr::Status::ok) {
    std::fprintf(stderr, "error: decompression failed (%s)\n", to_string(s));
    return kExitCorrupt;
  }

  write_file(args.positional[2], field.data(), field.size() * sizeof(T));
  std::printf("%s: %s %s -> %s\n", args.positional[1].c_str(),
              dims.to_string().c_str(), sizeof(T) == 4 ? "floats" : "doubles",
              args.positional[2].c_str());
  return kExitOk;
}

int cmd_decompress(const Args& args) {
  if (args.positional.size() != 3) usage("decompress needs IN OUT");
  if (args.drop && args.have_recover)
    usage("--drop and --recover cannot be combined");
  if (args.type == "f32") return decompress_field<float>(args);
  if (args.type == "f64") return decompress_field<double>(args);
  usage("--type must be f32 or f64");
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 2) usage("info needs IN");
  const auto blob = read_file(args.positional[1]);

  // Open as a strict decode does, and admit a decode of the field at the
  // container's precision through the decoders' own admission.
  const sperr::ResourceLimits rl = args.limits();
  sperr::detail::OpenedContainer oc;
  sperr::DecodeReport open_rep;
  sperr::Reservation hold;
  sperr::Status os = sperr::detail::open_tolerant(
      blob.data(), blob.size(), sperr::Recovery::fail_fast, oc, &open_rep, &rl);
  if (os == sperr::Status::ok)
    os = sperr::detail::admit_decode(
        oc, uint64_t(oc.hdr.dims.total()) * oc.hdr.precision, 0,
        sperr::detail::decode_workers(oc), &rl, hold);
  if (os == sperr::Status::resource_exhausted) {
    std::fprintf(stderr,
                 "error: container declares more data than the resource limits "
                 "admit (decompression bomb?)\n");
    return kExitResource;
  }
  if (os == sperr::Status::corrupt_block) {
    std::fprintf(stderr, "error: lossless block %zu failed its checksum\n",
                 open_rep.lossless_bad_blocks.front());
    return kExitCorrupt;
  }
  if (os != sperr::Status::ok) {
    std::fprintf(stderr, "error: not a SPERR container or corrupt header (%s)\n",
                 to_string(os));
    return kExitCorrupt;
  }
  const sperr::ContainerHeader& hdr = oc.hdr;
  const char* mode = hdr.mode == sperr::Mode::pwe ? "pwe"
                     : hdr.mode == sperr::Mode::fixed_rate ? "fixed-rate"
                                                           : "target-rmse";
  std::printf("version:     %u (%s)\n", hdr.version,
              hdr.has_integrity() ? "per-chunk checksums"
                                  : "legacy, lengths only");
  std::printf("dims:        %s (%s input)\n", hdr.dims.to_string().c_str(),
              hdr.precision == 4 ? "f32" : "f64");
  std::printf("mode:        %s (quality parameter %.6g)\n", mode, hdr.quality);
  std::printf("chunks:      %zu (preferred %s)\n", hdr.entries.size(),
              hdr.chunk_dims.to_string().c_str());
  size_t speck = 0, outl = 0;
  for (const auto& e : hdr.entries) {
    speck += size_t(e.speck_len);
    outl += size_t(e.outlier_len);
  }
  std::printf("streams:     %zu bytes SPECK, %zu bytes outlier corrections\n",
              speck, outl);
  std::printf("container:   %zu bytes (%.3f bits/pt)\n", blob.size(),
              double(blob.size()) * 8 / double(hdr.dims.total()));

  // Byte 5 of the outer wrapper is the lossless flag; the lossless payload
  // (when present) starts right after the wrapper.
  constexpr size_t kOuterBytes = sperr::ContainerHeader::kOuterBytes;
  if (blob[5] == 1) {
    sperr::lossless::StreamInfo li;
    if (sperr::lossless::inspect(blob.data() + kOuterBytes, blob.size() - kOuterBytes,
                                 li) == sperr::Status::ok &&
        li.blocked) {
      size_t by_tag[3] = {};
      for (const auto& b : li.blocks)
        ++by_tag[b.mode < 3 ? b.mode : sperr::lossless::kEntropyRaw];
      std::printf(
          "lossless:    %zu block(s) of %zu KiB (%zu raw / %zu huffman / %zu arith), "
          "checksummed\n",
          li.blocks.size(), li.block_size >> 10, by_tag[sperr::lossless::kEntropyRaw],
          by_tag[sperr::lossless::kEntropyHuffman], by_tag[sperr::lossless::kEntropyArith]);
    } else {
      std::printf("lossless:    single-block reference framing (no checksums)\n");
    }
  }

  if (args.verify) {
    sperr::DecodeReport rep;
    const sperr::Status vs =
        sperr::verify_container(blob.data(), blob.size(), &rep, &rl);
    if (vs == sperr::Status::resource_exhausted) {
      std::fprintf(stderr, "verify: refused, resource limits exceeded\n");
      return kExitResource;
    }
    print_chunk_reports(rep);
    if (vs != sperr::Status::ok) {
      std::fprintf(stderr, "verify: archive is damaged (%s)\n", to_string(vs));
      return kExitCorrupt;
    }
    std::printf("verify: all %zu chunk(s) intact\n", rep.chunks.size());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.positional.empty()) usage();
  const std::string& cmd = args.positional[0];
  if (cmd == "c") return cmd_compress(args);
  if (cmd == "d") return cmd_decompress(args);
  if (cmd == "info") return cmd_info(args);
  usage(("unknown command " + cmd).c_str());
}
