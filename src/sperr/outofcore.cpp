#include "sperr/outofcore.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/arena.h"
#include "common/byteio.h"
#include "common/checksum.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/pipeline.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

namespace sperr::outofcore {

namespace detail {
namespace {
CrashHook g_crash_hook = nullptr;
}
void set_crash_hook(CrashHook hook) { g_crash_hook = hook; }
}  // namespace detail

namespace {

void crash_point(const char* stage) {
  if (detail::g_crash_hook) detail::g_crash_hook(stage);
}

/// EINTR-safe full write to a descriptor.
bool write_fd(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t put = ::write(fd, data, n);
    if (put > 0) {
      data += put;
      n -= size_t(put);
    } else if (put < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

/// fsync the directory containing `path` so the rename itself is durable
/// (a crashed kernel may otherwise forget the directory entry while
/// keeping the inode). Best effort on filesystems without dirsync.
void fsync_parent_dir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

/// Publish `blob` at `out_path` atomically: <out_path>.tmp + fsync +
/// rename + directory fsync. A crash anywhere leaves the destination
/// absent, its old content, or the full new content — never a torn file.
Status atomic_write_file(const std::string& out_path,
                         const uint8_t* data, size_t size) {
  const std::string tmp = out_path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::invalid_argument;
  crash_point("tmp_open");
  const size_t half = size / 2;
  bool ok = write_fd(fd, data, half);
  if (ok) crash_point("tmp_partial");
  ok = ok && write_fd(fd, data + half, size - half);
  if (ok) crash_point("tmp_written");
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    return Status::invalid_argument;
  }
  crash_point("tmp_synced");
  if (::rename(tmp.c_str(), out_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::invalid_argument;
  }
  crash_point("renamed");
  fsync_parent_dir(out_path);
  crash_point("dir_synced");
  return Status::ok;
}

/// Read one chunk from a raw field file into `out` (doubles), row by row.
bool read_chunk(std::ifstream& in, Dims vol, int precision, const Chunk& c,
                std::vector<double>& out) {
  out.resize(c.dims.total());
  const size_t row_elems = c.dims.x;
  std::vector<char> row(row_elems * size_t(precision));
  for (size_t z = 0; z < c.dims.z; ++z)
    for (size_t y = 0; y < c.dims.y; ++y) {
      const uint64_t offset =
          vol.index(c.origin.x, c.origin.y + y, c.origin.z + z) *
          uint64_t(precision);
      in.seekg(std::streamoff(offset));
      if (!in.read(row.data(), std::streamsize(row.size()))) return false;
      double* dst = out.data() + c.dims.index(0, y, z);
      if (precision == 4) {
        const float* p = reinterpret_cast<const float*>(row.data());
        for (size_t x = 0; x < row_elems; ++x) dst[x] = double(p[x]);
      } else {
        const double* p = reinterpret_cast<const double*>(row.data());
        for (size_t x = 0; x < row_elems; ++x) dst[x] = p[x];
      }
    }
  return true;
}

/// Write one decoded chunk into a raw field file, row by row.
bool write_chunk(std::fstream& out, Dims vol, int precision, const Chunk& c,
                 const std::vector<double>& data) {
  const size_t row_elems = c.dims.x;
  std::vector<char> row(row_elems * size_t(precision));
  for (size_t z = 0; z < c.dims.z; ++z)
    for (size_t y = 0; y < c.dims.y; ++y) {
      const double* src = data.data() + c.dims.index(0, y, z);
      if (precision == 4) {
        float* p = reinterpret_cast<float*>(row.data());
        for (size_t x = 0; x < row_elems; ++x) p[x] = float(src[x]);
      } else {
        double* p = reinterpret_cast<double*>(row.data());
        for (size_t x = 0; x < row_elems; ++x) p[x] = src[x];
      }
      const uint64_t offset =
          vol.index(c.origin.x, c.origin.y + y, c.origin.z + z) *
          uint64_t(precision);
      out.seekp(std::streamoff(offset));
      if (!out.write(row.data(), std::streamsize(row.size()))) return false;
    }
  return true;
}

}  // namespace

Status compress_file(const std::string& in_path, Dims dims, int precision,
                     const Config& cfg, const std::string& out_path,
                     Stats* stats) {
  if ((precision != 4 && precision != 8) || pipeline::config_error(dims, cfg))
    return Status::invalid_argument;

  std::ifstream in(in_path, std::ios::binary | std::ios::ate);
  if (!in) return Status::invalid_argument;
  const uint64_t file_size = uint64_t(in.tellg());
  if (file_size != dims.total() * uint64_t(precision))
    return Status::invalid_argument;

  const auto chunks = make_chunks(dims, cfg.chunk_dims);
  std::vector<pipeline::ChunkStream> streams(chunks.size());

  // One chunk resident at a time: this loop is deliberately serial over
  // chunks (the input file is the bottleneck); in-memory compression keeps
  // the chunk-parallel OpenMP path.
  std::vector<double> buf;
  std::vector<double> means(chunks.size(), 0.0);
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (!read_chunk(in, dims, precision, chunks[i], buf))
      return Status::truncated_stream;
    double sum = 0.0;
    for (const double v : buf) sum += v;
    means[i] = sum / double(buf.size());
    if (cfg.mode == Mode::pwe) {
      streams[i] =
          pipeline::encode_pwe(buf.data(), chunks[i].dims, cfg.tolerance, cfg.q_over_t);
    } else if (cfg.mode == Mode::target_rmse) {
      streams[i] = pipeline::encode_target_rmse(buf.data(), chunks[i].dims, cfg.rmse);
    } else {
      streams[i] = pipeline::encode_fixed_rate(
          buf.data(), chunks[i].dims,
          pipeline::fixed_rate_budget(cfg.bpp, chunks[i].dims));
    }
  }

  ContainerHeader hdr;
  hdr.mode = cfg.mode;
  hdr.precision = uint8_t(precision);
  hdr.dims = dims;
  hdr.chunk_dims = cfg.chunk_dims;
  hdr.quality = cfg.mode == Mode::pwe ? cfg.tolerance
                : cfg.mode == Mode::target_rmse ? cfg.rmse
                                                : cfg.bpp;
  std::vector<uint8_t> cat;  // scratch to hash speck‖outlier contiguously
  for (size_t i = 0; i < streams.size(); ++i) {
    const auto& s = streams[i];
    ChunkEntry e(s.speck.size(), s.outlier.size());
    if (s.outlier.empty()) {
      e.checksum = xxhash64(s.speck.data(), s.speck.size());
    } else {
      cat.assign(s.speck.begin(), s.speck.end());
      cat.insert(cat.end(), s.outlier.begin(), s.outlier.end());
      e.checksum = xxhash64(cat.data(), cat.size());
    }
    e.mean = means[i];
    hdr.entries.push_back(e);
  }

  std::vector<uint8_t> inner;
  hdr.serialize(inner);
  for (auto& s : streams) {
    inner.insert(inner.end(), s.speck.begin(), s.speck.end());
    inner.insert(inner.end(), s.outlier.begin(), s.outlier.end());
  }
  const auto blob = wrap_container(std::move(inner), cfg.lossless_pass,
                                   {cfg.lossless_block_size, cfg.num_threads});

  if (const Status ws = atomic_write_file(out_path, blob.data(), blob.size());
      ws != Status::ok)
    return ws;

  if (stats) {
    *stats = Stats{};
    stats->compressed_bytes = blob.size();
    stats->num_chunks = chunks.size();
    for (const auto& s : streams) {
      stats->speck_bytes += s.speck.size();
      stats->outlier_bytes += s.outlier.size();
      stats->num_outliers += s.num_outliers;
      stats->timing += s.timing;
    }
    stats->bpp = double(blob.size()) * 8.0 / double(dims.total());
  }
  return Status::ok;
}

Status decompress_file(const std::string& in_path, const std::string& out_path,
                       int precision) {
  return decompress_file(in_path, out_path, precision, Recovery::fail_fast);
}

Status decompress_file(const std::string& in_path, const std::string& out_path,
                       int precision, Recovery policy, DecodeReport* report,
                       const ResourceLimits* limits) try {
  DecodeReport local;
  DecodeReport& rep = report ? *report : local;
  rep = DecodeReport{};
  rep.policy = policy;
  if (precision != 4 && precision != 8) return Status::invalid_argument;

  std::ifstream in(in_path, std::ios::binary);
  if (!in) return Status::invalid_argument;
  const std::vector<uint8_t> blob{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};

  // Same fault-isolated core as the in-memory decoder; only the chunk loop
  // differs (serial, one decoded chunk resident, streamed to disk).
  sperr::detail::OpenedContainer oc;
  if (const Status s = sperr::detail::open_tolerant(blob.data(), blob.size(),
                                                    policy, oc, &rep, limits);
      s != Status::ok) {
    rep.status = s;
    return s;
  }

  // The header extents size the pre-allocated temp file below (a disk
  // bomb) and the per-chunk decode buffer (a memory bomb): admit both
  // before touching either. One chunk of doubles is the working set.
  const ResourceLimits& rl = effective_limits(limits);
  const uint64_t out_bytes = uint64_t(oc.hdr.dims.total()) * uint64_t(precision);
  uint64_t chunk_bytes = 0;
  for (const Chunk& c : oc.chunks)
    chunk_bytes =
        std::max<uint64_t>(chunk_bytes, uint64_t(c.dims.total()) * sizeof(double));
  Reservation budget_hold;
  if (!rl.admits_output(out_bytes) || !rl.admits_working(chunk_bytes) ||
      !budget_hold.acquire(rl.budget, chunk_bytes)) {
    rep.status = Status::resource_exhausted;
    return rep.status;
  }

  // Pre-size a temp file, fill it chunk by chunk, and only rename it over
  // the destination once every chunk landed — a crash mid-decode (or a
  // fail_fast abort) never leaves a torn raw field at out_path.
  const std::string tmp_path = out_path + ".tmp";
  {
    std::ofstream create(tmp_path, std::ios::binary);
    if (!create) return Status::invalid_argument;
    create.seekp(
        std::streamoff(oc.hdr.dims.total() * uint64_t(precision) - 1));
    create.put('\0');
    if (!create) return Status::invalid_argument;
  }
  crash_point("tmp_open");
  {
    std::fstream out(tmp_path,
                     std::ios::binary | std::ios::in | std::ios::out);
    if (!out) {
      ::unlink(tmp_path.c_str());
      return Status::invalid_argument;
    }

    rep.chunks.resize(oc.chunks.size());
    std::vector<double> buf;
    Arena& arena = tls_arena();
    for (size_t i = 0; i < oc.chunks.size(); ++i) {
      buf.assign(oc.chunks[i].dims.total(), 0.0);
      arena.reset();
      rep.chunks[i] = sperr::detail::decode_chunk(oc, i, policy, buf.data(), &arena);
      if (rep.chunks[i].damaged()) {
        ++rep.damaged;
        if (rep.chunks[i].action != ChunkAction::none) ++rep.recovered;
        if (policy == Recovery::fail_fast) {
          // Serial and in order, so this is the lowest damaged index.
          rep.chunks.resize(i + 1);
          rep.status = rep.chunks[i].status;
          out.close();
          ::unlink(tmp_path.c_str());
          return rep.status;
        }
      }
      if (!write_chunk(out, oc.hdr.dims, precision, oc.chunks[i], buf)) {
        out.close();
        ::unlink(tmp_path.c_str());
        return Status::invalid_argument;
      }
      if (i == 0) crash_point("tmp_partial");
    }
    out.flush();
    if (!out) {
      out.close();
      ::unlink(tmp_path.c_str());
      return Status::invalid_argument;
    }
  }
  crash_point("tmp_written");
  {
    const int fd = ::open(tmp_path.c_str(), O_WRONLY);
    const bool synced = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!synced) {
      ::unlink(tmp_path.c_str());
      return Status::invalid_argument;
    }
  }
  crash_point("tmp_synced");
  if (::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::invalid_argument;
  }
  crash_point("renamed");
  fsync_parent_dir(out_path);
  crash_point("dir_synced");
  rep.status = Status::ok;
  rep.field_valid = true;
  return Status::ok;
} catch (const std::bad_alloc&) {
  if (report) report->status = Status::resource_exhausted;
  return Status::resource_exhausted;
}

}  // namespace sperr::outofcore
