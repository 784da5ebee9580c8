#include "sperr/outofcore.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <new>
#include <vector>

#include "common/arena.h"
#include "sperr/chunker.h"
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

/// EINTR-safe full write of `n` bytes at file offset `offset`.
bool write_at(int fd, const void* data, size_t n, uint64_t offset) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    const ssize_t put = ::pwrite(fd, p, n, off_t(offset));
    if (put > 0) {
      p += put;
      n -= size_t(put);
      offset += uint64_t(put);
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

/// The staged-file writer behind both compress_file and decompress_file:
/// `fill(fd)` writes the content into a fresh `<out_path>.tmp` (firing the
/// "tmp_partial" crash point once part of it is down), then the file is
/// fsync()ed, renamed over the destination and the directory fsync()ed.
/// A crash anywhere leaves the destination absent, its old content, or the
/// full new content — never a torn file. Any failure, including a non-ok
/// status from `fill` (resource_exhausted when it runs out of memory),
/// unlinks the temp file and is returned.
template <typename Fill>
Status write_staged(const std::string& out_path, Fill&& fill) {
  const std::string tmp = out_path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::invalid_argument;
  crash_point("tmp_open");
  Status s = Status::ok;
  try {
    s = fill(fd);
  } catch (const std::bad_alloc&) {
    s = Status::resource_exhausted;
  }
  if (s == Status::ok) {
    crash_point("tmp_written");
    if (::fsync(fd) != 0) s = Status::invalid_argument;
  }
  ::close(fd);
  if (s == Status::ok) {
    crash_point("tmp_synced");
    if (::rename(tmp.c_str(), out_path.c_str()) != 0) s = Status::invalid_argument;
  }
  if (s != Status::ok) {
    ::unlink(tmp.c_str());
    return s;
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
bool write_chunk(int fd, Dims vol, int precision, const Chunk& c,
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
      if (!write_at(fd, row.data(), row.size(), offset)) return false;
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
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (!read_chunk(in, dims, precision, chunks[i], buf))
      return Status::truncated_stream;
    const Dims cd = chunks[i].dims;  // the buffer is a one-chunk volume
    if (const Status s = pipeline::encode_chunk(buf.data(), cd, Chunk{{0, 0, 0}, cd}, cfg,
                                                streams[i], nullptr, 1, precision == 4);
        s != Status::ok)
      return s;
  }
  const auto blob = pipeline::write_container(streams, dims, uint8_t(precision), cfg, stats);

  return write_staged(out_path, [&](int fd) {
    const size_t half = blob.size() / 2;
    if (!write_at(fd, blob.data(), half, 0)) return Status::invalid_argument;
    crash_point("tmp_partial");
    return write_at(fd, blob.data() + half, blob.size() - half, half)
               ? Status::ok
               : Status::invalid_argument;
  });
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
  const uint64_t chunk_bytes =
      uint64_t(largest_chunk(oc.hdr.dims, oc.hdr.chunk_dims).total()) * sizeof(double);
  Reservation budget_hold;
  if (!rl.admits_output(out_bytes) || !rl.admits_working(chunk_bytes) ||
      !budget_hold.acquire(rl.budget, chunk_bytes)) {
    rep.status = Status::resource_exhausted;
    return rep.status;
  }

  // Fill the staged file chunk by chunk; it only replaces the destination
  // once every chunk landed — a crash mid-decode (or a fail_fast abort)
  // never leaves a torn raw field at out_path.
  const Status ws = write_staged(out_path, [&](int fd) {
    if (::ftruncate(fd, off_t(out_bytes)) != 0) return Status::invalid_argument;
    rep.chunks.resize(oc.chunks.size());
    std::vector<double> buf;
    Arena& arena = tls_arena();
    for (size_t i = 0; i < oc.chunks.size(); ++i) {
      buf.resize(oc.chunks[i].dims.total());
      arena.reset();
      rep.chunks[i] = sperr::detail::decode_chunk(oc, i, policy, buf.data(), &arena);
      if (rep.chunks[i].damaged()) {
        ++rep.damaged;
        if (rep.chunks[i].action != ChunkAction::none) ++rep.recovered;
        if (policy == Recovery::fail_fast) {
          // Serial and in order, so this is the lowest damaged index.
          rep.chunks.resize(i + 1);
          rep.status = rep.chunks[i].status;
          return rep.status;
        }
      }
      if (!write_chunk(fd, oc.hdr.dims, precision, oc.chunks[i], buf))
        return Status::invalid_argument;
      if (i == 0) crash_point("tmp_partial");
    }
    return Status::ok;
  });
  rep.status = ws;
  rep.field_valid = ws == Status::ok;
  return ws;
} catch (const std::bad_alloc&) {
  if (report) report->status = Status::resource_exhausted;
  return Status::resource_exhausted;
}

}  // namespace sperr::outofcore
