#include "sperr/outofcore.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
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

/// EINTR-safe full pread or pwrite (`io`) of `n` bytes at file offset `offset`.
template <typename Io, typename Byte>
bool full_io(Io io, int fd, Byte* p, size_t n, uint64_t offset) {
  while (n > 0) {
    const ssize_t done = io(fd, p, n, off_t(offset));
    if (done > 0) {
      p += done;
      n -= size_t(done);
      offset += uint64_t(done);
    } else if (done == 0 || errno != EINTR) {
      return false;  // end of file, or an I/O error
    }
  }
  return true;
}

/// pread or pwrite (`io`) the rows of chunk `c` of a raw `vol` field of
/// `precision`-byte samples, from or to `raw`, which holds the chunk's
/// samples at that precision, x-fastest.
template <typename Io, typename Byte>
bool chunk_rows(Io io, int fd, Dims vol, int precision, const Chunk& c, Byte* raw) {
  const size_t p = size_t(precision);
  for (size_t z = 0; z < c.dims.z; ++z)
    for (size_t y = 0; y < c.dims.y; ++y)
      if (!full_io(io, fd, raw + c.dims.index(0, y, z) * p, c.dims.x * p,
                   vol.index(c.origin.x, c.origin.y + y, c.origin.z + z) * p))
        return false;
  return true;
}

/// A file opened read-only and its size, closed on scope exit; fd < 0 when
/// the open failed.
struct InputFile {
  const int fd;
  uint64_t size = 0;
  explicit InputFile(const std::string& path) : fd(::open(path.c_str(), O_RDONLY)) {
    struct stat st{};
    if (fd >= 0 && ::fstat(fd, &st) == 0) size = uint64_t(st.st_size);
  }
  InputFile(const InputFile&) = delete;
  ~InputFile() {
    if (fd >= 0) ::close(fd);
  }
};

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

}  // namespace

Status compress_file(const std::string& in_path, Dims dims, int precision,
                     const Config& cfg, const std::string& out_path,
                     Stats* stats) try {
  if ((precision != 4 && precision != 8) || pipeline::config_error(dims, cfg))
    return Status::invalid_argument;
  const InputFile in(in_path);
  if (in.fd < 0 || in.size != dims.total() * uint64_t(precision))
    return Status::invalid_argument;

  // The in-memory chunk loop, with each worker reading its chunk into its
  // own arena: f64 rows land in the coded buffer, f32 rows are widened.
  std::vector<uint8_t> blob;
  if (const Status s = pipeline::compress_chunks(
          dims, cfg, uint8_t(precision),
          [&](const Chunk& c, Arena& arena) {
            const Chunk box{{0, 0, 0}, c.dims};
            double* buf = arena.alloc<double>(c.dims.total());
            float* f32 = precision == 4 ? arena.alloc<float>(c.dims.total()) : nullptr;
            void* raw = f32 ? static_cast<void*>(f32) : buf;
            if (!chunk_rows(::pread, in.fd, dims, precision, c, static_cast<uint8_t*>(raw)))
              return pipeline::ChunkView{};
            if (f32) gather_chunk(f32, c.dims, box, buf);
            return pipeline::ChunkView{buf, c.dims, box};
          },
          blob, stats);
      s != Status::ok)
    return s;

  return write_staged(out_path, [&](int fd) {
    const size_t half = blob.size() / 2;
    if (!full_io(::pwrite, fd, blob.data(), half, 0)) return Status::invalid_argument;
    crash_point("tmp_partial");
    return full_io(::pwrite, fd, blob.data() + half, blob.size() - half, half)
               ? Status::ok
               : Status::invalid_argument;
  });
} catch (const std::bad_alloc&) {
  return Status::resource_exhausted;
}

Status decompress_file(const std::string& in_path, const std::string& out_path,
                       int precision, Recovery policy, DecodeReport* report,
                       const ResourceLimits* limits) try {
  DecodeReport local;
  DecodeReport& rep = report ? *report : local;
  rep = DecodeReport{};
  rep.policy = policy;
  if (precision != 4 && precision != 8) return rep.status = Status::invalid_argument;

  // Read the container in one sized read, open it, and drop the raw bytes:
  // the opened container keeps its own unwrapped copy.
  sperr::detail::OpenedContainer oc;
  {
    const InputFile in(in_path);
    if (in.fd < 0) return rep.status = Status::invalid_argument;
    std::vector<uint8_t> blob(in.size);
    if (!full_io(::pread, in.fd, blob.data(), blob.size(), 0))
      return rep.status = Status::invalid_argument;
    if (const Status s = sperr::detail::open_tolerant(blob.data(), blob.size(), policy,
                                                      oc, &rep, limits);
        s != Status::ok)
      return rep.status = s;
  }

  // The header extents size the pre-allocated temp file below (a disk
  // bomb) and the chunks in flight (a memory bomb): admit both before
  // touching either.
  const uint64_t out_bytes = uint64_t(oc.hdr.dims.total()) * uint64_t(precision);
  Reservation budget_hold;
  if (sperr::detail::admit_decode(oc, out_bytes, /*held_bytes=*/0,
                                  sperr::detail::decode_workers(oc), limits,
                                  budget_hold) != Status::ok)
    return rep.status = Status::resource_exhausted;

  // The in-memory chunk loop, with each worker writing its chunk's rows at
  // their offsets in the staged file. The file only replaces the
  // destination once every chunk landed, so a crash mid-decode (or a
  // fail_fast verdict) never leaves a torn raw field at out_path.
  std::atomic<bool> write_failed{false};
  const Status ws = write_staged(out_path, [&](int fd) {
    if (::ftruncate(fd, off_t(out_bytes)) != 0) return Status::invalid_argument;
    const Status ds = sperr::detail::decode_chunks(
        oc, policy, rep, [&](size_t i, double* buf) {
          const Chunk& c = oc.chunks[i];
          auto* raw = reinterpret_cast<uint8_t*>(buf);
          // Narrow in place: float k lands in double k/2, already read.
          if (precision == 4)
            for (size_t k = 0; k < c.dims.total(); ++k) {
              const float f = float(buf[k]);
              std::memcpy(raw + k * sizeof(float), &f, sizeof(float));
            }
          if (!chunk_rows(::pwrite, fd, oc.hdr.dims, precision, c, raw))
            write_failed = true;
          if (i == 0) crash_point("tmp_partial");
        });
    return ds != Status::ok ? ds : write_failed ? Status::invalid_argument : Status::ok;
  });
  rep.field_valid = ws == Status::ok;
  return rep.status = ws;
} catch (const std::bad_alloc&) {
  if (report) report->status = Status::resource_exhausted;
  return Status::resource_exhausted;
}

}  // namespace sperr::outofcore
