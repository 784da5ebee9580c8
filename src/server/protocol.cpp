#include "server/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fcntl.h>
#include <poll.h>

#include <cerrno>
#include <cstring>

#include "common/byteio.h"
#include "common/timer.h"

namespace sperr::server {

void put_frame_header(std::vector<uint8_t>& out, uint32_t magic, uint8_t code,
                      uint64_t request_id, uint64_t body_len) {
  put_u32(out, magic);
  put_u8(out, kProtocolVersion);
  put_u8(out, code);
  put_u16(out, 0);  // reserved
  put_u64(out, request_id);
  put_u64(out, body_len);
}

FrameHeader parse_frame_header(const uint8_t* bytes) {
  ByteReader br(bytes, kFrameHeaderBytes);
  FrameHeader h;
  h.magic = br.u32();
  h.version = br.u8();
  h.code = br.u8();
  h.reserved = br.u16();
  h.request_id = br.u64();
  h.body_len = br.u64();
  return h;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

namespace {

/// Wait for `events` on `fd` with at most `remain_ms` (< 0 = forever),
/// EINTR-safe. Returns > 0 when ready, 0 on poll timeout, < 0 on error.
int poll_wait(int fd, short events, int remain_ms) {
  sperr::Timer waited;
  for (;;) {
    int budget = remain_ms;
    if (remain_ms >= 0) {
      budget = remain_ms - int(waited.milliseconds());
      if (budget < 0) budget = 0;
    }
    pollfd pf{fd, events, 0};
    const int r = ::poll(&pf, 1, budget);
    if (r >= 0) return r;
    if (errno != EINTR) return -1;
    // EINTR: loop with the remaining budget.
  }
}

}  // namespace

IoOutcome read_exact_deadline(int fd, void* buf, size_t n, int timeout_ms,
                              int first_byte_timeout_ms) {
  char* p = static_cast<char*>(buf);
  bool first = true;
  sperr::Timer budget;  // reset when the first byte arrives
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      if (first) {
        first = false;
        budget.reset();  // idle wait over: the rest gets a fresh I/O budget
      }
      p += got;
      n -= size_t(got);
      continue;
    }
    if (got == 0) return IoOutcome::closed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoOutcome::failed;
    const int limit =
        (first && first_byte_timeout_ms >= 0) ? first_byte_timeout_ms : timeout_ms;
    int remain = -1;
    if (limit >= 0) {
      remain = limit - int(budget.milliseconds());
      if (remain <= 0) return IoOutcome::timed_out;
    }
    const int pr = poll_wait(fd, POLLIN, remain);
    if (pr < 0) return IoOutcome::failed;
    if (pr == 0 && limit >= 0 && budget.milliseconds() >= double(limit))
      return IoOutcome::timed_out;
    // Ready (or spurious wakeup): recv again; it reports EOF/errors itself.
  }
  return IoOutcome::ok;
}

IoOutcome write_all_deadline(int fd, const void* buf, size_t n, int timeout_ms) {
  const char* p = static_cast<const char*>(buf);
  sperr::Timer budget;
  while (n > 0) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put > 0) {
      p += put;
      n -= size_t(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
      return IoOutcome::failed;
    int remain = -1;
    if (timeout_ms >= 0) {
      remain = timeout_ms - int(budget.milliseconds());
      if (remain <= 0) return IoOutcome::timed_out;
    }
    const int pr = poll_wait(fd, POLLOUT, remain);
    if (pr < 0) return IoOutcome::failed;
    if (pr == 0 && timeout_ms >= 0 && budget.milliseconds() >= double(timeout_ms))
      return IoOutcome::timed_out;
  }
  return IoOutcome::ok;
}

int connect_loopback_deadline(uint16_t port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    if (poll_wait(fd, POLLOUT, timeout_ms) <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool exchange(int fd, Opcode op, uint64_t request_id,
              const std::vector<uint8_t>& body, FrameHeader& reply_hdr,
              std::vector<uint8_t>& reply_body, size_t max_body, int timeout_ms) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  put_frame_header(frame, kRequestMagic, uint8_t(op), request_id, body.size());
  frame.insert(frame.end(), body.begin(), body.end());
  sperr::Timer op_clock;
  if (write_all_deadline(fd, frame.data(), frame.size(), timeout_ms) != IoOutcome::ok)
    return false;
  // The whole exchange shares one budget: whatever the send consumed is no
  // longer available to the reply wait.
  auto remain = [&] {
    if (timeout_ms < 0) return -1;
    const int r = timeout_ms - int(op_clock.milliseconds());
    return r > 0 ? r : 0;
  };
  uint8_t raw[kFrameHeaderBytes];
  if (read_exact_deadline(fd, raw, sizeof raw, remain()) != IoOutcome::ok) return false;
  reply_hdr = parse_frame_header(raw);
  if (reply_hdr.magic != kReplyMagic || reply_hdr.body_len > max_body) return false;
  reply_body.resize(size_t(reply_hdr.body_len));
  if (reply_hdr.body_len > 0 &&
      read_exact_deadline(fd, reply_body.data(), reply_body.size(), remain()) !=
          IoOutcome::ok)
    return false;
  return reply_hdr.request_id == request_id;
}

std::vector<uint8_t> build_compress_body(const sperr::Config& cfg, Dims dims,
                                         const double* samples, uint8_t flags) {
  double quality = cfg.tolerance;
  if (cfg.mode == Mode::fixed_rate) quality = cfg.bpp;
  if (cfg.mode == Mode::target_rmse) quality = cfg.rmse;
  if (!cfg.lossless_pass) flags |= kCompressFlagNoLossless;
  std::vector<uint8_t> body;
  body.reserve(kCompressBodyHeaderBytes + dims.total() * sizeof(double));
  put_u8(body, uint8_t(cfg.mode));
  put_u8(body, 8);  // f64 samples
  put_u8(body, flags);
  put_u8(body, 0);  // reserved
  put_f64(body, quality);
  put_f64(body, cfg.q_over_t);
  put_u64(body, dims.x);
  put_u64(body, dims.y);
  put_u64(body, dims.z);
  put_u64(body, cfg.chunk_dims.x);
  put_u64(body, cfg.chunk_dims.y);
  put_u64(body, cfg.chunk_dims.z);
  const auto* raw = reinterpret_cast<const uint8_t*>(samples);
  body.insert(body.end(), raw, raw + dims.total() * sizeof(double));
  return body;
}

std::vector<uint8_t> build_decompress_body(uint8_t policy, uint8_t precision,
                                           const uint8_t* container, size_t size) {
  std::vector<uint8_t> body;
  body.reserve(kDecompressBodyHeaderBytes + size);
  put_u8(body, policy);
  put_u8(body, precision);
  put_u16(body, 0);  // reserved
  body.insert(body.end(), container, container + size);
  return body;
}

std::vector<uint8_t> build_extract_body(uint32_t chunk_index,
                                        const uint8_t* container, size_t size) {
  std::vector<uint8_t> body;
  body.reserve(kExtractBodyHeaderBytes + size);
  put_u32(body, chunk_index);
  body.insert(body.end(), container, container + size);
  return body;
}

}  // namespace sperr::server
