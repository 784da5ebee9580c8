#include "testkit/chaosproxy.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "server/protocol.h"
#include "testkit/loopback.h"

namespace sperr::server {

std::vector<FaultEvent> make_fault_plan(const ChaosConfig& cfg,
                                        uint64_t conn_index) {
  // Mix the connection index into the seed with a splitmix-style constant
  // so consecutive connections get decorrelated plans while (seed, index)
  // stays perfectly reproducible.
  Rng rng(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (conn_index + 1)));
  std::vector<FaultEvent> plan;
  for (const bool upstream : {true, false}) {
    const uint64_t n = rng.below(uint64_t(std::max(0, cfg.max_events_per_conn)) + 1);
    for (uint64_t i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.upstream = upstream;
      ev.at_byte = rng.below(cfg.offset_window ? cfg.offset_window : 1);
      ev.kind = FaultKind(rng.below(5));
      if (ev.kind == FaultKind::split_write)
        ev.param = 1 + int(rng.below(uint64_t(std::max(1, cfg.split_run_max))));
      else if (ev.kind == FaultKind::stall)
        ev.param = cfg.stall_ms_min +
                   int(rng.below(uint64_t(std::max(
                       1, cfg.stall_ms_max - cfg.stall_ms_min + 1))));
      plan.push_back(ev);
    }
  }
  // Stable order within each direction: the pump consumes events in
  // forwarded-byte order.
  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.upstream != b.upstream) return a.upstream;
                     return a.at_byte < b.at_byte;
                   });
  return plan;
}

struct ChaosProxy::Impl {
  explicit Impl(ChaosConfig c) : cfg(c) {}

  ChaosConfig cfg;
  uint16_t port = 0;
  int listen_fd = -1;
  int wake_pipe[2] = {-1, -1};
  std::thread acceptor;
  std::atomic<bool> stopping{false};
  bool started = false;
  bool stopped = false;

  std::mutex mu;
  std::unordered_map<uint64_t, std::pair<int, int>> live;  // id -> (cfd, ufd)
  std::vector<std::thread> conn_threads;

  std::atomic<uint64_t> connections{0};
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> stalls{0};
  std::atomic<uint64_t> rsts{0};
  std::atomic<uint64_t> half_closes{0};
  std::atomic<uint64_t> truncates{0};

  /// Deregister the connection, then close both sockets — optionally with
  /// SO_LINGER{1,0} so the close emits RST instead of FIN. Deregistering
  /// first means stop() can never shutdown() a recycled descriptor.
  void close_pair(uint64_t id, int cfd, int ufd, bool rst) {
    {
      std::lock_guard<std::mutex> lk(mu);
      live.erase(id);
    }
    if (rst) {
      linger lg{1, 0};
      ::setsockopt(cfd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
      ::setsockopt(ufd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    }
    ::close(cfd);
    ::close(ufd);
  }

  void sleep_interruptible(int ms) {
    while (ms > 0 && !stopping.load()) {
      const int slice = std::min(ms, 20);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      ms -= slice;
    }
  }

  /// One direction of a connection's pump state.
  struct Dir {
    int src = -1;
    int dst = -1;
    uint64_t forwarded = 0;
    std::vector<FaultEvent> events;  // this direction only, offset-sorted
    size_t next = 0;
    bool open = true;
  };

  enum class PumpVerdict { ok, closed_clean, closed_rst };

  /// Forward `n` bytes through `d`, firing any planned faults whose
  /// offsets this run crosses. closed_* verdicts mean the connection is
  /// gone (sockets still open; the caller closes them).
  PumpVerdict forward(Dir& d, const uint8_t* buf, size_t n) {
    size_t off = 0;
    while (off < n) {
      size_t run = n - off;
      const FaultEvent* ev = nullptr;
      if (d.next < d.events.size()) {
        const FaultEvent& e = d.events[d.next];
        if (e.at_byte <= d.forwarded) {
          ev = &e;
          run = 0;  // fire before forwarding anything further
        } else if (e.at_byte - d.forwarded < run) {
          run = size_t(e.at_byte - d.forwarded);  // forward up to the trigger
        }
      }
      if (run > 0) {
        if (write_all_deadline(d.dst, buf + off, run, -1) != IoOutcome::ok)
          return PumpVerdict::closed_clean;
        off += run;
        d.forwarded += run;
        continue;
      }
      ++d.next;
      switch (ev->kind) {
        case FaultKind::split_write: {
          size_t split = std::min(size_t(std::max(1, ev->param)), n - off);
          ++splits;
          while (split > 0) {
            if (write_all_deadline(d.dst, buf + off, 1, -1) != IoOutcome::ok)
              return PumpVerdict::closed_clean;
            ++off;
            ++d.forwarded;
            --split;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (stopping.load()) return PumpVerdict::closed_clean;
          }
          break;
        }
        case FaultKind::stall:
          ++stalls;
          sleep_interruptible(ev->param);
          break;
        case FaultKind::rst:
          ++rsts;
          return PumpVerdict::closed_rst;
        case FaultKind::half_close:
          // FIN one direction; the peer sees a clean EOF mid-stream while
          // the opposite direction keeps flowing. Remaining source bytes
          // are discarded (nowhere to put them).
          ++half_closes;
          ::shutdown(d.dst, SHUT_WR);
          ::shutdown(d.src, SHUT_RD);
          d.open = false;
          return PumpVerdict::ok;
        case FaultKind::truncate_close:
          // Drop the rest of the in-flight bytes and FIN both sides: the
          // peer must treat a well-formed close mid-message as an error,
          // not hang waiting for the advertised remainder.
          ++truncates;
          return PumpVerdict::closed_clean;
      }
    }
    return PumpVerdict::ok;
  }

  void serve(uint64_t id, int cfd, int ufd, std::vector<FaultEvent> plan) {
    Dir c2s, s2c;
    c2s.src = cfd;
    c2s.dst = ufd;
    s2c.src = ufd;
    s2c.dst = cfd;
    for (const FaultEvent& e : plan)
      (e.upstream ? c2s : s2c).events.push_back(e);
    std::vector<uint8_t> buf(16 * 1024);
    bool rst = false;
    while ((c2s.open || s2c.open) && !stopping.load()) {
      pollfd pf[2] = {{c2s.open ? c2s.src : -1, POLLIN, 0},
                      {s2c.open ? s2c.src : -1, POLLIN, 0}};
      // Finite poll so stop() is honored even on an idle connection.
      const int pr = ::poll(pf, 2, 200);
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (pr == 0) continue;
      bool done = false;
      for (Dir* d : {&c2s, &s2c}) {
        const pollfd& p = (d == &c2s) ? pf[0] : pf[1];
        if (!d->open || !(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const ssize_t got = ::recv(d->src, buf.data(), buf.size(), 0);
        if (got < 0) {
          if (errno == EINTR) continue;
          done = true;  // reset from either endpoint: tear it all down
          break;
        }
        if (got == 0) {
          d->open = false;
          ::shutdown(d->dst, SHUT_WR);  // propagate the FIN
          continue;
        }
        const PumpVerdict v = forward(*d, buf.data(), size_t(got));
        if (v != PumpVerdict::ok) {
          rst = (v == PumpVerdict::closed_rst);
          done = true;
          break;
        }
      }
      if (done) break;
    }
    close_pair(id, cfd, ufd, rst);
  }

  void accept_loop() {
    uint64_t next_id = 0;
    for (;;) {
      pollfd pfds[2] = {{listen_fd, POLLIN, 0}, {wake_pipe[0], POLLIN, 0}};
      const int pr = ::poll(pfds, 2, -1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (stopping.load() || (pfds[1].revents & (POLLIN | POLLHUP | POLLERR)))
        break;
      if (!(pfds[0].revents & POLLIN)) continue;
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd < 0) {
        if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK)
          continue;
        break;
      }
      const int ufd = connect_loopback(cfg.upstream_port);
      if (ufd < 0) {
        ::close(cfd);
        continue;  // upstream down: refuse this one, keep listening
      }
      int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const uint64_t id = next_id++;
      ++connections;
      auto plan = make_fault_plan(cfg, id);
      std::lock_guard<std::mutex> lk(mu);
      live.emplace(id, std::make_pair(cfd, ufd));
      conn_threads.emplace_back([this, id, cfd, ufd, plan = std::move(plan)] {
        serve(id, cfd, ufd, std::move(plan));
      });
    }
  }
};

ChaosProxy::ChaosProxy(ChaosConfig cfg) : impl_(std::make_unique<Impl>(cfg)) {}

ChaosProxy::~ChaosProxy() { stop(); }

uint16_t ChaosProxy::port() const { return impl_->port; }

bool ChaosProxy::start() {
  Impl& im = *impl_;
  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) return false;
  int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.cfg.listen_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(im.listen_fd, 64) != 0 || !set_nonblocking(im.listen_fd) ||
      ::pipe(im.wake_pipe) != 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return false;
  }
  socklen_t alen = sizeof addr;
  if (::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return false;
  }
  im.port = ntohs(addr.sin_port);
  im.started = true;
  im.acceptor = std::thread([this] { impl_->accept_loop(); });
  return true;
}

void ChaosProxy::stop() {
  Impl& im = *impl_;
  if (!im.started || im.stopped) return;
  im.stopped = true;
  im.stopping.store(true);
  {
    const uint8_t b = 1;
    ssize_t rc;
    do {
      rc = ::write(im.wake_pipe[1], &b, 1);
    } while (rc < 0 && errno == EINTR);
  }
  im.acceptor.join();
  ::close(im.listen_fd);
  ::close(im.wake_pipe[0]);
  ::close(im.wake_pipe[1]);
  {
    // Unblock any pump sleeping in poll(); threads also observe stopping
    // within one 200 ms poll slice.
    std::lock_guard<std::mutex> lk(im.mu);
    for (const auto& [id, fds] : im.live) {
      ::shutdown(fds.first, SHUT_RDWR);
      ::shutdown(fds.second, SHUT_RDWR);
    }
  }
  // conn_threads only grows from the (already joined) acceptor.
  for (std::thread& t : im.conn_threads) t.join();
  im.conn_threads.clear();
}

ChaosCounters ChaosProxy::counters() const {
  const Impl& im = *impl_;
  ChaosCounters c;
  c.connections = im.connections.load();
  c.splits = im.splits.load();
  c.stalls = im.stalls.load();
  c.rsts = im.rsts.load();
  c.half_closes = im.half_closes.load();
  c.truncates = im.truncates.load();
  return c;
}

}  // namespace sperr::server
