// bench_server — load generator and correctness harness for sperr_serve.
//
//   bench_server [--smoke] [--json PATH] [--port P] [--clients N]
//                [--requests N] [--n SIZE] [--workers N] [--queue-depth Q]
//
// Three phases:
//
//   1. Identity probes: one connection issues COMPRESS / DECOMPRESS /
//      VERIFY / EXTRACT_CHUNK requests and compares every reply byte-for-
//      byte against direct sperr library calls with the same Config. The
//      wire must be a transport, not a transformation.
//   2. Mixed traffic: --clients connections each issue --requests requests
//      cycling through all five opcodes; reports requests/s and p50/p99
//      latency over the merged per-request timings.
//   3. Backpressure: a dedicated in-process server (workers=1, queue=1)
//      holds its only worker on a latch, fills the queue, and asserts the
//      next request is rejected with BUSY while every admitted request is
//      still answered after release — the bounded-queue contract of
//      docs/PROTOCOL.md, made deterministic via ServerConfig::process_hook.
//   4. Hardening: dedicated in-process servers with tight limits assert the
//      degraded-conditions contracts — a stalled 23-byte header connection
//      is reaped by the idle/IO deadline while other clients keep working
//      (timeouts_read_ok), a request outliving --request-deadline-ms is
//      answered DEADLINE_EXCEEDED (timeouts_request_ok), and a connection
//      past --max-conns gets one unsolicited BUSY and a close
//      (conns_rejected_ok).
//   5. Resource governance: a sub-kilobyte container declaring terabytes is
//      answered RESOURCE_EXHAUSTED in bounded time while a neighbouring
//      connection's honest traffic stays byte-identical (bomb_rejected_ok),
//      and a server started with --max-output-mb below an honest request's
//      decoded size rejects it with status 8 where a generous budget admits
//      it (budget_enforced_ok).
//
// Without --port the traffic phases run against an in-process Server;
// with --port they target an already-running sperr_serve (the CI smoke job
// does this) while phases 3-4 stay in-process. All wire traffic goes
// through the retrying Client (server/client.h): connects retry with
// backoff under a budget (no ephemeral-port race against a just-started
// server) and every operation carries a transport deadline, so a server
// that dies mid-run surfaces as exit 2 rather than a hang. Writes a
// BENCH_server.json record (--json) gated by tools/check_bench.py; exits 2
// on any correctness failure so CI notices without parsing JSON.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/byteio.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "common/types.h"
#include "data/synthetic.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sperr/sperr.h"
#include "testkit/loopback.h"

namespace {

using namespace sperr::server;
using sperr::Dims;

struct Options {
  size_t n = 64;         // field is n^3, chunked n/2 -> 8 chunks
  int clients = 4;
  int per_client = 30;   // requests per client in the traffic phase
  uint16_t port = 0;     // 0 = in-process server
  int workers = 0;       // in-process server lanes (0 = one per core)
  size_t queue_depth = 64;
  std::string json;
  bool smoke = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_server [--smoke] [--json PATH] [--port P]\n"
               "                    [--clients N] [--requests N] [--n SIZE]\n"
               "                    [--workers N] [--queue-depth Q]\n");
  std::exit(2);
}

/// The workload everything measures: one deterministic field and the SPERR
/// Config both the direct reference calls and the wire requests use.
struct Workload {
  Dims dims;
  sperr::Config cfg;
  std::vector<double> field;
  std::vector<uint8_t> container;  // direct sperr::compress output
  std::vector<double> decoded;     // direct sperr::decompress output
  size_t nchunks = 0;

  explicit Workload(size_t n) {
    dims = Dims{n, n, n};
    field = sperr::data::miranda_pressure(dims);
    cfg.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), 20);
    cfg.chunk_dims = Dims{n / 2, n / 2, n / 2};
    container = sperr::compress(field.data(), dims, cfg);
    Dims od;
    (void)sperr::decompress(container.data(), container.size(), decoded, od);
    nchunks = 8;
  }
};

/// Raw blocking connection for the phases that speak the wire directly
/// (backpressure, hardening): those assert on exact frames, not outcomes.
struct RawConn {
  int fd = -1;
  explicit RawConn(uint16_t port) : fd(connect_loopback(port)) {}
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
};

/// Retrying-client settings shared by the probe and traffic phases.
ClientConfig client_config(uint16_t port, uint64_t seed) {
  ClientConfig cc;
  cc.port = port;
  cc.connect_budget_ms = 10'000;  // rides out the ephemeral-port race
  cc.op_timeout_ms = 60'000;      // a dead server fails the call, never hangs
  cc.max_attempts = 3;
  cc.seed = seed;
  return cc;
}

// --- phase 1: identity probes ----------------------------------------------

bool check_identity(Client& c, const Workload& w) {
  bool ok = true;

  // COMPRESS must reproduce the direct container byte-for-byte.
  CallResult r = c.call(Opcode::compress,
                        build_compress_body(w.cfg, w.dims, w.field.data()));
  if (!r.ok || r.status != WireStatus::ok || r.body != w.container) {
    std::fprintf(stderr, "bench_server: COMPRESS reply differs from direct call\n");
    ok = false;
  }

  // DECOMPRESS must reproduce the direct decode (dims header + f64 samples).
  r = c.call(Opcode::decompress,
             build_decompress_body(0, 8, w.container.data(), w.container.size()));
  if (!r.ok || r.status != WireStatus::ok ||
      r.body.size() != 24 + w.decoded.size() * 8 ||
      std::memcmp(r.body.data() + 24, w.decoded.data(), w.decoded.size() * 8) != 0) {
    std::fprintf(stderr, "bench_server: DECOMPRESS reply differs from direct call\n");
    ok = false;
  }

  // VERIFY must report a clean container with the expected chunk count.
  r = c.call(Opcode::verify, w.container);
  if (!r.ok || r.status != WireStatus::ok ||
      r.body.size() != kVerifyReplyHeaderBytes + w.nchunks * kVerifyChunkRecordBytes ||
      r.body[1] != 1) {
    std::fprintf(stderr, "bench_server: VERIFY did not report a clean container\n");
    ok = false;
  }

  // Every EXTRACT_CHUNK must equal the matching region of the full decode
  // (a chunk decodes to exactly the same doubles either way).
  for (uint32_t k = 0; ok && k < w.nchunks; ++k) {
    r = c.call(Opcode::extract_chunk,
               build_extract_body(k, w.container.data(), w.container.size()));
    if (!r.ok || r.status != WireStatus::ok || r.body.size() < 48) {
      std::fprintf(stderr, "bench_server: EXTRACT_CHUNK %u failed\n", k);
      ok = false;
      break;
    }
    const std::vector<uint8_t>& reply = r.body;
    sperr::ByteReader br(reply.data(), reply.size());
    const Dims origin{size_t(br.u64()), size_t(br.u64()), size_t(br.u64())};
    const Dims cdims{size_t(br.u64()), size_t(br.u64()), size_t(br.u64())};
    if (reply.size() != 48 + cdims.total() * 8) {
      std::fprintf(stderr, "bench_server: EXTRACT_CHUNK %u reply size mismatch\n", k);
      ok = false;
      break;
    }
    const auto* got = reinterpret_cast<const double*>(reply.data() + 48);
    for (size_t z = 0; ok && z < cdims.z; ++z)
      for (size_t y = 0; ok && y < cdims.y; ++y) {
        const size_t src = (origin.z + z) * w.dims.y * w.dims.x +
                           (origin.y + y) * w.dims.x + origin.x;
        if (std::memcmp(got + (z * cdims.y + y) * cdims.x, w.decoded.data() + src,
                        cdims.x * 8) != 0) {
          std::fprintf(stderr,
                       "bench_server: EXTRACT_CHUNK %u differs from full decode\n", k);
          ok = false;
        }
      }
  }
  return ok;
}

// --- phase 2: mixed traffic -------------------------------------------------

struct TrafficResult {
  uint64_t requests = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  uint64_t retries = 0;     // retrying-client extra attempts
  uint64_t bytes_up = 0;    // request bodies sent
  uint64_t bytes_down = 0;  // reply bodies received
  double wall_s = 0.0;
  std::vector<double> latencies_ms;
};

TrafficResult run_traffic(uint16_t port, const Workload& w, int clients,
                          int per_client) {
  // Bodies are immutable and shared across client threads.
  const auto compress_body = build_compress_body(w.cfg, w.dims, w.field.data());
  const auto decompress_body =
      build_decompress_body(0, 8, w.container.data(), w.container.size());
  const std::vector<uint8_t> stats_body;

  TrafficResult total;
  std::mutex merge_mu;
  std::vector<std::thread> threads;
  sperr::Timer wall;
  for (int cidx = 0; cidx < clients; ++cidx) {
    threads.emplace_back([&, cidx] {
      TrafficResult local;
      Client c(client_config(port, 0xbe4c0 + uint64_t(cidx)));
      sperr::Timer timer;
      for (int i = 0; i < per_client; ++i) {
        // 1:2:1:1 compress:decompress-ish mix; compress dominates cost, so
        // it appears once per five requests.
        const int kind = i % 5;
        const std::vector<uint8_t>* body = &stats_body;
        Opcode op = Opcode::stats;
        std::vector<uint8_t> extract_body;
        switch (kind) {
          case 0: op = Opcode::compress; body = &compress_body; break;
          case 1: op = Opcode::decompress; body = &decompress_body; break;
          case 2: op = Opcode::verify; body = &w.container; break;
          case 3:
            op = Opcode::extract_chunk;
            extract_body = build_extract_body(uint32_t(i) % uint32_t(w.nchunks),
                                              w.container.data(), w.container.size());
            body = &extract_body;
            break;
          default: break;  // stats
        }
        timer.reset();
        const CallResult res = c.call(op, *body);
        if (!res.ok) {
          // Transport failure that survived the retry policy: the server
          // is gone or wedged. Stop this client; main exits 2.
          ++local.errors;
          break;
        }
        local.latencies_ms.push_back(timer.seconds() * 1e3);
        ++local.requests;
        local.bytes_up += body->size();
        local.bytes_down += res.body.size();
        if (res.status == WireStatus::busy)
          ++local.busy;
        else if (res.status != WireStatus::ok)
          ++local.errors;
      }
      local.retries = c.stats().retries;
      std::lock_guard<std::mutex> lk(merge_mu);
      total.requests += local.requests;
      total.busy += local.busy;
      total.errors += local.errors;
      total.retries += local.retries;
      total.bytes_up += local.bytes_up;
      total.bytes_down += local.bytes_down;
      total.latencies_ms.insert(total.latencies_ms.end(),
                                local.latencies_ms.begin(),
                                local.latencies_ms.end());
    });
  }
  for (auto& t : threads) t.join();
  total.wall_s = wall.seconds();
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  return total;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t i = size_t(p * double(sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

// --- phase 3: deterministic backpressure ------------------------------------

bool check_backpressure() {
  ServerConfig sc;
  sc.workers = 1;
  sc.queue_capacity = 1;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> held{0};
  // Hold the single worker on its first job so the queue's one slot and
  // the BUSY path can be exercised without sleeps or timing assumptions.
  sc.process_hook = [&](uint8_t) {
    if (held.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return release; });
    }
  };
  Server srv(sc);
  if (srv.start() != sperr::Status::ok) return false;

  const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};  // VERIFY -> corrupt
  auto ask = [&](uint64_t id, uint8_t& status) {
    RawConn c(srv.port());
    FrameHeader h;
    std::vector<uint8_t> reply;
    if (c.fd < 0 || !exchange(c.fd, Opcode::verify, id, junk, h, reply))
      return false;
    status = h.code;
    return true;
  };

  uint8_t st_a = 0xff, st_b = 0xff, st_c = 0xff;
  bool ok_a = false, ok_b = false;
  std::thread ta([&] { ok_a = ask(1, st_a); });  // occupies the worker
  while (held.load() == 0) std::this_thread::yield();
  std::thread tb([&] { ok_b = ask(2, st_b); });  // occupies the queue slot
  sperr::Timer guard;
  while (srv.stats().queue_depth < 1 && guard.seconds() < 10.0)
    std::this_thread::yield();
  // Worker held + queue full: the next request must be rejected, not queued.
  const bool ok_c = ask(3, st_c);
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  ta.join();
  tb.join();
  srv.stop();

  const bool ok = ok_a && ok_b && ok_c &&
                  st_a == uint8_t(WireStatus::corrupt) &&
                  st_b == uint8_t(WireStatus::corrupt) &&
                  st_c == uint8_t(WireStatus::busy);
  if (!ok)
    std::fprintf(stderr,
                 "bench_server: backpressure contract violated "
                 "(status a=%u b=%u c=%u, transport %d/%d/%d)\n",
                 st_a, st_b, st_c, ok_a, ok_b, ok_c);
  return ok;
}

// --- phase 4: degraded-conditions hardening ---------------------------------

struct HardeningResult {
  bool timeouts_read_ok = false;
  bool timeouts_request_ok = false;
  bool conns_rejected_ok = false;
  bool bomb_rejected_ok = false;
  bool budget_enforced_ok = false;
};

/// 96-byte v2 container declaring 2^21 x 2^21 x 1 doubles (32 TiB).
std::vector<uint8_t> bomb_container() {
  std::vector<uint8_t> inner;
  sperr::put_u32(inner, 0x43525053);  // 'SPRC'
  sperr::put_u8(inner, 0);            // mode = pwe
  sperr::put_u8(inner, 8);            // precision = f64
  sperr::put_u64(inner, uint64_t(1) << 21);
  sperr::put_u64(inner, uint64_t(1) << 21);
  sperr::put_u64(inner, 1);
  for (int i = 0; i < 3; ++i) sperr::put_u64(inner, 256);  // chunk dims
  sperr::put_f64(inner, 1e-6);
  sperr::put_u32(inner, 1);  // nchunks
  sperr::put_u64(inner, 0);  // entry 0: speck_len
  sperr::put_u64(inner, 0);  // entry 0: outlier_len
  std::vector<uint8_t> out;
  sperr::put_u32(out, 0x5a525053);  // 'SPRZ'
  sperr::put_u8(out, 2);
  sperr::put_u8(out, 0);
  sperr::put_u64(out, inner.size());
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

/// STATS over a raw connection, parsed into a snapshot.
bool fetch_stats(int fd, uint64_t id, StatsSnapshot& snap) {
  FrameHeader h;
  std::vector<uint8_t> reply;
  return exchange(fd, Opcode::stats, id, {}, h, reply) &&
         h.code == uint8_t(WireStatus::ok) &&
         StatsSnapshot::parse(reply.data(), reply.size(), snap);
}

HardeningResult check_hardening() {
  HardeningResult r;

  // (a) A connection that sends 23 of 24 header bytes and stalls must be
  //     reaped by the I/O deadline — while a well-behaved client on
  //     another connection keeps getting answers.
  {
    ServerConfig sc;
    sc.workers = 1;
    sc.io_timeout_ms = 200;
    sc.idle_timeout_ms = 2000;
    Server srv(sc);
    if (srv.start() != sperr::Status::ok) return r;
    RawConn stall(srv.port());
    std::vector<uint8_t> header;
    put_frame_header(header, kRequestMagic, uint8_t(Opcode::stats), 7, 0);
    bool ok = stall.fd >= 0 &&
              write_all_deadline(stall.fd, header.data(), 23, -1) == IoOutcome::ok;
    RawConn good(srv.port());
    StatsSnapshot snap;
    ok = ok && good.fd >= 0 && fetch_stats(good.fd, 1, snap);
    sperr::Timer guard;
    while (ok && guard.seconds() < 10.0) {
      if (!fetch_stats(good.fd, 2, snap)) {
        ok = false;
        break;
      }
      if (snap.timeouts_read >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // The stalled connection is gone, the good one still answers.
    ok = ok && snap.timeouts_read >= 1 && fetch_stats(good.fd, 3, snap) &&
         snap.active_connections == 1;
    srv.stop();
    r.timeouts_read_ok = ok;
    if (!ok) std::fprintf(stderr, "bench_server: stalled-header reap failed\n");
  }

  // (b) A request that outlives the compute deadline is answered
  //     DEADLINE_EXCEEDED promptly instead of pinning the connection.
  {
    ServerConfig sc;
    sc.workers = 1;
    sc.request_deadline_ms = 100;
    sc.process_hook = [](uint8_t opcode) {
      if (Opcode(opcode) == Opcode::verify)
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
    };
    Server srv(sc);
    if (srv.start() != sperr::Status::ok) return r;
    RawConn c(srv.port());
    const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
    FrameHeader h;
    std::vector<uint8_t> reply;
    bool ok = c.fd >= 0 && exchange(c.fd, Opcode::verify, 9, junk, h, reply) &&
              h.code == uint8_t(WireStatus::deadline_exceeded);
    // The lone worker is still inside the hook; let it drain so the STATS
    // probe below is answered inside its own deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    StatsSnapshot snap;
    ok = ok && fetch_stats(c.fd, 10, snap) && snap.timeouts_request >= 1;
    srv.stop();
    r.timeouts_request_ok = ok;
    if (!ok) std::fprintf(stderr, "bench_server: request deadline failed\n");
  }

  // (c) Past --max-conns, a new connection gets exactly one unsolicited
  //     BUSY (request id 0) and a close; the capped connection count shows
  //     up in conns_rejected.
  {
    ServerConfig sc;
    sc.workers = 1;
    sc.max_connections = 1;
    Server srv(sc);
    if (srv.start() != sperr::Status::ok) return r;
    RawConn a(srv.port());
    StatsSnapshot snap;
    bool ok = a.fd >= 0 && fetch_stats(a.fd, 1, snap);  // a is registered now
    RawConn b(srv.port());
    uint8_t raw[kFrameHeaderBytes];
    ok = ok && b.fd >= 0 &&
         read_exact_deadline(b.fd, raw, sizeof raw, -1) == IoOutcome::ok;
    if (ok) {
      const FrameHeader h = parse_frame_header(raw);
      ok = h.magic == kReplyMagic && h.code == uint8_t(WireStatus::busy) &&
           h.request_id == 0 && h.body_len == 0;
      // ... followed by EOF, not more frames.
      char extra;
      ok = ok && ::recv(b.fd, &extra, 1, 0) == 0;
    }
    ok = ok && fetch_stats(a.fd, 2, snap) && snap.conns_rejected >= 1 &&
         snap.active_connections == 1;
    srv.stop();
    r.conns_rejected_ok = ok;
    if (!ok) std::fprintf(stderr, "bench_server: connection cap failed\n");
  }

  // (d) A terabyte-declaring bomb is answered RESOURCE_EXHAUSTED in bounded
  //     time, accounted in STATS, and honest traffic on a neighbouring
  //     connection is untouched — byte-identical replies before and after.
  {
    ServerConfig sc;
    sc.workers = 2;
    Server srv(sc);
    if (srv.start() != sperr::Status::ok) return r;
    const Dims dims{16, 16, 16};
    const auto field = sperr::data::miranda_pressure(dims);
    sperr::Config cfg;
    cfg.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), 18);
    const auto honest = sperr::compress(field.data(), dims, cfg);
    const auto bomb = bomb_container();

    RawConn victim(srv.port());
    RawConn attacker(srv.port());
    FrameHeader h;
    std::vector<uint8_t> before, after, reply;
    bool ok = victim.fd >= 0 && attacker.fd >= 0 &&
              exchange(victim.fd, Opcode::decompress, 1,
                        build_decompress_body(0, 8, honest.data(),
                                              honest.size()),
                        h, before) &&
              h.code == uint8_t(WireStatus::ok);
    sperr::Timer bomb_timer;
    ok = ok &&
         exchange(attacker.fd, Opcode::decompress, 2,
                   build_decompress_body(0, 8, bomb.data(), bomb.size()), h,
                   reply) &&
         h.code == uint8_t(WireStatus::resource_exhausted) && reply.empty() &&
         bomb_timer.seconds() < 0.25;
    ok = ok &&
         exchange(victim.fd, Opcode::decompress, 3,
                   build_decompress_body(0, 8, honest.data(), honest.size()),
                   h, after) &&
         h.code == uint8_t(WireStatus::ok) && after == before;
    StatsSnapshot snap;
    ok = ok && fetch_stats(attacker.fd, 4, snap) &&
         snap.resource_exhausted >= 1;
    srv.stop();
    r.bomb_rejected_ok = ok;
    if (!ok) std::fprintf(stderr, "bench_server: bomb rejection failed\n");
  }

  // (e) The --max-output-mb / --max-memory-mb knobs bind: a ceiling below
  //     an honest request's decoded size rejects it with status 8; a
  //     generous budget admits the same bytes.
  {
    const Dims dims{32, 32, 32};  // decodes to 256 KiB
    const auto field = sperr::data::miranda_pressure(dims);
    sperr::Config cfg;
    cfg.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), 18);
    const auto honest = sperr::compress(field.data(), dims, cfg);
    const auto body = build_decompress_body(0, 8, honest.data(), honest.size());

    auto decompress_status = [&](uint64_t max_output, uint64_t max_memory,
                                 uint8_t& code) {
      ServerConfig sc;
      sc.workers = 1;
      sc.max_output_bytes = max_output;
      sc.max_memory_bytes = max_memory;
      Server srv(sc);
      if (srv.start() != sperr::Status::ok) return false;
      RawConn c(srv.port());
      FrameHeader h;
      std::vector<uint8_t> reply;
      const bool ok =
          c.fd >= 0 && exchange(c.fd, Opcode::decompress, 1, body, h, reply);
      code = h.code;
      srv.stop();
      return ok;
    };

    uint8_t tight = 0xff, pooled = 0xff, generous = 0xff;
    bool ok = decompress_status(64 << 10, 0, tight) &&
              tight == uint8_t(WireStatus::resource_exhausted);
    ok = ok && decompress_status(0, 128 << 10, pooled) &&
         pooled == uint8_t(WireStatus::resource_exhausted);
    ok = ok && decompress_status(4 << 20, 16 << 20, generous) &&
         generous == uint8_t(WireStatus::ok);
    r.budget_enforced_ok = ok;
    if (!ok) std::fprintf(stderr, "bench_server: budget enforcement failed\n");
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) usage();
      return argv[i];
    };
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--json") {
      opt.json = next();
    } else if (a == "--port") {
      opt.port = uint16_t(std::atoi(next()));
    } else if (a == "--clients") {
      opt.clients = std::atoi(next());
    } else if (a == "--requests") {
      opt.per_client = std::atoi(next());
    } else if (a == "--n") {
      opt.n = size_t(std::atol(next()));
    } else if (a == "--workers") {
      opt.workers = std::atoi(next());
    } else if (a == "--queue-depth") {
      opt.queue_depth = size_t(std::atol(next()));
    } else {
      usage();
    }
  }
  if (opt.smoke) {  // quick pass: fewer clients/requests, same field size
    opt.clients = std::min(opt.clients, 2);
    opt.per_client = std::min(opt.per_client, 10);
  }
  if (opt.clients < 1 || opt.per_client < 1 || opt.n < 8) usage();

  std::printf("bench_server: preparing %zu^3 workload...\n", opt.n);
  const Workload w(opt.n);

  // In-process server unless --port points at a running sperr_serve.
  std::unique_ptr<Server> local;
  uint16_t port = opt.port;
  const int workers = sperr::resolve_thread_count(opt.workers);
  if (port == 0) {
    ServerConfig sc;
    sc.workers = workers;
    sc.queue_capacity = opt.queue_depth;
    local = std::make_unique<Server>(sc);
    if (local->start() != sperr::Status::ok) {
      std::fprintf(stderr, "bench_server: cannot start in-process server\n");
      return 1;
    }
    port = local->port();
  }

  bool identical = false;
  {
    Client probe(client_config(port, 0x1de47ULL));
    identical = check_identity(probe, w);
  }
  std::printf("bench_server: identity probes %s\n", identical ? "ok" : "FAILED");

  const TrafficResult t = run_traffic(port, w, opt.clients, opt.per_client);
  const double rps = t.wall_s > 0 ? double(t.requests) / t.wall_s : 0.0;
  const double p50 = percentile(t.latencies_ms, 0.50);
  const double p99 = percentile(t.latencies_ms, 0.99);
  std::printf(
      "bench_server: %llu requests over %d client(s) in %.2fs -> %.1f req/s, "
      "p50 %.2f ms, p99 %.2f ms, %llu busy, %llu error(s)\n",
      static_cast<unsigned long long>(t.requests), opt.clients, t.wall_s, rps,
      p50, p99, static_cast<unsigned long long>(t.busy),
      static_cast<unsigned long long>(t.errors));

  if (local) local->stop();

  const bool backpressure_ok = check_backpressure();
  std::printf("bench_server: backpressure contract %s\n",
              backpressure_ok ? "ok" : "FAILED");

  const HardeningResult hr = check_hardening();
  std::printf(
      "bench_server: hardening checks: stalled-header reap %s, "
      "request deadline %s, connection cap %s, bomb rejection %s, "
      "memory budget %s\n",
      hr.timeouts_read_ok ? "ok" : "FAILED",
      hr.timeouts_request_ok ? "ok" : "FAILED",
      hr.conns_rejected_ok ? "ok" : "FAILED",
      hr.bomb_rejected_ok ? "ok" : "FAILED",
      hr.budget_enforced_ok ? "ok" : "FAILED");

  const bool traffic_ok = t.errors == 0 && t.requests > 0;

  char buf[2048];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"benchmark\": \"server\",\n"
                "  \"dims\": [%zu, %zu, %zu],\n"
                "  \"clients\": %d,\n"
                "  \"workers\": %d,\n"
                "  \"queue_capacity\": %zu,\n"
                "  \"requests_total\": %llu,\n"
                "  \"wall_seconds\": %.4f,\n"
                "  \"requests_per_s\": %.1f,\n"
                "  \"p50_ms\": %.3f,\n"
                "  \"p99_ms\": %.3f,\n"
                "  \"busy_replies\": %llu,\n"
                "  \"request_errors\": %llu,\n"
                "  \"client_retries\": %llu,\n"
                "  \"mb_up\": %.2f,\n"
                "  \"mb_down\": %.2f,\n"
                "  \"responses_identical\": %s,\n"
                "  \"backpressure_ok\": %s,\n"
                "  \"timeouts_read_ok\": %s,\n"
                "  \"timeouts_request_ok\": %s,\n"
                "  \"conns_rejected_ok\": %s,\n"
                "  \"bomb_rejected_ok\": %s,\n"
                "  \"budget_enforced_ok\": %s,\n"
                "  \"traffic_ok\": %s\n"
                "}\n",
                w.dims.x, w.dims.y, w.dims.z, opt.clients, workers,
                opt.queue_depth, static_cast<unsigned long long>(t.requests),
                t.wall_s, rps, p50, p99,
                static_cast<unsigned long long>(t.busy),
                static_cast<unsigned long long>(t.errors),
                static_cast<unsigned long long>(t.retries),
                double(t.bytes_up) / 1e6, double(t.bytes_down) / 1e6,
                identical ? "true" : "false", backpressure_ok ? "true" : "false",
                hr.timeouts_read_ok ? "true" : "false",
                hr.timeouts_request_ok ? "true" : "false",
                hr.conns_rejected_ok ? "true" : "false",
                hr.bomb_rejected_ok ? "true" : "false",
                hr.budget_enforced_ok ? "true" : "false",
                traffic_ok ? "true" : "false");
  std::printf("%s", buf);
  if (!opt.json.empty()) {
    std::ofstream out(opt.json);
    out << buf;
  }
  return (identical && backpressure_ok && hr.timeouts_read_ok &&
          hr.timeouts_request_ok && hr.conns_rejected_ok &&
          hr.bomb_rejected_ok && hr.budget_enforced_ok && traffic_ok)
             ? 0
             : 2;
}
