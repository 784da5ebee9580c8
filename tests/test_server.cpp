// sperr_serve server + wire protocol tests (src/server/, docs/PROTOCOL.md).
//
// Covers the contracts the docs promise: replies byte-identical to direct
// library calls, deterministic STATS counter semantics, bounded-queue BUSY
// backpressure, malformed-frame handling (error status, never a crash or a
// hang), and a conformance replay of the worked example in docs/PROTOCOL.md
// — the doc's hexdump bytes are sent verbatim and the replies compared
// byte-for-byte (with `??` wildcards for timing fields).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <chrono>
#include <thread>
#include <vector>

#include "common/byteio.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sperr/sperr.h"
#include "testkit/loopback.h"
#include "testkit/replies.h"

namespace {

using namespace sperr::server;
using sperr::Dims;

/// RAII client connection to a test server. The descriptor blocks, so the
/// raw-socket tests can recv() on it directly.
struct Client {
  int fd = -1;
  explicit Client(uint16_t port) : fd(connect_loopback(port)) {}
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
};

/// A small deterministic workload shared by the tests.
struct Workload {
  Dims dims{32, 32, 32};
  sperr::Config cfg;
  std::vector<double> field;
  std::vector<uint8_t> container;
  std::vector<double> decoded;

  Workload() {
    field = sperr::data::miranda_pressure(dims);
    cfg.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), 20);
    cfg.chunk_dims = Dims{16, 16, 16};  // 8 chunks
    container = sperr::compress(field.data(), dims, cfg);
    Dims od;
    EXPECT_EQ(sperr::decompress(container.data(), container.size(), decoded, od),
              sperr::Status::ok);
  }
};

/// Read one reply frame off a raw connection, for the tests that write
/// their request bytes themselves (bad magic, version or body length, a
/// half-close).
bool read_reply(int fd, FrameHeader& h, std::vector<uint8_t>& body) {
  uint8_t raw[kFrameHeaderBytes];
  if (read_exact_deadline(fd, raw, sizeof raw, -1) != IoOutcome::ok) return false;
  h = parse_frame_header(raw);
  body.resize(size_t(h.body_len));
  return body.empty() ||
         read_exact_deadline(fd, body.data(), body.size(), -1) == IoOutcome::ok;
}

const Workload& workload() {
  static const Workload w;
  return w;
}

Server make_server(int workers = 2, size_t queue = 8) {
  ServerConfig sc;
  sc.workers = workers;
  sc.queue_capacity = queue;
  return Server(sc);
}

TEST(Server, CompressMatchesDirectCall) {
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);

  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(c.fd, Opcode::compress, 7,
                        build_compress_body(w.cfg, w.dims, w.field.data()), h,
                        reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  EXPECT_EQ(h.request_id, 7u);
  // The wire is a transport, not a transformation: same Config, same bytes.
  EXPECT_EQ(reply, w.container);
}

TEST(Server, CompressWithSelfVerifyFlag) {
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);

  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(
      c.fd, Opcode::compress, 8,
      build_compress_body(w.cfg, w.dims, w.field.data(), kCompressFlagVerify), h,
      reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  EXPECT_EQ(reply, w.container);  // the verify flag must not change the output
}

TEST(Server, DecompressMatchesDirectCall) {
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);

  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(
      c.fd, Opcode::decompress, 9,
      build_decompress_body(0, 8, w.container.data(), w.container.size()), h,
      reply));
  ASSERT_EQ(h.code, uint8_t(WireStatus::ok));
  const auto expected = expected_decompress_reply(w.container);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(reply, expected);

  // f32 output: same field, 4-byte samples.
  ASSERT_TRUE(exchange(
      c.fd, Opcode::decompress, 10,
      build_decompress_body(0, 4, w.container.data(), w.container.size()), h,
      reply));
  ASSERT_EQ(h.code, uint8_t(WireStatus::ok));
  ASSERT_EQ(reply.size(), 24 + w.decoded.size() * 4);
  std::vector<float> direct32;
  Dims od;
  ASSERT_EQ(sperr::decompress(w.container.data(), w.container.size(), direct32, od),
            sperr::Status::ok);
  EXPECT_EQ(std::memcmp(reply.data() + 24, direct32.data(), direct32.size() * 4), 0);
}

TEST(Server, FloatDecompressReservesTheFloatOutput) {
  // A one-chunk container: the decode holds its output and one chunk of
  // double scratch. A pool that covers float output plus that scratch, but
  // not a double field, admits a precision-4 request and refuses a
  // precision-8 one.
  const Dims dims{24, 20, 16};
  const auto field = sperr::data::miranda_pressure(dims);
  sperr::Config cfg;
  cfg.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), 16);
  const auto blob = sperr::compress(field.data(), dims, cfg);
  const size_t n = dims.total();

  ServerConfig sc;
  sc.workers = 1;
  sc.queue_capacity = 4;
  sc.max_memory_bytes = n * (sizeof(float) + sizeof(double)) + n;
  Server srv(sc);
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(c.fd, Opcode::decompress, 1,
                        build_decompress_body(0, 4, blob.data(), blob.size()), h,
                        reply));
  ASSERT_EQ(h.code, uint8_t(WireStatus::ok));
  EXPECT_EQ(reply.size(), 24 + n * 4);
  ASSERT_TRUE(exchange(c.fd, Opcode::decompress, 2,
                        build_decompress_body(0, 8, blob.data(), blob.size()), h,
                        reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::resource_exhausted));
}

TEST(Server, VerifyCleanAndDamagedContainers) {
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);

  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(c.fd, Opcode::verify, 1, w.container, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  ASSERT_EQ(reply.size(), kVerifyReplyHeaderBytes + 8 * kVerifyChunkRecordBytes);
  EXPECT_EQ(reply[1], 1);  // intact

  // Flip a byte mid-container: VERIFY must localize, not crash.
  auto damaged = w.container;
  damaged[damaged.size() / 2] ^= 0x40;
  ASSERT_TRUE(exchange(c.fd, Opcode::verify, 2, damaged, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::corrupt));
  if (reply.size() >= kVerifyReplyHeaderBytes) {
    sperr::ByteReader br(reply.data(), reply.size());
    br.u8();  // version
    EXPECT_EQ(br.u8(), 0);  // not intact
    br.u16();
    EXPECT_GE(br.u32(), 1u);  // damaged count
  }

  // Garbage is corrupt with an empty body (no parsable directory).
  const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(exchange(c.fd, Opcode::verify, 3, junk, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::corrupt));
  EXPECT_TRUE(reply.empty());
}

/// Whether an EXTRACT_CHUNK reply (origin, dims, f64 samples) equals the
/// matching region of the full decode: a chunk decodes to the same doubles
/// either way.
::testing::AssertionResult chunk_matches_decode(const Workload& w,
                                                const std::vector<uint8_t>& reply) {
  if (reply.size() < 48)
    return ::testing::AssertionFailure() << "reply of " << reply.size() << " bytes";
  sperr::ByteReader br(reply.data(), reply.size());
  const Dims origin{size_t(br.u64()), size_t(br.u64()), size_t(br.u64())};
  const Dims cd{size_t(br.u64()), size_t(br.u64()), size_t(br.u64())};
  if (reply.size() != 48 + cd.total() * 8)
    return ::testing::AssertionFailure() << "reply size does not match its dims";
  const auto* got = reinterpret_cast<const double*>(reply.data() + 48);
  for (size_t z = 0; z < cd.z; ++z)
    for (size_t y = 0; y < cd.y; ++y) {
      const size_t src = (origin.z + z) * w.dims.y * w.dims.x +
                         (origin.y + y) * w.dims.x + origin.x;
      if (std::memcmp(got + (z * cd.y + y) * cd.x, w.decoded.data() + src,
                      cd.x * 8) != 0)
        return ::testing::AssertionFailure() << "row z=" << z << " y=" << y;
    }
  return ::testing::AssertionSuccess();
}

TEST(Server, ExtractChunkMatchesFullDecode) {
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);

  FrameHeader h;
  std::vector<uint8_t> reply;
  for (uint32_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(exchange(c.fd, Opcode::extract_chunk, k,
                          build_extract_body(k, w.container.data(),
                                             w.container.size()),
                          h, reply));
    ASSERT_EQ(h.code, uint8_t(WireStatus::ok)) << "chunk " << k;
    EXPECT_TRUE(chunk_matches_decode(w, reply)) << "chunk " << k;
  }

  // Out-of-range index: a usable container but no such chunk.
  ASSERT_TRUE(exchange(c.fd, Opcode::extract_chunk, 99,
                        build_extract_body(8, w.container.data(),
                                           w.container.size()),
                        h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::bad_request));
}

TEST(Server, StatsCountersAreDeterministic) {
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);

  FrameHeader h;
  std::vector<uint8_t> reply;
  // Two VERIFYs (one clean, one garbage) then STATS: the snapshot counts
  // the STATS request itself (docs/PROTOCOL.md contract).
  ASSERT_TRUE(exchange(c.fd, Opcode::verify, 1, w.container, h, reply));
  const std::vector<uint8_t> junk = {1, 2, 3};
  ASSERT_TRUE(exchange(c.fd, Opcode::verify, 2, junk, h, reply));
  ASSERT_TRUE(exchange(c.fd, Opcode::stats, 3, {}, h, reply));
  ASSERT_EQ(h.code, uint8_t(WireStatus::ok));

  StatsSnapshot s;
  ASSERT_TRUE(StatsSnapshot::parse(reply.data(), reply.size(), s));
  EXPECT_EQ(s.requests_total, 3u);
  EXPECT_EQ(s.verify_count, 2u);
  EXPECT_EQ(s.stats_count, 1u);
  EXPECT_EQ(s.errors, 1u);  // the garbage VERIFY
  EXPECT_EQ(s.bytes_in, w.container.size() + junk.size());
  EXPECT_EQ(s.queue_capacity, 8u);
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_GE(s.uptime_seconds, 0.0);
  // No COMPRESS ran: stage seconds are exactly zero.
  EXPECT_EQ(s.transform_seconds, 0.0);
  EXPECT_EQ(s.lossless_seconds, 0.0);

  // The library-side snapshot agrees with the wire (STATS replies are
  // never part of bytes_out, so the two snapshots match exactly).
  const StatsSnapshot direct = srv.stats();
  EXPECT_EQ(direct.requests_total, 3u);
  EXPECT_EQ(direct.bytes_out, s.bytes_out);
}

TEST(Server, BusyBackpressureIsBoundedAndRecovers) {
  // One worker held on a latch + a one-slot queue: the third request must
  // be rejected with BUSY, and both admitted requests must still be
  // answered after release — reject-new, never deadlock.
  ServerConfig sc;
  sc.workers = 1;
  sc.queue_capacity = 1;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> held{0};
  sc.process_hook = [&](uint8_t) {
    if (held.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return release; });
    }
  };
  Server srv(sc);
  ASSERT_EQ(srv.start(), sperr::Status::ok);

  const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
  auto ask = [&](uint64_t id, uint8_t& status) {
    Client c(srv.port());
    FrameHeader h;
    std::vector<uint8_t> reply;
    if (c.fd < 0 || !exchange(c.fd, Opcode::verify, id, junk, h, reply))
      return false;
    status = h.code;
    return true;
  };

  uint8_t st_a = 0xff, st_b = 0xff, st_c = 0xff;
  bool ok_a = false, ok_b = false;
  std::thread ta([&] { ok_a = ask(1, st_a); });
  while (held.load() == 0) std::this_thread::yield();
  std::thread tb([&] { ok_b = ask(2, st_b); });
  while (srv.stats().queue_depth < 1) std::this_thread::yield();
  const bool ok_c = ask(3, st_c);
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  ta.join();
  tb.join();

  ASSERT_TRUE(ok_a && ok_b && ok_c);
  EXPECT_EQ(st_c, uint8_t(WireStatus::busy));
  EXPECT_EQ(st_a, uint8_t(WireStatus::corrupt));
  EXPECT_EQ(st_b, uint8_t(WireStatus::corrupt));
  const StatsSnapshot s = srv.stats();
  EXPECT_EQ(s.rejected_busy, 1u);
  EXPECT_EQ(s.requests_total, 2u);  // BUSY rejections are not completed requests
  srv.stop();
}

// --- malformed frames: error status or close, never a crash or a hang ------

TEST(ServerMalformed, TruncatedHeaderThenServerStillServes) {
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  {
    Client c(srv.port());
    ASSERT_GE(c.fd, 0);
    const uint8_t partial[10] = {0x53, 0x50, 0x52, 0x51, 1, 3, 0, 0, 1, 0};
    ASSERT_EQ(write_all_deadline(c.fd, partial, sizeof partial, -1), IoOutcome::ok);
  }  // close mid-header
  // The server must shrug the dead connection off and keep serving.
  Client c2(srv.port());
  ASSERT_GE(c2.fd, 0);
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(c2.fd, Opcode::stats, 1, {}, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
}

TEST(ServerMalformed, TruncatedBodyThenServerStillServes) {
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  {
    Client c(srv.port());
    ASSERT_GE(c.fd, 0);
    std::vector<uint8_t> frame;
    put_frame_header(frame, kRequestMagic, uint8_t(Opcode::verify), 1,
                     /*body_len=*/100);
    frame.push_back(0xaa);  // 1 of the promised 100 bytes
    ASSERT_EQ(write_all_deadline(c.fd, frame.data(), frame.size(), -1), IoOutcome::ok);
  }
  Client c2(srv.port());
  ASSERT_GE(c2.fd, 0);
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(c2.fd, Opcode::stats, 1, {}, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
}

TEST(ServerMalformed, BadMagicClosesConnection) {
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  std::vector<uint8_t> frame;
  put_frame_header(frame, 0x4b4e554a /* "JUNK" */, uint8_t(Opcode::stats), 5, 0);
  ASSERT_EQ(write_all_deadline(c.fd, frame.data(), frame.size(), -1), IoOutcome::ok);
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(read_reply(c.fd, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::bad_request));
  // Framing is in doubt: the server closes after replying.
  uint8_t byte;
  EXPECT_NE(read_exact_deadline(c.fd, &byte, 1, -1), IoOutcome::ok);
}

TEST(ServerMalformed, VersionSkewIsRejected) {
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  std::vector<uint8_t> frame;
  put_frame_header(frame, kRequestMagic, uint8_t(Opcode::stats), 6, 0);
  frame[4] = 99;  // future protocol version
  ASSERT_EQ(write_all_deadline(c.fd, frame.data(), frame.size(), -1), IoOutcome::ok);
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(read_reply(c.fd, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::unsupported_version));
  EXPECT_EQ(h.request_id, 6u);
  uint8_t byte;
  // Connection closed.
  EXPECT_NE(read_exact_deadline(c.fd, &byte, 1, -1), IoOutcome::ok);
}

TEST(ServerMalformed, OversizedBodyLengthIsRejectedUnread) {
  ServerConfig sc;
  sc.workers = 1;
  sc.queue_capacity = 4;
  sc.max_body_bytes = 1 << 16;
  Server srv(sc);
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  // Advertise a body far past the cap, send none of it: the reply must
  // come back immediately (the server must not try to read 1 GiB first).
  std::vector<uint8_t> frame;
  put_frame_header(frame, kRequestMagic, uint8_t(Opcode::verify), 7,
                   size_t(1) << 30);
  ASSERT_EQ(write_all_deadline(c.fd, frame.data(), frame.size(), -1), IoOutcome::ok);
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(read_reply(c.fd, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::bad_request));
  uint8_t byte;
  // Connection closed.
  EXPECT_NE(read_exact_deadline(c.fd, &byte, 1, -1), IoOutcome::ok);
}

TEST(ServerMalformed, UnknownOpcodeKeepsConnection) {
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(c.fd, Opcode(9), 11, {}, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::bad_request));
  EXPECT_EQ(h.request_id, 11u);
  // Framing stayed intact, so the connection survives.
  ASSERT_TRUE(exchange(c.fd, Opcode::stats, 12, {}, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
}

TEST(ServerMalformed, GarbageBodiesGetErrorReplies) {
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  FrameHeader h;
  std::vector<uint8_t> reply;

  // COMPRESS with a body shorter than its fixed header.
  ASSERT_TRUE(exchange(c.fd, Opcode::compress, 1, {1, 2, 3}, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::bad_request));

  // COMPRESS advertising dims that disagree with the sample bytes.
  sperr::Config cfg;
  cfg.tolerance = 1.0;
  const std::vector<double> two(2, 0.5);
  auto body = build_compress_body(cfg, Dims{2, 1, 1}, two.data());
  body.pop_back();  // now one byte short of dims.total() * 8
  ASSERT_TRUE(exchange(c.fd, Opcode::compress, 2, body, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::bad_request));

  // DECOMPRESS with an unknown recovery policy.
  ASSERT_TRUE(exchange(c.fd, Opcode::decompress, 3,
                        build_decompress_body(7, 8, body.data(), 4), h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::bad_request));

  // STATS with a non-empty body (the spec requires empty).
  ASSERT_TRUE(exchange(c.fd, Opcode::stats, 4, {0}, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::bad_request));

  // EXTRACT_CHUNK on garbage container bytes.
  ASSERT_TRUE(exchange(c.fd, Opcode::extract_chunk, 5,
                        build_extract_body(0, body.data(), 16), h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::corrupt));

  // The connection survived all five.
  ASSERT_TRUE(exchange(c.fd, Opcode::stats, 6, {}, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
}

TEST(Server, GracefulStopAnswersAdmittedRequests) {
  const Workload& w = workload();
  auto srv = make_server(/*workers=*/2, /*queue=*/8);
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  // Parallel connections each cycle through all five opcodes, and every
  // reply must be what the direct library call gives; then stop(): every
  // admitted request must have been answered.
  const auto compress_body = build_compress_body(w.cfg, w.dims, w.field.data());
  const auto decompress_body =
      build_decompress_body(0, 8, w.container.data(), w.container.size());
  const auto decompress_reply = expected_decompress_reply(w.container);
  ASSERT_FALSE(decompress_reply.empty());

  constexpr int kClients = 4, kRounds = 3;
  std::vector<std::thread> threads;
  std::atomic<int> answered{0};
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      Client c(srv.port());
      ASSERT_GE(c.fd, 0);
      FrameHeader h;
      std::vector<uint8_t> reply;
      for (int r = 0; r < kRounds; ++r) {
        const uint64_t id = uint64_t(i * kRounds + r) * 5;
        const uint32_t k = uint32_t(i + r) % 8;
        ASSERT_TRUE(exchange(c.fd, Opcode::compress, id, compress_body, h, reply));
        EXPECT_TRUE(h.code == uint8_t(WireStatus::ok) && reply == w.container);
        ASSERT_TRUE(exchange(c.fd, Opcode::decompress, id + 1, decompress_body, h,
                             reply));
        EXPECT_TRUE(h.code == uint8_t(WireStatus::ok) && reply == decompress_reply);
        ASSERT_TRUE(exchange(c.fd, Opcode::verify, id + 2, w.container, h, reply));
        EXPECT_TRUE(h.code == uint8_t(WireStatus::ok) &&
                    reply.size() ==
                        kVerifyReplyHeaderBytes + 8 * kVerifyChunkRecordBytes &&
                    reply[1] == 1);
        ASSERT_TRUE(exchange(c.fd, Opcode::extract_chunk, id + 3,
                             build_extract_body(k, w.container.data(),
                                                w.container.size()),
                             h, reply));
        EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
        EXPECT_TRUE(chunk_matches_decode(w, reply)) << "chunk " << k;
        ASSERT_TRUE(exchange(c.fd, Opcode::stats, id + 4, {}, h, reply));
        StatsSnapshot snap;
        EXPECT_TRUE(h.code == uint8_t(WireStatus::ok) &&
                    StatsSnapshot::parse(reply.data(), reply.size(), snap));
        answered.fetch_add(5);
      }
    });
  for (auto& t : threads) t.join();
  srv.stop();
  srv.stop();  // idempotent
  EXPECT_EQ(answered.load(), kClients * kRounds * 5);
  EXPECT_EQ(srv.stats().errors, 0u);
}

// --- degraded conditions: deadlines, caps, and hostile disconnects ----------

/// STATS over a raw connection, parsed into a snapshot.
bool fetch_stats(int fd, uint64_t id, StatsSnapshot& snap) {
  FrameHeader h;
  std::vector<uint8_t> reply;
  return exchange(fd, Opcode::stats, id, {}, h, reply) &&
         h.code == uint8_t(WireStatus::ok) &&
         StatsSnapshot::parse(reply.data(), reply.size(), snap);
}

TEST(ServerHardened, IdleConnectionIsReaped) {
  // The acceptance scenario: a connection that sends 23 of the 24 header
  // bytes and stalls must be reaped within the I/O deadline — while other
  // clients keep getting answers the whole time.
  ServerConfig sc;
  sc.workers = 1;
  sc.io_timeout_ms = 200;
  sc.idle_timeout_ms = 2000;
  Server srv(sc);
  ASSERT_EQ(srv.start(), sperr::Status::ok);

  Client stall(srv.port());
  ASSERT_GE(stall.fd, 0);
  std::vector<uint8_t> header;
  put_frame_header(header, kRequestMagic, uint8_t(Opcode::stats), 7, 0);
  // One byte short.
  ASSERT_EQ(write_all_deadline(stall.fd, header.data(), 23, -1), IoOutcome::ok);

  Client good(srv.port());
  ASSERT_GE(good.fd, 0);
  StatsSnapshot snap;
  ASSERT_TRUE(fetch_stats(good.fd, 1, snap));
  EXPECT_EQ(snap.active_connections, 2u);

  // The stalled connection is charged a read timeout and dropped; the
  // well-behaved connection keeps answering throughout.
  sperr::Timer guard;
  while (snap.timeouts_read < 1 && guard.seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(fetch_stats(good.fd, 2, snap));
  }
  EXPECT_GE(snap.timeouts_read, 1u);
  ASSERT_TRUE(fetch_stats(good.fd, 3, snap));
  EXPECT_EQ(snap.active_connections, 1u);
  // The server closed the stalled socket: the next read sees EOF.
  char byte;
  EXPECT_EQ(::recv(stall.fd, &byte, 1, 0), 0);
  srv.stop();
}

TEST(ServerHardened, RequestDeadlineAnswersDeadlineExceeded) {
  ServerConfig sc;
  sc.workers = 1;
  sc.request_deadline_ms = 100;
  sc.process_hook = [](uint8_t opcode) {
    if (Opcode(opcode) == Opcode::verify)
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };
  Server srv(sc);
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
  FrameHeader h;
  std::vector<uint8_t> reply;
  sperr::Timer t;
  ASSERT_TRUE(exchange(c.fd, Opcode::verify, 9, junk, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::deadline_exceeded));
  EXPECT_EQ(h.request_id, 9u);
  EXPECT_LT(t.seconds(), 0.35);  // answered at the deadline, not after the work
  // Let the lone worker drain the abandoned job before probing STATS.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  StatsSnapshot snap;
  ASSERT_TRUE(fetch_stats(c.fd, 10, snap));
  EXPECT_GE(snap.timeouts_request, 1u);
  srv.stop();
}

TEST(ServerHardened, ConnectionCapRepliesBusyAndCloses) {
  ServerConfig sc;
  sc.workers = 1;
  sc.max_connections = 1;
  Server srv(sc);
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client a(srv.port());
  ASSERT_GE(a.fd, 0);
  StatsSnapshot snap;
  ASSERT_TRUE(fetch_stats(a.fd, 1, snap));  // a is registered by now

  // Past the cap: exactly one unsolicited BUSY frame (request id 0, empty
  // body), then EOF.
  Client b(srv.port());
  ASSERT_GE(b.fd, 0);
  uint8_t raw[kFrameHeaderBytes];
  ASSERT_EQ(read_exact_deadline(b.fd, raw, sizeof raw, -1), IoOutcome::ok);
  const FrameHeader h = parse_frame_header(raw);
  EXPECT_EQ(h.magic, kReplyMagic);
  EXPECT_EQ(h.code, uint8_t(WireStatus::busy));
  EXPECT_EQ(h.request_id, 0u);
  EXPECT_EQ(h.body_len, 0u);
  char extra;
  EXPECT_EQ(::recv(b.fd, &extra, 1, 0), 0);

  ASSERT_TRUE(fetch_stats(a.fd, 2, snap));
  EXPECT_GE(snap.conns_rejected, 1u);
  EXPECT_EQ(snap.active_connections, 1u);
  srv.stop();
}

TEST(ServerHardened, RstMidBodyDoesNotCrash) {
  // An abrupt RST halfway through a request body must not crash the server
  // or corrupt its counters; other connections keep working.
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  for (int round = 0; round < 4; ++round) {
    Client c(srv.port());
    ASSERT_GE(c.fd, 0);
    std::vector<uint8_t> frame;
    put_frame_header(frame, kRequestMagic, uint8_t(Opcode::verify), 1,
                     w.container.size());
    ASSERT_EQ(write_all_deadline(c.fd, frame.data(), frame.size(), -1), IoOutcome::ok);
    ASSERT_EQ(write_all_deadline(c.fd, w.container.data(), w.container.size() / 2, -1),
              IoOutcome::ok);
    struct linger lg = {1, 0};  // RST on close
    ASSERT_EQ(::setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg), 0);
    ::close(c.fd);
    c.fd = -1;
  }
  Client good(srv.port());
  ASSERT_GE(good.fd, 0);
  StatsSnapshot snap;
  ASSERT_TRUE(fetch_stats(good.fd, 5, snap));
  EXPECT_EQ(snap.requests_total, 1u);  // only the STATS; torn requests never ran
  EXPECT_EQ(snap.stats_count, 1u);
  srv.stop();
}

TEST(ServerHardened, HalfCloseAfterRequestStillGetsReply) {
  // shutdown(SHUT_WR) after a complete request: the server must still
  // process it and deliver the reply before seeing the FIN-induced EOF.
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  std::vector<uint8_t> frame;
  put_frame_header(frame, kRequestMagic, uint8_t(Opcode::verify), 21,
                   w.container.size());
  frame.insert(frame.end(), w.container.begin(), w.container.end());
  ASSERT_EQ(write_all_deadline(c.fd, frame.data(), frame.size(), -1), IoOutcome::ok);
  ASSERT_EQ(::shutdown(c.fd, SHUT_WR), 0);
  FrameHeader h;
  std::vector<uint8_t> body;
  ASSERT_TRUE(read_reply(c.fd, h, body));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  EXPECT_EQ(h.request_id, 21u);
  char extra;
  EXPECT_EQ(::recv(c.fd, &extra, 1, 0), 0);  // then EOF
  srv.stop();
}

TEST(ServerHardened, DisconnectWhileReplyInFlightDoesNotCrash) {
  // Clients that vanish while the worker is computing their reply: the
  // write fails, the reader unwinds, the server survives and its STATS
  // stay coherent.
  const Workload& w = workload();
  auto srv = make_server();
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  const std::vector<uint8_t> body =
      build_decompress_body(0, 8, w.container.data(), w.container.size());
  std::vector<uint8_t> frame;
  put_frame_header(frame, kRequestMagic, uint8_t(Opcode::decompress), 31,
                   body.size());
  frame.insert(frame.end(), body.begin(), body.end());
  for (int round = 0; round < 4; ++round) {
    Client c(srv.port());
    ASSERT_GE(c.fd, 0);
    ASSERT_EQ(write_all_deadline(c.fd, frame.data(), frame.size(), -1), IoOutcome::ok);
    struct linger lg = {1, 0};
    ASSERT_EQ(::setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg), 0);
    ::close(c.fd);  // RST races the in-flight reply
    c.fd = -1;
  }
  Client good(srv.port());
  ASSERT_GE(good.fd, 0);
  FrameHeader h;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(exchange(good.fd, Opcode::verify, 40, w.container, h, reply));
  EXPECT_EQ(h.code, uint8_t(WireStatus::ok));
  // Each RST'd connection's reader unwinds on its own thread, possibly
  // after this reply: wait (bounded) for the count to settle at `good`.
  StatsSnapshot snap;
  ASSERT_TRUE(fetch_stats(good.fd, 41, snap));
  sperr::Timer guard;
  while (snap.active_connections != 1u && guard.seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(fetch_stats(good.fd, 42, snap));
  }
  EXPECT_EQ(snap.active_connections, 1u);
  srv.stop();
}

// --- docs/PROTOCOL.md conformance replay ------------------------------------

/// One request/reply exchange parsed from the doc's conformance block.
struct Exchange {
  std::vector<uint8_t> request;
  std::vector<uint8_t> reply;      // expected bytes; paired with `wild`
  std::vector<bool> wild;          // true = byte is `??` (not compared)
};

std::vector<Exchange> parse_conformance_block(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::vector<Exchange> exchanges;
  std::string line;
  bool inside = false;
  bool last_was_reply = true;  // a `>>` after a `<<` starts a new exchange
  while (std::getline(in, line)) {
    if (line.find("conformance:begin") != std::string::npos) {
      inside = true;
      continue;
    }
    if (line.find("conformance:end") != std::string::npos) break;
    if (!inside) continue;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    const bool is_req = tok == ">>";
    if (!is_req && tok != "<<") continue;
    if (is_req && last_was_reply) exchanges.emplace_back();
    last_was_reply = !is_req;
    EXPECT_FALSE(exchanges.empty()) << "conformance block starts with <<";
    Exchange& ex = exchanges.back();
    while (ls >> tok) {
      if (tok == "??") {
        EXPECT_FALSE(is_req) << "wildcards are reply-only";
        ex.reply.push_back(0);
        ex.wild.push_back(true);
      } else {
        const uint8_t b = uint8_t(std::stoul(tok, nullptr, 16));
        if (is_req) {
          ex.request.push_back(b);
        } else {
          ex.reply.push_back(b);
          ex.wild.push_back(false);
        }
      }
    }
  }
  return exchanges;
}

TEST(ProtocolConformance, WorkedExampleReplaysVerbatim) {
  // The doc documents this exact configuration next to the hexdump.
  auto srv = make_server(/*workers=*/2, /*queue=*/8);
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  const auto exchanges = parse_conformance_block(SPERR_PROTOCOL_MD);
  ASSERT_EQ(exchanges.size(), 3u) << "expected 3 worked exchanges in the doc";

  Client c(srv.port());
  ASSERT_GE(c.fd, 0);
  for (size_t i = 0; i < exchanges.size(); ++i) {
    const Exchange& ex = exchanges[i];
    ASSERT_GE(ex.request.size(), kFrameHeaderBytes) << "exchange " << i;
    ASSERT_GE(ex.reply.size(), kFrameHeaderBytes) << "exchange " << i;
    ASSERT_EQ(write_all_deadline(c.fd, ex.request.data(), ex.request.size(), -1),
              IoOutcome::ok);
    std::vector<uint8_t> got(ex.reply.size());
    ASSERT_EQ(read_exact_deadline(c.fd, got.data(), got.size(), -1), IoOutcome::ok)
        << "exchange " << i;
    for (size_t b = 0; b < got.size(); ++b) {
      if (ex.wild[b]) continue;
      ASSERT_EQ(got[b], ex.reply[b])
          << "exchange " << i << " reply byte " << b << " differs from the doc";
    }
  }
}

}  // namespace
