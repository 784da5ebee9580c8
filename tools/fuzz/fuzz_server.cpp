// Fuzz target: end-to-end bytes -> server handler. A real in-process Server
// (one worker lane, tight memory budget) is started once; every fuzz input
// becomes one correctly framed request — first byte selects the opcode,
// the rest is the body verbatim — so the fuzzer explores the handlers'
// body parsers and the decode stack behind them, not the framing rejects.
// The server must answer every input with *some* status and stay alive;
// a crashed worker or a wedged connection is the bug being hunted.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "server/protocol.h"
#include "server/server.h"

namespace {

sperr::server::Server* start_server() {
  sperr::server::ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.max_body_bytes = size_t(1) << 20;      // fuzz inputs are small
  cfg.max_output_bytes = uint64_t(1) << 22;  // 4 MiB per request
  cfg.max_memory_bytes = uint64_t(1) << 23;  // 8 MiB shared pool
  cfg.io_timeout_ms = 5'000;
  cfg.idle_timeout_ms = -1;  // the harness connection legitimately idles
  auto* server = new sperr::server::Server(cfg);
  if (server->start() != sperr::Status::ok) std::abort();
  return server;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace sperr::server;
  static Server* server = start_server();
  static int fd = connect_loopback_deadline(server->port(), -1);
  if (size == 0) return 0;

  // Opcodes 1..4 (compress / decompress / verify / extract_chunk); STATS
  // requires an empty body and is covered by the exchange below anyway
  // when size == 1 maps to a zero-length body.
  const auto op = Opcode(1 + data[0] % 4);
  const std::vector<uint8_t> body(data + 1, data + size);

  FrameHeader reply_hdr;
  std::vector<uint8_t> reply_body;
  if (fd < 0 ||
      !exchange(fd, op, /*request_id=*/1, body, reply_hdr, reply_body)) {
    // Transport failure: the server closes connections on framing doubt,
    // never on a well-framed hostile body — reconnect and keep fuzzing
    // (a server that died entirely will fail the reconnect and every
    // subsequent input, which libFuzzer surfaces as a hang/timeout).
    if (fd >= 0) ::close(fd);
    fd = connect_loopback_deadline(server->port(), -1);
  }
  return 0;
}
