#pragma once

// Deterministic socket-level fault injection for sperr_serve — the
// network-layer sibling of testkit/faultinject.h (the storage-fault
// planner). A ChaosProxy listens on its own loopback port and forwards
// byte streams to an upstream server, but each accepted connection gets a
// fault plan derived purely from (seed, connection index): at planned
// byte offsets, in a planned direction, the proxy injects
//
//   split_write     — forwards a run of bytes one at a time with short
//                     sleeps (exercises short-read/short-write handling)
//   stall           — stops forwarding mid-stream for a planned interval
//                     (exercises idle/IO deadlines; a long enough stall
//                     *is* a slow-loris)
//   rst             — aborts the connection with SO_LINGER{1,0} + close,
//                     so both endpoints see ECONNRESET, not FIN
//   half_close      — shuts down one direction only (FIN) while the other
//                     keeps flowing
//   truncate_close  — discards the rest of the in-flight bytes and closes
//                     cleanly: the peer sees a well-formed FIN mid-message
//
// The same seed replays the same campaign byte-for-byte, which is what
// lets CI assert "the server survives plan #42" rather than "the server
// survived whatever happened today".
//
// Each connection is served by ONE thread that polls both sockets —
// full-duplex forwarding without a second pump thread, so fault actions
// that close or reconfigure descriptors never race a sibling.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace sperr::server {

enum class FaultKind : uint8_t {
  split_write = 0,
  stall = 1,
  rst = 2,
  half_close = 3,
  truncate_close = 4,
};

[[nodiscard]] constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::split_write: return "split_write";
    case FaultKind::stall: return "stall";
    case FaultKind::rst: return "rst";
    case FaultKind::half_close: return "half_close";
    case FaultKind::truncate_close: return "truncate_close";
  }
  return "unknown";
}

/// One planned fault on one connection.
struct FaultEvent {
  bool upstream = true;   ///< true: client->server bytes; false: replies
  uint64_t at_byte = 0;   ///< fires when this many bytes have been forwarded
  FaultKind kind = FaultKind::split_write;
  int param = 0;          ///< split: run length; stall: milliseconds
};

struct ChaosConfig {
  uint16_t upstream_port = 0;  ///< the real server
  uint16_t listen_port = 0;    ///< 0 = ephemeral; read back with port()
  uint64_t seed = 1;

  /// Per-connection fault count is drawn in [0, max_events_per_conn] for
  /// each direction. Connections with zero faults are the control group.
  int max_events_per_conn = 2;
  int split_run_max = 32;     ///< split_write run length bound (bytes)
  int stall_ms_min = 20;
  int stall_ms_max = 120;
  uint64_t offset_window = 4096;  ///< fault offsets are drawn in [0, window)
};

/// Counters of faults actually applied (a planned fault at byte 10'000 on
/// a connection that only moved 200 bytes never fires).
struct ChaosCounters {
  uint64_t connections = 0;
  uint64_t splits = 0;
  uint64_t stalls = 0;
  uint64_t rsts = 0;
  uint64_t half_closes = 0;
  uint64_t truncates = 0;
  [[nodiscard]] uint64_t events() const {
    return splits + stalls + rsts + half_closes + truncates;
  }
};

/// The deterministic per-connection plan (exposed for tests: the same
/// (seed, index) must always yield the same plan).
std::vector<FaultEvent> make_fault_plan(const ChaosConfig& cfg,
                                        uint64_t conn_index);

class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosConfig cfg);
  ~ChaosProxy();  // stop()s if still running

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Bind, listen, and start proxying. False when the port cannot bind.
  bool start();

  /// The proxy's own listening port (valid after start()).
  [[nodiscard]] uint16_t port() const;

  /// Stop accepting, abort live connections, join every thread.
  void stop();

  [[nodiscard]] ChaosCounters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sperr::server
