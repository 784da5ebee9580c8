#pragma once

// Retrying client for the sperr_serve wire protocol (docs/OPERATIONS.md
// "Timeouts, overload, and retries" documents the recommended settings).
//
// The client owns one connection and layers three things the raw
// protocol.h helpers do not: (1) connect-with-retry under a total budget,
// so racing a just-started server on an ephemeral port converges instead
// of failing on the first SYN; (2) per-operation transport deadlines on
// every send/recv, so a dead or wedged server surfaces as a failed call
// rather than a hang; (3) automatic retry with bounded decorrelated-jitter
// backoff — but only where a retry is safe:
//
//   - transport failures and the retryable reply statuses (BUSY,
//     DEADLINE_EXCEEDED; see is_retryable in protocol.h) retry only for
//     idempotent opcodes (everything but COMPRESS — re-running a
//     DECOMPRESS/VERIFY/EXTRACT_CHUNK/STATS cannot change server state or
//     give a different answer, while a duplicated COMPRESS doubles work
//     and, for future stateful deployments, effects);
//   - deterministic rejections (bad_request, corrupt, verify_failed,
//     unsupported_version) never retry — the answer would not change;
//   - a lifetime retry budget caps the total retries one Client will ever
//     issue, so a down server costs O(budget) attempts, not unbounded.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "server/protocol.h"

namespace sperr::server {

/// Is `op` safe to retry automatically after a transport failure or a
/// retryable rejection? Everything but COMPRESS: read-only operations give
/// the same answer every time, while a COMPRESS that may have been
/// processed must be re-issued by the caller who can reason about it.
[[nodiscard]] constexpr bool is_idempotent(Opcode op) {
  return op != Opcode::compress;
}

/// One decorrelated-jitter backoff step (the AWS "decorrelated jitter"
/// scheme): next = min(cap, uniform(base, prev * 3)). Exposed as a free
/// function so tests can pin its bounds and determinism.
[[nodiscard]] int backoff_next_ms(int prev_ms, int base_ms, int cap_ms,
                                  Rng& rng);

struct ClientConfig {
  uint16_t port = 0;

  /// Total budget for establishing a connection, across however many
  /// attempts fit (each attempt's own timeout is bounded by the remaining
  /// budget). Covers the bench's ephemeral-port race: the listening line
  /// is printed before accept() runs, so early SYNs can lose.
  int connect_budget_ms = 10'000;

  /// Transport deadline for one send-request/receive-reply exchange.
  int op_timeout_ms = 30'000;

  /// Decorrelated-jitter backoff parameters (milliseconds).
  int backoff_base_ms = 5;
  int backoff_cap_ms = 500;

  /// Attempts per call() (1 = no retry).
  int max_attempts = 4;

  /// Lifetime retry cap across all calls on this Client instance.
  uint64_t retry_budget = 256;

  /// Opt-in: also auto-retry COMPRESS. Safe against today's stateless
  /// server; off by default per the idempotency gating contract.
  bool retry_non_idempotent = false;

  /// Seed for the jitter PRNG (deterministic backoff sequences in tests).
  uint64_t seed = 0x5eed5c1ee47ULL;

  size_t max_reply_body = kDefaultMaxBodyBytes;
};

/// Client-side counters (the `retries` metric of the hardening layer lives
/// here — the server cannot know whether two arrivals were one logical
/// call).
struct ClientStats {
  uint64_t calls = 0;        ///< call() invocations
  uint64_t retries = 0;      ///< extra attempts beyond each call's first
  uint64_t reconnects = 0;   ///< successful connects after the first
  uint64_t transport_errors = 0;  ///< send/recv/connect failures observed
  uint64_t giveups = 0;      ///< calls that exhausted attempts or budget
};

/// Outcome of one call(). `ok` is transport-level success (a reply frame
/// was received and matched the request id); the application verdict is
/// `status`.
struct CallResult {
  bool ok = false;
  WireStatus status = WireStatus::io_error;
  std::vector<uint8_t> body;
  int attempts = 0;  ///< attempts consumed (>= 1 once anything was tried)
};

class Client {
 public:
  explicit Client(ClientConfig cfg);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establish the connection now (retrying under connect_budget_ms).
  /// call() connects lazily, so this is optional — it exists so callers
  /// can fail fast at startup. Returns false when the budget ran out.
  bool connect();

  /// Send one request and wait for its reply, retrying per the policy
  /// above. The request id is chosen by the client (monotonic) and echoed
  /// back in the reply; mismatched ids are a transport failure.
  CallResult call(Opcode op, const std::vector<uint8_t>& body);

  /// Drop the connection (next call() reconnects).
  void disconnect();

  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

 private:
  bool ensure_connected(int budget_ms);

  ClientConfig cfg_;
  Rng rng_;
  ClientStats stats_;
  int fd_ = -1;
  bool connected_once_ = false;
  uint64_t next_request_id_ = 1;
};

}  // namespace sperr::server
