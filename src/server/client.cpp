#include "server/client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/timer.h"

namespace sperr::server {

int backoff_next_ms(int prev_ms, int base_ms, int cap_ms, Rng& rng) {
  if (base_ms < 1) base_ms = 1;
  if (cap_ms < base_ms) cap_ms = base_ms;
  const double hi = std::max(double(base_ms) + 1.0, 3.0 * double(prev_ms));
  const int next = int(rng.uniform(double(base_ms), hi));
  return std::min(cap_ms, std::max(base_ms, next));
}

Client::Client(ClientConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::ensure_connected(int budget_ms) {
  if (fd_ >= 0) return true;
  Timer spent;
  int backoff = cfg_.backoff_base_ms;
  for (;;) {
    const int remain = budget_ms - int(spent.milliseconds());
    if (remain <= 0) break;
    // Each attempt's own timeout never exceeds what is left of the budget.
    fd_ = connect_loopback_deadline(cfg_.port, std::min(remain, 1000));
    if (fd_ >= 0) {
      if (connected_once_) ++stats_.reconnects;
      connected_once_ = true;
      return true;
    }
    ++stats_.transport_errors;
    backoff = backoff_next_ms(backoff, cfg_.backoff_base_ms,
                              cfg_.backoff_cap_ms, rng_);
    const int nap = std::min(backoff, budget_ms - int(spent.milliseconds()));
    if (nap <= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(nap));
  }
  return false;
}

bool Client::connect() { return ensure_connected(cfg_.connect_budget_ms); }

CallResult Client::call(Opcode op, const std::vector<uint8_t>& body) {
  ++stats_.calls;
  CallResult res;
  const bool may_retry = is_idempotent(op) || cfg_.retry_non_idempotent;
  int backoff = cfg_.backoff_base_ms;
  const int max_attempts = std::max(1, cfg_.max_attempts);
  for (int attempt = 1;; ++attempt) {
    res.attempts = attempt;
    res.ok = false;
    if (ensure_connected(cfg_.connect_budget_ms)) {
      const uint64_t rid = next_request_id_++;
      FrameHeader hdr;
      std::vector<uint8_t> reply;
      if (exchange(fd_, op, rid, body, hdr, reply, cfg_.max_reply_body,
                   cfg_.op_timeout_ms)) {
        res.ok = true;
        res.status = WireStatus(hdr.code);
        res.body = std::move(reply);
        if (!is_retryable(res.status)) return res;
        // BUSY / DEADLINE_EXCEEDED: the server refused or abandoned the
        // work; fall through to the retry decision. If we cannot retry,
        // the caller still sees ok=true with the retryable status.
      } else {
        // Transport failure mid-exchange: the stream can no longer be
        // framed, so the connection is dropped and (if permitted) the
        // call retried on a fresh one.
        ++stats_.transport_errors;
        disconnect();
      }
    }
    if (attempt >= max_attempts || !may_retry ||
        stats_.retries >= cfg_.retry_budget) {
      if (!res.ok) ++stats_.giveups;
      return res;
    }
    ++stats_.retries;
    backoff = backoff_next_ms(backoff, cfg_.backoff_base_ms,
                              cfg_.backoff_cap_ms, rng_);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

}  // namespace sperr::server
