// Retrying client tests (src/server/client.h): backoff determinism and
// bounds, bounded connect failure, idempotency gating (VERIFY retries
// through a deadline, COMPRESS does not), the lifetime retry budget, and a
// mini chaos soak driving every fault kind through the ChaosProxy.

#include "server/client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "server/server.h"
#include "sperr/sperr.h"
#include "testkit/chaosproxy.h"

namespace {

using namespace sperr::server;
using sperr::Dims;
using sperr::Rng;

TEST(Backoff, DeterministicAndBounded) {
  // Same seed, same sequence; every step inside [base, cap].
  Rng a(123), b(123);
  int prev_a = 0, prev_b = 0;
  for (int i = 0; i < 200; ++i) {
    const int na = backoff_next_ms(prev_a, 5, 500, a);
    const int nb = backoff_next_ms(prev_b, 5, 500, b);
    EXPECT_EQ(na, nb);
    EXPECT_GE(na, 5);
    EXPECT_LE(na, 500);
    prev_a = na;
    prev_b = nb;
  }
}

TEST(Backoff, GrowsFromBaseAndSaturatesAtCap) {
  // From prev = cap the next step can reach cap but never beyond; from
  // prev = 0 it starts at the base.
  Rng rng(7);
  EXPECT_EQ(backoff_next_ms(0, 10, 1000, rng), 10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(backoff_next_ms(1000, 10, 1000, rng), 1000);
  }
}

TEST(ClientConnect, FailsWithinBudgetWhenNothingListens) {
  ClientConfig cfg;
  cfg.port = 1;  // nothing listens on port 1
  cfg.connect_budget_ms = 300;
  Client c(cfg);
  sperr::Timer t;
  EXPECT_FALSE(c.connect());
  EXPECT_LT(t.seconds(), 5.0);  // bounded, not a hang
  EXPECT_FALSE(c.connected());
  EXPECT_GE(c.stats().transport_errors, 1u);
}

TEST(ClientCall, PlainRoundTripAndMismatchedJunk) {
  ServerConfig sc;
  sc.workers = 1;
  Server srv(sc);
  ASSERT_EQ(srv.start(), sperr::Status::ok);
  ClientConfig cfg;
  cfg.port = srv.port();
  Client c(cfg);

  CallResult r = c.call(Opcode::stats, {});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.status, WireStatus::ok);
  EXPECT_EQ(r.attempts, 1);

  // A deterministic rejection comes back ok=true (transport worked) with
  // the server's verdict, and is never retried.
  const std::vector<uint8_t> junk = {1, 2, 3};
  r = c.call(Opcode::verify, junk);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.status, WireStatus::corrupt);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(c.stats().retries, 0u);
  srv.stop();
}

/// Server whose lone worker stalls the first `stalls` requests of a given
/// opcode past the tight request deadline: those attempts are answered
/// DEADLINE_EXCEEDED, later ones succeed. Paired with a client backoff
/// (250–400 ms) long enough that each retry arrives after the worker has
/// drained the abandoned stall, so attempt counts are deterministic.
struct FlakyServer {
  std::atomic<int> remaining;
  Server srv;

  explicit FlakyServer(Opcode op, int stalls)
      : remaining(stalls), srv(make_config(op, this)) {}

  ServerConfig make_config(Opcode op, FlakyServer* self) {
    ServerConfig sc;
    sc.workers = 1;
    sc.request_deadline_ms = 80;
    sc.process_hook = [op, self](uint8_t code) {
      if (Opcode(code) != op) return;
      if (self->remaining.fetch_sub(1) > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      else
        self->remaining.fetch_add(1);  // clamp: stay spent, don't go negative
    };
    return sc;
  }
};

TEST(ClientRetry, IdempotentOpRetriesThroughDeadline) {
  FlakyServer flaky(Opcode::verify, 2);
  ASSERT_EQ(flaky.srv.start(), sperr::Status::ok);
  ClientConfig cfg;
  cfg.port = flaky.srv.port();
  cfg.max_attempts = 6;
  cfg.backoff_base_ms = 250;
  cfg.backoff_cap_ms = 400;
  Client c(cfg);

  // VERIFY on junk: the first two attempts hit the deadline, the third is
  // served (verdict: corrupt — junk is junk, but the transport recovered).
  const std::vector<uint8_t> junk = {9, 9, 9};
  const CallResult r = c.call(Opcode::verify, junk);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.status, WireStatus::corrupt);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(c.stats().retries, 2u);
  flaky.srv.stop();
}

TEST(ClientRetry, NonIdempotentOpIsNotRetried) {
  FlakyServer flaky(Opcode::compress, 1);
  ASSERT_EQ(flaky.srv.start(), sperr::Status::ok);
  ClientConfig cfg;
  cfg.port = flaky.srv.port();
  cfg.max_attempts = 6;
  cfg.backoff_base_ms = 250;
  cfg.backoff_cap_ms = 400;
  Client c(cfg);

  // A COMPRESS answered DEADLINE_EXCEEDED must NOT be auto-retried: the
  // reply is returned as-is after one attempt.
  const std::vector<uint8_t> junk = {1};  // malformed, but never dispatched
  const CallResult r = c.call(Opcode::compress, junk);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.status, WireStatus::deadline_exceeded);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(c.stats().retries, 0u);

  // Same server, same flake budget — with the opt-in the retry happens.
  flaky.remaining.store(1);
  ClientConfig cfg2 = cfg;
  cfg2.retry_non_idempotent = true;
  Client c2(cfg2);
  const CallResult r2 = c2.call(Opcode::compress, junk);
  EXPECT_TRUE(r2.ok);
  EXPECT_EQ(r2.status, WireStatus::bad_request);  // served on the retry
  EXPECT_EQ(r2.attempts, 2);
  flaky.srv.stop();
}

TEST(ClientRetry, LifetimeBudgetCapsRetries) {
  // No server at all: every attempt is a transport failure, and the
  // lifetime budget (not max_attempts) is what stops the second call early.
  ClientConfig cfg;
  cfg.port = 1;
  cfg.connect_budget_ms = 50;
  cfg.max_attempts = 100;
  cfg.retry_budget = 3;
  cfg.backoff_base_ms = 1;
  cfg.backoff_cap_ms = 2;
  Client c(cfg);

  CallResult r = c.call(Opcode::stats, {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 4);  // 1 initial + 3 budgeted retries
  EXPECT_EQ(c.stats().retries, 3u);

  r = c.call(Opcode::stats, {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 1);  // budget exhausted: no retries left
  EXPECT_EQ(c.stats().retries, 3u);
  EXPECT_EQ(c.stats().giveups, 2u);
}

TEST(ChaosSoak, IdempotentOpsAlwaysRecover) {
  // Mini soak: drive VERIFY/STATS/EXTRACT traffic through a seeded
  // ChaosProxy until a few dozen fault events have fired; every call must
  // come back ok. (The full >= 200-event campaign is the chaos_selftest
  // ctest running tools/sperr_chaos.cpp.)
  ServerConfig sc;
  sc.workers = 2;
  sc.io_timeout_ms = 3000;
  sc.idle_timeout_ms = 10'000;
  Server srv(sc);
  ASSERT_EQ(srv.start(), sperr::Status::ok);

  ChaosConfig cc;
  cc.upstream_port = srv.port();
  cc.seed = 99;
  ChaosProxy proxy(cc);
  ASSERT_TRUE(proxy.start());

  const Dims dims{16, 16, 16};
  const auto field = sperr::data::s3d_temperature(dims);
  sperr::Config scfg;
  scfg.tolerance = 1e-3;
  const std::vector<uint8_t> container =
      sperr::compress(field.data(), dims, scfg);
  ASSERT_FALSE(container.empty());
  const auto extract_body =
      build_extract_body(0, container.data(), container.size());

  ClientConfig cfg;
  cfg.port = proxy.port();
  cfg.op_timeout_ms = 5000;
  cfg.max_attempts = 25;
  cfg.retry_budget = uint64_t(1) << 20;
  cfg.backoff_base_ms = 1;
  cfg.backoff_cap_ms = 20;
  cfg.seed = 99;
  Client c(cfg);

  sperr::Timer guard;
  while (proxy.counters().events() < 40 && guard.seconds() < 60.0) {
    CallResult r = c.call(Opcode::verify, container);
    EXPECT_TRUE(r.ok && r.status == WireStatus::ok) << "verify unrecovered";
    r = c.call(Opcode::extract_chunk, extract_body);
    EXPECT_TRUE(r.ok && r.status == WireStatus::ok) << "extract unrecovered";
    r = c.call(Opcode::stats, {});
    EXPECT_TRUE(r.ok && r.status == WireStatus::ok) << "stats unrecovered";
    c.disconnect();  // fresh connection -> fresh fault plan
  }
  EXPECT_GE(proxy.counters().events(), 40u);
  proxy.stop();
  srv.stop();
}

TEST(ChaosPlan, SameSeedSamePlan) {
  ChaosConfig a, b;
  a.seed = b.seed = 4242;
  a.upstream_port = b.upstream_port = 1;
  const auto plan_a = make_fault_plan(a, 3);
  const auto plan_b = make_fault_plan(b, 3);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].upstream, plan_b[i].upstream);
    EXPECT_EQ(plan_a[i].at_byte, plan_b[i].at_byte);
    EXPECT_EQ(plan_a[i].kind, plan_b[i].kind);
  }
  // Different connection index, different plan stream (usually).
  b.seed = 4243;
  const auto plan_c = make_fault_plan(b, 3);
  // No assertion on inequality (could legitimately collide) — just that it
  // is well-formed: offsets within the window, kinds valid.
  for (const auto& ev : plan_c) {
    EXPECT_LT(ev.at_byte, uint64_t(b.offset_window));
    EXPECT_LE(unsigned(ev.kind), unsigned(FaultKind::truncate_close));
  }
}

}  // namespace
