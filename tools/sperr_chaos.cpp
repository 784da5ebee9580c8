// sperr_chaos — deterministic socket-fault campaign against sperr_serve.
//
//   sperr_chaos [--port P] [--seed S] [--events N] [--duration-s T] [--quiet]
//
// Places a seeded ChaosProxy (tools/testkit/chaosproxy.h) in front of a
// server and drives request traffic through it with the retrying Client
// until at least N fault events (split writes, mid-body stalls, RSTs,
// half-closes, truncating closes) have actually fired. Every idempotent
// operation (DECOMPRESS / VERIFY / EXTRACT_CHUNK / STATS) must come back
// with status ok despite the faults — one that exhausts its retries fails
// the campaign. COMPRESS traffic rides along (with the client's explicit
// retry_non_idempotent opt-in; the server is stateless) to exercise the
// request-direction fault path with large bodies, but only idempotent
// recovery is asserted.
//
// With --port the campaign targets a live server (the CI chaos-smoke job
// runs this against a sanitized sperr_serve and then asserts the server
// still exits 0). Without it, an in-process server is started — that mode
// is the chaos_selftest ctest. The same --seed replays the same campaign.
//
// Exit codes: 0 campaign complete and all idempotent ops recovered,
// 1 unrecovered operation or the duration cap expired short of the event
// target, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "server/client.h"
#include "server/server.h"
#include "sperr/sperr.h"
#include "testkit/chaosproxy.h"

namespace {

using namespace sperr;
using namespace sperr::server;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  sperr_chaos [--port P] [--seed S] [--events N] [--duration-s T] [--quiet]\n"
               "\n"
               "  --port P       target a live sperr_serve on 127.0.0.1:P\n"
               "                 (default: start an in-process server = selftest)\n"
               "  --seed S       fault-plan seed (default 42); same seed, same campaign\n"
               "  --events N     stop once N fault events have fired (default 200)\n"
               "  --duration-s T give up (exit 1) after T seconds (default 120)\n"
               "  --quiet        summary line only\n");
  std::exit(2);
}

long parse_long(const char* v, const char* what) {
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') usage(what);
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t target_port = 0;
  bool external = false;
  uint64_t seed = 42;
  uint64_t target_events = 200;
  double duration_s = 120.0;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (++i >= argc) usage(what);
      return argv[i];
    };
    if (a == "--port") {
      const long p = parse_long(next("--port needs a number"), "--port needs a number");
      if (p < 1 || p > 65535) usage("--port must be in [1, 65535]");
      target_port = uint16_t(p);
      external = true;
    } else if (a == "--seed") {
      seed = uint64_t(parse_long(next("--seed needs a number"), "--seed needs a number"));
    } else if (a == "--events") {
      const long n = parse_long(next("--events needs a count"), "--events needs a count");
      if (n < 1) usage("--events must be >= 1");
      target_events = uint64_t(n);
    } else if (a == "--duration-s") {
      duration_s = double(parse_long(next("--duration-s needs seconds"), "--duration-s needs seconds"));
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }

  // In-process server for the selftest mode. Timeouts are tuned so a
  // planned stall (<= 120 ms) never trips them — the campaign measures
  // recovery from faults, not the server's (separately tested) reaping.
  std::unique_ptr<Server> local;
  if (!external) {
    ServerConfig scfg;
    scfg.workers = 2;
    scfg.queue_capacity = 32;
    scfg.io_timeout_ms = 3000;
    scfg.idle_timeout_ms = 10'000;
    if (local = std::make_unique<Server>(scfg); local->start() != Status::ok) {
      std::fprintf(stderr, "sperr_chaos: cannot start in-process server\n");
      return 1;
    }
    target_port = local->port();
  }

  ChaosConfig ccfg;
  ccfg.upstream_port = target_port;
  ccfg.seed = seed;
  ChaosProxy proxy(ccfg);
  if (!proxy.start()) {
    std::fprintf(stderr, "sperr_chaos: cannot start proxy\n");
    return 1;
  }

  // Deterministic traffic: one small field, compressed locally once; the
  // campaign replays DECOMPRESS / VERIFY / EXTRACT_CHUNK / STATS (asserted)
  // plus COMPRESS (ride-along) against the container.
  const Dims dims{16, 16, 16};
  std::vector<double> field(dims.total());
  Rng rng(seed);
  for (double& v : field) v = rng.gaussian();
  Config ccfg2;
  ccfg2.mode = Mode::pwe;
  ccfg2.tolerance = 1e-3;
  const std::vector<uint8_t> container = compress(field.data(), dims, ccfg2);
  if (container.empty()) {
    std::fprintf(stderr, "sperr_chaos: local compress failed\n");
    return 1;
  }
  const auto decompress_body = build_decompress_body(0, 8, container.data(), container.size());
  const auto extract_body = build_extract_body(0, container.data(), container.size());
  const auto compress_body = build_compress_body(ccfg2, dims, field.data());

  ClientConfig kcfg;
  kcfg.port = proxy.port();
  kcfg.op_timeout_ms = 5000;
  kcfg.connect_budget_ms = 10'000;
  // DECOMPRESS replies span the whole fault-offset window, so a single
  // attempt dies with probability well over one half; a generous attempt
  // bound keeps the campaign's "every idempotent op recovers" assertion
  // meaningful rather than luck-dependent.
  kcfg.max_attempts = 25;
  kcfg.retry_budget = uint64_t(1) << 20;
  kcfg.backoff_base_ms = 2;
  kcfg.backoff_cap_ms = 50;
  kcfg.retry_non_idempotent = true;  // stateless server; exercises c2s faults
  kcfg.seed = seed ^ 0xc11e47ULL;
  Client client(kcfg);

  Timer clock;
  uint64_t unrecovered = 0;
  uint64_t batches = 0;
  const struct {
    Opcode op;
    const std::vector<uint8_t>* body;
    bool asserted;
  } mix[] = {
      {Opcode::stats, nullptr, true},
      {Opcode::verify, &container, true},
      {Opcode::decompress, &decompress_body, true},
      {Opcode::extract_chunk, &extract_body, true},
      {Opcode::compress, &compress_body, false},
  };
  const std::vector<uint8_t> empty;
  while (proxy.counters().events() < target_events) {
    if (clock.seconds() > duration_s) break;
    for (const auto& m : mix) {
      const CallResult res = client.call(m.op, m.body ? *m.body : empty);
      if (m.asserted && !(res.ok && res.status == WireStatus::ok)) {
        ++unrecovered;
        if (!quiet)
          std::fprintf(stderr,
                       "sperr_chaos: opcode %u unrecovered after %d attempt(s) "
                       "(ok=%d status=%s)\n",
                       unsigned(m.op), res.attempts, int(res.ok),
                       to_string(res.status));
      }
    }
    ++batches;
    // Force a fresh proxy connection (and with it a fresh fault plan) so
    // campaigns make progress even through fault-free control connections.
    client.disconnect();
  }

  const ChaosCounters c = proxy.counters();
  const ClientStats& ks = client.stats();
  const bool reached = c.events() >= target_events;
  std::printf(
      "sperr_chaos: seed %llu: %llu event(s) over %llu connection(s) in %llu "
      "batch(es) [%llu split, %llu stall, %llu rst, %llu half_close, %llu "
      "truncate]\n"
      "sperr_chaos: client: %llu call(s), %llu retrie(s), %llu reconnect(s), "
      "%llu transport error(s), %llu giveup(s); %llu unrecovered idempotent "
      "op(s)%s\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(c.events()),
      static_cast<unsigned long long>(c.connections),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(c.splits),
      static_cast<unsigned long long>(c.stalls),
      static_cast<unsigned long long>(c.rsts),
      static_cast<unsigned long long>(c.half_closes),
      static_cast<unsigned long long>(c.truncates),
      static_cast<unsigned long long>(ks.calls),
      static_cast<unsigned long long>(ks.retries),
      static_cast<unsigned long long>(ks.reconnects),
      static_cast<unsigned long long>(ks.transport_errors),
      static_cast<unsigned long long>(ks.giveups),
      static_cast<unsigned long long>(unrecovered),
      reached ? "" : " [DURATION CAP HIT SHORT OF TARGET]");
  proxy.stop();
  if (local) local->stop();
  return (unrecovered == 0 && reached) ? 0 : 1;
}
