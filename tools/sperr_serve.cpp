// sperr_serve — long-lived TCP compression server over the SPERR library.
//
//   sperr_serve [--port P] [--workers N] [--queue-depth Q]
//               [--request-threads N] [--intra-threads N]
//               [--max-body-mb M] [--max-conns N]
//               [--max-output-mb M] [--max-memory-mb M]
//               [--io-timeout-ms T] [--idle-timeout-ms T]
//               [--request-deadline-ms T] [--drain-deadline-ms T] [--quiet]
//
// Binds 127.0.0.1:P (P = 0 picks an ephemeral port) and speaks the
// length-prefixed binary protocol specified in docs/PROTOCOL.md (COMPRESS /
// DECOMPRESS / VERIFY / EXTRACT_CHUNK / STATS). Prints one "listening on"
// line to stdout once ready — scripts and the CI smoke job parse the port
// from it — then serves until SIGINT/SIGTERM, drains every admitted
// request, prints a final metrics summary, and exits 0.
//
// Tuning guidance lives in docs/OPERATIONS.md. Exit codes follow the
// sperr_cc contract: 0 clean shutdown, 1 I/O (bind) failure, 2 usage error.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/threadpool.h"
#include "server/server.h"

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  sperr_serve [--port P] [--workers N] [--queue-depth Q]\n"
               "              [--request-threads N] [--intra-threads N]\n"
               "              [--max-body-mb M] [--max-conns N]\n"
               "              [--max-output-mb M] [--max-memory-mb M]\n"
               "              [--io-timeout-ms T] [--idle-timeout-ms T]\n"
               "              [--request-deadline-ms T] [--drain-deadline-ms T]\n"
               "              [--quiet]\n"
               "\n"
               "  --port P             TCP port on 127.0.0.1 (default 0 = ephemeral)\n"
               "  --workers N          request-processing threads (default 0 = one per core)\n"
               "  --queue-depth Q      bounded-queue high-water mark (default 64)\n"
               "  --request-threads N  OpenMP chunk threads inside one request (default 1)\n"
               "  --intra-threads N    deterministic SPECK lanes per chunk (default 1)\n"
               "  --max-body-mb M      reject frames with bodies over M MiB (default 1024)\n"
               "  --max-conns N        concurrent connection cap; past it new\n"
               "                       connections get one BUSY and are closed\n"
               "                       (default 256, 0 = unlimited)\n"
               "  --max-output-mb M    answer RESOURCE_EXHAUSTED when one request's\n"
               "                       header declares more than M MiB of decoded\n"
               "                       output (default 0 = library default, 64 GiB)\n"
               "  --max-memory-mb M    global decode memory pool shared by all lanes;\n"
               "                       requests reserve their declared working set\n"
               "                       from it or get RESOURCE_EXHAUSTED\n"
               "                       (default 0 = no shared pool)\n"
               "  --io-timeout-ms T    budget to finish one started read/write\n"
               "                       (default 30000, -1 = none)\n"
               "  --idle-timeout-ms T  reap connections idle between requests for T\n"
               "                       (default 60000, -1 = none)\n"
               "  --request-deadline-ms T  answer DEADLINE_EXCEEDED when a request\n"
               "                       is not done T ms after admission (default 0 = off)\n"
               "  --drain-deadline-ms T  bound on the shutdown drain; leftover jobs\n"
               "                       answer DEADLINE_EXCEEDED (default 30000, -1 = full drain)\n"
               "  --quiet              only the listening line and fatal errors\n");
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
  sperr::server::ServerConfig cfg;
  cfg.workers = 0;  // resolved below: one lane per core
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (++i >= argc) usage(what);
      return argv[i];
    };
    if (a == "--port") {
      const long p = parse_long(next("--port needs a number"), "--port needs a number");
      if (p < 0 || p > 65535) usage("--port must be in [0, 65535]");
      cfg.port = uint16_t(p);
    } else if (a == "--workers") {
      cfg.workers = int(parse_long(next("--workers needs a count"), "--workers needs a count"));
    } else if (a == "--queue-depth") {
      const long q = parse_long(next("--queue-depth needs a count"), "--queue-depth needs a count");
      if (q < 1) usage("--queue-depth must be >= 1");
      cfg.queue_capacity = size_t(q);
    } else if (a == "--request-threads") {
      cfg.threads_per_request =
          int(parse_long(next("--request-threads needs a count"), "--request-threads needs a count"));
    } else if (a == "--intra-threads") {
      cfg.intra_chunk_threads =
          int(parse_long(next("--intra-threads needs a count"), "--intra-threads needs a count"));
    } else if (a == "--max-body-mb") {
      const long m = parse_long(next("--max-body-mb needs a size"), "--max-body-mb needs a size");
      if (m < 1) usage("--max-body-mb must be >= 1");
      cfg.max_body_bytes = size_t(m) << 20;
    } else if (a == "--max-conns") {
      const long n = parse_long(next("--max-conns needs a count"), "--max-conns needs a count");
      if (n < 0) usage("--max-conns must be >= 0");
      cfg.max_connections = size_t(n);
    } else if (a == "--max-output-mb") {
      const long m = parse_long(next("--max-output-mb needs a size"), "--max-output-mb needs a size");
      if (m < 0) usage("--max-output-mb must be >= 0");
      cfg.max_output_bytes = uint64_t(m) << 20;
    } else if (a == "--max-memory-mb") {
      const long m = parse_long(next("--max-memory-mb needs a size"), "--max-memory-mb needs a size");
      if (m < 0) usage("--max-memory-mb must be >= 0");
      cfg.max_memory_bytes = uint64_t(m) << 20;
    } else if (a == "--io-timeout-ms") {
      cfg.io_timeout_ms =
          int(parse_long(next("--io-timeout-ms needs a time"), "--io-timeout-ms needs a time"));
    } else if (a == "--idle-timeout-ms") {
      cfg.idle_timeout_ms =
          int(parse_long(next("--idle-timeout-ms needs a time"), "--idle-timeout-ms needs a time"));
    } else if (a == "--request-deadline-ms") {
      cfg.request_deadline_ms = int(parse_long(next("--request-deadline-ms needs a time"),
                                               "--request-deadline-ms needs a time"));
    } else if (a == "--drain-deadline-ms") {
      cfg.drain_deadline_ms = int(parse_long(next("--drain-deadline-ms needs a time"),
                                             "--drain-deadline-ms needs a time"));
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  cfg.workers = sperr::resolve_thread_count(cfg.workers);

  // Block the shutdown signals before any thread exists so every server
  // thread inherits the mask and only main's sigwait consumes them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  sperr::server::Server server(cfg);
  if (server.start() != sperr::Status::ok) {
    std::fprintf(stderr, "error: cannot bind 127.0.0.1:%u\n", unsigned(cfg.port));
    return 1;
  }
  std::printf("sperr_serve: listening on 127.0.0.1:%u (workers %d, queue %zu)\n",
              unsigned(server.port()), cfg.workers, cfg.queue_capacity);
  std::fflush(stdout);  // scripts parse the port from this line

  int sig = 0;
  sigwait(&sigs, &sig);
  if (!quiet)
    std::printf("sperr_serve: %s, draining and shutting down\n",
                sig == SIGINT ? "SIGINT" : "SIGTERM");
  server.stop();

  if (!quiet) {
    const auto s = server.stats();
    std::printf(
        "sperr_serve: served %llu request(s) in %.1fs "
        "(%llu compress, %llu decompress, %llu verify, %llu extract, %llu stats)\n"
        "sperr_serve: %llu busy rejection(s), %llu error repl(y/ies), "
        "%.1f MB in, %.1f MB out, mean queue wait %.2f ms\n",
        static_cast<unsigned long long>(s.requests_total), s.uptime_seconds,
        static_cast<unsigned long long>(s.compress_count),
        static_cast<unsigned long long>(s.decompress_count),
        static_cast<unsigned long long>(s.verify_count),
        static_cast<unsigned long long>(s.extract_count),
        static_cast<unsigned long long>(s.stats_count),
        static_cast<unsigned long long>(s.rejected_busy),
        static_cast<unsigned long long>(s.errors), double(s.bytes_in) / 1e6,
        double(s.bytes_out) / 1e6,
        s.requests_total ? s.queue_wait_seconds / double(s.requests_total) * 1e3
                         : 0.0);
    std::printf(
        "sperr_serve: %llu connection(s) (%llu rejected at cap), "
        "%llu read timeout(s), %llu write timeout(s), %llu request deadline(s)\n",
        static_cast<unsigned long long>(s.conns_total),
        static_cast<unsigned long long>(s.conns_rejected),
        static_cast<unsigned long long>(s.timeouts_read),
        static_cast<unsigned long long>(s.timeouts_write),
        static_cast<unsigned long long>(s.timeouts_request));
    if (s.resource_exhausted)
      std::printf("sperr_serve: %llu resource-exhausted rejection(s)\n",
                  static_cast<unsigned long long>(s.resource_exhausted));
  }
  return 0;
}
