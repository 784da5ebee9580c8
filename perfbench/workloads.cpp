#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include <omp.h>

#include "common/byteio.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "replay.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sperr/sperr.h"
#include "trace.h"

namespace perfbench {

namespace {

using sperr::Dims;
using sperr::Status;
using sperr::Timer;
namespace srv = sperr::server;

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();
constexpr double kForever = std::numeric_limits<double>::infinity();
// A traced run whose replay is not the library's pipeline reports nothing.
constexpr const char* kUnfaithful =
    "traced replay is not faithful to the library; no per-layer numbers";

// ---- reporting helpers -----------------------------------------------------

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("# ", stdout);
  std::vprintf(fmt, ap);
  std::fputc('\n', stdout);
  va_end(ap);
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The highest percentile (at most p99) with at least ten samples beyond
/// it; the maximum when that percentile would not lie above the median.
struct Tail {
  double value = 0.0;
  double pct = 100.0;
  size_t n = 0;
};

Tail tail(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t idx = n - 1;
  if (n >= 1000)
    idx = size_t(std::ceil(0.99 * double(n))) - 1;
  else if (n > 10 && n - 11 > n / 2)
    idx = n - 11;
  t.value = v[idx];
  t.pct = 100.0 * double(idx + 1) / double(n);
  return t;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;
  return 0.0;
}

bool within_tolerance(const double* in, const double* out, size_t n, double t) {
  for (size_t i = 0; i < n; ++i)
    if (!(std::fabs(in[i] - out[i]) <= t)) return false;  // NaN fails too
  return true;
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// One timed sperr::compress / sperr::decompress call, or COMPRESS /
/// DECOMPRESS request, of input `input`.
struct Call {
  size_t input = 0;
  bool compress = true;
  double seconds = 0.0;
};

/// One latency sample: when the request completed, in seconds since the
/// measured window began, and how long it took.
struct Request {
  double end_s = 0.0;
  double ms = 0.0;
};

// ---- direct (untraced) and traced round trips ------------------------------

struct RoundTrip {
  double compress_s = 0.0;
  double decompress_s = 0.0;
  bool compress_ok = false;
  bool decompress_ok = false;
};

/// sperr::compress then sperr::decompress of its container, with every
/// output checked: status, dims, and the PWE bound on every value.
RoundTrip direct_round_trip(const std::vector<double>& field, Dims dims,
                            const sperr::Config& cfg, std::vector<uint8_t>& container,
                            std::vector<double>& decoded, sperr::Stats* stats) {
  RoundTrip r;
  Timer t;
  try {
    container = sperr::compress(field.data(), dims, cfg, stats);
    r.compress_ok = !container.empty();
  } catch (const std::exception& e) {
    note("FAIL compress threw: %s", e.what());
  }
  r.compress_s = t.seconds();
  if (!r.compress_ok) return r;
  Dims od;
  t.reset();
  const Status s = sperr::decompress(container.data(), container.size(), decoded, od);
  r.decompress_s = t.seconds();
  r.decompress_ok = s == Status::ok && od == dims && decoded.size() == field.size() &&
                    within_tolerance(field.data(), decoded.data(), field.size(), cfg.tolerance);
  if (!r.decompress_ok) note("FAIL decompress: status %s", sperr::to_string(s));
  return r;
}

void tally_round_trip(Tally& t, const RoundTrip& r) {
  t.add(r.compress_ok);
  if (r.compress_ok) t.add(r.decompress_ok);
}

/// The direct round trip of a library workload: also fails when the
/// container differs from the first compress of the same input.
RoundTrip checked_round_trip(const std::vector<double>& field, Dims dims,
                             const sperr::Config& cfg, const std::vector<uint8_t>& ref_container,
                             std::vector<uint8_t>& container, std::vector<double>& decoded,
                             sperr::Stats* stats) {
  RoundTrip r = direct_round_trip(field, dims, cfg, container, decoded, stats);
  if (r.compress_ok && container != ref_container) {
    note("FAIL container differs from the first compress of the same input");
    r.compress_ok = false;
  }
  return r;
}

struct TracedRoundTrip {
  RoundTrip rt;
  OpBreakdown enc, dec;
  ReplayCounts enc_counts, dec_counts;
};

/// The replay of one round trip. Returns false when the replay's container
/// or decoded field differs from the library's (`ref_*`), or its spans do
/// not decompose into the op's wall time.
bool traced_round_trip(Tracer& tr, const std::vector<double>& field, Dims dims,
                       const sperr::Config& cfg, const std::vector<uint8_t>& ref_container,
                       const std::vector<double>& ref_decoded, TracedRoundTrip& out,
                       std::vector<uint8_t>& container, std::vector<double>& decoded) {
  tr.clear();
  out = TracedRoundTrip{};
  Timer t;
  try {
    container = traced_compress(tr, field.data(), dims, cfg, out.enc_counts);
    out.rt.compress_ok = true;
  } catch (const std::exception& e) {
    note("FAIL traced compress threw: %s", e.what());
  }
  out.rt.compress_s = t.seconds();
  if (!out.rt.compress_ok) return false;
  Dims od;
  t.reset();
  const Status s =
      traced_decompress(tr, container.data(), container.size(), decoded, od, out.dec_counts);
  out.rt.decompress_s = t.seconds();
  out.rt.decompress_ok = s == Status::ok && od == dims &&
                         within_tolerance(field.data(), decoded.data(), field.size(),
                                          cfg.tolerance);
  if (container != ref_container || !same_doubles(decoded, ref_decoded)) {
    note("FAIL traced replay output differs from sperr::compress/decompress");
    return false;
  }
  std::vector<OpBreakdown> ops;
  if (!analyze(tr.spans(), ops) || ops.size() != 2 || ops[0].kind != Kind::compress ||
      ops[1].kind != Kind::decompress) {
    note("FAIL traced spans do not add up to the op wall time");
    return false;
  }
  out.enc = ops[0];
  out.dec = ops[1];
  return out.rt.decompress_ok;
}

// ---- per-layer aggregation -------------------------------------------------

/// Sums over traced round trips; metrics() reports means per round trip.
struct LayerSums {
  size_t trips = 0;
  double values = 0.0;  ///< values per round trip (one field)
  KindSeconds enc_self{}, dec_self{}, enc_share{}, dec_share{}, enc_total{};
  double enc_wall = 0.0, dec_wall = 0.0, enc_unacc = 0.0, dec_unacc = 0.0;
  double chunk_max = 0.0, chunk_mean = 0.0, busy = 0.0, capacity = 0.0;
  double chunks = 0.0, sorting = 0.0, refinement = 0.0, payload_bits = 0.0;
  double outliers = 0.0, outlier_bits = 0.0, inner = 0.0, container = 0.0;

  void add(const TracedRoundTrip& t, size_t n) {
    ++trips;
    values = double(n);
    for (size_t k = 0; k < kKinds; ++k) {
      enc_self[k] += t.enc.self[k];
      dec_self[k] += t.dec.self[k];
      enc_share[k] += t.enc.share[k];
      dec_share[k] += t.dec.share[k];
      enc_total[k] += t.enc.total[k];
    }
    enc_wall += t.enc.wall_s;
    dec_wall += t.dec.wall_s;
    enc_unacc += t.enc.unaccounted_s;
    dec_unacc += t.dec.unaccounted_s;
    for (const auto* op : {&t.enc, &t.dec}) {
      const auto& cs = op->chunk_s;
      if (!cs.empty()) {
        chunk_max += *std::max_element(cs.begin(), cs.end());
        chunk_mean += sum(cs) / double(cs.size());
      }
      for (double s : op->self) busy += s;
    }
    capacity += t.enc.wall_s * t.enc_counts.threads + t.dec.wall_s * t.dec_counts.threads;
    chunks += double(t.enc_counts.chunks);
    sorting += t.enc_counts.speck_sorting_s;
    refinement += t.enc_counts.speck_refinement_s;
    payload_bits += double(t.enc_counts.speck_payload_bits);
    outliers += double(t.enc_counts.outliers);
    outlier_bits += double(t.enc_counts.outlier_bits);
    inner += double(t.enc_counts.inner_bytes);
    container += double(t.enc_counts.container_bytes);
  }

  [[nodiscard]] double per(double x) const { return trips ? x / double(trips) : 0.0; }
  [[nodiscard]] double enc(Kind k) const { return per(enc_self[size_t(k)]); }
  [[nodiscard]] double dec(Kind k) const { return per(dec_self[size_t(k)]); }

  [[nodiscard]] std::vector<Metric> metrics() const {
    const double fwd = enc(Kind::wavelet_fwd);
    const double inv = enc(Kind::wavelet_inv) + dec(Kind::wavelet_inv);
    const double wbytes = 3.0 * values * 8.0;  // forward + locate inverse + decode inverse
    const double senc = enc(Kind::speck_encode), sdec = dec(Kind::speck_decode);
    const double sort = per(sorting), refine = per(refinement), bits = per(payload_bits);
    const double lc = enc(Kind::lossless_compress), ld = dec(Kind::lossless_decompress);
    const double assemble = enc(Kind::sperr_assemble) + dec(Kind::sperr_assemble) +
                            enc(Kind::sperr_chunk) + dec(Kind::sperr_chunk);
    return {
        {"wavelet.fwd_s", fwd, "s"},
        {"wavelet.inv_s", inv, "s"},
        {"wavelet.mb_s", wbytes / (fwd + inv) / 1e6, "MB/s"},
        {"wavelet.bytes_computed", wbytes, "bytes"},
        {"speck.encode_s", senc, "s"},
        {"speck.decode_s", sdec, "s"},
        {"speck.sorting_s", sort, "s"},
        {"speck.refinement_s", refine, "s"},
        {"speck.setup_s", senc - sort - refine, "s"},
        {"speck.payload_bits", bits, "bits"},
        {"speck.enc_ns_per_bit", senc / bits * 1e9, "ns/bit"},
        {"speck.dec_ns_per_bit", sdec / bits * 1e9, "ns/bit"},
        {"outlier.count", per(outliers), "count"},
        {"outlier.bits", per(outlier_bits), "bits"},
        {"outlier.encode_s", enc(Kind::outlier_encode), "s"},
        {"outlier.decode_s", dec(Kind::outlier_decode), "s"},
        {"lossless.compress_s", lc, "s"},
        {"lossless.decompress_s", ld, "s"},
        {"lossless.mb_s", 2.0 * per(inner) / (lc + ld) / 1e6, "MB/s"},
        {"lossless.gain", inner / container, "ratio"},
        {"sperr.chunks", per(chunks), "count"},
        {"sperr.locate_s", per(enc_total[size_t(Kind::sperr_locate)]), "s"},
        {"sperr.assemble_s", assemble, "s"},
        {"sperr.chunk_max_s", per(chunk_max), "s"},
        {"sperr.chunk_balance", chunk_mean / chunk_max, "ratio"},
        {"sperr.cores_busy", busy / capacity, "ratio"},
        {"sperr.unaccounted_s", per(enc_unacc + dec_unacc), "s"},
    };
  }

  /// Per-kind busy and wall-share table; the shares plus the unaccounted
  /// time reproduce the op wall time.
  void print_breakdown() const {
    note("%-20s %12s %12s %12s %12s", "layer span (self)", "enc busy s", "enc wall s",
         "dec busy s", "dec wall s");
    double es = 0.0, ds = 0.0;
    for (size_t k = 0; k < kKinds; ++k) {
      if (is_op(Kind(k)) || (enc_self[k] == 0.0 && dec_self[k] == 0.0)) continue;
      note("%-20s %12.4f %12.4f %12.4f %12.4f", kind_name(Kind(k)), per(enc_self[k]),
           per(enc_share[k]), per(dec_self[k]), per(dec_share[k]));
      es += per(enc_share[k]);
      ds += per(dec_share[k]);
    }
    note("%-20s %12s %12.4f %12s %12.4f", "unaccounted", "", per(enc_unacc), "",
         per(dec_unacc));
    note("%-20s %12s %12.4f %12s %12.4f", "shares + unaccounted", "", es + per(enc_unacc),
         "", ds + per(dec_unacc));
    note("%-20s %12s %12.4f %12s %12.4f", "op wall", "", per(enc_wall), "", per(dec_wall));
  }
};

/// Encode stage seconds: the replay's spans against the library's own
/// Stats.timing from the paired untraced call.
struct StageGap {
  double span[5] = {};
  double lib[5] = {};

  void add(const TracedRoundTrip& t, const sperr::StageTiming& st) {
    const Kind kinds[5] = {Kind::wavelet_fwd, Kind::speck_encode, Kind::sperr_locate,
                           Kind::outlier_encode, Kind::lossless_compress};
    const double libs[5] = {st.transform_s, st.speck_s, st.locate_s, st.outlier_s,
                            st.lossless_s};
    for (int i = 0; i < 5; ++i) {
      span[i] += t.enc.total[size_t(kinds[i])];
      lib[i] += libs[i];
    }
  }

  void print() const {
    const char* names[5] = {"transform", "speck", "locate", "outlier", "lossless"};
    note("encode stages: replay spans vs the library's Stats.timing (summed seconds)");
    for (int i = 0; i < 5; ++i)
      note("  %-10s spans %9.4f  Stats.timing %9.4f  gap %+7.2f%% of Stats.timing", names[i],
           span[i], lib[i], lib[i] > 0 ? 100.0 * (span[i] - lib[i]) / lib[i] : 0.0);
  }
};

void print_overhead(const char* what, double untraced, double traced, const char* unit) {
  note("traced vs untraced %-16s %10.3f vs %10.3f %s (%+.2f%%)", what, traced, untraced, unit,
       untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0);
}

// ---- server-side pieces ----------------------------------------------------

struct PoolEntry {
  std::string field;
  int idx = 0;
  uint64_t seed = 0;
  Dims dims;
  sperr::Config cfg;
  std::vector<double> data;
  std::vector<uint8_t> compress_body;
  std::vector<uint8_t> container;  ///< direct sperr::compress output
  std::vector<double> decoded;     ///< direct sperr::decompress output
};

/// Balanced request pool: every (field, idx) pair `copies` times, each with
/// its own seeded field. The references are computed with the server's own
/// per-request settings, so a correct COMPRESS reply equals them exactly.
std::vector<PoolEntry> make_pool(uint64_t seed, size_t edge, int copies, Tally& tally) {
  static const char* const kFields[] = {"s3d_ch4", "nyx_dark_matter_density",
                                        "miranda_viscosity"};
  static const int kIdx[] = {10, 20, 30};
  const srv::ServerConfig defaults;
  sperr::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<PoolEntry> pool;
  for (int c = 0; c < copies; ++c)
    for (const char* f : kFields)
      for (int idx : kIdx) {
        PoolEntry e;
        e.field = f;
        e.idx = idx;
        e.seed = rng.next() % 1000000;
        e.dims = Dims{edge, edge, edge};
        e.data = sperr::data::make_field(e.field, e.dims, e.seed);
        e.cfg.tolerance = sperr::tolerance_from_idx(e.data.data(), e.data.size(), idx);
        e.cfg.num_threads = defaults.threads_per_request;
        e.cfg.intra_chunk_threads = defaults.intra_chunk_threads;
        e.compress_body = srv::build_compress_body(e.cfg, e.dims, e.data.data());
        tally_round_trip(tally, direct_round_trip(e.data, e.dims, e.cfg, e.container,
                                                  e.decoded, nullptr));
        pool.push_back(std::move(e));
      }
  return pool;
}

/// Bits per value of the server's COMPRESS replies, each pool entry once.
double reply_bpp(const std::vector<PoolEntry>& pool, const std::vector<size_t>& reply_bytes) {
  double bits = 0.0, values = 0.0;
  size_t seen = 0;
  for (size_t i = 0; i < reply_bytes.size(); ++i)
    if (reply_bytes[i]) {
      bits += double(reply_bytes[i]) * 8.0;
      values += double(pool[i].dims.total());
      ++seen;
    }
  if (seen < pool.size()) note("bpp over the %zu of %zu fields requested", seen, pool.size());
  return bits / values;
}

srv::ClientConfig client_config(uint16_t port, uint64_t seed) {
  srv::ClientConfig cc;
  cc.port = port;
  cc.op_timeout_ms = 60'000;
  cc.seed = seed;
  return cc;
}

struct ClientTally {
  Tally tally;
  std::vector<Call> calls;        ///< input = pool index
  std::vector<Request> requests;  ///< every COMPRESS and DECOMPRESS
  std::vector<size_t> reply_bytes;  ///< per pool entry: its COMPRESS reply size, 0 if none
  uint64_t retries = 0;
  uint64_t mismatched = 0;  ///< COMPRESS replies that differ from the direct container

  void add(const ClientTally& o) {
    tally.add(o.tally);
    calls.insert(calls.end(), o.calls.begin(), o.calls.end());
    requests.insert(requests.end(), o.requests.begin(), o.requests.end());
    reply_bytes.resize(std::max(reply_bytes.size(), o.reply_bytes.size()));
    for (size_t i = 0; i < o.reply_bytes.size(); ++i)
      if (o.reply_bytes[i]) reply_bytes[i] = o.reply_bytes[i];
    retries += o.retries;
    mismatched += o.mismatched;
  }
};

srv::CallResult timed_call(srv::Client& c, srv::Opcode op, const std::vector<uint8_t>& body,
                           Tracer* tr, double& seconds) {
  Timer t;
  srv::CallResult r;
  if (tr) {
    Span s(*tr, Kind::client_call);
    r = c.call(op, body);
  } else {
    r = c.call(op, body);
  }
  seconds = t.seconds();
  return r;
}

/// One COMPRESS + DECOMPRESS pair of pool entry `i`, every reply checked;
/// completion times are read from `clock`. Returns false when the pair failed.
bool request_pair(srv::Client& c, const std::vector<PoolEntry>& pool, size_t i,
                  const Timer& clock, Tracer* tr, ClientTally& out) {
  const PoolEntry& e = pool[i];
  const size_t n = e.dims.total();
  double s = 0.0;
  srv::CallResult r = timed_call(c, srv::Opcode::compress, e.compress_body, tr, s);
  out.requests.push_back({clock.seconds(), s * 1e3});
  bool ok = r.ok && r.status == srv::WireStatus::ok;
  const bool same = ok && r.body == e.container;
  std::vector<double> direct;
  if (ok && !same) {
    // Not the expected bytes: the reply still has to decode within t.
    ++out.mismatched;
    Dims od;
    ok = sperr::decompress(r.body.data(), r.body.size(), direct, od) == Status::ok &&
         od == e.dims && within_tolerance(e.data.data(), direct.data(), n, e.cfg.tolerance);
  }
  out.tally.add(ok);
  if (!ok) {
    note("FAIL COMPRESS %s idx %d: %s", e.field.c_str(), e.idx, srv::to_string(r.status));
    return false;
  }
  out.calls.push_back({i, true, s});
  out.reply_bytes.resize(pool.size());
  if (out.reply_bytes[i] && out.reply_bytes[i] != r.body.size())
    note("COMPRESS replies for %s idx %d differ in size", e.field.c_str(), e.idx);
  out.reply_bytes[i] = r.body.size();

  const auto body = srv::build_decompress_body(0, 8, r.body.data(), r.body.size());
  r = timed_call(c, srv::Opcode::decompress, body, tr, s);
  out.requests.push_back({clock.seconds(), s * 1e3});
  ok = r.ok && r.status == srv::WireStatus::ok && r.body.size() == 24 + n * 8;
  if (ok) {
    sperr::ByteReader br(r.body.data(), r.body.size());
    const Dims od{size_t(br.u64()), size_t(br.u64()), size_t(br.u64())};
    std::vector<double> values(n);
    std::memcpy(values.data(), r.body.data() + 24, n * 8);
    ok = od == e.dims && same_doubles(values, same ? e.decoded : direct) &&
         within_tolerance(e.data.data(), values.data(), n, e.cfg.tolerance);
  }
  out.tally.add(ok);
  if (!ok) {
    note("FAIL DECOMPRESS %s idx %d: %s", e.field.c_str(), e.idx, srv::to_string(r.status));
    return false;
  }
  out.calls.push_back({i, false, s});
  return true;
}

/// Closed loop of one client: pairs over the pool in a seeded order until
/// `seconds` have passed on `clock` (at least one pair) or `max_pairs`.
ClientTally client_loop(uint16_t port, const std::vector<PoolEntry>& pool, uint64_t seed,
                        const Timer& clock, double seconds, size_t max_pairs, Tracer* tr) {
  ClientTally out;
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), size_t(0));
  sperr::Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  srv::Client c(client_config(port, seed));
  for (size_t k = 0; k < max_pairs && (k == 0 || clock.seconds() < seconds); ++k)
    request_pair(c, pool, order[k % order.size()], clock, tr, out);
  out.retries = c.stats().retries;
  return out;
}

constexpr int kClients = 2;
/// serve_small reports req_per_s and latency_p99_ms as the median over this
/// many equal sub-windows of its window.
constexpr size_t kSubWindows = 5;

struct ServeWindow {
  ClientTally total;
  double window_s = 0.0;
  srv::StatsSnapshot before, after;
};

ServeWindow serve_window(srv::Server& server, const std::vector<PoolEntry>& pool,
                         uint64_t seed, double seconds, size_t max_pairs, Tracer* tr) {
  ServeWindow w;
  w.before = server.stats();
  std::vector<ClientTally> per(kClients);
  std::vector<std::thread> threads;
  const Timer clock;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      try {
        per[size_t(i)] = client_loop(server.port(), pool, seed * kClients + uint64_t(i) + 1,
                                     clock, seconds, max_pairs, tr);
      } catch (const std::exception& e) {
        note("FAIL client %d threw: %s", i, e.what());
        per[size_t(i)].tally.add(false);
      }
    });
  for (std::thread& t : threads) t.join();
  w.window_s = clock.seconds();
  w.after = server.stats();
  for (const ClientTally& c : per) w.total.add(c);
  if (w.total.mismatched)
    note("%llu COMPRESS replies differed from the direct container (decoded within t)",
         (unsigned long long)w.total.mismatched);
  return w;
}

/// Server-layer metrics of a traced window: Server::stats() differences
/// plus the client-side spans.
std::vector<Metric> server_metrics(const ServeWindow& w, Tracer& tr) {
  std::vector<OpBreakdown> ops;
  if (!analyze(tr.spans(), ops)) throw std::runtime_error(kUnfaithful);
  double client_s = 0.0;
  for (const OpBreakdown& b : ops) client_s += b.wall_s;
  const double reqs = double(w.after.requests_total - w.before.requests_total);
  const double wait = w.after.queue_wait_seconds - w.before.queue_wait_seconds;
  const double busy = w.after.busy_seconds - w.before.busy_seconds;
  note("server window: %.0f requests in %.3f s; per request: queue wait %.3f ms, busy %.3f ms, "
       "client %.3f ms", reqs, w.window_s, 1e3 * wait / reqs, 1e3 * busy / reqs,
       1e3 * client_s / double(ops.size()));
  return {
      {"server.queue_wait_s", wait / reqs, "s"},
      {"server.busy_s", busy / reqs, "s"},
      {"server.wait_share", wait / (wait + busy), "ratio"},
      {"server.transport_s", (client_s - wait - busy) / reqs, "s"},
      {"server.rejected_busy", double(w.after.rejected_busy - w.before.rejected_busy), "count"},
      {"server.errors", double(w.after.errors - w.before.errors), "count"},
      {"client.retries", double(w.total.retries), "count"},
  };
}

// ---- end-to-end metrics ------------------------------------------------------

/// The end-to-end figures of one measured window. Throughputs come from each
/// input's median call time, and the request rate and latency tail from the
/// median over equal sub-windows, so contention from outside the process in
/// part of a run moves them little.
struct EndToEnd {
  std::vector<double> bytes;  ///< per input: bytes in to compress = bytes out of decompress
  std::vector<Call> calls;
  std::vector<Request> requests;
  double window_s = 0.0;
  size_t parts = 1;  ///< sub-windows for req_per_s and latency_p99_ms
  double bpp = 0.0;
  double setup_s = 0.0;

  explicit EndToEnd(std::vector<double> input_bytes) : bytes(std::move(input_bytes)) {}

  /// Bytes of every input called, over the sum of their median call seconds.
  [[nodiscard]] double mb_s(bool compress) const {
    std::vector<std::vector<double>> per(bytes.size());
    for (const Call& c : calls)
      if (c.compress == compress) per[c.input].push_back(c.seconds);
    double b = 0.0, s = 0.0;
    for (size_t i = 0; i < per.size(); ++i)
      if (!per[i].empty()) {
        b += bytes[i];
        s += median(per[i]);
      }
    return b / s / 1e6;
  }

  [[nodiscard]] std::vector<double> latency_ms() const {
    std::vector<double> v;
    for (const Request& r : requests) v.push_back(r.ms);
    return v;
  }

  [[nodiscard]] std::vector<Metric> metrics() const {
    std::vector<std::vector<double>> slice(parts);
    for (const Request& r : requests)
      slice[std::min(parts - 1, size_t(r.end_s / window_s * double(parts)))].push_back(r.ms);
    std::vector<double> rates, tails;
    double pct = 100.0;
    for (const std::vector<double>& s : slice) {
      if (s.empty()) continue;
      const Tail t = tail(s);
      rates.push_back(double(s.size()) * double(parts) / window_s);
      tails.push_back(t.value);
      pct = std::min(pct, t.pct);
    }
    const std::vector<double> all = latency_ms();
    const Tail whole = tail(all);
    note("latency samples %zu in %zu sub-window(s); tail at p%.2f%s", all.size(), parts, pct,
         pct == 100.0 ? " (the maximum: too few samples for a tail percentile)" : "");
    if (parts > 1)
      note("whole window: %.3f req/s, p%.2f %.3f ms", double(all.size()) / window_s, whole.pct,
           whole.value);
    return {
        {"compress_mb_s", mb_s(true), "MB/s"},
        {"decompress_mb_s", mb_s(false), "MB/s"},
        {"req_per_s", median(rates), "1/s"},
        {"latency_p50_ms", median(all), "ms"},
        {"latency_p99_ms", median(tails), "ms"},
        {"bpp", bpp, "bits/value"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }

  /// A library request is one round trip of `input`: compress, then
  /// decompress, ending `end_s` into the window.
  void add(const RoundTrip& r, double end_s, size_t input = 0) {
    if (!r.compress_ok) return;
    calls.push_back({input, true, r.compress_s});
    calls.push_back({input, false, r.decompress_s});
    requests.push_back({end_s, (r.compress_s + r.decompress_s) * 1e3});
  }

  void add(const ClientTally& c) {
    calls.insert(calls.end(), c.calls.begin(), c.calls.end());
    requests.insert(requests.end(), c.requests.begin(), c.requests.end());
  }
};

void print_e2e_pair(const EndToEnd& untraced, const EndToEnd& traced) {
  print_overhead("compress_mb_s", untraced.mb_s(true), traced.mb_s(true), "MB/s");
  print_overhead("decompress_mb_s", untraced.mb_s(false), traced.mb_s(false), "MB/s");
  print_overhead("latency_p50_ms", median(untraced.latency_ms()), median(traced.latency_ms()),
                 "ms");
}

/// Server layer for traced runs of the library workloads: a short fixed
/// probe (three request pairs per client over a small pool), so every traced
/// run reports every layer. Library-only changes should not move it.
std::vector<Metric> server_probe(const Options& o, Tally& tally) {
  std::vector<PoolEntry> pool = make_pool(o.seed, o.smoke ? 16 : 48, 1, tally);
  srv::Server server(srv::ServerConfig{});
  if (server.start() != Status::ok) throw std::runtime_error("server probe: start failed");
  Tracer tr;
  const ServeWindow w = serve_window(server, pool, o.seed, kForever, 3, &tr);
  server.stop();
  tally.add(w.total.tally);
  note("server layer from a probe of %d clients x 3 request pairs over %zu fields", kClients,
       pool.size());
  return server_metrics(w, tr);
}

// ---- the workloads ---------------------------------------------------------

struct LibSpec {
  std::string field;
  Dims dims;
  int idx = 20;
  sperr::Config cfg;
};

LibSpec lib_spec(const Options& o) {
  LibSpec s;
  if (o.workload == "snapshot_serial") {
    s.field = "miranda_pressure";
    s.dims = o.smoke ? Dims{64, 64, 64} : Dims{256, 256, 256};
    s.idx = 20;
    s.cfg.num_threads = 1;
    s.cfg.chunk_dims = s.dims;
  } else {
    s.field = "miranda_viscosity";
    s.dims = o.smoke ? Dims{96, 96, 64} : Dims{384, 384, 256};
    s.idx = 30;
    s.cfg.num_threads = std::min(4, omp_get_num_procs());
    // The smoke size keeps the four unequal chunks of the full volume.
    if (o.smoke) s.cfg.chunk_dims = Dims{64, 64, 64};
  }
  return s;
}

Outcome run_library(const Options& o) {
  const LibSpec spec = lib_spec(o);
  const Dims dims = spec.dims;
  const size_t n = dims.total();
  const std::vector<double> field = sperr::data::make_field(spec.field, dims, o.seed);
  sperr::Config cfg = spec.cfg;
  cfg.tolerance = sperr::tolerance_from_idx(field.data(), n, spec.idx);
  note("%s: %s %s f64, idx %d (t = %.6g), chunk %s, %d chunk-loop threads, seed %llu",
       o.workload.c_str(), spec.field.c_str(), dims.to_string().c_str(), spec.idx,
       cfg.tolerance, cfg.chunk_dims.to_string().c_str(), cfg.num_threads,
       (unsigned long long)o.seed);

  Outcome out;
  Tally tally;
  std::vector<uint8_t> ref_container, container;
  std::vector<double> ref_decoded, decoded;

  // Set-up: the cold first compress + decompress.
  Timer setup;
  const RoundTrip first =
      direct_round_trip(field, dims, cfg, ref_container, ref_decoded, nullptr);
  EndToEnd e2e({double(n) * 8.0});
  e2e.setup_s = setup.seconds();
  tally_round_trip(tally, first);
  e2e.bpp = double(ref_container.size()) * 8.0 / double(n);

  if (!o.trace) {
    const Timer window;
    do {
      const RoundTrip r =
          checked_round_trip(field, dims, cfg, ref_container, container, decoded, nullptr);
      tally_round_trip(tally, r);
      e2e.add(r, window.seconds());
      note("round trip: compress %.4f s, decompress %.4f s", r.compress_s, r.decompress_s);
    } while (window.seconds() < o.seconds);
    e2e.window_s = window.seconds();
    out.metrics = e2e.metrics();
  } else {
    Tracer tr;
    LayerSums layers;
    StageGap gap;
    EndToEnd untraced = e2e, traced = e2e;
    const Timer window;
    do {
      sperr::Stats stats;
      const RoundTrip r =
          checked_round_trip(field, dims, cfg, ref_container, container, decoded, &stats);
      tally_round_trip(tally, r);
      untraced.add(r, window.seconds());
      TracedRoundTrip t;
      const bool faithful =
          traced_round_trip(tr, field, dims, cfg, ref_container, ref_decoded, t, container,
                            decoded);
      tally_round_trip(tally, t.rt);
      if (!faithful) throw std::runtime_error(kUnfaithful);
      traced.add(t.rt, window.seconds());
      layers.add(t, n);
      gap.add(t, stats.timing);
    } while (window.seconds() < o.seconds);
    print_e2e_pair(untraced, traced);
    gap.print();
    layers.print_breakdown();
    out.metrics = layers.metrics();
    for (Metric& m : server_probe(o, tally)) out.metrics.push_back(std::move(m));
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  return out;
}

Outcome run_serve(const Options& o) {
  Outcome out;
  Tally tally;
  const size_t edge = o.smoke ? 16 : 48;
  const std::vector<PoolEntry> pool = make_pool(o.seed, edge, 2, tally);
  note("serve_small: %zu fields of %zu^3 f64 (3 fields x idx {10, 20, 30} x 2 seeds), %d "
       "clients, server defaults, seed %llu",
       pool.size(), edge, kClients, (unsigned long long)o.seed);

  // Set-up: Server::start, connecting and the first request pair, five
  // times on fresh servers; the median is reported.
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) {
    const Timer t;
    srv::Server server(srv::ServerConfig{});
    if (server.start() != Status::ok) throw std::runtime_error("serve_small: start failed");
    srv::Client c(client_config(server.port(), o.seed));
    ClientTally ct;
    tally.add(c.connect());
    request_pair(c, pool, size_t(rep) % pool.size(), t, nullptr, ct);
    setups.push_back(t.seconds());
    tally.add(ct.tally);
    server.stop();
  }

  srv::Server server(srv::ServerConfig{});
  if (server.start() != Status::ok) throw std::runtime_error("serve_small: start failed");
  const std::vector<double> pool_bytes(pool.size(), double(edge * edge * edge) * 8.0);
  EndToEnd e2e(pool_bytes);
  e2e.setup_s = median(setups);
  if (!o.trace) {
    const ServeWindow w = serve_window(server, pool, o.seed, o.seconds, kNoLimit, nullptr);
    server.stop();
    tally.add(w.total.tally);
    e2e.add(w.total);
    e2e.window_s = w.window_s;
    e2e.parts = kSubWindows;
    e2e.bpp = reply_bpp(pool, w.total.reply_bytes);
    out.metrics = e2e.metrics();
  } else {
    // Half the window untraced, half with client spans, on one server.
    const ServeWindow u = serve_window(server, pool, o.seed, o.seconds / 2, kNoLimit, nullptr);
    Tracer client_tr;
    const ServeWindow w =
        serve_window(server, pool, o.seed, o.seconds / 2, kNoLimit, &client_tr);
    server.stop();
    tally.add(u.total.tally);
    tally.add(w.total.tally);
    EndToEnd eu(pool_bytes), et(pool_bytes);
    eu.add(u.total);
    et.add(w.total);
    print_e2e_pair(eu, et);
    print_overhead("req_per_s", double(u.total.requests.size()) / u.window_s,
                   double(w.total.requests.size()) / w.window_s, "1/s");
    const std::vector<Metric> server_layer = server_metrics(w, client_tr);

    // The library layers: the same pool replayed in-process, each field once.
    Tracer tr;
    LayerSums layers;
    EndToEnd untraced(pool_bytes), traced(pool_bytes);
    std::vector<uint8_t> container;
    std::vector<double> decoded;
    for (size_t i = 0; i < pool.size(); ++i) {
      const PoolEntry& e = pool[i];
      const RoundTrip r = direct_round_trip(e.data, e.dims, e.cfg, container, decoded, nullptr);
      tally_round_trip(tally, r);
      untraced.add(r, 0.0, i);
      TracedRoundTrip t;
      const bool faithful = traced_round_trip(tr, e.data, e.dims, e.cfg, e.container,
                                              e.decoded, t, container, decoded);
      tally_round_trip(tally, t.rt);
      if (!faithful) throw std::runtime_error(kUnfaithful);
      traced.add(t.rt, 0.0, i);
      layers.add(t, e.dims.total());
    }
    note("in-process replay of the pool, one field at a time:");
    print_e2e_pair(untraced, traced);
    layers.print_breakdown();
    out.metrics = layers.metrics();
    out.metrics.insert(out.metrics.end(), server_layer.begin(), server_layer.end());
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"snapshot_serial", "volume_parallel",
                                                 "serve_small"};
  return names;
}

Outcome run(const Options& opt) {
  // CPU time the hypervisor gave to other guests while this run waited
  // (the steal column of /proc/stat): a run with a large share ran slow
  // for reasons outside the program.
  const auto steal = [] {
    std::ifstream f("/proc/stat");
    std::string cpu;
    uint64_t v = 0, total = 0, stolen = 0;
    f >> cpu;
    for (int i = 0; i < 8 && f >> v; ++i) {
      total += v;
      if (i == 7) stolen = v;
    }
    return std::make_pair(stolen, total);
  };
  const auto s0 = steal();
  Outcome out = opt.workload == "serve_small" ? run_serve(opt) : run_library(opt);
  const auto s1 = steal();
  if (s1.second > s0.second)
    note("cpu steal during the run: %.1f%% of machine CPU time",
         100.0 * double(s1.first - s0.first) / double(s1.second - s0.second));
  return out;
}

}  // namespace perfbench
