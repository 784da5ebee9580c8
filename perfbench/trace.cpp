#include "trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

// Spans open on this thread, innermost last (parent inheritance).
thread_local std::vector<int32_t> t_open;

using Interval = std::pair<int64_t, int64_t>;

// Sort and merge overlapping intervals in place; returns the covered length.
int64_t merge(std::vector<Interval>& iv) {
  std::sort(iv.begin(), iv.end());
  size_t w = 0;
  for (size_t i = 0; i < iv.size(); ++i) {
    if (w > 0 && iv[i].first <= iv[w - 1].second)
      iv[w - 1].second = std::max(iv[w - 1].second, iv[i].second);
    else
      iv[w++] = iv[i];
  }
  iv.resize(w);
  int64_t len = 0;
  for (const auto& [a, b] : iv) len += b - a;
  return len;
}

// [a, b) minus the merged, sorted `cover`.
std::vector<Interval> subtract(int64_t a, int64_t b, const std::vector<Interval>& cover) {
  std::vector<Interval> out;
  int64_t cur = a;
  for (const auto& [c0, c1] : cover) {
    if (c1 <= cur) continue;
    if (c0 >= b) break;
    if (c0 > cur) out.emplace_back(cur, c0);
    cur = std::max(cur, c1);
  }
  if (cur < b) out.emplace_back(cur, b);
  return out;
}

constexpr double kNs = 1e-9;

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::compress: return "sperr.compress";
    case Kind::decompress: return "sperr.decompress";
    case Kind::client_call: return "client.call";
    case Kind::sperr_chunk: return "sperr.chunk";
    case Kind::sperr_assemble: return "sperr.assemble";
    case Kind::sperr_locate: return "sperr.locate";
    case Kind::wavelet_fwd: return "wavelet.fwd";
    case Kind::wavelet_inv: return "wavelet.inv";
    case Kind::speck_encode: return "speck.encode";
    case Kind::speck_decode: return "speck.decode";
    case Kind::outlier_encode: return "outlier.encode";
    case Kind::outlier_decode: return "outlier.decode";
    case Kind::lossless_compress: return "lossless.compress";
    case Kind::lossless_decompress: return "lossless.decompress";
    case Kind::count_: break;
  }
  return "?";
}

bool is_op(Kind k) {
  return k == Kind::compress || k == Kind::decompress || k == Kind::client_call;
}

int64_t Tracer::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int32_t Tracer::begin(Kind k, int32_t parent) {
  if (!is_op(k) && parent < 0 && !t_open.empty()) parent = t_open.back();
  const int64_t t = now();
  std::lock_guard<std::mutex> lk(mu_);
  SpanRec r;
  r.kind = k;
  r.parent = is_op(k) ? -1 : parent;
  r.op = r.parent >= 0 ? spans_[size_t(r.parent)].op : ++ops_;
  r.t0 = t;
  spans_.push_back(r);
  const auto id = int32_t(spans_.size() - 1);
  t_open.push_back(id);
  return id;
}

void Tracer::end(int32_t id) {
  const int64_t t = now();
  t_open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[size_t(id)].t1 = t;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.clear();
}

Span::Span(Tracer& t, Kind k, int32_t parent) : t_(t), id_(t.begin(k, parent)) {}

Span::~Span() { t_.end(id_); }

bool analyze(const std::vector<SpanRec>& spans, std::vector<OpBreakdown>& ops) {
  const size_t n = spans.size();
  std::vector<std::vector<int32_t>> children(n);
  for (size_t i = 0; i < n; ++i)
    if (spans[i].parent >= 0) children[size_t(spans[i].parent)].push_back(int32_t(i));

  // Self intervals of every span, and the op each root index heads.
  std::vector<std::vector<Interval>> self(n);
  for (size_t i = 0; i < n; ++i) {
    const SpanRec& s = spans[i];
    std::vector<Interval> cover;
    for (int32_t c : children[i]) {
      const SpanRec& cs = spans[size_t(c)];
      if (cs.t0 < s.t0 || cs.t1 > s.t1) return false;
      cover.emplace_back(cs.t0, cs.t1);
    }
    merge(cover);
    self[i] = subtract(s.t0, s.t1, cover);
  }

  // Group descendants by op (spans are recorded parent-first, so each op's
  // root precedes its descendants).
  std::vector<int32_t> root_of(n, -1);
  std::vector<std::vector<int32_t>> members(n);
  for (size_t i = 0; i < n; ++i) {
    root_of[i] = spans[i].parent < 0 ? int32_t(i) : root_of[size_t(spans[i].parent)];
    if (spans[i].parent >= 0) members[size_t(root_of[i])].push_back(int32_t(i));
  }

  for (size_t r = 0; r < n; ++r) {
    if (spans[r].parent >= 0) continue;
    const SpanRec& root = spans[r];
    if (!is_op(root.kind)) return false;  // a layer span that lost its parent
    OpBreakdown b;
    b.kind = root.kind;
    b.wall_s = double(root.t1 - root.t0) * kNs;
    int64_t unacc = 0;
    for (const auto& [a, e] : self[r]) unacc += e - a;
    b.unaccounted_s = double(unacc) * kNs;

    // Sweep the self intervals of every descendant: each elementary segment
    // is split equally among the intervals active in it.
    struct Event {
      int64_t t;
      int delta;
      Kind kind;
    };
    std::vector<Event> ev;
    for (int32_t m : members[r]) {
      const SpanRec& s = spans[size_t(m)];
      const double dur = double(s.t1 - s.t0) * kNs;
      b.total[size_t(s.kind)] += dur;
      if (s.kind == Kind::sperr_chunk) b.chunk_s.push_back(dur);
      for (const auto& [a, e] : self[size_t(m)]) {
        b.self[size_t(s.kind)] += double(e - a) * kNs;
        ev.push_back({a, +1, s.kind});
        ev.push_back({e, -1, s.kind});
      }
    }
    std::sort(ev.begin(), ev.end(),
              [](const Event& x, const Event& y) { return x.t < y.t; });
    std::array<int, kKinds> active{};
    int total_active = 0;
    int64_t covered = 0;
    for (size_t i = 0; i < ev.size(); ++i) {
      if (i > 0 && total_active > 0) {
        const int64_t dt = ev[i].t - ev[i - 1].t;
        covered += dt;
        for (size_t k = 0; k < kKinds; ++k)
          if (active[k] > 0)
            b.share[k] += double(dt) * kNs * double(active[k]) / double(total_active);
      }
      active[size_t(ev[i].kind)] += ev[i].delta;
      total_active += ev[i].delta;
    }

    // Identity check: the sweep's covered time and the root's own
    // (union-based) self time are computed independently; together with the
    // shares they must reproduce the wall time.
    double shares = 0.0;
    for (double s : b.share) shares += s;
    const int64_t wall_ns = root.t1 - root.t0;
    if (covered + unacc != wall_ns) return false;
    if (std::fabs(shares + b.unaccounted_s - b.wall_s) > 1e-9 * std::max(1.0, b.wall_s))
      return false;
    ops.push_back(std::move(b));
  }
  return true;
}

}  // namespace perfbench
