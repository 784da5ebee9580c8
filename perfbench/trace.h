#pragma once

// In-memory span recorder for the traced benchmark runs.
//
// A span covers one call into a layer's entry point: its kind (which names
// the layer), start and end on a steady clock, the span that caused it, and
// the operation (one compress, decompress or client request) it belongs to.
// Spans are appended under a mutex (a few dozen per operation) and analysed
// after the run; nothing is written while the workload runs.
//
// Self time: a span's duration minus the part of it that its child spans
// cover. Operations split across OpenMP threads have children on several
// threads, so the whole-operation identity is kept in wall time: every
// instant of the operation is shared equally among the layer self-intervals
// active on any thread at that instant, and the instants no layer covers are
// the operation's unaccounted time. The wall shares plus the unaccounted time
// therefore add up to the operation's wall time.

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace perfbench {

/// What a span wraps. The prefix before the underscore is the layer (module
/// name); op kinds are the roots of an operation.
enum class Kind : uint8_t {
  compress,             ///< op: one replayed sperr::compress
  decompress,           ///< op: one replayed sperr::decompress
  client_call,          ///< op: one client request to the server (send to reply)
  sperr_chunk,          ///< one chunk of the chunk loop (parent of its layer spans)
  sperr_assemble,       ///< validation, gather, means, header, checksums, scatter
  sperr_locate,         ///< inverse DWT + tolerance comparison (encode side)
  wavelet_fwd,          ///< wavelet::forward_dwt (and the coefficient copy)
  wavelet_inv,          ///< wavelet::inverse_dwt
  speck_encode,         ///< speck::encode
  speck_decode,         ///< speck::decode
  outlier_encode,       ///< outlier::encode
  outlier_decode,       ///< outlier::decode + applying the corrections
  lossless_compress,    ///< lossless::compress of the inner container
  lossless_decompress,  ///< sperr::unwrap_container (lossless::decompress)
  count_
};

inline constexpr size_t kKinds = size_t(Kind::count_);

const char* kind_name(Kind k);
bool is_op(Kind k);

using KindSeconds = std::array<double, kKinds>;

struct SpanRec {
  Kind kind = Kind::compress;
  int32_t parent = -1;  ///< index of the causing span, -1 for an op
  uint32_t op = 0;      ///< operation id shared by every span of one op
  int64_t t0 = 0;       ///< start, ns since the tracer's epoch
  int64_t t1 = 0;       ///< end
};

class Tracer {
 public:
  /// Open a span; `parent` < 0 with a non-op kind inherits the innermost
  /// span open on the calling thread. Returns the span's index.
  int32_t begin(Kind k, int32_t parent);
  void end(int32_t id);

  /// Spans recorded so far (call only while no span is open).
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  void clear();

 private:
  [[nodiscard]] int64_t now() const;

  const std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
  uint32_t ops_ = 0;            // guarded by mu_
};

/// RAII span. Ops and spans whose causing span sits on another thread (the
/// chunk spans of an OpenMP loop) pass `parent` explicitly.
class Span {
 public:
  Span(Tracer& t, Kind k, int32_t parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int32_t id() const { return id_; }

 private:
  Tracer& t_;
  int32_t id_;
};

/// One operation's decomposition.
struct OpBreakdown {
  Kind kind = Kind::compress;
  double wall_s = 0.0;
  KindSeconds self{};         ///< busy self seconds per kind, summed over threads
  KindSeconds share{};        ///< wall-time share per kind (sums with unaccounted to wall)
  double unaccounted_s = 0.0; ///< op wall covered by no child span
  std::vector<double> chunk_s;  ///< durations of the op's chunk spans, in chunk order
  KindSeconds total{};        ///< summed span durations per kind (children included)
};

/// Decompose every op in `spans`. Returns false (and stops) when an op's
/// wall shares plus its unaccounted time miss its wall time, or a child span
/// lies outside its parent.
bool analyze(const std::vector<SpanRec>& spans, std::vector<OpBreakdown>& ops);

}  // namespace perfbench
