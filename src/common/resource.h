#pragma once

// Resource governance for decoding untrusted bytes. A SPERR container's
// header *declares* how much memory decoding it will need (volume extents,
// chunk count, lossless raw size) long before any of that memory is
// touched, so a ~100-byte "bomb" can declare exabytes and drive a naive
// decoder into std::bad_alloc — or the OOM killer. Every decode entry
// point (detail::open_tolerant, decompress{,_tolerant,_lowres}, the blocked
// lossless codec, outofcore, archive::Reader, and the sperr_serve
// handlers) therefore consults a ResourceLimits *before* allocating:
// required bytes are computed from header fields up front and a violation
// is reported as Status::resource_exhausted — an answer, not an exception.
//
// Two layers:
//
//   ResourceLimits — per-call ceilings (max output bytes, max transient
//     working-set bytes, max chunk count, max lossless expansion ratio).
//     Passing nullptr anywhere a `const ResourceLimits*` is accepted
//     means ResourceLimits::defaults(): finite, generous caps
//     that every legitimate workload fits under while multi-terabyte
//     declarations are rejected outright. Unlimited decoding is opt-in
//     (ResourceLimits::unlimited()), never the default.
//
//   MemoryBudget — an optional shared pool (atomic, thread-safe) that
//     concurrent decodes carve reservations out of, so ten simultaneous
//     requests cannot each take "one budget" and sink a shared process.
//     The server wires one of these across its worker lanes; library
//     callers can attach one via ResourceLimits::budget.

#include <atomic>
#include <cstdint>

#include "common/types.h"

namespace sperr {

/// Thread-safe byte pool shared by concurrent decodes. try_reserve either
/// debits the pool atomically or leaves it untouched — never a partial
/// grant — so a reservation that succeeded is safe to spend and must be
/// released (use Reservation for that).
class MemoryBudget {
 public:
  explicit MemoryBudget(uint64_t total_bytes) : total_(total_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Atomically reserve `bytes` from the pool; false (and no debit) when
  /// the pool cannot cover it.
  [[nodiscard]] bool try_reserve(uint64_t bytes) {
    uint64_t used = used_.load(std::memory_order_relaxed);
    do {
      if (bytes > total_ || used > total_ - bytes) return false;
    } while (!used_.compare_exchange_weak(used, used + bytes,
                                          std::memory_order_relaxed));
    return true;
  }

  void release(uint64_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t total() const { return total_; }
  [[nodiscard]] uint64_t used() const {
    return used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t available() const {
    const uint64_t u = used();
    return u >= total_ ? 0 : total_ - u;
  }

 private:
  uint64_t total_;
  std::atomic<uint64_t> used_{0};
};

/// Per-decode resource ceilings. All caps are inclusive ("<= passes").
struct ResourceLimits {
  /// Hard cap on the decoded output a single call may produce: the field
  /// bytes of a DECOMPRESS, the raw size a lossless stream declares, the
  /// bytes an out-of-core decode writes. 64 GiB covers every SDRBench
  /// field with room to spare; a ≥1 TiB declaration is rejected.
  uint64_t max_output_bytes = uint64_t(1) << 36;

  /// Cap on transient working-set bytes beyond the output itself (chunk
  /// scratch buffers, the unwrapped inner container, a widening copy).
  uint64_t max_working_bytes = uint64_t(1) << 36;

  /// Cap on the chunk count a container directory may declare. Directories
  /// are 32 bytes/entry, so this also bounds header-parse work for truncated
  /// bombs. A lossless stream's block count is not capped here: the codec
  /// rejects a count its 12-byte directory entries would not fit in the
  /// stream's own bytes.
  uint64_t max_chunks = uint64_t(1) << 20;

  /// Cap on the lossless codec's total expansion: a stream of `in` bytes
  /// may declare at most `in * max_expansion` raw bytes (with a 1 MiB
  /// floor so tiny-but-legitimate streams are never pinched). Matches the
  /// codec's per-block expansion bound, so every stream the encoder can
  /// emit passes.
  uint64_t max_expansion = 4096;

  /// Optional shared pool to carve reservations from (not owned; may be
  /// null). When set, every admitted allocation must also fit the pool's
  /// remaining bytes — this is how one hostile request is kept from
  /// starving lanes other clients share.
  MemoryBudget* budget = nullptr;

  /// The finite default every decode uses when handed nullptr.
  static const ResourceLimits& defaults() {
    static const ResourceLimits l;
    return l;
  }

  /// Effectively uncapped (for trusted inputs / tooling that opts out).
  static ResourceLimits unlimited() {
    ResourceLimits l;
    l.max_output_bytes = UINT64_MAX;
    l.max_working_bytes = UINT64_MAX;
    l.max_chunks = UINT64_MAX;
    l.max_expansion = UINT64_MAX;
    return l;
  }

  [[nodiscard]] bool admits_output(uint64_t bytes) const {
    return bytes <= max_output_bytes;
  }
  [[nodiscard]] bool admits_working(uint64_t bytes) const {
    return bytes <= max_working_bytes;
  }
  [[nodiscard]] bool admits_chunks(uint64_t count) const {
    return count <= max_chunks;
  }
  /// Would decoding `declared_raw` bytes out of `input_bytes` exceed the
  /// expansion cap? Overflow-safe: compares by division, not by product.
  [[nodiscard]] bool admits_expansion(uint64_t input_bytes,
                                      uint64_t declared_raw) const {
    constexpr uint64_t kFloor = uint64_t(1) << 20;
    if (declared_raw <= kFloor) return true;
    if (input_bytes == 0) return false;
    return declared_raw / input_bytes <= max_expansion;
  }
};

/// Resolve an optional limits pointer to a concrete reference.
inline const ResourceLimits& effective_limits(const ResourceLimits* l) {
  return l ? *l : ResourceLimits::defaults();
}

/// RAII grant against a MemoryBudget. acquire() on a null budget succeeds
/// trivially (per-call ceilings still apply); on a real budget it reserves
/// the bytes until the Reservation dies or release() is called.
class Reservation {
 public:
  Reservation() = default;
  ~Reservation() { release(); }

  Reservation(Reservation&& o) noexcept : budget_(o.budget_), bytes_(o.bytes_) {
    o.budget_ = nullptr;
    o.bytes_ = 0;
  }
  Reservation& operator=(Reservation&& o) noexcept {
    if (this != &o) {
      release();
      budget_ = o.budget_;
      bytes_ = o.bytes_;
      o.budget_ = nullptr;
      o.bytes_ = 0;
    }
    return *this;
  }
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;

  /// Reserve `bytes` from `budget` (nullptr budget = always granted).
  /// Replaces any previous grant. False leaves this Reservation empty.
  [[nodiscard]] bool acquire(MemoryBudget* budget, uint64_t bytes) {
    release();
    if (budget && !budget->try_reserve(bytes)) return false;
    budget_ = budget;
    bytes_ = bytes;
    return true;
  }

  void release() {
    if (budget_) budget_->release(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }

  [[nodiscard]] uint64_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_ = nullptr;
  uint64_t bytes_ = 0;
};

}  // namespace sperr
