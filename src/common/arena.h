#pragma once

// Per-thread bump-pointer scratch arena for the chunked hot paths. A chunk's
// large short-lived buffers come from the worker's arena instead of the
// heap: the chunk gather buffer and coefficient copy, the wavelet's SoA line
// tiles, the SPECK coders' state (the encoder's leaf words, set planes, LSP
// and worklist buckets; the decoder's LSP and buckets) and the PWE recon.
// An Arena hands out 64-byte-aligned slices of one retained block:
//
//   Arena& a = tls_arena();          // one per thread, reused forever
//   a.reset();                       // start of a chunk: rewind, keep memory
//   double* buf = a.alloc<double>(n);
//   { Arena::Scope s(a);             // nested callee scratch
//     double* tile = a.alloc<double>(tile_elems);
//     ...                            // tile released at scope exit, buf lives on
//   }
//
// Scopes nest as a stack, so a later stage reuses the pages an earlier,
// closed stage used: the SPECK encoder's scope closes before the recon is
// taken, and the recon lands on the coder state's pages. A worker's resident
// arena is therefore its largest request's high-water mark (coefficients
// plus the biggest stage above them), kept for the thread's lifetime.
//
// Growth never moves live allocations (new capacity arrives as an extra
// block); reset() coalesces the blocks so after a warm-up pass the arena is
// a single block and steady-state chunk iterations perform zero heap
// allocations. Instances are not thread-safe; use tls_arena() per thread.
//
// Under AddressSanitizer the arena poisons what it does not hand out: each
// block's unused tail, the space a Scope or reset() releases, and a red zone
// of up to kAlignment bytes after each allocation where the block has room,
// so an overflow from one arena array into the next is reported.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define SPERR_ARENA_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPERR_ARENA_POISON 1
#endif
#endif
#ifdef SPERR_ARENA_POISON
#include <sanitizer/asan_interface.h>
#else
#define SPERR_ARENA_POISON 0
#endif

namespace sperr {

class Arena {
 public:
  /// Alignment of every returned pointer: one cache line, which also
  /// satisfies any vectorized load the compiler emits for double lanes.
  static constexpr size_t kAlignment = 64;

  Arena() = default;
  explicit Arena(size_t initial_bytes) {
    if (initial_bytes > 0) add_block(round_up(initial_bytes));
  }
  ~Arena() { release_all(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate `bytes` (rounded up to kAlignment), valid until the enclosing
  /// Scope exits or reset() is called. Never returns null for bytes == 0
  /// arenas-with-capacity; grows by whole blocks, so previously returned
  /// pointers stay valid across growth.
  void* allocate(size_t bytes) {
    const size_t need = round_up(bytes ? bytes : 1);
    reserve(need);
    Block& b = blocks_[active_];
    void* p = static_cast<char*>(b.ptr) + b.offset;
    b.offset += need;
    if constexpr (SPERR_ARENA_POISON) {
      unpoison(p, bytes);
      b.offset += std::min(kRedZone, b.size - b.offset);
    }
    return p;
  }

  /// Make the next `bytes` one contiguous run of the active block, moving
  /// on to a later block or adding one if the active block has less room.
  /// Allocates nothing: a caller that knows the high-water mark of the
  /// stages it is about to run reserves it, so that even on a cold arena
  /// those stages share one block and a later stage reuses an earlier one's
  /// pages (a no-op on a warm arena with room).
  void reserve(size_t bytes) {
    const size_t need = round_up(bytes);
    while (active_ < blocks_.size()) {
      const Block& b = blocks_[active_];
      if (b.size - b.offset >= need) return;
      // Current block exhausted for this request; move on (later blocks are
      // only ever fresh ones appended below, so no space is stranded long:
      // the next reset() coalesces everything).
      ++active_;
      if (active_ < blocks_.size()) blocks_[active_].offset = 0;
    }
    // Geometric growth: at least double total capacity so a warmed-up arena
    // stops growing after O(log) chunks. Under ASan the block also has room
    // for the red zone, as the same request will have in a coalesced block.
    add_block(std::max(need + kRedZone, std::max(capacity(), kMinBlockBytes)));
  }

  template <class T>
  T* alloc(size_t count) {
    static_assert(alignof(T) <= kAlignment);
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  /// Rewind to empty while retaining capacity. If growth left multiple
  /// blocks behind, they are merged into one so subsequent identical
  /// workloads allocate nothing. Invalidates everything allocate() returned.
  void reset() {
    if (blocks_.size() > 1) {
      const size_t total = capacity();
      release_all();
      add_block(total);
    }
    for (Block& b : blocks_) {
      poison(b.ptr, 0, b.offset);
      b.offset = 0;
    }
    active_ = 0;
  }

  /// Total bytes owned (across blocks).
  [[nodiscard]] size_t capacity() const {
    size_t c = 0;
    for (const Block& b : blocks_) c += b.size;
    return c;
  }

  /// Bytes currently handed out.
  [[nodiscard]] size_t used() const {
    size_t u = 0;
    for (size_t i = 0; i < blocks_.size() && i <= active_; ++i)
      u += blocks_[i].offset;
    return u;
  }

  /// Number of system allocations performed over the arena's lifetime.
  /// Steady-state hot loops must leave this constant — asserted in tests.
  [[nodiscard]] size_t system_alloc_count() const { return system_allocs_; }

  /// RAII rewind point: allocations made inside the scope are released on
  /// exit, allocations made before it survive. Blocks added inside the
  /// scope are kept (capacity is never shrunk mid-flight).
  class Scope {
   public:
    explicit Scope(Arena& a)
        : arena_(a),
          active_(a.active_),
          offset_(a.active_ < a.blocks_.size() ? a.blocks_[a.active_].offset : 0) {}
    ~Scope() {
      arena_.active_ = active_;
      for (size_t i = active_; i < arena_.blocks_.size(); ++i) {
        Block& b = arena_.blocks_[i];
        const size_t keep = i == active_ ? offset_ : 0;
        poison(b.ptr, keep, b.offset);
        b.offset = keep;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Arena& arena_;
    size_t active_;
    size_t offset_;
  };

 private:
  static constexpr size_t kMinBlockBytes = size_t(1) << 16;  // 64 KiB floor
  /// Unaddressable bytes after each allocation, where the block has room.
  static constexpr size_t kRedZone = SPERR_ARENA_POISON ? kAlignment : 0;

  struct Block {
    void* ptr = nullptr;
    size_t size = 0;
    size_t offset = 0;
  };

  static constexpr size_t round_up(size_t n) {
    return (n + kAlignment - 1) / kAlignment * kAlignment;
  }

  /// Mark [from, to) of a block unaddressable (a no-op without ASan).
  static void poison([[maybe_unused]] void* block, [[maybe_unused]] size_t from,
                     [[maybe_unused]] size_t to) {
#if SPERR_ARENA_POISON
    if (to > from) ASAN_POISON_MEMORY_REGION(static_cast<char*>(block) + from, to - from);
#endif
  }
  static void unpoison([[maybe_unused]] void* p, [[maybe_unused]] size_t bytes) {
#if SPERR_ARENA_POISON
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
  }

  void add_block(size_t bytes) {
    Block b;
    b.size = round_up(bytes);
    b.ptr = ::operator new(b.size, std::align_val_t{kAlignment});
    ++system_allocs_;
    poison(b.ptr, 0, b.size);
    blocks_.push_back(b);
    active_ = blocks_.size() - 1;
  }

  void release_all() {
    for (Block& b : blocks_) {
      unpoison(b.ptr, b.size);
      ::operator delete(b.ptr, std::align_val_t{kAlignment});
    }
    blocks_.clear();
    active_ = 0;
  }

  std::vector<Block> blocks_;
  size_t active_ = 0;
  size_t system_allocs_ = 0;
};

/// The calling thread's scratch arena. Every OpenMP worker (and the main
/// thread) gets its own, living for the thread's lifetime, so the chunk
/// loops reuse one warm allocation across all chunks they process.
inline Arena& tls_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace sperr
