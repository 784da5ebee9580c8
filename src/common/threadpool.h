#pragma once

// Minimal fork-join worker pool for deterministic intra-chunk parallelism.
//
// The SPECK coders split only element-wise loops into lanes (Lanes, below):
// the decoder's refinement passes and coefficient export, and the encoder's
// recon export — one parallel region per pass, each a large contiguous
// range. A TaskPool spawns its workers once and reuses them: run(fn) hands
// every worker the same callable with a distinct lane id in [0, threads)
// and blocks until all lanes finish.
//
// Determinism is the caller's contract, not the pool's: each lane writes
// only its own fixed slice, so the combined output is identical at every
// thread count (the pool never reorders, steals, or splits a lane).

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sperr {

class TaskPool {
 public:
  /// Spawn `threads - 1` workers (lane 0 runs on the calling thread).
  /// threads <= 1 creates no workers and run() executes inline.
  explicit TaskPool(int threads) : threads_(threads < 1 ? 1 : threads) {
    workers_.reserve(size_t(threads_ - 1));
    for (int lane = 1; lane < threads_; ++lane)
      workers_.emplace_back([this, lane] { worker_loop(lane); });
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  ~TaskPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] int threads() const { return threads_; }

  /// Run fn(lane) for every lane in [0, threads()); returns when all lanes
  /// have finished. fn must be safe to call concurrently from different
  /// threads with distinct lane ids. Not reentrant.
  void run(const std::function<void(int)>& fn) {
    if (threads_ == 1) {
      fn(0);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = &fn;
      pending_ = threads_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
    fn(0);
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }

 private:
  void worker_loop(int lane) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
      }
      (*fn)(lane);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  int threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* fn_ = nullptr;
  int pending_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Resolve a thread-count knob: 1 stays serial, 0 (or negative) means one
/// lane per hardware thread, anything else is clamped to [1, 64].
inline int resolve_thread_count(int threads) {
  if (threads == 1) return 1;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw != 0 ? int(hw) : 1;
  }
  return std::clamp(threads, 1, 64);
}

/// An element-wise loop cut into fixed contiguous lanes: the one lane
/// pattern of both SPECK coders. Lane boundaries depend only on the range
/// and the lane count, and every lane writes only its own slice, so the
/// result is identical at every thread count. The pool is spawned at the
/// first range worth splitting; a coder whose loops all stay below kGrain
/// starts no thread.
class Lanes {
 public:
  /// Below this many items the fork-join costs more than the loop.
  static constexpr size_t kGrain = size_t(1) << 14;

  explicit Lanes(int threads) : threads_(resolve_thread_count(threads)) {}

  /// fn(b, e) over [begin, end): once per lane when the range reaches
  /// kGrain and there is more than one lane, else once over the whole range
  /// (not at all when it is empty). Lane l of L takes the l-th of L
  /// contiguous slices, the first (count mod L) one item longer.
  template <class Fn>
  void run(size_t begin, size_t end, Fn&& fn) {
    const size_t count = end - begin;
    if (threads_ > 1 && count >= kGrain) {
      if (!pool_) pool_ = std::make_unique<TaskPool>(threads_);
      const size_t per = count / size_t(threads_);
      const size_t rem = count % size_t(threads_);
      pool_->run([&](int lane) {
        const size_t l = size_t(lane);
        const size_t b = begin + per * l + std::min(l, rem);
        fn(b, b + per + (l < rem ? 1 : 0));
      });
    } else if (count != 0) {
      fn(begin, end);
    }
  }

 private:
  int threads_;
  std::unique_ptr<TaskPool> pool_;
};

}  // namespace sperr
