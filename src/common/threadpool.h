#pragma once

// Deterministic intra-chunk lanes. The SPECK coders split only element-wise
// loops into lanes: the decoder's refinement passes and coefficient export,
// and the encoder's PWE recon export. run_lanes forks plain std::threads for
// one range and joins them before it returns, so no thread outlives a pass
// and nothing is shared between passes but the range's own data.
//
// Determinism is the caller's contract: lane boundaries depend only on the
// range and the lane count, and each lane writes only its own slice, so the
// combined output is identical at every thread count.

#include <algorithm>
#include <cstddef>
#include <system_error>
#include <thread>
#include <vector>

namespace sperr {

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

/// The fewest items a lane takes: a smaller slice saves less than its fork
/// and join cost, so a 48³ chunk (at most 110,592 LSP entries) never forks.
inline constexpr size_t kLaneGrain = size_t(1) << 16;

/// fn(b, e) over [begin, end) on L = min(resolve_thread_count(threads),
/// count / kLaneGrain) lanes. Lane l takes the l-th of L contiguous slices,
/// the first (count mod L) one item longer; lanes 1 .. L-1 run on forked
/// threads (or on the caller, should a fork fail) and are joined before the
/// return. Below two lanes fn runs once on the caller over the whole range
/// (not at all when it is empty). fn must not throw: a forked lane has no
/// caller to take the exception.
template <class Fn>
void run_lanes(int threads, size_t begin, size_t end, Fn&& fn) {
  const size_t count = end - begin;
  const size_t lanes = std::min(size_t(resolve_thread_count(threads)), count / kLaneGrain);
  if (lanes < 2) {
    if (count != 0) fn(begin, end);
    return;
  }
  const size_t per = count / lanes, rem = count % lanes;
  auto slice = [&](size_t l) {
    const size_t b = begin + per * l + std::min(l, rem);
    fn(b, b + per + (l < rem ? 1 : 0));
  };
  std::vector<std::thread> forks;
  forks.reserve(lanes - 1);
  size_t forked = 1;
  try {
    for (; forked < lanes; ++forked) forks.emplace_back(slice, forked);
  } catch (const std::system_error&) {
    // Out of threads: the caller runs the lanes that did not fork.
  }
  for (size_t l = forked; l < lanes; ++l) slice(l);
  slice(0);
  for (std::thread& t : forks) t.join();
}

}  // namespace sperr
