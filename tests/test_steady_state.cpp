// A steady-state compress or decompress takes no fresh memory for coder
// state: the SPECK coders' arrays and the PWE recon come from the calling
// worker's warm arena, and the outlier coder's lists keep their capacity.
// This binary replaces the global operator new to log every allocation of
// 1 MiB or more while a check is armed, so it is a test program of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/arena.h"
#include "data/synthetic.h"
#include "outlier/coder.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "sperr/sperr.h"
#include "wavelet/dwt.h"

namespace {

constexpr size_t kLarge = size_t(1) << 20;
constexpr size_t kLogSlots = 64;

std::atomic<bool> g_armed{false};
std::atomic<size_t> g_large{0};
const void* g_log[kLogSlots];

void* allocate(size_t n, size_t align) {
  void* p = align == 0 ? std::malloc(n ? n : 1)
                       : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  if (n >= kLarge && g_armed.load(std::memory_order_relaxed)) {
    const size_t i = g_large.fetch_add(1, std::memory_order_relaxed);
    if (i < kLogSlots) g_log[i] = p;
  }
  return p;
}

}  // namespace

void* operator new(size_t n) { return allocate(n, 0); }
void* operator new[](size_t n) { return allocate(n, 0); }
void* operator new(size_t n, std::align_val_t a) { return allocate(n, size_t(a)); }
void* operator new[](size_t n, std::align_val_t a) { return allocate(n, size_t(a)); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }

namespace sperr {
namespace {

/// Runs `call` with the log armed; fails for every large allocation it made
/// except at `allowed` (the data of the vector the call returns).
template <class Call>
void expect_no_large_allocation(const char* what, Call&& call) {
  g_large = 0;
  g_armed = true;
  const void* allowed = call();
  g_armed = false;
  const size_t n = g_large.load();
  size_t other = n > kLogSlots ? n - kLogSlots : 0;
  for (size_t i = 0; i < std::min(n, kLogSlots); ++i) other += g_log[i] != allowed;
  EXPECT_EQ(other, 0u) << what << " made " << other
                       << " allocation(s) of 1 MiB or more besides its result";
}

class SteadyState : public ::testing::Test {
 protected:
  // 64^3 at idx 20, coded serially on the calling thread. q = 2t leaves
  // enough outliers (several percent of the points) that the outlier
  // coder's lists pass 1 MiB, so a list regrown in a steady-state call is
  // seen here.
  SteadyState() : field_(data::make_field("miranda_pressure", dims_, 7)) {
    cfg_.num_threads = 1;
    cfg_.chunk_dims = dims_;
    cfg_.q_over_t = 6.0;
    cfg_.tolerance = tolerance_from_idx(field_.data(), field_.size(), 20);
  }

  void round_trip() {
    const std::vector<uint8_t> blob = compress(field_.data(), dims_, cfg_);
    std::vector<double> out;
    Dims out_dims;
    ASSERT_EQ(decompress(blob.data(), blob.size(), out, out_dims), Status::ok);
    for (size_t i = 0; i < out.size(); ++i)
      ASSERT_LE(std::fabs(out[i] - field_[i]), cfg_.tolerance) << "at " << i;
  }

  const Dims dims_{64, 64, 64};
  std::vector<double> field_;
  Config cfg_;
};

TEST_F(SteadyState, SecondRoundTripGrowsNoArena) {
  round_trip();
  const size_t allocs = tls_arena().system_alloc_count();
  round_trip();
  EXPECT_EQ(tls_arena().system_alloc_count(), allocs)
      << "a steady-state round trip grew the calling thread's arena";
}

TEST_F(SteadyState, CodersTakeNoLargeAllocations) {
  round_trip();  // warms the arena and the outlier lists of this thread
  round_trip();

  // The pipeline's stages, one call at a time, on the warm arena.
  const size_t n = dims_.total();
  const double q = cfg_.q_over_t * cfg_.tolerance;
  Arena& a = tls_arena();
  a.reset();
  double* coeffs = a.alloc<double>(n);
  std::memcpy(coeffs, field_.data(), n * sizeof(double));
  wavelet::forward_dwt(coeffs, dims_, wavelet::Kernel::cdf97, &a);

  std::vector<uint8_t> speck_stream;
  expect_no_large_allocation("speck::encode", [&] {
    speck_stream = speck::encode(coeffs, dims_, q, 0, nullptr, nullptr, 1, &a);
    return static_cast<const void*>(speck_stream.data());
  });

  double* recon = a.alloc<double>(n);
  speck::reconstruct(coeffs, dims_, q, recon, 1);
  wavelet::inverse_dwt(recon, dims_, wavelet::Kernel::cdf97, &a);
  std::vector<outlier::Outlier> outliers;
  for (size_t i = 0; i < n; ++i)
    if (std::fabs(field_[i] - recon[i]) > cfg_.tolerance)
      outliers.push_back({i, field_[i] - recon[i]});
  const size_t count = outliers.size();
  ASSERT_GT(count, n / 50);

  std::vector<uint8_t> outlier_stream;
  expect_no_large_allocation("outlier::encode", [&] {
    outlier_stream = outlier::encode(std::move(outliers), n, cfg_.tolerance);
    return static_cast<const void*>(outlier_stream.data());
  });

  a.reset();  // as the decode chunk loop: the output first, then the coder
  double* decoded = a.alloc<double>(n);
  expect_no_large_allocation("speck::decode", [&] {
    EXPECT_EQ(speck::decode(speck_stream.data(), speck_stream.size(), dims_, decoded,
                            nullptr, 1, &a),
              Status::ok);
    return static_cast<const void*>(nullptr);
  });

  std::vector<outlier::Outlier> corrections;
  expect_no_large_allocation("outlier::decode", [&] {
    EXPECT_EQ(outlier::decode(outlier_stream.data(), outlier_stream.size(), n, corrections),
              Status::ok);
    return static_cast<const void*>(corrections.data());
  });
  EXPECT_EQ(corrections.size(), count);
}

}  // namespace
}  // namespace sperr
