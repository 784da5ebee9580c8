#include "testkit/faultinject.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/rng.h"

namespace sperr::faultinject {

namespace {

/// Indices of slices with at least one byte inside the buffer.
std::vector<uint32_t> usable_slices(const std::vector<ByteRange>& slices,
                                    size_t buffer_size) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < slices.size(); ++i)
    if (slices[i].length > 0 && slices[i].offset < buffer_size) out.push_back(uint32_t(i));
  return out;
}

/// Bytes of slice `r` that actually lie inside the buffer.
size_t avail(const ByteRange& r, size_t buffer_size) {
  return std::min(r.length, buffer_size - std::min(r.offset, buffer_size));
}

}  // namespace

std::string to_string(const Fault& f) {
  char buf[96];
  switch (f.kind) {
    case FaultKind::bit_flip:
      std::snprintf(buf, sizeof buf, "bit_flip slice %u +%zu mask 0x%02x", f.target,
                    f.offset, f.mask);
      break;
    case FaultKind::byte_burst:
      std::snprintf(buf, sizeof buf, "byte_burst slice %u +%zu len %zu", f.target,
                    f.offset, f.length);
      break;
    case FaultKind::zero_range:
      std::snprintf(buf, sizeof buf, "zero_range slice %u +%zu len %zu", f.target,
                    f.offset, f.length);
      break;
    case FaultKind::truncate_tail:
      std::snprintf(buf, sizeof buf, "truncate_tail len %zu", f.length);
      break;
    case FaultKind::duplicate_slice:
      std::snprintf(buf, sizeof buf, "duplicate_slice %u", f.target);
      break;
    case FaultKind::swap_slices:
      std::snprintf(buf, sizeof buf, "swap_slices %u <-> %u", f.target, f.other);
      break;
  }
  return buf;
}

std::vector<Fault> plan(uint64_t seed, size_t count,
                        const std::vector<ByteRange>& slices, size_t buffer_size) {
  std::vector<Fault> out;
  const auto targets = usable_slices(slices, buffer_size);
  if (targets.empty() || count == 0) return out;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  // Decide up front whether the plan ends with a structural fault; roughly
  // one plan in three does, so content-only corruption stays the common case.
  const bool structural = count > 0 && rng.below(3) == 0;
  const size_t content = structural ? count - 1 : count;

  for (size_t i = 0; i < content; ++i) {
    Fault f;
    const uint32_t t = targets[rng.below(targets.size())];
    const size_t n = avail(slices[t], buffer_size);
    f.target = t;
    switch (rng.below(4)) {
      case 0:
      case 1:  // bit flips twice as likely: the most common real-world fault
        f.kind = FaultKind::bit_flip;
        f.offset = rng.below(n);
        f.mask = uint8_t(1u << rng.below(8));
        break;
      case 2:
        f.kind = FaultKind::byte_burst;
        f.offset = rng.below(n);
        f.length = 1 + rng.below(std::min<size_t>(n - f.offset, 64));
        f.mask = uint8_t(rng.next() | 1);
        break;
      default:
        f.kind = FaultKind::zero_range;
        f.offset = rng.below(n);
        f.length = 1 + rng.below(std::min<size_t>(n - f.offset, 64));
        break;
    }
    out.push_back(f);
  }

  if (structural) {
    Fault f;
    switch (rng.below(3)) {
      case 0: {
        f.kind = FaultKind::truncate_tail;
        // Cut somewhere inside the last usable slice so the damage is
        // attributable (cutting the whole buffer tests nothing per-slice).
        const ByteRange& last = slices[targets.back()];
        const size_t max_cut = buffer_size - last.offset;
        f.length = 1 + rng.below(std::max<size_t>(max_cut, 1));
        break;
      }
      case 1:
        f.kind = FaultKind::duplicate_slice;
        f.target = targets[rng.below(targets.size())];
        break;
      default:
        f.kind = FaultKind::swap_slices;
        f.target = targets[rng.below(targets.size())];
        f.other = targets[rng.below(targets.size())];
        if (f.other == f.target && targets.size() > 1)
          f.other = targets[(std::find(targets.begin(), targets.end(), f.target) -
                             targets.begin() + 1) %
                            targets.size()];
        break;
    }
    out.push_back(f);
  }
  return out;
}

std::vector<uint8_t> apply(const uint8_t* data, size_t size,
                           const std::vector<ByteRange>& slices,
                           const std::vector<Fault>& faults) {
  std::vector<uint8_t> out(data, data + size);
  for (const Fault& f : faults) {
    switch (f.kind) {
      case FaultKind::bit_flip: {
        if (f.target >= slices.size()) break;
        const size_t pos = slices[f.target].offset + f.offset;
        if (pos < out.size()) out[pos] ^= f.mask;
        break;
      }
      case FaultKind::byte_burst: {
        if (f.target >= slices.size()) break;
        Rng noise(uint64_t(f.mask) * 0x2545f4914f6cdd1dULL + f.offset);
        for (size_t i = 0; i < f.length; ++i) {
          const size_t pos = slices[f.target].offset + f.offset + i;
          if (pos < out.size()) out[pos] = uint8_t(noise.next());
        }
        break;
      }
      case FaultKind::zero_range: {
        if (f.target >= slices.size()) break;
        for (size_t i = 0; i < f.length; ++i) {
          const size_t pos = slices[f.target].offset + f.offset + i;
          if (pos < out.size()) out[pos] = 0;
        }
        break;
      }
      case FaultKind::truncate_tail:
        out.resize(out.size() - std::min(f.length, out.size()));
        break;
      case FaultKind::duplicate_slice: {
        if (f.target >= slices.size()) break;
        const ByteRange& r = slices[f.target];
        if (r.offset >= out.size()) break;
        const size_t n = std::min(r.length, out.size() - r.offset);
        const std::vector<uint8_t> copy(out.begin() + std::ptrdiff_t(r.offset),
                                        out.begin() + std::ptrdiff_t(r.offset + n));
        out.insert(out.begin() + std::ptrdiff_t(r.offset + n), copy.begin(),
                   copy.end());
        break;
      }
      case FaultKind::swap_slices: {
        if (f.target >= slices.size() || f.other >= slices.size()) break;
        ByteRange a = slices[f.target], b = slices[f.other];
        if (a.offset > b.offset) std::swap(a, b);
        if (b.offset + b.length > out.size() || a.offset + a.length > b.offset) break;
        if (a.length == b.length) {
          std::swap_ranges(out.begin() + std::ptrdiff_t(a.offset),
                           out.begin() + std::ptrdiff_t(a.offset + a.length),
                           out.begin() + std::ptrdiff_t(b.offset));
        } else {
          // Unequal lengths: rebuild [a.begin, b.end) as b ‖ middle ‖ a.
          std::vector<uint8_t> span;
          span.reserve(b.offset + b.length - a.offset);
          span.insert(span.end(), out.begin() + std::ptrdiff_t(b.offset),
                      out.begin() + std::ptrdiff_t(b.offset + b.length));
          span.insert(span.end(), out.begin() + std::ptrdiff_t(a.offset + a.length),
                      out.begin() + std::ptrdiff_t(b.offset));
          span.insert(span.end(), out.begin() + std::ptrdiff_t(a.offset),
                      out.begin() + std::ptrdiff_t(a.offset + a.length));
          std::copy(span.begin(), span.end(), out.begin() + std::ptrdiff_t(a.offset));
        }
        break;
      }
    }
  }
  return out;
}

std::vector<size_t> damaged_slices(const uint8_t* data, size_t size,
                                   const std::vector<ByteRange>& slices,
                                   const std::vector<Fault>& faults) {
  const auto mutated = apply(data, size, slices, faults);
  std::vector<size_t> out;
  for (size_t i = 0; i < slices.size(); ++i) {
    const ByteRange& r = slices[i];
    if (r.length == 0) continue;
    if (r.offset + r.length > mutated.size()) {
      out.push_back(i);  // slice cut short by truncation
      continue;
    }
    if (r.offset + r.length > size ||
        std::memcmp(data + r.offset, mutated.data() + r.offset, r.length) != 0)
      out.push_back(i);
  }
  return out;
}

}  // namespace sperr::faultinject
