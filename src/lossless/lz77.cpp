#include "lossless/lz77.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sperr::lossless {

namespace {

constexpr size_t kHashBits = 16;
constexpr size_t kHashSize = size_t(1) << kHashBits;
constexpr size_t kWindowMask = kWindowSize - 1;
constexpr int kMaxChainLen = 48;
// A match this long is "good enough": stop walking the chain and skip the
// lazy re-search (zlib's nice_match). Must stay < kMaxMatch so the
// quick-reject probe below never reads past the match limit.
constexpr uint32_t kNiceLength = 130;
// Once the current best reaches this, walk only a quarter of the remaining
// chain (zlib's good_match); further gains are marginal.
constexpr uint32_t kGoodLength = 32;
// Literal-run skip acceleration: after `miss` consecutive un-matched
// positions the search stride is 1 + (miss >> kSkipShift), capped. On random
// data this makes search cost sublinear while a transition back to
// compressible bytes is found within one (bounded) stride.
constexpr size_t kSkipShift = 5;
constexpr size_t kMaxSkip = 128;

inline uint32_t hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Matching prefix length of a and b, 8 bytes per step.
inline size_t match_length(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t n = 0;
  while (n + 8 <= max_len) {
    uint64_t x, y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    const uint64_t diff = x ^ y;
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little)
        return n + (size_t(std::countr_zero(diff)) >> 3);
      else
        return n + (size_t(std::countl_zero(diff)) >> 3);
    }
    n += 8;
  }
  while (n < max_len && a[n] == b[n]) ++n;
  return n;
}

struct Matcher {
  int32_t* head;
  int32_t* prev;
  const uint8_t* data;
  size_t size;
  size_t next_insert = 0;  ///< insertions are strictly increasing positions

  Matcher(const uint8_t* d, size_t s, MatchScratch& scratch) : data(d), size(s) {
    scratch.head.assign(kHashSize, -1);
    // The ring needs no clearing: slot p & kWindowMask is written when
    // position p is inserted, and chains only ever follow written slots.
    if (scratch.prev.size() < kWindowSize) scratch.prev.resize(kWindowSize);
    head = scratch.head.data();
    prev = scratch.prev.data();
  }

  /// Register position `p` in the hash chains (no-op if already inserted or
  /// too close to the end to hash). Calls must use non-decreasing `p`.
  inline void insert(size_t p) {
    if (p < next_insert || p + 4 > size) return;
    const uint32_t h = hash4(data + p);
    prev[p & kWindowMask] = head[h];
    head[h] = int32_t(p);
    next_insert = p + 1;
  }

  /// Register every not-yet-inserted position in [from, to).
  inline void insert_range(size_t from, size_t to) {
    size_t p = std::max(from, next_insert);
    const size_t stop = std::min(to, size >= 4 ? size - 3 : size_t(0));
    for (; p < stop; ++p) {
      const uint32_t h = hash4(data + p);
      prev[p & kWindowMask] = head[h];
      head[h] = int32_t(p);
    }
    if (to > next_insert) next_insert = to;
  }

  /// Best match at `pos` of length >= min_len against strictly earlier
  /// inserted positions; length 0 if none. `max_chain` caps the walk.
  Token best_match(size_t pos, uint32_t min_len, int max_chain) const {
    Token best{};
    const size_t max_len = std::min(kMaxMatch, size - pos);
    if (max_len < kMinMatch) return best;
    uint32_t best_len = min_len - 1;
    if (best_len >= max_len) return best;

    int32_t cand = head[hash4(data + pos)];
    if (cand >= 0 && size_t(cand) == pos) cand = prev[pos & kWindowMask];
    const uint8_t* cur = data + pos;
    int chain = max_chain;
    while (cand >= 0 && pos - size_t(cand) <= kWindowSize && chain-- > 0) {
      const uint8_t* cp = data + size_t(cand);
      // Quick reject: a longer match must agree at the current best length.
      if (cp[best_len] == cur[best_len]) {
        const size_t len = match_length(cp, cur, max_len);
        if (len > best_len) {
          best_len = uint32_t(len);
          best.length = uint32_t(len);
          best.distance = uint32_t(pos - size_t(cand));
          if (len >= kNiceLength || len == max_len) break;
        }
      }
      const int32_t next = prev[size_t(cand) & kWindowMask];
      if (next >= cand) break;  // stale ring slot: chains strictly decrease
      cand = next;
    }
    return best;
  }
};

}  // namespace

void lz77_scan(const uint8_t* data, size_t size, TokenSink& sink,
               MatchScratch* scratch) {
  if (size == 0) return;
  MatchScratch local;
  Matcher m(data, size, scratch ? *scratch : local);

  size_t pos = 0;
  size_t lit_start = 0;  // pending literal run is [lit_start, pos)
  size_t miss = 0;       // consecutive searched positions without a match
  const size_t search_end = size >= kMinMatch ? size - kMinMatch + 1 : 0;

  while (pos < search_end) {
    Token match = m.best_match(pos, kMinMatch, kMaxChainLen);
    if (match.length == 0) {
      // No match: stride forward, accelerating through incompressible runs.
      // Skipped positions are left out of the dictionary on purpose — data
      // that produces no matches is not worth indexing densely.
      m.insert(pos);
      const size_t step = std::min(kMaxSkip, 1 + (miss >> kSkipShift));
      miss += step;
      pos += step;
      continue;
    }
    miss = 0;
    if (match.length < kNiceLength && pos + 1 < search_end) {
      // One-step lazy evaluation: emit a literal instead if the match at
      // pos + 1 is strictly better (zlib's heuristic, improves dense data).
      m.insert(pos);
      const int chain = match.length >= kGoodLength ? kMaxChainLen / 4 : kMaxChainLen;
      const Token next = m.best_match(pos + 1, match.length + 2, chain);
      if (next.length != 0) {
        ++pos;  // data[pos - 1] joins the pending literal run
        match = next;
      }
    }
    if (pos > lit_start) sink.on_literals(data + lit_start, pos - lit_start);
    sink.on_match(match.length, match.distance);
    m.insert_range(pos, pos + match.length);
    pos += match.length;
    lit_start = pos;
  }
  if (size > lit_start) sink.on_literals(data + lit_start, size - lit_start);
}

}  // namespace sperr::lossless
