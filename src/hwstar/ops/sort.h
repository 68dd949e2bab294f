#ifndef HWSTAR_OPS_SORT_H_
#define HWSTAR_OPS_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "hwstar/ops/relation.h"

namespace hwstar::ops {

namespace sort_internal {

/// One counting pass of 8-bit LSB radix sort: `move(i, o)` sends source
/// element i, whose key is `key(i)`, to destination position o.
template <typename KeyAt, typename Move>
void RadixPass(size_t n, uint32_t shift, KeyAt key, Move move) {
  std::array<size_t, 256> offset{};
  for (size_t i = 0; i < n; ++i) {
    ++offset[(key(i) >> shift) & 0xFF];
  }
  size_t acc = 0;
  for (size_t& o : offset) {
    const size_t count = o;
    o = acc;
    acc += count;
  }
  for (size_t i = 0; i < n; ++i) {
    move(i, offset[(key(i) >> shift) & 0xFF]++);
  }
}

/// Runs a RadixPass for every key byte that is not constant across the n
/// elements, calling `flip()` after each pass to exchange source and
/// destination. Returns true when an odd number of passes ran, i.e. the
/// sorted elements sit in the buffer that started as the destination.
template <typename KeyAt, typename Move, typename Flip>
bool RadixPasses(size_t n, KeyAt key, Move move, Flip flip) {
  uint64_t all_or = 0, all_and = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = key(i);
    all_or |= k;
    all_and &= k;
  }
  const uint64_t varying = all_or & ~all_and;
  bool odd = false;
  for (uint32_t shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;  // constant byte
    RadixPass(n, shift, key, move);
    flip();
    odd = !odd;
  }
  return odd;
}

}  // namespace sort_internal

/// Stable LSB radix sort of `items` by the uint64 `key(item)`, 8 bits per
/// pass, skipping the bytes that are constant across the input (common
/// for small key domains). O(n) data movement per pass in sequential
/// streams -- the cache/prefetcher-friendly sort -- versus the
/// branch-and-compare traffic of comparison sorting. `scratch` is resized
/// to the input size and its contents are left unspecified; a caller that
/// keeps it across calls sorts without allocating once both vectors have
/// grown.
template <typename T, typename KeyFn>
void RadixSortBy(std::vector<T>* items, std::vector<T>* scratch, KeyFn key) {
  const size_t n = items->size();
  if (n <= 1) return;
  scratch->resize(n);
  T* src = items->data();
  T* dst = scratch->data();
  const bool odd = sort_internal::RadixPasses(
      n, [&](size_t i) { return key(src[i]); },
      [&](size_t i, size_t o) { dst[o] = src[i]; },
      [&] { std::swap(src, dst); });
  if (odd) items->swap(*scratch);
}

/// Radix-sorts a relation by key, moving payloads along (stably, by the
/// same passes as RadixSortBy).
void RadixSortRelation(Relation* rel);

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_SORT_H_
