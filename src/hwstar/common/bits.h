#ifndef HWSTAR_COMMON_BITS_H_
#define HWSTAR_COMMON_BITS_H_

#include <bit>
#include <cstdint>

#include "hwstar/common/macros.h"

namespace hwstar::bits {

/// True when v is a power of two (0 is not).
constexpr bool IsPowerOfTwo(uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Smallest power of two >= v (v=0 maps to 1). Saturates at 2^63, the
/// largest power of two a uint64_t holds: any v > 2^63 maps to 2^63.
constexpr uint64_t NextPowerOfTwo(uint64_t v) {
  if (v <= 1) return 1;
  if (v > (uint64_t{1} << 63)) return uint64_t{1} << 63;
  return uint64_t{1} << (64 - std::countl_zero(v - 1));
}

/// floor(log2(v)); v must be non-zero.
constexpr uint32_t Log2Floor(uint64_t v) {
  return 63 - static_cast<uint32_t>(std::countl_zero(v));
}

/// ceil(log2(v)); v must be non-zero.
constexpr uint32_t Log2Ceil(uint64_t v) {
  return v <= 1 ? 0 : Log2Floor(v - 1) + 1;
}

/// Rounds v up to the next multiple of `align` (align must be a power of
/// two).
constexpr uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// Rounds v down to a multiple of `align` (align must be a power of two).
constexpr uint64_t AlignDown(uint64_t v, uint64_t align) {
  return v & ~(align - 1);
}

/// Extracts `nbits` bits of v starting at bit `lo`.
constexpr uint64_t ExtractBits(uint64_t v, uint32_t lo, uint32_t nbits) {
  if (nbits == 0) return 0;
  return (v >> lo) & ((nbits >= 64) ? ~uint64_t{0} : ((uint64_t{1} << nbits) - 1));
}

/// Population count.
constexpr uint32_t PopCount(uint64_t v) {
  return static_cast<uint32_t>(std::popcount(v));
}

/// Number of bytes needed to store `nbits` bits.
constexpr uint64_t BytesForBits(uint64_t nbits) { return (nbits + 7) / 8; }

}  // namespace hwstar::bits

#endif  // HWSTAR_COMMON_BITS_H_
