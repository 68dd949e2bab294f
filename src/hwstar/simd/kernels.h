#ifndef HWSTAR_SIMD_KERNELS_H_
#define HWSTAR_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "hwstar/simd/backend.h"

namespace hwstar::simd {

/// Explicit data-parallel kernels for the data-plane inner loops, with
/// runtime ISA dispatch. Design rules, in force for every kernel here:
///
///  1. *Bit-identity.* Each kernel computes exactly what the scalar loop
///     it replaces computes — same values, same observable order. The
///     vector backends change lane width, never semantics, so a
///     tune::SimdBackend flip mid-run is invisible in results. (Integer
///     arithmetic is mod-2^64 associative, so even the sum reduction is
///     exact.)
///  2. *Runtime dispatch, compile-time bodies.* The hot bodies are built
///     with target attributes (AVX2 / SSE4.2) inside kernels.cc; the
///     baseline build stays portable and the backend is picked per batch
///     from one relaxed load (ActiveBackend), or passed in by callers
///     that hoisted it.
///  3. *No out-of-bounds reads.* Vector loads cover only full lanes;
///     ragged tails run the scalar body. Safe under ASan.
///
/// The overloads taking an explicit Backend are the hot-path form (the
/// caller hoists ActiveBackend() out of its loop); the short forms fetch
/// it themselves.

// --- Batch hashing ---------------------------------------------------------

/// out[i] = common/hash.h Mix64(keys[i] ^ xor_mask). The xor_mask serves
/// the Bloom filters' second hash (Mix64(key ^ C)); pass 0 for plain
/// Mix64. 4-wide under AVX2 (64x64 mullo emulated with three 32x32
/// widening multiplies), 2-wide under SSE4.2.
void Mix64Batch(Backend b, const uint64_t* keys, size_t n, uint64_t* out,
                uint64_t xor_mask = 0);

// --- Selection scans -------------------------------------------------------

/// words[w] bit (i & 63) = (values[i] >= lo) & (values[i] < hi), LSB =
/// lowest index, exactly ops::BuildSelectionBitmap's layout. `words` must
/// hold (n + 63) / 64 entries; they are fully overwritten. Vector form:
/// signed 64-bit compares + movemask, 4 predicate bits per AVX2 compare
/// pair.
void BuildRangeBitmap(Backend b, const int64_t* values, size_t n, int64_t lo,
                      int64_t hi, uint64_t* words);

/// Count of values in [lo, hi) without materializing anything.
uint64_t CountInRange(Backend b, const int64_t* values, size_t n, int64_t lo,
                      int64_t hi);

// --- Columnar aggregates ---------------------------------------------------

/// Wrapping mod-2^64 sum — identical to the scalar `sum += v` loop.
int64_t Sum(Backend b, const int64_t* values, size_t n);

/// Min/Max over n > 0 values (callers guard the empty case).
int64_t Min(Backend b, const int64_t* values, size_t n);
int64_t Max(Backend b, const int64_t* values, size_t n);

// --- Blocked-Bloom block test ----------------------------------------------

/// (block[w] & mask[w]) == mask[w] for all 8 words — i.e. every probe bit
/// of a one-cache-line (512-bit) Bloom block is set. The vector backends
/// test the whole line with unrolled wide compares (vptest under AVX2)
/// instead of the scalar word-at-a-time early-exit walk; one branchless
/// line test composes with the group prefetch that already covers the
/// line's single miss.
bool TestBlock512(Backend b, const uint64_t* block, const uint64_t* mask);

}  // namespace hwstar::simd

#endif  // HWSTAR_SIMD_KERNELS_H_
