#include "hwstar/simd/kernels.h"

#include "hwstar/common/hash.h"

// The vector bodies are compiled with function-level target attributes so
// the library's baseline stays portable x86-64: only these functions carry
// AVX2/SSE4.2 code, and they are only reached when BestSupported() said the
// host executes them. HWSTAR_DISABLE_SIMD (the forced-portable CI leg),
// non-x86 targets, and TSan builds compile the scalar bodies alone.
#if !defined(HWSTAR_DISABLE_SIMD) && !defined(__SANITIZE_THREAD__) && \
    (defined(__x86_64__) || defined(__i386__)) &&                     \
    (defined(__GNUC__) || defined(__clang__))
#define HWSTAR_SIMD_X86 1
#include <immintrin.h>
#define HWSTAR_TARGET_AVX2 __attribute__((target("avx2")))
#define HWSTAR_TARGET_SSE42 __attribute__((target("sse4.2")))
#endif

namespace hwstar::simd {

namespace {

// --- Scalar bodies (the reference semantics; always compiled) --------------

void Mix64BatchScalar(const uint64_t* keys, size_t n, uint64_t* out,
                      uint64_t x) {
  for (size_t i = 0; i < n; ++i) out[i] = Mix64(keys[i] ^ x);
}

void BuildRangeBitmapScalar(const int64_t* v, size_t n, int64_t lo,
                            int64_t hi, uint64_t* words) {
  const size_t num_words = (n + 63) / 64;
  for (size_t w = 0; w < num_words; ++w) words[w] = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bit =
        static_cast<uint64_t>(v[i] >= lo) & static_cast<uint64_t>(v[i] < hi);
    words[i >> 6] |= bit << (i & 63);
  }
}

uint64_t CountInRangeScalar(const int64_t* v, size_t n, int64_t lo,
                            int64_t hi) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count +=
        static_cast<uint64_t>(v[i] >= lo) & static_cast<uint64_t>(v[i] < hi);
  }
  return count;
}

int64_t SumScalar(const int64_t* v, size_t n) {
  // Accumulate unsigned so the wrap is defined; the result is the same
  // mod-2^64 value a wrapping signed loop produces.
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += static_cast<uint64_t>(v[i]);
  return static_cast<int64_t>(sum);
}

int64_t MinScalar(const int64_t* v, size_t n) {
  int64_t best = v[0];
  for (size_t i = 1; i < n; ++i) best = v[i] < best ? v[i] : best;
  return best;
}

int64_t MaxScalar(const int64_t* v, size_t n) {
  int64_t best = v[0];
  for (size_t i = 1; i < n; ++i) best = v[i] > best ? v[i] : best;
  return best;
}

bool TestBlock512Scalar(const uint64_t* block, const uint64_t* mask) {
  for (int w = 0; w < 8; ++w) {
    if ((block[w] & mask[w]) != mask[w]) return false;
  }
  return true;
}

#if defined(HWSTAR_SIMD_X86)

// --- AVX2 bodies: 4 x 64-bit lanes -----------------------------------------

/// 64x64->low-64 multiply from three 32x32 widening multiplies (AVX2 has
/// no vpmullq): lo + ((a_lo*b_hi + a_hi*b_lo) << 32), exact mod 2^64.
HWSTAR_TARGET_AVX2 inline __m256i MulLo64Avx2(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

HWSTAR_TARGET_AVX2 inline __m256i Mix64Avx2(__m256i k, __m256i c1,
                                            __m256i c2) {
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64Avx2(k, c1);
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64Avx2(k, c2);
  return _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
}

HWSTAR_TARGET_AVX2 void Mix64BatchAvx2(const uint64_t* keys, size_t n,
                                       uint64_t* out, uint64_t x) {
  const __m256i c1 = _mm256_set1_epi64x(
      static_cast<int64_t>(0xff51afd7ed558ccdULL));
  const __m256i c2 = _mm256_set1_epi64x(
      static_cast<int64_t>(0xc4ceb9fe1a85ec53ULL));
  const __m256i vx = _mm256_set1_epi64x(static_cast<int64_t>(x));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i k = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    k = Mix64Avx2(_mm256_xor_si256(k, vx), c1, c2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), k);
  }
  for (; i < n; ++i) out[i] = Mix64(keys[i] ^ x);
}

/// Lane predicate (v >= lo) & (v < hi) as an all-ones/all-zeros mask:
/// andnot(lo > v, hi > v) with signed compares, matching the scalar
/// int64_t comparisons bit for bit.
HWSTAR_TARGET_AVX2 inline __m256i InRangeAvx2(__m256i v, __m256i vlo,
                                              __m256i vhi) {
  return _mm256_andnot_si256(_mm256_cmpgt_epi64(vlo, v),
                             _mm256_cmpgt_epi64(vhi, v));
}

HWSTAR_TARGET_AVX2 void BuildRangeBitmapAvx2(const int64_t* v, size_t n,
                                             int64_t lo, int64_t hi,
                                             uint64_t* words) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  size_t i = 0;
  size_t w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    uint64_t word = 0;
    for (uint32_t j = 0; j < 16; ++j) {
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(v + i + 4 * j));
      const uint32_t m = static_cast<uint32_t>(
          _mm256_movemask_pd(_mm256_castsi256_pd(InRangeAvx2(x, vlo, vhi))));
      word |= static_cast<uint64_t>(m) << (4 * j);
    }
    words[w] = word;
  }
  if (i < n) {
    uint64_t word = 0;
    for (size_t t = i; t < n; ++t) {
      const uint64_t bit = static_cast<uint64_t>(v[t] >= lo) &
                           static_cast<uint64_t>(v[t] < hi);
      word |= bit << (t - i);
    }
    words[w] = word;
  }
}

HWSTAR_TARGET_AVX2 uint64_t CountInRangeAvx2(const int64_t* v, size_t n,
                                             int64_t lo, int64_t hi) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    // Passing lanes are all-ones (-1); subtracting counts them.
    acc = _mm256_sub_epi64(acc, InRangeAvx2(x, vlo, vhi));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    count +=
        static_cast<uint64_t>(v[i] >= lo) & static_cast<uint64_t>(v[i] < hi);
  }
  return count;
}

HWSTAR_TARGET_AVX2 int64_t SumAvx2(const int64_t* v, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += static_cast<uint64_t>(v[i]);
  return static_cast<int64_t>(sum);
}

HWSTAR_TARGET_AVX2 int64_t MinAvx2(const int64_t* v, size_t n) {
  if (n < 4) return MinScalar(v, n);
  __m256i best = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    best = _mm256_blendv_epi8(best, x, _mm256_cmpgt_epi64(best, x));
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
  int64_t out = MinScalar(lanes, 4);
  for (; i < n; ++i) out = v[i] < out ? v[i] : out;
  return out;
}

HWSTAR_TARGET_AVX2 int64_t MaxAvx2(const int64_t* v, size_t n) {
  if (n < 4) return MaxScalar(v, n);
  __m256i best = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    best = _mm256_blendv_epi8(best, x, _mm256_cmpgt_epi64(x, best));
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
  int64_t out = MaxScalar(lanes, 4);
  for (; i < n; ++i) out = v[i] > out ? v[i] : out;
  return out;
}

HWSTAR_TARGET_AVX2 bool TestBlock512Avx2(const uint64_t* block,
                                         const uint64_t* mask) {
  const __m256i b0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i m0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask));
  const __m256i b1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  const __m256i m1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + 4));
  // testc(a, b) == 1 iff (~a & b) is all zero, i.e. b's bits all in a.
  return (_mm256_testc_si256(b0, m0) & _mm256_testc_si256(b1, m1)) != 0;
}

// --- SSE4.2 bodies: 2 x 64-bit lanes ---------------------------------------

HWSTAR_TARGET_SSE42 inline __m128i MulLo64Sse(__m128i a, __m128i b) {
  const __m128i a_hi = _mm_srli_epi64(a, 32);
  const __m128i b_hi = _mm_srli_epi64(b, 32);
  const __m128i lo = _mm_mul_epu32(a, b);
  const __m128i cross =
      _mm_add_epi64(_mm_mul_epu32(a, b_hi), _mm_mul_epu32(a_hi, b));
  return _mm_add_epi64(lo, _mm_slli_epi64(cross, 32));
}

HWSTAR_TARGET_SSE42 void Mix64BatchSse(const uint64_t* keys, size_t n,
                                       uint64_t* out, uint64_t x) {
  const __m128i c1 =
      _mm_set1_epi64x(static_cast<int64_t>(0xff51afd7ed558ccdULL));
  const __m128i c2 =
      _mm_set1_epi64x(static_cast<int64_t>(0xc4ceb9fe1a85ec53ULL));
  const __m128i vx = _mm_set1_epi64x(static_cast<int64_t>(x));
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i k =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i));
    k = _mm_xor_si128(k, vx);
    k = _mm_xor_si128(k, _mm_srli_epi64(k, 33));
    k = MulLo64Sse(k, c1);
    k = _mm_xor_si128(k, _mm_srli_epi64(k, 33));
    k = MulLo64Sse(k, c2);
    k = _mm_xor_si128(k, _mm_srli_epi64(k, 33));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), k);
  }
  for (; i < n; ++i) out[i] = Mix64(keys[i] ^ x);
}

HWSTAR_TARGET_SSE42 inline __m128i InRangeSse(__m128i v, __m128i vlo,
                                              __m128i vhi) {
  return _mm_andnot_si128(_mm_cmpgt_epi64(vlo, v), _mm_cmpgt_epi64(vhi, v));
}

HWSTAR_TARGET_SSE42 void BuildRangeBitmapSse(const int64_t* v, size_t n,
                                             int64_t lo, int64_t hi,
                                             uint64_t* words) {
  const __m128i vlo = _mm_set1_epi64x(lo);
  const __m128i vhi = _mm_set1_epi64x(hi);
  size_t i = 0;
  size_t w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    uint64_t word = 0;
    for (uint32_t j = 0; j < 32; ++j) {
      const __m128i x = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(v + i + 2 * j));
      const uint32_t m = static_cast<uint32_t>(
          _mm_movemask_pd(_mm_castsi128_pd(InRangeSse(x, vlo, vhi))));
      word |= static_cast<uint64_t>(m) << (2 * j);
    }
    words[w] = word;
  }
  if (i < n) {
    uint64_t word = 0;
    for (size_t t = i; t < n; ++t) {
      const uint64_t bit = static_cast<uint64_t>(v[t] >= lo) &
                           static_cast<uint64_t>(v[t] < hi);
      word |= bit << (t - i);
    }
    words[w] = word;
  }
}

HWSTAR_TARGET_SSE42 uint64_t CountInRangeSse(const int64_t* v, size_t n,
                                             int64_t lo, int64_t hi) {
  const __m128i vlo = _mm_set1_epi64x(lo);
  const __m128i vhi = _mm_set1_epi64x(hi);
  __m128i acc = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    acc = _mm_sub_epi64(acc, InRangeSse(x, vlo, vhi));
  }
  alignas(16) uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  uint64_t count = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    count +=
        static_cast<uint64_t>(v[i] >= lo) & static_cast<uint64_t>(v[i] < hi);
  }
  return count;
}

HWSTAR_TARGET_SSE42 int64_t SumSse(const int64_t* v, size_t n) {
  __m128i acc = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = _mm_add_epi64(
        acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i)));
  }
  alignas(16) uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  uint64_t sum = lanes[0] + lanes[1];
  for (; i < n; ++i) sum += static_cast<uint64_t>(v[i]);
  return static_cast<int64_t>(sum);
}

HWSTAR_TARGET_SSE42 int64_t MinSse(const int64_t* v, size_t n) {
  if (n < 2) return MinScalar(v, n);
  __m128i best = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v));
  size_t i = 2;
  for (; i + 2 <= n; i += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    best = _mm_blendv_epi8(best, x, _mm_cmpgt_epi64(best, x));
  }
  alignas(16) int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), best);
  int64_t out = lanes[0] < lanes[1] ? lanes[0] : lanes[1];
  for (; i < n; ++i) out = v[i] < out ? v[i] : out;
  return out;
}

HWSTAR_TARGET_SSE42 int64_t MaxSse(const int64_t* v, size_t n) {
  if (n < 2) return MaxScalar(v, n);
  __m128i best = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v));
  size_t i = 2;
  for (; i + 2 <= n; i += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    best = _mm_blendv_epi8(best, x, _mm_cmpgt_epi64(x, best));
  }
  alignas(16) int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), best);
  int64_t out = lanes[0] > lanes[1] ? lanes[0] : lanes[1];
  for (; i < n; ++i) out = v[i] > out ? v[i] : out;
  return out;
}

HWSTAR_TARGET_SSE42 bool TestBlock512Sse(const uint64_t* block,
                                         const uint64_t* mask) {
  int ok = 1;
  for (int w = 0; w < 8; w += 2) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + w));
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + w));
    ok &= _mm_testc_si128(b, m);
  }
  return ok != 0;
}

#endif  // HWSTAR_SIMD_X86

}  // namespace

void Mix64Batch(Backend b, const uint64_t* keys, size_t n, uint64_t* out,
                uint64_t xor_mask) {
#if defined(HWSTAR_SIMD_X86)
  if (b == Backend::kAvx2) return Mix64BatchAvx2(keys, n, out, xor_mask);
  if (b == Backend::kSse42) return Mix64BatchSse(keys, n, out, xor_mask);
#else
  (void)b;
#endif
  Mix64BatchScalar(keys, n, out, xor_mask);
}

void BuildRangeBitmap(Backend b, const int64_t* values, size_t n, int64_t lo,
                      int64_t hi, uint64_t* words) {
#if defined(HWSTAR_SIMD_X86)
  if (b == Backend::kAvx2) return BuildRangeBitmapAvx2(values, n, lo, hi, words);
  if (b == Backend::kSse42) return BuildRangeBitmapSse(values, n, lo, hi, words);
#else
  (void)b;
#endif
  BuildRangeBitmapScalar(values, n, lo, hi, words);
}

uint64_t CountInRange(Backend b, const int64_t* values, size_t n, int64_t lo,
                      int64_t hi) {
#if defined(HWSTAR_SIMD_X86)
  if (b == Backend::kAvx2) return CountInRangeAvx2(values, n, lo, hi);
  if (b == Backend::kSse42) return CountInRangeSse(values, n, lo, hi);
#else
  (void)b;
#endif
  return CountInRangeScalar(values, n, lo, hi);
}

int64_t Sum(Backend b, const int64_t* values, size_t n) {
#if defined(HWSTAR_SIMD_X86)
  if (b == Backend::kAvx2) return SumAvx2(values, n);
  if (b == Backend::kSse42) return SumSse(values, n);
#else
  (void)b;
#endif
  return SumScalar(values, n);
}

int64_t Min(Backend b, const int64_t* values, size_t n) {
#if defined(HWSTAR_SIMD_X86)
  if (b == Backend::kAvx2) return MinAvx2(values, n);
  if (b == Backend::kSse42) return MinSse(values, n);
#else
  (void)b;
#endif
  return MinScalar(values, n);
}

int64_t Max(Backend b, const int64_t* values, size_t n) {
#if defined(HWSTAR_SIMD_X86)
  if (b == Backend::kAvx2) return MaxAvx2(values, n);
  if (b == Backend::kSse42) return MaxSse(values, n);
#else
  (void)b;
#endif
  return MaxScalar(values, n);
}

bool TestBlock512(Backend b, const uint64_t* block, const uint64_t* mask) {
#if defined(HWSTAR_SIMD_X86)
  if (b == Backend::kAvx2) return TestBlock512Avx2(block, mask);
  if (b == Backend::kSse42) return TestBlock512Sse(block, mask);
#else
  (void)b;
#endif
  return TestBlock512Scalar(block, mask);
}

}  // namespace hwstar::simd

namespace hwstar {

// Declared in common/hash.h next to the scalar Mix64 it batches; defined
// here so common/ stays free of ISA dispatch.
void Mix64Batch(const uint64_t* keys, size_t n, uint64_t* out) {
  simd::Mix64Batch(simd::ActiveBackend(), keys, n, out);
}

}  // namespace hwstar
