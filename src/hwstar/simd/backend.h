#ifndef HWSTAR_SIMD_BACKEND_H_
#define HWSTAR_SIMD_BACKEND_H_

#include <cstdint>

namespace hwstar::simd {

/// The data-parallel backends the simd kernels are compiled for, in
/// strictly increasing capability order (so "clamp to what the host
/// supports" is a min). Every kernel has all three implementations with
/// *bit-identical* results; the backend only changes how many lanes one
/// instruction covers, never what is computed. kScalar is always present
/// (and is the only backend compiled under HWSTAR_DISABLE_SIMD or on
/// non-x86 hosts).
enum class Backend : uint8_t {
  kScalar = 0,
  kSse42 = 1,  ///< 2 x 64-bit lanes (pcmpgtq needs SSE4.2)
  kAvx2 = 2,   ///< 4 x 64-bit lanes
};

/// Stable lowercase name for reports and bench labels.
const char* BackendName(Backend b);

/// The most capable backend this *build + host* can execute: runtime
/// cpuid capped by what was compiled in. Detected once; never changes.
/// Under HWSTAR_DISABLE_SIMD (the forced-portable CI leg), on non-x86
/// targets, and under ThreadSanitizer this is kScalar — TSan does not
/// instrument the vector bodies' loads, so sanitizer builds keep the
/// fully-instrumented scalar paths.
Backend BestSupported();

/// The backend the kernels should use right now: the tune::SimdBackend
/// knob clamped to BestSupported(). One relaxed atomic load + a min;
/// batch kernels read it once per batch (callers doing per-key work fetch
/// it once and pass it down). Forcing the knob above the host's
/// capability is legal and simply yields the best the host has — which is
/// what lets one test/bench matrix run unchanged on any machine.
Backend ActiveBackend();

/// Lanes of 64-bit work per vector op for a backend (1 for scalar).
inline constexpr uint32_t LaneCount(Backend b) {
  return b == Backend::kAvx2 ? 4u : b == Backend::kSse42 ? 2u : 1u;
}

}  // namespace hwstar::simd

#endif  // HWSTAR_SIMD_BACKEND_H_
