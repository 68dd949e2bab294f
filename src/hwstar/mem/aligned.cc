#include "hwstar/mem/aligned.h"

#include <cstdlib>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "hwstar/common/bits.h"
#include "hwstar/common/macros.h"

namespace hwstar::mem {

void* AlignedAlloc(size_t bytes, size_t alignment) {
  HWSTAR_CHECK(bits::IsPowerOfTwo(alignment));
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  if (bytes == 0) bytes = alignment;
  // std::aligned_alloc requires size to be a multiple of alignment.
  size_t rounded = static_cast<size_t>(bits::AlignUp(bytes, alignment));
  return std::aligned_alloc(alignment, rounded);
}

void* HugePageAlloc(size_t bytes) {
  if (bytes < kHugePageBytes) return AlignedAlloc(bytes);
  void* p = AlignedAlloc(bytes, kHugePageBytes);
#if defined(MADV_HUGEPAGE)
  // Advise before the first touch so the page faults can map huge pages.
  // madvise is advice: a kernel without transparent huge pages (or with
  // them disabled) refuses it and the array stays on base pages, which is
  // still correct, so the result is ignored.
  if (p != nullptr) {
    (void)madvise(p, static_cast<size_t>(bits::AlignUp(bytes, kHugePageBytes)),
                  MADV_HUGEPAGE);
  }
#endif
  return p;
}

void AlignedFree(void* ptr) { std::free(ptr); }

AlignedBuffer MakeAlignedBuffer(size_t bytes, size_t alignment) {
  return AlignedBuffer(static_cast<uint8_t*>(AlignedAlloc(bytes, alignment)));
}

}  // namespace hwstar::mem
