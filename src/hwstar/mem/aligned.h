#ifndef HWSTAR_MEM_ALIGNED_H_
#define HWSTAR_MEM_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace hwstar::mem {

/// Cache line size assumed throughout the library; matches the modeled
/// machines and every x86 part since 2006.
inline constexpr size_t kCacheLineBytes = 64;

/// Allocates `bytes` with the given alignment (power of two, >=
/// sizeof(void*)). Returns nullptr on failure. Free with AlignedFree.
void* AlignedAlloc(size_t bytes, size_t alignment = kCacheLineBytes);

/// The x86-64 huge page size: a hardware constant, not a tunable.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// Allocates a large, long-lived array of `bytes` bytes. From
/// kHugePageBytes up, the memory is huge-page aligned, rounded up to whole
/// huge pages and advised for transparent huge pages (Linux only), so a
/// randomly probed array misses the TLB far less; smaller arrays are
/// cache-line aligned. Returns nullptr on failure. Free with AlignedFree.
void* HugePageAlloc(size_t bytes);

/// Frees memory obtained from AlignedAlloc or HugePageAlloc.
void AlignedFree(void* ptr);

/// Deleter for std::unique_ptr over AlignedAlloc memory.
struct AlignedDeleter {
  void operator()(void* p) const { AlignedFree(p); }
};

/// Owning pointer to cache-line-aligned raw memory.
using AlignedBuffer = std::unique_ptr<uint8_t[], AlignedDeleter>;

/// Allocates an owning, cache-line-aligned buffer of `bytes` bytes.
AlignedBuffer MakeAlignedBuffer(size_t bytes,
                                size_t alignment = kCacheLineBytes);

}  // namespace hwstar::mem

#endif  // HWSTAR_MEM_ALIGNED_H_
