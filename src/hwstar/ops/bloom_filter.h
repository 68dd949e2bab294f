#ifndef HWSTAR_OPS_BLOOM_FILTER_H_
#define HWSTAR_OPS_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hwstar::ops {

/// Standard Bloom filter: k hash functions spread over the whole bit
/// array. Each negative query touches up to k random cache lines -- the
/// hardware-oblivious layout.
class BloomFilter {
 public:
  /// Sizes the array for `expected` keys at `bits_per_key` (k is derived
  /// as round(0.693 * bits_per_key), the optimum).
  BloomFilter(uint64_t expected, uint32_t bits_per_key = 10);

  void Add(uint64_t key);
  bool MayContain(uint64_t key) const;

  /// Batched query with group prefetching: hashes `group_size` keys (0 =
  /// the tune::ProbeGroupSize knob), prefetches each key's first probe word,
  /// then tests the group. out[i] is bit-identical to MayContain(keys[i]).
  /// Later probe words of a k-probe query still miss serially -- the
  /// scattered layout is exactly why the blocked variant below exists.
  void MayContainBatch(const uint64_t* keys, size_t n, bool* out,
                       uint32_t group_size = 0) const;

  uint64_t bit_count() const { return bit_count_; }
  uint32_t num_hashes() const { return num_hashes_; }
  uint64_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Measured false-positive probability over a sample of keys known to
  /// be absent.
  double MeasureFpp(const std::vector<uint64_t>& absent_sample) const;

 private:
  uint64_t bit_count_;
  uint32_t num_hashes_;
  std::vector<uint64_t> words_;
};

/// Cache-blocked ("register-blocked") Bloom filter: the first hash picks
/// one 512-bit block (a single cache line); all k probe bits live inside
/// that block. Every query -- positive or negative -- costs exactly one
/// cache miss, at a small false-positive-rate penalty. The
/// hardware-conscious variant (Putze et al.), benchmarked in A4.
class BlockedBloomFilter {
 public:
  BlockedBloomFilter(uint64_t expected, uint32_t bits_per_key = 10);

  void Add(uint64_t key);

  /// One 512-bit vector compare against the key's block: the k probe bits
  /// are expanded into a cache-line-wide mask and tested at once on the
  /// active hwstar::simd backend, instead of k dependent bit-test
  /// iterations.
  bool MayContain(uint64_t key) const;

  /// Batched query with group prefetching. Because every query touches
  /// exactly one cache line, one prefetch per key covers the whole query:
  /// the group runs at full memory-level parallelism, which makes this
  /// the strongest batch win of the filter pair. The hash phase runs
  /// data-parallel (simd::Mix64Batch) and each test is one 512-bit vector
  /// compare, so SIMD composes multiplicatively with the prefetch win.
  /// out[i] is bit-identical to MayContain(keys[i]).
  void MayContainBatch(const uint64_t* keys, size_t n, bool* out,
                       uint32_t group_size = 0) const;

  uint64_t num_blocks() const { return num_blocks_; }
  uint32_t num_hashes() const { return num_hashes_; }
  uint64_t MemoryBytes() const { return num_blocks_ * kBlockBytes; }

  double MeasureFpp(const std::vector<uint64_t>& absent_sample) const;

  static constexpr uint32_t kBlockBytes = 64;
  static constexpr uint32_t kBlockBits = kBlockBytes * 8;

 private:
  uint64_t num_blocks_;
  uint32_t num_hashes_;
  std::vector<uint64_t> words_;  // num_blocks_ * 8 words
};

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_BLOOM_FILTER_H_
