#include "hwstar/obs/histogram.h"

#include <bit>
#include <cmath>
#include <thread>

#include "hwstar/common/bits.h"
#include "hwstar/common/macros.h"

namespace hwstar::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

uint32_t ThreadShardIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1, kRelaxed);
  return index;
}

size_t NearestRankIndex(double q, size_t n) {
  HWSTAR_CHECK(n > 0);
  if (q <= 0.0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  if (rank >= static_cast<double>(n)) return n - 1;
  return static_cast<size_t>(rank) - 1;
}

uint32_t BucketLayout::BucketIndex(uint64_t value) const {
  const uint32_t sub_buckets = uint32_t{1} << sub_bucket_bits;
  if (value < sub_buckets) return static_cast<uint32_t>(value);
  const uint64_t clamp = (uint64_t{1} << max_value_bits) - 1;
  if (value > clamp) value = clamp;
  const uint32_t exp = 63 - static_cast<uint32_t>(std::countl_zero(value));
  const uint32_t sub = static_cast<uint32_t>(value >> (exp - sub_bucket_bits)) &
                       (sub_buckets - 1);
  return ((exp - sub_bucket_bits + 1) << sub_bucket_bits) + sub;
}

uint64_t BucketLayout::BucketLowerBound(uint32_t index) const {
  const uint32_t sub_buckets = uint32_t{1} << sub_bucket_bits;
  if (index < sub_buckets) return index;
  const uint32_t group = index >> sub_bucket_bits;
  const uint32_t sub = index & (sub_buckets - 1);
  const uint32_t exp = group + sub_bucket_bits - 1;
  const uint64_t width = uint64_t{1} << (exp - sub_bucket_bits);
  return (uint64_t{1} << exp) + sub * width;
}

uint64_t BucketLayout::BucketWidth(uint32_t index) const {
  const uint32_t sub_buckets = uint32_t{1} << sub_bucket_bits;
  if (index < sub_buckets) return 1;
  const uint32_t exp = (index >> sub_bucket_bits) + sub_bucket_bits - 1;
  return uint64_t{1} << (exp - sub_bucket_bits);
}

uint64_t BucketLayout::BucketValue(uint32_t index) const {
  const uint64_t width = BucketWidth(index);
  return BucketLowerBound(index) + (width - 1) / 2;
}

HistogramSnapshot::HistogramSnapshot(BucketLayout layout,
                                     std::vector<uint64_t> buckets,
                                     uint64_t sum, uint64_t max)
    : layout_(layout), buckets_(std::move(buckets)), sum_(sum), max_(max) {
  HWSTAR_CHECK(buckets_.size() == layout_.num_buckets());
  for (uint64_t c : buckets_) count_ += c;
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count_ == 0) return 0;
  const size_t rank = NearestRankIndex(q, count_);
  uint64_t cumulative = 0;
  for (uint32_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative > rank) {
      // The exact maximum is tracked; never report a midpoint above it
      // (matters for the top bucket and for q = 1.0).
      const uint64_t v = layout_.BucketValue(i);
      return v > max_ ? max_ : v;
    }
  }
  return max_;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) {
    *this = other;
    return;
  }
  HWSTAR_CHECK(layout_ == other.layout_);
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

Histogram::Histogram(HistogramOptions options) : options_(options) {
  HWSTAR_CHECK(options_.layout.sub_bucket_bits >= 1 &&
               options_.layout.sub_bucket_bits < 16);
  HWSTAR_CHECK(options_.layout.max_value_bits > options_.layout.sub_bucket_bits &&
               options_.layout.max_value_bits <= 63);
  uint32_t shards = options_.shards;
  if (shards == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    shards = hc == 0 ? 1 : (hc > 16 ? 16 : static_cast<uint32_t>(hc));
  }
  shards = static_cast<uint32_t>(bits::NextPowerOfTwo(shards));
  shard_mask_ = shards - 1;
  shards_ = std::make_unique<Shard[]>(shards);
}

Histogram::~Histogram() {
  for (uint32_t s = 0; s <= shard_mask_; ++s) {
    delete[] shards_[s].buckets.load(std::memory_order_acquire);
  }
}

std::atomic<uint64_t>* Histogram::TouchShard(Shard* shard) {
  const uint32_t n = options_.layout.num_buckets();
  // Value-initialized: every counter starts at 0. Publication is
  // release/acquire on the pointer, so racing recorders either install
  // theirs or adopt the winner's fully-zeroed array.
  auto* fresh = new std::atomic<uint64_t>[n]();
  std::atomic<uint64_t>* expected = nullptr;
  if (shard->buckets.compare_exchange_strong(expected, fresh,
                                             std::memory_order_release,
                                             std::memory_order_acquire)) {
    return fresh;
  }
  delete[] fresh;
  return expected;
}

void Histogram::Record(uint64_t value) {
  Shard& shard = shards_[ThreadShardIndex() & shard_mask_];
  std::atomic<uint64_t>* buckets =
      shard.buckets.load(std::memory_order_acquire);
  if (HWSTAR_UNLIKELY(buckets == nullptr)) buckets = TouchShard(&shard);
  buckets[options_.layout.BucketIndex(value)].fetch_add(1, kRelaxed);
  shard.count.fetch_add(1, kRelaxed);
  shard.sum.fetch_add(value, kRelaxed);
  uint64_t seen = shard.max.load(kRelaxed);
  while (value > seen &&
         !shard.max.compare_exchange_weak(seen, value, kRelaxed, kRelaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  const uint32_t n = options_.layout.num_buckets();
  std::vector<uint64_t> merged(n, 0);
  uint64_t sum = 0;
  uint64_t max = 0;
  for (uint32_t s = 0; s <= shard_mask_; ++s) {
    const Shard& shard = shards_[s];
    const std::atomic<uint64_t>* buckets =
        shard.buckets.load(std::memory_order_acquire);
    if (buckets == nullptr) continue;
    for (uint32_t i = 0; i < n; ++i) merged[i] += buckets[i].load(kRelaxed);
    sum += shard.sum.load(kRelaxed);
    const uint64_t m = shard.max.load(kRelaxed);
    if (m > max) max = m;
  }
  return HistogramSnapshot(options_.layout, std::move(merged), sum, max);
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (uint32_t s = 0; s <= shard_mask_; ++s) {
    total += shards_[s].count.load(kRelaxed);
  }
  return total;
}

size_t Histogram::allocated_bytes() const {
  size_t bytes = (shard_mask_ + 1) * sizeof(Shard);
  for (uint32_t s = 0; s <= shard_mask_; ++s) {
    if (shards_[s].buckets.load(std::memory_order_acquire) != nullptr) {
      bytes += options_.layout.num_buckets() * sizeof(std::atomic<uint64_t>);
    }
  }
  return bytes;
}

}  // namespace hwstar::obs
