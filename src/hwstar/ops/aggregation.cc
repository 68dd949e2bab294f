#include "hwstar/ops/aggregation.h"

#include <algorithm>
#include <limits>
#include <mutex>

#include "hwstar/common/bits.h"
#include "hwstar/common/hash.h"
#include "hwstar/common/macros.h"
#include "hwstar/simd/kernels.h"

namespace hwstar::ops {

namespace {

/// Open-addressing SUM/COUNT table used per partition (or globally when
/// partitioning is off).
class AggTable {
 public:
  explicit AggTable(uint64_t expected) {
    uint64_t cap = bits::NextPowerOfTwo(expected * 2 < 16 ? 16 : expected * 2);
    keys_.assign(cap, kEmpty);
    sums_.assign(cap, 0);
    counts_.assign(cap, 0);
    mask_ = cap - 1;
    shift_ = 64 - bits::Log2Floor(cap);
  }

  void Update(uint64_t key, int64_t value) {
    HWSTAR_DCHECK(key != kEmpty);
    uint64_t slot = HomeSlot(key);
    for (;;) {
      if (keys_[slot] == key) {
        sums_[slot] += value;
        ++counts_[slot];
        return;
      }
      if (keys_[slot] == kEmpty) break;
      slot = (slot + 1) & mask_;
    }
    // New group: grow first if needed (slots move), then insert.
    if ((size_ + 1) * 2 > capacity()) Grow();
    InsertFresh(key, value);
  }

  void Drain(std::vector<GroupSum>* out) const {
    for (uint64_t i = 0; i <= mask_; ++i) {
      if (keys_[i] != kEmpty) {
        out->push_back(GroupSum{keys_[i], sums_[i], counts_[i]});
      }
    }
  }

  uint64_t capacity() const { return mask_ + 1; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// High hash bits: independent of the low bits used by the radix
  /// partitioning above (see LinearProbeTable::HomeSlot).
  uint64_t HomeSlot(uint64_t key) const { return Mix64(key) >> shift_; }

  void InsertFresh(uint64_t key, int64_t value) {
    uint64_t slot = HomeSlot(key);
    while (keys_[slot] != kEmpty) slot = (slot + 1) & mask_;
    keys_[slot] = key;
    sums_[slot] = value;
    counts_[slot] = 1;
    ++size_;
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<int64_t> old_sums = std::move(sums_);
    std::vector<uint64_t> old_counts = std::move(counts_);
    uint64_t cap = (mask_ + 1) * 2;
    keys_.assign(cap, kEmpty);
    sums_.assign(cap, 0);
    counts_.assign(cap, 0);
    mask_ = cap - 1;
    shift_ = 64 - bits::Log2Floor(cap);
    size_ = 0;
    for (uint64_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      uint64_t slot = HomeSlot(old_keys[i]);
      while (keys_[slot] != kEmpty) slot = (slot + 1) & mask_;
      keys_[slot] = old_keys[i];
      sums_[slot] = old_sums[i];
      counts_[slot] = old_counts[i];
      ++size_;
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<int64_t> sums_;
  std::vector<uint64_t> counts_;
  uint64_t mask_;
  uint32_t shift_;
  uint64_t size_ = 0;
};

void AggregateRange(std::span<const uint64_t> keys,
                    std::span<const int64_t> values, uint64_t begin,
                    uint64_t end, AggTable* table) {
  for (uint64_t i = begin; i < end; ++i) {
    table->Update(keys[i], values[i]);
  }
}

}  // namespace

std::vector<GroupSum> HashAggregate(std::span<const uint64_t> keys,
                                    std::span<const int64_t> values,
                                    const HashAggregateOptions& options) {
  HWSTAR_CHECK(keys.size() == values.size());
  std::vector<GroupSum> result;
  const uint64_t n = keys.size();
  if (n == 0) return result;

  if (options.radix_bits == 0) {
    AggTable table(1024);
    AggregateRange(keys, values, 0, n, &table);
    table.Drain(&result);
  } else {
    const uint64_t fanout = uint64_t{1} << options.radix_bits;
    // Partition the input (histogram + scatter of key/value pairs).
    std::vector<uint64_t> hist(fanout + 1, 0);
    auto part_of = [&](uint64_t key) {
      return bits::ExtractBits(Mix64(key), 0, options.radix_bits);
    };
    for (uint64_t i = 0; i < n; ++i) ++hist[part_of(keys[i]) + 1];
    for (uint64_t p = 1; p <= fanout; ++p) hist[p] += hist[p - 1];
    std::vector<uint64_t> pkeys(n);
    std::vector<int64_t> pvalues(n);
    {
      std::vector<uint64_t> cursor(hist.begin(), hist.end() - 1);
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t dst = cursor[part_of(keys[i])]++;
        pkeys[dst] = keys[i];
        pvalues[dst] = values[i];
      }
    }
    // Aggregate each partition with a small table.
    std::mutex result_mutex;
    auto do_partition = [&](uint64_t p) {
      const uint64_t begin = hist[p], end = hist[p + 1];
      if (begin == end) return;
      AggTable table((end - begin) / 2 + 8);
      AggregateRange(pkeys, pvalues, begin, end, &table);
      std::vector<GroupSum> local;
      table.Drain(&local);
      std::lock_guard<std::mutex> lock(result_mutex);
      result.insert(result.end(), local.begin(), local.end());
    };
    if (options.pool == nullptr) {
      for (uint64_t p = 0; p < fanout; ++p) do_partition(p);
    } else {
      for (uint64_t p = 0; p < fanout; ++p) {
        options.pool->Submit([&, p](uint32_t) { do_partition(p); });
      }
      options.pool->WaitIdle();
    }
  }

  std::sort(result.begin(), result.end(),
            [](const GroupSum& a, const GroupSum& b) { return a.key < b.key; });
  return result;
}

int64_t Sum(std::span<const int64_t> values) {
  return simd::Sum(simd::ActiveBackend(), values.data(), values.size());
}

int64_t Min(std::span<const int64_t> values) {
  if (values.empty()) return std::numeric_limits<int64_t>::max();
  return simd::Min(simd::ActiveBackend(), values.data(), values.size());
}

int64_t Max(std::span<const int64_t> values) {
  if (values.empty()) return std::numeric_limits<int64_t>::min();
  return simd::Max(simd::ActiveBackend(), values.data(), values.size());
}

}  // namespace hwstar::ops
