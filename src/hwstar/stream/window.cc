#include "hwstar/stream/window.h"

#include <algorithm>
#include <utility>

#include "hwstar/common/bits.h"
#include "hwstar/common/hash.h"
#include "hwstar/common/macros.h"
#include "hwstar/ops/sort.h"

namespace hwstar::stream {

WindowAggregator::WindowAggregator(WindowSpec spec) : spec_(spec) {
  HWSTAR_CHECK(spec.size > 0);
  HWSTAR_CHECK(spec.effective_slide() > 0);
  HWSTAR_CHECK(spec.effective_slide() <= spec.size);
}

void WindowAggregator::Bind(uint32_t partitions) {
  HWSTAR_CHECK(partitions > 0);
  states_ = std::vector<PartitionState>(partitions);
}

size_t WindowAggregator::OpenWindows(uint32_t partition) const {
  return states_[partition].open.size();
}

WindowAggregator::Slot* WindowAggregator::WindowTable::Find(uint64_t key) {
  const size_t mask = slots_.size() - 1;
  const uint32_t shift = 64 - bits::Log2Floor(slots_.size());
  for (size_t i = Mix64(key) >> shift;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.count == 0 || s.key == key) return &s;
  }
}

void WindowAggregator::WindowTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.count != 0) *Find(s.key) = s;
  }
}

void WindowAggregator::WindowTable::Add(uint64_t key, int64_t value) {
  Slot* s = Find(key);
  if (s->count == 0) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
      s = Find(key);
    }
    s->key = key;
    ++size_;
  }
  s->sum += value;
  s->count += 1;
}

void WindowAggregator::WindowTable::Drain(std::vector<Slot>* out) {
  for (Slot& s : slots_) {
    if (s.count == 0) continue;
    out->push_back(s);
    s = Slot{};
  }
  size_ = 0;
}

size_t WindowAggregator::WindowAt(PartitionState& st, size_t hint,
                                  uint64_t start) {
  std::vector<OpenWindow>& open = st.open;
  if (hint < open.size() && open[hint].start == start) return hint;
  const auto it = std::lower_bound(
      open.begin(), open.end(), start,
      [](const OpenWindow& w, uint64_t s) { return w.start < s; });
  const size_t idx = static_cast<size_t>(it - open.begin());
  if (it != open.end() && it->start == start) return idx;
  if (st.spare.empty()) {
    open.insert(it, OpenWindow{start, WindowTable()});
  } else {
    open.insert(it, OpenWindow{start, std::move(st.spare.back())});
    st.spare.pop_back();
  }
  return idx;
}

void WindowAggregator::OnBatch(uint32_t partition, const StreamBatch& batch,
                               std::vector<WindowResult>* out,
                               uint64_t* late_dropped) {
  HWSTAR_CHECK(partition < states_.size());
  PartitionState& st = states_[partition];
  const uint64_t slide = spec_.effective_slide();

  uint64_t late = 0;
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t ts = batch.event_ts[i];
    // Late = behind the watermark established by *earlier* batches; the
    // watermark this batch carries only takes effect below.
    if (st.watermark > 0 && ts < st.watermark) {
      ++late;
      continue;
    }
    // The covering windows' starts are consecutive multiples of the
    // slide, so after the first they sit at consecutive indices.
    const uint64_t first = spec_.FirstStart(ts);
    st.last = WindowAt(st, st.last, first);
    size_t idx = st.last;
    for (uint64_t start = first;;) {
      st.open[idx].table.Add(batch.keys[i], batch.values[i]);
      start += slide;
      if (start > ts) break;
      idx = WindowAt(st, idx + 1, start);
    }
  }
  if (late_dropped != nullptr) *late_dropped = late;

  if (batch.watermark > st.watermark) st.watermark = batch.watermark;

  // Emit every window the watermark closed, ascending by start; keys are
  // radix-sorted so emission order is deterministic (the bit-identity
  // tests compare against an offline computation directly).
  const bool flush = st.watermark == StreamBatch::kFlushWatermark;
  size_t closed = 0;
  for (; closed < st.open.size(); ++closed) {
    OpenWindow& w = st.open[closed];
    const uint64_t end = w.start + spec_.size;
    if (!flush && (st.watermark == 0 || end > st.watermark)) break;
    st.drained.clear();
    w.table.Drain(&st.drained);
    ops::RadixSortBy(&st.drained, &st.sort_scratch,
                     [](const Slot& s) { return s.key; });
    for (const Slot& s : st.drained) {
      out->push_back({w.start, end, s.key, s.sum, s.count});
    }
    st.spare.push_back(std::move(w.table));
  }
  st.open.erase(st.open.begin(),
                st.open.begin() + static_cast<std::ptrdiff_t>(closed));
}

}  // namespace hwstar::stream
