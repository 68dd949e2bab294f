#ifndef HWSTAR_STREAM_WINDOW_H_
#define HWSTAR_STREAM_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hwstar/mem/aligned.h"
#include "hwstar/stream/stream_batch.h"

namespace hwstar::stream {

/// An event-time window shape: tumbling when slide == size (or 0), sliding
/// when slide < size. Window instances start at multiples of the slide and
/// span [start, start + size).
struct WindowSpec {
  uint64_t size = 0;
  uint64_t slide = 0;  ///< 0 = tumbling (slide == size)

  static WindowSpec Tumbling(uint64_t size) { return {size, size}; }
  static WindowSpec Sliding(uint64_t size, uint64_t slide) {
    return {size, slide};
  }

  uint64_t effective_slide() const { return slide == 0 ? size : slide; }
  bool tumbling() const { return effective_slide() == size; }

  /// The lowest window start covering `ts`; iterate starts upward by
  /// effective_slide() while start <= ts to visit every covering window.
  uint64_t FirstStart(uint64_t ts) const {
    if (ts < size) return 0;
    const uint64_t s = effective_slide();
    return ((ts - size) / s + 1) * s;
  }
};

/// One closed window's aggregate for one key.
struct WindowResult {
  uint64_t window_start = 0;
  uint64_t window_end = 0;  ///< exclusive: window_start + size
  uint64_t key = 0;
  int64_t sum = 0;
  uint64_t count = 0;

  bool operator==(const WindowResult&) const = default;
};

/// Windowed sum/count aggregation over partitioned per-worker state, with
/// watermark-driven emission. Each pipeline partition owns a disjoint key
/// range (the pipeline partitions by key hash), so a (window, key) pair
/// lives in exactly one partition's state and closing a window never
/// merges across cores — the state-sharding design of the
/// hardware-conscious streaming literature, here also the reason the
/// per-partition state needs no lock. Partition states are cache-line
/// aligned so two workers updating neighboring partitions don't share a
/// line.
///
/// State layout: each open window's keyed partials live in one flat
/// open-addressing table (see WindowTable), and a closed window's table is
/// cleared and kept on its partition's spare list for the next window, so
/// once the tables have grown to the stream's keys per window, folding a
/// row allocates nothing.
///
/// Semantics:
///  - A record is late iff its event time is below the partition's
///    current watermark (the watermark of the previously processed batch;
///    records never compete with the watermark their own batch advances).
///    Late records are counted and dropped.
///  - After a batch's records are folded in, the batch watermark closes
///    every window whose end <= watermark: its per-key aggregates are
///    appended to `out` in ascending (window_start, key) order and the
///    window's table is recycled. Windows that saw no records emit
///    nothing — there is no zero-filled emission.
///  - StreamBatch::kFlushWatermark closes all remaining windows (end of a
///    finite stream).
class WindowAggregator {
 public:
  /// Slots of a window table before its first growth.
  static constexpr size_t kInitialTableSlots = 64;

  explicit WindowAggregator(WindowSpec spec);

  /// Sizes per-partition state; called by Pipeline::Build.
  void Bind(uint32_t partitions);

  /// Folds one partition sub-batch into the window state, then emits the
  /// windows its watermark closed. `out` is appended to; `late_dropped`
  /// (optional) receives the number of dropped late records.
  void OnBatch(uint32_t partition, const StreamBatch& batch,
               std::vector<WindowResult>* out, uint64_t* late_dropped);

  /// Open (not yet closed) windows in one partition's state.
  size_t OpenWindows(uint32_t partition) const;

  const WindowSpec& spec() const { return spec_; }

 private:
  /// One key's partial aggregate; count == 0 marks an empty slot, so every
  /// key value (0 and ~0 included) is a legal key.
  struct Slot {
    uint64_t key = 0;
    int64_t sum = 0;
    uint64_t count = 0;
  };

  /// One window's keyed partials: linear probing over a power-of-two slot
  /// array, home slot from the high bits of Mix64, doubling at half load.
  class WindowTable {
   public:
    WindowTable() : slots_(kInitialTableSlots) {}

    void Add(uint64_t key, int64_t value);
    /// Appends the occupied slots to `out` and leaves the table empty
    /// (capacity kept).
    void Drain(std::vector<Slot>* out);

   private:
    Slot* Find(uint64_t key);
    void Grow();

    std::vector<Slot> slots_;
    size_t size_ = 0;
  };

  struct OpenWindow {
    uint64_t start;
    WindowTable table;
  };

  /// Open windows ascending by start, so emission takes closed windows
  /// off the front; `last` caches the index the previous row resolved to
  /// (rows arrive nearly in event-time order, so it is usually right).
  /// Cache-line aligned: partition states are read-write hot from
  /// different workers.
  struct alignas(mem::kCacheLineBytes) PartitionState {
    std::vector<OpenWindow> open;
    std::vector<WindowTable> spare;  ///< cleared tables of closed windows
    std::vector<Slot> drained;       ///< emission scratch
    std::vector<Slot> sort_scratch;  ///< RadixSortBy's buffer for drained
    size_t last = 0;
    uint64_t watermark = 0;
  };

  /// Index of the open window starting at `start`, trying `hint` first
  /// and opening the window (on a spare table) when absent.
  static size_t WindowAt(PartitionState& st, size_t hint, uint64_t start);

  WindowSpec spec_;
  std::vector<PartitionState> states_;
};

}  // namespace hwstar::stream

#endif  // HWSTAR_STREAM_WINDOW_H_
