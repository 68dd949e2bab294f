#ifndef HWSTAR_STREAM_PIPELINE_H_
#define HWSTAR_STREAM_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hwstar/exec/executor.h"
#include "hwstar/mem/aligned.h"
#include "hwstar/obs/histogram.h"
#include "hwstar/obs/metric.h"
#include "hwstar/obs/registry.h"
#include "hwstar/stream/operator.h"
#include "hwstar/stream/source.h"
#include "hwstar/stream/stream_batch.h"
#include "hwstar/stream/window.h"

namespace hwstar::stream {

/// What the pump does when a partition's queue is full — the streaming
/// face of the svc step-down overload shape: bound the in-flight work,
/// then degrade deliberately instead of collapsing.
enum class BackpressurePolicy : uint8_t {
  /// Block the pump until the partition drains (lossless; source-paced
  /// pipelines and the bit-identity tests).
  kBlock = 0,
  /// Shed the *oldest* queued batch (its windows are the ones the
  /// watermark will close first, so freshest-data-wins) and count it in
  /// the shed counter. Open-loop ingest keeps running at degraded
  /// completeness instead of stalling the source.
  kDropOldest = 1,
};

/// Receives pipeline output. Called concurrently from different Executor
/// workers (one partition at a time per partition, but partitions in
/// parallel), so implementations synchronize their own state.
class Sink {
 public:
  virtual ~Sink() = default;

  /// Transformed rows reaching the end of a pipeline that has no window
  /// stage.
  virtual void OnBatch(uint32_t partition, const StreamBatch& batch) {
    (void)partition;
    (void)batch;
  }

  /// Aggregates of windows the watermark just closed, in ascending
  /// (window_start, key) order per call.
  virtual void OnWindows(uint32_t partition,
                         const std::vector<WindowResult>& results) {
    (void)partition;
    (void)results;
  }
};

struct PipelineOptions {
  /// Key-hash partitions (0 = executor worker count). Each partition's
  /// state is single-writer; more partitions = more parallelism and
  /// smaller per-partition state.
  uint32_t partitions = 0;
  /// Rows pulled from the source per micro-batch. 0 = the
  /// tune::StreamBatchRows knob, re-read every pump round so online
  /// re-tuning reaches a running pipeline; nonzero pins the size.
  uint32_t batch_rows = 0;
  /// Max queued micro-batches per partition
  /// (0 = the tune::StreamMaxInflight knob).
  uint32_t max_inflight = 0;
  /// Watermark lateness bound in event-time units
  /// (kUseDefault = the tune::StreamLatenessBound knob).
  static constexpr uint64_t kUseDefault = ~uint64_t{0};
  uint64_t lateness_bound = kUseDefault;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Emit a flush watermark when the source ends, closing every open
  /// window (finite streams; switch off to leave tails open).
  bool flush_on_end = true;
  /// Metric name prefix: metrics register as "stream.<name>.*".
  std::string name = "pipeline";
};

/// A continuous query: source -> transforms -> (window aggregation ->)
/// sink, executed batch-at-a-time as morsel-like tasks on the shared
/// work-stealing Executor — no threads of its own.
///
/// Execution model: Run() pumps micro-batches from the source on the
/// calling thread, stamps each with a bounded-out-of-orderness watermark,
/// splits it by key hash into per-partition sub-batches, and enqueues
/// them on per-partition bounded FIFO queues. Each partition drains on
/// the Executor (one task at a time per partition, submitted with that
/// partition's preferred worker, so state stays cache- and NUMA-local),
/// applying the transform chain and the window stage in arrival order.
/// Sub-batch FIFO per partition is what makes the single source-side
/// watermark sound for every partition.
///
/// Backpressure: the queue bound is the in-flight budget; kBlock paces
/// the pump, kDropOldest sheds with a counter (see BackpressurePolicy).
///
/// Stop() (any thread) halts pumping and discards still-queued work;
/// Run() returns after in-flight tasks finish. Obs metrics (batches,
/// records, late drops, sheds, windows, emission latency) register into
/// any Registry via RegisterMetrics.
class Pipeline {
 public:
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Pumps the source to exhaustion (or Stop()), then waits until every
  /// accepted sub-batch has been processed. Call at most once.
  void Run();

  /// Requests an early halt; safe from any thread, returns without
  /// waiting (Run() does the waiting). Queued-but-unprocessed sub-batches
  /// are discarded, in-flight ones finish.
  void Stop();

  /// Registers this pipeline's metrics (borrowed) as
  /// "stream.<name>.batches|records|late_dropped|batches_shed|
  /// windows_emitted|emit_latency_ns".
  void RegisterMetrics(obs::Registry* registry) const;

  uint64_t batches_processed() const { return batches_.value(); }
  uint64_t records_processed() const { return records_.value(); }
  uint64_t late_dropped() const { return late_dropped_.value(); }
  uint64_t batches_shed() const { return batches_shed_.value(); }
  uint64_t windows_emitted() const { return windows_emitted_.value(); }
  const obs::Histogram& emit_latency_histogram() const {
    return emit_latency_ns_;
  }

  uint32_t partitions() const {
    return static_cast<uint32_t>(parts_.size());
  }
  const std::string& name() const { return name_; }

 private:
  friend class PipelineBuilder;
  Pipeline() = default;

  /// One partition's bounded FIFO plus its is-a-drain-task-scheduled
  /// flag; padded so neighboring partitions' locks and queue heads never
  /// share a line.
  struct alignas(mem::kCacheLineBytes) Partition {
    std::mutex mutex;
    std::condition_variable space_cv;  ///< pump blocks here (kBlock)
    std::deque<StreamBatch> queue;
    bool scheduled = false;
    /// Watermark last enqueued, so watermark-only (empty) sub-batches are
    /// sent exactly when a partition would otherwise miss an advance.
    uint64_t last_watermark = 0;
  };

  void Dispatch(StreamBatch&& batch);
  void Enqueue(uint32_t p, StreamBatch&& sub);
  void SubmitDrain(uint32_t p);
  void DrainPartition(uint32_t p);
  void ProcessSubBatch(uint32_t p, StreamBatch&& sub);
  void FinishOne();
  void WaitDrained();

  exec::Executor* executor_ = nullptr;
  Source* source_ = nullptr;
  std::vector<Transform*> transforms_;
  WindowAggregator* window_agg_ = nullptr;
  Sink* sink_ = nullptr;

  std::string name_;
  /// 0 = defaulted: Run() re-reads tune::StreamBatchRows each pump round;
  /// nonzero = frozen by options.
  uint32_t batch_rows_ = 0;
  uint32_t max_inflight_ = 0;
  uint64_t lateness_bound_ = 0;
  BackpressurePolicy backpressure_ = BackpressurePolicy::kBlock;
  bool flush_on_end_ = true;

  std::vector<std::unique_ptr<Partition>> parts_;
  /// Per-partition pump-side scratch for splitting a batch by key hash.
  std::vector<StreamBatch> split_scratch_;
  /// Per-partition scratch for window emission (single-writer).
  std::vector<std::vector<WindowResult>> window_scratch_;

  std::atomic<bool> stopped_{false};
  /// Accepted sub-batches not yet processed or shed; the drain barrier.
  std::atomic<uint64_t> outstanding_{0};
  /// Drain tasks submitted and not yet returned; Run() and the
  /// destructor wait for both counts to reach zero before the pipeline's
  /// memory may go away.
  std::atomic<uint64_t> active_tasks_{0};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool ran_ = false;

  obs::Counter batches_;          ///< sub-batches through the operators
  obs::Counter records_;          ///< rows into the terminal stage
  obs::Counter late_dropped_;     ///< records behind the watermark
  obs::Counter batches_shed_;     ///< sub-batches dropped under pressure
  obs::Counter windows_emitted_;  ///< (window, key) results emitted
  obs::Histogram emit_latency_ns_;  ///< ingest -> window emission
};

/// Wires source -> transforms -> (window aggregation ->) sink into a
/// Pipeline and binds every stage to the partition count. The builder
/// borrows all stage objects; they must outlive the pipeline.
class PipelineBuilder {
 public:
  explicit PipelineBuilder(exec::Executor* executor);

  PipelineBuilder& From(Source* source);
  /// Appends a transform stage (order of calls = order in the chain).
  PipelineBuilder& Via(Transform* transform);
  /// Sets the terminal window-aggregation stage.
  PipelineBuilder& Aggregate(WindowAggregator* aggregator);
  PipelineBuilder& To(Sink* sink);
  PipelineBuilder& With(const PipelineOptions& options);

  /// Resolves 0/default option fields against the hw knobs, binds every
  /// stage's per-partition state, and returns the runnable pipeline.
  std::unique_ptr<Pipeline> Build();

 private:
  exec::Executor* executor_;
  Source* source_ = nullptr;
  std::vector<Transform*> transforms_;
  WindowAggregator* window_agg_ = nullptr;
  Sink* sink_ = nullptr;
  PipelineOptions options_;
};

}  // namespace hwstar::stream

#endif  // HWSTAR_STREAM_PIPELINE_H_
