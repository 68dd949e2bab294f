#include "hwstar/stream/pipeline.h"

#include <utility>

#include "hwstar/common/hash.h"
#include "hwstar/common/macros.h"
#include "hwstar/common/timer.h"
#include "hwstar/stream/watermark.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::stream {

Pipeline::~Pipeline() {
  Stop();
  // Run() normally does this wait; repeating it here covers a pipeline
  // destroyed while another thread's Run() is past its own wait, and a
  // pipeline never run (both counters already zero).
  WaitDrained();
}

void Pipeline::Stop() {
  stopped_.store(true, std::memory_order_release);
  for (auto& part : parts_) {
    // Taking the lock orders the notify after any in-progress wait
    // registration, so a pump blocked on space_cv re-checks stopped_.
    std::lock_guard<std::mutex> lk(part->mutex);
    part->space_cv.notify_all();
  }
}

void Pipeline::Run() {
  HWSTAR_CHECK(!ran_);
  ran_ = true;
  WatermarkTracker tracker(lateness_bound_);
  StreamBatch batch;
  while (!stopped_.load(std::memory_order_acquire)) {
    batch.Clear();
    batch.watermark = 0;
    // A pipeline built with the default batch size re-reads the
    // tune::StreamBatchRows knob every pump round, so a knob Set (a
    // Calibrator install, a config hook) changes the micro-batch size of
    // a *running* pipeline.
    const uint32_t rows =
        batch_rows_ != 0
            ? batch_rows_
            : static_cast<uint32_t>(tune::StreamBatchRows().Get());
    if (!source_->NextBatch(rows, &batch)) break;
    for (const uint64_t ts : batch.event_ts) tracker.Observe(ts);
    batch.watermark = tracker.watermark();
    batch.ingest_ns = NowNanos();
    Dispatch(std::move(batch));
  }
  if (!stopped_.load(std::memory_order_acquire) && flush_on_end_) {
    StreamBatch flush;
    flush.watermark = StreamBatch::kFlushWatermark;
    flush.ingest_ns = NowNanos();
    Dispatch(std::move(flush));
  }
  WaitDrained();
}

void Pipeline::Dispatch(StreamBatch&& batch) {
  const uint32_t num_parts = static_cast<uint32_t>(parts_.size());
  if (num_parts == 1) {
    Enqueue(0, std::move(batch));
    return;
  }
  for (auto& sub : split_scratch_) sub.Clear();
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    // Mix64 so partition choice is independent of any key structure (and
    // of LinearProbeTable's slot placement, which uses the high bits).
    const uint32_t p =
        static_cast<uint32_t>(Mix64(batch.keys[i]) % num_parts);
    split_scratch_[p].Append(batch.keys[i], batch.values[i],
                             batch.event_ts[i]);
  }
  for (uint32_t p = 0; p < num_parts; ++p) {
    StreamBatch& sub = split_scratch_[p];
    // Empty sub-batches still carry a watermark advance: a partition
    // that stops receiving rows must still close its open windows.
    if (sub.empty() && batch.watermark <= parts_[p]->last_watermark) {
      continue;
    }
    sub.watermark = batch.watermark;
    sub.ingest_ns = batch.ingest_ns;
    Enqueue(p, std::move(sub));
    split_scratch_[p] = StreamBatch();
  }
}

void Pipeline::Enqueue(uint32_t p, StreamBatch&& sub) {
  Partition& part = *parts_[p];
  bool need_submit = false;
  {
    std::unique_lock<std::mutex> lk(part.mutex);
    if (backpressure_ == BackpressurePolicy::kBlock) {
      part.space_cv.wait(lk, [&] {
        return stopped_.load(std::memory_order_acquire) ||
               part.queue.size() < max_inflight_;
      });
      if (stopped_.load(std::memory_order_acquire)) return;
    } else if (part.queue.size() >= max_inflight_) {
      // Shed the oldest queued sub-batch: its windows close first, so
      // under pressure the pipeline keeps the freshest data.
      part.queue.pop_front();
      batches_shed_.Inc();
      FinishOne();
    }
    // Count before publishing: once the sub-batch is visible in the
    // queue a racing drain may process and FinishOne it immediately.
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    if (sub.watermark > part.last_watermark) {
      part.last_watermark = sub.watermark;
    }
    part.queue.push_back(std::move(sub));
    need_submit = !part.scheduled;
    part.scheduled = true;
  }
  if (need_submit) SubmitDrain(p);
}

void Pipeline::SubmitDrain(uint32_t p) {
  active_tasks_.fetch_add(1, std::memory_order_relaxed);
  const int preferred =
      executor_->num_threads() == 0
          ? -1
          : static_cast<int>(p % executor_->num_threads());
  const bool accepted = executor_->Submit(
      [this, p](uint32_t /*worker*/) { DrainPartition(p); }, preferred);
  if (!accepted) {
    // Executor is shutting down; drain inline on the pump thread so no
    // accepted sub-batch is stranded.
    DrainPartition(p);
  }
}

void Pipeline::DrainPartition(uint32_t p) {
  Partition& part = *parts_[p];
  for (;;) {
    StreamBatch sub;
    {
      std::lock_guard<std::mutex> lk(part.mutex);
      if (part.queue.empty()) {
        part.scheduled = false;
        break;
      }
      sub = std::move(part.queue.front());
      part.queue.pop_front();
    }
    part.space_cv.notify_one();
    if (!stopped_.load(std::memory_order_acquire)) {
      ProcessSubBatch(p, std::move(sub));
    }
    FinishOne();
  }
  // Last action touching the pipeline: once this decrement hits zero
  // (with outstanding_ also zero) the pipeline may be destroyed. It runs
  // under done_mutex_, so WaitDrained cannot see the zero and return
  // until this task has released the mutex and is done with it.
  std::lock_guard<std::mutex> lk(done_mutex_);
  if (active_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv_.notify_all();
  }
}

void Pipeline::ProcessSubBatch(uint32_t p, StreamBatch&& sub) {
  for (Transform* t : transforms_) t->Apply(p, &sub);
  if (window_agg_ != nullptr) {
    std::vector<WindowResult>& results = window_scratch_[p];
    results.clear();
    uint64_t late = 0;
    window_agg_->OnBatch(p, sub, &results, &late);
    if (late > 0) late_dropped_.Add(late);
    if (!results.empty()) {
      windows_emitted_.Add(results.size());
      // Emission latency: from ingest of the sub-batch whose watermark
      // closed the windows to the emission happening now. One sample per
      // emission event.
      emit_latency_ns_.Record(NowNanos() - sub.ingest_ns);
      if (sink_ != nullptr) sink_->OnWindows(p, results);
    }
  } else if (sink_ != nullptr && !sub.empty()) {
    sink_->OnBatch(p, sub);
  }
  batches_.Inc();
  records_.Add(sub.size());
}

void Pipeline::FinishOne() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(done_mutex_);
    done_cv_.notify_all();
  }
}

void Pipeline::WaitDrained() {
  std::unique_lock<std::mutex> lk(done_mutex_);
  done_cv_.wait(lk, [&] {
    return outstanding_.load(std::memory_order_acquire) == 0 &&
           active_tasks_.load(std::memory_order_acquire) == 0;
  });
}

void Pipeline::RegisterMetrics(obs::Registry* registry) const {
  const std::string prefix = "stream." + name_ + ".";
  registry->RegisterCounter(prefix + "batches", &batches_);
  registry->RegisterCounter(prefix + "records", &records_);
  registry->RegisterCounter(prefix + "late_dropped", &late_dropped_);
  registry->RegisterCounter(prefix + "batches_shed", &batches_shed_);
  registry->RegisterCounter(prefix + "windows_emitted", &windows_emitted_);
  registry->RegisterHistogram(prefix + "emit_latency_ns", &emit_latency_ns_);
}

PipelineBuilder::PipelineBuilder(exec::Executor* executor)
    : executor_(executor) {
  HWSTAR_CHECK(executor != nullptr);
}

PipelineBuilder& PipelineBuilder::From(Source* source) {
  source_ = source;
  return *this;
}

PipelineBuilder& PipelineBuilder::Via(Transform* transform) {
  HWSTAR_CHECK(transform != nullptr);
  transforms_.push_back(transform);
  return *this;
}

PipelineBuilder& PipelineBuilder::Aggregate(WindowAggregator* aggregator) {
  window_agg_ = aggregator;
  return *this;
}

PipelineBuilder& PipelineBuilder::To(Sink* sink) {
  sink_ = sink;
  return *this;
}

PipelineBuilder& PipelineBuilder::With(const PipelineOptions& options) {
  options_ = options;
  return *this;
}

std::unique_ptr<Pipeline> PipelineBuilder::Build() {
  HWSTAR_CHECK(source_ != nullptr);
  auto pipeline = std::unique_ptr<Pipeline>(new Pipeline());
  pipeline->executor_ = executor_;
  pipeline->source_ = source_;
  pipeline->transforms_ = transforms_;
  pipeline->window_agg_ = window_agg_;
  pipeline->sink_ = sink_;
  pipeline->name_ = options_.name;

  uint32_t partitions = options_.partitions;
  if (partitions == 0) partitions = executor_->num_threads();
  if (partitions == 0) partitions = 1;
  // batch_rows stays 0 when defaulted: Run() resolves it against the
  // tune::StreamBatchRows knob per pump round (live re-tuning); the
  // other options freeze at build time (queue bounds and watermark
  // semantics must not move under a running pipeline).
  pipeline->batch_rows_ = options_.batch_rows;
  pipeline->max_inflight_ =
      options_.max_inflight != 0
          ? options_.max_inflight
          : static_cast<uint32_t>(tune::StreamMaxInflight().Get());
  pipeline->lateness_bound_ =
      options_.lateness_bound != PipelineOptions::kUseDefault
          ? options_.lateness_bound
          : tune::StreamLatenessBound().Get();
  pipeline->backpressure_ = options_.backpressure;
  pipeline->flush_on_end_ = options_.flush_on_end;

  pipeline->parts_.reserve(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    pipeline->parts_.push_back(std::make_unique<Pipeline::Partition>());
  }
  pipeline->split_scratch_ = std::vector<StreamBatch>(partitions);
  pipeline->window_scratch_ =
      std::vector<std::vector<WindowResult>>(partitions);

  for (Transform* t : pipeline->transforms_) t->Bind(partitions);
  if (pipeline->window_agg_ != nullptr) pipeline->window_agg_->Bind(partitions);
  return pipeline;
}

}  // namespace hwstar::stream
