#include "hwstar/dur/log_writer.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "hwstar/common/macros.h"
#include "hwstar/common/timer.h"

namespace hwstar::dur {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

std::string LogWriter::SegmentName(const std::string& prefix, uint32_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "-%06u.wal", index);
  return prefix + buf;
}

bool LogWriter::ParseSegmentIndex(const std::string& path, uint32_t* index) {
  // ...<prefix>-NNNNNN.wal
  constexpr size_t kSuffix = 4;   // ".wal"
  constexpr size_t kDigits = 6;
  if (path.size() < kSuffix + kDigits + 1) return false;
  if (path.compare(path.size() - kSuffix, kSuffix, ".wal") != 0) return false;
  const size_t digits_at = path.size() - kSuffix - kDigits;
  if (path[digits_at - 1] != '-') return false;
  uint32_t v = 0;
  for (size_t i = 0; i < kDigits; ++i) {
    const char c = path[digits_at + i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  *index = v;
  return true;
}

Result<std::unique_ptr<LogWriter>> LogWriter::Open(FileBackend* backend,
                                                   std::string prefix,
                                                   LogWriterOptions options,
                                                   uint64_t next_lsn,
                                                   uint32_t next_segment) {
  HWSTAR_CHECK(options.buffer_bytes >= 4096);
  auto file = backend->OpenForAppend(SegmentName(prefix, next_segment));
  if (!file.ok()) return file.status();
  return std::unique_ptr<LogWriter>(
      new LogWriter(backend, std::move(prefix), options,
                    next_lsn == 0 ? 1 : next_lsn, next_segment,
                    std::move(file.value())));
}

LogWriter::LogWriter(FileBackend* backend, std::string prefix,
                     LogWriterOptions options, uint64_t next_lsn,
                     uint32_t next_segment,
                     std::unique_ptr<WritableFile> segment)
    : backend_(backend),
      prefix_(std::move(prefix)),
      options_(options),
      segment_(std::move(segment)),
      segment_index_(next_segment),
      next_lsn_(next_lsn),
      durable_lsn_(next_lsn - 1) {
  // 4 KiB alignment: the staging buffers are the write-path source and
  // should respect device block granularity.
  active_.data = mem::MakeAlignedBuffer(options_.buffer_bytes, 4096);
  syncing_.data = mem::MakeAlignedBuffer(options_.buffer_bytes, 4096);
  HWSTAR_CHECK(active_.data != nullptr && syncing_.data != nullptr);
  if (options_.group_commit) {
    syncer_ = std::thread([this] { SyncerLoop(); });
  }
}

LogWriter::~LogWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (syncer_.joinable()) syncer_.join();
  if (segment_ != nullptr) (void)segment_->Close();
}

Result<uint64_t> LogWriter::Append(WalRecord record) {
  thread_local std::string scratch;
  scratch.clear();

  std::unique_lock<std::mutex> lock(mutex_);
  if (!poisoned_.ok()) return poisoned_;

  const uint64_t lsn = next_lsn_.fetch_add(1, kRelaxed);
  record.lsn = lsn;
  EncodeWalRecord(record, &scratch);
  HWSTAR_CHECK(scratch.size() <= options_.buffer_bytes);

  if (!options_.group_commit) {
    // Per-op commit: this thread does its own write+sync, serialized by
    // mutex_ — the baseline that pays the device's fixed cost per record.
    const uint64_t io_start = NowNanos();
    Status st = segment_->Append(scratch.data(), scratch.size());
    if (st.ok()) st = segment_->Sync(options_.sync);
    sync_batch_.Record(1);
    sync_latency_ns_.Record(NowNanos() - io_start);
    records_.Inc();
    bytes_.Add(scratch.size());
    groups_.Inc();
    if (!st.ok()) {
      poisoned_ = st;
      return st;
    }
    durable_lsn_.store(lsn);
    return lsn;
  }

  // Group commit: stage and hand off to the syncer. Block only when both
  // buffers are full — the device is saturated and backpressure is the
  // only honest answer.
  space_cv_.wait(lock, [&] {
    return !poisoned_.ok() ||
           active_.used + scratch.size() <= options_.buffer_bytes;
  });
  if (!poisoned_.ok()) return poisoned_;

  const bool was_empty = active_.used == 0;
  const bool was_below_half = active_.used * 2 < options_.buffer_bytes;
  if (was_empty) first_pending_nanos_ = NowNanos();
  std::memcpy(active_.data.get() + active_.used, scratch.data(),
              scratch.size());
  active_.used += scratch.size();
  active_.last_lsn = lsn;
  ++active_.records;
  records_.Inc();
  // Wake the syncer only on the edges its waits test: work appeared, the
  // buffer reached half full, or the record count reached fsync_every_n.
  // Any other append would wake a lingering syncer just to find its
  // predicate still false.
  const bool wake =
      was_empty ||
      (was_below_half && active_.used * 2 >= options_.buffer_bytes) ||
      (options_.fsync_every_n != 0 &&
       active_.records == options_.fsync_every_n);
  lock.unlock();
  if (wake) work_cv_.notify_one();
  return lsn;
}

Status LogWriter::WaitDurable(uint64_t lsn) {
  if (durable_lsn_.load() >= lsn) return Status::OK();
  std::unique_lock<std::mutex> lock(mutex_);
  durable_cv_.wait(lock, [&] {
    return !poisoned_.ok() || durable_lsn_.load() >= lsn;
  });
  if (durable_lsn_.load() >= lsn) return Status::OK();
  return poisoned_;
}

Result<uint64_t> LogWriter::AppendDurable(WalRecord record) {
  auto lsn = Append(record);
  if (!lsn.ok()) return lsn;
  HWSTAR_RETURN_IF_ERROR(WaitDurable(lsn.value()));
  return lsn;
}

Status LogWriter::FlushBuffer(Buffer* buf) {
  const uint64_t io_start = NowNanos();
  Status st = segment_->Append(buf->data.get(), buf->used);
  if (st.ok()) st = segment_->Sync(options_.sync);
  sync_batch_.Record(buf->records);
  sync_latency_ns_.Record(NowNanos() - io_start);
  bytes_.Add(buf->used);
  groups_.Inc();
  return st;
}

void LogWriter::SyncerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (!rotate_pending_ && active_.used > 0);
    });
    if (active_.used == 0) break;  // stop_ and drained
    if (!poisoned_.ok()) break;

    // Linger for batch-mates: an fsync covering 50 records costs the same
    // as one covering 1, so waiting a bounded moment multiplies commit
    // throughput at the device's latency floor.
    if (!stop_ && options_.fsync_interval_us > 0 &&
        (options_.fsync_every_n == 0 ||
         active_.records < options_.fsync_every_n)) {
      const uint64_t deadline_nanos =
          first_pending_nanos_ + options_.fsync_interval_us * 1000;
      work_cv_.wait_for(
          lock,
          std::chrono::nanoseconds(
              deadline_nanos > NowNanos() ? deadline_nanos - NowNanos() : 0),
          [&] {
            return stop_ || !poisoned_.ok() ||
                   (options_.fsync_every_n != 0 &&
                    active_.records >= options_.fsync_every_n) ||
                   active_.used * 2 >= options_.buffer_bytes;
          });
      if (!poisoned_.ok()) break;
      // The linger released the lock, so a Rotate() may have sealed and
      // flushed active_ itself in the meantime — re-check before
      // swapping (swapping an empty buffer would regress durable_lsn_).
      if (rotate_pending_ || active_.used == 0) continue;
    }

    std::swap(active_, syncing_);
    first_pending_nanos_ = 0;
    const uint64_t target = syncing_.last_lsn;
    io_in_progress_ = true;
    lock.unlock();

    const Status st = FlushBuffer(&syncing_);

    lock.lock();
    io_in_progress_ = false;
    syncing_.used = 0;
    syncing_.records = 0;
    if (!st.ok()) {
      poisoned_ = st;
      durable_cv_.notify_all();
      space_cv_.notify_all();
      break;
    }
    durable_lsn_.store(target);
    durable_cv_.notify_all();
    space_cv_.notify_all();
  }
  // Poisoned or stopping: release anyone still blocked.
  durable_cv_.notify_all();
  space_cv_.notify_all();
}

Status LogWriter::Rotate() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!poisoned_.ok()) return poisoned_;
  if (options_.group_commit) {
    // Seal at a captured cut rather than waiting for quiescence: under
    // sustained append load active_ may never drain, so waiting for
    // `used == 0` has no forward-progress guarantee. Instead hold off
    // new syncer flushes (rotate_pending_), wait out the at-most-one
    // in-flight flush, then flush whatever is staged right here.
    // Appends arriving after the cut land in the next segment.
    rotate_pending_ = true;
    durable_cv_.wait(lock,
                     [&] { return !poisoned_.ok() || !io_in_progress_; });
    if (!poisoned_.ok()) {
      rotate_pending_ = false;
      work_cv_.notify_all();
      return poisoned_;
    }
    if (active_.used > 0) {
      std::swap(active_, syncing_);
      const uint64_t target = syncing_.last_lsn;
      first_pending_nanos_ = 0;
      // I/O under mutex_ keeps the syncer and appenders off segment_
      // for the duration; rotation is rare (checkpoints), so stalling
      // the staging path briefly is the honest trade.
      const Status flush = FlushBuffer(&syncing_);
      syncing_.used = 0;
      syncing_.records = 0;
      if (!flush.ok()) {
        poisoned_ = flush;
        rotate_pending_ = false;
        durable_cv_.notify_all();
        space_cv_.notify_all();
        work_cv_.notify_all();
        return flush;
      }
      durable_lsn_.store(target);
      durable_cv_.notify_all();
      space_cv_.notify_all();
    }
  }
  const uint64_t sealed_last = next_lsn_.load(kRelaxed) - 1;
  Status st = segment_->Close();
  if (!st.ok()) {
    poisoned_ = st;
    rotate_pending_ = false;
    work_cv_.notify_all();
    return st;
  }
  sealed_.emplace_back(segment_index_, sealed_last);
  ++segment_index_;
  auto file = backend_->OpenForAppend(SegmentName(prefix_, segment_index_));
  if (!file.ok()) {
    poisoned_ = file.status();
    rotate_pending_ = false;
    work_cv_.notify_all();
    return poisoned_;
  }
  segment_ = std::move(file.value());
  rotations_.Inc();
  rotate_pending_ = false;
  lock.unlock();
  work_cv_.notify_all();
  return Status::OK();
}

Status LogWriter::TruncateThrough(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!sealed_.empty() && sealed_.front().second <= lsn) {
    const uint32_t index = sealed_.front().first;
    HWSTAR_RETURN_IF_ERROR(backend_->Remove(SegmentName(prefix_, index)));
    sealed_.erase(sealed_.begin());
    truncated_segments_.Inc();
  }
  return Status::OK();
}

LogWriterStats LogWriter::stats() const {
  LogWriterStats s;
  s.records = records_.value();
  s.bytes = bytes_.value();
  s.groups = groups_.value();
  s.rotations = rotations_.value();
  s.truncated_segments = truncated_segments_.value();
  return s;
}

void LogWriter::RegisterMetrics(obs::Registry* registry,
                                const std::string& prefix) const {
  registry->RegisterCounter(prefix + "records", &records_);
  registry->RegisterCounter(prefix + "bytes", &bytes_);
  registry->RegisterCounter(prefix + "groups", &groups_);
  registry->RegisterCounter(prefix + "rotations", &rotations_);
  registry->RegisterCounter(prefix + "truncated_segments",
                            &truncated_segments_);
  registry->RegisterHistogram(prefix + "sync_batch", &sync_batch_);
  registry->RegisterHistogram(prefix + "sync_latency_ns", &sync_latency_ns_);
}

}  // namespace hwstar::dur
