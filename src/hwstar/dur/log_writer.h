#ifndef HWSTAR_DUR_LOG_WRITER_H_
#define HWSTAR_DUR_LOG_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hwstar/common/status.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/dur/wal_format.h"
#include "hwstar/mem/aligned.h"
#include "hwstar/obs/histogram.h"
#include "hwstar/obs/metric.h"
#include "hwstar/obs/registry.h"

namespace hwstar::dur {

/// Tuning for one log. The group-commit knobs are the hardware knobs: an
/// fsync costs the same whether it covers 1 record or 500, so the syncer
/// lingers up to `fsync_interval_us` (or until `fsync_every_n` records
/// are pending) to amortize that fixed device cost across every writer
/// currently blocked on a commit.
struct LogWriterOptions {
  SyncMode sync = SyncMode::kFdatasync;
  /// Group commit on: writers enqueue and block while one syncer thread
  /// coalesces pending records into a single write+sync. Off: every
  /// commit performs its own write+sync under a lock — the per-op
  /// baseline bench_e15 measures the group-commit win against.
  bool group_commit = true;
  /// Sync as soon as this many records are pending (0 = sync whatever has
  /// accumulated whenever the syncer is free).
  uint32_t fsync_every_n = 0;
  /// Max time the syncer lingers waiting for batch-mates once at least
  /// one record is pending.
  uint64_t fsync_interval_us = 100;
  /// Staging buffer capacity; 4 KiB-aligned via mem/aligned so the
  /// write-path source buffer respects device block granularity. Two of
  /// these exist (active / syncing) so staging continues during a sync.
  size_t buffer_bytes = 64 * 1024;
};

/// Monotonic counters describing the log's I/O behaviour. `groups` counts
/// write+sync rounds; records / groups is the achieved commit batch size
/// — the number the group-commit knee is made of.
struct LogWriterStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t groups = 0;
  uint64_t rotations = 0;
  uint64_t truncated_segments = 0;

  double mean_group() const {
    return groups == 0
               ? 0.0
               : static_cast<double>(records) / static_cast<double>(groups);
  }
};

/// A per-shard append-only write-ahead log with group commit.
///
/// Concurrent writers call Append (cheap: assign a dense LSN and memcpy
/// the framed record into the active staging buffer) and then
/// WaitDurable(lsn), blocking on the commit sequence number. A single
/// syncer thread swaps the staging buffers and turns every pending record
/// into ONE backend write + sync — the McKenney move of amortizing the
/// expensive serialization point (the sync) rather than the cheap one
/// (the buffer append).
///
/// The log is a sequence of segment files `<prefix>-<nnnnnn>.wal`;
/// Rotate() seals the current segment (checkpointing rotates so
/// TruncateThrough can later delete sealed segments wholesale, the unit
/// of truncation a device actually likes).
///
/// I/O failures never abort: the first failed write/sync poisons the log,
/// WaitDurable and subsequent Appends return that kIoError, and the owner
/// decides what dies.
class LogWriter {
 public:
  /// Opens segment `next_segment` for appending; LSNs continue at
  /// `next_lsn` (both come from recovery; a fresh log passes 1 and 0).
  static Result<std::unique_ptr<LogWriter>> Open(FileBackend* backend,
                                                 std::string prefix,
                                                 LogWriterOptions options,
                                                 uint64_t next_lsn,
                                                 uint32_t next_segment);

  /// Flushes pending records (best effort) and stops the syncer.
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Stages the record (the writer fills in the LSN) and returns the
  /// assigned LSN. Blocks only when both staging buffers are full (the
  /// device is the bottleneck — backpressure, not unbounded memory).
  Result<uint64_t> Append(WalRecord record);

  /// Blocks until everything up to `lsn` is durable at the configured
  /// sync level, or the log is poisoned (returns the poisoning error).
  Status WaitDurable(uint64_t lsn);

  /// Append + WaitDurable.
  Result<uint64_t> AppendDurable(WalRecord record);

  /// Seals the current segment (flushing pending records) and starts the
  /// next one.
  Status Rotate();

  /// Deletes sealed segments whose last LSN is <= `lsn`. The active
  /// segment is never deleted.
  Status TruncateThrough(uint64_t lsn);

  /// Last assigned LSN (0 before the first append).
  uint64_t last_lsn() const { return next_lsn_.load() - 1; }

  /// Highest LSN known durable at the configured sync level.
  uint64_t durable_lsn() const { return durable_lsn_.load(); }

  const std::string& prefix() const { return prefix_; }
  const LogWriterOptions& options() const { return options_; }
  LogWriterStats stats() const;

  /// Registers the LogWriterStats counters (borrowed) as
  /// `<prefix>records|bytes|groups|rotations|truncated_segments`, plus two
  /// histograms: `<prefix>sync_batch` (records per write+sync round, the
  /// group-commit batch sizes behind mean_group()) and
  /// `<prefix>sync_latency_ns` (write+sync wall time per round).
  void RegisterMetrics(obs::Registry* registry,
                       const std::string& prefix) const;

  /// `<prefix>-<nnnnnn>.wal`, recovery parses the index back out.
  static std::string SegmentName(const std::string& prefix, uint32_t index);
  /// Parses the segment index from a SegmentName path; false if malformed.
  static bool ParseSegmentIndex(const std::string& path, uint32_t* index);

 private:
  LogWriter(FileBackend* backend, std::string prefix, LogWriterOptions options,
            uint64_t next_lsn, uint32_t next_segment,
            std::unique_ptr<WritableFile> segment);

  struct Buffer {
    mem::AlignedBuffer data;
    size_t used = 0;
    uint64_t last_lsn = 0;  ///< highest LSN staged in this buffer
    uint32_t records = 0;
  };

  void SyncerLoop();
  /// Writes + syncs `buf` to the current segment; called outside mutex_
  /// by whichever thread owns the I/O turn.
  Status FlushBuffer(Buffer* buf);

  FileBackend* backend_;
  const std::string prefix_;
  const LogWriterOptions options_;

  std::mutex mutex_;                  ///< guards staging state
  std::condition_variable space_cv_;  ///< staging room freed
  std::condition_variable work_cv_;   ///< records pending / shutdown
  std::condition_variable durable_cv_;
  Buffer active_;
  Buffer syncing_;
  uint64_t first_pending_nanos_ = 0;  ///< when active_ went 0 -> nonzero
  bool io_in_progress_ = false;
  /// Rotate() is sealing: the syncer must not start a new flush, so the
  /// rotation needs only wait out the (single) in-flight one — forward
  /// progress even under sustained append load.
  bool rotate_pending_ = false;
  bool stop_ = false;
  Status poisoned_;  ///< first I/O error; OK while healthy

  std::unique_ptr<WritableFile> segment_;
  uint32_t segment_index_;
  /// Sealed segments: (index, last lsn they contain), oldest first.
  std::vector<std::pair<uint32_t, uint64_t>> sealed_;

  std::atomic<uint64_t> next_lsn_;
  std::atomic<uint64_t> durable_lsn_;

  // Stats (read by stats() and through RegisterMetrics).
  obs::Histogram sync_batch_;       ///< records per flush group
  obs::Histogram sync_latency_ns_;  ///< nanos per write+sync round
  obs::Counter records_;
  obs::Counter bytes_;
  obs::Counter groups_;
  obs::Counter rotations_;
  obs::Counter truncated_segments_;

  std::thread syncer_;  ///< last member: started after everything else
};

}  // namespace hwstar::dur

#endif  // HWSTAR_DUR_LOG_WRITER_H_
