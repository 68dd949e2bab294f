#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "hwstar/dur/checkpoint.h"
#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/dur/fault_injection.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/dur/log_writer.h"
#include "hwstar/dur/recovery.h"
#include "hwstar/dur/wal_format.h"

namespace hwstar::dur {
namespace {

WalRecord Put(uint64_t lsn, uint64_t key, uint64_t value) {
  WalRecord r;
  r.type = WalRecordType::kPut;
  r.lsn = lsn;
  r.key = key;
  r.value = value;
  return r;
}

WalRecord Del(uint64_t lsn, uint64_t key) {
  WalRecord r;
  r.type = WalRecordType::kDelete;
  r.lsn = lsn;
  r.key = key;
  return r;
}

TEST(WalFormatTest, RoundTrip) {
  std::string buf;
  EncodeWalRecord(Put(1, 42, 420), &buf);
  EncodeWalRecord(Del(2, 42), &buf);
  EncodeWalRecord(Put(3, ~uint64_t{0}, 0), &buf);

  const WalDecodeResult decoded = DecodeWalBuffer(buf.data(), buf.size());
  EXPECT_TRUE(decoded.clean);
  EXPECT_EQ(decoded.valid_bytes, buf.size());
  ASSERT_EQ(decoded.records.size(), 3u);
  EXPECT_EQ(decoded.records[0], Put(1, 42, 420));
  EXPECT_EQ(decoded.records[1], Del(2, 42));
  EXPECT_EQ(decoded.records[2], Put(3, ~uint64_t{0}, 0));
}

TEST(WalFormatTest, TxnRecordTypesRoundTrip) {
  auto txn_record = [](WalRecordType type, uint64_t lsn, uint64_t tid,
                       uint64_t key, uint64_t value) {
    WalRecord r;
    r.type = type;
    r.lsn = lsn;
    r.txn = tid;
    r.key = key;
    r.value = value;
    return r;
  };
  const std::vector<WalRecord> records = {
      txn_record(WalRecordType::kTxnBegin, 1, 99, 0, /*frags=*/2),
      txn_record(WalRecordType::kTxnPut, 2, 99, 7, 70),
      txn_record(WalRecordType::kTxnDelete, 3, 99, ~uint64_t{0}, 0),
      txn_record(WalRecordType::kTxnCommit, 4, 99, 0, /*total=*/2),
      Put(5, 1, 10),  // plain records interleave freely
  };
  std::string buf;
  for (const WalRecord& r : records) EncodeWalRecord(r, &buf);

  const WalDecodeResult decoded = DecodeWalBuffer(buf.data(), buf.size());
  EXPECT_TRUE(decoded.clean);
  EXPECT_EQ(decoded.valid_bytes, buf.size());
  ASSERT_EQ(decoded.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded.records[i], records[i]) << "record " << i;
  }
  EXPECT_TRUE(IsTxnFragment(WalRecordType::kTxnPut));
  EXPECT_TRUE(IsTxnFragment(WalRecordType::kTxnDelete));
  EXPECT_FALSE(IsTxnFragment(WalRecordType::kTxnBegin));
  EXPECT_FALSE(IsTxnFragment(WalRecordType::kTxnCommit));
  EXPECT_FALSE(IsTxnFragment(WalRecordType::kPut));
}

TEST(WalFormatTest, TornTailStopsCleanPrefix) {
  std::string buf;
  EncodeWalRecord(Put(1, 1, 10), &buf);
  const size_t first = buf.size();
  EncodeWalRecord(Put(2, 2, 20), &buf);

  // Every truncation point inside the second record must yield exactly the
  // first record and a dirty tail.
  for (size_t cut = first; cut < buf.size(); ++cut) {
    const WalDecodeResult d = DecodeWalBuffer(buf.data(), cut);
    EXPECT_EQ(d.records.size(), 1u);
    EXPECT_EQ(d.valid_bytes, first);
    if (cut == first) {
      EXPECT_TRUE(d.clean);
    } else {
      EXPECT_FALSE(d.clean);
    }
  }
}

TEST(WalFormatTest, BitFlipDetected) {
  std::string clean;
  EncodeWalRecord(Put(1, 7, 70), &clean);
  EncodeWalRecord(Put(2, 8, 80), &clean);
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    std::string buf = clean;
    buf[byte] = static_cast<char>(buf[byte] ^ 0x10);
    const WalDecodeResult d = DecodeWalBuffer(buf.data(), buf.size());
    // Whichever record the flip hit fails its CRC; nothing past it decodes.
    EXPECT_FALSE(d.clean) << "flip at byte " << byte;
    EXPECT_LT(d.records.size(), 2u);
  }
}

TEST(WalFormatTest, EmptyBufferIsClean) {
  const WalDecodeResult d = DecodeWalBuffer(nullptr, 0);
  EXPECT_TRUE(d.clean);
  EXPECT_TRUE(d.records.empty());
}

TEST(InMemoryBackendTest, DurableBoundary) {
  InMemoryFileBackend fs;
  auto file = fs.OpenForAppend("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("aaaa", 4).ok());
  ASSERT_TRUE(file.value()->Sync(SyncMode::kFdatasync).ok());
  ASSERT_TRUE(file.value()->Append("bbbb", 4).ok());

  // Crash: the synced prefix must survive; the unsynced suffix may not.
  fs.SimulateCrash(/*seed=*/7, /*flip_bit=*/false);
  auto data = fs.ReadFile("f");
  ASSERT_TRUE(data.ok());
  ASSERT_GE(data.value().size(), 4u);
  EXPECT_EQ(data.value().substr(0, 4), "aaaa");
}

TEST(InMemoryBackendTest, RenameIsAtomicInstall) {
  InMemoryFileBackend fs;
  auto file = fs.OpenForAppend("f.tmp");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("xyz", 3).ok());
  ASSERT_TRUE(fs.Rename("f.tmp", "f").ok());
  EXPECT_FALSE(fs.Exists("f.tmp"));
  EXPECT_EQ(fs.ReadFile("f").value(), "xyz");
  EXPECT_EQ(fs.Rename("missing", "f").code(), StatusCode::kIoError);
}

TEST(LogWriterTest, SegmentNameRoundTrip) {
  const std::string name = LogWriter::SegmentName("dir/db-wal0", 42);
  EXPECT_EQ(name, "dir/db-wal0-000042.wal");
  uint32_t index = 0;
  ASSERT_TRUE(LogWriter::ParseSegmentIndex(name, &index));
  EXPECT_EQ(index, 42u);
  EXPECT_FALSE(LogWriter::ParseSegmentIndex("dir/db-ckpt", &index));
  EXPECT_FALSE(LogWriter::ParseSegmentIndex("x-12345.wal", &index));
}

TEST(LogWriterTest, PerOpModeWritesDenseLog) {
  InMemoryFileBackend fs;
  LogWriterOptions opts;
  opts.group_commit = false;
  auto writer = LogWriter::Open(&fs, "log", opts, /*next_lsn=*/1,
                                /*next_segment=*/0);
  ASSERT_TRUE(writer.ok());
  for (uint64_t i = 1; i <= 10; ++i) {
    auto lsn = writer.value()->AppendDurable(Put(0, i, i * 10));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), i);
  }
  EXPECT_EQ(writer.value()->durable_lsn(), 10u);
  EXPECT_EQ(writer.value()->stats().groups, 10u);  // one sync per record

  auto data = fs.ReadFile(LogWriter::SegmentName("log", 0));
  ASSERT_TRUE(data.ok());
  const WalDecodeResult d = DecodeWalBuffer(data.value().data(),
                                            data.value().size());
  EXPECT_TRUE(d.clean);
  ASSERT_EQ(d.records.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(d.records[i].lsn, i + 1);
}

TEST(LogWriterTest, GroupCommitConcurrentWriters) {
  InMemoryFileBackend fs;
  LogWriterOptions opts;
  opts.fsync_interval_us = 50;
  auto writer = LogWriter::Open(&fs, "log", opts, 1, 0);
  ASSERT_TRUE(writer.ok());

  constexpr uint32_t kThreads = 8;
  constexpr uint64_t kPerThread = 200;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        auto lsn = writer.value()->AppendDurable(
            Put(0, (static_cast<uint64_t>(t) << 32) | i, i));
        if (!lsn.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);

  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(writer.value()->last_lsn(), kTotal);
  EXPECT_EQ(writer.value()->durable_lsn(), kTotal);

  // The point of the exercise: far fewer syncs than records.
  const LogWriterStats stats = writer.value()->stats();
  EXPECT_EQ(stats.records, kTotal);
  EXPECT_LT(stats.groups, kTotal);

  // The log decodes clean and dense.
  auto data = fs.ReadFile(LogWriter::SegmentName("log", 0));
  ASSERT_TRUE(data.ok());
  const WalDecodeResult d = DecodeWalBuffer(data.value().data(),
                                            data.value().size());
  EXPECT_TRUE(d.clean);
  ASSERT_EQ(d.records.size(), kTotal);
  for (uint64_t i = 0; i < kTotal; ++i) EXPECT_EQ(d.records[i].lsn, i + 1);
}

TEST(LogWriterTest, RotateAndTruncate) {
  InMemoryFileBackend fs;
  auto writer = LogWriter::Open(&fs, "log", LogWriterOptions(), 1, 0);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(writer.value()->AppendDurable(Put(0, 1, 1)).ok());
  ASSERT_TRUE(writer.value()->AppendDurable(Put(0, 2, 2)).ok());
  ASSERT_TRUE(writer.value()->Rotate().ok());  // seals segment 0 (lsn 1-2)
  ASSERT_TRUE(writer.value()->AppendDurable(Put(0, 3, 3)).ok());
  ASSERT_TRUE(writer.value()->Rotate().ok());  // seals segment 1 (lsn 3)
  ASSERT_TRUE(writer.value()->AppendDurable(Put(0, 4, 4)).ok());

  EXPECT_TRUE(fs.Exists(LogWriter::SegmentName("log", 0)));
  EXPECT_TRUE(fs.Exists(LogWriter::SegmentName("log", 1)));
  EXPECT_TRUE(fs.Exists(LogWriter::SegmentName("log", 2)));

  // Truncating through lsn 2 removes only the first sealed segment.
  ASSERT_TRUE(writer.value()->TruncateThrough(2).ok());
  EXPECT_FALSE(fs.Exists(LogWriter::SegmentName("log", 0)));
  EXPECT_TRUE(fs.Exists(LogWriter::SegmentName("log", 1)));
  EXPECT_EQ(writer.value()->stats().rotations, 2u);
  EXPECT_EQ(writer.value()->stats().truncated_segments, 1u);
}

// Regression: Rotate() must make forward progress while writers keep the
// staging buffer busy (it seals at a captured cut instead of waiting for
// the buffer to drain, which under sustained load may never happen). The
// concatenated segments must still hold one dense, clean LSN sequence.
TEST(LogWriterTest, RotateMakesProgressUnderSustainedAppends) {
  InMemoryFileBackend fs;
  LogWriterOptions opts;
  opts.fsync_interval_us = 20;
  auto writer = LogWriter::Open(&fs, "log", opts, 1, 0);
  ASSERT_TRUE(writer.ok());

  constexpr uint32_t kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; !stop.load(); ++i) {
        const uint64_t key = (static_cast<uint64_t>(t) << 32) | i;
        if (!writer.value()->AppendDurable(Put(0, key, i)).ok()) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  constexpr uint64_t kRotations = 8;
  for (uint64_t r = 0; r < kRotations; ++r) {
    ASSERT_TRUE(writer.value()->Rotate().ok());
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(writer.value()->stats().rotations, kRotations);

  const uint64_t total = writer.value()->last_lsn();
  EXPECT_EQ(writer.value()->durable_lsn(), total);

  // Replaying the segments in order yields LSNs 1..total with no gaps.
  uint64_t next = 1;
  for (uint32_t seg = 0; fs.Exists(LogWriter::SegmentName("log", seg));
       ++seg) {
    auto data = fs.ReadFile(LogWriter::SegmentName("log", seg));
    ASSERT_TRUE(data.ok());
    const WalDecodeResult d =
        DecodeWalBuffer(data.value().data(), data.value().size());
    EXPECT_TRUE(d.clean) << "segment " << seg;
    for (const WalRecord& rec : d.records) {
      ASSERT_EQ(rec.lsn, next) << "segment " << seg;
      ++next;
    }
  }
  EXPECT_EQ(next, total + 1);
}

TEST(CheckpointTest, RoundTrip) {
  InMemoryFileBackend fs;
  CheckpointData data;
  data.marks = {17, 0, 5};
  data.entries = {{1, 10}, {2, 20}, {3, 30}};
  ASSERT_TRUE(WriteCheckpoint(&fs, "db", data).ok());
  EXPECT_FALSE(fs.Exists("db-ckpt.tmp"));  // tmp renamed away

  auto loaded = ReadCheckpoint(&fs, "db");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().marks, data.marks);
  EXPECT_EQ(loaded.value().entries, data.entries);
}

TEST(CheckpointTest, MissingIsNotFound) {
  InMemoryFileBackend fs;
  EXPECT_EQ(ReadCheckpoint(&fs, "db").status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptionIsIoError) {
  InMemoryFileBackend fs;
  CheckpointData data;
  data.marks = {3};
  data.entries = {{1, 10}};
  ASSERT_TRUE(WriteCheckpoint(&fs, "db", data).ok());

  std::string raw = fs.ReadFile("db-ckpt").value();
  for (size_t byte : {size_t{0}, raw.size() / 2, raw.size() - 1}) {
    InMemoryFileBackend broken;
    std::string mangled = raw;
    mangled[byte] = static_cast<char>(mangled[byte] ^ 0x40);
    auto file = broken.OpenForAppend("db-ckpt");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(mangled.data(), mangled.size()).ok());
    EXPECT_EQ(ReadCheckpoint(&broken, "db").status().code(),
              StatusCode::kIoError)
        << "flip at byte " << byte;
  }
}

DurableKvOptions SmallDurableOptions(uint32_t log_shards = 1) {
  DurableKvOptions o;
  o.log_shards = log_shards;
  o.log.fsync_interval_us = 10;
  return o;
}

std::vector<std::pair<uint64_t, uint64_t>> Contents(kv::KvStore* store) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  store->RangeScanEntries(0, ~uint64_t{0}, &out);
  return out;
}

TEST(DurableKvStoreTest, ReopenRecoversPutsAndTombstones) {
  InMemoryFileBackend fs;
  {
    auto db = DurableKvStore::Open(&fs, "db", SmallDurableOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Put(1, 10).ok());
    ASSERT_TRUE(db.value()->Put(2, 20).ok());
    ASSERT_TRUE(db.value()->Put(1, 11).ok());  // overwrite
    bool erased = false;
    ASSERT_TRUE(db.value()->Delete(2, &erased).ok());
    EXPECT_TRUE(erased);
    ASSERT_TRUE(db.value()->Delete(99, &erased).ok());  // no-op tombstone
    EXPECT_FALSE(erased);
  }

  RecoveryInfo info;
  auto db = DurableKvStore::Open(&fs, "db", SmallDurableOptions(), &info);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(info.checkpoint_loaded);
  EXPECT_EQ(info.records_applied, 5u);
  EXPECT_EQ(Contents(db.value()->kv()),
            (std::vector<std::pair<uint64_t, uint64_t>>{{1, 11}}));
  // LSNs continue after the replayed tail (dense across restarts).
  ASSERT_TRUE(db.value()->Put(3, 30).ok());
  EXPECT_EQ(db.value()->log(0)->last_lsn(), 6u);
}

TEST(DurableKvStoreTest, PutBatchIsDurableAndOrdered) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", SmallDurableOptions(2));
  ASSERT_TRUE(db.ok());

  // Includes a same-key pair: later index must win (submission order).
  const std::vector<uint64_t> keys = {5, 5, 1, ~uint64_t{0}, 9};
  const std::vector<uint64_t> values = {50, 51, 10, 77, 90};
  uint64_t wal_wait = 0;
  ASSERT_TRUE(
      db.value()->PutBatch(keys.data(), values.data(), keys.size(), &wal_wait)
          .ok());
  EXPECT_EQ(db.value()->kv()->Get(5).value(), 51u);
  EXPECT_EQ(db.value()->kv()->Get(~uint64_t{0}).value(), 77u);
  EXPECT_EQ(db.value()->kv()->size(), 4u);

  // Reopen: the batch survives.
  db = DurableKvStore::Open(&fs, "db", SmallDurableOptions(2));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->kv()->Get(5).value(), 51u);
  EXPECT_EQ(db.value()->kv()->size(), 4u);
}

TEST(DurableKvStoreTest, CheckpointTruncatesLogAndReopens) {
  InMemoryFileBackend fs;
  auto db = DurableKvStore::Open(&fs, "db", SmallDurableOptions());
  ASSERT_TRUE(db.ok());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.value()->Put(i, i * 2).ok());
  }
  ASSERT_TRUE(db.value()->Checkpoint().ok());
  EXPECT_EQ(db.value()->log_stats().truncated_segments, 1u);
  // Post-checkpoint mutations live only in the new segment.
  ASSERT_TRUE(db.value()->Delete(0).ok());
  ASSERT_TRUE(db.value()->Put(200, 400).ok());

  RecoveryInfo info;
  db = DurableKvStore::Open(&fs, "db", SmallDurableOptions(), &info);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(info.checkpoint_loaded);
  EXPECT_EQ(info.checkpoint_entries, 100u);
  EXPECT_EQ(info.records_applied, 2u);  // just the post-checkpoint tail
  EXPECT_EQ(db.value()->kv()->size(), 100u);  // 100 - deleted + added
  EXPECT_EQ(db.value()->kv()->Get(0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.value()->kv()->Get(200).value(), 400u);
}

TEST(DurableKvStoreTest, IoErrorPoisonsInsteadOfAborting) {
  FaultPlan plan;
  plan.fail_after_writes = 6;
  plan.mode = FaultMode::kDropWrite;
  FaultyFileBackend fs(plan);
  auto db = DurableKvStore::Open(&fs, "db", SmallDurableOptions());
  ASSERT_TRUE(db.ok());

  // Hammer until the injected fault fires; after that every durable
  // mutation must keep returning kIoError (poisoned, not aborted).
  Status first = Status::OK();
  for (uint64_t i = 0; i < 100 && first.ok(); ++i) {
    first = db.value()->Put(i, i);
  }
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_EQ(db.value()->Put(1000, 1).code(), StatusCode::kIoError);
  bool erased = false;
  EXPECT_EQ(db.value()->Delete(0, &erased).code(), StatusCode::kIoError);
  EXPECT_EQ(db.value()->Checkpoint().code(), StatusCode::kIoError);
}

// A failed MutateBatch still answers every `erased` slot: callers read
// one flag per delete whatever the status.
TEST(DurableKvStoreTest, PoisonedMutateBatchClearsEveryErasedSlot) {
  FaultPlan plan;
  plan.fail_after_writes = 6;
  plan.mode = FaultMode::kDropWrite;
  FaultyFileBackend fs(plan);
  auto db = DurableKvStore::Open(&fs, "db", SmallDurableOptions());
  ASSERT_TRUE(db.ok());
  Status first = Status::OK();
  for (uint64_t i = 0; i < 100 && first.ok(); ++i) {
    first = db.value()->Put(i, i);
  }
  ASSERT_EQ(first.code(), StatusCode::kIoError);

  const WriteOp ops[3] = {{1, 0, true}, {2, 0, true}, {3, 0, true}};
  bool erased[3] = {true, true, true};
  EXPECT_EQ(db.value()->MutateBatch(ops, 3, nullptr, erased).code(),
            StatusCode::kIoError);
  EXPECT_FALSE(erased[0]);
  EXPECT_FALSE(erased[1]);
  EXPECT_FALSE(erased[2]);
}

TEST(RecoveryTest, TornTailStopsReplayCleanly) {
  InMemoryFileBackend fs;
  // Hand-build shard 0's first segment: three records, then half a record.
  std::string buf;
  EncodeWalRecord(Put(1, 1, 10), &buf);
  EncodeWalRecord(Put(2, 2, 20), &buf);
  EncodeWalRecord(Del(3, 1), &buf);
  std::string torn;
  EncodeWalRecord(Put(4, 4, 40), &torn);
  buf.append(torn.substr(0, torn.size() / 2));

  auto file = fs.OpenForAppend(
      LogWriter::SegmentName(ShardLogPrefix("db", 0), 0));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append(buf.data(), buf.size()).ok());

  kv::KvStore store;
  auto info = Recover(&fs, "db", /*log_shards=*/1, &store);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().records_applied, 3u);
  EXPECT_EQ(info.value().torn_shards, 1u);
  EXPECT_EQ(info.value().next_lsn[0], 4u);  // lsn 4 was lost, gets reused
  EXPECT_EQ(info.value().next_segment[0], 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Get(2).value(), 20u);
}

TEST(RecoveryTest, GapInLsnSequenceStopsReplay) {
  InMemoryFileBackend fs;
  std::string buf;
  EncodeWalRecord(Put(1, 1, 10), &buf);
  EncodeWalRecord(Put(3, 3, 30), &buf);  // lsn 2 missing: a hole, not a tail
  auto file = fs.OpenForAppend(
      LogWriter::SegmentName(ShardLogPrefix("db", 0), 0));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append(buf.data(), buf.size()).ok());

  kv::KvStore store;
  auto info = Recover(&fs, "db", 1, &store);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().records_applied, 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.Get(3).ok());
}

TEST(RecoveryTest, ReplayResumesAcrossSegmentsAfterTornTail) {
  InMemoryFileBackend fs;
  const std::string shard_prefix = ShardLogPrefix("db", 0);
  // Segment 0: lsn 1 intact, then a torn lsn 2 — the shape left by a
  // crash. Segment 1: the reopened writer reused lsn 2.
  std::string seg0;
  EncodeWalRecord(Put(1, 1, 10), &seg0);
  std::string torn;
  EncodeWalRecord(Put(2, 2, 99), &torn);
  seg0.append(torn.substr(0, torn.size() - 3));
  std::string seg1;
  EncodeWalRecord(Put(2, 2, 20), &seg1);
  EncodeWalRecord(Put(3, 3, 30), &seg1);

  auto f0 = fs.OpenForAppend(LogWriter::SegmentName(shard_prefix, 0));
  ASSERT_TRUE(f0.ok());
  ASSERT_TRUE(f0.value()->Append(seg0.data(), seg0.size()).ok());
  auto f1 = fs.OpenForAppend(LogWriter::SegmentName(shard_prefix, 1));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f1.value()->Append(seg1.data(), seg1.size()).ok());

  kv::KvStore store;
  auto info = Recover(&fs, "db", 1, &store);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().records_applied, 3u);
  EXPECT_EQ(info.value().next_lsn[0], 4u);
  EXPECT_EQ(info.value().next_segment[0], 2u);
  EXPECT_EQ(store.Get(2).value(), 20u);  // the reused lsn's value wins
  EXPECT_EQ(store.Get(3).value(), 30u);
}

}  // namespace
}  // namespace hwstar::dur
