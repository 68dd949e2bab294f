#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/kv/kv_store.h"
#include "hwstar/svc/admission.h"
#include "hwstar/svc/overload_policy.h"
#include "hwstar/svc/service.h"

namespace hwstar::svc {
namespace {

TicketPtr MakeTicket(Request request) {
  auto t = std::make_unique<Ticket>();
  t->request = std::move(request);
  t->submit_nanos = ServiceNow();
  t->estimated_bytes = EstimatedRequestBytes(t->request);
  return t;
}

// --- AdmissionQueue -------------------------------------------------------

// Pops up to `max` tickets in pop order, without lingering. The tests
// that use it queue point-gets only, all on shard 0 of a storeless
// selector, so each of them is taken.
bool PopUpTo(AdmissionQueue* queue, std::vector<TicketPtr>* out,
             uint32_t max) {
  GroupSelector selector(nullptr, 64);
  return queue->PopGroup(out, &selector, max, /*linger_nanos=*/0);
}

TEST(AdmissionQueueTest, AcceptRejectBoundaryAtMaxDepth) {
  AdmissionOptions opts;
  opts.max_queue_depth = 2;
  AdmissionQueue queue(opts);

  auto t1 = MakeTicket(Request::PointGet(1));
  auto t2 = MakeTicket(Request::PointGet(2));
  auto t3 = MakeTicket(Request::PointGet(3));
  EXPECT_TRUE(queue.TryAdmit(t1).ok());
  EXPECT_TRUE(queue.TryAdmit(t2).ok());
  Status st = queue.TryAdmit(t3);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  ASSERT_NE(t3, nullptr);  // rejected ticket stays with the caller
  EXPECT_EQ(queue.depth(), 2u);

  // Popping frees capacity; the same ticket admits cleanly afterwards.
  std::vector<TicketPtr> out;
  ASSERT_TRUE(PopUpTo(&queue, &out, 1));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(queue.TryAdmit(t3).ok());

  const AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
}

TEST(AdmissionQueueTest, PerTenantQuotaIsolatesTenants) {
  AdmissionOptions opts;
  opts.max_queue_depth = 16;
  opts.per_tenant_quota = 1;
  AdmissionQueue queue(opts);

  auto a1 = MakeTicket(Request::PointGet(1, /*tenant=*/7));
  auto a2 = MakeTicket(Request::PointGet(2, /*tenant=*/7));
  auto b1 = MakeTicket(Request::PointGet(3, /*tenant=*/8));
  EXPECT_TRUE(queue.TryAdmit(a1).ok());
  EXPECT_EQ(queue.TryAdmit(a2).code(), StatusCode::kResourceExhausted);
  // The flooding tenant exhausted its own quota, not tenant 8's.
  EXPECT_TRUE(queue.TryAdmit(b1).ok());
  EXPECT_EQ(queue.tenant_depth(7), 1u);
  EXPECT_EQ(queue.tenant_depth(8), 1u);
  EXPECT_EQ(queue.stats().shed_tenant_quota, 1u);
}

TEST(AdmissionQueueTest, MemoryBudgetRejectsBigScans) {
  AdmissionOptions opts;
  opts.max_queue_depth = 16;
  opts.memory_budget_bytes = 4096;
  AdmissionQueue queue(opts);

  auto small = MakeTicket(Request::PointGet(1));
  auto big = MakeTicket(Request::Scan(0, ~uint64_t{0}, /*limit=*/100000));
  EXPECT_TRUE(queue.TryAdmit(small).ok());
  EXPECT_EQ(queue.TryAdmit(big).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().shed_memory, 1u);
}

TEST(AdmissionQueueTest, PriorityFloorShedsLowFirst) {
  AdmissionQueue queue(AdmissionOptions{});
  auto low = MakeTicket(Request::PointGet(1, 0, Priority::kLow));
  auto normal = MakeTicket(Request::PointGet(2, 0, Priority::kNormal));
  EXPECT_EQ(queue.TryAdmit(low, Priority::kNormal).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(queue.TryAdmit(normal, Priority::kNormal).ok());
  EXPECT_EQ(queue.stats().shed_priority, 1u);
}

TEST(AdmissionQueueTest, PopReturnsHighestPriorityFirst) {
  AdmissionQueue queue(AdmissionOptions{});
  auto low = MakeTicket(Request::PointGet(1, 0, Priority::kLow));
  auto high = MakeTicket(Request::PointGet(2, 0, Priority::kHigh));
  ASSERT_TRUE(queue.TryAdmit(low).ok());
  ASSERT_TRUE(queue.TryAdmit(high).ok());
  std::vector<TicketPtr> out;
  ASSERT_TRUE(PopUpTo(&queue, &out, 2));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->request.priority, Priority::kHigh);
  EXPECT_EQ(out[1]->request.priority, Priority::kLow);
}

TEST(AdmissionQueueTest, CloseWakesAndDrains) {
  AdmissionQueue queue(AdmissionOptions{});
  std::thread closer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Close();
  });
  std::vector<TicketPtr> out;
  EXPECT_FALSE(PopUpTo(&queue, &out, 4));  // unblocked by Close
  closer.join();
  auto t = MakeTicket(Request::PointGet(1));
  EXPECT_EQ(queue.TryAdmit(t).code(), StatusCode::kFailedPrecondition);
}

// While one pop lingers, another pop leaves it the tickets it claims: a
// later write to a key of the lingering group must not overtake the group.
TEST(AdmissionQueueTest, LingeringPopKeepsItsClaimedTickets) {
  AdmissionQueue queue(AdmissionOptions{});
  auto put = MakeTicket(Request::Put(7, 100));
  ASSERT_TRUE(queue.TryAdmit(put).ok());
  std::vector<TicketPtr> lingered;
  std::thread lingerer([&] {
    GroupSelector selector(nullptr, 64);
    EXPECT_TRUE(queue.PopGroup(&lingered, &selector, 64,
                               /*linger_nanos=*/60'000'000'000));
  });
  // The put is taken and the linger begun in one critical section.
  while (queue.depth() != 0) std::this_thread::yield();

  auto overwrite = MakeTicket(Request::Put(7, 101));
  auto get = MakeTicket(Request::PointGet(5));
  ASSERT_TRUE(queue.TryAdmit(overwrite).ok());
  ASSERT_TRUE(queue.TryAdmit(get).ok());
  GroupSelector selector(nullptr, 64);
  std::vector<TicketPtr> out;
  ASSERT_TRUE(queue.PopGroup(&out, &selector, 64, /*linger_nanos=*/0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->request.type, RequestType::kPointGet);

  queue.Close();  // ends the linger
  lingerer.join();
  ASSERT_EQ(lingered.size(), 2u);
  EXPECT_EQ(lingered[0]->request.value, 100u);
  EXPECT_EQ(lingered[1]->request.value, 101u);
}

// --- GroupSelector --------------------------------------------------------

// Admits `requests` in order and returns their queue.
std::unique_ptr<AdmissionQueue> QueueOf(std::vector<Request> requests) {
  auto queue = std::make_unique<AdmissionQueue>(AdmissionOptions{});
  for (Request& r : requests) {
    auto t = MakeTicket(std::move(r));
    EXPECT_TRUE(queue->TryAdmit(t).ok());
  }
  return queue;
}

// Pops one group through `selector` without lingering, then orders it.
std::vector<TicketPtr> PopOrdered(AdmissionQueue* queue,
                                  GroupSelector* selector) {
  std::vector<TicketPtr> group;
  selector->Reset();
  EXPECT_TRUE(queue->PopGroup(&group, selector, 64, /*linger_nanos=*/0));
  selector->Order(&group);
  return group;
}

TEST(GroupSelectorTest, GroupsGetsByShardSortedByKey) {
  kv::KvOptions kopts;
  kopts.shards = 4;  // shard = top 2 key bits
  const kv::KvStore store(kopts);
  GroupSelector selector(&store, 8);

  const uint64_t shard_span = ~uint64_t{0} / 4 + 1;
  // Two shards, interleaved and unsorted on arrival.
  auto queue = QueueOf({Request::PointGet(5), Request::PointGet(shard_span + 9),
                        Request::PointGet(3),
                        Request::PointGet(shard_span + 2)});
  for (int pop = 0; pop < 2; ++pop) {
    auto group = PopOrdered(queue.get(), &selector);
    ASSERT_EQ(group.size(), 2u);
    EXPECT_EQ(group[0]->request.type, RequestType::kPointGet);
    EXPECT_LT(group[0]->request.key, group[1]->request.key);
    EXPECT_EQ(store.ShardOf(group[0]->request.key),
              store.ShardOf(group[1]->request.key));
  }
  EXPECT_EQ(queue->depth(), 0u);
}

TEST(GroupSelectorTest, PutsGroupByShardAndKeepSameKeySubmissionOrder) {
  GroupSelector selector(nullptr, 8);

  // Same-key puts interleaved with others: the sort must be STABLE, so
  // within a group the same key's values stay in submission order (the
  // last one submitted is the one that wins when applied in order).
  auto queue = QueueOf({Request::Put(7, 100), Request::Put(3, 30),
                        Request::Put(7, 101), Request::Put(9, 90),
                        Request::Put(7, 102)});
  auto group = PopOrdered(queue.get(), &selector);
  ASSERT_EQ(group.size(), 5u);
  EXPECT_EQ(group[0]->request.type, RequestType::kPut);
  std::vector<uint64_t> key7_values;
  for (const auto& t : group) {
    if (t->request.key == 7) key7_values.push_back(t->request.value);
  }
  EXPECT_EQ(key7_values, (std::vector<uint64_t>{100, 101, 102}));
  // And the keys themselves are sorted.
  for (size_t i = 1; i < group.size(); ++i) {
    EXPECT_LE(group[i - 1]->request.key, group[i]->request.key);
  }
}

TEST(GroupSelectorTest, RespectsMaxBatchAndSingletonTypes) {
  GroupSelector selector(nullptr, 2);

  std::vector<Request> requests;
  for (int i = 0; i < 5; ++i) requests.push_back(Request::PointGet(i));
  requests.push_back(Request::Scan(0, 10));
  requests.push_back(Request::Scan(0, 20));
  auto queue = QueueOf(std::move(requests));

  size_t gets = 0, scans = 0;
  while (queue->depth() > 0) {
    auto group = PopOrdered(queue.get(), &selector);
    ASSERT_FALSE(group.empty());
    EXPECT_LE(group.size(), 2u);
    if (group[0]->request.type == RequestType::kPointGet) {
      gets += group.size();
    } else {
      EXPECT_EQ(group[0]->request.type, RequestType::kScan);
      EXPECT_EQ(group.size(), 1u);  // scans never merge
      ++scans;
    }
  }
  EXPECT_EQ(gets, 5u);
  EXPECT_EQ(scans, 2u);
}

TEST(GroupSelectorTest, NeverSplitsEqualKeyPutRunAcrossBatches) {
  GroupSelector selector(nullptr, 2);

  // Submission order is [5, 2, 5, 1, 5]. A naive max_batch cut would
  // leave one key-5 put in this group and the rest in a later one; groups
  // for the same shard may run concurrently on different workers, so the
  // later-submitted put could be applied first. The whole equal-key run
  // must land in one group, even past max_batch, and key 1 waits.
  auto queue = QueueOf({Request::Put(5, 50), Request::Put(2, 20),
                        Request::Put(5, 51), Request::Put(1, 10),
                        Request::Put(5, 52)});
  auto group = PopOrdered(queue.get(), &selector);
  ASSERT_EQ(group.size(), 4u);
  EXPECT_EQ(group[0]->request.key, 2u);
  std::vector<uint64_t> key5_values;
  for (size_t i = 1; i < group.size(); ++i) {
    EXPECT_EQ(group[i]->request.key, 5u);
    key5_values.push_back(group[i]->request.value);
  }
  EXPECT_EQ(key5_values, (std::vector<uint64_t>{50, 51, 52}));

  ASSERT_EQ(queue->depth(), 1u);
  group = PopOrdered(queue.get(), &selector);
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0]->request.key, 1u);
}

// --- Service end to end ---------------------------------------------------

ServiceOptions NoDegradeOptions() {
  ServiceOptions opts;
  opts.policy = std::make_shared<OverloadPolicy>();  // never degrades
  return opts;
}

// Holds workers without timing: every scan blocks in ScanLimit until
// Release(), then runs with the limit it asked for. A scan is a group of
// one, and the service calls ScanLimit with no lock held, so each gated
// scan holds exactly one worker until the test releases the gate.
class ScanGate : public OverloadPolicy {
 public:
  uint64_t ScanLimit(const OverloadSignals& signals,
                     uint64_t requested) const override {
    (void)signals;
    std::unique_lock<std::mutex> lock(mutex_);
    ++held_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    --held_;
    return requested;
  }

  // Waits until `n` scans are held at the gate; false after 60 s.
  bool WaitHeld(uint32_t n) const {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(60),
                        [&] { return held_ == n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable uint32_t held_ = 0;
  bool open_ = false;
};

TEST(ServiceTest, PointGetAndScanRoundTrip) {
  kv::KvOptions kopts;
  kopts.shards = 4;
  kv::KvStore store(kopts);
  for (uint64_t k = 0; k < 1000; ++k) store.Put(k, k * 10);

  Service service(NoDegradeOptions(), &store);
  Response hit = service.Call(Request::PointGet(42));
  EXPECT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.value, 420u);
  EXPECT_GT(hit.latency.total_nanos, 0u);

  Response miss = service.Call(Request::PointGet(5000));
  EXPECT_EQ(miss.status.code(), StatusCode::kNotFound);

  Response scan = service.Call(Request::Scan(10, 19));
  EXPECT_TRUE(scan.status.ok());
  ASSERT_EQ(scan.rows.size(), 10u);
  EXPECT_EQ(scan.rows[0], 100u);
  EXPECT_EQ(scan.rows[9], 190u);
}

TEST(ServiceTest, DeadlineAlreadyExpiredIsShedAtSubmit) {
  kv::KvStore store;
  store.Put(1, 1);
  Service service(NoDegradeOptions(), &store);

  Request req = Request::PointGet(1);
  req.deadline_nanos = ServiceNow() - 1;  // already in the past
  Response r = service.Call(std::move(req));
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().admission.shed_deadline, 1u);
}

// The bit-identical acceptance criterion: the same request set answered
// through the batched service and one-at-a-time directly against the
// backends must produce identical responses, misses included.
TEST(ServiceTest, BatchedResultsIdenticalToUnbatched) {
  kv::KvOptions kopts;
  kopts.shards = 8;
  kv::KvStore store(kopts);
  // Sparse keys spread across the full 64-bit shard space.
  const uint64_t stride = ~uint64_t{0} / 4096;
  for (uint64_t i = 0; i < 4096; i += 2) store.Put(i * stride, i);

  std::vector<Request> requests;
  for (uint64_t i = 0; i < 512; ++i) {  // every other key misses
    requests.push_back(Request::PointGet((i * 13 % 4096) * stride));
  }
  for (uint64_t i = 0; i < 16; ++i) {
    requests.push_back(
        Request::Scan(i * stride * 64, (i + 4) * stride * 64));
  }

  // Batched: through the service, submitted concurrently so the workers
  // actually pop multi-request groups.
  std::vector<std::future<Response>> futures;
  {
    ServiceOptions opts = NoDegradeOptions();
    opts.max_batch = 32;
    opts.batch_window_nanos = 2'000'000;
    Service service(opts, &store);
    futures.reserve(requests.size());
    for (const Request& r : requests) futures.push_back(service.Submit(r));
    service.Drain();
    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.completed, requests.size());
    // The point-get flood must actually have been batched.
    EXPECT_GT(m.mean_batch_size(), 1.0);
  }

  // Unbatched reference: direct library calls.
  for (size_t i = 0; i < requests.size(); ++i) {
    Response got = futures[i].get();
    const Request& req = requests[i];
    switch (req.type) {
      case RequestType::kPointGet: {
        auto ref = store.Get(req.key);
        EXPECT_EQ(got.status.ok(), ref.ok()) << "request " << i;
        if (ref.ok()) {
          EXPECT_EQ(got.value, ref.value()) << "request " << i;
        } else {
          EXPECT_EQ(got.status.code(), ref.status().code());
          EXPECT_EQ(got.status.message(), ref.status().message());
        }
        break;
      }
      case RequestType::kScan: {
        std::vector<uint64_t> ref;
        store.RangeScan(req.scan.lo, req.scan.hi, &ref);
        EXPECT_EQ(got.rows, ref) << "request " << i;
        break;
      }
      case RequestType::kPut:
      case RequestType::kDelete:
      case RequestType::kTxn:
        break;
    }
  }
}

TEST(ServiceTest, VolatilePutRoundTrip) {
  kv::KvStore store;
  Service service(NoDegradeOptions(), &store);
  Response put = service.Call(Request::Put(7, 70));
  EXPECT_TRUE(put.status.ok());
  EXPECT_EQ(put.latency.wal_nanos, 0u);  // no WAL on the volatile ctor
  EXPECT_EQ(service.Call(Request::PointGet(7)).value, 70u);
  EXPECT_EQ(store.Get(7).value(), 70u);
}

TEST(ServiceTest, DurablePutsFlowThroughWalAndSurviveReopen) {
  dur::InMemoryFileBackend fs;
  dur::DurableKvOptions dopts;
  dopts.kv.shards = 4;
  dopts.log.fsync_interval_us = 20;
  {
    auto db = dur::DurableKvStore::Open(&fs, "db", dopts);
    ASSERT_TRUE(db.ok());

    ServiceOptions opts = NoDegradeOptions();
    opts.max_batch = 32;
    opts.batch_window_nanos = 2'000'000;
    Service service(opts, db.value().get());

    // A concurrent flood so the workers pop real put groups that ride one
    // group commit each.
    std::vector<std::future<Response>> futures;
    for (uint64_t i = 0; i < 256; ++i) {
      futures.push_back(service.Submit(Request::Put(i, i + 1000)));
    }
    for (auto& f : futures) {
      const Response r = f.get();
      ASSERT_TRUE(r.status.ok());
      EXPECT_GT(r.latency.wal_nanos, 0u);  // a durable put waited on the WAL
    }
    service.Drain();

    // Reads through the same service see the writes.
    EXPECT_EQ(service.Call(Request::PointGet(5)).value, 1005u);

    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.wal.count(), 256u);
    EXPECT_GT(m.mean_batch_size(), 1.0);
    // Batching must show up in the log too: fewer syncs than puts.
    EXPECT_LT(db.value()->log_stats().groups,
              db.value()->log_stats().records);
  }

  // Every acked put survives a clean reopen.
  auto reopened = dur::DurableKvStore::Open(&fs, "db", dopts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->kv()->size(), 256u);
  EXPECT_EQ(reopened.value()->kv()->Get(200).value(), 1200u);
}


TEST(ServiceTest, MultiThreadedOpenLoopSmoke) {
  kv::KvOptions kopts;
  kopts.shards = 4;
  kv::KvStore store(kopts);
  for (uint64_t k = 0; k < 10000; ++k) store.Put(k, k);

  ServiceOptions opts = NoDegradeOptions();
  opts.admission.max_queue_depth = 0;  // unbounded: nothing may be lost
  Service service(opts, &store);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<uint64_t> ok{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t * kPerThread + i);
        Response r = service.Call(Request::PointGet(
            key, /*tenant=*/static_cast<uint32_t>(t)));
        if (r.status.ok() && r.value == key) ok.fetch_add(1);
      }
    });
  }
  for (auto& s : submitters) s.join();
  service.Drain();

  EXPECT_EQ(ok.load(), static_cast<uint64_t>(kThreads * kPerThread));
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.admission.shed_total(), 0u);
  EXPECT_EQ(m.total.count(), m.completed);
}

TEST(ServiceTest, OverloadShedsInsteadOfQueueingUnbounded) {
  auto gate = std::make_shared<ScanGate>();
  ServiceOptions opts;
  opts.policy = gate;
  opts.admission.max_queue_depth = 4;  // tiny bound
  opts.worker_threads = 1;
  opts.dispatch_max = 1;
  opts.max_batch = 1;
  opts.batch_window_nanos = 0;
  kv::KvStore store;
  Service service(opts, &store);

  // The one worker holds the first scan, so the queue fills to its bound
  // of 4 and the other 95 scans are shed at the door.
  std::vector<std::future<Response>> futures;
  futures.push_back(service.Submit(Request::Scan(0, 10)));
  EXPECT_TRUE(gate->WaitHeld(1));
  for (int i = 1; i < 100; ++i) {
    futures.push_back(service.Submit(Request::Scan(0, 10)));
  }
  gate->Release();
  uint64_t shed = 0, done = 0;
  for (auto& f : futures) {
    Response r = f.get();
    if (r.status.ok()) {
      ++done;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(shed, 95u);  // backpressure engaged
  EXPECT_EQ(done, 5u);   // but admitted work completed
  EXPECT_EQ(shed + done, 100u);
  EXPECT_EQ(service.metrics().admission.shed_queue_full, shed);
}

TEST(ServiceTest, StepDownPolicyClampsScansUnderLoad) {
  StepDownOverloadPolicy policy;
  OverloadSignals idle;
  idle.queue_depth = 0;
  idle.max_queue_depth = 100;
  OverloadSignals busy;
  busy.queue_depth = 80;
  busy.max_queue_depth = 100;

  EXPECT_EQ(policy.ScanLimit(idle, 0), 0u);
  EXPECT_EQ(policy.ScanLimit(busy, 0), policy.scan_limit_under_load);
  EXPECT_EQ(policy.ScanLimit(busy, 10), 10u);
  EXPECT_EQ(policy.MinAdmittedPriority(busy), Priority::kLow);
  busy.queue_depth = 95;
  EXPECT_EQ(policy.MinAdmittedPriority(busy), Priority::kNormal);
  // An unbounded queue yields no utilization signal: no degradation.
  OverloadSignals unbounded;
  unbounded.queue_depth = 1 << 20;
  unbounded.max_queue_depth = 0;
  EXPECT_EQ(policy.ScanLimit(unbounded, 0), 0u);
}

// --- Satellite regressions (ISSUE 3) --------------------------------------

// The tenant-depth map used to keep zero-count entries forever: 100k
// distinct tenants each passing through the queue once grew the map to
// 100k entries. Entries must die when their tenant's last request pops.
TEST(AdmissionQueueTest, TenantMapStaysBoundedUnderTenantChurn) {
  AdmissionOptions opts;
  opts.max_queue_depth = 64;
  AdmissionQueue queue(opts);

  std::vector<TicketPtr> out;
  for (uint32_t tenant = 0; tenant < 100000; ++tenant) {
    auto ticket = MakeTicket(Request::PointGet(tenant, tenant));
    ASSERT_TRUE(queue.TryAdmit(ticket).ok());
    if ((tenant & 7) == 7) {
      out.clear();
      ASSERT_TRUE(PopUpTo(&queue, &out, 8));
      ASSERT_EQ(out.size(), 8u);
    }
    if ((tenant & 4095) == 4095) {
      // Never more live map entries than queued requests.
      ASSERT_LE(queue.tenant_map_size(), static_cast<size_t>(queue.depth()));
      ASSERT_LE(queue.tenant_map_size(), 8u);
    }
  }
  while (queue.depth() > 0) {
    out.clear();
    ASSERT_TRUE(PopUpTo(&queue, &out, 64));
  }
  EXPECT_EQ(queue.tenant_map_size(), 0u);  // fully drained: empty map
}

// Shutdown rejections used to be counted as shed_queue_full, making a
// clean shutdown look like overload in the shed breakdown operators read.
TEST(AdmissionQueueTest, ShutdownRejectionsCountedSeparately) {
  AdmissionQueue queue(AdmissionOptions{});
  queue.Close();
  auto ticket = MakeTicket(Request::PointGet(1));
  EXPECT_EQ(queue.TryAdmit(ticket).code(), StatusCode::kFailedPrecondition);
  const AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.shed_shutdown, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);  // the overload signal stays clean
  EXPECT_EQ(stats.shed_total(), 1u);     // but totals still include it
}

// The number after the first scrape line that starts with `prefix`
// (e.g. "counter kv.puts " or "histogram svc.latency.total count="), or -1
// when no line does.
int64_t Scraped(const std::string& text, const std::string& prefix) {
  const std::string padded = "\n" + text;
  const size_t at = padded.find("\n" + prefix);
  if (at == std::string::npos) return -1;
  return std::stoll(padded.substr(at + 1 + prefix.size()));
}

// The wal_sync phase samples only requests that waited on the WAL, so its
// percentiles describe the group-commit path, not a sea of zeros from
// reads.
TEST(ServiceTest, WalSyncPhaseSamplesOnlyRequestsThatWaited) {
  kv::KvStore store;
  store.Put(1, 10);
  {
    Service service(NoDegradeOptions(), &store);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(service.Call(Request::PointGet(1)).status.ok());
    }
    service.Drain();
    const std::string text = service.DumpMetricsText();
    EXPECT_EQ(Scraped(text, "histogram svc.latency.wal_sync count="), 0)
        << text;
    EXPECT_EQ(Scraped(text, "histogram svc.latency.total count="), 5) << text;
  }

  dur::InMemoryFileBackend fs;
  dur::DurableKvOptions dopts;
  dopts.log.fsync_interval_us = 5;
  auto db = dur::DurableKvStore::Open(&fs, "db", dopts);
  ASSERT_TRUE(db.ok());
  Service service(NoDegradeOptions(), db.value().get());
  const Response put = service.Call(Request::Put(1, 10));
  ASSERT_TRUE(put.status.ok());
  EXPECT_GT(put.latency.wal_nanos, 0u);
  ASSERT_TRUE(service.Call(Request::PointGet(1)).status.ok());
  service.Drain();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.wal.count(), 1u);
  EXPECT_EQ(m.total.count(), 2u);
  EXPECT_EQ(Scraped(service.DumpMetricsText(),
                    "histogram svc.latency.wal_sync count="),
            1);
}

// One durable-service scrape covers every layer a request crosses: svc,
// the kv store, the WAL shards and the transaction manager, each line a
// live view of the component's own counters.
TEST(ServiceTest, DurableScrapeCoversSvcKvDurAndTxn) {
  dur::InMemoryFileBackend fs;
  dur::DurableKvOptions dopts;
  dopts.log.fsync_interval_us = 5;
  auto db = dur::DurableKvStore::Open(&fs, "db", dopts);
  ASSERT_TRUE(db.ok());
  Service service(NoDegradeOptions(), db.value().get());

  for (uint64_t k = 0; k < 16; ++k) {
    ASSERT_TRUE(service.Call(Request::Put(k, k)).status.ok());
  }
  int64_t committed = 0;
  for (uint64_t k = 0; k < 8; ++k) {
    const Response r = service.Call(Request::Txn(
        {{TxnOp::Kind::kAdd, k, 1}, {TxnOp::Kind::kPut, 100 + k, k}}));
    if (r.status.ok()) ++committed;
  }
  EXPECT_EQ(committed, 8);  // one client: nothing to conflict with
  service.Drain();

  const std::string text = service.DumpMetricsText();
  const kv::KvStats kv = db.value()->kv()->stats();
  EXPECT_EQ(Scraped(text, "counter svc.completed "), 24) << text;
  EXPECT_EQ(Scraped(text, "counter kv.puts "), static_cast<int64_t>(kv.puts))
      << text;
  EXPECT_EQ(Scraped(text, "counter kv.gets "), static_cast<int64_t>(kv.gets))
      << text;
  EXPECT_EQ(kv.puts, 32u);  // 16 plain puts + two writes per txn
  // Each OK kTxn response is one TxnManager commit.
  EXPECT_EQ(Scraped(text, "counter txn.committed "), committed) << text;
  EXPECT_EQ(Scraped(text, "counter txn.aborted.validation "), 0) << text;
  EXPECT_EQ(Scraped(text, "counter dur.wal.0.records "),
            static_cast<int64_t>(db.value()->log_stats().records))
      << text;
  EXPECT_GT(Scraped(text, "histogram dur.wal.0.sync_latency_ns count="), 0)
      << text;
  EXPECT_GT(Scraped(text, "histogram dur.wal.0.sync_batch count="), 0)
      << text;
}

// Drain is now a condition-variable wait (no 100 µs busy-poll). It must
// return promptly on an idle service, release concurrent waiters when
// in-flight work completes, and stay correct across the accepted_
// rollback path taken by rejected submissions.
TEST(ServiceTest, DrainReleasesConcurrentWaitersAndIdlesCleanly) {
  kv::KvOptions kopts;
  kopts.shards = 4;
  kv::KvStore store(kopts);
  for (uint64_t k = 0; k < 1000; ++k) store.Put(k, k);

  ServiceOptions opts = NoDegradeOptions();
  opts.admission.max_queue_depth = 8;  // small: force some rejections
  Service service(opts, &store);

  service.Drain();  // nothing outstanding: returns immediately

  std::atomic<bool> submitting{true};
  std::thread submitter([&] {
    for (int i = 0; i < 5000; ++i) {
      (void)service.Submit(Request::PointGet(static_cast<uint64_t>(i % 1000)));
    }
    submitting.store(false);
  });
  std::vector<std::thread> drainers;
  for (int d = 0; d < 3; ++d) {
    drainers.emplace_back([&] {
      while (submitting.load()) service.Drain();
      service.Drain();
    });
  }
  submitter.join();
  for (auto& t : drainers) t.join();
  service.Drain();

  const ServiceMetrics m = service.metrics();
  // Everything admitted finished; completions + sheds cover all 5000.
  EXPECT_EQ(m.completed + m.admission.shed_total(), 5000u);
}

// The obs registry view: the service's counters and latency histograms
// are registered as live views and render through DumpText.
TEST(ServiceTest, DumpMetricsTextExposesLiveMetrics) {
  kv::KvStore store;
  store.Put(1, 10);
  Service service(NoDegradeOptions(), &store);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(service.Call(Request::PointGet(1)).status.ok());
  }
  service.Drain();
  const std::string text = service.DumpMetricsText();
  EXPECT_NE(text.find("counter svc.completed 10\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("histogram svc.latency.total count=10"),
            std::string::npos)
      << text;
  // Ten sequential calls: ten groups of one.
  EXPECT_NE(text.find("counter svc.batches 10\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("counter svc.batched_requests 10\n"),
            std::string::npos)
      << text;
}

// --- Deletes and transactions through the service -------------------------

TEST(GroupSelectorTest, MixedPutDeleteWritesGroupAndNeverSplitOnEqualKey) {
  GroupSelector selector(nullptr, 2);

  // The equal-key run on key 5 mixes ops: the never-split rule must hold
  // for the MIX, not just for puts, or a delete could land in a different
  // group than the put it was submitted after and apply out of order.
  auto queue = QueueOf({Request::Put(5, 50), Request::Delete(5),
                        Request::Put(2, 20), Request::Put(5, 52),
                        Request::Delete(1)});
  // The whole key-5 run, in submission order, in one group past max_batch.
  auto group = PopOrdered(queue.get(), &selector);
  ASSERT_EQ(group.size(), 3u);
  EXPECT_EQ(group[0]->request.type, RequestType::kPut);
  EXPECT_EQ(group[0]->request.value, 50u);
  EXPECT_EQ(group[1]->request.type, RequestType::kDelete);
  EXPECT_EQ(group[2]->request.type, RequestType::kPut);
  EXPECT_EQ(group[2]->request.value, 52u);

  // Keys 1 and 2 stayed queued and form the next group, sorted.
  group = PopOrdered(queue.get(), &selector);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0]->request.type, RequestType::kDelete);
  EXPECT_EQ(group[0]->request.key, 1u);
  EXPECT_EQ(group[1]->request.key, 2u);
  EXPECT_EQ(queue->depth(), 0u);
}

TEST(ServiceTest, DeleteRoutesToDurableStoreAndReportsPresence) {
  dur::InMemoryFileBackend fs;
  dur::DurableKvOptions dopts;
  dopts.log.fsync_interval_us = 5;
  auto db = dur::DurableKvStore::Open(&fs, "db", dopts);
  ASSERT_TRUE(db.ok());

  Service service(NoDegradeOptions(), db.value().get());
  ASSERT_TRUE(service.Call(Request::Put(1, 10)).status.ok());

  Response hit = service.Call(Request::Delete(1));
  EXPECT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.value, 1u);  // key existed
  Response miss = service.Call(Request::Delete(1));
  EXPECT_TRUE(miss.status.ok());
  EXPECT_EQ(miss.value, 0u);  // already gone

  EXPECT_FALSE(db.value()->kv()->Get(1).ok());
  service.Drain();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed_by_type[static_cast<size_t>(RequestType::kDelete)],
            2u);
  EXPECT_EQ(m.completed_by_type[static_cast<size_t>(RequestType::kPut)], 1u);
}

// Batched deletes must answer exactly like singletons: `value` is 1 iff
// the key existed at apply time. A concurrent flood of put/delete pairs
// forces the service to form real mixed write groups.
TEST(ServiceTest, BatchedDeletesMatchSingletonSemantics) {
  dur::InMemoryFileBackend fs;
  dur::DurableKvOptions dopts;
  dopts.kv.shards = 2;
  dopts.log.fsync_interval_us = 5;
  auto db = dur::DurableKvStore::Open(&fs, "db", dopts);
  ASSERT_TRUE(db.ok());

  ServiceOptions opts = NoDegradeOptions();
  opts.max_batch = 32;
  opts.batch_window_nanos = 2'000'000;
  Service service(opts, db.value().get());

  // Even keys exist, odd keys never did.
  std::vector<std::future<Response>> puts;
  for (uint64_t k = 0; k < 64; k += 2) {
    puts.push_back(service.Submit(Request::Put(k, k)));
  }
  for (auto& f : puts) ASSERT_TRUE(f.get().status.ok());

  std::vector<std::future<Response>> deletes;
  for (uint64_t k = 0; k < 64; ++k) {
    deletes.push_back(service.Submit(Request::Delete(k)));
  }
  for (uint64_t k = 0; k < 64; ++k) {
    Response r = deletes[static_cast<size_t>(k)].get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.value, k % 2 == 0 ? 1u : 0u) << "key " << k;
  }
  EXPECT_EQ(db.value()->kv()->size(), 0u);
}

TEST(ServiceTest, TxnRequestRunsMultiKeyTransactionEndToEnd) {
  dur::InMemoryFileBackend fs;
  dur::DurableKvOptions dopts;
  dopts.log.fsync_interval_us = 5;
  auto db = dur::DurableKvStore::Open(&fs, "db", dopts);
  ASSERT_TRUE(db.ok());

  Service service(NoDegradeOptions(), db.value().get());
  ASSERT_TRUE(service.Call(Request::Put(1, 100)).status.ok());
  ASSERT_TRUE(service.Call(Request::Put(2, 200)).status.ok());

  // Reads, a server-side increment, a put and a delete in one atomic txn.
  std::vector<TxnOp> ops;
  ops.push_back({TxnOp::Kind::kGet, 1, 0});
  ops.push_back({TxnOp::Kind::kAdd, 2, 5});    // 200 -> 205, reports old 200
  ops.push_back({TxnOp::Kind::kAdd, 3, 7});    // missing -> treated as 0 -> 7
  ops.push_back({TxnOp::Kind::kPut, 4, 400});
  ops.push_back({TxnOp::Kind::kDelete, 1, 0});

  Response r = service.Call(Request::Txn(std::move(ops)));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.txn_attempts, 1u);
  ASSERT_EQ(r.txn_values.size(), 3u);  // one slot per kGet/kAdd
  ASSERT_EQ(r.txn_found.size(), 3u);
  EXPECT_EQ(r.txn_values[0], 100u);
  EXPECT_TRUE(r.txn_found[0]);
  EXPECT_EQ(r.txn_values[1], 200u);
  EXPECT_EQ(r.txn_values[2], 0u);
  EXPECT_FALSE(r.txn_found[2]);

  EXPECT_FALSE(db.value()->kv()->Get(1).ok());
  EXPECT_EQ(db.value()->kv()->Get(2).value(), 205u);
  EXPECT_EQ(db.value()->kv()->Get(3).value(), 7u);
  EXPECT_EQ(db.value()->kv()->Get(4).value(), 400u);

  service.Drain();
  EXPECT_EQ(service.metrics()
                .completed_by_type[static_cast<size_t>(RequestType::kTxn)],
            1u);
}

TEST(ServiceTest, TxnOnVolatileServiceFailsPrecondition) {
  kv::KvStore store;
  Service service(NoDegradeOptions(), &store);
  Response r = service.Call(Request::Txn({{TxnOp::Kind::kPut, 1, 10}}));
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
}

// Concurrent kAdd txns on one hot key: the service's retry budget absorbs
// validation aborts, and OCC guarantees no increment is ever lost.
TEST(ServiceTest, ConcurrentTxnIncrementsAreAtomic) {
  dur::InMemoryFileBackend fs;
  dur::DurableKvOptions dopts;
  dopts.kv.latch_free_reads = true;
  dopts.log.fsync_interval_us = 5;
  auto db = dur::DurableKvStore::Open(&fs, "db", dopts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(1, 0).ok());

  ServiceOptions opts = NoDegradeOptions();
  opts.worker_threads = 4;
  Service service(opts, db.value().get());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        for (;;) {
          Response r = service.Call(
              Request::Txn({{TxnOp::Kind::kAdd, 1, 1}}, /*max_attempts=*/8));
          if (r.status.ok()) {
            committed.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          ASSERT_EQ(r.status.code(), StatusCode::kAborted);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(committed.load(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(db.value()->kv()->Get(1).value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- Workers pop straight from the admission queue ------------------------

// Polls signals().in_flight until every future is ready; returns the most
// requests seen popped but not yet finished at once.
uint32_t MaxInFlightUntilDone(const Service& service,
                              std::vector<std::future<Response>>* futures) {
  uint32_t max_in_flight = 0;
  for (auto& f : *futures) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      max_in_flight = std::max(max_in_flight, service.signals().in_flight);
      std::this_thread::yield();
    }
  }
  return max_in_flight;
}

// A pop takes one group, so independent requests spread over the workers
// instead of queueing behind one of them: four held scans occupy all four
// workers at once, and the other four wait in the queue, not on a worker.
TEST(ServiceTest, IndependentRequestsRunInParallel) {
  auto gate = std::make_shared<ScanGate>();
  ServiceOptions opts;
  opts.policy = gate;
  opts.worker_threads = 4;
  opts.max_batch = 1;
  kv::KvStore store;
  for (uint64_t k = 0; k < 100; ++k) store.Put(k, k);
  Service service(opts, &store);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit(Request::Scan(10, 19)));
  }
  EXPECT_TRUE(gate->WaitHeld(4));
  EXPECT_EQ(service.signals().in_flight, 4u);
  EXPECT_EQ(service.signals().queue_depth, 4u);
  gate->Release();
  EXPECT_LE(MaxInFlightUntilDone(service, &futures), 4u);
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.rows.size(), 10u);
  }
}

// The scrape's linger counters: pops that lingered, and tickets lingers
// took after their windows.
int64_t Lingers(const Service& service) {
  return Scraped(service.DumpMetricsText(), "counter svc.lingers ");
}
int64_t LingerMates(const Service& service) {
  return Scraped(service.DumpMetricsText(), "counter svc.linger_mates ");
}

// An arrival wakes the idle worker, not the one lingering for batch-mates:
// a scan submitted during another worker's 1 s linger is served at once.
// The linger is a put's: a write group lingers even beside an idle worker,
// to keep the later writes to its keys.
TEST(ServiceTest, ArrivalWakesIdleWorkerWhileAnotherLingers) {
  kv::KvStore store;
  for (uint64_t k = 0; k < 100; ++k) store.Put(k, k);
  ServiceOptions opts = NoDegradeOptions();
  opts.worker_threads = 2;
  opts.batch_window_nanos = 1'000'000'000;
  Service service(opts, &store);

  std::future<Response> put = service.Submit(Request::Put(7, 700));
  // Popped (the queue is empty) and lingering: a lone put has room left.
  while (service.signals().queue_depth != 0) std::this_thread::yield();

  const uint64_t start = ServiceNow();
  Response scan = service.Call(Request::Scan(10, 19));
  const uint64_t scan_nanos = ServiceNow() - start;
  ASSERT_TRUE(scan.status.ok());
  EXPECT_EQ(scan.rows.size(), 10u);
  EXPECT_LT(scan_nanos, 500'000'000u);
  // The put's worker was still lingering when the scan finished.
  EXPECT_EQ(put.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_TRUE(put.get().status.ok());
  EXPECT_EQ(store.Get(7).value(), 700u);
  EXPECT_EQ(Lingers(service), 1);  // the put's; a scan never lingers
  EXPECT_EQ(LingerMates(service), 0);
}

// A lone get beside an idle worker does not linger: every arrival would
// wake the idle worker, so the window could bring it no mate. Each get
// returns well inside a 1 s window.
TEST(ServiceTest, LoneGetWithIdlePeerDoesNotLinger) {
  kv::KvStore store;
  store.Put(7, 70);
  ServiceOptions opts = NoDegradeOptions();
  opts.worker_threads = 2;
  opts.batch_window_nanos = 1'000'000'000;
  Service service(opts, &store);

  for (int i = 0; i < 4; ++i) {
    const uint64_t start = ServiceNow();
    const Response get = service.Call(Request::PointGet(7));
    EXPECT_LT(ServiceNow() - start, 500'000'000u);
    EXPECT_EQ(get.value, 70u);
  }
  EXPECT_EQ(LingerMates(service), 0);
}

// While the other worker is busy, a lone get lingers: arrivals queue for
// it, so a second same-shard get submitted inside the window rides the
// first get's batch. A queue one ticket deep (dispatch_max 1) ends the
// linger; the held scan keeps the other worker busy until the gets are
// answered.
TEST(ServiceTest, GetLingersWhilePeersAreBusy) {
  auto gate = std::make_shared<ScanGate>();
  kv::KvStore store;
  store.Put(7, 70);
  store.Put(8, 80);
  ServiceOptions opts;
  opts.policy = gate;
  opts.worker_threads = 2;
  opts.dispatch_max = 1;
  opts.batch_window_nanos = 1'000'000'000;
  Service service(opts, &store);

  std::future<Response> scan = service.Submit(Request::Scan(7, 8));
  // One worker holds the scan...
  EXPECT_TRUE(gate->WaitHeld(1));
  const int64_t lingers = Lingers(service);
  const int64_t mates = LingerMates(service);
  std::future<Response> first = service.Submit(Request::PointGet(7));
  // ...so the other pops the get and lingers.
  while (service.signals().queue_depth != 0) std::this_thread::yield();
  std::future<Response> second = service.Submit(Request::PointGet(8));
  EXPECT_EQ(first.get().value, 70u);
  EXPECT_EQ(second.get().value, 80u);
  gate->Release();
  EXPECT_EQ(scan.get().rows.size(), 2u);
  EXPECT_EQ(service.metrics().batches, 2u);  // the scan; both gets
  EXPECT_EQ(Lingers(service) - lingers, 1);
  EXPECT_EQ(LingerMates(service) - mates, 1);
}

// A later write to a key the lingering group writes is left to that group,
// not served at once by the idle worker: it would overtake the earlier
// write.
TEST(ServiceTest, LaterEqualKeyWriteJoinsTheLingeringGroup) {
  kv::KvStore store;
  ServiceOptions opts = NoDegradeOptions();
  opts.worker_threads = 2;
  opts.batch_window_nanos = 200'000'000;
  Service service(opts, &store);

  std::future<Response> put = service.Submit(Request::Put(7, 100));
  // Popped (the queue is empty) and lingering: a lone put has room left.
  while (service.signals().queue_depth != 0) std::this_thread::yield();
  std::future<Response> overwrite = service.Submit(Request::Put(7, 101));
  EXPECT_TRUE(put.get().status.ok());
  EXPECT_TRUE(overwrite.get().status.ok());
  EXPECT_EQ(store.Get(7).value(), 101u);

  // The same for a delete after a put.
  put = service.Submit(Request::Put(8, 1));
  while (service.signals().queue_depth != 0) std::this_thread::yield();
  std::future<Response> del = service.Submit(Request::Delete(8));
  EXPECT_TRUE(put.get().status.ok());
  EXPECT_EQ(del.get().value, 1u);  // the delete saw the put
  EXPECT_FALSE(store.Get(8).ok());
  EXPECT_EQ(service.metrics().batches, 2u);  // each write pair rode one
}

// A group with no room left does not linger: with max_batch 1, a lone put
// completes well inside the batch window.
TEST(ServiceTest, FullGroupDoesNotLinger) {
  kv::KvStore store;
  ServiceOptions opts = NoDegradeOptions();
  opts.max_batch = 1;
  opts.batch_window_nanos = 2'000'000'000;
  Service service(opts, &store);

  const uint64_t start = ServiceNow();
  EXPECT_TRUE(service.Call(Request::Put(7, 100)).status.ok());
  EXPECT_LT(ServiceNow() - start, 1'000'000'000u);
}

// max_pending_batches caps the groups popped but not yet finished, even
// with more worker threads configured than that.
TEST(ServiceTest, MaxPendingBatchesCapsPoppedGroups) {
  auto gate = std::make_shared<ScanGate>();
  ServiceOptions opts;
  opts.policy = gate;
  opts.worker_threads = 4;
  opts.max_pending_batches = 2;
  opts.max_batch = 1;  // one request per group: in_flight counts groups
  kv::KvStore store;
  Service service(opts, &store);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(Request::Scan(0, 10)));
  }
  // Two groups held, and no worker left to pop a third.
  EXPECT_TRUE(gate->WaitHeld(2));
  EXPECT_EQ(service.signals().in_flight, 2u);
  EXPECT_EQ(service.signals().queue_depth, 4u);
  gate->Release();
  EXPECT_LE(MaxInFlightUntilDone(service, &futures), 2u);
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(service.metrics().batches, 6u);
}

// Destroying a durable service while four clients still hold lingering and
// queued gets, puts and txns: every future resolves, nothing hangs, and
// every acked put and txn is in the store and survives a reopen. ~Service
// itself checks that every admitted request finished (accepted == finished).
TEST(ServiceTest, ShutdownUnderLoadResolvesEveryFuture) {
  dur::InMemoryFileBackend fs;
  dur::DurableKvOptions dopts;
  dopts.kv.shards = 4;
  dopts.log.fsync_interval_us = 50;
  constexpr int kClients = 4;
  constexpr uint64_t kPerClient = 300;
  constexpr uint64_t kCounterBase = uint64_t{1} << 40;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> acked_puts(kClients);
  std::vector<uint64_t> acked_txns(kClients, 0);
  {
    auto db = dur::DurableKvStore::Open(&fs, "db", dopts);
    ASSERT_TRUE(db.ok());
    ServiceOptions opts = NoDegradeOptions();
    opts.batch_window_nanos = 5'000'000;  // long: groups linger at shutdown
    opts.admission.max_queue_depth = 1024;  // below the 1200 submitted
    auto service = std::make_unique<Service>(opts, db.value().get());

    std::atomic<int> submitted{0};
    std::atomic<uint64_t> unresolved{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::future<Response>> futures;
        std::vector<Request> requests;
        for (uint64_t i = 0; i < kPerClient; ++i) {
          const uint64_t key = c * kPerClient + i + 1;
          switch (i % 3) {
            case 0:
              requests.push_back(Request::PointGet(key - 1));
              break;
            case 1:
              requests.push_back(Request::Put(key, key * 7));
              break;
            default:
              requests.push_back(Request::Txn(
                  {{TxnOp::Kind::kAdd, kCounterBase + c, 1}}, 4));
              break;
          }
          futures.push_back(service->Submit(requests.back()));
        }
        submitted.fetch_add(1);
        for (uint64_t i = 0; i < kPerClient; ++i) {
          if (futures[i].wait_for(std::chrono::seconds(60)) !=
              std::future_status::ready) {
            unresolved.fetch_add(1);
            continue;
          }
          const Response r = futures[i].get();
          const Request& req = requests[i];
          if (r.status.ok()) {
            if (req.type == RequestType::kPut) {
              acked_puts[c].emplace_back(req.key, req.value);
            } else if (req.type == RequestType::kTxn) {
              ++acked_txns[c];
            }
            continue;
          }
          const StatusCode code = r.status.code();
          EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                      code == StatusCode::kFailedPrecondition ||
                      code == StatusCode::kDeadlineExceeded ||
                      (code == StatusCode::kNotFound &&
                       req.type == RequestType::kPointGet) ||
                      (code == StatusCode::kAborted &&
                       req.type == RequestType::kTxn))
              << r.status.ToString();
        }
      });
    }
    while (submitted.load() < kClients) std::this_thread::yield();
    service.reset();  // destroyed while the clients wait on their futures
    for (auto& t : clients) t.join();
    EXPECT_EQ(unresolved.load(), 0u);

    size_t acked = 0;
    for (int c = 0; c < kClients; ++c) {
      acked += acked_puts[c].size();
      for (const auto& [key, value] : acked_puts[c]) {
        EXPECT_EQ(db.value()->kv()->Get(key).value(), value) << key;
      }
    }
    EXPECT_GT(acked, 0u);
  }
  auto reopened = dur::DurableKvStore::Open(&fs, "db", dopts);
  ASSERT_TRUE(reopened.ok());
  for (int c = 0; c < kClients; ++c) {
    for (const auto& [key, value] : acked_puts[c]) {
      EXPECT_EQ(reopened.value()->kv()->Get(key).value(), value) << key;
    }
    const auto counter = reopened.value()->kv()->Get(kCounterBase + c);
    EXPECT_EQ(counter.ok() ? counter.value() : 0, acked_txns[c]);
  }
}

}  // namespace
}  // namespace hwstar::svc
