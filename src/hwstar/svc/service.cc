#include "hwstar/svc/service.h"

#include <algorithm>
#include <vector>

#include "hwstar/common/macros.h"
#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/tune/tunable.h"
#include "hwstar/txn/transaction.h"

namespace hwstar::svc {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// Each worker holds at most one popped group, so capping the worker count
// at max_pending_batches caps the groups popped but not yet finished.
uint32_t WorkerCount(const ServiceOptions& options) {
  uint32_t n = options.worker_threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  if (options.max_pending_batches != 0) {
    n = std::min(n, options.max_pending_batches);
  }
  return n;
}

}  // namespace

Service::Service(ServiceOptions options, kv::KvStore* kv)
    : options_(std::move(options)),
      kv_(kv),
      policy_(options_.policy != nullptr
                  ? options_.policy
                  : std::make_shared<StepDownOverloadPolicy>()),
      queue_(options_.admission) {
  HWSTAR_CHECK(kv_ != nullptr);
  RegisterMetrics(&registry_);
  kv_->RegisterMetrics(&registry_);
  const uint32_t n = WorkerCount(options_);
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Service::Service(ServiceOptions options, dur::DurableKvStore* durable)
    : Service(std::move(options), durable->kv()) {
  // Safe to set after delegation: workers only read durable_ while
  // executing popped tickets, and nothing can be admitted before this ctor
  // body runs on the submitting side.
  durable_ = durable;
  txn_mgr_ = std::make_unique<txn::TxnManager>(durable);
  durable->RegisterMetrics(&registry_);
  txn_mgr_->RegisterMetrics(&registry_);
}

Service::~Service() {
  Drain();
  queue_.Close();
  for (auto& worker : workers_) worker.join();
  // Every admitted request completed or was shed: no future is stranded.
  HWSTAR_CHECK(accepted_.load() == finished_.load());
}

void Service::RegisterMetrics(obs::Registry* registry) const {
  registry->RegisterHistogram("svc.latency.admit_wait", &admit_wait_);
  registry->RegisterHistogram("svc.latency.batch_wait", &batch_wait_);
  registry->RegisterHistogram("svc.latency.exec", &exec_);
  registry->RegisterHistogram("svc.latency.wal_sync", &wal_sync_);
  registry->RegisterHistogram("svc.latency.total", &total_);
  registry->RegisterCounter("svc.completed", &completed_);
  for (uint32_t i = 0; i < kNumRequestTypes; ++i) {
    registry->RegisterCounter(
        std::string("svc.completed.") +
            RequestTypeName(static_cast<RequestType>(i)),
        &completed_by_type_[i]);
  }
  registry->RegisterCounter("svc.degraded", &degraded_);
  registry->RegisterCounter("svc.batches", &batches_);
  registry->RegisterCounter("svc.batched_requests", &batched_requests_);
  queue_.RegisterMetrics(registry);
}

std::future<Response> Service::Submit(Request request) {
  auto ticket = std::make_unique<Ticket>();
  ticket->request = std::move(request);
  ticket->submit_nanos = ServiceNow();
  ticket->estimated_bytes = EstimatedRequestBytes(ticket->request);
  std::future<Response> future = ticket->promise.get_future();

  // Provisionally count the request as accepted so Drain() never sees
  // finished_ pass accepted_; rolled back on rejection.
  accepted_.fetch_add(1);
  const Status st =
      queue_.TryAdmit(ticket, policy_->MinAdmittedPriority(signals()));
  if (!st.ok()) {
    accepted_.fetch_sub(1);
    NotifyIfDrained();
    CompleteShed(std::move(ticket), st);
  }
  return future;
}

Response Service::Call(Request request) {
  return Submit(std::move(request)).get();
}

void Service::Drain() {
  // CV wait instead of a 100 µs busy-poll: a slow drain (long scans, a
  // stalled WAL device) otherwise burns a core doing nothing.
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock,
                 [this] { return accepted_.load() == finished_.load(); });
}

void Service::NotifyIfDrained() {
  if (accepted_.load() != finished_.load()) return;
  // The empty critical section orders this check against a waiter that
  // evaluated the predicate but has not gone to sleep yet; without it the
  // notify could land in that window and be lost.
  { std::lock_guard<std::mutex> lock(drain_mutex_); }
  drain_cv_.notify_all();
}

void Service::WorkerLoop() {
  GroupSelector selector(kv_, options_.max_batch);
  std::vector<TicketPtr> group;
  for (;;) {
    selector.Reset();
    group.clear();
    if (!queue_.PopGroup(&group, &selector, options_.dispatch_max,
                         options_.batch_window_nanos)) {
      return;
    }
    const uint64_t now = ServiceNow();
    size_t live = 0;
    for (auto& t : group) {
      t->admit_nanos = now;
      if (t->request.deadline_nanos != 0 &&
          now > t->request.deadline_nanos) {
        // Never execute expired work: the client stopped waiting, so the
        // cycles would be pure waste — shed it here instead.
        queue_.NoteExpired(1);
        CompleteShed(std::move(t),
                     Status::DeadlineExceeded("deadline expired in queue"));
        finished_.fetch_add(1);
        NotifyIfDrained();
      } else {
        in_flight_.fetch_add(1, kRelaxed);
        group[live++] = std::move(t);
      }
    }
    group.resize(live);
    if (group.empty()) continue;

    selector.Order(&group);
    batches_.Inc();
    batched_requests_.Add(group.size());
    ExecuteBatch(&group);
  }
}

void Service::ExecuteBatch(std::vector<TicketPtr>* group) {
  const RequestType type = group->front()->request.type;
  const size_t n = group->size();

  if (type == RequestType::kPointGet && n > 1) {
    // The batched fast path: one MultiGet resolves the whole (same-shard,
    // key-sorted) group, latch-free by default, through the index's
    // batched probe kernel (ops/probe_kernels.h), so the group's
    // index-descent cache misses overlap instead of serializing. A lone
    // get stays on Get.
    const uint64_t exec_start = ServiceNow();
    std::vector<uint64_t> keys(n);
    std::vector<uint64_t> values(n);
    std::unique_ptr<bool[]> found(new bool[n]);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = (*group)[i]->request.key;
    }
    kv_->MultiGet(keys.data(), n, values.data(), found.get());
    const uint64_t exec_nanos = ServiceNow() - exec_start;
    for (size_t i = 0; i < n; ++i) {
      Response r;
      if (found[i]) {
        r.value = values[i];
      } else {
        // Same status a direct Get returns, so batching is invisible to
        // clients (the bit-identical invariant svc_test checks).
        r.status = Status::NotFound("key not found");
      }
      Complete(std::move((*group)[i]), std::move(r), exec_start, exec_nanos);
    }
    return;
  }

  if ((type == RequestType::kPut || type == RequestType::kDelete) &&
      durable_ != nullptr) {
    // Every durable write group, singletons included: the whole
    // (same-shard, key-sorted, mixed put/delete) group is staged in the
    // WAL and rides ONE group-commit wait — the service's batching and the
    // log's fsync amortization compound here.
    const uint64_t exec_start = ServiceNow();
    std::vector<dur::WriteOp> ops(n);
    std::unique_ptr<bool[]> erased(new bool[n]);
    for (size_t i = 0; i < n; ++i) {
      const Request& req = (*group)[i]->request;
      const bool is_delete = req.type == RequestType::kDelete;
      ops[i] = dur::WriteOp{req.key, is_delete ? 0 : req.value, is_delete};
    }
    uint64_t wal_wait_nanos = 0;
    const Status st =
        durable_->MutateBatch(ops.data(), n, &wal_wait_nanos, erased.get());
    const uint64_t exec_nanos = ServiceNow() - exec_start;
    for (size_t i = 0; i < n; ++i) {
      Response r;
      r.status = st;
      if (ops[i].is_delete) r.value = erased[i] ? 1 : 0;
      r.latency.wal_nanos = wal_wait_nanos;
      Complete(std::move((*group)[i]), std::move(r), exec_start, exec_nanos);
    }
    return;
  }

  for (auto& t : *group) {
    const uint64_t exec_start = ServiceNow();
    Response r;
    ExecuteOne(t->request, &r);
    const uint64_t exec_nanos = ServiceNow() - exec_start;
    Complete(std::move(t), std::move(r), exec_start, exec_nanos);
  }
}

void Service::ExecuteOne(const Request& request, Response* response) {
  switch (request.type) {
    case RequestType::kPointGet: {
      auto result = kv_->Get(request.key);
      if (result.ok()) {
        response->value = result.value();
      } else {
        response->status = result.status();
      }
      return;
    }
    case RequestType::kPut:  // volatile: durable writes take MutateBatch
      kv_->Put(request.key, request.value);
      return;
    case RequestType::kDelete:  // volatile, like kPut
      response->value = kv_->Delete(request.key) ? 1 : 0;
      return;
    case RequestType::kTxn: {
      if (txn_mgr_ == nullptr) {
        response->status = Status::FailedPrecondition(
            "transactions require a durable backend");
        return;
      }
      Status st;
      for (uint32_t attempt = 0; attempt < request.txn.max_attempts;
           ++attempt) {
        response->txn_attempts = attempt + 1;
        response->txn_values.clear();
        response->txn_found.clear();
        txn::Transaction tx = txn_mgr_->Begin();
        st = Status::OK();
        for (const TxnOp& op : request.txn.ops) {
          switch (op.kind) {
            case TxnOp::Kind::kGet: {
              uint64_t v = 0;
              bool f = false;
              st = tx.Get(op.key, &v, &f);
              if (st.ok()) {
                response->txn_values.push_back(f ? v : 0);
                response->txn_found.push_back(f);
              }
              break;
            }
            case TxnOp::Kind::kPut:
              tx.Put(op.key, op.value);
              break;
            case TxnOp::Kind::kAdd: {
              uint64_t v = 0;
              bool f = false;
              st = tx.Get(op.key, &v, &f);
              if (st.ok()) {
                const uint64_t old = f ? v : 0;
                tx.Put(op.key, old + op.value);
                response->txn_values.push_back(old);
                response->txn_found.push_back(f);
              }
              break;
            }
            case TxnOp::Kind::kDelete:
              tx.Delete(op.key);
              break;
          }
          if (!st.ok()) break;
        }
        if (st.ok()) {
          st = tx.Commit(&response->latency.wal_nanos);
        } else {
          tx.Abort();
        }
        // Retry only optimistic losses; OK and hard errors are final.
        if (st.code() != StatusCode::kAborted) break;
      }
      response->status = st;
      if (!st.ok()) {
        response->txn_values.clear();
        response->txn_found.clear();
      }
      return;
    }
    case RequestType::kScan: {
      // Load signals take the admission mutex: read them only here, for
      // the one request type the policy degrades.
      const uint64_t limit =
          policy_->ScanLimit(signals(), request.scan.limit);
      response->degraded = limit != request.scan.limit;
      kv_->RangeScanLimit(request.scan.lo, request.scan.hi, limit,
                          &response->rows);
      return;
    }
  }
}

void Service::Complete(TicketPtr ticket, Response response,
                       uint64_t exec_start, uint64_t exec_nanos) {
  const uint64_t now = ServiceNow();
  LatencyBreakdown& lat = response.latency;
  lat.admit_wait_nanos = ticket->admit_nanos - ticket->submit_nanos;
  lat.batch_wait_nanos = exec_start - ticket->admit_nanos;
  lat.exec_nanos = exec_nanos;
  lat.total_nanos = now - ticket->submit_nanos;
  admit_wait_.Record(lat.admit_wait_nanos);
  batch_wait_.Record(lat.batch_wait_nanos);
  exec_.Record(lat.exec_nanos);
  total_.Record(lat.total_nanos);
  if (lat.wal_nanos != 0) wal_sync_.Record(lat.wal_nanos);
  if (response.degraded) degraded_.Inc();
  completed_.Inc();
  const auto type_idx = static_cast<uint32_t>(ticket->request.type);
  if (type_idx < kNumRequestTypes) completed_by_type_[type_idx].Inc();
  ticket->promise.set_value(std::move(response));
  in_flight_.fetch_sub(1, kRelaxed);
  finished_.fetch_add(1);
  NotifyIfDrained();
}

void Service::CompleteShed(TicketPtr ticket, Status status) {
  Response r;
  r.status = std::move(status);
  const uint64_t now = ServiceNow();
  r.latency.total_nanos = now - ticket->submit_nanos;
  if (ticket->admit_nanos != 0) {
    r.latency.admit_wait_nanos = ticket->admit_nanos - ticket->submit_nanos;
  }
  ticket->promise.set_value(std::move(r));
}

OverloadSignals Service::signals() const {
  OverloadSignals s = queue_.signals();
  s.in_flight = in_flight_.load(kRelaxed);
  return s;
}

ServiceMetrics Service::metrics() const {
  ServiceMetrics m;
  m.admission = queue_.stats();
  m.completed = completed_.value();
  for (uint32_t i = 0; i < kNumRequestTypes; ++i) {
    m.completed_by_type[i] = completed_by_type_[i].value();
  }
  m.degraded = degraded_.value();
  m.batches = batches_.value();
  m.batched_requests = batched_requests_.value();
  m.admit_wait = admit_wait_.Snapshot();
  m.batch_wait = batch_wait_.Snapshot();
  m.exec = exec_.Snapshot();
  m.wal = wal_sync_.Snapshot();
  m.total = total_.Snapshot();
  return m;
}

std::string Service::DumpMetricsText() const {
  // Metrics first, knobs second: one scrape records both what happened
  // and the tunable configuration that made it happen.
  return registry_.DumpText() + DumpTunablesText();
}

std::string Service::DumpTunablesText() const {
  return tune::Registry::Global().DumpText();
}

}  // namespace hwstar::svc
