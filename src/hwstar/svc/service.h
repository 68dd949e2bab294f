#ifndef HWSTAR_SVC_SERVICE_H_
#define HWSTAR_SVC_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hwstar/kv/kv_store.h"
#include "hwstar/obs/histogram.h"
#include "hwstar/obs/metric.h"
#include "hwstar/obs/registry.h"
#include "hwstar/svc/admission.h"
#include "hwstar/svc/overload_policy.h"
#include "hwstar/svc/request.h"

namespace hwstar::dur {
class DurableKvStore;
}  // namespace hwstar::dur

namespace hwstar::txn {
class TxnManager;
}  // namespace hwstar::txn

namespace hwstar::svc {

struct ServiceOptions {
  AdmissionOptions admission;
  /// Most requests one group (one executed batch) holds; 0 means 1. An
  /// equal-key write run may grow a write group past it (GroupSelector).
  uint32_t max_batch = 64;
  /// Worker threads that pop, group and execute requests (the cores the
  /// service owns; 0 = hardware concurrency).
  uint32_t worker_threads = 2;
  /// How long a worker that popped a group with room left lingers for
  /// batch-mates before executing it. It lingers only when a mate can
  /// reach it: while no other worker is idle (arrivals queue for it), or
  /// when the group holds writes (later writes to its keys are left to
  /// it). One worker lingers at a time; the others execute at once. The
  /// knob trading a little latency for amortized fixed costs.
  uint64_t batch_window_nanos = 50'000;
  /// How many queued tickets a pop scans for the head's batch-mates
  /// (>= max_batch lets a pop fill a whole batch). A queue this deep also
  /// cuts a linger short.
  uint32_t dispatch_max = 64;
  /// Bound on groups popped but not yet finished (0 = no bound beyond
  /// worker_threads). Each worker holds at most one group, so the service
  /// runs min(worker_threads, max_pending_batches) workers; overload then
  /// backs up into the admission queue — the place with quotas and
  /// shedding — instead of into work control can't reach.
  uint32_t max_pending_batches = 8;
  /// Degradation policy; null installs StepDownOverloadPolicy.
  std::shared_ptr<const OverloadPolicy> policy;
};

/// A point-in-time view of the service: admission outcomes, batch
/// amortization, and per-phase latency histograms (nanoseconds; quantiles
/// within the obs bucket error bound of the exact nearest-rank value).
struct ServiceMetrics {
  AdmissionStats admission;
  uint64_t completed = 0;
  /// Completions by request type (indexed by RequestType).
  uint64_t completed_by_type[kNumRequestTypes] = {};
  uint64_t degraded = 0;  ///< completed with a clamped scan limit
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
  obs::HistogramSnapshot admit_wait;
  obs::HistogramSnapshot batch_wait;
  obs::HistogramSnapshot exec;
  /// Group-commit wait, sampled only for requests that waited on the WAL,
  /// so it describes the commit path, not a sea of zeros from reads.
  obs::HistogramSnapshot wal;
  obs::HistogramSnapshot total;

  double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }
  /// Fraction of submitted requests shed (any reason).
  double shed_rate() const {
    return admission.submitted == 0
               ? 0.0
               : static_cast<double>(admission.shed_total()) /
                     static_cast<double>(admission.submitted);
  }
};

/// The hardware-conscious request-serving front end: clients submit typed
/// requests from any thread; the service admits them against bounded
/// queues (backpressure instead of unbounded growth), batches compatible
/// ones to amortize per-request fixed costs, executes on a fixed set of
/// workers sized to the machine, and accounts every request's life
/// phase-by-phase so p50/p99 and shed rate are first-class outputs.
///
/// Pipeline: Submit → AdmissionQueue → worker (pop one GroupSelector group,
/// linger up to the batch window, execute it inline as one batch) →
/// KvStore / DurableKvStore / TxnManager. A request crosses one thread
/// hand-off, client to worker; backpressure is workers not popping.
class Service {
 public:
  /// `kv` backs point-get, put, delete and scan requests; it must not be
  /// null. Writes through this constructor are volatile (no WAL).
  /// Borrowed; must outlive the service.
  Service(ServiceOptions options, kv::KvStore* kv);

  /// Durable variant: reads go straight to `durable->kv()`; puts and
  /// deletes flow through the WAL's group commit, so a write's future
  /// resolving OK means it survives a crash. Every write group (same-shard,
  /// key-sorted) commits through one MutateBatch, one WAL wait per group —
  /// the service's batching and the log's group commit compound.
  /// kTxn requests are served too (a TxnManager is constructed over the
  /// store); on a volatile service they fail with FailedPrecondition.
  /// Borrowed; must outlive the service.
  Service(ServiceOptions options, dur::DurableKvStore* durable);

  /// Drains in-flight work, then stops the workers.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submits a request; never blocks on load (sheds instead). The future
  /// always completes: with results, or with a shed/expired status.
  std::future<Response> Submit(Request request);

  /// Synchronous convenience: Submit + wait.
  Response Call(Request request);

  /// Blocks until every admitted request has completed.
  void Drain();

  /// Point-in-time metrics snapshot.
  ServiceMetrics metrics() const;

  /// Text exposition of every registered metric — the scrape-style view
  /// of the obs registry: the service's latency histograms and
  /// completion/batch counters (`svc.*`), the kv store's (`kv.*`) and,
  /// when durable, the WAL shards' (`dur.wal.<shard>.*`) and the
  /// transaction manager's (`txn.*`) — followed by the current tunable
  /// values, so a scrape records the knob configuration that produced the
  /// numbers next to the numbers themselves.
  std::string DumpMetricsText() const;

  /// Text exposition of just the tunable registry (name, current value,
  /// default, bounds per line) — the knob half of DumpMetricsText.
  std::string DumpTunablesText() const;

  /// The service's metric registry (all entries are borrowed views of
  /// live obs metrics; read-only for callers).
  const obs::Registry& registry() const { return registry_; }

  /// Current load signals (what the overload policy sees).
  OverloadSignals signals() const;

  const ServiceOptions& options() const { return options_; }

 private:
  /// One worker: pop a group, shed what expired in the queue, order the
  /// rest and execute it as one batch; until the queue is closed and
  /// drained.
  void WorkerLoop();
  void ExecuteBatch(std::vector<TicketPtr>* group);
  void ExecuteOne(const Request& request, Response* response);
  void Complete(TicketPtr ticket, Response response, uint64_t exec_start,
                uint64_t exec_nanos);
  void CompleteShed(TicketPtr ticket, Status status);
  /// Wakes Drain() waiters when finished_ has caught up with accepted_.
  /// Called after every finished_ increment (and the accepted_ rollback on
  /// rejected submits); the lock is only touched at the caught-up edge, so
  /// the steady-state completion path stays mutex-free.
  void NotifyIfDrained();
  void RegisterMetrics(obs::Registry* registry) const;

  ServiceOptions options_;
  kv::KvStore* kv_;
  dur::DurableKvStore* durable_ = nullptr;  ///< null = volatile service
  /// OCC coordinator for kTxn requests; non-null iff durable_ is set
  /// (transactions need the WAL's atomic commit framing).
  std::unique_ptr<txn::TxnManager> txn_mgr_;
  std::shared_ptr<const OverloadPolicy> policy_;
  AdmissionQueue queue_;

  std::atomic<uint64_t> accepted_{0};   ///< admitted into the queue
  std::atomic<uint64_t> finished_{0};   ///< completed or shed post-admit
  std::atomic<uint32_t> in_flight_{0};  ///< popped, not yet finished
  obs::Counter completed_;
  /// Per-request-type completion counters (indexed by RequestType),
  /// registered as svc.completed.<type name>. Sheds are not counted here
  /// (they never execute); svc.completed stays the cross-type total.
  obs::Counter completed_by_type_[kNumRequestTypes];
  obs::Counter degraded_;
  obs::Counter batches_;
  obs::Counter batched_requests_;
  /// LatencyBreakdown phases, registered as svc.latency.<phase>.
  obs::Histogram admit_wait_;
  obs::Histogram batch_wait_;
  obs::Histogram exec_;
  obs::Histogram wal_sync_;  ///< only requests with wal_nanos != 0
  obs::Histogram total_;
  /// Borrowed views of the metrics above and of the backing stores'.
  obs::Registry registry_;

  mutable std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::vector<std::thread> workers_;  ///< started after everything else
};

}  // namespace hwstar::svc

#endif  // HWSTAR_SVC_SERVICE_H_
