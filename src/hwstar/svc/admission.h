#ifndef HWSTAR_SVC_ADMISSION_H_
#define HWSTAR_SVC_ADMISSION_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "hwstar/obs/metric.h"
#include "hwstar/obs/registry.h"
#include "hwstar/svc/overload_policy.h"
#include "hwstar/svc/request.h"

namespace hwstar::kv {
class KvStore;
}  // namespace hwstar::kv

namespace hwstar::svc {

/// Admission bounds. Every bound set to 0 disables that check; with all
/// of them 0 the queue is unbounded and never sheds — the
/// hardware-oblivious baseline bench_e14 measures queueing collapse on.
struct AdmissionOptions {
  /// Maximum queued requests across all tenants and priorities.
  uint32_t max_queue_depth = 1024;
  /// Maximum queued requests per tenant (isolation between tenants: one
  /// flooding tenant exhausts its own quota, not the shared queue).
  uint32_t per_tenant_quota = 0;
  /// Maximum estimated bytes pinned by queued requests.
  uint64_t memory_budget_bytes = 0;
};

/// Why requests were admitted or shed. Monotonic counters.
struct AdmissionStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_tenant_quota = 0;
  uint64_t shed_memory = 0;
  uint64_t shed_priority = 0;   ///< below the policy's admitted floor
  uint64_t shed_deadline = 0;   ///< already expired at submit
  uint64_t shed_shutdown = 0;   ///< submitted after Close(); not overload
  uint64_t expired_in_queue = 0;  ///< expired between admit and execute

  uint64_t shed_total() const {
    return shed_queue_full + shed_tenant_quota + shed_memory +
           shed_priority + shed_deadline + shed_shutdown + expired_in_queue;
  }
};

/// One request in flight through the service: the envelope, the promise
/// its response is delivered on, and the per-phase timestamps.
struct Ticket {
  Request request;
  uint64_t submit_nanos = 0;     ///< stamped by Service::Submit
  uint64_t admit_nanos = 0;      ///< stamped when a worker pops it
  uint64_t estimated_bytes = 0;  ///< EstimatedRequestBytes at submit
  std::promise<Response> promise;
};

using TicketPtr = std::unique_ptr<Ticket>;

/// The one batching rule: chooses which queued tickets one pop takes as a
/// group, and the order the group executes in. Tickets are offered in pop
/// order — highest priority first, FIFO within a priority — and the first
/// one offered to a fresh (or Reset) selector heads the group.
///
/// A later ticket joins iff it batches with the head — a point-get or a
/// write (put or delete) on the head's kv shard — while the group holds
/// fewer than max_batch tickets, so per-request fixed costs (dispatch,
/// index-root misses, the WAL wait) amortize over the group. A write whose key is already in the group
/// joins even past max_batch, and while the group's pop lingers no other
/// pop takes it: the never-split rule, so an equal-key run never lands in
/// two groups that could run concurrently and apply out of order. Scans
/// and transactions head a group of one (coarse-grained work; a
/// transaction serializes itself via validation, not batch placement).
///
/// Grouping never changes results: every request executes with its own
/// arguments, so batched output is bit-identical to one-at-a-time.
class GroupSelector {
 public:
  /// `kv` maps keys to shards with the store's own range mapping (null
  /// puts every key on shard 0). `max_batch` caps a group (0 means 1).
  GroupSelector(const kv::KvStore* kv, uint32_t max_batch);

  /// Forgets the current group; the next ticket offered heads a new one.
  void Reset();

  /// True to move `ticket` out of the queue into the group.
  bool Take(const Ticket& ticket);
  /// True while a later ticket could still be taken: a pop stops scanning
  /// once this turns false. A full write group still takes its keys'
  /// later writes.
  bool Open() const;
  /// True while the group has room for more batch-mates: a pop lingers
  /// only then.
  bool Room() const;
  /// True if the group holds writes (puts or deletes): its pop lingers even
  /// beside an idle popper, since only it may take the later writes it
  /// Claims.
  bool Writes() const;
  /// True if `ticket` must join this group and no other: a write (put or
  /// delete) to a key the group already writes. While this selector's pop
  /// lingers, other pops leave such tickets queued for it.
  bool Claims(const Ticket& ticket) const;

  /// Puts a popped group in execution order: point-gets and writes
  /// STABLE-sorted by key — a MultiGet walks the index with monotone keys
  /// and a write group takes each WAL shard mutex once, while two writes
  /// to one key keep submission order — and anything else as popped.
  void Order(std::vector<TicketPtr>* group) const;

 private:
  uint32_t BatchId(const Request& r) const;

  const kv::KvStore* kv_;
  uint32_t max_batch_;
  uint32_t size_ = 0;  ///< tickets taken; 0 = no head yet
  RequestType kind_ = RequestType::kPointGet;  ///< kPut for any write
  uint32_t id_ = 0;  ///< the head's kv shard
  std::vector<uint64_t> write_keys_;  ///< keys of the writes taken
};

/// A bounded, priority-ordered MPMC admission queue: the "never
/// unbounded growth" discipline of McKenney's bounded shared queues.
/// Producers (client threads) call TryAdmit and are rejected — never
/// blocked — when a bound would be exceeded; consumers (the service's
/// workers) pop one group each, highest priority first, FIFO within a
/// priority. Thread-safe.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options);

  /// Admits `ticket` (moving it into the queue) and returns OK, or
  /// rejects it — leaving `ticket` untouched for the caller to complete —
  /// with ResourceExhausted naming the exhausted bound, or
  /// DeadlineExceeded when the deadline already passed.
  /// `min_priority` is the overload policy's current admission floor.
  Status TryAdmit(TicketPtr& ticket, Priority min_priority = Priority::kLow);

  /// Pops one group into `out`, blocking until a ticket is queued or
  /// Close() was called. The queue offers its first `scan` tickets to
  /// `selector` (which takes the head) and moves out, in pop order, the
  /// ones it takes.
  /// The pop then lingers only when a batch-mate can reach it: the
  /// selector has Room, `linger_nanos` > 0, no other pop is lingering, and
  /// either no other popper is idle — so arrivals queue for this one — or
  /// the group Writes, so the later writes it Claims are left to it and a
  /// write to a key the group holds cannot overtake the group's earlier
  /// one. A lingering pop waits up to `linger_nanos` — ended early by
  /// Close(), by `scan` tickets queueing up, or, for a group without
  /// writes, by another popper going idle — and offers the queue once
  /// more, so per-batch fixed costs amortize over fuller batches. Idle and
  /// lingering poppers wait on separate conditions: an arrival wakes an
  /// idle popper, never the lingering one. That is why a read group beside
  /// an idle popper does not linger: it would sleep out the window for no
  /// mates.
  /// Returns false once closed and nothing is left for this pop.
  bool PopGroup(std::vector<TicketPtr>* out, GroupSelector* selector,
                uint32_t scan, uint64_t linger_nanos);

  /// Wakes poppers; subsequent TryAdmit calls are rejected.
  void Close();

  /// Counts a request that expired after admission (worker-side).
  void NoteExpired(uint64_t n);

  uint32_t depth() const;
  /// The queue's half of the overload signals — depth, its bound and the
  /// queued bytes — read under one lock; `in_flight` is left 0.
  OverloadSignals signals() const;
  uint32_t tenant_depth(uint32_t tenant) const;
  /// Tenants with queued requests right now. Bounded by depth(): entries
  /// are erased when a tenant's last queued request is popped, so tenant
  /// churn never grows the map without bound.
  size_t tenant_map_size() const;
  AdmissionStats stats() const;
  const AdmissionOptions& options() const { return options_; }

  /// Registers `svc.lingers` (pops that lingered) and `svc.linger_mates`
  /// (tickets a linger took after its window).
  void RegisterMetrics(obs::Registry* registry) const;

 private:
  AdmissionOptions options_;

  /// Offers the first `scan` queued tickets — skipping those the lingering
  /// pop claims, unless `selector` is that pop's — to `selector` and moves
  /// the taken ones into `out`; the rest keep their order. Holds mutex_.
  void TakeLocked(GroupSelector* selector, uint32_t scan,
                  std::vector<TicketPtr>* out);

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;    ///< poppers waiting for any ticket
  std::condition_variable linger_cv_;  ///< the popper lingering for mates
  uint32_t idle_poppers_ = 0;
  GroupSelector* lingerer_ = nullptr;  ///< the lingering pop's selector
  uint32_t claimed_ = 0;  ///< queued tickets lingerer_ Claims
  /// Depth that cuts the linger short (the lingering pop's `scan`).
  uint32_t linger_until_depth_ = 0;
  /// One FIFO per priority; index = static_cast<uint8_t>(Priority).
  std::array<std::deque<TicketPtr>, kNumPriorities> queues_;
  std::unordered_map<uint32_t, uint32_t> tenant_depth_;
  uint32_t depth_ = 0;
  uint64_t queued_bytes_ = 0;
  bool closed_ = false;
  AdmissionStats stats_;
  /// Bumped under mutex_, so one shard each.
  obs::Counter lingers_{1};
  obs::Counter linger_mates_{1};
};

}  // namespace hwstar::svc

#endif  // HWSTAR_SVC_ADMISSION_H_
