#include "hwstar/svc/admission.h"

#include <algorithm>
#include <chrono>

#include "hwstar/kv/kv_store.h"

namespace hwstar::svc {

namespace {

/// The group kind a request joins: deletes share the write group (a put
/// and a delete on one key are an ordered pair exactly like two puts).
RequestType BatchKind(RequestType type) {
  return type == RequestType::kDelete ? RequestType::kPut : type;
}

/// Point-gets and writes batch; scans and transactions run alone.
bool Batchable(RequestType kind) {
  return kind == RequestType::kPointGet || kind == RequestType::kPut;
}

}  // namespace

GroupSelector::GroupSelector(const kv::KvStore* kv, uint32_t max_batch)
    : kv_(kv), max_batch_(max_batch == 0 ? 1 : max_batch) {}

void GroupSelector::Reset() {
  size_ = 0;
  write_keys_.clear();
}

bool GroupSelector::Take(const Ticket& ticket) {
  const Request& r = ticket.request;
  if (size_ == 0) {
    kind_ = BatchKind(r.type);
    id_ = BatchId(r);
  } else if (!Claims(ticket) && (!Room() || BatchKind(r.type) != kind_ ||
                                 BatchId(r) != id_)) {
    return false;
  }
  if (kind_ == RequestType::kPut) write_keys_.push_back(r.key);
  ++size_;
  return true;
}

bool GroupSelector::Open() const {
  return Room() || kind_ == RequestType::kPut;
}

bool GroupSelector::Room() const {
  return size_ == 0 || (Batchable(kind_) && size_ < max_batch_);
}

bool GroupSelector::Writes() const {
  return size_ > 0 && kind_ == RequestType::kPut;
}

bool GroupSelector::Claims(const Ticket& ticket) const {
  const Request& r = ticket.request;
  return Writes() && BatchKind(r.type) == RequestType::kPut &&
         std::find(write_keys_.begin(), write_keys_.end(), r.key) !=
             write_keys_.end();
}

void GroupSelector::Order(std::vector<TicketPtr>* group) const {
  if (!Batchable(kind_)) return;
  std::stable_sort(group->begin(), group->end(),
                   [](const TicketPtr& a, const TicketPtr& b) {
                     return a->request.key < b->request.key;
                   });
}

/// Which group of its kind a request may join: its key's kv shard.
uint32_t GroupSelector::BatchId(const Request& r) const {
  return kv_ == nullptr ? 0 : kv_->ShardOf(r.key);
}

AdmissionQueue::AdmissionQueue(AdmissionOptions options)
    : options_(options) {}

Status AdmissionQueue::TryAdmit(TicketPtr& ticket, Priority min_priority) {
  const Request& req = ticket->request;
  bool wake_idle = false;
  bool wake_lingering = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    if (closed_) {
      // Not an overload signal: counting this as shed_queue_full would
      // make a clean shutdown look like queue pressure to operators.
      ++stats_.shed_shutdown;
      return Status::FailedPrecondition("service shutting down");
    }
    if (req.deadline_nanos != 0 && ticket->submit_nanos > req.deadline_nanos) {
      ++stats_.shed_deadline;
      return Status::DeadlineExceeded("deadline expired before admission");
    }
    if (req.priority < min_priority) {
      ++stats_.shed_priority;
      return Status::ResourceExhausted(
          "load shed: priority below overload floor");
    }
    if (options_.max_queue_depth != 0 && depth_ >= options_.max_queue_depth) {
      ++stats_.shed_queue_full;
      return Status::ResourceExhausted("load shed: admission queue full");
    }
    if (options_.per_tenant_quota != 0) {
      auto it = tenant_depth_.find(req.tenant);
      if (it != tenant_depth_.end() &&
          it->second >= options_.per_tenant_quota) {
        ++stats_.shed_tenant_quota;
        return Status::ResourceExhausted("load shed: tenant quota exceeded");
      }
    }
    if (options_.memory_budget_bytes != 0 &&
        queued_bytes_ + ticket->estimated_bytes >
            options_.memory_budget_bytes) {
      ++stats_.shed_memory;
      return Status::ResourceExhausted("load shed: memory budget exceeded");
    }
    ++stats_.admitted;
    ++depth_;
    ++tenant_depth_[req.tenant];
    queued_bytes_ += ticket->estimated_bytes;
    auto& q = queues_[static_cast<uint8_t>(req.priority)];
    q.push_back(std::move(ticket));
    if (lingerer_ != nullptr && lingerer_->Claims(*q.back())) {
      ++claimed_;  // the lingering pop takes it when its window ends
    } else {
      wake_idle = idle_poppers_ > 0;
    }
    wake_lingering = lingerer_ != nullptr && depth_ >= linger_until_depth_;
  }
  if (wake_idle) idle_cv_.notify_one();
  if (wake_lingering) linger_cv_.notify_one();
  return Status::OK();
}

bool AdmissionQueue::PopGroup(std::vector<TicketPtr>* out,
                              GroupSelector* selector, uint32_t scan,
                              uint64_t linger_nanos) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++idle_poppers_;
  if (depth_ <= claimed_ && !closed_ && lingerer_ != nullptr &&
      !lingerer_->Writes()) {
    // This popper is about to sleep, and every arrival would wake it: no
    // mate can reach the lingering read group any more.
    linger_cv_.notify_one();
  }
  idle_cv_.wait(lock, [this] { return depth_ > claimed_ || closed_; });
  --idle_poppers_;
  // Closed, and whatever is still queued belongs to the lingering pop.
  if (depth_ == claimed_) return false;
  TakeLocked(selector, scan, out);
  // One linger at a time, like a single batching thread: while one popper
  // gathers mates, the others execute what they took at once instead of
  // each paying a timed sleep for the same arrivals. And only when a mate
  // can reach this pop: beside an idle popper, only a write group's
  // claimed tickets can.
  if (linger_nanos > 0 && lingerer_ == nullptr && selector->Room() &&
      !closed_ && (idle_poppers_ == 0 || selector->Writes())) {
    lingers_.Inc();
    lingerer_ = selector;
    linger_until_depth_ = scan;
    linger_cv_.wait_for(
        lock, std::chrono::nanoseconds(linger_nanos), [this, selector, scan] {
          return depth_ >= scan || closed_ ||
                 (idle_poppers_ > 0 && !selector->Writes());
        });
    const size_t taken = out->size();
    TakeLocked(selector, scan, out);
    linger_mates_.Add(out->size() - taken);
    lingerer_ = nullptr;
    // Claimed tickets left past the scan are anyone's now: wake takers.
    const bool released = claimed_ > 0 && depth_ > 0;
    claimed_ = 0;
    lock.unlock();
    if (released) idle_cv_.notify_all();
  }
  return true;
}

void AdmissionQueue::TakeLocked(GroupSelector* selector, uint32_t scan,
                                std::vector<TicketPtr>* out) {
  // Highest priority first, FIFO within each priority. Taken tickets leave
  // holes that the kept ones close up, in order, before one erase.
  uint32_t offered = 0;
  for (int p = kNumPriorities - 1; p >= 0; --p) {
    auto& q = queues_[p];
    size_t kept = 0;
    size_t i = 0;
    for (; i < q.size() && offered < scan && selector->Open(); ++i) {
      // Tickets the lingering pop claims are not offered to other pops.
      bool take = false;
      if (claimed_ == 0 || selector == lingerer_ ||
          !lingerer_->Claims(*q[i])) {
        ++offered;
        take = selector->Take(*q[i]);
      }
      if (!take) {
        if (kept != i) q[kept] = std::move(q[i]);
        ++kept;
        continue;
      }
      --depth_;
      auto td = tenant_depth_.find(q[i]->request.tenant);
      if (td != tenant_depth_.end() && --td->second == 0) {
        // Erase drained tenants: leaving zero-count entries behind grows
        // the map without bound under tenant churn.
        tenant_depth_.erase(td);
      }
      queued_bytes_ -= q[i]->estimated_bytes;
      out->push_back(std::move(q[i]));
    }
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(kept),
            q.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  idle_cv_.notify_all();
  linger_cv_.notify_all();
}

void AdmissionQueue::NoteExpired(uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.expired_in_queue += n;
}

uint32_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

OverloadSignals AdmissionQueue::signals() const {
  OverloadSignals s;
  s.max_queue_depth = options_.max_queue_depth;
  std::lock_guard<std::mutex> lock(mutex_);
  s.queue_depth = depth_;
  s.queued_bytes = queued_bytes_;
  return s;
}

uint32_t AdmissionQueue::tenant_depth(uint32_t tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenant_depth_.find(tenant);
  return it == tenant_depth_.end() ? 0 : it->second;
}

size_t AdmissionQueue::tenant_map_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenant_depth_.size();
}

AdmissionStats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void AdmissionQueue::RegisterMetrics(obs::Registry* registry) const {
  registry->RegisterCounter("svc.lingers", &lingers_);
  registry->RegisterCounter("svc.linger_mates", &linger_mates_);
}

}  // namespace hwstar::svc
