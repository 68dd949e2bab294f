#ifndef HWSTAR_SVC_REQUEST_H_
#define HWSTAR_SVC_REQUEST_H_

#include <cstdint>
#include <vector>

#include "hwstar/common/status.h"

namespace hwstar::svc {

/// The request shapes the service front end accepts: the KV point ops,
/// range scans and multi-key transactions, wrapped in one envelope so
/// admission, batching and SLO accounting can treat them uniformly.
enum class RequestType : uint8_t {
  kPointGet = 0,  ///< KV point read
  kScan = 1,      ///< KV ordered range scan
  kPut = 2,       ///< KV upsert (durable when the service has a WAL)
  kDelete = 3,    ///< KV erase (durable tombstone when the service has a WAL)
  kTxn = 4,       ///< optimistic multi-key transaction (durable only)
};

inline constexpr uint32_t kNumRequestTypes = 5;

const char* RequestTypeName(RequestType type);

/// Scheduling priority; higher values are served first and shed last.
enum class Priority : uint8_t {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

inline constexpr uint32_t kNumPriorities = 3;

/// One step of a kTxn request, executed server-side in order. kAdd is a
/// read-modify-write (value += operand, missing key treated as 0) — the
/// primitive TPC-C's payment/delivery balance updates need without a
/// client round-trip per step.
struct TxnOp {
  enum class Kind : uint8_t {
    kGet = 0,     ///< read key; result reported in Response::txn_values
    kPut = 1,     ///< buffer an upsert
    kAdd = 2,     ///< read, add `value`, buffer the sum; reports the OLD value
    kDelete = 3,  ///< buffer a tombstone
  };
  Kind kind = Kind::kGet;
  uint64_t key = 0;
  uint64_t value = 0;  ///< put value / add operand; unused for get/delete
};

struct TxnArgs {
  std::vector<TxnOp> ops;
  /// Commit retries on optimistic aborts before giving up and returning
  /// kAborted to the client (each retry re-executes every op).
  uint32_t max_attempts = 1;
};

struct ScanArgs {
  uint64_t lo = 0;
  uint64_t hi = 0;
  /// Maximum result rows the client wants (0 = unlimited). The overload
  /// policy may clamp it further under load.
  uint64_t limit = 0;
};

/// The typed request envelope: the payload its `type` reads plus the
/// serving metadata — tenant for quota accounting, priority for queue
/// order and shed order, deadline for SLO enforcement.
struct Request {
  RequestType type = RequestType::kPointGet;
  Priority priority = Priority::kNormal;
  uint32_t tenant = 0;
  /// Absolute deadline in ServiceNow() nanos; 0 = none. Expired requests
  /// are shed at admission or before execution, never executed late.
  uint64_t deadline_nanos = 0;

  uint64_t key = 0;    ///< point get, put and delete
  uint64_t value = 0;  ///< put
  ScanArgs scan;
  TxnArgs txn;

  static Request PointGet(uint64_t key, uint32_t tenant = 0,
                          Priority priority = Priority::kNormal);
  static Request Put(uint64_t key, uint64_t value, uint32_t tenant = 0,
                     Priority priority = Priority::kNormal);
  static Request Delete(uint64_t key, uint32_t tenant = 0,
                        Priority priority = Priority::kNormal);
  static Request Txn(std::vector<TxnOp> ops, uint32_t max_attempts = 1,
                     uint32_t tenant = 0,
                     Priority priority = Priority::kNormal);
  static Request Scan(uint64_t lo, uint64_t hi, uint64_t limit = 0,
                      uint32_t tenant = 0,
                      Priority priority = Priority::kNormal);
};

/// Where a completed (or shed) request spent its life, phase by phase.
/// These are the serving-side analogues of the paper's "measure against
/// the hardware" rule: queueing time is as first-class as execute time.
struct LatencyBreakdown {
  /// submit → popped by a worker, the batch-window linger included
  uint64_t admit_wait_nanos = 0;
  /// popped → its execution start (behind the group's earlier work)
  uint64_t batch_wait_nanos = 0;
  uint64_t exec_nanos = 0;        ///< execution (shared across a batch)
  /// Time blocked on the WAL commit (group-commit wait; part of exec).
  /// Zero for non-durable requests.
  uint64_t wal_nanos = 0;
  uint64_t total_nanos = 0;       ///< submit → completion
};

/// Response envelope. `status` is OK on success; ResourceExhausted when
/// load-shed at admission; DeadlineExceeded when the deadline passed
/// before execution; NotFound for a missing point-get key; Aborted for a
/// kTxn that lost its optimistic validation race max_attempts times
/// (nothing installed; safe to resubmit).
struct Response {
  Status status;
  /// True when the overload policy degraded the request (clamped its scan
  /// limit) instead of shedding it.
  bool degraded = false;

  uint64_t value = 0;          ///< point-get result; delete: 1 if key existed
  std::vector<uint64_t> rows;  ///< scan results (ascending key order)
  /// kTxn: one entry per kGet/kAdd op, in op order (the value read; 0 on
  /// miss — txn_found distinguishes). Valid only when status is OK.
  std::vector<uint64_t> txn_values;
  std::vector<bool> txn_found;
  uint32_t txn_attempts = 0;  ///< commit attempts consumed (>= 1 when OK)

  LatencyBreakdown latency;
};

/// Monotonic nanosecond clock all svc deadlines and timestamps live on.
uint64_t ServiceNow();

/// Conservative estimate of the bytes a request will pin while queued and
/// executing (admission's in-flight memory budget charges this).
uint64_t EstimatedRequestBytes(const Request& request);

}  // namespace hwstar::svc

#endif  // HWSTAR_SVC_REQUEST_H_
