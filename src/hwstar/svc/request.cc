#include "hwstar/svc/request.h"

#include <algorithm>

#include "hwstar/common/timer.h"

namespace hwstar::svc {

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kPointGet:
      return "point_get";
    case RequestType::kScan:
      return "scan";
    case RequestType::kPut:
      return "put";
    case RequestType::kDelete:
      return "delete";
    case RequestType::kTxn:
      return "txn";
  }
  return "unknown";
}

Request Request::PointGet(uint64_t key, uint32_t tenant, Priority priority) {
  Request r;
  r.type = RequestType::kPointGet;
  r.tenant = tenant;
  r.priority = priority;
  r.key = key;
  return r;
}

Request Request::Put(uint64_t key, uint64_t value, uint32_t tenant,
                     Priority priority) {
  Request r;
  r.type = RequestType::kPut;
  r.tenant = tenant;
  r.priority = priority;
  r.key = key;
  r.value = value;
  return r;
}

Request Request::Delete(uint64_t key, uint32_t tenant, Priority priority) {
  Request r;
  r.type = RequestType::kDelete;
  r.tenant = tenant;
  r.priority = priority;
  r.key = key;
  return r;
}

Request Request::Txn(std::vector<TxnOp> ops, uint32_t max_attempts,
                     uint32_t tenant, Priority priority) {
  Request r;
  r.type = RequestType::kTxn;
  r.tenant = tenant;
  r.priority = priority;
  r.txn.ops = std::move(ops);
  r.txn.max_attempts = max_attempts == 0 ? 1 : max_attempts;
  return r;
}

Request Request::Scan(uint64_t lo, uint64_t hi, uint64_t limit,
                      uint32_t tenant, Priority priority) {
  Request r;
  r.type = RequestType::kScan;
  r.tenant = tenant;
  r.priority = priority;
  r.scan = {lo, hi, limit};
  return r;
}

uint64_t ServiceNow() { return NowNanos(); }

uint64_t EstimatedRequestBytes(const Request& request) {
  // Envelope + bookkeeping floor for every request.
  constexpr uint64_t kEnvelope = 256;
  switch (request.type) {
    case RequestType::kPointGet:
    case RequestType::kPut:
    case RequestType::kDelete:
      return kEnvelope;
    case RequestType::kTxn:
      // Ops list + read/write sets + results scale with op count.
      return kEnvelope +
             request.txn.ops.size() * (sizeof(TxnOp) + 4 * sizeof(uint64_t));
    case RequestType::kScan: {
      // 8 bytes per result row; an unlimited scan is charged as if it
      // returned 64K rows (the admission layer must assume the worst).
      constexpr uint64_t kUnlimitedRows = 64 * 1024;
      const uint64_t rows =
          request.scan.limit == 0
              ? kUnlimitedRows
              : std::min<uint64_t>(request.scan.limit, kUnlimitedRows);
      return kEnvelope + rows * sizeof(uint64_t);
    }
  }
  return kEnvelope;
}

}  // namespace hwstar::svc
