// Service demo: the hwstar::svc front end serving a KV workload end to end
// -- point gets from two tenants with deadlines, a low-priority range scan
// and a few puts, through bounded admission and batched execution, with a
// metrics scrape at the end (phase-by-phase latency histograms plus the kv
// counters).
//
// Exits non-zero if a get of a loaded key comes back NotFound, or if any
// get or put fails with anything but a shed (DeadlineExceeded or
// ResourceExhausted): on a slow host, for instance under a sanitizer, a
// request may miss its deadline, but never its key.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/service_demo

#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "hwstar/kv/kv_store.h"
#include "hwstar/svc/service.h"

namespace {

bool IsShed(const hwstar::Status& status) {
  return status.code() == hwstar::StatusCode::kDeadlineExceeded ||
         status.code() == hwstar::StatusCode::kResourceExhausted;
}

}  // namespace

int main() {
  using namespace hwstar;

  // 1. The backend: a sharded KV store with 64K keys spread over the whole
  //    key space (so every shard serves some).
  constexpr uint64_t kKeys = 1 << 16;
  kv::KvOptions kopts;
  kopts.shards = 8;
  kv::KvStore store(kopts);
  const uint64_t key_stride = ~uint64_t{0} / kKeys;
  for (uint64_t i = 0; i < kKeys; ++i) store.Put(i * key_stride, i * 100);

  // 2. The service: 2 workers, bounded admission (depth 256, per-tenant
  //    quota 64), default step-down overload policy.
  svc::ServiceOptions opts;
  opts.worker_threads = 2;
  opts.admission.max_queue_depth = 256;
  opts.admission.per_tenant_quota = 64;
  svc::Service service(opts, &store);

  // 3. Point gets -- tenants 1 and 2, normal priority, 5 ms deadline. The
  //    client paces its burst under the tenant quota (a tight 1000-deep
  //    burst would be shed -- that regime is bench_e14's subject).
  std::vector<uint64_t> get_index;
  std::vector<std::future<svc::Response>> gets;
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t index = i * 31 % kKeys;
    svc::Request r = svc::Request::PointGet(index * key_stride,
                                            static_cast<uint32_t>(1 + i % 2));
    r.deadline_nanos = svc::ServiceNow() + 5'000'000;
    get_index.push_back(index);
    gets.push_back(service.Submit(std::move(r)));
    if (i % 32 == 31) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // 4. A range scan -- tenant 3, low priority (first to shed under load).
  auto scan = service.Submit(svc::Request::Scan(
      0, 1000 * key_stride, /*limit=*/16, /*tenant=*/3, svc::Priority::kLow));

  // 5. A few puts -- tenant 3, to keys between the loaded ones.
  constexpr uint64_t kPuts = 8;
  std::vector<std::future<svc::Response>> puts;
  for (uint64_t i = 0; i < kPuts; ++i) {
    puts.push_back(service.Submit(
        svc::Request::Put(i * key_stride + 1, i + 7, /*tenant=*/3)));
  }

  // 6. Collect and check.
  int failures = 0;
  uint64_t ok = 0, shed = 0;
  for (size_t i = 0; i < gets.size(); ++i) {
    const svc::Response r = gets[i].get();
    if (r.status.ok() && r.value == get_index[i] * 100) {
      ++ok;
    } else if (IsShed(r.status)) {
      ++shed;
    } else {
      std::fprintf(stderr, "get of loaded key #%llu: %s, value %llu\n",
                   static_cast<unsigned long long>(get_index[i]),
                   r.status.ToString().c_str(),
                   static_cast<unsigned long long>(r.value));
      ++failures;
    }
  }
  std::printf("point gets : %llu/1000 ok, %llu shed\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed));
  const svc::Response s = scan.get();
  std::printf("scan       : %s, %zu rows%s\n", s.status.ToString().c_str(),
              s.rows.size(), s.degraded ? " (degraded)" : "");
  uint64_t put_ok = 0;
  for (uint64_t i = 0; i < kPuts; ++i) {
    const svc::Response r = puts[i].get();
    if (!r.status.ok()) {
      if (!IsShed(r.status)) {
        std::fprintf(stderr, "put #%llu: %s\n",
                     static_cast<unsigned long long>(i),
                     r.status.ToString().c_str());
        ++failures;
      }
      continue;
    }
    ++put_ok;
    // An acked put is visible to the next get of its key.
    const svc::Response g =
        service.Call(svc::Request::PointGet(i * key_stride + 1));
    if (!(g.status.ok() && g.value == i + 7) && !IsShed(g.status)) {
      std::fprintf(stderr, "get after put #%llu: %s, value %llu\n",
                   static_cast<unsigned long long>(i),
                   g.status.ToString().c_str(),
                   static_cast<unsigned long long>(g.value));
      ++failures;
    }
  }
  std::printf("puts       : %llu/%llu ok\n",
              static_cast<unsigned long long>(put_ok),
              static_cast<unsigned long long>(kPuts));

  // 7. The serving-side ledger: where every request spent its life.
  service.Drain();
  std::printf("\n");
  std::printf("service_demo: request lifecycle (ns)\n%s",
              service.registry().DumpText().c_str());
  if (failures != 0) {
    std::fprintf(stderr, "service_demo: %d failed request(s)\n", failures);
    return 1;
  }
  return 0;
}
