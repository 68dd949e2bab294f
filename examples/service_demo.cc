// Service demo: the hwstar::svc front end serving a mixed OLTP/analytics
// workload end to end -- typed requests with tenants, priorities and
// deadlines, bounded admission, batched execution, and a metrics scrape at
// the end (phase-by-phase latency histograms plus the kv counters).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/service_demo

#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "hwstar/engine/expression.h"
#include "hwstar/engine/join_query.h"
#include "hwstar/kv/kv_store.h"
#include "hwstar/storage/column_store.h"
#include "hwstar/svc/service.h"
#include "hwstar/workload/tpch_like.h"

int main() {
  using namespace hwstar;
  using namespace hwstar::engine;

  // 1. Backends: an OLTP key-value store and a TPC-H-shaped column store.
  kv::KvOptions kopts;
  kopts.shards = 8;
  kv::KvStore store(kopts);
  const uint64_t key_stride = ~uint64_t{0} / (1 << 16);
  for (uint64_t i = 0; i < (1 << 16); ++i) store.Put(i * key_stride, i * 100);

  workload::TpchConfig cfg;
  cfg.scale_factor = 0.05;
  auto lineitem = workload::MakeLineitem(cfg);
  auto orders = workload::MakeOrders(cfg);
  auto li = std::move(storage::ColumnStore::FromTable(*lineitem)).value();
  auto od = std::move(storage::ColumnStore::FromTable(*orders)).value();

  // 2. The service: 2 workers, bounded admission (depth 256, per-tenant
  //    quota 64), default step-down overload policy.
  svc::ServiceOptions opts;
  opts.worker_threads = 2;
  opts.admission.max_queue_depth = 256;
  opts.admission.per_tenant_quota = 64;
  svc::Service service(opts, &store);

  // 3. Point gets -- tenant 1, normal priority, 5 ms deadline. The client
  //    paces its burst under the tenant quota (a tight 1000-deep burst
  //    would be shed -- that regime is bench_e14's subject).
  std::vector<std::future<svc::Response>> gets;
  for (uint64_t i = 0; i < 1000; ++i) {
    svc::Request r = svc::Request::PointGet((i * 31 % (1 << 16)) * key_stride,
                                            /*tenant=*/1);
    r.deadline_nanos = svc::ServiceNow() + 5'000'000;
    gets.push_back(service.Submit(std::move(r)));
    if (i % 32 == 31) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // 4. A range scan -- tenant 2, low priority (first to shed under load).
  auto scan = service.Submit(svc::Request::Scan(
      0, 1000 * key_stride, /*limit=*/16, /*tenant=*/2, svc::Priority::kLow));

  // 5. An analytic aggregate and a join -- tenant 3, high priority.
  auto agg = service.Submit(svc::Request::Aggregate(
      &li, Lt(Col(2, "l_quantity"), Lit(24)),
      Mul(Col(3, "l_extendedprice"), Col(4, "l_discount")), /*tenant=*/3,
      svc::Priority::kHigh));

  JoinQuery jq;
  jq.build = &od;
  jq.build_key = 0;  // o_orderkey
  jq.probe = &li;
  jq.probe_key = 0;  // l_orderkey
  jq.aggregate = Col(3, "l_extendedprice");
  auto join = service.Submit(
      svc::Request::Join(&jq, /*tenant=*/3, svc::Priority::kHigh));

  // 6. Collect.
  uint64_t hits = 0;
  for (auto& f : gets) hits += f.get().status.ok() ? 1 : 0;
  std::printf("point gets : %llu/1000 ok\n",
              static_cast<unsigned long long>(hits));
  svc::Response s = scan.get();
  std::printf("scan       : %s, %zu rows%s\n", s.status.ToString().c_str(),
              s.rows.size(), s.degraded ? " (degraded)" : "");
  svc::Response a = agg.get();
  std::printf("aggregate  : %s, rows=%llu sum=%lld\n",
              a.status.ToString().c_str(),
              static_cast<unsigned long long>(a.agg_rows),
              static_cast<long long>(a.agg_sum));
  svc::Response j = join.get();
  std::printf("join       : %s, matches=%llu sum=%lld\n",
              j.status.ToString().c_str(),
              static_cast<unsigned long long>(j.join.matches),
              static_cast<long long>(j.join.sum));

  // 7. The serving-side ledger: where every request spent its life.
  service.Drain();
  std::printf("\n");
  std::printf("service_demo: request lifecycle (ns)\n%s",
              service.registry().DumpText().c_str());
  return 0;
}
