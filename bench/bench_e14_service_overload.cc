// E14 -- serving under overload: the latency-throughput knee with and
// without admission control. A closed-loop probe measures the service's
// saturation capacity, then an open-loop generator (arrivals paced by a
// wall-clock schedule, independent of completions -- the regime real
// traffic lives in) offers 0.5x..2x that capacity to two configurations:
//   admission=on   bounded queues + per-tenant quotas + load shedding
//   admission=off  unbounded queue, every request eventually served
// Expected shape: below the knee the two are identical; past it the
// bounded service's completed throughput plateaus at capacity and its p99
// stays within a small multiple of the uncontended p99 (excess arrivals
// are shed, absorbing the overload), while the unbounded baseline's p99
// grows with the backlog -- queueing collapse, the serving-side analogue
// of the paper's "software must respect the machine's limits".

#include <atomic>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "hwstar/common/timer.h"
#include "hwstar/kv/kv_store.h"
#include "hwstar/perf/report.h"
#include "hwstar/svc/service.h"
#include "hwstar/workload/distributions.h"

namespace {

using hwstar::kv::KvOptions;
using hwstar::kv::KvStore;
using hwstar::svc::Priority;
using hwstar::svc::Request;
using hwstar::svc::Response;
using hwstar::svc::Service;
using hwstar::svc::ServiceMetrics;
using hwstar::svc::ServiceOptions;

constexpr uint64_t kRecords = 1 << 20;
constexpr double kZipfTheta = 0.8;
// 10% of requests are range scans over 4K keys (~hundreds of us each):
// enough analytic weight that execution, not the request envelope, is the
// bottleneck, so the open-loop generator can out-pace the service.
constexpr uint32_t kScanEveryN = 10;
constexpr uint64_t kScanSpanKeys = 4096;
// Enough closed-loop clients that the capacity probe is throughput-bound
// (saturated workers) rather than latency-bound by the batch window.
constexpr int kClosedLoopClients = 16;
constexpr int kGenerators = 2;  // open-loop submitter threads

ServiceOptions MakeOptions(bool admission) {
  ServiceOptions opts;
  opts.worker_threads = 2;
  opts.max_batch = 64;
  opts.dispatch_max = 64;
  opts.batch_window_nanos = 50'000;
  if (admission) {
    opts.admission.max_queue_depth = 512;
    opts.admission.per_tenant_quota = 256;
  } else {
    opts.admission.max_queue_depth = 0;  // unbounded: the oblivious baseline
  }
  return opts;
}

Request MakeRequest(uint64_t seq, hwstar::workload::ZipfGenerator* zipf,
                    uint64_t key_stride) {
  const uint32_t tenant = static_cast<uint32_t>(seq % 4);
  const Priority priority =
      seq % 16 == 0 ? Priority::kLow
                    : (seq % 16 == 1 ? Priority::kHigh : Priority::kNormal);
  if (seq % kScanEveryN == 0) {
    const uint64_t lo = zipf->Next() * key_stride;
    return Request::Scan(lo, lo + kScanSpanKeys * key_stride, /*limit=*/0,
                         tenant, priority);
  }
  return Request::PointGet(zipf->Next() * key_stride, tenant, priority);
}

/// Closed loop: synchronous clients drive the service flat out; the
/// completion rate is its saturation capacity for this mix.
double MeasureCapacityQps(KvStore* store, uint64_t key_stride,
                          double seconds) {
  Service service(MakeOptions(/*admission=*/true), store);
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedLoopClients; ++c) {
    clients.emplace_back([&, c] {
      hwstar::workload::ZipfGenerator zipf(kRecords, kZipfTheta,
                                           /*seed=*/100 + c);
      hwstar::WallTimer timer;
      uint64_t seq = 0;
      while (timer.ElapsedSeconds() < seconds) {
        (void)service.Call(MakeRequest(seq++, &zipf, key_stride));
        completed.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  return static_cast<double>(completed.load()) / seconds;
}

struct OpenLoopResult {
  double offered_qps = 0;
  double completed_qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double shed_pct = 0;
  ServiceMetrics metrics;
};

/// Open loop: arrivals follow an absolute wall-clock schedule at
/// `rate_qps`, regardless of how the service is keeping up. Generator
/// thread g owns sequence numbers g, g+kGenerators, ... so the combined
/// arrival stream holds the schedule even past the service's capacity.
OpenLoopResult RunOpenLoop(KvStore* store, uint64_t key_stride,
                           bool admission, double rate_qps, double seconds) {
  OpenLoopResult out;
  Service service(MakeOptions(admission), store);
  const uint64_t start = hwstar::svc::ServiceNow();
  const uint64_t run_nanos = static_cast<uint64_t>(seconds * 1e9);
  const double interarrival = 1e9 / rate_qps;

  std::vector<std::vector<std::future<Response>>> futures(kGenerators);
  std::atomic<uint64_t> submitted{0};
  std::vector<std::thread> generators;
  for (int g = 0; g < kGenerators; ++g) {
    generators.emplace_back([&, g] {
      hwstar::workload::ZipfGenerator zipf(kRecords, kZipfTheta,
                                           /*seed=*/7 + g);
      auto& mine = futures[g];
      mine.reserve(static_cast<size_t>(rate_qps * seconds) / kGenerators + 16);
      uint64_t seq = static_cast<uint64_t>(g);
      for (;;) {
        const uint64_t next =
            start +
            static_cast<uint64_t>(static_cast<double>(seq) * interarrival);
        uint64_t now = hwstar::svc::ServiceNow();
        if (now - start >= run_nanos) break;
        while (now < next) {  // hold to the schedule even when ahead
          std::this_thread::yield();
          now = hwstar::svc::ServiceNow();
        }
        mine.push_back(
            service.Submit(MakeRequest(seq, &zipf, key_stride)));
        seq += kGenerators;
      }
      submitted.fetch_add(mine.size());
    });
  }
  for (auto& g : generators) g.join();
  const double offered_seconds =
      static_cast<double>(hwstar::svc::ServiceNow() - start) * 1e-9;

  uint64_t ok = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      if (f.get().status.ok()) ++ok;
    }
  }
  service.Drain();
  out.metrics = service.metrics();
  out.offered_qps = static_cast<double>(submitted.load()) / offered_seconds;
  // Completed throughput over the offered window: what clients got back.
  out.completed_qps = static_cast<double>(ok) / offered_seconds;
  out.p50_ms = static_cast<double>(out.metrics.total.Quantile(0.50)) * 1e-6;
  out.p99_ms = static_cast<double>(out.metrics.total.Quantile(0.99)) * 1e-6;
  out.shed_pct = out.metrics.shed_rate() * 100.0;
  return out;
}

/// One row per latency phase plus the admission/batching summary rows.
hwstar::perf::ReportTable DetailTable(const std::string& title,
                                      const ServiceMetrics& m) {
  using hwstar::perf::ReportTable;
  ReportTable table(title, {"phase", "count", "p50_us", "p90_us", "p99_us",
                            "max_us", "mean_us"});
  auto us = [](double nanos) { return ReportTable::Num(nanos * 1e-3); };
  auto add = [&](const char* name, const hwstar::obs::HistogramSnapshot& h) {
    table.AddRow({name, ReportTable::Num(h.count()),
                  us(static_cast<double>(h.Quantile(0.50))),
                  us(static_cast<double>(h.Quantile(0.90))),
                  us(static_cast<double>(h.Quantile(0.99))),
                  us(static_cast<double>(h.max())), us(h.mean())});
  };
  add("admit_wait", m.admit_wait);
  add("batch_wait", m.batch_wait);
  add("exec", m.exec);
  add("wal_sync", m.wal);
  add("total", m.total);
  auto summary = [&](const char* name, const std::string& value) {
    table.AddRow({name, value, "", "", "", "", ""});
  };
  summary("submitted", ReportTable::Num(m.admission.submitted));
  summary("completed", ReportTable::Num(m.completed));
  summary("shed", ReportTable::Num(m.admission.shed_total()));
  summary("shed_rate_pct", ReportTable::Num(m.shed_rate() * 100.0));
  summary("degraded", ReportTable::Num(m.degraded));
  summary("mean_batch", ReportTable::Num(m.mean_batch_size()));
  return table;
}

}  // namespace

int main() {
  KvOptions kopts;
  kopts.shards = 8;
  KvStore store(kopts);
  // Spread keys across the whole 64-bit space so range shards all carry
  // load; requests address key i as i * stride.
  const uint64_t key_stride = ~uint64_t{0} / kRecords;
  for (uint64_t i = 0; i < kRecords; ++i) store.Put(i * key_stride, i);

  std::printf("E14: probing closed-loop capacity...\n");
  const double capacity = MeasureCapacityQps(&store, key_stride, 1.0);
  std::printf("  capacity ~ %.0f q/s\n\n", capacity);

  hwstar::perf::ReportTable table(
      "E14: open-loop service overload (1M keys, zipf 0.8, 10% scans)",
      {"config", "offered_x", "offered_qps", "done_qps", "p50_ms", "p99_ms",
       "shed_pct", "mean_batch"});
  ServiceMetrics at2x_admission;
  for (const double mult : {0.5, 1.0, 2.0}) {
    for (const bool admission : {false, true}) {
      const auto r = RunOpenLoop(&store, key_stride, admission,
                                 capacity * mult, /*seconds=*/1.0);
      if (admission && mult == 2.0) at2x_admission = r.metrics;
      table.AddRow({admission ? "admission" : "no-admission",
                    hwstar::perf::ReportTable::Num(mult),
                    hwstar::perf::ReportTable::Num(r.offered_qps),
                    hwstar::perf::ReportTable::Num(r.completed_qps),
                    hwstar::perf::ReportTable::Num(r.p50_ms),
                    hwstar::perf::ReportTable::Num(r.p99_ms),
                    hwstar::perf::ReportTable::Num(r.shed_pct),
                    hwstar::perf::ReportTable::Num(
                        r.metrics.mean_batch_size())});
    }
  }
  table.Print();
  std::printf("\n");
  DetailTable("E14 detail: admission=on at 2x load", at2x_admission).Print();
  return 0;
}
