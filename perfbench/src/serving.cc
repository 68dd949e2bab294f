// The two serving workloads: kv_serve (a key-value mix) and tpcc_txn
// (TPC-C-shaped transactions), both sent open-loop through svc::Service
// over a dur::DurableKvStore on real files with fdatasync group commit.
//
// One run: set up (load + checkpoint, timed), run the frozen `low` and
// `high` rates, probe the highest offered rate that meets the workload's
// p99 limit, then take a crash copy of the store, reopen it (timed) and
// check every acknowledged write survived. A traced run instead runs the
// `high` rate three times (warm-up, untraced, traced) and adds
// direct-drive passes that time the kv and txn layers' own calls.
#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "hwstar/common/hash.h"
#include "hwstar/common/random.h"
#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/svc/service.h"
#include "hwstar/txn/transaction.h"
#include "hwstar/workload/distributions.h"
#include "hwstar/workload/tpcc_like.h"

namespace perfbench {
namespace {

namespace svc = hwstar::svc;
namespace dur = hwstar::dur;
using hwstar::Status;
using hwstar::StatusCode;

// A traced run adds direct-drive passes of this share of --seconds.
constexpr double kDirectDriveShare = 0.1;
// Set-ups per untraced run; setup_s is their median. Loading writes the
// rows through the WAL, whose fdatasyncs on a shared virtual disk make
// one set-up take up to three times another in the same run.
constexpr int kSetups = 9;

/// Per-workload constants, frozen from measurements of the commit that
/// introduced the benchmark (see perfbench/rationale.json).
struct ServingSpec {
  /// The SLO max_rps_at_slo is measured against. Also the bound on the
  /// generator's lag p99 in a fixed-rate phase: a generator more than one
  /// SLO behind its schedule measures itself, not the service.
  double p99_limit_ms;
  /// The fixed rates: below max_rps_at_slo even when the shared host is
  /// busy, and far below it when the host is quiet (see rationale.json),
  /// so that every run stays valid and no request is shed.
  double low_rps;
  double high_rps;
  double probe_lo_rps;  ///< probe range; the answer lies between
  double probe_hi_rps;
};

// --- Open-loop generator -----------------------------------------------------

/// What the generator remembers about each request it sent.
struct Sent {
  uint64_t due = 0;
  uint64_t submit_start = 0;
  uint64_t submit_end = 0;
  uint64_t a = 0;  ///< workload-specific fields (key, bounds, amounts)
  uint64_t b = 0;
  uint64_t c = 0;
  uint8_t kind = 0;
  uint32_t user_writes = 0;  ///< 16-byte key+value writes if acked
  std::future<svc::Response> future;
};

class ServingWorkload {
 public:
  virtual ~ServingWorkload() = default;
  /// Builds request `seq` (generator thread only).
  virtual svc::Request Next(uint64_t seq, Sent* sent) = 0;
  /// Checks an OK response; returns false with a reason on a wrong output.
  virtual bool Check(const Sent& sent, const svc::Response& r,
                     std::string* why) = 0;
  /// Accounts an acknowledged request's durable effects.
  virtual void OnAck(const Sent& sent) = 0;
  /// The rows a fresh store is loaded with; made once, before the timed
  /// set-ups.
  virtual void MakeLoad(std::vector<uint64_t>* keys,
                        std::vector<uint64_t>* values) = 0;
  /// Traced runs: times the workload's own layer calls on the loaded
  /// store, with the service stopped.
  virtual void DirectDrive(dur::DurableKvStore* db, double seconds,
                           Report* report) = 0;
  /// Checks the store holds every acknowledged write; `when` names the
  /// store ("live", or "recovered" from the crash copy).
  virtual void CheckState(dur::DurableKvStore* db, const std::string& when,
                          Report* report) = 0;
};

struct PhaseResult {
  double offered_rps = 0;
  /// CPU of every thread but the generator per request (CpuPerOp median).
  double cpu_ns_per_op = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t outstanding_at_close = 0;
  uint64_t wrong = 0;
  std::string first_wrong;
  bool valid = true;  ///< false: its latencies are recorded as null
  std::map<std::string, uint64_t> failures_by_code;
  Samples latency;  ///< due -> completion; failures count as kFailed
  Samples lag;      ///< due -> submit (the generator's own lateness)
  // Per-request svc phases (ns), for the per-layer metrics.
  Samples submit_ns, admit, batch, exec, wal, unattributed;
  uint64_t acked_user_writes = 0;
  uint64_t acked_durable = 0;  ///< acked requests that waited on the WAL
  uint64_t txn_ok = 0;
  uint64_t txn_attempts = 0;
  svc::ServiceMetrics before, after;
  std::string pool_before, pool_after;

  double LatencyMs(double q) { return Ms(latency.Quantile(q)); }
  static double Ms(uint64_t ns) {
    return ns == Samples::kFailed ? INFINITY : static_cast<double>(ns) * 1e-6;
  }
};

/// The single-threaded open-loop client of one run.
struct Client {
  svc::Service* service;
  ServingWorkload* workload;
  Trace* trace;
  const CpuSplit* cpus;
  uint64_t seq = 0;  ///< next request id
};

/// Offers `rate` requests/s for `seconds` from this thread, on the
/// generator's CPU: it waits until the next due time, then submits every
/// request whose due time has passed. Futures are collected after the
/// window closes.
PhaseResult RunPhase(Client* d, double rate, double seconds) {
  const CpuSplit::Generator on_generator_cpu(*d->cpus);
  svc::Service* service = d->service;
  ServingWorkload* w = d->workload;
  Trace* trace = d->trace;
  uint64_t* seq = &d->seq;
  PhaseResult out;
  const uint64_t n = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(rate * seconds)));
  std::vector<Sent> sent(n);
  const double interval = 1e9 / rate;
  out.before = service->metrics();
  out.pool_before = service->registry().DumpText();
  CpuPerOp system_cpu(
      static_cast<uint64_t>(std::llround(rate * kCpuWindowSeconds)));
  const uint64_t start = NowNs() + 200'000;
  const uint64_t first_seq = *seq;
  for (uint64_t i = 0; i < n; ++i) {
    Sent& s = sent[i];
    s.due = start + static_cast<uint64_t>(static_cast<double>(i) * interval);
    // Returns at once when the due time has passed, so a late generator
    // sends every overdue request back to back.
    WaitUntilNs(s.due);
    svc::Request request = w->Next((*seq)++, &s);
    s.submit_start = NowNs();
    s.future = service->Submit(std::move(request));
    s.submit_end = NowNs();
    system_cpu.Offered(1);
  }
  const uint64_t close = NowNs();
  const svc::ServiceMetrics at_close = service->metrics();
  const uint64_t submitted =
      at_close.admission.submitted - out.before.admission.submitted;
  const uint64_t finished =
      (at_close.completed - out.before.completed) +
      (at_close.admission.shed_total() - out.before.admission.shed_total());
  out.outstanding_at_close = submitted > finished ? submitted - finished : 0;
  out.offered_rps = static_cast<double>(n) * 1e9 /
                    static_cast<double>(std::max<uint64_t>(1, close - start));

  out.latency.Reserve(n);
  out.lag.Reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    Sent& s = sent[k];
    const svc::Response r = s.future.get();
    const uint64_t lag = s.submit_start - s.due;
    out.lag.Add(lag);
    ++out.attempted;
    const svc::LatencyBreakdown& lb = r.latency;
    if (!r.status.ok()) {
      ++out.failed;
      out.latency.Add(Samples::kFailed);
      const StatusCode code = r.status.code();
      ++out.failures_by_code[hwstar::StatusCodeToString(code)];
      if (code != StatusCode::kResourceExhausted &&
          code != StatusCode::kDeadlineExceeded &&
          code != StatusCode::kAborted) {
        if (out.wrong++ == 0) out.first_wrong = r.status.ToString();
      }
      continue;
    }
    std::string why;
    if (!w->Check(s, r, &why)) {
      if (out.wrong++ == 0) out.first_wrong = why;
    }
    w->OnAck(s);
    out.acked_user_writes += s.user_writes;
    if (lb.wal_nanos > 0) ++out.acked_durable;
    if (r.txn_attempts > 0) {
      ++out.txn_ok;
      out.txn_attempts += r.txn_attempts;
    }
    out.latency.Add(lag + lb.total_nanos);
    out.submit_ns.Add(s.submit_end - s.submit_start);
    out.admit.Add(lb.admit_wait_nanos);
    out.batch.Add(lb.batch_wait_nanos);
    out.exec.Add(lb.exec_nanos);
    if (lb.wal_nanos > 0) out.wal.Add(lb.wal_nanos);
    const uint64_t phases =
        lb.admit_wait_nanos + lb.batch_wait_nanos + lb.exec_nanos;
    out.unattributed.Add(lb.total_nanos > phases ? lb.total_nanos - phases
                                                 : 0);
    if (trace->on()) {
      // Root: due -> completion. Children are rebuilt from the response's
      // breakdown, anchored at the submit call.
      const uint64_t id = first_seq + k + 1;
      const uint64_t t0 = s.submit_start;
      const uint64_t done = t0 + lb.total_nanos;
      const int64_t root = trace->Add("request", s.due, done, -1, id);
      trace->Add("bench.gen_lag", s.due, t0, root, id);
      trace->Add("svc.submit", t0, s.submit_end, root, id);
      uint64_t t = t0;
      trace->Add("svc.admit_wait", t, t + lb.admit_wait_nanos, root, id);
      t += lb.admit_wait_nanos;
      trace->Add("svc.batch_wait", t, t + lb.batch_wait_nanos, root, id);
      t += lb.batch_wait_nanos;
      const int64_t ex =
          trace->Add("svc.exec", t, t + lb.exec_nanos, root, id);
      t += lb.exec_nanos;
      if (lb.wal_nanos > 0) {
        trace->Add("dur.wal_wait", t - std::min(lb.wal_nanos, lb.exec_nanos),
                   t, ex, id);
      }
    }
  }
  service->Drain();
  out.cpu_ns_per_op = system_cpu.MedianNs();
  out.after = service->metrics();
  out.pool_after = service->registry().DumpText();
  return out;
}

/// True when the phase met the SLO: p99 within the limit (failures count
/// as over it) and no growing backlog at the window's close.
bool MeetsSlo(PhaseResult* r, double p99_limit_ms) {
  return r->LatencyMs(0.99) <= p99_limit_ms &&
         static_cast<double>(r->outstanding_at_close) <=
             kMaxBacklogShare * static_cast<double>(r->attempted);
}

void CheckPhaseOutputs(PhaseResult* p, const std::string& phase,
                       Report* report);

/// Log-space bisection over [probe_lo, probe_hi]: the highest probed rate
/// that met the SLO (probe_lo when none did).
double ProbeMaxRps(Client* d, const ServingSpec& spec, double step_seconds,
                   Report* report) {
  return ProbeMaxRate(
      spec.probe_lo_rps, spec.probe_hi_rps, [&](double rate, int step) {
        PhaseResult r = RunPhase(d, rate, step_seconds);
        CheckPhaseOutputs(&r, "probe" + std::to_string(step), report);
        const bool ok = MeetsSlo(&r, spec.p99_limit_ms);
        std::printf("  probe %8.0f req/s: p99=%9.3f ms outstanding=%" PRIu64
                    "/%" PRIu64 " -> %s\n",
                    rate, r.LatencyMs(0.99), r.outstanding_at_close,
                    r.attempted, ok ? "meets SLO" : "misses SLO");
        return ok;
      });
}

uint64_t CounterFromText(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string kind, metric;
  uint64_t value = 0;
  while (in >> kind >> metric) {
    if (kind == "counter" && metric == name && (in >> value)) return value;
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

double Us(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Per-layer svc, exec and bench metrics of one (traced) phase.
void ReportPhaseLayers(PhaseResult* p, Report* report) {
  const auto n = static_cast<uint64_t>(p->submit_ns.size());
  report->Set("svc.submit_ns", p->submit_ns.Mean(), "ns", n);
  report->Set("svc.admit_wait_p50_us", Us(p->admit.Quantile(0.5)), "us", n);
  report->Set("svc.admit_wait_p99_us", Us(p->admit.Quantile(0.99)), "us", n);
  report->Set("svc.batch_wait_p50_us", Us(p->batch.Quantile(0.5)), "us", n);
  report->Set("svc.batch_wait_p99_us", Us(p->batch.Quantile(0.99)), "us", n);
  report->Set("svc.exec_p50_us", Us(p->exec.Quantile(0.5)), "us", n);
  report->Set("svc.exec_p99_us", Us(p->exec.Quantile(0.99)), "us", n);
  report->Set("svc.unattributed_p50_us", Us(p->unattributed.Quantile(0.5)),
              "us", n);
  const double batches =
      static_cast<double>(p->after.batches - p->before.batches);
  report->Set("svc.mean_batch",
              Frac(static_cast<double>(p->after.batched_requests -
                                       p->before.batched_requests),
                   batches),
              "count", static_cast<uint64_t>(batches));
  const double submitted = static_cast<double>(
      p->after.admission.submitted - p->before.admission.submitted);
  report->Set("svc.shed_frac",
              Frac(static_cast<double>(p->after.admission.shed_total() -
                                       p->before.admission.shed_total()),
                   submitted),
              "frac", static_cast<uint64_t>(submitted));
  const auto delta = [&](const char* name) {
    return static_cast<double>(CounterFromText(p->pool_after, name) -
                               CounterFromText(p->pool_before, name));
  };
  const double steals = delta("svc.pool.steals");
  const double pops = delta("svc.pool.local_pops") + steals;
  report->Set("svc.pool_steal_frac", Frac(steals, pops), "frac",
              static_cast<uint64_t>(pops));
  report->Set("exec.steal_frac", Frac(steals, pops), "frac",
              static_cast<uint64_t>(pops));
  report->Set("exec.tasks_per_krow",
              Frac(delta("svc.pool.tasks_run"),
                   static_cast<double>(p->attempted) / 1000.0),
              "count", p->attempted);
  report->Set("dur.wal_wait_p50_us", Us(p->wal.Quantile(0.5)), "us",
              p->wal.size());
  report->Set("dur.wal_wait_p99_us", Us(p->wal.Quantile(0.99)), "us",
              p->wal.size());
  report->Set("txn.attempts_per_commit",
              Frac(static_cast<double>(p->txn_attempts),
                   static_cast<double>(p->txn_ok)),
              "count", p->txn_ok);
  report->Set("bench.gen_lag_p99_ms",
              static_cast<double>(p->lag.Quantile(0.99)) * 1e-6, "ms",
              p->lag.size());
  report->Set("bench.offered_rps", p->offered_rps, "1/s", p->attempted);
}

void ReportLatency(PhaseResult* p, const std::string& suffix,
                   Report* report) {
  const double invalid = p->valid ? 0.0 : NAN;
  report->Set("lat_p50_ms." + suffix, p->LatencyMs(0.5) + invalid, "ms",
              p->latency.size());
  report->Set("lat_p99_ms." + suffix, p->LatencyMs(0.99) + invalid, "ms",
              p->latency.size());
}

/// Why a fixed-rate phase cannot stand as a number, or "" when it can:
/// the generator ran late (its requests then measure the generator, not
/// the service), or half the requests failed (the p50 is then unbounded).
/// A p99 left unbounded by more than 1% failures is recorded as null.
std::string InvalidReason(PhaseResult* p, const ServingSpec& spec,
                          const std::string& phase) {
  const double lag_ms = static_cast<double>(p->lag.Quantile(0.99)) * 1e-6;
  char buf[160];
  if (lag_ms > spec.p99_limit_ms) {
    std::snprintf(buf, sizeof(buf),
                  "%s phase: generator lag p99 %.3f ms > bound %.3f ms",
                  phase.c_str(), lag_ms, spec.p99_limit_ms);
    return buf;
  }
  if (!std::isfinite(p->LatencyMs(0.5))) {
    std::snprintf(buf, sizeof(buf), "%s phase: %" PRIu64 " of %" PRIu64
                  " requests failed", phase.c_str(), p->failed, p->attempted);
    return buf;
  }
  return "";
}

void CheckPhaseOutputs(PhaseResult* p, const std::string& phase,
                       Report* report) {
  std::string detail = std::to_string(p->attempted - p->wrong) + "/" +
                       std::to_string(p->attempted) + " responses correct";
  if (p->wrong > 0) detail += "; first wrong: " + p->first_wrong;
  for (const auto& [code, count] : p->failures_by_code) {
    detail += "; " + std::to_string(count) + " failed " + code;
  }
  report->Check(phase + ".responses", p->wrong == 0, detail);
}

/// Runs the fixed-rate phase `name` at `rate`, again while it is invalid,
/// up to kPhaseAttempts in all; the result is marked invalid when the
/// last attempt is. Every attempt's responses are checked.
/// `before_attempt` resets what the caller measures alongside the phase.
PhaseResult RunFixedPhase(Client* d, const ServingSpec& spec, double rate,
                          double seconds, const std::string& name,
                          Report* report,
                          const std::function<void()>& before_attempt = {}) {
  for (int attempt = 1;; ++attempt) {
    if (before_attempt) before_attempt();
    PhaseResult p = RunPhase(d, rate, seconds);
    CheckPhaseOutputs(&p, AttemptName(name, attempt), report);
    const std::string why = InvalidReason(&p, spec, name);
    if (why.empty()) return p;
    if (attempt == kPhaseAttempts) {
      report->Invalid(why);
      p.valid = false;
      return p;
    }
    std::printf("  %s: measuring the phase again\n", why.c_str());
  }
}

/// Per-layer dur metrics over a phase, from the timing backend and the
/// log writers' counters.
struct DurSnapshot {
  TimingFileBackend::Io io;
  dur::LogWriterStats log;
};

DurSnapshot TakeDur(TimingFileBackend* fs, dur::DurableKvStore* db) {
  return {fs->io(), db->log_stats()};
}

void ReportDurLayers(const DurSnapshot& a, const DurSnapshot& b,
                     Samples* append_ns, Samples* sync_ns, PhaseResult* p,
                     Report* report) {
  report->Set("dur.sync_p50_us", Us(sync_ns->Quantile(0.5)), "us",
              sync_ns->size());
  report->Set("dur.sync_p99_us", Us(sync_ns->Quantile(0.99)), "us",
              sync_ns->size());
  report->Set("dur.append_p50_us", Us(append_ns->Quantile(0.5)), "us",
              append_ns->size());
  report->Set("dur.syncs_per_ack",
              Frac(static_cast<double>(b.io.syncs - a.io.syncs),
                   static_cast<double>(p->acked_durable)),
              "ratio", p->acked_durable);
  report->Set("dur.bytes_per_user_byte",
              Frac(static_cast<double>(b.io.append_bytes - a.io.append_bytes),
                   16.0 * static_cast<double>(p->acked_user_writes)),
              "ratio", p->acked_user_writes);
  const double groups = static_cast<double>(b.log.groups - a.log.groups);
  report->Set("dur.mean_group",
              Frac(static_cast<double>(b.log.records - a.log.records), groups),
              "count", static_cast<uint64_t>(groups));
}

constexpr uint32_t kKvShards = 8;

dur::DurableKvOptions StoreOptions() {
  dur::DurableKvOptions o;
  o.kv.shards = kKvShards;
  o.log_shards = 4;
  o.log.sync = dur::SyncMode::kFdatasync;
  o.log.group_commit = true;
  o.log.fsync_interval_us = 20;
  return o;
}

svc::ServiceOptions ServiceOpts(uint32_t workers, uint64_t batch_window_ns) {
  svc::ServiceOptions o;
  o.worker_threads = workers;
  o.max_batch = 64;
  o.dispatch_max = 64;
  o.batch_window_nanos = batch_window_ns;
  // Room for about a second of arrivals at the high rates. A put or a
  // commit holds its worker until fdatasync returns, and the shared disk's
  // syncs stall for tens to hundreds of ms at times: E14's bounds (512
  // deep, 256 per tenant) then shed kv_serve requests even at 8K req/s
  // (0.2% of one run's) and tpcc_txn transactions at 2.5K/s. A stall still
  // shows in the latencies.
  o.admission.max_queue_depth = 8192;
  o.admission.per_tenant_quota = 4096;
  return o;
}

constexpr uint32_t kTenants = 4;
// Row limit of a scan: kv_serve's Scan requests and every direct-drive
// RangeScanLimit.
constexpr uint64_t kScanLimit = 100;

/// Times the kv layer's own read calls on a loaded store with a
/// workload's key stream: Get over blocks of keys, MultiGet over sorted
/// 64-key same-shard runs, and RangeScanLimit from a key to
/// `scan_hi(key)`. A Get hits when it finds a value that `names` accepts
/// for its key. Each timing is the median over timed blocks.
void DriveKvReads(hwstar::kv::KvStore* kv, double seconds,
                  const std::function<uint64_t()>& next_key,
                  const std::function<uint64_t(uint64_t)>& scan_hi,
                  const std::function<bool(uint64_t, uint64_t)>& names,
                  Report* report) {
  constexpr size_t kBlock = 1024;
  constexpr size_t kRun = 64;
  // The store's kv shards split the key space by its top bits.
  constexpr int kShardShift = 64 - std::countr_zero(kKvShards);
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  Samples get_ns, multiget_ns, scan_ns;
  uint64_t gets = 0, hits = 0;
  std::vector<uint64_t> block(kBlock), values(kRun), rows;
  std::vector<std::vector<uint64_t>> runs(kKvShards);
  bool found[kRun];
  for (int round = 0; NowNs() < deadline || round < 3; ++round) {
    for (auto& k : block) k = next_key();
    uint64_t t0 = NowNs();
    for (const uint64_t k : block) {
      auto got = kv->Get(k);
      hits += got.ok() && names(k, got.value()) ? 1 : 0;
    }
    get_ns.Add((NowNs() - t0) / kBlock);
    gets += kBlock;

    // Deal keys to their shards until one shard has a full run.
    std::vector<uint64_t>* run = nullptr;
    while (run == nullptr) {
      const uint64_t k = next_key();
      auto& r = runs[k >> kShardShift];
      r.push_back(k);
      if (r.size() == kRun) run = &r;
    }
    std::sort(run->begin(), run->end());
    t0 = NowNs();
    kv->MultiGet(run->data(), kRun, values.data(), found);
    multiget_ns.Add((NowNs() - t0) / kRun);
    run->clear();

    const uint64_t lo = next_key();
    rows.clear();
    t0 = NowNs();
    kv->RangeScanLimit(lo, scan_hi(lo), kScanLimit, &rows);
    scan_ns.Add(NowNs() - t0);
  }
  report->Set("kv.get_ns", static_cast<double>(get_ns.Quantile(0.5)), "ns",
              gets);
  report->Set("kv.multiget_ns_per_key",
              static_cast<double>(multiget_ns.Quantile(0.5)), "ns",
              multiget_ns.size() * kRun);
  report->Set("kv.scan_us", Us(scan_ns.Quantile(0.5)), "us", scan_ns.size());
  report->Set("kv.hit_frac",
              Frac(static_cast<double>(hits), static_cast<double>(gets)),
              "frac", gets);
}

// --- kv_serve ----------------------------------------------------------------

// 2^19 keys, key i at i << 45: spread over the whole 64-bit space so all
// range shards carry load. Zipf ranks are scattered over key indices by
// an odd multiplier (a bijection mod 2^19), so the hot keys do not all
// land in the first shard. At this commit the ART index costs about
// 900 bytes per key, so 2^19 keys make an index of about 470 MB, over
// four times a 105 MiB last-level cache.
constexpr uint32_t kKvIndexBits = 19;
constexpr uint64_t kKvKeys = uint64_t{1} << kKvIndexBits;
constexpr uint32_t kKvKeyShift = 64 - kKvIndexBits;
constexpr uint64_t kKvLowMask = (uint64_t{1} << kKvKeyShift) - 1;
constexpr double kKvZipfTheta = 0.8;
constexpr uint64_t kScanSpanKeys = 128;

enum KvKind : uint8_t { kKvGet = 0, kKvPut = 1, kKvScan = 2 };

uint64_t KvKey(uint64_t index) { return index << kKvKeyShift; }

uint64_t KvIndexOfRank(uint64_t rank) {
  return (rank * 0x9E3779B97F4A7C15ULL) & (kKvKeys - 1);
}

/// A value names its key: the key's bits, a 20-bit check of the key's
/// hash and a 22-bit version (0 = the loaded value), all below the key's
/// lowest set bit.
uint64_t KvValue(uint64_t key, uint64_t version) {
  return key | ((hwstar::Mix64(key) & 0xFFFFF) << 22) | (version & 0x3FFFFF);
}

bool KvValueNames(uint64_t value, uint64_t key) {
  return (value & ~kKvLowMask) == key &&
         ((value >> 22) & 0xFFFFF) == (hwstar::Mix64(key) & 0xFFFFF);
}

const ServingSpec kKvSpec = {
    /*p99_limit_ms=*/2.0,
    /*low_rps=*/3000,
    /*high_rps=*/8000,
    /*probe_lo_rps=*/16000,
    /*probe_hi_rps=*/256000,
};

class KvWorkload : public ServingWorkload {
 public:
  explicit KvWorkload(uint64_t seed)
      : rng_(seed), zipf_(kKvKeys, kKvZipfTheta, seed + 1) {}

  svc::Request Next(uint64_t seq, Sent* s) override {
    const uint64_t roll = rng_.NextBounded(100);
    const uint64_t index = KvIndexOfRank(zipf_.Next());
    const uint64_t key = KvKey(index);
    const auto tenant = static_cast<uint32_t>(seq % kTenants);
    s->a = key;
    if (roll < 90) {
      s->kind = kKvGet;
      return svc::Request::PointGet(key, tenant);
    }
    if (roll < 98) {
      s->kind = kKvPut;
      s->user_writes = 1;
      s->b = KvValue(key, seq % ((uint64_t{1} << 22) - 1) + 1);
      return svc::Request::Put(key, s->b, tenant);
    }
    s->kind = kKvScan;
    const uint64_t end_index = std::min(index + kScanSpanKeys, kKvKeys);
    // KvStore scans are inclusive of hi: [lo, hi] == [lo, next key).
    s->b = end_index == kKvKeys ? ~uint64_t{0} : KvKey(end_index) - 1;
    s->c = std::min(kScanLimit, end_index - index);
    return svc::Request::Scan(key, s->b, kScanLimit, tenant);
  }

  bool Check(const Sent& s, const svc::Response& r, std::string* why) override {
    switch (s.kind) {
      case kKvGet:
        if (!KvValueNames(r.value, s.a)) {
          *why = "get returned a value of another key";
          return false;
        }
        return true;
      case kKvPut:
        return true;
      default: {
        if (r.rows.size() != s.c && !(r.degraded && r.rows.size() < s.c)) {
          *why = "scan returned " + std::to_string(r.rows.size()) +
                 " rows, expected " + std::to_string(s.c);
          return false;
        }
        uint64_t prev = 0;
        for (size_t i = 0; i < r.rows.size(); ++i) {
          const uint64_t key = r.rows[i] & ~kKvLowMask;
          if (!KvValueNames(r.rows[i], key) || key < s.a || key > s.b ||
              (i > 0 && key <= prev)) {
            *why = "scan row out of range, out of order or undecodable";
            return false;
          }
          prev = key;
        }
        return true;
      }
    }
  }

  void OnAck(const Sent& s) override {
    if (s.kind == kKvPut) acked_puts_.push_back({s.a, s.b});
  }

  void MakeLoad(std::vector<uint64_t>* keys,
                std::vector<uint64_t>* values) override {
    for (uint64_t index = 0; index < kKvKeys; ++index) {
      keys->push_back(KvKey(index));
      values->push_back(KvValue(keys->back(), 0));
    }
  }

  void DirectDrive(dur::DurableKvStore* db, double seconds,
                   Report* report) override;

  void CheckState(dur::DurableKvStore* db, const std::string& when,
                  Report* report) override {
    hwstar::kv::KvStore* kv = db->kv();
    uint64_t bad = 0;
    std::string first;
    if (when == "live") {
      // Every written key must hold one of the values acked for it (the
      // order of two in-flight puts to one key is the service's choice).
      std::sort(acked_puts_.begin(), acked_puts_.end());
      live_.clear();
      for (size_t i = 0; i < acked_puts_.size();) {
        size_t j = i;
        while (j < acked_puts_.size() &&
               acked_puts_[j].first == acked_puts_[i].first) {
          ++j;
        }
        const uint64_t key = acked_puts_[i].first;
        auto got = kv->Get(key);
        const bool acked =
            got.ok() &&
            std::any_of(acked_puts_.begin() + i, acked_puts_.begin() + j,
                        [&](const auto& p) { return p.second == got.value(); });
        if (!acked && bad++ == 0) first = "key holds a value never acked";
        live_.push_back({key, got.ok() ? got.value() : 0});
        i = j;
      }
    } else {
      // The crash copy must hold exactly what the live store held.
      for (const auto& [key, value] : live_) {
        auto got = kv->Get(key);
        if ((!got.ok() || got.value() != value) && bad++ == 0) {
          first = "acked put missing after recovery";
        }
      }
    }
    // Loaded keys all exist and name themselves.
    const uint64_t size = kv->size();
    if (size != kKvKeys && bad++ == 0) {
      first = "store holds " + std::to_string(size) + " keys";
    }
    for (uint64_t index = 0; index < kKvKeys; index += 4099) {
      auto got = kv->Get(KvKey(index));
      if ((!got.ok() || !KvValueNames(got.value(), KvKey(index))) &&
          bad++ == 0) {
        first = "loaded key lost or holds another key's value";
      }
    }
    report->Check(when + ".acked_puts", bad == 0,
                  std::to_string(live_.size()) + " written keys checked" +
                      (bad == 0 ? "" : "; " + first));
  }

 private:
  hwstar::Xoshiro256 rng_;
  hwstar::workload::ZipfGenerator zipf_;
  std::vector<std::pair<uint64_t, uint64_t>> acked_puts_;
  std::vector<std::pair<uint64_t, uint64_t>> live_;  ///< written key -> value
};

void KvWorkload::DirectDrive(dur::DurableKvStore* db, double seconds,
                             Report* report) {
  hwstar::workload::ZipfGenerator zipf(kKvKeys, kKvZipfTheta, rng_.Next());
  DriveKvReads(
      db->kv(), seconds, [&] { return KvKey(KvIndexOfRank(zipf.Next())); },
      [](uint64_t key) {
        const uint64_t end_index =
            std::min((key >> kKvKeyShift) + kScanSpanKeys, kKvKeys);
        return end_index == kKvKeys ? ~uint64_t{0} : KvKey(end_index) - 1;
      },
      [](uint64_t key, uint64_t value) { return KvValueNames(value, key); },
      report);
}

// --- tpcc_txn ----------------------------------------------------------------

constexpr uint32_t kTpccWarehouses = 32;
constexpr double kTpccTheta = 0.4;
constexpr uint32_t kTxnWorkers = 4;
// OCC aborts are retried, not failed. The service retries at once, with
// no backoff, and a committer holds its stripe locks across fdatasync, so
// every retry of a txn that conflicts with it lands inside that sync: at 8
// attempts 0.01-1.6% of the txns failed per run, tracking the shared
// disk's sync latency. Retries stay few (txn.attempts_per_commit about
// 1.1); their cost shows in cpu_us_per_op and txn.attempts_per_commit.
constexpr uint32_t kTxnMaxAttempts = 1 << 14;
// TPC-C keys pack [warehouse:12][table:4][district:8][id:40]; these bits
// set give the last key of a key's (warehouse, table, district) group.
constexpr uint64_t kTpccIdMask = (uint64_t{1} << 40) - 1;

const ServingSpec kTpccSpec = {
    /*p99_limit_ms=*/10.0,
    /*low_rps=*/1000,
    /*high_rps=*/2500,
    /*probe_lo_rps=*/2000,
    /*probe_hi_rps=*/32000,
};

using hwstar::workload::TpccOpKind;
using hwstar::workload::TpccTxn;
using hwstar::workload::TpccTxnKind;

/// Sum of acknowledged payment amounts per warehouse key.
using PaidMap = std::map<uint64_t, uint64_t>;

hwstar::workload::TpccConfig TpccBase(uint64_t seed) {
  hwstar::workload::TpccConfig c;
  c.warehouses = kTpccWarehouses;
  c.zipf_theta = kTpccTheta;
  // Actor 0 feeds the service; actors 1..kTxnWorkers feed the direct
  // drive, so their order ids never collide.
  c.actors = 1 + kTxnWorkers;
  c.seed = seed;
  return c;
}

std::vector<svc::TxnOp> ToSvcOps(const TpccTxn& txn) {
  std::vector<svc::TxnOp> ops(txn.ops.size());
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    // TpccOpKind mirrors TxnOp::Kind one-to-one.
    ops[i].kind = static_cast<svc::TxnOp::Kind>(txn.ops[i].kind);
    ops[i].key = txn.ops[i].key;
    ops[i].value = txn.ops[i].value;
  }
  return ops;
}

/// Runs one TPC-C transaction through the Transaction API the way the
/// service does (kAdd = read, add, buffer), retrying optimistic aborts.
/// Times every Get and the final Commit with its WAL wait.
struct TxnDriveStats {
  Samples get_ns, commit_ns, commit_self_ns;
};

Status DriveTxn(hwstar::txn::TxnManager* mgr, const TpccTxn& txn,
                TxnDriveStats* stats) {
  Status st;
  for (uint32_t attempt = 0; attempt < kTxnMaxAttempts; ++attempt) {
    hwstar::txn::Transaction tx = mgr->Begin();
    st = Status::OK();
    for (const auto& op : txn.ops) {
      uint64_t v = 0;
      bool found = false;
      if (op.kind == TpccOpKind::kGet || op.kind == TpccOpKind::kAdd) {
        const uint64_t t0 = NowNs();
        st = tx.Get(op.key, &v, &found);
        stats->get_ns.Add(NowNs() - t0);
        if (!st.ok()) break;
      }
      if (op.kind == TpccOpKind::kPut) tx.Put(op.key, op.value);
      if (op.kind == TpccOpKind::kAdd) {
        tx.Put(op.key, (found ? v : 0) + op.value);
      }
      if (op.kind == TpccOpKind::kDelete) tx.Delete(op.key);
    }
    if (st.ok()) {
      uint64_t wal_wait = 0;
      const uint64_t t0 = NowNs();
      st = tx.Commit(&wal_wait);
      const uint64_t took = NowNs() - t0;
      if (st.ok()) {
        stats->commit_ns.Add(took);
        stats->commit_self_ns.Add(took > wal_wait ? took - wal_wait : 0);
      }
    } else {
      tx.Abort();
    }
    if (st.code() != StatusCode::kAborted) break;
  }
  return st;
}

class TpccWorkload : public ServingWorkload {
 public:
  explicit TpccWorkload(uint64_t seed)
      : seed_(seed), stream_(TpccBase(seed)) {}

  svc::Request Next(uint64_t seq, Sent* s) override {
    const TpccTxn txn = stream_.Next();
    s->kind = static_cast<uint8_t>(txn.kind);
    s->c = 0;  // reads: gets and adds report a value each
    for (const auto& op : txn.ops) {
      if (op.kind == TpccOpKind::kGet || op.kind == TpccOpKind::kAdd) ++s->c;
      if (op.kind != TpccOpKind::kGet) ++s->user_writes;
    }
    if (txn.kind == TpccTxnKind::kPayment) {
      s->a = txn.ops[0].key;  // the warehouse YTD add comes first
      s->b = txn.ops[0].value;
    }
    return svc::Request::Txn(ToSvcOps(txn), kTxnMaxAttempts,
                             static_cast<uint32_t>(seq % kTenants));
  }

  bool Check(const Sent& s, const svc::Response& r, std::string* why) override {
    if (r.txn_attempts < 1 || r.txn_attempts > kTxnMaxAttempts) {
      *why = "txn reported " + std::to_string(r.txn_attempts) + " attempts";
      return false;
    }
    if (r.txn_values.size() != s.c) {
      *why = "txn returned " + std::to_string(r.txn_values.size()) +
             " values for " + std::to_string(s.c) + " reads";
      return false;
    }
    if (s.kind != static_cast<uint8_t>(TpccTxnKind::kDelivery)) {
      // New-order and payment read only rows the load created. (A
      // delivery may target an order whose new-order is still in flight.)
      for (const bool found : r.txn_found) {
        if (!found) {
          *why = "txn read a missing warehouse/district/customer row";
          return false;
        }
      }
    }
    return true;
  }

  void OnAck(const Sent& s) override {
    if (s.kind == static_cast<uint8_t>(TpccTxnKind::kPayment)) {
      paid_[s.a] += s.b;
    }
  }

  void MakeLoad(std::vector<uint64_t>* keys,
                std::vector<uint64_t>* values) override {
    for (const auto& [key, value] :
         hwstar::workload::MakeTpccLoad(TpccBase(seed_))) {
      keys->push_back(key);
      values->push_back(value);
      initial_[key] = value;
    }
  }

  /// The txn pass, then the kv pass, each for half of `seconds`.
  void DirectDrive(dur::DurableKvStore* db, double seconds,
                   Report* report) override {
    DriveTxns(db, seconds / 2, report);
    // The kv layer under the transactions: the keys TPC-C reads, scanned
    // to the end of their (warehouse, table, district) group.
    hwstar::workload::TpccStream stream(TpccBase(seed_ + 1));
    std::vector<uint64_t> keys;
    size_t next = 0;
    DriveKvReads(
        db->kv(), seconds / 2,
        [&] {
          while (next == keys.size()) {
            keys.clear();
            next = 0;
            for (const auto& op : stream.Next().ops) {
              if (op.kind == TpccOpKind::kGet || op.kind == TpccOpKind::kAdd) {
                keys.push_back(op.key);
              }
            }
          }
          return keys[next++];
        },
        [](uint64_t key) { return key | kTpccIdMask; },
        [](uint64_t, uint64_t) { return true; }, report);
  }

  /// Runs the TPC-C mix through TxnManager on as many threads as the
  /// service has workers (actors 1..kTxnWorkers), timing Transaction::Get
  /// and Commit and reading TxnManager::stats().
  void DriveTxns(dur::DurableKvStore* db, double seconds, Report* report) {
    hwstar::txn::TxnManager mgr(db);
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    std::vector<TxnDriveStats> stats(kTxnWorkers);
    std::vector<PaidMap> paid(kTxnWorkers);
    std::vector<uint64_t> errors(kTxnWorkers, 0);
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kTxnWorkers; ++t) {
      threads.emplace_back([&, t] {
        auto cfg = TpccBase(seed_);
        cfg.actor = 1 + t;
        hwstar::workload::TpccStream stream(cfg);
        while (NowNs() < deadline) {
          const TpccTxn txn = stream.Next();
          const Status st = DriveTxn(&mgr, txn, &stats[t]);
          if (st.ok() && txn.kind == TpccTxnKind::kPayment) {
            paid[t][txn.ops[0].key] += txn.ops[0].value;
          } else if (!st.ok()) {
            stream.RequeueDelivery(txn);
            if (st.code() != StatusCode::kAborted) ++errors[t];
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    TxnDriveStats all;
    uint64_t hard_errors = 0;
    for (uint32_t t = 0; t < kTxnWorkers; ++t) {
      all.get_ns.Append(stats[t].get_ns);
      all.commit_ns.Append(stats[t].commit_ns);
      all.commit_self_ns.Append(stats[t].commit_self_ns);
      for (const auto& [key, amount] : paid[t]) paid_[key] += amount;
      hard_errors += errors[t];
    }
    report->Check("direct_drive.txn_errors", hard_errors == 0,
                  std::to_string(hard_errors) + " non-abort txn errors");
    const hwstar::txn::TxnStats ts = mgr.stats();
    const double begun = static_cast<double>(ts.begun);
    report->Set("txn.abort_lock_frac",
                Frac(static_cast<double>(ts.aborted_lock), begun), "frac",
                ts.begun);
    report->Set("txn.abort_validation_frac",
                Frac(static_cast<double>(ts.aborted_validation), begun), "frac",
                ts.begun);
    report->Set("txn.abort_doomed_frac",
                Frac(static_cast<double>(ts.aborted_doomed), begun), "frac",
                ts.begun);
    report->Set("txn.get_us", Us(all.get_ns.Quantile(0.5)), "us",
                all.get_ns.size());
    report->Set("txn.commit_p50_us", Us(all.commit_ns.Quantile(0.5)), "us",
                all.commit_ns.size());
    report->Set("txn.commit_p99_us", Us(all.commit_ns.Quantile(0.99)), "us",
                all.commit_ns.size());
    report->Set("txn.commit_self_p50_us", Us(all.commit_self_ns.Quantile(0.5)),
                "us", all.commit_self_ns.size());
  }

  void CheckState(dur::DurableKvStore* db, const std::string& when,
                  Report* report) override {
    // Payment adds its amount to the warehouse YTD and one district YTD in
    // one transaction, so per warehouse: warehouse delta == sum of its
    // districts' deltas == sum of acknowledged payments.
    const auto cfg = TpccBase(seed_);
    hwstar::kv::KvStore* kv = db->kv();
    const auto delta = [&](uint64_t key) -> uint64_t {
      auto got = kv->Get(key);
      return (got.ok() ? got.value() : 0) - initial_[key];
    };
    uint32_t bad = 0;
    std::string first;
    for (uint32_t w = 0; w < cfg.warehouses; ++w) {
      const uint64_t wkey = hwstar::workload::TpccWarehouseKey(w);
      const uint64_t wdelta = delta(wkey);
      uint64_t dsum = 0;
      for (uint32_t d = 0; d < cfg.districts_per_warehouse; ++d) {
        dsum += delta(hwstar::workload::TpccDistrictKey(w, d));
      }
      const uint64_t paid = paid_.count(wkey) ? paid_[wkey] : 0;
      if ((wdelta != dsum || wdelta != paid) && bad++ == 0) {
        first = "warehouse " + std::to_string(w) + ": ytd delta " +
                std::to_string(wdelta) + ", districts " +
                std::to_string(dsum) + ", acked payments " +
                std::to_string(paid);
      }
    }
    report->Check(when + ".ytd", bad == 0,
                  std::to_string(cfg.warehouses) + " warehouses checked" +
                      (bad == 0 ? "" : "; " + first));
  }

 private:
  const uint64_t seed_;
  hwstar::workload::TpccStream stream_;
  PaidMap paid_;
  std::map<uint64_t, uint64_t> initial_;
};

// --- The run -----------------------------------------------------------------

std::string Dir(const RunOptions& o, const std::string& name) {
  return o.work_dir + "/" + name;
}

int RunServing(const RunOptions& options, const ServingSpec& spec,
               const svc::ServiceOptions& service_options,
               ServingWorkload* workload, Report* report) {
  const CpuSplit cpus;
  Trace trace(false);
  TimingFileBackend fs(&trace);
  if (!ResetDir(options.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", options.work_dir.c_str());
    return 1;
  }
  const double s = options.seconds;

  // Set-up: open a fresh store, load it with PutBatch, checkpoint.
  // Repeated in an untraced run; the last one serves the run.
  std::vector<uint64_t> load_keys, load_values;
  workload->MakeLoad(&load_keys, &load_values);
  std::unique_ptr<dur::DurableKvStore> db;
  std::string db_dir;
  Samples setup_ns;
  const int setups = options.trace ? 1 : kSetups;
  for (int rep = 0; rep < setups; ++rep) {
    db.reset();
    if (!db_dir.empty()) ResetDir(db_dir);
    db_dir = Dir(options, "db" + std::to_string(rep));
    ResetDir(db_dir);
    const uint64_t t0 = NowNs();
    auto opened =
        dur::DurableKvStore::Open(&fs, db_dir + "/db", StoreOptions());
    if (!opened.ok()) {
      std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).value();
    Status st;
    constexpr size_t kChunk = 1 << 16;
    for (size_t i = 0; st.ok() && i < load_keys.size(); i += kChunk) {
      st = db->PutBatch(load_keys.data() + i, load_values.data() + i,
                        std::min(kChunk, load_keys.size() - i));
    }
    if (st.ok()) st = db->Checkpoint();
    if (!st.ok()) {
      std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_ns.Add(NowNs() - t0);
  }
  report->Set("setup_s", static_cast<double>(setup_ns.Quantile(0.5)) * 1e-9,
              "s", setup_ns.size());

  {
    svc::Service service(service_options, db.get());
    Client client{&service, workload, &trace, &cpus};
    if (!options.trace) {
      PhaseResult low = RunFixedPhase(&client, spec, spec.low_rps,
                                      kPhaseShare * s, "low", report);
      PhaseResult high = RunFixedPhase(&client, spec, spec.high_rps,
                                       kPhaseShare * s, "high", report);
      // Peak memory through set-up and the fixed rates: the probe's
      // overload steps hold a varying number of requests in flight.
      ReportEpochAndRss(report);
      const double max_rps =
          ProbeMaxRps(&client, spec, kProbeStepShare * s, report);
      ReportLatency(&low, "low", report);
      ReportLatency(&high, "high", report);
      report->Set("max_rps_at_slo", max_rps, "1/s", kProbeSteps);
      const uint64_t attempted = low.attempted + high.attempted;
      const uint64_t failed = low.failed + high.failed;
      report->Set("ok_frac",
                  1.0 - Frac(static_cast<double>(failed),
                             static_cast<double>(attempted)),
                  "frac", attempted);
      report->Set("cpu_us_per_op",
                  Frac(low.cpu_ns_per_op * static_cast<double>(low.attempted) +
                           high.cpu_ns_per_op *
                               static_cast<double>(high.attempted),
                       static_cast<double>(attempted)) *
                      1e-3,
                  "us", attempted);
      report->CountOps(attempted, failed);
      report->Set("bench.gen_lag_p99_ms",
                  static_cast<double>(high.lag.Quantile(0.99)) * 1e-6, "ms",
                  high.lag.size());
    } else {
      PhaseResult warmup = RunPhase(&client, spec.high_rps, kWarmupShare * s);
      CheckPhaseOutputs(&warmup, "warmup", report);
      PhaseResult plain =
          RunPhase(&client, spec.high_rps, kTracedPhaseShare * s);
      CheckPhaseOutputs(&plain, "high", report);
      DurSnapshot before;
      trace.set_on(true);
      PhaseResult traced = RunFixedPhase(
          &client, spec, spec.high_rps, kTracedPhaseShare * s, "traced_high",
          report, [&] {
            trace.Clear();
            fs.TakeTimings(nullptr, nullptr);
            before = TakeDur(&fs, db.get());
          });
      trace.set_on(false);
      const DurSnapshot after = TakeDur(&fs, db.get());
      Samples append_ns, sync_ns;
      fs.TakeTimings(&append_ns, &sync_ns);
      ReportPhaseLayers(&traced, report);
      ReportDurLayers(before, after, &append_ns, &sync_ns, &traced, report);
      report->Set("bench.trace_overhead_frac",
                  traced.LatencyMs(0.5) / plain.LatencyMs(0.5) - 1.0, "frac",
                  traced.attempted);
      report->CountOps(plain.attempted + traced.attempted,
                       plain.failed + traced.failed);
    }
  }  // the service drains and stops here

  if (options.trace) {
    workload->DirectDrive(db.get(), kDirectDriveShare * s, report);
  }
  workload->CheckState(db.get(), "live", report);

  // Crash copy: every file cut to its last synced length, then reopened.
  const std::string crash_dir = Dir(options, "crash");
  ResetDir(crash_dir);
  const Status copied = fs.CrashCopy(db_dir, crash_dir);
  report->Check("crash_copy", copied.ok(), copied.ToString());
  db.reset();
  ResetDir(db_dir);
  dur::PosixFileBackend posix;
  const uint64_t t0 = NowNs();
  auto recovered =
      dur::DurableKvStore::Open(&posix, crash_dir + "/db", StoreOptions());
  const uint64_t recover_ns = NowNs() - t0;
  report->Check("recover_open", recovered.ok(),
                recovered.ok() ? "ok" : recovered.status().ToString());
  if (recovered.ok()) {
    workload->CheckState(recovered.value().get(), "recovered", report);
  }
  report->Set("dur.recover_s", static_cast<double>(recover_ns) * 1e-9, "s", 1);
  if (options.trace) ReportEpochAndRss(report);

  if (options.trace) FinishTrace(trace, options);
  return 0;
}

}  // namespace

int RunKvServe(const RunOptions& options, Report* report) {
  KvWorkload workload(options.seed);
  return RunServing(options, kKvSpec, ServiceOpts(2, 50'000), &workload,
                    report);
}

int RunTpccTxn(const RunOptions& options, Report* report) {
  TpccWorkload workload(options.seed);
  svc::ServiceOptions o = ServiceOpts(kTxnWorkers, 0);
  // Transactions execute one per batch slot; do not linger for mates, and
  // never degrade them (the plain policy), as in E21.
  o.policy = std::make_shared<svc::OverloadPolicy>();
  o.max_pending_batches = 2 * kTxnWorkers;
  return RunServing(options, kTpccSpec, o, &workload, report);
}

}  // namespace perfbench
