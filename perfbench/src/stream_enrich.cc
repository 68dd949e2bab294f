// stream_enrich: one streaming pipeline per phase. Source rows, paced
// open-loop at a fixed rate, flow through a StreamTableJoin against an
// 8M-key build table (above the last-level cache) into a tumbling
// WindowAggregator and a checking sink, on a 3-worker Executor.
//
// Latency is per window emission, from the due time of the source batch
// whose watermark closed the window to the emission. Every phase's window
// results are checked against a single-threaded reference fold of the
// same rows.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "hwstar/common/hash.h"
#include "hwstar/common/random.h"
#include "hwstar/exec/executor.h"
#include "hwstar/stream/join.h"
#include "hwstar/stream/pipeline.h"
#include "hwstar/stream/source.h"
#include "hwstar/stream/window.h"

namespace perfbench {
namespace {

namespace stream = hwstar::stream;

constexpr uint64_t kBuildKeys = uint64_t{1} << 23;       // dense 0..8M-1
constexpr uint64_t kStreamKeySpace = uint64_t{1} << 24;  // half the rows hit
constexpr double kBuildLoadFactor = 0.5;
constexpr uint64_t kWindow = 8192;  // event-time units; one unit per row
constexpr uint64_t kLateness = 256;
constexpr uint32_t kWorkers = 3;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// Joined rows a traced run keeps for the single-threaded window replay.
constexpr uint64_t kReplayRows = uint64_t{1} << 21;

/// Frozen from measurements of the commit that introduced the benchmark
/// (see perfbench/rationale.json). Rates are source rows per second.
constexpr double kP99LimitMs = 20.0;
constexpr double kLowRowsPerS = 2.0e6;
constexpr double kHighRowsPerS = 3.5e6;
constexpr double kProbeLoRowsPerS = 2.0e6;
constexpr double kProbeHiRowsPerS = 32.0e6;
// The source is late when the pipeline pushes back (the pump blocks on a
// full partition queue), which latency from due time already counts. A
// fixed-rate phase is invalid only when generating the rows alone takes
// more than this share of the time the rate allows: then the source, not
// the pipeline, sets the pace.
constexpr double kMaxSourceBusyShare = 0.5;

int64_t Payload(uint64_t key) {
  return static_cast<int64_t>(hwstar::Mix64(key) & 0xFFFF) + 1;
}

/// The deterministic row stream: row r has a key uniform over the stream
/// key space, a small value, and event time r minus a jitter of at most
/// kLateness, so with that lateness bound no row is ever late.
class RowGen {
 public:
  explicit RowGen(uint64_t seed) : rng_(seed) {}
  void Next(uint64_t* key, int64_t* value, uint64_t* ts) {
    *key = rng_.NextBounded(kStreamKeySpace);
    *value = static_cast<int64_t>(rng_.NextBounded(1000)) + 1;
    const uint64_t jitter = rng_.NextBounded(kLateness + 1);
    *ts = row_ > jitter ? row_ - jitter : 0;
    ++row_;
  }

 private:
  hwstar::Xoshiro256 rng_;
  uint64_t row_ = 0;
};

uint64_t WindowHash(uint64_t start, uint64_t key, int64_t sum,
                    uint64_t count) {
  return hwstar::Mix64(
      start ^ hwstar::Mix64(key ^ hwstar::Mix64(static_cast<uint64_t>(sum) ^
                                                hwstar::Mix64(count))));
}

/// Open-loop source: batch rows are generated ahead, then the pump thread
/// waits until the batch's last row is due. Publishes each batch's due
/// time and watermark so the sink can time emissions from due time.
class PacedSource : public stream::Source {
 public:
  struct BatchInfo {
    uint64_t due;
    uint64_t watermark;
    uint64_t pulled;
    uint64_t rows;
  };

  PacedSource(uint64_t seed, uint64_t total_rows, double rate, Trace* trace)
      : gen_(seed),
        total_(total_rows),
        interval_(1e9 / rate),
        trace_(trace),
        // Sized once (the sink reads it concurrently): the pipeline's batch
        // size never drops below the stream.batch_rows floor of 64 rows.
        infos_(total_rows / 64 + 2) {}

  /// Starts the schedule at `start_ns`; `cpu` counts each batch's rows.
  void Start(uint64_t start_ns, CpuPerOp* cpu) {
    start_ = start_ns;
    cpu_ = cpu;
  }

  bool NextBatch(uint64_t max_rows, stream::StreamBatch* out) override {
    if (emitted_ == total_) return false;
    const uint64_t count = std::min(max_rows, total_ - emitted_);
    const uint64_t g0 = NowNs();
    out->Reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t key = 0, ts = 0;
      int64_t value = 0;
      gen_.Next(&key, &value, &ts);
      out->Append(key, value, ts);
      max_ts_ = std::max(max_ts_, ts);
    }
    const uint64_t g1 = NowNs();
    gen_ns_ += g1 - g0;
    const uint64_t due =
        start_ + static_cast<uint64_t>(
                     static_cast<double>(emitted_ + count - 1) * interval_);
    WaitUntilNs(due);
    const uint64_t pulled = NowNs();
    trace_->Add("stream.source", g0, g1, -1, 0);
    lag_.Add(pulled > due ? pulled - due : 0);
    const size_t n = published_.load(std::memory_order_relaxed);
    // The pipeline's watermark for this batch (WatermarkTracker).
    infos_[n] = {due, max_ts_ > kLateness ? max_ts_ - kLateness : 0, pulled,
                 count};
    published_.store(n + 1, std::memory_order_release);
    emitted_ += count;
    cpu_->Offered(count);
    return true;
  }

  /// Due time of the first batch whose watermark reached `end` (the batch
  /// that closed a window ending there); 0 for the end-of-stream flush.
  uint64_t DueOfClosing(uint64_t end) const {
    const size_t n = published_.load(std::memory_order_acquire);
    const auto it = std::lower_bound(
        infos_.begin(), infos_.begin() + static_cast<std::ptrdiff_t>(n), end,
        [](const BatchInfo& b, uint64_t e) { return b.watermark < e; });
    return it == infos_.begin() + static_cast<std::ptrdiff_t>(n) ? 0 : it->due;
  }

  /// Rows of batches pulled after `close` (behind schedule at close).
  uint64_t RowsPulledAfter(uint64_t close) const {
    uint64_t rows = 0;
    const size_t n = published_.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      if (infos_[i].pulled > close) rows += infos_[i].rows;
    }
    return rows;
  }

  uint64_t gen_ns() const { return gen_ns_; }
  Samples* lag() { return &lag_; }

 private:
  RowGen gen_;
  const uint64_t total_;
  const double interval_;
  Trace* trace_;
  uint64_t start_ = 0;
  CpuPerOp* cpu_ = nullptr;
  uint64_t emitted_ = 0;
  uint64_t max_ts_ = 0;
  uint64_t gen_ns_ = 0;
  Samples lag_;
  std::vector<BatchInfo> infos_;
  std::atomic<size_t> published_{0};
};

/// Wraps the join: counts rows in and out, and in a traced phase times
/// each Apply and keeps joined sub-batches for the window replay.
class TimedJoin : public stream::Transform {
 public:
  TimedJoin(stream::StreamTableJoin* join, Trace* trace)
      : join_(join), trace_(trace) {}

  void Bind(uint32_t partitions) override {
    join_->Bind(partitions);
    parts_ = std::vector<Part>(partitions);
  }

  void Apply(uint32_t p, stream::StreamBatch* batch) override {
    Part& part = parts_[p];
    const size_t in = batch->size();
    if (!trace_->on()) {
      join_->Apply(p, batch);
    } else {
      const uint64_t t0 = NowNs();
      join_->Apply(p, batch);
      const uint64_t t1 = NowNs();
      trace_->Add("stream.join", t0, t1, -1, 0);
      part.ns += t1 - t0;
      if (part.kept_rows < kReplayRows / parts_.size()) {
        part.kept.push_back(*batch);
        part.kept_rows += batch->size();
      }
    }
    ++part.applies;
    part.rows_in += in;
    part.rows_out += batch->size();
  }

  struct alignas(64) Part {
    uint64_t applies = 0, rows_in = 0, rows_out = 0, ns = 0, kept_rows = 0;
    std::vector<stream::StreamBatch> kept;
  };
  const std::vector<Part>& parts() const { return parts_; }

 private:
  stream::StreamTableJoin* join_;
  Trace* trace_;
  std::vector<Part> parts_;
};

/// Folds every emitted window into an order-independent checksum and
/// times each emission from the due time of the batch that closed it.
class CheckingSink : public stream::Sink {
 public:
  CheckingSink(const PacedSource* source, uint32_t partitions, Trace* trace)
      : source_(source), parts_(partitions), trace_(trace) {}

  void OnWindows(uint32_t p,
                 const std::vector<stream::WindowResult>& results) override {
    const uint64_t now = NowNs();
    Part& part = parts_[p];
    for (const auto& r : results) {
      part.checksum += WindowHash(r.window_start, r.key, r.sum, r.count);
    }
    part.results += results.size();
    const uint64_t due = source_->DueOfClosing(results.back().window_end);
    if (due != 0) part.latency.Add(now > due ? now - due : 0);
    trace_->Add("stream.sink", now, NowNs(), -1, 0);
  }

  uint64_t checksum() const {
    uint64_t sum = 0;
    for (const auto& p : parts_) sum += p.checksum;
    return sum;
  }
  uint64_t results() const {
    uint64_t n = 0;
    for (const auto& p : parts_) n += p.results;
    return n;
  }
  Samples Latency() const {
    Samples all;
    for (const auto& p : parts_) all.Append(p.latency);
    return all;
  }

 private:
  struct alignas(64) Part {
    uint64_t checksum = 0;
    uint64_t results = 0;
    Samples latency;
  };
  const PacedSource* source_;
  std::vector<Part> parts_;
  Trace* trace_;
};

/// Single-threaded reference: the same rows, joined and folded into
/// tumbling windows, as (checksum, result count).
std::pair<uint64_t, uint64_t> ReferenceFold(uint64_t seed, uint64_t rows) {
  struct Partial {
    int64_t sum = 0;
    uint64_t count = 0;
  };
  RowGen gen(seed);
  std::map<uint64_t, std::unordered_map<uint64_t, Partial>> open;
  uint64_t checksum = 0, results = 0;
  const auto close = [&](auto it) {
    for (const auto& [key, p] : it->second) {
      checksum += WindowHash(it->first, key, p.sum, p.count);
      ++results;
    }
    return open.erase(it);
  };
  for (uint64_t r = 0; r < rows; ++r) {
    uint64_t key = 0, ts = 0;
    int64_t value = 0;
    gen.Next(&key, &value, &ts);
    if (key < kBuildKeys) {
      Partial& p = open[ts / kWindow * kWindow][key];
      p.sum += value + Payload(key);  // JoinCombine::kSum
      ++p.count;
    }
    // No later row can reach a window that ended kLateness rows ago.
    while (!open.empty() && open.begin()->first + kWindow + kLateness <= r) {
      close(open.begin());
    }
  }
  while (!open.empty()) close(open.begin());
  return {checksum, results};
}

struct StreamPhase {
  /// CPU of every thread but the pump per row (CpuPerOp median).
  double cpu_ns_per_row = 0;
  uint64_t rows = 0;
  uint64_t backlog_rows = 0;
  double offered_rows_per_s = 0;
  Samples latency;
  Samples lag;
  uint64_t late = 0, shed = 0, windows = 0;
  uint64_t shed_rows = 0;  ///< rows of the shed sub-batches
  uint64_t gen_ns = 0;
  uint64_t join_applies = 0, join_in = 0, join_out = 0, join_ns = 0;
  uint64_t tasks = 0, steals = 0, local_pops = 0;
  double window_ns_per_row = 0;
  uint64_t replay_rows = 0;
  bool checksum_ok = false;
  std::string check_detail;
  bool valid = true;  ///< false: its latencies are recorded as null

  double LatencyMs(double q) {
    return static_cast<double>(latency.Quantile(q)) * 1e-6;
  }
};

/// Runs one pipeline to completion; the pump (and so the paced source)
/// runs on this thread, on the generator's CPU.
StreamPhase RunStreamPhase(const CpuSplit& cpus,
                           hwstar::exec::Executor* executor,
                           stream::StreamTableJoin* join, uint64_t seed,
                           double rate, double seconds, Trace* trace) {
  const CpuSplit::Generator on_generator_cpu(cpus);
  StreamPhase out;
  out.rows = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(rate * seconds)));
  PacedSource source(seed, out.rows, rate, trace);
  TimedJoin timed(join, trace);
  stream::WindowAggregator window(stream::WindowSpec::Tumbling(kWindow));
  stream::PipelineOptions po;
  po.partitions = kWorkers;
  po.lateness_bound = kLateness;
  po.backpressure = stream::BackpressurePolicy::kBlock;
  CheckingSink sink(&source, kWorkers, trace);
  auto pipeline = stream::PipelineBuilder(executor)
                      .From(&source)
                      .Via(&timed)
                      .Aggregate(&window)
                      .To(&sink)
                      .With(po)
                      .Build();
  const hwstar::exec::ExecutorStats ex0 = executor->stats();
  const uint64_t tasks0 = executor->tasks_run();
  const uint64_t start = NowNs() + 200'000;
  CpuPerOp system_cpu(
      static_cast<uint64_t>(std::llround(rate * kCpuWindowSeconds)));
  source.Start(start, &system_cpu);
  pipeline->Run();
  out.cpu_ns_per_row = system_cpu.MedianNs();
  const hwstar::exec::ExecutorStats ex1 = executor->stats();
  out.tasks = executor->tasks_run() - tasks0;
  out.steals = ex1.steals - ex0.steals;
  out.local_pops = ex1.local_pops - ex0.local_pops;

  const uint64_t close =
      start + static_cast<uint64_t>(static_cast<double>(out.rows) * 1e9 / rate);
  out.backlog_rows = source.RowsPulledAfter(close);
  out.offered_rows_per_s = rate;
  out.latency = sink.Latency();
  out.lag = *source.lag();
  out.late = pipeline->late_dropped();
  out.shed = pipeline->batches_shed();
  out.windows = pipeline->windows_emitted();
  out.gen_ns = source.gen_ns();
  for (const auto& p : timed.parts()) {
    out.join_applies += p.applies;
    out.join_in += p.rows_in;
    out.join_out += p.rows_out;
    out.join_ns += p.ns;
  }
  // Shedding drops sub-batches before the join, so every row the join did
  // not see was shed.
  out.shed_rows = out.rows - std::min(out.rows, out.join_in);

  // Window replay: the kept joined sub-batches, in partition order,
  // through a fresh aggregator on this thread.
  if (trace->on()) {
    stream::WindowAggregator replay(stream::WindowSpec::Tumbling(kWindow));
    replay.Bind(kWorkers);
    std::vector<stream::WindowResult> results;
    uint64_t late = 0;
    const uint64_t t0 = NowNs();
    for (uint32_t p = 0; p < kWorkers; ++p) {
      for (const auto& b : timed.parts()[p].kept) {
        replay.OnBatch(p, b, &results, &late);
        out.replay_rows += b.size();
        results.clear();
      }
    }
    out.window_ns_per_row =
        out.replay_rows == 0
            ? 0.0
            : static_cast<double>(NowNs() - t0) /
                  static_cast<double>(out.replay_rows);
  }

  const auto [ref_sum, ref_results] = ReferenceFold(seed, out.rows);
  out.checksum_ok = ref_sum == sink.checksum() && ref_results == sink.results();
  out.check_detail = std::to_string(sink.results()) + " window results, " +
                     std::to_string(ref_results) + " in the reference fold; " +
                     (ref_sum == sink.checksum() ? "checksums match"
                                                 : "checksums differ");
  return out;
}

bool MeetsSlo(StreamPhase* p) {
  return p->LatencyMs(0.99) <= kP99LimitMs &&
         static_cast<double>(p->backlog_rows) <=
             kMaxBacklogShare * static_cast<double>(p->rows);
}

void CheckPhase(StreamPhase* p, const std::string& name, Report* report) {
  report->Check(name + ".windows", p->checksum_ok, p->check_detail);
  report->Check(name + ".no_loss", p->late == 0 && p->shed == 0,
                std::to_string(p->late) + " late rows, " +
                    std::to_string(p->shed) + " shed batches (" +
                    std::to_string(p->shed_rows) + " rows)");
}

/// Why a fixed-rate phase cannot stand as a number, or "" when it can.
std::string InvalidReason(const StreamPhase& p, double rate,
                          const std::string& name) {
  const double busy = static_cast<double>(p.gen_ns) * 1e-9 * rate /
                      static_cast<double>(p.rows);
  if (busy <= kMaxSourceBusyShare) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s phase: generating rows takes %.0f%% of the source's "
                "time budget (bound %.0f%%)",
                name.c_str(), busy * 100, kMaxSourceBusyShare * 100);
  return buf;
}

/// Runs the fixed-rate phase `name`, again while it is invalid, up to
/// kPhaseAttempts in all; the result is marked invalid when the last
/// attempt is.
/// Every attempt's windows are checked, and a traced attempt that is
/// discarded leaves no spans.
StreamPhase RunFixedStreamPhase(const CpuSplit& cpus,
                                hwstar::exec::Executor* executor,
                                stream::StreamTableJoin* join, uint64_t seed,
                                double rate, double seconds, Trace* trace,
                                const std::string& name, Report* report) {
  for (int attempt = 1;; ++attempt) {
    trace->Clear();
    StreamPhase p =
        RunStreamPhase(cpus, executor, join, seed, rate, seconds, trace);
    CheckPhase(&p, AttemptName(name, attempt), report);
    const std::string why = InvalidReason(p, rate, name);
    if (why.empty()) return p;
    if (attempt == kPhaseAttempts) {
      report->Invalid(why);
      p.valid = false;
      return p;
    }
    std::printf("  %s: measuring the phase again\n", why.c_str());
  }
}

}  // namespace

int RunStreamEnrich(const RunOptions& options, Report* report) {
  const CpuSplit cpus;
  Trace trace(false);
  if (!ResetDir(options.work_dir)) return 1;
  const double s = options.seconds;

  // Set-up: hash the build side, generated once beforehand.
  std::vector<uint64_t> keys(kBuildKeys);
  std::vector<int64_t> payloads(kBuildKeys);
  for (uint64_t k = 0; k < kBuildKeys; ++k) {
    keys[k] = k;
    payloads[k] = Payload(k);
  }
  stream::StreamJoinOptions jo;
  jo.combine = stream::JoinCombine::kSum;
  jo.load_factor = kBuildLoadFactor;
  std::unique_ptr<stream::StreamTableJoin> join;
  Samples setup_ns;
  const int setups = options.trace ? 1 : kSetups;
  for (int rep = 0; rep < setups; ++rep) {
    join.reset();
    const uint64_t t0 = NowNs();
    join = std::make_unique<stream::StreamTableJoin>(keys.data(),
                                                     payloads.data(),
                                                     kBuildKeys, jo);
    setup_ns.Add(NowNs() - t0);
  }
  std::vector<uint64_t>().swap(keys);
  std::vector<int64_t>().swap(payloads);
  report->Set("setup_s", static_cast<double>(setup_ns.Quantile(0.5)) * 1e-9,
              "s", setup_ns.size());

  hwstar::exec::Executor executor(kWorkers);
  uint64_t phase_seed = options.seed * 1000;
  if (!options.trace) {
    StreamPhase low = RunFixedStreamPhase(
        cpus, &executor, join.get(), ++phase_seed, kLowRowsPerS,
        kPhaseShare * s, &trace, "low", report);
    StreamPhase high = RunFixedStreamPhase(
        cpus, &executor, join.get(), ++phase_seed, kHighRowsPerS,
        kPhaseShare * s, &trace, "high", report);
    ReportEpochAndRss(report);
    const double max_rows_per_s = ProbeMaxRate(
        kProbeLoRowsPerS, kProbeHiRowsPerS, [&](double rate, int step) {
          StreamPhase p = RunStreamPhase(cpus, &executor, join.get(),
                                         ++phase_seed, rate,
                                         kProbeStepShare * s, &trace);
          const bool ok = MeetsSlo(&p);
          std::printf("  probe %10.0f rows/s: p99=%8.3f ms backlog=%" PRIu64
                      "/%" PRIu64 " -> %s\n",
                      rate, p.LatencyMs(0.99), p.backlog_rows, p.rows,
                      ok ? "meets SLO" : "misses SLO");
          CheckPhase(&p, "probe" + std::to_string(step), report);
          return ok;
        });
    const auto report_latency = [&](StreamPhase* p, const std::string& suffix) {
      const double invalid = p->valid ? 0.0 : NAN;
      report->Set("lat_p50_ms." + suffix, p->LatencyMs(0.5) + invalid, "ms",
                  p->latency.size());
      report->Set("lat_p99_ms." + suffix, p->LatencyMs(0.99) + invalid, "ms",
                  p->latency.size());
    };
    report_latency(&low, "low");
    report_latency(&high, "high");
    report->Set("max_rps_at_slo", max_rows_per_s, "1/s", kProbeSteps);
    const uint64_t rows = low.rows + high.rows;
    const uint64_t lost =
        low.late + low.shed_rows + high.late + high.shed_rows;
    report->Set(
        "ok_frac",
        1.0 - Frac(static_cast<double>(lost), static_cast<double>(rows)),
        "frac", rows);
    report->Set("cpu_us_per_op",
                Frac(low.cpu_ns_per_row * static_cast<double>(low.rows) +
                         high.cpu_ns_per_row * static_cast<double>(high.rows),
                     static_cast<double>(rows)) *
                    1e-3,
                "us", rows);
    report->CountOps(rows, lost);
    report->Set("bench.gen_lag_p99_ms",
                static_cast<double>(high.lag.Quantile(0.99)) * 1e-6, "ms",
                high.lag.size());
  } else {
    StreamPhase warmup = RunStreamPhase(cpus, &executor, join.get(),
                                        ++phase_seed, kHighRowsPerS,
                                        kWarmupShare * s, &trace);
    StreamPhase plain = RunStreamPhase(cpus, &executor, join.get(),
                                       ++phase_seed, kHighRowsPerS,
                                       kTracedPhaseShare * s, &trace);
    trace.set_on(true);
    StreamPhase p = RunFixedStreamPhase(
        cpus, &executor, join.get(), ++phase_seed, kHighRowsPerS,
        kTracedPhaseShare * s, &trace, "traced_high", report);
    trace.set_on(false);
    CheckPhase(&warmup, "warmup", report);
    CheckPhase(&plain, "high", report);
    const double rows = static_cast<double>(p.rows);
    report->Set("stream.source_ns_per_row",
                Frac(static_cast<double>(p.gen_ns), rows), "ns", p.rows);
    report->Set("stream.join_ns_per_row",
                Frac(static_cast<double>(p.join_ns),
                     static_cast<double>(p.join_in)),
                "ns", p.join_in);
    report->Set("stream.join_hit_frac",
                Frac(static_cast<double>(p.join_out),
                     static_cast<double>(p.join_in)),
                "frac", p.join_in);
    report->Set("stream.window_ns_per_row", p.window_ns_per_row, "ns",
                p.replay_rows);
    report->Set("stream.mean_batch_rows",
                Frac(static_cast<double>(p.join_in),
                     static_cast<double>(p.join_applies)),
                "count", p.join_applies);
    report->Set("stream.windows_emitted", static_cast<double>(p.windows),
                "count", 1);
    report->Set("stream.late_dropped", static_cast<double>(p.late), "count", 1);
    report->Set("stream.batches_shed", static_cast<double>(p.shed), "count", 1);
    const double pops = static_cast<double>(p.local_pops + p.steals);
    report->Set("exec.steal_frac", Frac(static_cast<double>(p.steals), pops),
                "frac", static_cast<uint64_t>(pops));
    report->Set("exec.tasks_per_krow",
                Frac(static_cast<double>(p.tasks), rows / 1000.0), "count",
                p.tasks);
    report->Set("bench.gen_lag_p99_ms",
                static_cast<double>(p.lag.Quantile(0.99)) * 1e-6, "ms",
                p.lag.size());
    report->Set("bench.offered_rps", p.offered_rows_per_s, "1/s", p.rows);
    report->Set("bench.trace_overhead_frac",
                p.LatencyMs(0.5) / plain.LatencyMs(0.5) - 1.0, "frac",
                p.latency.size());
    report->CountOps(plain.rows + p.rows,
                     plain.late + plain.shed_rows + p.late + p.shed_rows);
    ReportEpochAndRss(report);
  }
  if (options.trace) FinishTrace(trace, options);
  return 0;
}

}  // namespace perfbench
