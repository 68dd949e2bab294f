// Shared pieces of the benchmark: clocks, exact percentiles, the result
// record, in-memory spans, the timing FileBackend wrapper that also makes
// crash copies, and the host/configuration stamp.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hwstar/dur/file_backend.h"

namespace perfbench {

// --- The shape of a run, shared by every workload ---------------------------

// Share of --seconds for each part of an untraced run: kProbeSteps steps of
// a log-space bisection for max_rps_at_slo, then the low and high phases.
inline constexpr int kProbeSteps = 7;
inline constexpr double kProbeStepShare = 0.03;
inline constexpr double kPhaseShare = 0.4;
// A traced run offers the high rate three times: a discarded warm-up, then
// untraced and traced phases whose comparison prices the tracing.
inline constexpr double kWarmupShare = 0.1;
inline constexpr double kTracedPhaseShare = 0.3;
// A fixed-rate phase found invalid (a generator that fell behind its
// schedule, say) is measured again, up to this many attempts in all: a
// shared host's stalls come and go. When the last attempt is invalid too,
// that phase's latencies are recorded as null, with the reason.
inline constexpr int kPhaseAttempts = 3;
/// The check name of a phase's `attempt`-th attempt.
inline std::string AttemptName(const std::string& phase, int attempt) {
  return attempt == 1 ? phase : phase + ".attempt" + std::to_string(attempt);
}
// A probe step misses the SLO when more than this share of its offered
// work is still outstanding when its window closes (a growing backlog).
inline constexpr double kMaxBacklogShare = 0.01;

/// max_rps_at_slo: a kProbeSteps-step log-space bisection over [lo, hi].
/// `meets(rate, step)` runs one probe step at `rate` and says whether it
/// met the SLO. Returns the highest rate that did (lo when none did).
double ProbeMaxRate(double lo, double hi,
                    const std::function<bool(double rate, int step)>& meets);

/// num / den, or 0 when there is no base.
inline double Frac(double num, double den) {
  return den <= 0 ? 0.0 : num / den;
}

/// Steady-clock nanoseconds; the same clock as svc::ServiceNow().
uint64_t NowNs();
/// Waits until steady-clock time `t` (no-op when already past): sleeps
/// while far ahead, then spins.
void WaitUntilNs(uint64_t t);

/// CPU time, in ns, that every thread of this process but the calling one
/// has used since construction: the system under test's cost, without the
/// spinning generator on the calling thread.
class OtherThreadsCpu {
 public:
  OtherThreadsCpu();
  uint64_t ElapsedNs() const;

 private:
  static uint64_t Process();
  static uint64_t Self();
  uint64_t process0_;
  uint64_t self0_;
};

/// Windows over which CpuPerOp takes its median: long enough that a cost
/// recurring at least once a second is in every window.
inline constexpr double kCpuWindowSeconds = 1.0;

/// The system's CPU cost per operation over one phase, robust to a stall
/// of the shared host in part of it: OtherThreadsCpu is read each time the
/// calling thread has offered another `window_ops` operations, and the
/// cost is the median over those windows of CPU time per operation.
class CpuPerOp {
 public:
  explicit CpuPerOp(uint64_t window_ops);
  /// Counts `ops` more operations offered; closes a window when it is due.
  void Offered(uint64_t ops);
  /// Median over the closed windows of CPU ns per operation; over
  /// everything offered so far when no window closed.
  double MedianNs() const;

 private:
  OtherThreadsCpu cpu_;
  uint64_t window_ops_;
  uint64_t ops_ = 0;  ///< offered since the last window closed
  uint64_t total_ops_ = 0;
  uint64_t window_start_ns_ = 0;
  std::vector<double> per_op_;
};

/// Splits the CPUs this process may use: the last one for the load
/// generator, the rest for the system under test. Construct at the start
/// of a run, before any thread of the system exists: the calling thread
/// moves to the system's CPUs, so the threads it creates inherit them.
/// Generator() scopes then move the calling thread to the generator's CPU
/// while it offers load, so the spinning generator never takes a core from
/// the system and the system never preempts the generator. With one CPU
/// there is no split and both share it.
class CpuSplit {
 public:
  CpuSplit();
  ~CpuSplit();
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  class Generator {
   public:
    explicit Generator(const CpuSplit& split);
    ~Generator();
    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

   private:
    const CpuSplit& split_;
  };

 private:
  void Apply(bool generator) const;
  std::vector<int> cpus_;  ///< CPUs allowed at construction
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL files, crash copies).
  /// Emptied by the workload before use.
  std::string work_dir;
  /// Where a traced run writes its spans.
  std::string trace_path;
};

/// Latency or cost samples with exact nearest-rank quantiles. A failed
/// operation is recorded as kFailed, which sorts above every real sample,
/// so a failed, shed or expired request counts as over any limit.
class Samples {
 public:
  static constexpr uint64_t kFailed = ~uint64_t{0};

  void Add(uint64_t v) {
    v_.push_back(v);
    sorted_.clear();
  }
  void Append(const Samples& other);
  void Reserve(size_t n) { v_.reserve(n); }
  size_t size() const { return v_.size(); }
  /// Nearest-rank quantile (obs::NearestRankIndex; 0 if empty).
  uint64_t Quantile(double q);
  /// Mean of the non-failed samples (0 if none).
  double Mean() const;

 private:
  std::vector<uint64_t> v_;
  std::vector<uint64_t> sorted_;  ///< sorted copy; empty until needed
};

/// One workload run's outcome: metrics by name (value, unit, sample
/// count), correctness checks, operation counts and invalid phases.
class Report {
 public:
  struct Metric {
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  /// Records a correctness check; a failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Records why a phase's latencies cannot stand as numbers (a generator
  /// that fell behind its schedule, say); the workload reports them as
  /// null. The run's other metrics stand.
  void Invalid(const std::string& why);
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const;

  /// Human-readable table on stdout.
  void Print(const std::string& title) const;
  /// The machine-readable record (stamp, metrics, checks, counts).
  std::string ToJson(const RunOptions& options) const;

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::string> invalid_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Reports peak_rss_mb (this process's peak resident set so far) and
/// sync.epoch_retired_bytes_max (the global epoch manager's high-water
/// mark of retired, not yet freed bytes).
void ReportEpochAndRss(Report* report);

/// In-memory spans, written out when the run ends. A span has a name, a
/// start and end (steady-clock ns), the index of the span that caused it
/// (-1 for a root) and a request id (0 when it belongs to no request).
/// Disabled traces record nothing and cost one branch per call.
class Trace {
 public:
  struct Span {
    const char* name;  ///< static string
    uint64_t start;
    uint64_t end;
    int64_t parent;
    uint64_t request;
  };
  struct SelfTime {
    uint64_t spans = 0;
    uint64_t total_ns = 0;  ///< sum of span durations
    uint64_t self_ns = 0;   ///< duration minus what child spans cover
  };

  explicit Trace(bool on) : on_(on) {}
  bool on() const { return on_.load(std::memory_order_relaxed); }
  /// Turns recording on or off (a traced run measures an untraced phase
  /// first, to price the tracing itself).
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  /// Drops every span (those of a phase attempt that was discarded).
  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
  }
  /// Returns the new span's index, or -1 when tracing is off.
  int64_t Add(const char* name, uint64_t start, uint64_t end, int64_t parent,
              uint64_t request);
  /// Self time per span name.
  std::map<std::string, SelfTime> SelfTimes() const;
  /// Tab-separated: index, name, start, end, parent, request.
  bool Write(const std::string& path) const;

 private:
  std::atomic<bool> on_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// A dur::FileBackend over real files that times every WritableFile
/// Append and Sync, counts appended bytes, and remembers each file's
/// length at its last successful Sync. That length is what a power loss
/// would keep, so CrashCopy can build the directory a crash would leave.
class TimingFileBackend : public hwstar::dur::FileBackend {
 public:
  explicit TimingFileBackend(Trace* trace) : trace_(trace) {}

  hwstar::Result<std::unique_ptr<hwstar::dur::WritableFile>> OpenForAppend(
      const std::string& path) override;
  hwstar::Result<std::string> ReadFile(const std::string& path) override;
  hwstar::Status Rename(const std::string& from,
                        const std::string& to) override;
  hwstar::Status Remove(const std::string& path) override;
  bool Exists(const std::string& path) override;
  hwstar::Result<std::vector<std::string>> List(
      const std::string& prefix) override;

  /// Copies every live file under `src_dir` into `dst_dir`, each cut to
  /// its last synced length. Call only while no writer is active.
  hwstar::Status CrashCopy(const std::string& src_dir,
                           const std::string& dst_dir);

  struct Io {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;
    uint64_t syncs = 0;
  };
  Io io() const;
  /// Append and Sync durations recorded since the last call (drains them).
  void TakeTimings(Samples* append_ns, Samples* sync_ns);

 private:
  friend class TimingWritableFile;
  void OnAppend(uint64_t start, uint64_t end, size_t bytes);
  void OnSync(const std::string& path, uint64_t start, uint64_t end,
              uint64_t synced_size);

  hwstar::dur::PosixFileBackend posix_;
  Trace* trace_;
  mutable std::mutex mutex_;
  std::map<std::string, uint64_t> synced_;  ///< path -> durable length
  Io io_;
  Samples append_ns_;
  Samples sync_ns_;
};

/// Host and configuration stamp as a JSON object: topology (cores,
/// caches), ISA, SIMD backend, tunables, build type and whether the vector
/// backends were compiled out. Results whose stamps differ are not
/// comparable.
std::string HostStampJson();

/// Prints each span name's count, mean duration and mean self time, and
/// writes the spans to options.trace_path.
void FinishTrace(const Trace& trace, const RunOptions& options);

/// Removes and recreates `dir`.
bool ResetDir(const std::string& dir);

int RunKvServe(const RunOptions& options, Report* report);
int RunTpccTxn(const RunOptions& options, Report* report);
int RunStreamEnrich(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
