#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "hwstar/hw/topology.h"
#include "hwstar/obs/histogram.h"
#include "hwstar/simd/backend.h"
#include "hwstar/sync/epoch.h"
#include "hwstar/tune/tunable.h"

namespace perfbench {

namespace dur = hwstar::dur;
using hwstar::Result;
using hwstar::Status;

double ProbeMaxRate(double lo, double hi,
                    const std::function<bool(double rate, int step)>& meets) {
  for (int step = 0; step < kProbeSteps; ++step) {
    const double mid = std::sqrt(lo * hi);
    (meets(mid, step) ? lo : hi) = mid;
  }
  return lo;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WaitUntilNs(uint64_t t) {
  // A sleeping thread on a virtual machine can wake milliseconds late: on
  // a 4-vCPU VM an idle sleep-paced loop showed a p99 wake-up lag of 4-6
  // ms. So sleep only while far ahead, waking kSpinWindow early, and spin
  // (with a pause, no yield) the rest of the way.
  constexpr uint64_t kSpinWindow = 10'000'000;
  uint64_t now = NowNs();
  if (now + kSpinWindow < t) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(t - kSpinWindow - now));
  }
  while (NowNs() < t) __builtin_ia32_pause();
}

uint64_t OtherThreadsCpu::Process() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t OtherThreadsCpu::Self() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<uint64_t>(ts.tv_nsec);
}

OtherThreadsCpu::OtherThreadsCpu() : process0_(Process()), self0_(Self()) {}

uint64_t OtherThreadsCpu::ElapsedNs() const {
  const uint64_t process = Process() - process0_;
  const uint64_t self = Self() - self0_;
  return process > self ? process - self : 0;
}

CpuPerOp::CpuPerOp(uint64_t window_ops)
    : window_ops_(std::max<uint64_t>(1, window_ops)) {}

void CpuPerOp::Offered(uint64_t ops) {
  ops_ += ops;
  total_ops_ += ops;
  if (ops_ < window_ops_) return;
  const uint64_t now = cpu_.ElapsedNs();
  per_op_.push_back(static_cast<double>(now - window_start_ns_) /
                    static_cast<double>(ops_));
  window_start_ns_ = now;
  ops_ = 0;
}

double CpuPerOp::MedianNs() const {
  if (per_op_.empty()) {
    return Frac(static_cast<double>(cpu_.ElapsedNs()),
                static_cast<double>(total_ops_));
  }
  std::vector<double> v = per_op_;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

CpuSplit::CpuSplit() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  Apply(false);
}

CpuSplit::~CpuSplit() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(set), &set);
}

void CpuSplit::Apply(bool generator) const {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (generator) {
    CPU_SET(cpus_.back(), &set);
  } else {
    for (size_t i = 0; i + 1 < cpus_.size(); ++i) CPU_SET(cpus_[i], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

CpuSplit::Generator::Generator(const CpuSplit& split) : split_(split) {
  split_.Apply(true);
}

CpuSplit::Generator::~Generator() { split_.Apply(false); }

void ReportEpochAndRss(Report* report) {
  const auto epochs = hwstar::sync::EpochManager::Global().stats();
  report->Set("sync.epoch_retired_bytes_max",
              static_cast<double>(epochs.retired_bytes_hwm), "bytes", 1);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  report->Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
              "MB", 1);  // ru_maxrss is in KiB
}

bool ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

// --- Samples ---------------------------------------------------------------

void Samples::Append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_.clear();
}

uint64_t Samples::Quantile(double q) {
  if (v_.empty()) return 0;
  if (sorted_.size() != v_.size()) {
    sorted_ = v_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_[hwstar::obs::NearestRankIndex(q, sorted_.size())];
}

double Samples::Mean() const {
  double sum = 0;
  uint64_t n = 0;
  for (const uint64_t v : v_) {
    if (v == kFailed) continue;
    sum += static_cast<double>(v);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// --- Report ----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::Invalid(const std::string& why) { invalid_.push_back(why); }

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const auto& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

void Report::Print(const std::string& title) const {
  std::printf("== %s\n", title.c_str());
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-32s %16.6g %-6s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const auto& c : checks_) {
    std::printf("  check %-28s %s  %s\n", c.name.c_str(),
                c.ok ? "ok" : "FAILED", c.detail.c_str());
  }
  for (const auto& why : invalid_) {
    std::printf("  INVALID: %s\n", why.c_str());
  }
  std::printf("  ops attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A number, or null when it is not finite (an unbounded p99).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson(const RunOptions& options) const {
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(options.workload)
     << ", \"seed\": " << options.seed
     << ", \"seconds\": " << JsonNumber(options.seconds)
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"stamp\": " << HostStampJson() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << JsonString(name)
       << ": {\"value\": " << JsonNumber(m.value)
       << ", \"unit\": " << JsonString(m.unit) << ", \"samples\": "
       << m.samples << "}";
    first = false;
  }
  os << "}, \"checks\": [";
  first = true;
  for (const auto& c : checks_) {
    os << (first ? "" : ", ") << "{\"name\": " << JsonString(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << JsonString(c.detail) << "}";
    first = false;
  }
  os << "], \"invalid\": [";
  first = true;
  for (const auto& why : invalid_) {
    os << (first ? "" : ", ") << JsonString(why);
    first = false;
  }
  os << "]}";
  return os.str();
}

// --- Trace -----------------------------------------------------------------

int64_t Trace::Add(const char* name, uint64_t start, uint64_t end,
                   int64_t parent, uint64_t request) {
  if (!on()) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end < start ? start : end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, Trace::SelfTime> Trace::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of each span, as [start, end) intervals clipped to it.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    SelfTime& t = out[s.name];
    ++t.spans;
    t.total_ns += s.end - s.start;
    t.self_ns += (s.end - s.start) - covered;
  }
  return out;
}

bool Trace::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%lld\t%llu\n", i, s.name,
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void FinishTrace(const Trace& trace, const RunOptions& options) {
  for (const auto& [name, t] : trace.SelfTimes()) {
    const double n = static_cast<double>(t.spans);
    std::printf("  span %-18s n=%-9llu mean=%11.3f us  self=%11.3f us\n",
                name.c_str(), static_cast<unsigned long long>(t.spans),
                static_cast<double>(t.total_ns) / n * 1e-3,
                static_cast<double>(t.self_ns) / n * 1e-3);
  }
  if (!trace.Write(options.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
  }
}

// --- TimingFileBackend -----------------------------------------------------

class TimingWritableFile : public dur::WritableFile {
 public:
  TimingWritableFile(TimingFileBackend* owner, std::string path,
                     std::unique_ptr<dur::WritableFile> file)
      : owner_(owner), path_(std::move(path)), file_(std::move(file)) {}

  Status Append(const void* data, size_t len) override {
    const uint64_t start = NowNs();
    Status st = file_->Append(data, len);
    if (st.ok()) owner_->OnAppend(start, NowNs(), len);
    return st;
  }
  Status Sync(dur::SyncMode mode) override {
    const uint64_t start = NowNs();
    Status st = file_->Sync(mode);
    if (st.ok() && mode != dur::SyncMode::kNone) {
      owner_->OnSync(path_, start, NowNs(), file_->size());
    }
    return st;
  }
  Status Close() override { return file_->Close(); }
  uint64_t size() const override { return file_->size(); }

 private:
  TimingFileBackend* owner_;
  const std::string path_;
  std::unique_ptr<dur::WritableFile> file_;
};

Result<std::unique_ptr<dur::WritableFile>> TimingFileBackend::OpenForAppend(
    const std::string& path) {
  auto file = posix_.OpenForAppend(path);
  if (!file.ok()) return file.status();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    synced_.emplace(path, 0);
  }
  return std::unique_ptr<dur::WritableFile>(
      new TimingWritableFile(this, path, std::move(file).value()));
}

Result<std::string> TimingFileBackend::ReadFile(const std::string& path) {
  return posix_.ReadFile(path);
}

Status TimingFileBackend::Rename(const std::string& from,
                                 const std::string& to) {
  Status st = posix_.Rename(from, to);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = synced_.find(from);
    const uint64_t len = it == synced_.end() ? 0 : it->second;
    if (it != synced_.end()) synced_.erase(it);
    synced_[to] = len;
  }
  return st;
}

Status TimingFileBackend::Remove(const std::string& path) {
  Status st = posix_.Remove(path);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    synced_.erase(path);
  }
  return st;
}

bool TimingFileBackend::Exists(const std::string& path) {
  return posix_.Exists(path);
}

Result<std::vector<std::string>> TimingFileBackend::List(
    const std::string& prefix) {
  return posix_.List(prefix);
}

void TimingFileBackend::OnAppend(uint64_t start, uint64_t end, size_t bytes) {
  trace_->Add("dur.append", start, end, -1, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  ++io_.appends;
  io_.append_bytes += bytes;
  append_ns_.Add(end - start);
}

void TimingFileBackend::OnSync(const std::string& path, uint64_t start,
                               uint64_t end, uint64_t synced_size) {
  trace_->Add("dur.sync", start, end, -1, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  ++io_.syncs;
  sync_ns_.Add(end - start);
  synced_[path] = synced_size;
}

TimingFileBackend::Io TimingFileBackend::io() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return io_;
}

void TimingFileBackend::TakeTimings(Samples* append_ns, Samples* sync_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (append_ns != nullptr) append_ns->Append(append_ns_);
  if (sync_ns != nullptr) sync_ns->Append(sync_ns_);
  append_ns_ = Samples();
  sync_ns_ = Samples();
}

Status TimingFileBackend::CrashCopy(const std::string& src_dir,
                                    const std::string& dst_dir) {
  namespace fs = std::filesystem;
  std::map<std::string, uint64_t> synced;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    synced = synced_;
  }
  for (const auto& [path, len] : synced) {
    const fs::path p(path);
    if (p.parent_path() != fs::path(src_dir)) continue;
    auto data = posix_.ReadFile(path);
    if (!data.ok()) return data.status();
    const std::string& bytes = data.value();
    const size_t keep = std::min<uint64_t>(len, bytes.size());
    const std::string dst = (fs::path(dst_dir) / p.filename()).string();
    std::ofstream out(dst, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    if (!out) return Status::IoError("crash copy failed for " + dst);
  }
  return Status::OK();
}

// --- Host stamp ------------------------------------------------------------

std::string HostStampJson() {
  const hwstar::hw::CpuTopology topo = hwstar::hw::DiscoverTopology();
  std::ostringstream os;
  os << "{\"logical_cores\": " << topo.logical_cores << ", \"caches\": [";
  bool first = true;
  for (const auto& c : topo.caches) {
    os << (first ? "" : ", ") << "{\"level\": " << c.level
       << ", \"type\": " << JsonString(c.type)
       << ", \"size_bytes\": " << c.size_bytes
       << ", \"line_bytes\": " << c.line_bytes << "}";
    first = false;
  }
  os << "], \"isa\": " << JsonString(topo.isa.ToString())
     << ", \"simd_best\": "
     << JsonString(hwstar::simd::BackendName(hwstar::simd::BestSupported()))
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"hwstar_disable_simd\": "
#ifdef HWSTAR_DISABLE_SIMD
     << "true"
#else
     << "false"
#endif
     << ", \"tunables\": {";
  first = true;
  for (const auto& [name, value] : hwstar::tune::Registry::Global().Values()) {
    os << (first ? "" : ", ") << JsonString(name) << ": " << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
