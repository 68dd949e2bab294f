#ifndef HWSTAR_OBS_REGISTRY_H_
#define HWSTAR_OBS_REGISTRY_H_

#include <map>
#include <mutex>
#include <string>

#include "hwstar/obs/histogram.h"
#include "hwstar/obs/metric.h"

namespace hwstar::obs {

/// A named catalogue of counters and histograms with a plain-text
/// exposition (DumpText). The registry owns nothing: each component keeps
/// its metrics as members and attaches them here through its
/// `RegisterMetrics(Registry*) const`, so a scrape reads the live values
/// without copying them around. A component must outlive the registry's
/// use of it.
///
/// Registration and dumping take a mutex; they are off the hot path — the
/// metrics themselves stay lock-free. One name maps to one metric:
/// registering a taken name (of either kind) is a programmer error
/// (checked).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void RegisterCounter(const std::string& name, const Counter* counter);
  void RegisterHistogram(const std::string& name, const Histogram* histogram);

  /// One line per metric, sorted by name:
  ///   counter <name> <value>
  ///   histogram <name> count=N p50=... p90=... p99=... max=... mean=...
  std::string DumpText() const;

  size_t size() const;

 private:
  /// Exactly one of the two is set.
  struct Entry {
    const Counter* counter = nullptr;
    const Histogram* histogram = nullptr;
  };

  void Register(const std::string& name, Entry entry);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace hwstar::obs

#endif  // HWSTAR_OBS_REGISTRY_H_
