#include "hwstar/obs/registry.h"

#include <cinttypes>
#include <cstdio>

#include "hwstar/common/macros.h"

namespace hwstar::obs {

void Registry::Register(const std::string& name, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  HWSTAR_CHECK(entries_.emplace(name, entry).second);  // one name, one metric
}

void Registry::RegisterCounter(const std::string& name,
                               const Counter* counter) {
  Register(name, Entry{counter, nullptr});
}

void Registry::RegisterHistogram(const std::string& name,
                                 const Histogram* histogram) {
  Register(name, Entry{nullptr, histogram});
}

std::string Registry::DumpText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  // Only the numbers go through a fixed buffer; the name is appended as a
  // string, so no name length can truncate a line (or drop its newline).
  char buf[192];
  for (const auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) {
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", entry.counter->value());
      out += "counter ";
    } else {
      const HistogramSnapshot snap = entry.histogram->Snapshot();
      std::snprintf(buf, sizeof(buf),
                    " count=%" PRIu64 " p50=%" PRIu64 " p90=%" PRIu64
                    " p99=%" PRIu64 " max=%" PRIu64 " mean=%.1f\n",
                    snap.count(), snap.Quantile(0.50), snap.Quantile(0.90),
                    snap.Quantile(0.99), snap.max(), snap.mean());
      out += "histogram ";
    }
    out += name;
    out += buf;
  }
  return out;
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace hwstar::obs
