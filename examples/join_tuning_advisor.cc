// Join tuning advisor: demonstrates why "one join implementation" is no
// longer enough. For a sweep of build sizes it runs the oblivious
// no-partitioning join and the cache-sized radix join, prints who wins,
// and shows that the winner flips exactly where the build side outgrows
// the last-level cache -- the paper's core claim made executable.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "hwstar/common/timer.h"
#include "hwstar/hw/topology.h"
#include "hwstar/ops/join_nop.h"
#include "hwstar/ops/join_radix.h"
#include "hwstar/perf/report.h"
#include "hwstar/workload/distributions.h"

namespace {

/// Median wall time of `fn` in ms over 3 runs, after one unmeasured warm-up.
double MedianMillis(const std::function<void()>& fn) {
  fn();
  double ms[3];
  for (double& t : ms) {
    hwstar::WallTimer timer;
    fn();
    t = timer.ElapsedSeconds() * 1e3;
  }
  std::sort(ms, ms + 3);
  return ms[1];
}

}  // namespace

int main() {
  using namespace hwstar;

  auto topo = hw::DiscoverTopology();
  uint64_t llc = topo.CacheSizeBytes(3);
  if (llc == 0) llc = topo.CacheSizeBytes(2);
  if (llc == 0) llc = 8 << 20;
  std::printf("host: %s (LLC = %llu KB)\n\n", topo.ToString().c_str(),
              static_cast<unsigned long long>(llc >> 10));

  perf::ReportTable table(
      "join advisor: NPO vs radix (probe = 4x build, uniform keys)",
      {"build_tuples", "build_mb", "npo_ms", "radix_ms", "radix_bits",
       "winner"});

  for (uint32_t log2n = 14; log2n <= 22; log2n += 2) {
    const uint64_t n = uint64_t{1} << log2n;
    auto build = workload::MakeBuildRelation(n, log2n);
    auto probe = workload::MakeProbeRelation(4 * n, n, 0.0, log2n + 50);

    const double npo_ms = MedianMillis([&] {
      auto r = ops::NoPartitionHashJoin(build, probe);
      if (r.matches != probe.size()) std::abort();
    });

    ops::RadixJoinOptions opts;
    opts.radix_bits = ops::RecommendRadixBits(n, llc);
    const double radix_ms = MedianMillis([&] {
      auto r = ops::RadixHashJoin(build, probe, opts);
      if (r.matches != probe.size()) std::abort();
    });
    table.AddRow({std::to_string(n),
                  perf::ReportTable::Num(static_cast<double>(16 * n) / (1 << 20)),
                  perf::ReportTable::Num(npo_ms),
                  perf::ReportTable::Num(radix_ms),
                  std::to_string(opts.radix_bits),
                  npo_ms <= radix_ms ? "npo" : "radix"});
  }
  table.Print();
  std::printf(
      "\nReading the table: while 48B/tuple x build fits the LLC the\n"
      "oblivious join holds its own; past that, partitioning pays.\n");
  return 0;
}
