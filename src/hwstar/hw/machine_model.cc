#include "hwstar/hw/machine_model.h"

#include <sstream>

namespace hwstar::hw {

MachineModel MachineModel::Server2013() {
  MachineModel m;
  m.name = "server2013";
  m.cores = 8;
  m.caches = {
      {32 * 1024, 64, 8, 4, false},
      {256 * 1024, 64, 8, 12, false},
      {20 * 1024 * 1024, 64, 16, 40, true},
  };
  m.tlb = {64, 4096, 30};
  m.dram_latency_cycles = 200;
  m.numa_nodes = 2;
  m.numa_remote_multiplier = 1.6;
  return m;
}

MachineModel MachineModel::Desktop() {
  MachineModel m;
  m.name = "desktop";
  m.cores = 4;
  m.caches = {
      {32 * 1024, 64, 8, 4, false},
      {256 * 1024, 64, 8, 12, false},
      {8 * 1024 * 1024, 64, 16, 36, true},
  };
  m.tlb = {64, 4096, 30};
  m.dram_latency_cycles = 180;
  m.numa_nodes = 1;
  m.numa_remote_multiplier = 1.0;
  return m;
}

MachineModel MachineModel::ManyCore() {
  MachineModel m;
  m.name = "manycore";
  m.cores = 32;
  m.caches = {
      {32 * 1024, 64, 8, 3, false},
      {512 * 1024, 64, 8, 15, false},
  };
  m.tlb = {32, 4096, 40};
  m.dram_latency_cycles = 300;
  m.numa_nodes = 4;
  m.numa_remote_multiplier = 2.0;
  return m;
}

MachineModel MachineModel::FromHost(const CpuTopology& topo) {
  MachineModel m = Server2013();
  m.name = "host";
  m.cores = topo.logical_cores;
  if (!topo.caches.empty()) {
    m.caches.clear();
    // Default per-level latencies by position in the hierarchy.
    const uint32_t kLatencies[] = {4, 12, 40, 90};
    size_t i = 0;
    for (const auto& c : topo.caches) {
      CacheLevelSpec spec;
      spec.size_bytes = c.size_bytes;
      spec.line_bytes = c.line_bytes;
      spec.associativity = c.associativity;
      spec.hit_latency_cycles = kLatencies[i < 4 ? i : 3];
      spec.shared = c.shared;
      m.caches.push_back(spec);
      ++i;
    }
  }
  m.isa = topo.isa;
  return m;
}

std::string MachineModel::ToString() const {
  std::ostringstream os;
  os << name << ": cores=" << cores;
  int level = 1;
  for (const auto& c : caches) {
    os << " L" << level++ << "=" << (c.size_bytes >> 10) << "KB/"
       << c.hit_latency_cycles << "cy";
  }
  os << " dram=" << dram_latency_cycles << "cy numa=" << numa_nodes << "x"
     << numa_remote_multiplier << " isa=" << isa.ToString();
  return os.str();
}

}  // namespace hwstar::hw
