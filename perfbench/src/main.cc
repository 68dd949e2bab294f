// perfbench: runs one named workload and writes its result record.
//
//   perfbench --workload <kv_serve|tpcc_txn|stream_enrich> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> --out <file>
//
// Prints a human-readable report on stdout and writes the record (host
// stamp, every metric with unit and sample count, correctness checks,
// validity) as JSON to --out; a traced run also writes its spans to
// <out>.trace.tsv. Exit code 0 means the workload ran to the
// end; whether its outputs were correct and its measurement valid is in
// the record.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty() || out_path.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "--work-dir, --out and --seconds > 0 are required\n");
    return 2;
  }
  options.trace_path = out_path + ".trace.tsv";
  perfbench::Report report;
  int rc = 0;
  if (options.workload == "kv_serve") {
    rc = perfbench::RunKvServe(options, &report);
  } else if (options.workload == "tpcc_txn") {
    rc = perfbench::RunTpccTxn(options, &report);
  } else if (options.workload == "stream_enrich") {
    rc = perfbench::RunStreamEnrich(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  report.Print(options.workload + (options.trace ? " (traced)" : ""));
  std::ofstream out(out_path, std::ios::trunc);
  out << report.ToJson(options) << "\n";
  out.close();
  return out ? 0 : 1;
}
