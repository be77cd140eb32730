// The benchmark's three workloads (route_small, fleet_large, build). Each runs
// for a fixed wall time, interleaving timed rounds and repeated set-ups with
// calibration slices, checks every output, and reports the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // where the traced run writes its spans
};

struct RunReport {
  bool correct = true;
  std::string failure;  // first wrong output, when !correct
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::string host_line;  // seed, cores, load, calibrator speed
};

// Every per-layer metric of the traced run, as (name, unit), in output order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// Runs one workload. Returns false (with `error`) when the benchmark itself
// cannot run: an unknown workload, a build failure, or a calibrator fault.
bool RunWorkload(const RunOptions& options, RunReport* report, std::string* error);

// Builds ClackRouter -O2 twice from scratch and replays one seeded trace on
// each; the modeled metrics and the instruction count must repeat exactly.
bool CheckModeledRepeat(uint64_t seed, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
