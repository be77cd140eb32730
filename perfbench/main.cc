// knit_perfbench: the repository benchmark binary (driven by run.py).
//
//   knit_perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   knit_perfbench --self-check
//
// Prints one "# perfbench ..." line with the host facts, then, as the last
// line of stdout, {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/calibrator.h"
#include "perfbench/measure.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// Checks of the benchmark's own helpers. Returns the first failure, or "".
std::string SelfCheck() {
  // Calibrated time: on a host twice as slow as the reference, a duration
  // reads half its raw value; on a host at reference speed, unchanged.
  if (CalibratedDuration(12.0, 20.0, 10.0) != 6.0 || CalibratedDuration(5.0, 10.0, 10.0) != 5.0 ||
      CalibratedDuration(3.0, 7.5, 10.0) != 4.0) {
    return "calibrated-time arithmetic";
  }

  // Percentiles: nearest rank, reported only with ten samples beyond them.
  std::vector<long long> hundred;
  for (long long i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  if (Percentile(hundred, 0.5) != 50 || Percentile(hundred, 0.99) != 99 ||
      Percentile(hundred, 1.0) != 100 || Percentile({7}, 0.99) != 7) {
    return "nearest-rank percentile";
  }
  if (!PercentileReportable(1000, 0.99) || PercentileReportable(999, 0.99) ||
      !PercentileReportable(20, 0.5) || PercentileReportable(19, 0.5) ||
      !PercentileReportable(1024, 0.99) || PercentileReportable(0, 0.5)) {
    return "percentile sample-count rule";
  }
  if (Median({3, 1, 2}) != 2 || Median({4, 1, 3, 2}) != 2.5) {
    return "median";
  }

  // Self time: a parent [0, 100] with children [10, 30] and [20, 50]
  // (overlapping) and [90, 120] (clipped at the parent's end), and a
  // grandchild that must not count against the parent.
  SpanLog log(true);
  log.AddForTest({"parent", 0, 100, -1, 0});
  log.AddForTest({"a", 10, 30, 0, 0});
  log.AddForTest({"b", 20, 50, 0, 0});
  log.AddForTest({"c", 90, 120, 0, 0});
  log.AddForTest({"grandchild", 12, 28, 1, 0});
  log.AddForTest({"parent", 200, 260, -1, 1});
  if (log.SelfUs(0) != 50.0 || log.SelfUs(1) != 4.0 || log.SelfUs(4) != 16.0) {
    return "span self time with nested children";
  }
  std::vector<double> per_round = log.SelfMsPerRound("parent");
  if (per_round.size() != 2 || per_round[0] != 0.05 || per_round[1] != 0.06) {
    return "per-round span self time";
  }

  // The calibrator's loops are deterministic: a repeat gives the same checksum,
  // and less work gives a different one.
  Calibrator calibrator;
  uint64_t registers = calibrator.RunRegisterLoop(2);
  uint64_t stack = calibrator.RunStackLoop(3);
  uint64_t symbols = Calibrator::RunSymbolLoop(2);
  if (calibrator.RunRegisterLoop(2) != registers || calibrator.RunStackLoop(3) != stack ||
      Calibrator::RunSymbolLoop(2) != symbols || calibrator.RunRegisterLoop(1) == registers ||
      calibrator.RunStackLoop(2) == stack || Calibrator::RunSymbolLoop(1) == symbols) {
    return "calibrator determinism";
  }

  // The allocation counter sees every call of the global operator new.
  uint64_t before = AllocationCount();
  for (int i = 0; i < 100; ++i) {
    void* p = ::operator new(16);
    ::operator delete(p);
  }
  if (AllocationCount() - before != 100) {
    return "allocation counter";
  }
  return "";
}

int Usage() {
  std::fprintf(stderr,
               "usage: knit_perfbench --workload W --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n       knit_perfbench --self-check\n");
  return 2;
}

int Main(int argc, char** argv) {
  // Pin glibc's mmap threshold at 4 MiB, so every 16 MB Machine memory is
  // mapped and returned on free while smaller blocks come from the heap. Left
  // dynamic, the threshold rises after the first Machine is freed, later ones
  // come from the heap, and whether their memory goes back depends on timing:
  // peak RSS read 23 MB or 39 MB from run to run. The trim threshold is set
  // to the 32 MiB the dynamic rule would have reached.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 32 << 20);

  RunOptions options;
  bool have_workload = false, self_check_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-check") {
      self_check_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }

  std::string failure = SelfCheck();
  if (failure.empty() && self_check_only) {
    std::string error;
    if (!CheckModeledRepeat(1, &error)) {
      failure = "modeled repeat: " + error;
    }
  }
  if (!failure.empty()) {
    std::fprintf(stderr, "knit_perfbench: self-check failed: %s\n", failure.c_str());
    return 1;
  }
  if (self_check_only) {
    std::printf("knit_perfbench: self-checks passed\n");
    return 0;
  }
  if (!have_workload || options.seconds <= 0) {
    return Usage();
  }

  RunReport report;
  std::string error;
  if (!RunWorkload(options, &report, &error)) {
    std::fprintf(stderr, "knit_perfbench: %s\n", error.c_str());
    return 1;
  }
  if (!report.correct) {
    std::fprintf(stderr, "knit_perfbench: wrong output: %s\n", report.failure.c_str());
  }
  std::printf("%s\n", report.host_line.c_str());
  std::string json = "{\"correct\": " + std::string(report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    json += (i == 0 ? "" : ", ") + JsonString(metric.name) +
            ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
