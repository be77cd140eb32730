// Measurement helpers for the repository benchmark: order statistics, the
// calibrated-time rule, in-memory spans, the allocation counter and host
// facts. Everything here is benchmark-side; the program under
// test is only ever called through its public headers.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- order statistics ---------------------------------------------------------

double Median(std::vector<double> values);

// Nearest-rank percentile (q in (0, 1]) of `samples`.
long long Percentile(std::vector<long long> samples, double q);

// A percentile is reported only when at least ten samples lie beyond it:
// p99 needs 1000 samples, p50 needs 20.
bool PercentileReportable(size_t samples, double q);

// ---- calibrated host time -----------------------------------------------------

// Rescales a duration measured while the calibrator needed `calib_ms` per
// slice to a host on which it needs `reference_ms`.
double CalibratedDuration(double raw, double calib_ms, double reference_ms);

// ---- spans --------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  // index into the log, -1 for a root span
  long long round = -1;  // the benchmark round (request) the span belongs to
};

// Spans recorded from the benchmark's own calls into the library, kept in
// memory and written once at the end. A disabled log records nothing and
// Begin/End cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_round(long long round) { round_ = round; }

  // Opens a span under the innermost open span; returns its index (-1 when off).
  int Begin(const std::string& name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Span duration minus the part of it covered by its direct children.
  double SelfUs(int index) const;

  // Self times (ms) of every span named `name`.
  std::vector<double> SelfMs(const std::string& name) const;

  // Self times (ms) of the spans named `name`, summed per round.
  std::vector<double> SelfMsPerRound(const std::string& name) const;

  // Writes the spans as a Chrome trace-event document.
  bool Write(const std::string& path) const;

  // Test hook: appends a finished span verbatim.
  void AddForTest(Span span) { spans_.push_back(std::move(span)); }

 private:
  using Clock = std::chrono::steady_clock;

  bool enabled_;
  Clock::time_point origin_;
  long long round_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- allocation counter -------------------------------------------------------

// Calls of the global operator new in this process so far (the benchmark
// binary replaces it with a counting version).
uint64_t AllocationCount();

// ---- host facts ---------------------------------------------------------------

double NowMs();
double PeakRssMb();
std::string LoadAverage();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
