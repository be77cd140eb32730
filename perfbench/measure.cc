#include "perfbench/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "src/support/trace_event.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

long long Percentile(std::vector<long long> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the samples at or below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

bool PercentileReportable(size_t samples, double q) {
  size_t at_or_below = static_cast<size_t>(std::ceil(q * static_cast<double>(samples) - 1e-9));
  return samples >= at_or_below && samples - at_or_below >= 10;
}

double CalibratedDuration(double raw, double calib_ms, double reference_ms) {
  return raw * reference_ms / calib_ms;
}

// ---- spans --------------------------------------------------------------------

int SpanLog::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.round = round_;
  spans_.push_back(std::move(span));
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

namespace {

double SelfUsOf(const std::vector<Span>& spans, int index, const std::vector<int>& children) {
  const Span& span = spans[static_cast<size_t>(index)];
  std::vector<std::pair<double, double>> covered;
  for (int child : children) {
    const Span& c = spans[static_cast<size_t>(child)];
    double begin = std::max(c.start_us, span.start_us);
    double end = std::min(c.end_us, span.end_us);
    if (end > begin) {
      covered.emplace_back(begin, end);
    }
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0;
  double reach = span.start_us;
  for (const auto& [begin, end] : covered) {
    double from = std::max(begin, reach);
    if (end > from) {
      busy += end - from;
      reach = end;
    }
  }
  return (span.end_us - span.start_us) - busy;
}

}  // namespace

double SpanLog::SelfUs(int index) const {
  std::vector<int> children;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == index) {
      children.push_back(static_cast<int>(i));
    }
  }
  return SelfUsOf(spans_, index, children);
}

namespace {

// (round, self ms) of every span named `name`, in log order.
std::vector<std::pair<long long, double>> SelfTimes(const std::vector<Span>& spans,
                                                    const std::string& name) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(static_cast<int>(i));
    }
  }
  std::vector<std::pair<long long, double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) {
      out.emplace_back(spans[i].round, SelfUsOf(spans, static_cast<int>(i), children[i]) / 1e3);
    }
  }
  return out;
}

}  // namespace

std::vector<double> SpanLog::SelfMs(const std::string& name) const {
  std::vector<double> out;
  for (const auto& [round, ms] : SelfTimes(spans_, name)) {
    out.push_back(ms);
  }
  return out;
}

std::vector<double> SpanLog::SelfMsPerRound(const std::string& name) const {
  std::map<long long, double> per_round;
  for (const auto& [round, ms] : SelfTimes(spans_, name)) {
    per_round[round] += ms;
  }
  std::vector<double> out;
  for (const auto& [round, ms] : per_round) {
    out.push_back(ms);
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  knit::TraceEventLog log;
  log.NameProcess(1, "perfbench");
  for (const Span& span : spans_) {
    knit::TraceEvent event;
    event.name = span.name;
    event.category = "perfbench";
    event.timestamp_us = span.start_us;
    event.duration_us = span.end_us - span.start_us;
    event.args.emplace_back("round", std::to_string(span.round));
    log.Add(std::move(event));
  }
  std::ofstream out(path, std::ios::trunc);
  out << log.ToJson();
  return static_cast<bool>(out);
}

// ---- host facts ---------------------------------------------------------------

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

std::string LoadAverage() {
  double loads[3] = {0, 0, 0};
  if (getloadavg(loads, 3) != 3) {
    return "unknown";
  }
  std::ostringstream out;
  out << loads[0] << "," << loads[1] << "," << loads[2];
  return out.str();
}

}  // namespace perfbench
