#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "perfbench/calibrator.h"
#include "perfbench/measure.h"
#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/session.h"
#include "src/clack/trace.h"
#include "src/driver/knitc.h"
#include "src/driver/pipeline.h"
#include "src/oskit/corpus.h"
#include "src/serve/serve.h"
#include "src/support/mangle.h"

namespace perfbench {
namespace {

using knit::Diagnostics;
using knit::KnitBuildResult;
using knit::KnitcOptions;
using knit::KnitPipeline;
using knit::LinkedImage;
using knit::Machine;
using knit::Result;
using knit::RouterSession;
using knit::RouterStats;
using knit::SourceMap;
using knit::TraceExpectation;
using knit::TracePacket;

constexpr size_t kBatch = 32;
constexpr long long kUnlimitedFuel = 1LL << 60;
constexpr int kMinRounds = 3;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xd1b54a32d192ed03ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The Table-1 machine: the router images are ~6 KB of text, so the modeled
// L1I shrinks to 1 KB to keep the paper's text-to-cache ratio.
knit::CostModel RouterCost() {
  knit::CostModel cost;
  cost.icache_bytes = 1024;
  return cost;
}

// 1024 packets of the default mix (70% minimum-size frames): ~200 KB, L2-resident.
std::vector<TracePacket> RouteTrace(uint64_t seed) {
  knit::TraceOptions options;
  options.count = 1024;
  options.seed = static_cast<uint32_t>(Mix(seed, 1));
  return knit::GenerateTrace(options);
}

// 2048 full-size frames (payloads 1000-1480 B): per-byte work dominates.
std::vector<TracePacket> FleetTrace(uint64_t seed) {
  knit::TraceOptions options;
  options.count = 2048;
  options.seed = static_cast<uint32_t>(Mix(seed, 2));
  options.min_payload = 1000;
  options.max_payload = 1480;
  options.small_packet_percent = 0;
  return knit::GenerateTrace(options);
}

// A trace in the shape FeedBatch takes.
struct Feed {
  std::vector<TracePacket> packets;
  std::vector<const TracePacket*> pointers;
  std::vector<uint64_t> seqs;
  TraceExpectation expect;

  // `pointers` point into `packets`, so a Feed is never copied or moved.
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  explicit Feed(std::vector<TracePacket> trace) : packets(std::move(trace)) {
    for (size_t i = 0; i < packets.size(); ++i) {
      pointers.push_back(&packets[i]);
      seqs.push_back(i);
    }
    expect = knit::ExpectationOf(packets);
  }
};

const std::string kSpanRound = "round";
const std::string kSpanSetup = "setup";
const std::string kSpanCalib = "host.calib";
const std::string kSpanMachineNew = "vm.machine_new";
const std::string kSpanInit = "vm.init";
const std::string kSpanSessionOpen = "clack.session_open";
const std::string kSpanFeedBatch = "clack.feed_batch";
const std::string kSpanFromBuild = "serve.from_build";
const std::string kSpanServe = "serve.serve";
const std::string kSpanSingle = "clack.single_session";
const std::string kSpanSingleProfiled = "clack.single_session.profiled";

// The seven pipeline stages, in order, with the layer each belongs to.
const std::vector<std::string>& StageSpans() {
  static const std::vector<std::string> kStages = {
      "knitlang.parse", "knitsem.elaborate", "sched.schedule",           "constraints.check",
      "driver.compile", "ld.link",           "vm.passes.link_optimize",
  };
  return kStages;
}

// Runs the seven KnitPipeline stages one by one, each inside a span named
// "<stage>.<kind>" (kind: cold, incr or revert).
Result<LinkedImage> BuildStaged(KnitPipeline& pipeline, const std::string& knit_text,
                                const SourceMap& sources, const std::string& top,
                                const std::string& kind, SpanLog& spans, Diagnostics& diags) {
  const std::vector<std::string>& stage = StageSpans();
  auto span = [&](int i) { return spans.Begin(spans.enabled() ? stage[i] + "." + kind : ""); };
  int s = span(0);
  Result<knit::ParsedProgram> parsed = pipeline.Parse(knit_text, diags);
  spans.End(s);
  if (!parsed.ok()) {
    return Result<LinkedImage>::Failure();
  }
  s = span(1);
  Result<knit::ElaboratedConfig> elaborated = pipeline.Elaborate(parsed.value(), top, diags);
  spans.End(s);
  if (!elaborated.ok()) {
    return Result<LinkedImage>::Failure();
  }
  s = span(2);
  Result<knit::ScheduledConfig> scheduled = pipeline.Schedule(elaborated.value(), diags);
  spans.End(s);
  if (!scheduled.ok()) {
    return Result<LinkedImage>::Failure();
  }
  s = span(3);
  Result<knit::CheckedConfig> checked = pipeline.Check(scheduled.value(), diags);
  spans.End(s);
  if (!checked.ok()) {
    return Result<LinkedImage>::Failure();
  }
  s = span(4);
  Result<knit::CompiledUnits> compiled = pipeline.Compile(checked.value(), sources, diags);
  spans.End(s);
  if (!compiled.ok()) {
    return Result<LinkedImage>::Failure();
  }
  s = span(5);
  Result<LinkedImage> linked = pipeline.Link(compiled.value(), diags);
  spans.End(s);
  if (!linked.ok()) {
    return Result<LinkedImage>::Failure();
  }
  s = span(6);
  Result<knit::OptimizedImage> optimized = pipeline.LinkOptimize(linked.value(), diags);
  spans.End(s);
  if (!optimized.ok()) {
    return Result<LinkedImage>::Failure();
  }
  return std::move(optimized.value().linked);
}

KnitcOptions BuildOptions(int opt_level) {
  KnitcOptions options;
  options.opt_level = opt_level;
  options.jobs = 1;
  options.cache = std::make_shared<knit::BuildCache>();
  return options;
}

long long InsnsRemoved(const knit::PipelineMetrics& metrics) {
  long long removed = 0;
  for (const knit::PassStats& row : metrics.pass_stats) {
    removed += row.insns_before - row.insns_after;
  }
  return removed;
}

// One machine running a router image, with a session open and knit__init run.
struct Rig {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<RouterSession> session;
  RouterStats last;  // cumulative router counters at the last window

  bool Open(const KnitBuildResult& build, bool profile, SpanLog& spans, Diagnostics& diags) {
    int s = spans.Begin(kSpanMachineNew);
    machine = std::make_unique<Machine>(build.image, RouterCost());
    spans.End(s);
    machine->set_max_insns(kUnlimitedFuel);
    if (profile) {
      machine->EnableProfiling(0);  // counters only; no event log
    }
    s = spans.Begin(kSpanSessionOpen);
    Result<std::unique_ptr<RouterSession>> opened =
        RouterSession::Open(*machine, knit::RouterProgram::ClackEntryNames(build),
                            knit::EnvSymbol("dev", "dev_tx"), diags);
    spans.End(s);
    if (!opened.ok()) {
      return false;
    }
    session = opened.take();
    s = spans.Begin(kSpanInit);
    knit::RunResult init = machine->Call(build.init_function);
    spans.End(s);
    if (!init.ok) {
      diags.Error(knit::SourceLoc::Unknown(), "knit__init failed: " + init.error);
      return false;
    }
    if (profile) {
      machine->ResetProfile();
    }
    return true;
  }

  // Feeds packets [begin, end) as a closed loop of kBatch-packet FeedBatch calls.
  bool FeedRange(const Feed& feed, size_t begin, size_t end, SpanLog& spans,
                 Diagnostics& diags) {
    for (; begin < end; begin += kBatch) {
      size_t count = std::min(kBatch, end - begin);
      int s = spans.Begin(kSpanFeedBatch);
      bool ok = session->FeedBatch(feed.pointers.data() + begin, feed.seqs.data() + begin,
                                   count, diags)
                    .ok();
      spans.End(s);
      if (!ok) {
        return false;
      }
    }
    return true;
  }

  bool FeedAll(const Feed& feed, SpanLog& spans, Diagnostics& diags) {
    session->ResetStats();
    return FeedRange(feed, 0, feed.pointers.size(), spans, diags);
  }

  // Snapshots the window fed since the last FeedAll and checks its router
  // counters and transmissions against the trace's expectation.
  std::string CheckWindow(const Feed& feed, RouterStats* window, Diagnostics& diags) {
    Result<RouterStats> snap = session->Snapshot(diags);
    if (!snap.ok()) {
      return "snapshot failed";
    }
    *window = snap.value();
    RouterStats delta = *window;
    delta.in0 -= last.in0;
    delta.in1 -= last.in1;
    delta.ip -= last.ip;
    delta.out -= last.out;
    delta.drop -= last.drop;
    last = *window;
    const TraceExpectation& e = feed.expect;
    if (delta.in0 != e.in0 || delta.in1 != e.in1 || delta.ip != e.ip || delta.out != e.out ||
        delta.drop != e.drop || delta.tx_count != e.tx ||
        delta.packets != static_cast<int>(feed.packets.size())) {
      std::ostringstream out;
      out << "router counters in0/in1/ip/out/drop/tx " << delta.in0 << "/" << delta.in1 << "/"
          << delta.ip << "/" << delta.out << "/" << delta.drop << "/" << delta.tx_count
          << " != expected " << e.in0 << "/" << e.in1 << "/" << e.ip << "/" << e.out << "/"
          << e.drop << "/" << e.tx;
      return out.str();
    }
    return "";
  }
};

// The modeled metrics of one single-session pass over a fresh machine.
struct Modeled {
  long long cycles = 0;
  long long stalls = 0;
  long long insns = 0;
  long long p50 = 0;
  long long p99 = 0;
  size_t samples = 0;
  int text_bytes = 0;
  int packets = 0;
  uint64_t tx_hash = 0;
  double feed_ms = 0;        // host time of the pass (not a modeled value)
  uint64_t allocations = 0;  // host allocations during the pass

  bool SameModel(const Modeled& other) const {
    return cycles == other.cycles && stalls == other.stalls && insns == other.insns &&
           p50 == other.p50 && p99 == other.p99 && samples == other.samples &&
           text_bytes == other.text_bytes && tx_hash == other.tx_hash;
  }
};

std::string ModeledPass(const KnitBuildResult& build, const Feed& feed, SpanLog& spans,
                        Modeled* out) {
  Diagnostics diags;
  Rig rig;
  if (!rig.Open(build, false, spans, diags)) {
    return "opening a session failed: " + diags.FirstError();
  }
  std::vector<long long> samples;
  samples.reserve(feed.packets.size());
  rig.session->SetPacketObserver(
      [&samples](uint64_t, long long cycles) { samples.push_back(cycles); });
  long long insns_before = rig.machine->insns();
  uint64_t allocs_before = AllocationCount();
  double start = NowMs();
  if (!rig.FeedAll(feed, spans, diags)) {
    return "router trapped: " + diags.FirstError();
  }
  out->feed_ms = NowMs() - start;
  out->allocations = AllocationCount() - allocs_before;
  out->insns = rig.machine->insns() - insns_before;
  RouterStats stats;
  std::string wrong = rig.CheckWindow(feed, &stats, diags);
  if (!wrong.empty()) {
    return wrong;
  }
  if (!PercentileReportable(samples.size(), 0.99)) {
    return "too few packets for a p99";
  }
  out->cycles = stats.cycles;
  out->stalls = stats.ifetch_stalls;
  out->packets = stats.packets;
  out->text_bytes = stats.text_bytes;
  out->tx_hash = stats.tx_hash;
  out->samples = samples.size();
  out->p50 = Percentile(samples, 0.50);
  out->p99 = Percentile(samples, 0.99);
  return "";
}

Result<std::shared_ptr<const KnitBuildResult>> BuildRouter(const std::string& top,
                                                           KnitcOptions options,
                                                           const std::string& kind,
                                                           SpanLog& spans, std::string* error,
                                                           long long* insns_removed = nullptr) {
  Diagnostics diags;
  KnitPipeline pipeline(std::move(options));
  Result<LinkedImage> linked =
      BuildStaged(pipeline, knit::ClackKnit(), knit::ClackSources(), top, kind, spans, diags);
  if (!linked.ok()) {
    *error = "building " + top + " failed: " + diags.FirstError();
    return Result<std::shared_ptr<const KnitBuildResult>>::Failure();
  }
  if (insns_removed != nullptr) {
    *insns_removed = InsnsRemoved(pipeline.metrics());
  }
  return std::shared_ptr<const KnitBuildResult>(std::make_shared<KnitBuildResult>(
      knit::KnitBuildResultFrom(linked.take(), pipeline.metrics())));
}

// ---- the shared measurement loop ----------------------------------------------

// Per-layer values a workload fills; names missing at the end read 0 (the
// workload does not exercise that layer).
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  Workload(const RunOptions& options, RunReport* report)
      : options_(options), report_(report), spans_(options.trace) {}
  virtual ~Workload() = default;

  void Run();

 protected:
  // Fails the run: a wrong output or a broken measurement. Later calls keep the
  // first message.
  void Wrong(const std::string& message) {
    if (report_->correct) {
      report_->correct = false;
      report_->failure = message;
    }
  }
  bool ok() const { return report_->correct; }

  // Raw and calibrated wall time of a set-up or round.
  struct Timing {
    double raw_ms = 0;
    double cal_ms = 0;
  };

  // Adds one timed piece of work to `timing` and runs a calibration slice
  // after it. The piece is scaled by the mean of the slices on either side.
  void Timed(double raw_ms, Timing& timing);

  // Preamble: references, modeled metrics. Untimed.
  virtual void Prepare() = 0;
  virtual Timing Setup() = 0;
  virtual Timing Round(long long index, bool traced) = 0;
  // Checks after a set-up's rounds (and at the end).
  virtual void EndEpoch() {}
  virtual double OpsPerRound() const = 0;
  virtual int RoundsPerEpoch() const = 0;
  virtual void Report(LayerValues& layers) = 0;

  const RunOptions& options_;
  RunReport* report_;
  SpanLog spans_;
  Modeled modeled_;

 private:
  double CalibrationSlice();

  Calibrator calibrator_;
  std::vector<double> calib_ms_;
  std::vector<double> calib_parts_ms_[3];
  double previous_slice_ms_ = 0;
};

double Workload::CalibrationSlice() {
  std::string error;
  int s = spans_.Begin(kSpanCalib);
  double ms = calibrator_.Slice(&error);
  spans_.End(s);
  if (!error.empty()) {
    Wrong(error);
    return 0;
  }
  calib_ms_.push_back(ms);
  for (int part = 0; part < 3; ++part) {
    calib_parts_ms_[part].push_back(calibrator_.last_parts_ms()[part]);
  }
  return ms;
}

void Workload::Timed(double raw_ms, Timing& timing) {
  double next = CalibrationSlice();
  timing.raw_ms += raw_ms;
  timing.cal_ms += CalibratedDuration(raw_ms, (previous_slice_ms_ + next) / 2,
                                      Calibrator::kReferenceMs);
  previous_slice_ms_ = next;
}

void Workload::Run() {
  Prepare();
  if (!ok()) {
    return;
  }
  std::vector<double> setup_raw, setup_cal, rate_raw, rate_cal, traced_ms, untraced_ms;
  long long op_id = 0;
  long long rounds = 0;
  int since_setup = RoundsPerEpoch();
  double deadline = NowMs() + options_.seconds * 1000.0;
  previous_slice_ms_ = CalibrationSlice();
  while (ok() && (rounds < kMinRounds || NowMs() < deadline)) {
    bool setup = since_setup == RoundsPerEpoch();
    bool traced = options_.trace && (setup || rounds % 2 == 1);
    if (setup && rounds > 0) {
      EndEpoch();
    }
    spans_.set_enabled(traced);
    spans_.set_round(op_id++);
    int s = spans_.Begin(setup ? kSpanSetup : kSpanRound);
    Timing timing = setup ? Setup() : Round(rounds, traced);
    spans_.End(s);
    spans_.set_enabled(options_.trace);
    if (!ok()) {
      break;
    }
    if (setup) {
      since_setup = 0;
      setup_raw.push_back(timing.raw_ms / 1e3);
      setup_cal.push_back(timing.cal_ms / 1e3);
    } else {
      ++rounds;
      ++since_setup;
      rate_raw.push_back(OpsPerRound() / (timing.raw_ms / 1e3));
      rate_cal.push_back(OpsPerRound() / (timing.cal_ms / 1e3));
      (traced ? traced_ms : untraced_ms).push_back(timing.raw_ms);
    }
  }
  if (ok()) {
    EndEpoch();
  }

  char host[640];
  std::snprintf(host, sizeof(host),
                "# perfbench workload=%s seed=%llu trace=%d cores=%u loadavg=%s "
                "calib_ms_median=%.4f calib_ms_reference=%.1f calib_parts_ms=%.4f/%.4f/%.4f "
                "setups=%zu rounds=%lld raw_setup_s=%.6g raw_ops_per_s=%.6g",
                options_.workload.c_str(), static_cast<unsigned long long>(options_.seed),
                options_.trace ? 1 : 0, std::thread::hardware_concurrency(),
                LoadAverage().c_str(), Median(calib_ms_), Calibrator::kReferenceMs,
                Median(calib_parts_ms_[0]), Median(calib_parts_ms_[1]),
                Median(calib_parts_ms_[2]), setup_cal.size(), rounds,
                Median(setup_raw), Median(rate_raw));
  report_->host_line = host;

  std::vector<Metric>& m = report_->metrics;
  if (!options_.trace) {
    double packets = modeled_.packets > 0 ? modeled_.packets : 1;
    m.push_back({"setup_s", Median(setup_cal), "s"});
    m.push_back({"ops_per_s", Median(rate_cal), "1/s"});
    m.push_back({"cycles_per_pkt", double(modeled_.cycles) / packets, "cycles"});
    m.push_back({"pkt_cycles_p50", double(modeled_.p50), "cycles"});
    m.push_back({"pkt_cycles_p99", double(modeled_.p99), "cycles"});
    m.push_back({"ifetch_stalls_per_pkt", double(modeled_.stalls) / packets, "cycles"});
    m.push_back({"text_bytes", double(modeled_.text_bytes), "bytes"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    return;
  }

  LayerValues layers;
  for (const std::string& stage : StageSpans()) {
    for (const char* kind : {"cold", "incr"}) {
      layers[stage + "_ms." + kind] = Median(spans_.SelfMsPerRound(stage + "." + kind));
    }
  }
  layers["vm.machine_new_ms"] = Median(spans_.SelfMs(kSpanMachineNew));
  layers["vm.init_ms"] = Median(spans_.SelfMs(kSpanInit));
  layers["vm.insns_per_pkt"] =
      modeled_.packets > 0 ? double(modeled_.insns) / modeled_.packets : 0;
  layers["vm.pkt_cycles_samples"] = double(modeled_.samples);
  layers["host.calib_ms"] = Median(calib_ms_);
  layers["host.raw_ops_per_s"] = Median(rate_raw);
  layers["host.raw_setup_s"] = Median(setup_raw);
  layers["trace.overhead_ratio"] =
      untraced_ms.empty() ? 0 : Median(traced_ms) / Median(untraced_ms);
  Report(layers);
  layers["trace.spans"] = double(spans_.spans().size());
  if (!options_.trace_path.empty() && !spans_.Write(options_.trace_path)) {
    Wrong("could not write the span trace to " + options_.trace_path);
  }
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = layers.find(name);
    m.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
  }
}

// ---- route_small --------------------------------------------------------------

// One RouterSession on ClackRouter -O2, fed from one thread as a closed loop
// of 32-packet FeedBatch calls over a 1024-packet trace.
class RouteSmall : public Workload {
 public:
  using Workload::Workload;

 private:
  void Prepare() override {
    std::string error;
    auto build = BuildRouter("ClackRouter", BuildOptions(2), "prepare", spans_, &error);
    if (!build.ok()) {
      return Wrong(error);
    }
    Modeled again;
    for (Modeled* pass : {&modeled_, &again}) {
      std::string wrong = ModeledPass(*build.value(), feed_, spans_, pass);
      if (!wrong.empty()) {
        return Wrong("route_small: " + wrong);
      }
    }
    if (!modeled_.SameModel(again)) {
      Wrong("route_small: modeled metrics differ between two passes at one seed");
    }
  }

  Timing Setup() override {
    rig_.reset();  // the previous session's machine goes before the next one is built
    std::string error;
    Diagnostics diags;
    Timing timing;
    double start = NowMs();
    auto build = BuildRouter("ClackRouter", BuildOptions(2), "cold", spans_, &error,
                             &insns_removed_);
    if (!build.ok()) {
      Wrong(error);
      return timing;
    }
    auto rig = std::make_unique<Rig>();
    if (!rig->Open(*build.value(), false, spans_, diags)) {
      Wrong("route_small: opening the session failed: " + diags.FirstError());
      return timing;
    }
    Timed(NowMs() - start, timing);
    build_ = build.take();
    rig_ = std::move(rig);
    return timing;
  }

  // The trace is fed in four ~10 ms pieces, each followed by a calibration
  // slice, so the calibration stays close in time to the work it scales.
  Timing Round(long long, bool traced) override {
    constexpr size_t kPieces = 4;
    Diagnostics diags;
    const size_t packets = feed_.packets.size();
    const size_t piece = (packets + kPieces - 1) / kPieces;
    report_->attempted += static_cast<long long>(packets);
    Timing timing;
    double ms = 0;
    uint64_t allocs = 0;
    long long insns = 0;
    rig_->session->ResetStats();
    for (size_t begin = 0; begin < packets; begin += piece) {
      long long insns_before = rig_->machine->insns();
      uint64_t allocs_before = AllocationCount();
      double start = NowMs();
      bool fed = rig_->FeedRange(feed_, begin, std::min(begin + piece, packets), spans_, diags);
      double piece_ms = NowMs() - start;
      allocs += AllocationCount() - allocs_before;
      insns += rig_->machine->insns() - insns_before;
      if (!fed) {
        report_->failed += static_cast<long long>(packets);
        Wrong("route_small: router trapped: " + diags.FirstError());
        return timing;
      }
      ms += piece_ms;
      Timed(piece_ms, timing);
    }
    RouterStats window;
    std::string wrong = rig_->CheckWindow(feed_, &window, diags);
    if (!wrong.empty()) {
      Wrong("route_small: " + wrong);
    } else if (window.tx_hash != modeled_.tx_hash) {
      Wrong("route_small: a round's tx hash differs from the first pass");
    }
    ns_per_insn_.push_back(ms * 1e6 / double(insns));
    if (!traced) {
      allocs_per_pkt_.push_back(double(allocs) / double(feed_.packets.size()));
    }
    return timing;
  }

  double OpsPerRound() const override { return double(feed_.packets.size()); }
  int RoundsPerEpoch() const override { return 8; }

  void Report(LayerValues& layers) override {
    layers["vm.ns_per_insn"] = Median(ns_per_insn_);
    layers["vm.allocs_per_pkt"] = Median(allocs_per_pkt_);
    layers["vm.passes.insns_removed"] = double(insns_removed_);
  }

  Feed feed_{RouteTrace(options_.seed)};
  std::shared_ptr<const KnitBuildResult> build_;
  std::unique_ptr<Rig> rig_;
  long long insns_removed_ = 0;
  std::vector<double> ns_per_insn_, allocs_per_pkt_;
};

// ---- fleet_large --------------------------------------------------------------

// A 2-shard RouterFleet (batch 32, queue 1024, 3 executor threads) serving
// ClackRouter -O1 built swappable=* with profiling on; one Serve() per round
// over 2048 full-size frames, each on a fresh FromBuild.
class FleetLarge : public Workload {
 public:
  using Workload::Workload;

 private:
  static knit::ServeOptions Serving() {
    knit::ServeOptions options;
    options.shards = 2;
    options.batch = 32;
    options.queue_capacity = 1024;
    options.executor_jobs = 3;
    options.profile = true;
    options.cost = RouterCost();
    return options;
  }

  static KnitcOptions Swappable() {
    KnitcOptions options = BuildOptions(1);
    options.swappable = {"*"};
    return options;
  }

  Result<std::unique_ptr<knit::RouterFleet>> NewFleet(
      const std::shared_ptr<const KnitBuildResult>& build, Diagnostics& diags) {
    return knit::RouterFleet::FromBuild(build, knit::RouterProgram::ClackEntryNames(*build),
                                        knit::EnvSymbol("dev", "dev_tx"), Serving(), diags);
  }

  void Prepare() override {
    std::string error;
    // The hash oracle: a plain, non-swappable, unprofiled -O1 single session.
    auto plain = BuildRouter("ClackRouter", BuildOptions(1), "prepare", spans_, &error);
    if (!plain.ok()) {
      return Wrong(error);
    }
    Modeled reference;
    std::string wrong = ModeledPass(*plain.value(), feed_, spans_, &reference);
    if (!wrong.empty()) {
      return Wrong("fleet_large reference: " + wrong);
    }
    reference_hash_ = reference.tx_hash;

    auto build = BuildRouter("ClackRouter", Swappable(), "prepare", spans_, &error);
    if (!build.ok()) {
      return Wrong(error);
    }
    image_ = build.take();
    Modeled again;
    for (Modeled* pass : {&modeled_, &again}) {
      wrong = ModeledPass(*image_, feed_, spans_, pass);
      if (!wrong.empty()) {
        return Wrong("fleet_large: " + wrong);
      }
    }
    if (!modeled_.SameModel(again)) {
      return Wrong("fleet_large: modeled metrics differ between two passes at one seed");
    }
    if (modeled_.tx_hash != reference_hash_) {
      return Wrong("fleet_large: swappable -O1 tx hash differs from plain -O1");
    }
    if (options_.trace) {
      Diagnostics diags;
      if (!single_.Open(*image_, false, spans_, diags) ||
          !profiled_.Open(*image_, true, spans_, diags)) {
        return Wrong("fleet_large: opening single sessions failed: " + diags.FirstError());
      }
    }
  }

  Timing Setup() override {
    std::string error;
    Diagnostics diags;
    Timing timing;
    double start = NowMs();
    auto build = BuildRouter("ClackRouter", Swappable(), "cold", spans_, &error,
                             &insns_removed_);
    if (!build.ok()) {
      Wrong(error);
      return timing;
    }
    int s = spans_.Begin(kSpanFromBuild);
    bool opened = NewFleet(build.value(), diags).ok();
    spans_.End(s);
    double ms = NowMs() - start;
    if (!opened) {
      Wrong("fleet_large: FromBuild failed: " + diags.FirstError());
      return timing;
    }
    Timed(ms, timing);
    return timing;
  }

  Timing Round(long long, bool traced) override {
    Diagnostics diags;
    const long long packets = static_cast<long long>(feed_.packets.size());
    report_->attempted += packets;
    Timing timing;
    int s = spans_.Begin(kSpanFromBuild);
    auto fleet = NewFleet(image_, diags);
    spans_.End(s);
    if (!fleet.ok()) {
      report_->failed += packets;
      Wrong("fleet_large: FromBuild failed: " + diags.FirstError());
      return timing;
    }
    uint64_t allocs_before = AllocationCount();
    s = spans_.Begin(kSpanServe);
    double start = NowMs();
    Result<knit::ServeReport> served = fleet.value()->Serve(feed_.packets, diags);
    double ms = NowMs() - start;
    spans_.End(s);
    uint64_t allocs = AllocationCount() - allocs_before;
    if (!served.ok()) {
      report_->failed += packets;
      Wrong("fleet_large: Serve failed: " + diags.FirstError());
      return timing;
    }
    Timed(ms, timing);
    CheckServe(served.value());
    const knit::ServeReport& r = served.value();
    long long batches = 0;
    size_t depth = 0;
    int busiest = 0;
    for (const knit::ShardReport& shard : r.shards) {
      batches += shard.batches;
      depth = std::max(depth, shard.max_queue_depth);
      busiest = std::max(busiest, shard.stats.packets);
    }
    batches_per_kpkt_.push_back(1e3 * double(batches) / double(packets));
    max_queue_depth_.push_back(double(depth));
    shard_skew_ = double(busiest) * double(r.shards.size()) / double(packets);
    boundary_calls_per_pkt_ = double(r.total.profile.boundary_calls) / double(packets);
    fleet_pps_.push_back(double(packets) / (ms / 1e3));
    if (!traced) {
      allocs_per_pkt_.push_back(double(allocs) / double(packets));
    } else {
      SingleSessions();
    }
    return timing;
  }

  void CheckServe(const knit::ServeReport& r) {
    const TraceExpectation& e = feed_.expect;
    const RouterStats& t = r.total;
    if (t.packets != static_cast<int>(feed_.packets.size()) || t.in0 != e.in0 ||
        t.in1 != e.in1 || t.ip != e.ip || t.out != e.out || t.drop != e.drop ||
        t.tx_count != e.tx) {
      Wrong("fleet_large: aggregate router counters differ from the trace's expectation");
    } else if (t.tx_hash != reference_hash_) {
      Wrong("fleet_large: aggregate tx hash differs from the plain -O1 single session");
    }
  }

  // Single-session passes on the fleet's image, for the fleet-efficiency base
  // and the interpreter's per-instruction cost with and without profiling.
  void SingleSessions() {
    for (Rig* rig : {&single_, &profiled_}) {
      bool profiled = rig == &profiled_;
      Diagnostics diags;
      long long insns_before = rig->machine->insns();
      int s = spans_.Begin(profiled ? kSpanSingleProfiled : kSpanSingle);
      double start = NowMs();
      bool fed = rig->FeedAll(feed_, spans_, diags);
      double ms = NowMs() - start;
      spans_.End(s);
      RouterStats window;
      std::string wrong = fed ? rig->CheckWindow(feed_, &window, diags) : diags.FirstError();
      if (!wrong.empty()) {
        return Wrong("fleet_large single session: " + wrong);
      }
      double ns = ms * 1e6 / double(rig->machine->insns() - insns_before);
      (profiled ? ns_per_insn_profiled_ : ns_per_insn_).push_back(ns);
      if (profiled) {
        single_pps_.push_back(double(feed_.packets.size()) / (ms / 1e3));
      }
    }
  }

  double OpsPerRound() const override { return double(feed_.packets.size()); }
  int RoundsPerEpoch() const override { return 4; }

  void Report(LayerValues& layers) override {
    layers["vm.ns_per_insn"] = Median(ns_per_insn_);
    layers["vm.ns_per_insn.profiled"] = Median(ns_per_insn_profiled_);
    layers["vm.allocs_per_pkt"] = Median(allocs_per_pkt_);
    layers["vm.boundary_calls_per_pkt"] = boundary_calls_per_pkt_;
    layers["vm.passes.insns_removed"] = double(insns_removed_);
    layers["serve.from_build_ms"] = Median(spans_.SelfMs(kSpanFromBuild));
    double single = Median(single_pps_);
    layers["serve.fleet_efficiency"] = single > 0 ? Median(fleet_pps_) / (2 * single) : 0;
    layers["serve.batches_per_kpkt"] = Median(batches_per_kpkt_);
    layers["serve.max_queue_depth"] = Median(max_queue_depth_);
    layers["serve.shard_skew"] = shard_skew_;
  }

  Feed feed_{FleetTrace(options_.seed)};
  uint64_t reference_hash_ = 0;
  std::shared_ptr<const KnitBuildResult> image_;
  Rig single_, profiled_;
  long long insns_removed_ = 0;
  double shard_skew_ = 0, boundary_calls_per_pkt_ = 0;
  std::vector<double> batches_per_kpkt_, max_queue_depth_, fleet_pps_, single_pps_;
  std::vector<double> ns_per_insn_, ns_per_insn_profiled_, allocs_per_pkt_;
};

// ---- build --------------------------------------------------------------------

// KnitPipeline builds of the shipped corpus at -O2, jobs=1: a cold build of
// every configuration on a fresh cache per set-up, then per round one seeded
// one-unit edit per configuration, rebuilt on the warm cache.
class BuildCorpus : public Workload {
 public:
  using Workload::Workload;

 private:
  struct Config {
    const std::string* knit_text;
    const SourceMap* sources;
    std::string top;
    std::vector<std::string> edit_files;  // .c files compiled by exactly one task
    uint64_t cold_fingerprint = 0;
  };

  void Prepare() override {
    for (const char* top : {"ClackRouter", "ClackRouterFlat", "HandRouter", "HandRouterFlat"}) {
      configs_.push_back({&knit::ClackKnit(), &knit::ClackSources(), top, {}, 0});
    }
    for (const char* top : {"HelloKernel", "PrefixedHelloKernel", "SerialHelloKernel",
                            "WebKernel", "WebKernelFlat", "TwoPoolsKernel", "IntrKernelGood",
                            "CyclicGoodKernel"}) {
      configs_.push_back({&knit::OskitKnit(), &knit::OskitSources(), top, {}, 0});
    }
    // The edit loop's ClackRouter -O2 image: the VM runs only this check.
    std::string error;
    auto router = BuildRouter("ClackRouter", BuildOptions(2), "prepare", spans_, &error);
    if (!router.ok()) {
      return Wrong(error);
    }
    Modeled again;
    for (Modeled* pass : {&modeled_, &again}) {
      std::string wrong = ModeledPass(*router.value(), feed_, spans_, pass);
      if (!wrong.empty()) {
        return Wrong("build: ClackRouter -O2 check: " + wrong);
      }
    }
    if (!modeled_.SameModel(again)) {
      Wrong("build: modeled metrics differ between two passes at one seed");
    }
  }

  // Compile tasks are flatten groups or standalone instances; a .c file
  // compiled by exactly one task is an edit that must cost one cache miss.
  static std::vector<std::string> EditFiles(const knit::Configuration& config) {
    std::map<std::string, std::set<std::string>> tasks_of_file;
    for (size_t i = 0; i < config.instances.size(); ++i) {
      const knit::Instance& instance = config.instances[i];
      std::string task = instance.flatten_group >= 0
                             ? "group" + std::to_string(instance.flatten_group)
                             : "instance" + std::to_string(i);
      for (const std::string& file : instance.unit->files) {
        tasks_of_file[file].insert(task);
      }
    }
    std::vector<std::string> files;
    for (const auto& [file, tasks] : tasks_of_file) {
      if (tasks.size() == 1 && file.size() > 2 && file.substr(file.size() - 2) == ".c") {
        files.push_back(file);
      }
    }
    return files;
  }

  // Each configuration's build is timed and calibrated on its own: a slice
  // after every build keeps the calibration within ~20 ms of the work.
  Timing Setup() override {
    KnitcOptions options = BuildOptions(2);
    cache_ = options.cache;
    Timing timing;
    long long removed = 0;
    for (Config& config : configs_) {
      Diagnostics diags;
      KnitPipeline pipeline(options);
      double start = NowMs();
      Result<LinkedImage> linked = BuildStaged(pipeline, *config.knit_text, *config.sources,
                                               config.top, "cold", spans_, diags);
      double ms = NowMs() - start;
      if (!linked.ok()) {
        Wrong("build: cold build of " + config.top + " failed: " + diags.FirstError());
        return timing;
      }
      Timed(ms, timing);
      removed += InsnsRemoved(pipeline.metrics());
      uint64_t fingerprint = knit::FingerprintImage(linked.value().image);
      if (config.cold_fingerprint == 0) {
        config.cold_fingerprint = fingerprint;
        config.edit_files =
            EditFiles(*linked.value().compiled.checked.scheduled.elaborated.config);
        if (config.edit_files.empty()) {
          Wrong("build: " + config.top + " has no single-task unit to edit");
        }
      } else if (fingerprint != config.cold_fingerprint) {
        Wrong("build: cold build of " + config.top + " is not deterministic");
      }
    }
    insns_removed_ = removed;
    return timing;
  }

  Timing Round(long long index, bool) override {
    KnitcOptions options = BuildOptions(2);
    options.cache = cache_;
    Timing timing;
    double tasks = 0, hits = 0, lookups = 0;
    for (size_t c = 0; c < configs_.size() && ok(); ++c) {
      const Config& config = configs_[c];
      uint64_t pick = Mix(options_.seed, uint64_t(index) * 131 + c);
      const std::string& file = config.edit_files[pick % config.edit_files.size()];
      SourceMap sources = *config.sources;
      // A new, unused function: real front-end and codegen work, no change in
      // behaviour, and a text no earlier round produced.
      sources[file] += "\nint perfbench_edit_" + std::to_string(index) + "_" +
                       std::to_string(c) + "(int x) { return x * " +
                       std::to_string((pick >> 8) % 1000 + 3) + " + " +
                       std::to_string(index) + "; }\n";
      Diagnostics diags;
      KnitPipeline pipeline(options);
      double start = NowMs();
      Result<LinkedImage> linked =
          BuildStaged(pipeline, *config.knit_text, sources, config.top, "incr", spans_, diags);
      double ms = NowMs() - start;
      ++report_->attempted;
      if (!linked.ok()) {
        ++report_->failed;
        Wrong("build: edited " + config.top + " (" + file + ") failed: " + diags.FirstError());
        break;
      }
      Timed(ms, timing);
      if (pipeline.metrics().CacheMisses() != 1) {
        Wrong("build: editing " + file + " in " + config.top + " cost " +
              std::to_string(pipeline.metrics().CacheMisses()) + " cache misses, not 1");
      }
      if (const knit::StageMetrics* compile = pipeline.metrics().Find("compile")) {
        tasks += compile->items;
        hits += compile->cache_hits;
        lookups += compile->cache_hits + compile->cache_misses;
      }
    }
    compile_tasks_.push_back(tasks);
    cache_lookups_.push_back(lookups);
    cache_hit_ratio_.push_back(lookups > 0 ? hits / lookups : 0);
    return timing;
  }

  // Reverting every edit must hit the cache everywhere and give back the
  // cold image bit for bit.
  void EndEpoch() override {
    KnitcOptions options = BuildOptions(2);
    options.cache = cache_;
    for (const Config& config : configs_) {
      Diagnostics diags;
      KnitPipeline pipeline(options);
      Result<LinkedImage> linked = BuildStaged(pipeline, *config.knit_text, *config.sources,
                                               config.top, "revert", spans_, diags);
      if (!linked.ok()) {
        return Wrong("build: reverted " + config.top + " failed: " + diags.FirstError());
      }
      if (pipeline.metrics().CacheMisses() != 0 ||
          knit::FingerprintImage(linked.value().image) != config.cold_fingerprint) {
        return Wrong("build: reverting the edits of " + config.top +
                     " does not reproduce the cold image from the cache");
      }
    }
  }

  double OpsPerRound() const override { return double(configs_.size()); }
  int RoundsPerEpoch() const override { return 6; }

  void Report(LayerValues& layers) override {
    double packets = modeled_.packets > 0 ? modeled_.packets : 1;
    layers["driver.compile_tasks.incr"] = Median(compile_tasks_);
    layers["driver.cache_lookups.incr"] = Median(cache_lookups_);
    layers["driver.cache_hit_ratio.incr"] = Median(cache_hit_ratio_);
    layers["vm.passes.insns_removed"] = double(insns_removed_);
    layers["vm.ns_per_insn"] = modeled_.feed_ms * 1e6 / double(std::max(1LL, modeled_.insns));
    layers["vm.allocs_per_pkt"] = double(modeled_.allocations) / packets;
  }

  Feed feed_{RouteTrace(options_.seed)};
  std::vector<Config> configs_;
  std::shared_ptr<knit::BuildCache> cache_;
  long long insns_removed_ = 0;
  std::vector<double> compile_tasks_, cache_lookups_, cache_hit_ratio_;
};

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> metrics;
    for (const std::string& stage : StageSpans()) {
      metrics.emplace_back(stage + "_ms.cold", "ms");
      metrics.emplace_back(stage + "_ms.incr", "ms");
    }
    for (const auto& [name, unit] : std::vector<std::pair<std::string, std::string>>{
             {"driver.compile_tasks.incr", "count"},
             {"driver.cache_lookups.incr", "count"},
             {"driver.cache_hit_ratio.incr", "ratio"},
             {"vm.passes.insns_removed", "count"},
             {"vm.ns_per_insn", "ns"},
             {"vm.ns_per_insn.profiled", "ns"},
             {"vm.insns_per_pkt", "count"},
             {"vm.allocs_per_pkt", "count"},
             {"vm.boundary_calls_per_pkt", "count"},
             {"vm.pkt_cycles_samples", "count"},
             {"vm.machine_new_ms", "ms"},
             {"vm.init_ms", "ms"},
             {"serve.from_build_ms", "ms"},
             {"serve.fleet_efficiency", "ratio"},
             {"serve.batches_per_kpkt", "count"},
             {"serve.max_queue_depth", "count"},
             {"serve.shard_skew", "ratio"},
             {"host.calib_ms", "ms"},
             {"host.raw_ops_per_s", "1/s"},
             {"host.raw_setup_s", "s"},
             {"trace.overhead_ratio", "ratio"},
             {"trace.spans", "count"},
         }) {
      metrics.emplace_back(name, unit);
    }
    return metrics;
  }();
  return kMetrics;
}

bool RunWorkload(const RunOptions& options, RunReport* report, std::string* error) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "route_small") {
    workload = std::make_unique<RouteSmall>(options, report);
  } else if (options.workload == "fleet_large") {
    workload = std::make_unique<FleetLarge>(options, report);
  } else if (options.workload == "build") {
    workload = std::make_unique<BuildCorpus>(options, report);
  } else {
    *error = "unknown workload '" + options.workload + "'";
    return false;
  }
  workload->Run();
  return true;
}

bool CheckModeledRepeat(uint64_t seed, std::string* error) {
  SpanLog spans(false);
  Feed feed(RouteTrace(seed));
  Modeled first, second;
  for (Modeled* pass : {&first, &second}) {
    auto build = BuildRouter("ClackRouter", BuildOptions(2), "check", spans, error);
    if (!build.ok()) {
      return false;
    }
    std::string wrong = ModeledPass(*build.value(), feed, spans, pass);
    if (!wrong.empty()) {
      *error = wrong;
      return false;
    }
  }
  if (!first.SameModel(second)) {
    *error = "modeled metrics or instruction counts differ between two runs at one seed";
    return false;
  }
  return true;
}

}  // namespace perfbench
