// Modeled-counter oracles for the interpreter's host fast path. Every host-side
// speedup of Machine (the I-cache memo and shift/mask indexing, the per-mode loop
// instances, the native table) must leave each modeled cycle where it was:
//  - ICacheGeometry pins cycles / I-fetch stalls / instructions of a fixed trace
//    under power-of-two and non-power-of-two cache geometries, so both the
//    shift/mask and the divide indexing paths are held to exact values;
//  - LoopParity runs every Clack configuration with profiling off and on, and
//    with an inert fault plan, and requires identical results from each.
#include <gtest/gtest.h>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/trace.h"

namespace knit {
namespace {

struct Counters {
  long long cycles = 0;
  long long ifetch_stalls = 0;
  long long insns = 0;
};

std::vector<TracePacket> FixedTrace() {
  TraceOptions options;
  options.count = 256;
  return GenerateTrace(options);
}

// Builds `top` at `opt_level` on `cost`, zeroes the counters after knit__init,
// and runs `trace` (plus the stats read-back the snapshot performs).
Counters RunCounters(const std::string& top, int opt_level, const CostModel& cost,
                     const std::vector<TracePacket>& trace) {
  Diagnostics diags;
  KnitcOptions options;
  options.opt_level = opt_level;
  KnitPipeline pipeline(options);
  Result<RouterProgram> program = RouterProgram::FromClack(pipeline, top, diags, cost);
  EXPECT_TRUE(program.ok()) << diags.ToString();
  if (!program.ok()) {
    return Counters{};
  }
  Machine& machine = program.value().machine();
  machine.ResetCounters();
  Result<RouterStats> stats = program.value().RunTrace(trace, diags);
  EXPECT_TRUE(stats.ok()) << diags.ToString();
  return Counters{machine.cycles(), machine.ifetch_stalls(), machine.insns()};
}

CostModel Geometry(int bytes, int line, int ways) {
  CostModel cost;
  cost.icache_bytes = bytes;
  cost.icache_line = line;
  cost.icache_ways = ways;
  return cost;
}

struct PinnedGeometry {
  int bytes;
  int line;
  int ways;
  Counters expected;
};

// Recorded before the fast path existed. 1536/32/4 has 12 sets and 960/24/4
// has 24-byte lines (10 sets): neither is a power of two.
constexpr PinnedGeometry kPinned[] = {
    {8192, 32, 4, {378934, 1440, 324034}},
    {1024, 32, 4, {553342, 175848, 324034}},
    {1536, 32, 4, {551454, 173960, 324034}},
    {960, 24, 4, {605214, 227720, 324034}},
};

TEST(ICacheGeometry, ClackRouterO2CountersArePinned) {
  std::vector<TracePacket> trace = FixedTrace();
  for (const PinnedGeometry& pinned : kPinned) {
    SCOPED_TRACE(std::to_string(pinned.bytes) + "/" + std::to_string(pinned.line) + "/" +
                 std::to_string(pinned.ways));
    Counters got = RunCounters("ClackRouter", 2,
                               Geometry(pinned.bytes, pinned.line, pinned.ways), trace);
    EXPECT_EQ(got.cycles, pinned.expected.cycles);
    EXPECT_EQ(got.ifetch_stalls, pinned.expected.ifetch_stalls);
    EXPECT_EQ(got.insns, pinned.expected.insns);
  }
}

// A cache smaller than one set of lines (icache_bytes < icache_line * ways) is
// clamped to one set, so it behaves exactly like the one-set cache of the same
// line size and associativity, on the shift/mask path and on the divide path.
TEST(ICacheGeometry, CacheSmallerThanOneSetHasOneSet) {
  std::vector<TracePacket> trace = FixedTrace();
  for (int line : {32, 24}) {
    SCOPED_TRACE("line " + std::to_string(line));
    Counters tiny = RunCounters("ClackRouter", 2, Geometry(line, line, 4), trace);
    Counters one_set = RunCounters("ClackRouter", 2, Geometry(line * 4, line, 4), trace);
    EXPECT_GT(tiny.ifetch_stalls, 0);
    EXPECT_EQ(tiny.cycles, one_set.cycles);
    EXPECT_EQ(tiny.ifetch_stalls, one_set.ifetch_stalls);
    EXPECT_EQ(tiny.insns, one_set.insns);
  }
}

// ---- loop-instance parity ---------------------------------------------------

enum class Mode { kPlain, kProfiled, kInertFaultPlan };

struct LoopRun {
  Counters counters;
  RouterStats stats;  // tx hash plus the values the stats exports returned
  ComponentProfile profile;
};

LoopRun RunMode(KnitPipeline& pipeline, const std::string& top, Mode mode,
                const std::vector<TracePacket>& trace) {
  Diagnostics diags;
  Result<RouterProgram> program = RouterProgram::FromClack(pipeline, top, diags);
  EXPECT_TRUE(program.ok()) << diags.ToString();
  LoopRun run;
  if (!program.ok()) {
    return run;
  }
  Machine& machine = program.value().machine();
  if (mode == Mode::kProfiled) {
    machine.EnableProfiling(0);
  }
  if (mode == Mode::kInertFaultPlan) {
    FaultPlan plan;
    plan.injections.push_back(FaultInjection{"no_such_function", 1, /*trap=*/true, 0});
    machine.set_fault_plan(plan);
  }
  machine.ResetCounters();
  RouterSession& session = program.value().session();
  EXPECT_TRUE(session.FeedRange(trace, 0, trace.size(), diags).ok()) << diags.ToString();
  run.counters = Counters{machine.cycles(), machine.ifetch_stalls(), machine.insns()};
  run.profile = machine.Profile(false);
  Result<RouterStats> stats = session.Snapshot(diags);
  EXPECT_TRUE(stats.ok()) << diags.ToString();
  if (stats.ok()) {
    run.stats = stats.value();
  }
  return run;
}

void ExpectSameRun(const LoopRun& a, const LoopRun& b) {
  EXPECT_EQ(a.counters.cycles, b.counters.cycles);
  EXPECT_EQ(a.counters.ifetch_stalls, b.counters.ifetch_stalls);
  EXPECT_EQ(a.counters.insns, b.counters.insns);
  EXPECT_EQ(a.stats.tx_hash, b.stats.tx_hash);
  EXPECT_EQ(a.stats.tx_count, b.stats.tx_count);
  EXPECT_EQ(a.stats.in0, b.stats.in0);
  EXPECT_EQ(a.stats.in1, b.stats.in1);
  EXPECT_EQ(a.stats.ip, b.stats.ip);
  EXPECT_EQ(a.stats.out, b.stats.out);
  EXPECT_EQ(a.stats.drop, b.stats.drop);
}

// Every Clack configuration at every -O level runs through both interpreter
// instances (profiling off and on) and, with an inert fault plan installed,
// through the fault-checking call path: all three runs must agree to the
// cycle, and the profiled run's attribution must sum to the counters exactly.
TEST(LoopParity, ProfilingAndInertFaultPlanChangeNothing) {
  TraceOptions trace_options;
  trace_options.count = 64;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);
  for (const char* top :
       {"ClackRouter", "ClackRouterFlat", "HandRouter", "HandRouterFlat", "ClackAllocRouter"}) {
    for (int opt_level : {0, 1, 2}) {
      SCOPED_TRACE(std::string(top) + " -O" + std::to_string(opt_level));
      KnitcOptions options;
      options.opt_level = opt_level;
      KnitPipeline pipeline(options);
      LoopRun plain = RunMode(pipeline, top, Mode::kPlain, trace);
      LoopRun profiled = RunMode(pipeline, top, Mode::kProfiled, trace);
      LoopRun faulted = RunMode(pipeline, top, Mode::kInertFaultPlan, trace);
      ASSERT_GT(plain.stats.tx_count, 0u);
      ExpectSameRun(plain, profiled);
      ExpectSameRun(plain, faulted);

      EXPECT_TRUE(plain.profile.components.empty());
      long long cycles = 0, stalls = 0, insns = 0;
      for (const ComponentProfileEntry& entry : profiled.profile.components) {
        cycles += entry.cycles;
        stalls += entry.ifetch_stalls;
        insns += entry.insns;
      }
      EXPECT_EQ(cycles, plain.counters.cycles);
      EXPECT_EQ(stalls, plain.counters.ifetch_stalls);
      EXPECT_EQ(insns, plain.counters.insns);
    }
  }
}

}  // namespace
}  // namespace knit
