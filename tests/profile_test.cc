// Component profiling (DESIGN.md §9): attribution is exact (per-component sums
// equal the machine counters), boundary-call accounting matches hand counts on a
// two-unit fixture, flattening collapses intra-group edges, and profiling is a
// pure observer — a profiling-off run (and the image itself) is bit-identical to
// pre-profiler goldens, and turning profiling on changes no counter.
#include <gtest/gtest.h>

#include "src/driver/knitc.h"
#include "src/driver/pipeline.h"
#include "src/support/trace_event.h"
#include "src/vm/machine.h"
#include "src/vm/profile_trace.h"
#include "tests/alloc_counter.h"

namespace knit {
namespace {

// Two-unit fixture: Wrap.wrap_f(n) calls Leaf.f(i) once per loop iteration, so
// the Wrap -> Leaf boundary is crossed exactly n times. PairFlat is the same
// configuration inside a `flatten;` group.
constexpr const char* kKnit = R"(
bundletype Sink = { f }
unit Leaf = {
  imports [];
  exports [ out : Sink ];
  files { "leaf.c" };
}
unit Wrap = {
  imports [ in : Sink ];
  exports [ out : Sink ];
  files { "wrap.c" };
  rename { out.f to wrap_f; };
}
unit Pair = {
  imports [];
  exports [ out : Sink ];
  link {
    [leaf] <- Leaf <- [];
    [out] <- Wrap <- [leaf];
  };
}
unit PairFlat = {
  imports [];
  exports [ out : Sink ];
  flatten;
  link {
    [leaf] <- Leaf <- [];
    [out] <- Wrap <- [leaf];
  };
}
)";

SourceMap Sources() {
  SourceMap sources;
  sources["leaf.c"] = "int f(int x) { return x + 1; }\n";
  sources["wrap.c"] =
      "extern int f(int n);\n"
      "int wrap_f(int n) {\n"
      "  int acc = 0;\n"
      "  int i = 0;\n"
      "  while (i < n) { acc = acc + f(i); i = i + 1; }\n"
      "  return acc;\n"
      "}\n";
  return sources;
}

KnitBuildResult Build(const char* top, const KnitcOptions& options = KnitcOptions()) {
  Diagnostics diags;
  Result<KnitBuildResult> built = KnitBuild(kKnit, Sources(), top, options, diags);
  EXPECT_TRUE(built.ok()) << diags.ToString();
  return built.take();
}

// Pre-profiler goldens, captured at the commit before BytecodeFunction::component
// and the Machine profiling mode existed: knit__init, ResetCounters, then
// out.f(7). Fingerprints prove the emitted images did not change; the counters
// prove a profiling-off (and profiling-on) run executes identically.
// The fingerprints were re-baselined when the Op enum gained kCallBound (live
// reconfiguration): opcode values shifted, changing the encoded bytes of every
// image, and again when the intrinsic-native table gained __alloc_note /
// __free_note (allocator units): native ids shifted the callable space. The
// runtime counters are untouched — they are the behavioral claim.
struct Golden {
  const char* top;
  uint64_t fingerprint;
  uint32_t value;
  long long cycles;
  long long stalls;
  long long insns;
};
constexpr Golden kGoldens[] = {
    {"Pair", 0x81b44344e6a96810ull, 28, 262, 24, 136},
    {"PairFlat", 0x33a4e14be2a6d2f9ull, 28, 143, 24, 115},
};

TEST(ProfileTest, ProfilingOffBitIdenticalToPreProfilerGoldens) {
  for (const Golden& golden : kGoldens) {
    KnitBuildResult result = Build(golden.top);
    EXPECT_EQ(FingerprintImage(result.image), golden.fingerprint) << golden.top;
    Machine machine(result.image);
    ASSERT_TRUE(machine.Call(result.init_function).ok) << golden.top;
    machine.ResetCounters();
    RunResult run = machine.Call(result.ExportedSymbol("out", "f"), {7});
    ASSERT_TRUE(run.ok) << golden.top;
    EXPECT_EQ(run.value, golden.value) << golden.top;
    EXPECT_EQ(machine.cycles(), golden.cycles) << golden.top;
    EXPECT_EQ(machine.ifetch_stalls(), golden.stalls) << golden.top;
    EXPECT_EQ(machine.insns(), golden.insns) << golden.top;
    EXPECT_TRUE(machine.Profile(false).components.empty());  // profiling never enabled
  }
}

TEST(ProfileTest, ProfilingOnChangesNoCounter) {
  for (const Golden& golden : kGoldens) {
    KnitBuildResult result = Build(golden.top);
    Machine machine(result.image);
    machine.EnableProfiling();
    ASSERT_TRUE(machine.Call(result.init_function).ok) << golden.top;
    machine.ResetCounters();
    RunResult run = machine.Call(result.ExportedSymbol("out", "f"), {7});
    ASSERT_TRUE(run.ok) << golden.top;
    EXPECT_EQ(run.value, golden.value) << golden.top;
    EXPECT_EQ(machine.cycles(), golden.cycles) << golden.top;
    EXPECT_EQ(machine.ifetch_stalls(), golden.stalls) << golden.top;
    EXPECT_EQ(machine.insns(), golden.insns) << golden.top;
  }
}

TEST(ProfileTest, AttributionSumsEqualCountersExactly) {
  KnitBuildResult result = Build("Pair");
  Machine machine(result.image);
  machine.EnableProfiling();
  ASSERT_TRUE(machine.Call(result.init_function).ok);
  machine.ResetCounters();
  machine.ResetProfile();
  ASSERT_TRUE(machine.Call(result.ExportedSymbol("out", "f"), {7}).ok);
  ComponentProfile profile = machine.Profile();
  EXPECT_EQ(profile.total_cycles, machine.cycles());
  EXPECT_EQ(profile.total_ifetch_stalls, machine.ifetch_stalls());
  EXPECT_EQ(profile.total_insns, machine.insns());
  long long cycles = 0, stalls = 0, insns = 0;
  for (const ComponentProfileEntry& entry : profile.components) {
    cycles += entry.cycles;
    stalls += entry.ifetch_stalls;
    insns += entry.insns;
  }
  EXPECT_EQ(cycles, machine.cycles());
  EXPECT_EQ(stalls, machine.ifetch_stalls());
  EXPECT_EQ(insns, machine.insns());
  // Attribution keeps accumulating across calls; Profile(false) leaves the
  // event log out.
  ASSERT_TRUE(machine.Call(result.ExportedSymbol("out", "f"), {7}).ok);
  ComponentProfile again = machine.Profile(false);
  EXPECT_EQ(again.total_cycles, machine.cycles());
  EXPECT_TRUE(again.events.empty());
}

// Counters-only profiling allocates nothing per host Call once the call sites
// have run once, through direct calls and through bound calls (--swappable=*)
// alike.
TEST(ProfileTest, ProfiledHostCallAllocatesNothing) {
  for (bool swappable : {false, true}) {
    SCOPED_TRACE(swappable ? "swappable" : "plain");
    KnitcOptions options;
    if (swappable) {
      options.swappable = {"*"};
    }
    KnitBuildResult result = Build("Pair", options);
    Machine machine(result.image);
    machine.EnableProfiling(0);
    ASSERT_TRUE(machine.Call(result.init_function).ok);
    const std::string name = result.ExportedSymbol("out", "f");
    const std::vector<uint32_t> args = {7};
    ASSERT_TRUE(machine.Call(name, args).ok);  // warm-up
    machine.ResetProfile();
    int ok_calls = 0;
    uint64_t before = AllocationCount();
    for (int i = 0; i < 100; ++i) {
      ok_calls += machine.Call(name, args).ok ? 1 : 0;
    }
    uint64_t allocations = AllocationCount() - before;
    EXPECT_EQ(ok_calls, 100);
    EXPECT_EQ(allocations, 0u);
    ComponentProfile profile = machine.Profile(false);
    EXPECT_EQ(profile.boundary_calls, 700);
    EXPECT_FALSE(profile.events_truncated);
  }
}

TEST(ProfileTest, BoundaryCallsMatchHandCount) {
  KnitBuildResult result = Build("Pair");
  Machine machine(result.image);
  machine.EnableProfiling();
  ASSERT_TRUE(machine.Call(result.init_function).ok);
  machine.ResetProfile();
  ASSERT_TRUE(machine.Call(result.ExportedSymbol("out", "f"), {7}).ok);
  ComponentProfile profile = machine.Profile();
  // wrap_f(7) runs the loop body 7 times: exactly 7 Wrap -> Leaf crossings, and
  // nothing else crosses a boundary.
  ASSERT_EQ(profile.edges.size(), 1u);
  EXPECT_EQ(profile.edges[0].caller, "Pair/Wrap");
  EXPECT_EQ(profile.edges[0].callee, "Pair/Leaf");
  EXPECT_EQ(profile.edges[0].calls, 7);
  EXPECT_EQ(profile.boundary_calls, 7);
  // Per-component call columns agree with the edge.
  for (const ComponentProfileEntry& entry : profile.components) {
    if (entry.component == "Pair/Wrap") {
      EXPECT_EQ(entry.calls_out, 7);
      EXPECT_EQ(entry.calls_in, 0);  // entered from the host, which has no bucket
    } else if (entry.component == "Pair/Leaf") {
      EXPECT_EQ(entry.calls_in, 7);
      EXPECT_EQ(entry.calls_out, 0);
    }
  }
}

TEST(ProfileTest, FlattenCollapsesIntraGroupEdges) {
  KnitBuildResult result = Build("PairFlat");
  Machine machine(result.image);
  machine.EnableProfiling();
  ASSERT_TRUE(machine.Call(result.init_function).ok);
  machine.ResetProfile();
  ASSERT_TRUE(machine.Call(result.ExportedSymbol("out", "f"), {7}).ok);
  ComponentProfile profile = machine.Profile();
  // The flattener inlined Leaf.f into wrap_f: the 7 crossings the modular build
  // pays (BoundaryCallsMatchHandCount) are gone entirely.
  EXPECT_EQ(profile.boundary_calls, 0);
  for (const BoundaryEdge& edge : profile.edges) {
    EXPECT_EQ(edge.caller, edge.callee) << edge.caller << " -> " << edge.callee;
  }
}

TEST(ProfileTest, EventsNestAndRenderAsTrace) {
  KnitBuildResult result = Build("Pair");
  Machine machine(result.image);
  machine.EnableProfiling();
  ASSERT_TRUE(machine.Call(result.init_function).ok);
  machine.ResetCounters();
  machine.ResetProfile();
  ASSERT_TRUE(machine.Call(result.ExportedSymbol("out", "f"), {7}).ok);
  ComponentProfile profile = machine.Profile();
  // Host -> Wrap begin, 7 Leaf begin/end pairs, Wrap end: 16 events, balanced,
  // cycle-ordered.
  ASSERT_EQ(profile.events.size(), 16u);
  int depth = 0;
  long long last_cycle = -1;
  for (const ProfileEvent& event : profile.events) {
    depth += event.begin ? 1 : -1;
    EXPECT_GE(depth, 0);
    EXPECT_GE(event.at_cycle, last_cycle);
    last_cycle = event.at_cycle;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(profile.events_truncated);

  std::string json = ComponentProfileTraceJson(profile, "Pair");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("Pair/Leaf"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

TEST(ProfileTest, EventCapSetsTruncatedFlagButCountersStayExact) {
  KnitBuildResult result = Build("Pair");
  Machine machine(result.image);
  machine.EnableProfiling(/*max_events=*/4);
  ASSERT_TRUE(machine.Call(result.init_function).ok);
  machine.ResetCounters();
  machine.ResetProfile();
  ASSERT_TRUE(machine.Call(result.ExportedSymbol("out", "f"), {7}).ok);
  ComponentProfile profile = machine.Profile();
  EXPECT_TRUE(profile.events_truncated);
  EXPECT_EQ(profile.events.size(), 4u);
  EXPECT_EQ(profile.total_cycles, machine.cycles());
}

TEST(ProfileTest, FunctionCallCountsRecorded) {
  KnitBuildResult result = Build("Pair");
  Machine machine(result.image);
  machine.EnableProfiling();
  ASSERT_TRUE(machine.Call(result.init_function).ok);
  machine.ResetProfile();
  ASSERT_TRUE(machine.Call(result.ExportedSymbol("out", "f"), {7}).ok);
  ComponentProfile profile = machine.Profile();
  // wrap_f entered once, Leaf's f entered 7 times; rows are calls-descending.
  ASSERT_GE(profile.function_calls.size(), 2u);
  EXPECT_EQ(profile.function_calls[0].calls, 7);
  long long last = profile.function_calls[0].calls;
  bool saw_single = false;
  for (const FunctionCallCount& fn : profile.function_calls) {
    EXPECT_LE(fn.calls, last);
    EXPECT_GT(fn.calls, 0);  // never-entered functions have no row
    EXPECT_FALSE(fn.function.empty());
    last = fn.calls;
    saw_single = saw_single || fn.calls == 1;
  }
  EXPECT_TRUE(saw_single);  // wrap_f
}

TEST(ProfileTest, ProfileDocumentRoundTripsExactly) {
  KnitBuildResult result = Build("Pair");
  Machine machine(result.image);
  machine.EnableProfiling();
  ASSERT_TRUE(machine.Call(result.init_function).ok);
  machine.ResetProfile();
  ASSERT_TRUE(machine.Call(result.ExportedSymbol("out", "f"), {7}).ok);
  ComponentProfile profile = machine.Profile();

  ProfileMeta meta;
  meta.top = "Pair";
  meta.config_digest = 0x0123456789abcdefull;
  meta.opt_level = 2;
  std::string document = SerializeComponentProfile(profile, meta, "Pair");
  // One document, both halves: the loadable trace and the machine-readable block.
  EXPECT_NE(document.find("\"knit_profile\""), std::string::npos);
  EXPECT_NE(document.find("\"traceEvents\""), std::string::npos);

  Diagnostics diags;
  Result<LoadedProfile> loaded = ParseComponentProfile(document, diags);
  ASSERT_TRUE(loaded.ok()) << diags.ToString();
  const LoadedProfile& round = loaded.value();
  EXPECT_EQ(round.meta.version, kProfileFormatVersion);
  EXPECT_EQ(round.meta.top, "Pair");
  EXPECT_EQ(round.meta.config_digest, meta.config_digest);
  EXPECT_EQ(round.meta.opt_level, 2);
  EXPECT_EQ(round.profile.total_cycles, profile.total_cycles);
  EXPECT_EQ(round.profile.boundary_calls, profile.boundary_calls);
  ASSERT_EQ(round.profile.components.size(), profile.components.size());
  for (size_t i = 0; i < profile.components.size(); ++i) {
    EXPECT_EQ(round.profile.components[i].component, profile.components[i].component);
    EXPECT_EQ(round.profile.components[i].cycles, profile.components[i].cycles);
  }
  ASSERT_EQ(round.profile.edges.size(), profile.edges.size());
  ASSERT_EQ(round.profile.function_calls.size(), profile.function_calls.size());

  // The digest is computed from parsed content, so serialize -> parse ->
  // serialize is a fixpoint as far as the cache key is concerned.
  LoadedProfile original{meta, profile};
  EXPECT_EQ(ProfileDigest(round), ProfileDigest(original));
  Diagnostics diags2;
  Result<LoadedProfile> twice =
      ParseComponentProfile(SerializeComponentProfile(round.profile, round.meta, "Pair"), diags2);
  ASSERT_TRUE(twice.ok()) << diags2.ToString();
  EXPECT_EQ(ProfileDigest(twice.value()), ProfileDigest(original));
}

TEST(ProfileTest, ParserSkipsUnknownFieldsEverywhere) {
  // A document from a hypothetical newer same-version writer: extra fields at
  // the top level, inside knit_profile, and inside every array element. The
  // additive-evolution rule says all of them load cleanly.
  const char* document = R"({
    "generator": "knitc-next",
    "knit_profile": {
      "version": 1,
      "top": "Pair",
      "config_digest": "00000000000000ff",
      "opt_level": 2,
      "recorded_at": {"unix": 1754700000, "tz": "UTC"},
      "total_cycles": 262,
      "total_ifetch_stalls": 24,
      "total_insns": 136,
      "boundary_calls": 7,
      "components": [
        {"component": "Pair/Leaf", "cycles": 100, "self_rank": 1, "insns": 70},
        {"component": "Pair/Wrap", "cycles": 162, "flags": ["hot", "entry"]}
      ],
      "edges": [
        {"caller": "Pair/Wrap", "callee": "Pair/Leaf", "calls": 7, "latency_p99": 12.5}
      ],
      "functions": [
        {"function": "leaf__f", "calls": 7, "inlined": false}
      ],
      "future_table": [[1, 2], [3, 4]]
    },
    "traceEvents": [],
    "displayTimeUnit": "ms"
  })";
  Diagnostics diags;
  Result<LoadedProfile> loaded = ParseComponentProfile(document, diags);
  ASSERT_TRUE(loaded.ok()) << diags.ToString();
  EXPECT_EQ(loaded.value().meta.config_digest, 0xffull);
  EXPECT_EQ(loaded.value().profile.total_cycles, 262);
  ASSERT_EQ(loaded.value().profile.components.size(), 2u);
  EXPECT_EQ(loaded.value().profile.components[0].insns, 70);
  ASSERT_EQ(loaded.value().profile.edges.size(), 1u);
  EXPECT_EQ(loaded.value().profile.edges[0].calls, 7);
  ASSERT_EQ(loaded.value().profile.function_calls.size(), 1u);
  EXPECT_EQ(loaded.value().profile.function_calls[0].function, "leaf__f");
}

TEST(ProfileTest, ParserRejectsFutureVersionsAndPlainTraces) {
  Diagnostics future;
  EXPECT_FALSE(
      ParseComponentProfile(R"({"knit_profile": {"version": 99, "top": "X"}})", future).ok());
  EXPECT_NE(future.ToString().find("version 99"), std::string::npos);

  // A plain trace file (what --profile wrote before the format existed) is a
  // named failure, not a crash or a silently empty profile.
  Diagnostics trace_only;
  EXPECT_FALSE(ParseComponentProfile(R"({"traceEvents": []})", trace_only).ok());
  EXPECT_NE(trace_only.ToString().find("knit_profile"), std::string::npos);

  Diagnostics malformed;
  EXPECT_FALSE(ParseComponentProfile("{\"knit_profile\": {\"version\": 1", malformed).ok());
  EXPECT_NE(malformed.ToString().find("bad profile document"), std::string::npos);

  Diagnostics versionless;
  EXPECT_FALSE(ParseComponentProfile(R"({"knit_profile": {"top": "X"}})", versionless).ok());
}

TEST(ProfileTest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace knit
