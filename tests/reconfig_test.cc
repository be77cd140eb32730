// Live reconfiguration (DESIGN.md §11): hot-swap a component instance of a
// RUNNING machine through its binding slots, with exact rollback on every
// injected swap-path failure.
//
// Two layers of coverage:
//   - SwapKit: a two-component configuration (Caller -> Worker) with an
//     initializer/finalizer pair, driving the full swap protocol — behaviour
//     change, state preservation, old-generation finalization, every
//     FaultPlan::swap_points injection, repeated-failure idempotency, and
//     deferral while a frame is live inside the target.
//   - Clack scenario: hot-swap EVERY element of the 24-instance modular router
//     mid-trace, at -O1 and -O2, and require byte-identical transmissions
//     (same tx hash, same tx count) as the no-swap run — zero dropped packets.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/clack/corpus.h"
#include "src/clack/harness.h"
#include "src/clack/trace.h"
#include "src/driver/knitc.h"
#include "src/reconfig/reconfig.h"
#include "src/support/mangle.h"
#include "src/vm/machine.h"

namespace knit {
namespace {

// ---------------------------------------------------------------------------
// SwapKit: Top = Caller -> Worker, environment supplies the `ev` event log.
// Worker is built swappable; Caller keeps cross-swap state (its call counter).
// ---------------------------------------------------------------------------

const char kSwapKnit[] =
    "bundletype Event = { ev }\n"
    "bundletype Val = { get }\n"
    "bundletype Api = { call_get, caller_count, all_ones }\n"
    "unit Worker = {\n"
    "  imports [ e : Event ];\n"
    "  exports [ o : Val ];\n"
    "  initializer w_init for o;\n"
    "  finalizer w_fini for o;\n"
    "  depends { w_init needs e; w_fini needs e; o needs e; };\n"
    "  files { \"worker.c\" };\n"
    "}\n"
    "unit Caller = {\n"
    "  imports [ w : Val ];\n"
    "  exports [ a : Api ];\n"
    "  depends { a needs w; };\n"
    "  files { \"caller.c\" };\n"
    "}\n"
    "unit Top = {\n"
    "  imports [ e : Event ];\n"
    "  exports [ a : Api, o : Val ];\n"
    "  link {\n"
    "    [o] <- Worker <- [e];\n"
    "    [a] <- Caller <- [o];\n"
    "  };\n"
    "}\n";

const char kCallerSource[] =
    "extern int get(void);\n"
    "static unsigned g_count = 0;\n"
    "int call_get(void) { g_count++; return get(); }\n"
    "unsigned caller_count(void) { return g_count; }\n"
    "int all_ones(void) { return -1; }\n";

// Generation 1: get() == 1; init logs 1, fini logs 101.
const char kWorkerV1[] =
    "extern void ev(int code);\n"
    "int get(void) { return 1; }\n"
    "int w_init(void) { ev(1); return 0; }\n"
    "void w_fini(void) { ev(101); }\n";

// Generation 2: get() == 2; init logs 2, fini logs 102.
const char kWorkerV2[] =
    "extern void ev(int code);\n"
    "int get(void) { return 2; }\n"
    "int w_init(void) { ev(2); return 0; }\n"
    "void w_fini(void) { ev(102); }\n";

// Like V1, but get() reports to the event log — so the host observes the
// machine while a Worker frame is live (the deferral test hooks this).
const char kWorkerNoisy[] =
    "extern void ev(int code);\n"
    "int get(void) { ev(5); return 1; }\n"
    "int w_init(void) { ev(1); return 0; }\n"
    "void w_fini(void) { ev(101); }\n";

struct SwapKit {
  std::unique_ptr<KnitBuildResult> build;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<ReconfigEngine> engine;
  std::vector<int> events;
  std::function<void(int)> on_event;  // extra host hook inside the ev native
  std::string error;

  bool ok() const { return engine != nullptr; }

  uint32_t Call(const char* port, const char* member) {
    RunResult result = machine->Call(build->ExportedSymbol(port, member));
    EXPECT_TRUE(result.ok) << port << "." << member << ": " << result.error;
    return result.value;
  }

  uint32_t WorkerStatus() {
    int instance = build->config.FindInstance("Top/Worker");
    EXPECT_GE(instance, 0);
    uint32_t base = build->image.data_symbols.at(build->status_symbol);
    return machine->ReadWord(base + static_cast<uint32_t>(instance) * 4);
  }

  SwapReport Swap(const std::string& source, const std::string& name) {
    SwapSpec spec;
    spec.instance = "Top/Worker";
    spec.source = source;
    spec.source_name = name;
    return engine->Request(spec);
  }
};

std::unique_ptr<SwapKit> BuildSwapKit(const std::string& worker_source = kWorkerV1,
                                      bool swappable = true) {
  auto kit = std::make_unique<SwapKit>();
  SourceMap sources;
  sources["worker.c"] = worker_source;
  sources["caller.c"] = kCallerSource;
  KnitcOptions options;
  if (swappable) {
    options.swappable = {"Top/Worker"};
  }
  Diagnostics diags;
  Result<KnitBuildResult> build = KnitBuild(kSwapKnit, sources, "Top", options, diags);
  if (!build.ok()) {
    kit->error = diags.ToString();
    return kit;
  }
  kit->build = std::make_unique<KnitBuildResult>(std::move(build.value()));
  kit->machine = std::make_unique<Machine>(kit->build->image);
  SwapKit* raw = kit.get();
  kit->machine->BindNative(EnvSymbol("e", "ev"),
                           [raw](Machine&, std::span<const uint32_t> args) {
                             int code = static_cast<int>(args[0]);
                             raw->events.push_back(code);
                             if (raw->on_event) {
                               raw->on_event(code);
                             }
                             return 0u;
                           });
  RunResult init = kit->machine->Call(kit->build->init_function);
  if (!init.ok) {
    kit->error = "knit__init failed: " + init.error;
    return kit;
  }
  kit->engine = std::make_unique<ReconfigEngine>(*kit->build, *kit->machine, sources);
  return kit;
}

TEST(Reconfig, SwappableBuildRoutesCrossComponentCallsThroughSlots) {
  auto kit = BuildSwapKit();
  ASSERT_TRUE(kit->ok()) << kit->error;
  // Worker's export got a binding slot; the caller reaches it through it.
  bool worker_slot = false;
  for (const BindingSlot& slot : kit->build->image.bindings) {
    if (slot.component == "Top/Worker") {
      worker_slot = true;
      EXPECT_GE(slot.target, 0) << slot.symbol << " must be bound after linking";
    }
  }
  EXPECT_TRUE(worker_slot);
  EXPECT_EQ(kit->Call("a", "call_get"), 1u);
}

TEST(Reconfig, HotSwapChangesBehaviorKeepsNeighborStateAndFinalizesOldGeneration) {
  auto kit = BuildSwapKit();
  ASSERT_TRUE(kit->ok()) << kit->error;
  EXPECT_EQ(kit->events, std::vector<int>({1}));  // v1 initialized at startup

  EXPECT_EQ(kit->Call("a", "call_get"), 1u);
  EXPECT_EQ(kit->Call("a", "call_get"), 1u);
  EXPECT_EQ(kit->Call("a", "caller_count"), 2u);

  kit->events.clear();
  SwapReport report = kit->Swap(kWorkerV2, "worker_v2.c");
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(report.deferred);
  EXPECT_EQ(report.version, 1);
  EXPECT_GT(report.new_functions, 0);
  EXPECT_GT(report.rebound_slots, 0);
  EXPECT_GT(report.pause_cycles, 0);
  // The new generation initializes BEFORE the old one is finalized: the swap
  // only commits once the replacement is known-good.
  EXPECT_EQ(kit->events, std::vector<int>({2, 101}));

  // Behaviour switched at the binding slot; the caller's own state survived.
  EXPECT_EQ(kit->Call("a", "call_get"), 2u);
  EXPECT_EQ(kit->Call("a", "caller_count"), 3u);
  // The unversioned export symbol now resolves to the new generation too.
  EXPECT_EQ(kit->Call("o", "get"), 2u);
  EXPECT_EQ(kit->WorkerStatus(), 1u);
}

TEST(Reconfig, SwapBackRestoresOriginalBehavior) {
  auto kit = BuildSwapKit();
  ASSERT_TRUE(kit->ok()) << kit->error;
  ASSERT_TRUE(kit->Swap(kWorkerV2, "worker_v2.c").ok);
  EXPECT_EQ(kit->Call("a", "call_get"), 2u);

  kit->events.clear();
  SwapReport back = kit->Swap(kWorkerV1, "worker.c");
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.version, 2);
  // v1 (generation 3) initializes, then generation 2's finalizer runs.
  EXPECT_EQ(kit->events, std::vector<int>({1, 102}));
  EXPECT_EQ(kit->Call("a", "call_get"), 1u);
  EXPECT_EQ(kit->Call("o", "get"), 1u);
}

// A swap appends functions, which moves every native callable id; the engine
// shifts native references in the running code to match. A literal with the
// top bit set is not such a reference and must survive the swap unchanged.
TEST(Reconfig, SwapLeavesTopBitLiteralsInUnswappedCodeIntact) {
  auto kit = BuildSwapKit();
  ASSERT_TRUE(kit->ok()) << kit->error;
  EXPECT_EQ(kit->Call("a", "all_ones"), 0xFFFFFFFFu);
  SwapReport report = kit->Swap(kWorkerV2, "worker_v2.c");
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(kit->Call("a", "all_ones"), 0xFFFFFFFFu);
  EXPECT_EQ(kit->Call("a", "call_get"), 2u);
}

TEST(Reconfig, UnknownAndUnswappableInstancesFailCleanly) {
  auto kit = BuildSwapKit();
  ASSERT_TRUE(kit->ok()) << kit->error;
  SwapSpec spec;
  spec.instance = "Top/Nope";
  spec.source = kWorkerV2;
  SwapReport unknown = kit->engine->Request(spec);
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown instance"), std::string::npos) << unknown.error;

  // Caller exists but was not built swappable: no binding slots to retarget.
  spec.instance = "Top/Caller";
  spec.source = kCallerSource;
  SwapReport unswappable = kit->engine->Request(spec);
  EXPECT_FALSE(unswappable.ok);
  EXPECT_NE(unswappable.error.find("not built swappable"), std::string::npos)
      << unswappable.error;

  // A plain (non---swappable) build rejects even the Worker.
  auto plain = BuildSwapKit(kWorkerV1, /*swappable=*/false);
  ASSERT_TRUE(plain->ok()) << plain->error;
  SwapReport rejected = plain->Swap(kWorkerV2, "worker_v2.c");
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("not built swappable"), std::string::npos)
      << rejected.error;
}

// The replacement obeys the compile stage's instance contract: its source
// defines every export and initializer, defines no import, and leaves its
// exports global. Each violation is rejected before anything is rebound.
TEST(Reconfig, ReplacementViolatingTheInstanceContractIsRejected) {
  const struct {
    const char* name;
    const char* source;
    const char* expect_error;
  } kCases[] = {
      {"omits an export",
       "extern void ev(int code);\n"
       "int w_init(void) { return 0; }\n"
       "void w_fini(void) { }\n",
       "not define 'get' (the C name of export o.get)"},
      {"defines an import",
       "void ev(int code) { }\n"
       "int get(void) { return 9; }\n"
       "int w_init(void) { return 0; }\n"
       "void w_fini(void) { }\n",
       "'ev', which is the C name of import e.ev"},
      {"omits an initializer",
       "extern void ev(int code);\n"
       "int get(void) { return 9; }\n"
       "void w_fini(void) { }\n",
       "initializer/finalizer 'w_init'"},
      {"omits a finalizer",
       "extern void ev(int code);\n"
       "int get(void) { return 9; }\n"
       "int w_init(void) { return 0; }\n",
       "initializer/finalizer 'w_fini'"},
      {"declares an export static",
       "extern void ev(int code);\n"
       "static int get(void) { return 9; }\n"
       "int w_init(void) { return 0; }\n"
       "void w_fini(void) { }\n",
       "'Top_Worker__o_get"},
  };
  for (const auto& test_case : kCases) {
    SCOPED_TRACE(test_case.name);
    auto kit = BuildSwapKit();
    ASSERT_TRUE(kit->ok()) << kit->error;
    kit->events.clear();
    SwapReport report = kit->Swap(test_case.source, "worker_bad.c");
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.error.find(test_case.expect_error), std::string::npos) << report.error;
    EXPECT_TRUE(kit->events.empty()) << "no replacement initializer may run";
    EXPECT_EQ(kit->Call("a", "call_get"), 1u) << "old generation must keep serving";
    EXPECT_EQ(kit->Call("o", "get"), 1u);
  }
}

TEST(Reconfig, ReplacementMustKeepTheExportSignatures) {
  auto kit = BuildSwapKit();
  ASSERT_TRUE(kit->ok()) << kit->error;
  // get() drops its return value: every caller compiled against the old
  // signature would underflow its evaluation stack after the swap.
  SwapReport report = kit->Swap(
      "extern void ev(int code);\n"
      "void get(void) { }\n"
      "int w_init(void) { return 0; }\n"
      "void w_fini(void) { }\n",
      "worker_sig.c");
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("signature"), std::string::npos) << report.error;
  EXPECT_EQ(kit->Call("a", "call_get"), 1u) << "old generation must keep serving";
}

// The tentpole robustness property: EVERY swap-path injection point fails the
// swap, and after every failure the old instance still serves, neighbour state
// is intact, the status array is untouched, and a retry (fault cleared)
// succeeds.
TEST(Reconfig, EveryInjectionPointRollsBackToTheOldInstance) {
  const struct {
    const char* point;
    const char* expect_error;
  } kPoints[] = {
      {"swap-link", "swap-link"},
      {"swap-init", "swap-init"},
      {"swap-init-trap", "trapped"},
      {"swap-quiesce", "swap-quiesce"},
  };
  for (const auto& injection : kPoints) {
    SCOPED_TRACE(injection.point);
    auto kit = BuildSwapKit();
    ASSERT_TRUE(kit->ok()) << kit->error;
    EXPECT_EQ(kit->Call("a", "call_get"), 1u);

    FaultPlan plan;
    plan.swap_points.push_back(injection.point);
    kit->machine->set_fault_plan(plan);

    size_t functions_before = kit->build->image.functions.size();
    std::vector<BindingSlot> slots_before = kit->build->image.bindings;
    kit->events.clear();

    SwapReport report = kit->Swap(kWorkerV2, "worker_v2.c");
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.deferred);
    EXPECT_NE(report.error.find(injection.expect_error), std::string::npos)
        << report.error;

    // Exact rollback: slots untouched, old generation serving, neighbour state
    // and the instance status array undisturbed.
    ASSERT_EQ(kit->build->image.bindings.size(), slots_before.size());
    for (size_t s = 0; s < slots_before.size(); ++s) {
      EXPECT_EQ(kit->build->image.bindings[s].target, slots_before[s].target)
          << "slot " << kit->build->image.bindings[s].symbol;
    }
    EXPECT_EQ(kit->Call("a", "call_get"), 1u);
    EXPECT_EQ(kit->Call("o", "get"), 1u);
    EXPECT_EQ(kit->Call("a", "caller_count"), 2u);
    EXPECT_EQ(kit->WorkerStatus(), 1u);
    // The old finalizer must NOT have run on a failed swap.
    for (int event : kit->events) {
      EXPECT_NE(event, 101) << "old generation finalized by a FAILED swap";
    }
    // swap-link fails before compilation: no text appended at all.
    if (std::string(injection.point) == "swap-link") {
      EXPECT_EQ(kit->build->image.functions.size(), functions_before);
    }

    // Retry with the fault cleared: the swap goes through.
    kit->machine->ClearFaultPlan();
    SwapReport retry = kit->Swap(kWorkerV2, "worker_v2.c");
    ASSERT_TRUE(retry.ok) << retry.error;
    EXPECT_EQ(kit->Call("a", "call_get"), 2u);
  }
}

// Satellite: rollback idempotency. N consecutive injected init failures leave
// the status array and the machine's observable behaviour IDENTICAL each time
// (no double finalization, no symbol collisions between failed generations),
// and a clean swap afterwards still succeeds.
TEST(Reconfig, RepeatedInitFailuresAreIdempotent) {
  for (const char* point : {"swap-init", "swap-init-trap"}) {
    SCOPED_TRACE(point);
    auto kit = BuildSwapKit();
    ASSERT_TRUE(kit->ok()) << kit->error;

    FaultPlan plan;
    plan.swap_points.push_back(point);
    kit->machine->set_fault_plan(plan);

    std::vector<BindingSlot> slots_before = kit->build->image.bindings;
    constexpr int kAttempts = 3;
    for (int attempt = 1; attempt <= kAttempts; ++attempt) {
      SCOPED_TRACE("attempt " + std::to_string(attempt));
      kit->events.clear();
      SwapReport report = kit->Swap(kWorkerV2, "worker_v2.c");
      EXPECT_FALSE(report.ok);
      EXPECT_EQ(report.version, attempt) << "each attempt gets a fresh generation";
      EXPECT_EQ(kit->WorkerStatus(), 1u);
      ASSERT_EQ(kit->build->image.bindings.size(), slots_before.size());
      for (size_t s = 0; s < slots_before.size(); ++s) {
        EXPECT_EQ(kit->build->image.bindings[s].target, slots_before[s].target);
      }
      for (int event : kit->events) {
        EXPECT_NE(event, 101) << "failed attempt " << attempt << " ran the old finalizer";
        EXPECT_NE(event, 102) << "failed attempt " << attempt << " ran the new finalizer";
      }
      EXPECT_EQ(kit->Call("a", "call_get"), 1u);
    }

    kit->machine->ClearFaultPlan();
    kit->events.clear();
    SwapReport clean = kit->Swap(kWorkerV2, "worker_v2.c");
    ASSERT_TRUE(clean.ok) << clean.error;
    EXPECT_EQ(clean.version, kAttempts + 1);
    EXPECT_EQ(kit->events, std::vector<int>({2, 101}));
    EXPECT_EQ(kit->Call("a", "call_get"), 2u);
  }
}

// A request made while a frame is live INSIDE the target must defer — never
// tear a call mid-flight — and commit at the next Pump() once quiescent.
TEST(Reconfig, RequestDefersWhileTargetFrameIsLive) {
  auto kit = BuildSwapKit(kWorkerNoisy);
  ASSERT_TRUE(kit->ok()) << kit->error;

  SwapReport mid_flight;
  bool requested = false;
  kit->on_event = [&](int code) {
    if (code != 5 || requested) {
      return;  // only hook get()'s event, once
    }
    requested = true;
    // We are inside Worker::get right now: the machine must NOT be quiescent
    // for Worker (but is for Caller's neighbours' perspective to stay live).
    EXPECT_FALSE(kit->machine->ComponentQuiescent("Top/Worker"));
    mid_flight = kit->Swap(kWorkerV2, "worker_v2.c");
  };

  EXPECT_EQ(kit->Call("a", "call_get"), 1u) << "in-flight call completes on the OLD code";
  ASSERT_TRUE(requested);
  EXPECT_TRUE(mid_flight.deferred);
  EXPECT_FALSE(mid_flight.ok);
  EXPECT_TRUE(kit->engine->HasPending());

  // Back at a quiescent point: Pump retries and commits.
  EXPECT_EQ(kit->engine->Pump(), 1);
  EXPECT_FALSE(kit->engine->HasPending());
  const SwapReport& committed = kit->engine->last_report();
  ASSERT_TRUE(committed.ok) << committed.error;
  EXPECT_EQ(committed.deferred_packets, 1);
  EXPECT_EQ(kit->Call("a", "call_get"), 2u);
}

// ---------------------------------------------------------------------------
// Clack scenario: swap EVERY element of the modular router under traffic.
// ---------------------------------------------------------------------------

TEST(ReconfigClack, SwappableBuildForwardsIdenticallyToPlainBuild) {
  TraceOptions trace_options;
  trace_options.count = 200;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);
  TraceExpectation expect = ExpectationOf(trace);

  Diagnostics diags;
  KnitcOptions plain_options;
  plain_options.opt_level = 2;
  KnitPipeline plain_pipeline(plain_options);
  Result<RouterProgram> plain =
      RouterProgram::FromClack(plain_pipeline, "ClackRouter", diags);
  ASSERT_TRUE(plain.ok()) << diags.ToString();
  Result<RouterStats> plain_stats = plain.value().RunTrace(trace, diags);
  ASSERT_TRUE(plain_stats.ok()) << diags.ToString();

  KnitcOptions swappable_options = plain_options;
  swappable_options.swappable = {"*"};
  KnitPipeline swappable_pipeline(swappable_options);
  Result<RouterProgram> swappable =
      RouterProgram::FromClack(swappable_pipeline, "ClackRouter", diags);
  ASSERT_TRUE(swappable.ok()) << diags.ToString();
  EXPECT_FALSE(swappable.value().build()->image.bindings.empty())
      << "--swappable=* must create binding slots";
  Result<RouterStats> swappable_stats = swappable.value().RunTrace(trace, diags);
  ASSERT_TRUE(swappable_stats.ok()) << diags.ToString();

  // Binding-slot indirection is semantically invisible.
  EXPECT_EQ(swappable_stats.value().tx_hash, plain_stats.value().tx_hash);
  EXPECT_EQ(swappable_stats.value().tx_count, expect.tx);
  EXPECT_EQ(swappable_stats.value().out, expect.out);
  EXPECT_EQ(swappable_stats.value().drop, expect.drop);
}

TEST(ReconfigClack, SwapEveryElementUnderTrafficWithZeroDroppedPackets) {
  for (int opt_level : {1, 2}) {
    SCOPED_TRACE("-O" + std::to_string(opt_level));
    TraceOptions trace_options;
    trace_options.count = 240;
    std::vector<TracePacket> trace = GenerateTrace(trace_options);
    TraceExpectation expect = ExpectationOf(trace);

    KnitcOptions options;
    options.opt_level = opt_level;
    options.swappable = {"*"};
    Diagnostics diags;
    // One pipeline for both builds: the second is pure artifact-cache hits.
    KnitPipeline pipeline(options);

    // The no-swap reference run of the SAME build configuration.
    Result<RouterProgram> baseline = RouterProgram::FromClack(pipeline, "ClackRouter", diags);
    ASSERT_TRUE(baseline.ok()) << diags.ToString();
    Result<RouterStats> base = baseline.value().RunTrace(trace, diags);
    ASSERT_TRUE(base.ok()) << diags.ToString();
    ASSERT_EQ(base.value().tx_count, expect.tx);

    Result<RouterProgram> built = RouterProgram::FromClack(pipeline, "ClackRouter", diags);
    ASSERT_TRUE(built.ok()) << diags.ToString();
    RouterProgram& program = built.value();
    ReconfigEngine engine(*program.mutable_build(), program.machine(), ClackSources());

    // The swap run drives the program's RouterSession directly — the scenario
    // exercises the session-style lifecycle (feed range -> mid-stream snapshot
    // -> close) under live reconfiguration, not just the RunTrace wrapper.
    RouterSession& session = program.session();

    // Hot-swap every instance with a freshly compiled copy of its own source,
    // one instance every 8 packets, while the trace keeps flowing.
    const auto& instances = program.build()->config.instances;
    ASSERT_GT(instances.size(), 20u) << "ClackRouter should be fully modular";
    ASSERT_LT(4 + 8 * (instances.size() - 1), static_cast<size_t>(trace_options.count))
        << "trace too short to cover every instance";
    size_t next = 0;
    session.SetPacketHook([&](int packet) {
      engine.Pump();
      if (packet % 8 == 4 && next < instances.size()) {
        const auto& instance = instances[next++];
        SwapSpec spec;
        spec.instance = instance.path;
        spec.source_name = instance.unit->files[0];
        spec.source = ClackSources().at(spec.source_name);
        SwapReport report = engine.Request(spec);
        EXPECT_TRUE(report.ok || report.deferred)
            << instance.path << ": " << report.error;
      }
    });

    session.ResetStats();
    const size_t half = trace.size() / 2;
    ASSERT_TRUE(session.FeedRange(trace, 0, half, diags).ok()) << diags.ToString();

    // A mid-stream snapshot must see exactly the packets fed so far, and must
    // not disturb the stream: feeding continues afterwards.
    Result<RouterStats> mid = session.Snapshot(diags);
    ASSERT_TRUE(mid.ok()) << diags.ToString();
    EXPECT_EQ(mid.value().packets, static_cast<int>(half));

    ASSERT_TRUE(session.FeedRange(trace, half, trace.size(), diags).ok())
        << diags.ToString();
    Result<RouterStats> run = session.Close(diags);
    ASSERT_TRUE(run.ok()) << diags.ToString();
    EXPECT_TRUE(session.closed());
    EXPECT_EQ(next, instances.size()) << "every element must be swapped";
    EXPECT_FALSE(engine.HasPending());
    ASSERT_EQ(engine.reports().size(), instances.size());
    for (const SwapReport& report : engine.reports()) {
      EXPECT_TRUE(report.ok) << report.error;
    }

    // Zero dropped packets: every packet was processed, and every transmission
    // of the no-swap run happened byte-identically and in order.
    EXPECT_EQ(run.value().packets, trace_options.count);
    EXPECT_EQ(run.value().tx_count, base.value().tx_count);
    EXPECT_EQ(run.value().tx_hash, base.value().tx_hash);
  }
}

// Pins the exact image a swap produces: the replacement's compile, rename map,
// localization and append into the running image are all reflected in the
// fingerprint, so any change to how replacements are built shows up here.
TEST(ReconfigClack, OneElementSwapProducesAPinnedImage) {
  KnitcOptions options;
  options.opt_level = 1;
  options.swappable = {"*"};
  Diagnostics diags;
  KnitPipeline pipeline(options);
  Result<RouterProgram> built = RouterProgram::FromClack(pipeline, "ClackRouter", diags);
  ASSERT_TRUE(built.ok()) << diags.ToString();
  RouterProgram& program = built.value();
  ReconfigEngine engine(*program.mutable_build(), program.machine(), ClackSources());

  const Instance& instance = program.build()->config.instances[1];
  SwapSpec spec;
  spec.instance = instance.path;
  spec.source_name = instance.unit->files[0];
  spec.source = ClackSources().at(spec.source_name);
  SwapReport report = engine.Request(spec);
  ASSERT_TRUE(report.ok) << instance.path << ": " << report.error;
  EXPECT_EQ(FingerprintImage(program.build()->image), 11300502449152338307ull) << instance.path;
}

// ---------------------------------------------------------------------------
// Allocator hot-swap: ClackAllocRouter's heap provider is an ordinary swappable
// instance. Swapping alloc_freelist -> alloc_bump mid-trace must be invisible
// in the transmitted bytes (PayloadScratch forwards packets unchanged whichever
// allocator — or allocation failure — serves it).
// ---------------------------------------------------------------------------

TEST(ReconfigClack, SwapFreelistToBumpMidTraceKeepsTxHashByteIdentical) {
  TraceOptions trace_options;
  trace_options.count = 240;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);
  TraceExpectation expect = ExpectationOf(trace);

  KnitcOptions options;
  options.swappable = {"ClackAllocRouter/AllocFreelist"};
  Diagnostics diags;
  KnitPipeline pipeline(options);

  Result<RouterProgram> baseline =
      RouterProgram::FromClack(pipeline, "ClackAllocRouter", diags);
  ASSERT_TRUE(baseline.ok()) << diags.ToString();
  Result<RouterStats> base = baseline.value().RunTrace(trace, diags);
  ASSERT_TRUE(base.ok()) << diags.ToString();
  ASSERT_EQ(base.value().tx_count, expect.tx);

  Result<RouterProgram> built = RouterProgram::FromClack(pipeline, "ClackAllocRouter", diags);
  ASSERT_TRUE(built.ok()) << diags.ToString();
  RouterProgram& program = built.value();
  ReconfigEngine engine(*program.mutable_build(), program.machine(), ClackSources());

  bool swapped = false;
  program.SetPacketHook([&](int packet) {
    engine.Pump();
    if (packet == 100 && !swapped) {
      swapped = true;
      SwapSpec spec;
      spec.instance = "ClackAllocRouter/AllocFreelist";
      spec.source_name = "alloc_bump.c";
      spec.source = ClackSources().at("alloc_bump.c");
      SwapReport report = engine.Request(spec);
      EXPECT_TRUE(report.ok || report.deferred) << report.error;
    }
  });

  Result<RouterStats> run = program.RunTrace(trace, diags);
  ASSERT_TRUE(run.ok()) << diags.ToString();
  ASSERT_TRUE(swapped);
  EXPECT_FALSE(engine.HasPending());
  ASSERT_EQ(engine.reports().size(), 1u);
  EXPECT_TRUE(engine.reports()[0].ok) << engine.reports()[0].error;

  EXPECT_EQ(run.value().packets, trace_options.count);
  EXPECT_EQ(run.value().tx_count, base.value().tx_count);
  EXPECT_EQ(run.value().tx_hash, base.value().tx_hash);
  EXPECT_EQ(run.value().out, expect.out);
  EXPECT_EQ(run.value().drop, expect.drop);
}

// Regression guard: a replacement allocator that allocates MORE than its
// predecessor (alloc_buddy grabs a fresh 256 KB region in its initializer, on
// the live machine's heap) must neither corrupt neighbouring heap state nor
// change the tx hash. Heap growth is append-only by construction (Sbrk is
// monotonic), and this test pins that down.
TEST(ReconfigClack, SwappedInAllocatorGrowingTheHeapLeavesNeighborsIntact) {
  TraceOptions trace_options;
  trace_options.count = 200;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);

  KnitcOptions options;
  options.swappable = {"ClackAllocRouter/AllocFreelist"};
  Diagnostics diags;
  KnitPipeline pipeline(options);

  Result<RouterProgram> baseline =
      RouterProgram::FromClack(pipeline, "ClackAllocRouter", diags);
  ASSERT_TRUE(baseline.ok()) << diags.ToString();
  Result<RouterStats> base = baseline.value().RunTrace(trace, diags);
  ASSERT_TRUE(base.ok()) << diags.ToString();

  Result<RouterProgram> built = RouterProgram::FromClack(pipeline, "ClackAllocRouter", diags);
  ASSERT_TRUE(built.ok()) << diags.ToString();
  RouterProgram& program = built.value();
  Machine& machine = program.machine();
  ReconfigEngine engine(*program.mutable_build(), program.machine(), ClackSources());

  // Neighbouring heap state: a host-owned region carved from the same heap the
  // replacement's init will grow past. Any overlap shows up as a torn pattern.
  const uint32_t kSentinelBytes = 4096;
  uint32_t sentinel = machine.Sbrk(kSentinelBytes);
  ASSERT_NE(sentinel, 0u);
  for (uint32_t i = 0; i < kSentinelBytes; ++i) {
    machine.WriteByte(sentinel + i, static_cast<uint8_t>(0xA5 ^ (i & 0xFF)));
  }

  uint32_t heap_before_swap = machine.heap_end();
  bool swapped = false;
  program.SetPacketHook([&](int packet) {
    engine.Pump();
    if (packet == 60 && !swapped) {
      swapped = true;
      SwapSpec spec;
      spec.instance = "ClackAllocRouter/AllocFreelist";
      spec.source_name = "alloc_buddy.c";
      spec.source = ClackSources().at("alloc_buddy.c");
      SwapReport report = engine.Request(spec);
      EXPECT_TRUE(report.ok || report.deferred) << report.error;
    }
  });

  Result<RouterStats> run = program.RunTrace(trace, diags);
  ASSERT_TRUE(run.ok()) << diags.ToString();
  ASSERT_TRUE(swapped);
  ASSERT_EQ(engine.reports().size(), 1u);
  ASSERT_TRUE(engine.reports()[0].ok) << engine.reports()[0].error;

  // The replacement really did grow the heap (buddy's 256 KB region + its
  // placed data), past where the sentinel lives.
  EXPECT_GE(machine.heap_end(), heap_before_swap + (256u << 10));
  for (uint32_t i = 0; i < kSentinelBytes; ++i) {
    ASSERT_EQ(machine.ReadByte(sentinel + i), static_cast<uint8_t>(0xA5 ^ (i & 0xFF)))
        << "sentinel byte " << i << " corrupted by the swapped-in allocator";
  }
  EXPECT_EQ(run.value().tx_count, base.value().tx_count);
  EXPECT_EQ(run.value().tx_hash, base.value().tx_hash);
}

}  // namespace
}  // namespace knit
