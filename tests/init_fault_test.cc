// Fault-tolerant initialization (the robustness counterpart of paper §3.2): for
// EVERY possible failure point in a multi-instance configuration, the generated
// rollback must finalize exactly the already-initialized instances, in finalizer-
// schedule order, exactly once — and a retry after clearing the fault must succeed.
// Also covers the fuel limit (runaway initializers trap instead of hanging) and the
// Knit-level failure reporting (component paths, not raw VM symbols).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/driver/knitc.h"
#include "src/support/mangle.h"
#include "src/vm/machine.h"
#include "tests/knit_testutil.h"

namespace knit {
namespace {

constexpr int kChainLength = 5;
constexpr uint32_t kInitOk = 0xFFFFFFFFu;  // knit__init's -1 success return

// A linear chain of kChainLength units, each with one initializer and one
// finalizer, every one reporting to the environment's event log:
//   init of unit i logs i (1-based); fini of unit i logs 100 + i.
// Dependencies force init order U1..U5 and fini order U5..U1.
std::string ChainKnit() {
  std::string text = "bundletype Event = { ev }\n";
  for (int i = 1; i <= kChainLength; ++i) {
    text += "bundletype S" + std::to_string(i) + " = { f" + std::to_string(i) + " }\n";
  }
  for (int i = 1; i <= kChainLength; ++i) {
    std::string n = std::to_string(i);
    text += "unit U" + n + " = {\n";
    if (i == 1) {
      text += "  imports [ e : Event ];\n";
    } else {
      text += "  imports [ prev : S" + std::to_string(i - 1) + ", e : Event ];\n";
    }
    text += "  exports [ o : S" + n + " ];\n";
    text += "  initializer u" + n + "_init for o;\n";
    text += "  finalizer u" + n + "_fini for o;\n";
    if (i == 1) {
      text += "  depends { u1_init needs e; u1_fini needs e; o needs e; };\n";
    } else {
      text += "  depends { u" + n + "_init needs prev; u" + n + "_fini needs prev; " +
              "o needs (prev + e); };\n";
    }
    text += "  files { \"u" + n + ".c\" };\n";
    text += "}\n";
  }
  text += "unit Chain = {\n  imports [ e : Event ];\n  exports [ o : S" +
          std::to_string(kChainLength) + " ];\n  link {\n";
  for (int i = 1; i <= kChainLength; ++i) {
    std::string n = std::to_string(i);
    std::string out = i == kChainLength ? "o" : "o" + n;
    std::string inputs = i == 1 ? "e" : "o" + std::to_string(i - 1) + ", e";
    text += "    [" + out + "] <- U" + n + " <- [" + inputs + "];\n";
  }
  text += "  };\n}\n";
  return text;
}

SourceMap ChainSources() {
  SourceMap sources;
  for (int i = 1; i <= kChainLength; ++i) {
    std::string n = std::to_string(i);
    sources["u" + n + ".c"] = "extern void ev(int code);\n"
                              "void f" + n + "(void) { }\n"
                              "int u" + n + "_init(void) { ev(" + n + "); return 0; }\n"
                              "void u" + n + "_fini(void) { ev(" + std::to_string(100 + i) +
                              "); }\n";
  }
  return sources;
}

struct ChainProgram {
  std::unique_ptr<KnitBuildResult> build;
  std::unique_ptr<Machine> machine;
  std::vector<int> events;  // init logs i; fini logs 100 + i
  std::string error;

  bool ok() const { return machine != nullptr; }

  RunResult TryInit() { return machine->Call(build->init_function); }
  RunResult Rollback() { return machine->Call(build->rollback_function); }

  uint32_t StatusOf(int instance) {
    uint32_t base = build->image.data_symbols.at(build->status_symbol);
    return machine->ReadWord(base + static_cast<uint32_t>(instance) * 4);
  }
  int32_t Failed() {
    return static_cast<int32_t>(
        machine->ReadWord(build->image.data_symbols.at(build->failed_symbol)));
  }
};

ChainProgram BuildChain() {
  ChainProgram program;
  Diagnostics diags;
  Result<KnitBuildResult> build =
      KnitBuild(ChainKnit(), ChainSources(), "Chain", KnitcOptions(), diags);
  if (!build.ok()) {
    program.error = diags.ToString();
    return program;
  }
  program.build = std::make_unique<KnitBuildResult>(std::move(build.value()));
  program.machine = std::make_unique<Machine>(program.build->image);
  ChainProgram* raw = &program;
  program.machine->BindNative(EnvSymbol("e", "ev"),
                              [raw](Machine&, std::span<const uint32_t> args) {
                                raw->events.push_back(static_cast<int>(args[0]));
                                return 0u;
                              });
  return program;
}

// The mangled link name of the k-th scheduled initializer.
std::string InitSymbolAt(const KnitBuildResult& build, int k) {
  const InitCall& call = build.schedule.initializers[k];
  return MangleInitFini(build.config.instances[call.instance].path, call.function);
}

std::vector<int> InitEventsUpTo(int k) {  // {1, .., k}
  std::vector<int> events;
  for (int i = 1; i <= k; ++i) {
    events.push_back(i);
  }
  return events;
}

std::vector<int> RollbackEventsFrom(int k) {  // {100+k, .., 101}
  std::vector<int> events;
  for (int i = k; i >= 1; --i) {
    events.push_back(100 + i);
  }
  return events;
}

TEST(InitFault, HappyPathInitializesEverythingInOrder) {
  ChainProgram program = BuildChain();
  ASSERT_TRUE(program.ok()) << program.error;
  ASSERT_EQ(program.build->schedule.initializers.size(), static_cast<size_t>(kChainLength));
  EXPECT_EQ(program.build->rollback_function, "knit__rollback");
  ASSERT_EQ(program.build->instance_paths.size(), static_cast<size_t>(kChainLength));

  RunResult init = program.TryInit();
  ASSERT_TRUE(init.ok) << init.error;
  EXPECT_EQ(init.value, kInitOk);
  EXPECT_EQ(program.build->FailingInstance(init), -1);
  EXPECT_EQ(program.events, InitEventsUpTo(kChainLength));
  for (int i = 0; i < kChainLength; ++i) {
    EXPECT_EQ(program.StatusOf(i), 1u) << "instance " << i;
  }
  EXPECT_EQ(program.Failed(), -1);

  program.events.clear();
  RunResult fini = program.machine->Call(program.build->fini_function);
  ASSERT_TRUE(fini.ok) << fini.error;
  EXPECT_EQ(program.events, RollbackEventsFrom(kChainLength));
  for (int i = 0; i < kChainLength; ++i) {
    EXPECT_EQ(program.StatusOf(i), 0u) << "statuses reset after fini";
  }
}

// The tentpole property: inject a TRAP into every initializer in turn. Exactly the
// already-initialized instances must be finalized by rollback, in reverse order,
// exactly once; the backtrace must name the failing initializer; and a retry after
// clearing the fault must succeed.
TEST(InitFault, EveryTrapInjectionPointRollsBackExactlyTheInitializedInstances) {
  for (int k = 0; k < kChainLength; ++k) {
    SCOPED_TRACE("injection point " + std::to_string(k));
    ChainProgram program = BuildChain();
    ASSERT_TRUE(program.ok()) << program.error;
    std::string symbol = InitSymbolAt(*program.build, k);
    int expected_instance = program.build->schedule.initializers[k].instance;

    FaultPlan plan;
    plan.injections.push_back(FaultInjection{symbol, 1, /*trap=*/true, 0});
    program.machine->set_fault_plan(plan);

    RunResult init = program.TryInit();
    ASSERT_FALSE(init.ok);
    EXPECT_NE(init.error.find("fault injected"), std::string::npos) << init.error;
    EXPECT_NE(init.error.find(symbol), std::string::npos)
        << "backtrace must name the failing initializer: " << init.error;
    ASSERT_FALSE(init.backtrace.empty());
    EXPECT_EQ(init.backtrace.front().substr(0, symbol.size()), symbol);
    EXPECT_EQ(program.build->FailingInstance(init), expected_instance);

    // Exactly the first k initializers ran; the failing instance is recorded.
    EXPECT_EQ(program.events, InitEventsUpTo(k));
    EXPECT_EQ(program.Failed(), expected_instance);

    // Knit-level reporting names the component path, not just the VM symbol.
    Diagnostics diags;
    EXPECT_EQ(program.build->ReportInitFailure(init, diags), expected_instance);
    EXPECT_NE(diags.ToString().find(program.build->instance_paths[expected_instance]),
              std::string::npos)
        << diags.ToString();

    // Rollback finalizes exactly the initialized instances, in reverse order.
    program.events.clear();
    RunResult rollback = program.Rollback();
    ASSERT_TRUE(rollback.ok) << rollback.error;
    EXPECT_EQ(program.events, RollbackEventsFrom(k));
    for (int i = 0; i < kChainLength; ++i) {
      EXPECT_EQ(program.StatusOf(i), 0u) << "instance " << i << " after rollback";
    }
    EXPECT_EQ(program.Failed(), -1);

    // A second rollback must not finalize anything again ("exactly once").
    program.events.clear();
    ASSERT_TRUE(program.Rollback().ok);
    EXPECT_TRUE(program.events.empty()) << "rollback must be idempotent";

    // Retry with the fault cleared: full clean startup.
    program.machine->ClearFaultPlan();
    program.events.clear();
    RunResult retry = program.TryInit();
    ASSERT_TRUE(retry.ok) << retry.error;
    EXPECT_EQ(retry.value, kInitOk);
    EXPECT_EQ(program.events, InitEventsUpTo(kChainLength));
  }
}

// Same property for the failure mode where an initializer *reports* failure by
// returning nonzero: the generated knit__init must roll back itself and return the
// failing instance index.
TEST(InitFault, EveryStatusFailureInjectionPointRollsBackAndReportsTheInstance) {
  for (int k = 0; k < kChainLength; ++k) {
    SCOPED_TRACE("injection point " + std::to_string(k));
    ChainProgram program = BuildChain();
    ASSERT_TRUE(program.ok()) << program.error;
    std::string symbol = InitSymbolAt(*program.build, k);
    int expected_instance = program.build->schedule.initializers[k].instance;

    FaultPlan plan;
    plan.injections.push_back(FaultInjection{symbol, 1, /*trap=*/false, 7});
    program.machine->set_fault_plan(plan);

    RunResult init = program.TryInit();
    ASSERT_TRUE(init.ok) << init.error;  // no trap: knit__init returned normally
    EXPECT_EQ(init.value, static_cast<uint32_t>(expected_instance));
    EXPECT_EQ(program.build->FailingInstance(init), expected_instance);

    // knit__init already rolled back: inits 1..k then finis k..1, statuses clear.
    std::vector<int> expected = InitEventsUpTo(k);
    for (int event : RollbackEventsFrom(k)) {
      expected.push_back(event);
    }
    EXPECT_EQ(program.events, expected);
    for (int i = 0; i < kChainLength; ++i) {
      EXPECT_EQ(program.StatusOf(i), 0u) << "instance " << i << " after rollback";
    }

    Diagnostics diags;
    EXPECT_EQ(program.build->ReportInitFailure(init, diags), expected_instance);
    EXPECT_NE(diags.ToString().find(program.build->instance_paths[expected_instance]),
              std::string::npos)
        << diags.ToString();

    program.machine->ClearFaultPlan();
    program.events.clear();
    RunResult retry = program.TryInit();
    ASSERT_TRUE(retry.ok) << retry.error;
    EXPECT_EQ(retry.value, kInitOk);
    EXPECT_EQ(program.events, InitEventsUpTo(kChainLength));
  }
}

TEST(InitFault, SecondInvocationInjectionSparesTheFirstRun) {
  ChainProgram program = BuildChain();
  ASSERT_TRUE(program.ok()) << program.error;
  std::string symbol = InitSymbolAt(*program.build, 2);

  FaultPlan plan;
  plan.injections.push_back(FaultInjection{symbol, 2, /*trap=*/true, 0});
  program.machine->set_fault_plan(plan);

  ASSERT_TRUE(program.TryInit().ok);  // first invocation untouched
  ASSERT_TRUE(program.machine->Call(program.build->fini_function).ok);

  program.events.clear();
  RunResult second = program.TryInit();
  ASSERT_FALSE(second.ok);
  EXPECT_NE(second.error.find("fault injected"), std::string::npos) << second.error;
  EXPECT_EQ(program.events, InitEventsUpTo(2));
}

// A deliberately looping initializer must exhaust fuel and trap cleanly — with a
// backtrace naming it — instead of hanging the harness.
TEST(InitFault, FuelExhaustionTerminatesLoopingInitializer) {
  const std::string knit_text =
      "bundletype T = { f }\n"
      "unit Looper = {\n"
      "  imports [];\n"
      "  exports [ o : T ];\n"
      "  initializer loop_init for o;\n"
      "  finalizer loop_fini for o;\n"
      "  files { \"loop.c\" };\n"
      "}\n"
      "unit Top = {\n"
      "  imports [];\n"
      "  exports [ o : T ];\n"
      "  link { [o] <- Looper <- []; };\n"
      "}\n";
  SourceMap sources;
  sources["loop.c"] =
      "void f(void) { }\n"
      "int loop_init(void) { while (1) { } return 0; }\n"
      "void loop_fini(void) { }\n";
  Diagnostics diags;
  Result<KnitBuildResult> build = KnitBuild(knit_text, sources, "Top", KnitcOptions(), diags);
  ASSERT_TRUE(build.ok()) << diags.ToString();

  Machine machine(build.value().image);
  machine.set_max_insns(50'000);
  RunResult init = machine.Call(build.value().init_function);
  ASSERT_FALSE(init.ok);
  EXPECT_NE(init.error.find("fuel exhausted"), std::string::npos) << init.error;
  std::string loop_symbol = MangleInitFini("Top/Looper", "loop_init");
  EXPECT_NE(init.error.find(loop_symbol), std::string::npos) << init.error;
  EXPECT_EQ(build.value().FailingInstance(init), 0);

  // The trap unwound cleanly: with the budget refilled, the machine still executes
  // (rollback runs nothing — the looping instance never finished initializing).
  machine.ResetCounters();
  RunResult rollback = machine.Call(build.value().rollback_function);
  EXPECT_TRUE(rollback.ok) << rollback.error;
}

// WebKernel (the paper's Figure-6 configuration): failing the LAST initializer
// (open_log) must roll back without running close_log — Log never initialized —
// and without disturbing the instances that have no finalizers; a retry succeeds
// end to end.
TEST(InitFault, WebKernelOpenLogFailureRollsBackAndRetries) {
  KernelProgram program = BuildKernel("WebKernel");
  ASSERT_TRUE(program.ok()) << program.error;
  const KnitBuildResult& build = *program.build;
  ASSERT_FALSE(build.rollback_function.empty());

  // Locate the open_log initializer in the schedule.
  std::string open_log_symbol;
  int log_instance = -1;
  for (const InitCall& call : build.schedule.initializers) {
    if (call.function == "open_log") {
      log_instance = call.instance;
      open_log_symbol = MangleInitFini(build.config.instances[call.instance].path,
                                       call.function);
    }
  }
  ASSERT_GE(log_instance, 0);

  FaultPlan plan;
  plan.injections.push_back(FaultInjection{open_log_symbol, 1, /*trap=*/true, 0});
  program.machine->set_fault_plan(plan);

  RunResult init = program.TryInit();
  ASSERT_FALSE(init.ok);
  EXPECT_EQ(build.FailingInstance(init), log_instance);
  Diagnostics diags;
  build.ReportInitFailure(init, diags);
  EXPECT_NE(diags.ToString().find(build.instance_paths[log_instance]), std::string::npos)
      << diags.ToString();

  std::string console_before = program.machine->console();
  RunResult rollback = program.Rollback();
  ASSERT_TRUE(rollback.ok) << rollback.error;
  // close_log (the only finalizer) is guarded by Log's status, which never became
  // "initialized" — rollback must not run it.
  EXPECT_EQ(program.machine->console(), console_before);

  program.machine->ClearFaultPlan();
  program.Init();
  program.CallExport("serve", "serve_web", {7, WriteString(*program.machine, "/index.html")});
  program.Fini();
}

// Disabling failsafe init falls back to the paper's monolithic call sequence with
// no rollback entry point.
TEST(InitFault, MonolithicModeHasNoRollback) {
  KnitcOptions options;
  options.failsafe_init = false;
  KernelProgram program = BuildKernel("WebKernel", options);
  ASSERT_TRUE(program.ok()) << program.error;
  EXPECT_TRUE(program.build->rollback_function.empty());
  EXPECT_EQ(program.build->image.FindFunction("knit__rollback"), -1);
  program.Init();
  program.Fini();
}

}  // namespace
}  // namespace knit
