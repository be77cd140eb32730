// Helpers for tests that build whole Knit programs (mini-OSKit / Clack corpora)
// and run them on the VM.
#ifndef TESTS_KNIT_TESTUTIL_H_
#define TESTS_KNIT_TESTUTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/driver/knitc.h"
#include "src/oskit/corpus.h"
#include "src/support/mangle.h"
#include "src/vm/machine.h"

namespace knit {

// Writes a NUL-terminated string into VM heap memory; returns its address.
inline uint32_t WriteString(Machine& machine, const std::string& text) {
  uint32_t address = machine.Sbrk(static_cast<uint32_t>(text.size()) + 1);
  for (size_t i = 0; i < text.size(); ++i) {
    machine.WriteByte(address + static_cast<uint32_t>(i), static_cast<uint8_t>(text[i]));
  }
  machine.WriteByte(address + static_cast<uint32_t>(text.size()), 0);
  return address;
}

// A built-and-loaded Knit program with the standard mini-OSKit environment bound
// (env raw console -> Machine::console()).
struct KernelProgram {
  std::unique_ptr<KnitBuildResult> build;
  std::unique_ptr<Machine> machine;
  std::string error;

  bool ok() const { return machine != nullptr; }

  // Calls an exported symbol of the top-level unit.
  uint32_t CallExport(const std::string& port, const std::string& symbol,
                      std::vector<uint32_t> args = {}) {
    std::string name = build->ExportedSymbol(port, symbol);
    EXPECT_FALSE(name.empty()) << "no export " << port << "." << symbol;
    RunResult result = machine->Call(name, std::move(args));
    EXPECT_TRUE(result.ok) << port << "." << symbol << ": " << result.error;
    return result.value;
  }

  void Init() {
    RunResult result = TryInit();
    EXPECT_TRUE(result.ok) << "knit__init: " << result.error;
    EXPECT_EQ(build->FailingInstance(result), -1)
        << "knit__init reported a failing instance: " << result.value;
  }

  void Fini() {
    RunResult result = machine->Call(build->fini_function);
    EXPECT_TRUE(result.ok) << "knit__fini: " << result.error;
  }

  // Raw init attempt: callers inspect RunResult / FailingInstance themselves.
  RunResult TryInit() { return machine->Call(build->init_function); }

  // Runs the generated rollback entry point (failsafe init only): finalizes the
  // already-initialized instances and resets progress so TryInit can be retried.
  RunResult Rollback() {
    EXPECT_FALSE(build->rollback_function.empty()) << "failsafe init is disabled";
    return machine->Call(build->rollback_function);
  }

  // Reads instance i's completed-initializer count from the VM's status array.
  uint32_t StatusOf(int instance) {
    uint32_t base = build->image.data_symbols.at(build->status_symbol);
    return machine->ReadWord(base + static_cast<uint32_t>(instance) * 4);
  }
};

inline KernelProgram BuildKernel(const std::string& top_unit,
                               const KnitcOptions& options = KnitcOptions()) {
  KernelProgram program;
  Diagnostics diags;
  Result<KnitBuildResult> build =
      KnitBuild(OskitKnit(), OskitSources(), top_unit, options, diags);
  if (!build.ok()) {
    program.error = diags.ToString();
    return program;
  }
  program.build = std::make_unique<KnitBuildResult>(std::move(build.value()));
  program.machine = std::make_unique<Machine>(program.build->image);
  // The environment's raw console feeds the machine's console buffer.
  program.machine->BindNative(EnvSymbol("raw", "raw_putc"),
                              [](Machine& m, std::span<const uint32_t> args) {
                                if (!args.empty()) {
                                  m.AppendConsole(static_cast<char>(args[0] & 0xFF));
                                }
                                return 0u;
                              });
  return program;
}

}  // namespace knit

#endif  // TESTS_KNIT_TESTUTIL_H_
