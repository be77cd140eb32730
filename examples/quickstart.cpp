// Quickstart: the paper's running example (Figures 2-6), end to end.
//
// Builds the LogServe web server — the Web unit dispatching to file/CGI servers,
// wrapped by the Log unit that interposes on serve_web and writes "ServerLog"
// through stdio over an in-memory file system — runs it on the VM, and shows the
// automatically scheduled initialization order and the log contents.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "src/driver/knitc.h"
#include "src/oskit/corpus.h"
#include "src/support/mangle.h"
#include "src/vm/machine.h"

using namespace knit;

namespace {

uint32_t PutString(Machine& machine, const std::string& text) {
  uint32_t address = machine.Sbrk(static_cast<uint32_t>(text.size()) + 1);
  for (size_t i = 0; i < text.size(); ++i) {
    machine.WriteByte(address + static_cast<uint32_t>(i), static_cast<uint8_t>(text[i]));
  }
  machine.WriteByte(address + static_cast<uint32_t>(text.size()), 0);
  return address;
}

}  // namespace

int main() {
  // 1. Build the WebKernel configuration through the staged pipeline, one phase at
  //    a time: parse the Knit declarations, elaborate + instantiate, schedule
  //    initializers, check constraints, compile every unit (objcopy-rename per
  //    instance), and ld-link. Each stage returns a plain artifact that can be
  //    inspected — here we print the init order as soon as Schedule produces it,
  //    before a single unit compiles.
  Diagnostics diags;
  KnitPipeline pipeline;
  Result<ParsedProgram> parsed = pipeline.Parse(OskitKnit(), diags);
  Result<ElaboratedConfig> elaborated =
      parsed.ok() ? pipeline.Elaborate(parsed.value(), "WebKernel", diags)
                  : Result<ElaboratedConfig>::Failure();
  Result<ScheduledConfig> scheduled = elaborated.ok()
                                          ? pipeline.Schedule(elaborated.value(), diags)
                                          : Result<ScheduledConfig>::Failure();
  if (!scheduled.ok()) {
    std::fprintf(stderr, "build failed:\n%s", diags.ToString().c_str());
    return 1;
  }

  std::printf("automatically scheduled initialization order:\n");
  for (const InitCall& call : scheduled.value().schedule->initializers) {
    const Configuration& config = *scheduled.value().elaborated.config;
    std::printf("  %s.%s()\n", config.instances[call.instance].path.c_str(),
                call.function.c_str());
  }

  Result<CheckedConfig> checked = pipeline.Check(scheduled.value(), diags);
  Result<CompiledUnits> compiled =
      checked.ok() ? pipeline.Compile(checked.value(), OskitSources(), diags)
                   : Result<CompiledUnits>::Failure();
  Result<LinkedImage> linked = compiled.ok() ? pipeline.Link(compiled.value(), diags)
                                             : Result<LinkedImage>::Failure();
  if (!linked.ok()) {
    std::fprintf(stderr, "build failed:\n%s", diags.ToString().c_str());
    return 1;
  }
  KnitBuildResult kernel = KnitBuildResultFrom(linked.take(), pipeline.metrics());

  std::printf("\nbuilt WebKernel: %d unit instances, %d objects, %d bytes of text\n",
              kernel.stats.instance_count, kernel.stats.object_count,
              kernel.image.text_bytes);

  // 2. Load the image; the environment supplies the raw console.
  Machine machine(kernel.image);
  machine.BindNative(EnvSymbol("raw", "raw_putc"),
                     [](Machine&, std::span<const uint32_t> args) {
                       if (!args.empty()) {
                         std::fputc(static_cast<char>(args[0] & 0xFF), stdout);
                       }
                       return 0u;
                     });
  machine.Call(kernel.init_function);

  // 3. Create /index.html in the memfs, then serve some URLs through the exported
  //    (logged) serve_web.
  std::string page = "<html>hello from knit</html>";
  uint32_t path = PutString(machine, "/index.html");
  uint32_t fd = machine.Call(kernel.ExportedSymbol("fs", "fs_open"), {path, 1}).value;
  uint32_t content = PutString(machine, page);
  machine.Call(kernel.ExportedSymbol("fs", "fs_write"),
               {fd, 0, content, static_cast<uint32_t>(page.size())});

  std::printf("\nserving requests:\n");
  std::string serve = kernel.ExportedSymbol("serve", "serve_web");
  machine.Call(serve, {1, PutString(machine, "/index.html")});
  machine.Call(serve, {1, PutString(machine, "/cgi-bin/status")});
  machine.Call(serve, {1, PutString(machine, "/missing.html")});

  // 4. Finalize (close_log runs first, while stdio is still usable) and read the
  //    log the interposing Log unit wrote.
  machine.Call(kernel.fini_function);
  uint32_t log_path = PutString(machine, "ServerLog");
  uint32_t log_fd = machine.Call(kernel.ExportedSymbol("fs", "fs_open"), {log_path, 0}).value;
  uint32_t size = machine.Call(kernel.ExportedSymbol("fs", "fs_size"), {log_fd}).value;
  uint32_t buffer = machine.Sbrk(size + 1);
  machine.Call(kernel.ExportedSymbol("fs", "fs_read"), {log_fd, 0, buffer, size});
  std::printf("\nServerLog (written by the interposed Log unit):\n%s\n",
              machine.ReadCString(buffer, size).c_str());
  return 0;
}
