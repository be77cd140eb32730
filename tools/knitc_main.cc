// knitc: command-line front end to the staged Knit pipeline (src/driver/pipeline.h).
//
//   knitc build --knit=app.knit --src=dir --top=App [options]
//   knitc run   --knit=app.knit --top=App --run=PORT.SYMBOL
//   knitc swap  --knit=app.knit --top=App --run=PORT.SYMBOL --swap=INSTANCE:FILE
//   knitc serve --clack [--shards=N --batch=K --packets=N]
//
// Reads the Knit declarations and every *.c / *.h file under --src into the
// virtual file system, runs the pipeline stage by stage (parse, elaborate,
// schedule, check, compile, link), and optionally runs an exported function on
// the VM or serves a packet trace on a sharded router fleet.
//
// Environment imports of the top unit are auto-bound: natives whose name ends in
// "putc" write to stdout; everything else logs its invocation.
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/clack/corpus.h"
#include "src/clack/trace.h"
#include "src/driver/knitc.h"
#include "src/oskit/alloc_corpus.h"
#include "src/knitlang/parser.h"
#include "src/knitlang/printer.h"
#include "src/reconfig/reconfig.h"
#include "src/serve/serve.h"
#include "src/support/mangle.h"
#include "src/support/strings.h"
#include "src/vm/machine.h"
#include "src/vm/profile_trace.h"

namespace knit {
namespace {

struct CliOptions {
  std::string command;  // "build", "run", "swap" or "serve"
  std::string knit_file;
  std::string src_dir;
  std::string top;
  bool dump_units = false;
  bool print_schedule = false;
  bool print_stats = false;
  bool print_passes = false;
  bool list_exports = false;
  bool print_map = false;
  std::string stats_json;    // "" = off; "-" = stdout
  std::string trace_file;    // "" = off: pipeline stage timings as trace JSON
  std::string profile_file;  // "" = off: per-component run profile as trace JSON
  std::string profile_use_file;  // "" = off: recorded profile steering -O2 (PGO)
  std::string run;
  std::string alloc_unit;  // "" = keep the configuration's allocator
  std::vector<uint32_t> run_args;
  long long fuel = 0;  // 0: leave the CostModel default
  FaultPlan fault_plan;
  // --swap=INSTANCE:FILE requests, applied in order after knit__init.
  std::vector<std::pair<std::string, std::string>> swaps;
  // `knitc serve` options.
  bool serve_clack = false;   // serve the built-in Clack corpus (no --knit needed)
  int serve_shards = 2;
  int serve_batch = 32;
  long long serve_packets = 10000;
  uint32_t serve_seed = 0x12345u;
  std::string serve_json;     // "" = off; "-" = stdout
  KnitcOptions build;
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: knitc <command> [options]\n"
               "\n"
               "Commands:\n"
               "  build                 build an image from --knit/--top (reporting "
               "options\n"
               "                        apply; --run/--swap belong to run/swap)\n"
               "  run                   build, then execute --run=PORT.SYMBOL on the VM\n"
               "  swap                  build, run, and hot-swap --swap=INSTANCE:FILE\n"
               "                        instances after knit__init\n"
               "  serve                 serve a synthetic packet trace on a sharded "
               "router\n"
               "                        fleet (see Serving below)\n"
               "\n"
               "Build options:\n"
               "  --top=UNIT            top-level unit to instantiate (required)\n"
               "  --src=DIR             directory of MiniC sources (default: the .knit "
               "file's dir)\n"
               "  --jobs=N              compile units on N threads (default 1); the image\n"
               "                        is bit-identical for every N\n"
               "  --cache-dir=PATH      persist compiled-object cache entries under PATH\n"
               "                        (default: in-memory cache only)\n"
               "  -O0 / -O1 / -O2       optimization level: 0 = none, 1 = per-unit passes\n"
               "                        (default), 2 = per-unit plus whole-image link-time\n"
               "                        passes (cross-unit inlining, global dead-code\n"
               "                        elimination); outputs are identical at every level\n"
               "  --no-check            skip constraint checking\n"
               "  --no-flatten          ignore `flatten` markers\n"
               "  --flatten-all         merge the whole program into one translation unit\n"
               "  --no-failsafe-init    generate the paper's monolithic knit__init (no "
               "rollback)\n"
               "  --profile-use=PATH    steer the -O2 image passes with a profile "
               "recorded by\n"
               "                        --profile: inline budget is spent hottest-first, "
               "text is\n"
               "                        laid out by hot-path affinity, and never-executed\n"
               "                        functions move behind the hot code; a profile "
               "from a\n"
               "                        different configuration is ignored with a warning\n"
               "  --swappable=INSTANCE  make INSTANCE hot-swappable: its cross-component\n"
               "                        calls go through binding slots the reconfig engine\n"
               "                        can retarget at run time ('*' = every instance;\n"
               "                        repeatable; comma-separated lists accepted)\n"
               "  --alloc=NAME          serve malloc/free from allocator NAME (bump, "
               "arena,\n"
               "                        freelist, buddy): the allocator unit library is\n"
               "                        merged into the program and every Alloc-family\n"
               "                        provider site in the link is rewritten to NAME "
               "--\n"
               "                        the one-line component swap from the paper\n"
               "\n"
               "Reporting:\n"
               "  --dump-units          print the parsed declarations back as canonical Knit\n"
               "  --print-schedule      print the computed init/fini order\n"
               "  --print-stats         print per-stage build metrics (time, items, cache)\n"
               "  --print-passes        print per-pass optimizer stats (insns before/after,\n"
               "                        time) for the object and image scopes\n"
               "  --stats-json=PATH     write the stage metrics as JSON to PATH ('-' = "
               "stdout)\n"
               "  --trace=PATH          write the stage timings as Chrome trace-event JSON\n"
               "                        (open in Perfetto / chrome://tracing; '-' = stdout)\n"
               "  --list-exports        print the top-level export symbols\n"
               "  --print-map           print the ld placement map (object -> text/data)\n"
               "\n"
               "Execution:\n"
               "  --run=PORT.SYMBOL     after knit__init, call this export (args: "
               "--args=1,2,3)\n"
               "  --args=N,N,...        integer arguments for --run\n"
               "  --fuel=N              VM instruction budget; a runaway program traps "
               "cleanly\n"
               "  --profile=PATH        (with --run) attribute cycles/stalls/calls to Knit\n"
               "                        components; prints the per-component table and "
               "writes\n"
               "                        a profile document to PATH ('-' = stdout): a "
               "Chrome\n"
               "                        trace-event timeline plus the knit_profile block "
               "that\n"
               "                        --profile-use reads back (DESIGN.md format)\n"
               "  --swap=INSTANCE:FILE  after knit__init, hot-swap INSTANCE with the unit\n"
               "                        source in FILE (requires --run and --swappable); a\n"
               "                        failed swap rolls back and keeps running the old\n"
               "                        instance (repeatable)\n"
               "  --inject-fault=F[@N][=V]\n"
               "                        force the Nth invocation (default 1st) of function "
               "or\n"
               "                        native F to trap, or -- with =V -- to return V "
               "instead\n"
               "                        of running (fault-injection testing); the names\n"
               "                        swap-link, swap-init, swap-init-trap, swap-quiesce\n"
               "                        inject failures into the --swap path instead\n"
               "\n"
               "Serving (knitc serve):\n"
               "  --clack               serve the built-in Clack router corpus; --top "
               "picks\n"
               "                        the configuration (default ClackRouter) and no\n"
               "                        --knit/--src is needed. Without --clack, serve "
               "builds\n"
               "                        --knit/--top, which must export the Clack entry\n"
               "                        contract (in0/in1 pkt_push, stats counters)\n"
               "  --shards=N            router shards, one cloned machine each (default "
               "2)\n"
               "  --batch=K             packets a shard worker drains per wake-up "
               "(default 32)\n"
               "  --packets=N           synthetic trace length (default 10000)\n"
               "  --seed=N              trace generator seed\n"
               "  --json=PATH           write the serve report as JSON ('-' = stdout)\n"
               "\n"
               "  --help                print this help\n");
}

// Parses all of `text` as a decimal integer in [min, max]. Otherwise prints
// "knitc: error: FLAG expects WHAT, got 'TEXT'" and returns false, after which
// knitc exits with status 2.
bool ParseIntegerFlag(const char* flag, const std::string& text, const char* what,
                      long long min, long long max, long long& out) {
  long long value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < min || value > max) {
    std::fprintf(stderr, "knitc: error: %s expects %s, got '%s'\n", flag, what, text.c_str());
    return false;
  }
  out = value;
  return true;
}

// Parses --inject-fault=FUNC[@N][=V]: fault the Nth invocation of FUNC; with =V
// return V instead of trapping. Names starting with "swap-" select swap-path
// injection points (link names never contain '-', so the prefix is unambiguous)
// and accept no @N/=V modifiers.
bool ParseFaultSpec(const std::string& spec, FaultPlan& plan) {
  if (spec.rfind("swap-", 0) == 0) {
    if (spec.find('@') != std::string::npos || spec.find('=') != std::string::npos) {
      return false;
    }
    plan.swap_points.push_back(spec);
    return true;
  }
  FaultInjection injection;
  std::string name = spec;
  size_t eq = name.find('=');
  if (eq != std::string::npos) {
    long long value = 0;
    if (!ParseIntegerFlag("--inject-fault", name.substr(eq + 1),
                          "a 32-bit return value after '='", INT32_MIN, UINT32_MAX, value)) {
      return false;
    }
    injection.trap = false;
    injection.value = static_cast<uint32_t>(value);
    name = name.substr(0, eq);
  }
  size_t at = name.find('@');
  if (at != std::string::npos) {
    if (!ParseIntegerFlag("--inject-fault", name.substr(at + 1),
                          "a positive invocation count after '@'", 1, LLONG_MAX,
                          injection.invocation)) {
      return false;
    }
    name = name.substr(0, at);
  }
  if (name.empty()) {
    return false;
  }
  injection.function = name;
  plan.injections.push_back(std::move(injection));
  return true;
}

// Parses --swap=INSTANCE:FILE; both halves must be non-empty.
bool ParseSwapSpec(const std::string& spec,
                   std::vector<std::pair<std::string, std::string>>& swaps) {
  size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return false;
  }
  swaps.emplace_back(spec.substr(0, colon), spec.substr(colon + 1));
  return true;
}

// Returns 0 to continue, otherwise the process exit code + 1 (so 1 means
// "exit 0", e.g. after --help).
int ParseArgs(int argc, char** argv, CliOptions& options) {
  std::string command = argc > 1 ? argv[1] : "";
  if (command == "--help" || command == "-h") {
    PrintUsage(stdout);
    return 1;
  }
  if (command != "build" && command != "run" && command != "swap" && command != "serve") {
    if (command.empty() || command[0] == '-') {
      std::fprintf(stderr, "knitc: error: missing command (commands: build, run, swap, "
                           "serve)\n");
      PrintUsage(stderr);
    } else {
      std::fprintf(stderr,
                   "knitc: unknown command '%s' (commands: build, run, swap, serve)\n",
                   command.c_str());
    }
    return 3;
  }
  options.command = command;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 1;
    } else if (arg.rfind("--knit=", 0) == 0) {
      options.knit_file = value_of("--knit=");
    } else if (arg.rfind("--src=", 0) == 0) {
      options.src_dir = value_of("--src=");
    } else if (arg.rfind("--top=", 0) == 0) {
      options.top = value_of("--top=");
    } else if (arg.rfind("--jobs=", 0) == 0) {
      long long jobs = 0;
      if (!ParseIntegerFlag("--jobs", value_of("--jobs="), "a thread count between 1 and 1024",
                            1, 1024, jobs)) {
        return 3;
      }
      options.build.jobs = static_cast<int>(jobs);
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      options.build.cache_dir = value_of("--cache-dir=");
      if (options.build.cache_dir.empty()) {
        std::fprintf(stderr, "knitc: error: --cache-dir expects a directory path\n");
        return 3;
      }
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      options.stats_json = value_of("--stats-json=");
      if (options.stats_json.empty()) {
        std::fprintf(stderr, "knitc: error: --stats-json expects a file path or '-'\n");
        return 3;
      }
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_file = value_of("--trace=");
      if (options.trace_file.empty()) {
        std::fprintf(stderr, "knitc: error: --trace expects a file path or '-'\n");
        return 3;
      }
    } else if (arg.rfind("--profile=", 0) == 0) {
      options.profile_file = value_of("--profile=");
      if (options.profile_file.empty()) {
        std::fprintf(stderr, "knitc: error: --profile expects a file path or '-'\n");
        return 3;
      }
    } else if (arg.rfind("--profile-use=", 0) == 0) {
      options.profile_use_file = value_of("--profile-use=");
      if (options.profile_use_file.empty()) {
        std::fprintf(stderr, "knitc: error: --profile-use expects a profile file path\n");
        return 3;
      }
    } else if (arg.rfind("-O", 0) == 0) {
      std::string level = arg.substr(2);
      if (level == "0") {
        options.build.opt_level = 0;
      } else if (level.empty() || level == "1") {
        options.build.opt_level = 1;
      } else if (level == "2") {
        options.build.opt_level = 2;
      } else {
        std::fprintf(stderr,
                     "knitc: error: unknown optimization level '%s' (use -O0, -O1, or "
                     "-O2)\n",
                     arg.c_str());
        return 3;
      }
    } else if (arg == "--no-check") {
      options.build.check_constraints = false;
    } else if (arg == "--no-flatten") {
      options.build.flatten = false;
    } else if (arg == "--flatten-all") {
      options.build.flatten_everything = true;
    } else if (arg == "--dump-units") {
      options.dump_units = true;
    } else if (arg == "--print-schedule") {
      options.print_schedule = true;
    } else if (arg == "--print-stats") {
      options.print_stats = true;
    } else if (arg == "--print-passes") {
      options.print_passes = true;
    } else if (arg == "--list-exports") {
      options.list_exports = true;
    } else if (arg == "--print-map") {
      options.print_map = true;
    } else if (arg.rfind("--run=", 0) == 0) {
      options.run = value_of("--run=");
    } else if (arg.rfind("--alloc=", 0) == 0) {
      std::string name = value_of("--alloc=");
      options.alloc_unit = AllocUnitForShortName(name);
      if (options.alloc_unit.empty()) {
        std::fprintf(stderr, "knitc: error: unknown allocator '%s' (valid: %s)\n",
                     name.c_str(), AllocShortNameList().c_str());
        return 3;
      }
    } else if (arg.rfind("--args=", 0) == 0) {
      for (const std::string& piece : Split(value_of("--args="), ',')) {
        long long value = 0;
        if (!ParseIntegerFlag("--args", piece, "comma-separated 32-bit integers", INT32_MIN,
                              UINT32_MAX, value)) {
          return 3;
        }
        options.run_args.push_back(static_cast<uint32_t>(value));
      }
    } else if (arg == "--no-failsafe-init") {
      options.build.failsafe_init = false;
    } else if (arg.rfind("--swappable=", 0) == 0) {
      std::string value = value_of("--swappable=");
      if (value.empty()) {
        std::fprintf(stderr,
                     "knitc: error: --swappable expects an instance path or '*'\n");
        return 3;
      }
      for (const std::string& piece : Split(value, ',')) {
        if (!piece.empty()) {
          options.build.swappable.push_back(piece);
        }
      }
    } else if (arg.rfind("--swap=", 0) == 0) {
      if (!ParseSwapSpec(value_of("--swap="), options.swaps)) {
        std::fprintf(stderr, "knitc: bad swap spec '%s' (want INSTANCE:FILE)\n",
                     arg.c_str());
        return 3;
      }
    } else if (arg.rfind("--fuel=", 0) == 0) {
      if (!ParseIntegerFlag("--fuel", value_of("--fuel="), "a positive instruction count", 1,
                            LLONG_MAX, options.fuel)) {
        return 3;
      }
    } else if (arg == "--clack") {
      options.serve_clack = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      long long shards = 0;
      if (!ParseIntegerFlag("--shards", value_of("--shards="), "a count between 1 and 256", 1,
                            256, shards)) {
        return 3;
      }
      options.serve_shards = static_cast<int>(shards);
    } else if (arg.rfind("--batch=", 0) == 0) {
      long long batch = 0;
      if (!ParseIntegerFlag("--batch", value_of("--batch="), "a positive packet count", 1,
                            INT_MAX, batch)) {
        return 3;
      }
      options.serve_batch = static_cast<int>(batch);
    } else if (arg.rfind("--packets=", 0) == 0) {
      if (!ParseIntegerFlag("--packets", value_of("--packets="), "a positive trace length", 1,
                            INT_MAX, options.serve_packets)) {
        return 3;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      long long seed = 0;
      if (!ParseIntegerFlag("--seed", value_of("--seed="), "an unsigned 32-bit integer", 0,
                            UINT32_MAX, seed)) {
        return 3;
      }
      options.serve_seed = static_cast<uint32_t>(seed);
    } else if (arg.rfind("--json=", 0) == 0) {
      options.serve_json = value_of("--json=");
      if (options.serve_json.empty()) {
        std::fprintf(stderr, "knitc: error: --json expects a file path or '-'\n");
        return 3;
      }
    } else if (arg.rfind("--inject-fault=", 0) == 0) {
      if (!ParseFaultSpec(value_of("--inject-fault="), options.fault_plan)) {
        std::fprintf(stderr, "knitc: bad fault spec '%s' (want FUNC[@N][=V])\n",
                     arg.c_str());
        return 3;
      }
    } else {
      std::fprintf(stderr, "knitc: unknown option '%s' (try --help)\n", arg.c_str());
      return 3;
    }
  }
  // Per-command contracts.
  if (options.command == "serve") {
    if (!options.run.empty() || !options.swaps.empty()) {
      std::fprintf(stderr, "knitc: error: serve takes no --run/--swap (see knitc run, "
                           "knitc swap)\n");
      return 3;
    }
    if (options.serve_clack) {
      if (options.top.empty()) {
        options.top = "ClackRouter";
      }
      return 0;  // built-in corpus: no files to locate
    }
  } else if (options.serve_clack || !options.serve_json.empty()) {
    std::fprintf(stderr, "knitc: error: --clack/--json belong to the serve command\n");
    return 3;
  }
  if (options.command == "build" && (!options.run.empty() || !options.swaps.empty())) {
    std::fprintf(stderr, "knitc: error: build takes no --run/--swap (use knitc run or "
                         "knitc swap)\n");
    return 3;
  }
  if (options.command == "run" && options.run.empty()) {
    std::fprintf(stderr, "knitc: error: run requires --run=PORT.SYMBOL\n");
    return 3;
  }
  if (options.command == "swap" && options.swaps.empty()) {
    std::fprintf(stderr, "knitc: error: swap requires --swap=INSTANCE:FILE\n");
    return 3;
  }
  if (options.knit_file.empty() || options.top.empty()) {
    PrintUsage(stderr);
    return 3;
  }
  if (options.src_dir.empty()) {
    options.src_dir = std::filesystem::path(options.knit_file).parent_path().string();
    if (options.src_dir.empty()) {
      options.src_dir = ".";
    }
  }
  if (!options.profile_file.empty() && options.run.empty() && options.command != "serve") {
    std::fprintf(stderr, "knitc: error: --profile requires --run (nothing executes "
                         "otherwise)\n");
    return 3;
  }
  if (!options.swaps.empty() && options.run.empty()) {
    std::fprintf(stderr, "knitc: error: --swap requires --run (nothing executes "
                         "otherwise)\n");
    return 3;
  }
  return 0;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool LoadSources(const std::string& dir, SourceMap& sources) {
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string name = entry.path().filename().string();
    if (EndsWith(name, ".c") || EndsWith(name, ".h")) {
      std::string content;
      if (!ReadFile(entry.path().string(), content)) {
        std::fprintf(stderr, "knitc: cannot read %s\n", entry.path().string().c_str());
        return false;
      }
      sources[name] = std::move(content);
    }
  }
  if (error) {
    std::fprintf(stderr, "knitc: cannot read directory %s: %s\n", dir.c_str(),
                 error.message().c_str());
    return false;
  }
  return true;
}

void BindEnvironment(Machine& machine, const KnitBuildResult& build) {
  for (const std::string& native : build.natives) {
    if (native.rfind("env__", 0) != 0) {
      continue;  // intrinsics are pre-bound by the Machine
    }
    if (EndsWith(native, "putc")) {
      machine.BindNative(native, [](Machine&, std::span<const uint32_t> args) {
        if (!args.empty()) {
          std::fputc(static_cast<char>(args[0] & 0xFF), stdout);
        }
        return 0u;
      });
    } else {
      std::string name = native;
      machine.BindNative(native, [name](Machine&, std::span<const uint32_t> args) {
        std::printf("[env %s(", name.c_str());
        for (size_t i = 0; i < args.size(); ++i) {
          std::printf("%s%u", i > 0 ? ", " : "", args[i]);
        }
        std::printf(")]\n");
        return 0u;
      });
    }
  }
}

bool WriteTextOutput(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "knitc: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

bool WriteStatsJson(const std::string& path, const PipelineMetrics& metrics) {
  return WriteTextOutput(path, metrics.ToJson());
}

// --alloc=NAME: the paper's one-line component swap, performed by the driver.
// Merges the allocator unit library into the program (Knit declarations and
// MiniC sources, neither overriding anything the user provided) and rewrites
// every Alloc-family provider site in the link text to the requested unit.
// The one-line note goes to `note`.
bool ApplyAllocChoice(const CliOptions& options, std::string& knit_text, SourceMap& sources,
                      std::FILE* note) {
  if (options.alloc_unit.empty()) {
    return true;
  }
  if (knit_text.find("bundletype Alloc") == std::string::npos) {
    knit_text += AllocKnit();
  }
  for (const auto& [name, text] : AllocSources()) {
    if (sources.find(name) == sources.end()) {
      sources[name] = text;
    }
  }
  int sites = RewriteAllocProvider(knit_text, options.alloc_unit);
  if (sites == 0) {
    std::fprintf(stderr,
                 "knitc: error: --alloc: the configuration instantiates no "
                 "Alloc-family unit to replace\n");
    return false;
  }
  std::fprintf(note, "knitc: allocator %s (%d provider site%s rewritten)\n",
               options.alloc_unit.c_str(), sites, sites == 1 ? "" : "s");
  return true;
}

// `knitc serve`: build the router image once, clone it across a shard fleet,
// and serve a synthetic two-port trace through it (src/serve/serve.h). With
// --json=- the JSON report owns stdout and the human summary goes to stderr.
int ServeMain(const CliOptions& options) {
  std::FILE* human = options.serve_json == "-" ? stderr : stdout;
  std::string knit_text;
  SourceMap sources;
  if (options.serve_clack) {
    knit_text = ClackKnit();
    sources = ClackSources();
  } else {
    if (!ReadFile(options.knit_file, knit_text)) {
      std::fprintf(stderr, "knitc: cannot read %s\n", options.knit_file.c_str());
      return 1;
    }
    if (!LoadSources(options.src_dir, sources)) {
      return 1;
    }
  }
  if (!ApplyAllocChoice(options, knit_text, sources, human)) {
    return 1;
  }

  Diagnostics diags;
  KnitPipeline pipeline(options.build);
  Result<LinkedImage> built = pipeline.Build(knit_text, sources, options.top, diags);
  std::fprintf(stderr, "%s", diags.ToString().c_str());
  if (!built.ok()) {
    return 1;
  }
  auto build = std::make_shared<const KnitBuildResult>(
      KnitBuildResultFrom(built.take(), pipeline.metrics()));
  std::fprintf(human, "knitc: built '%s': %d instances, %d bytes text\n", options.top.c_str(),
               build->stats.instance_count, build->image.text_bytes);

  TraceOptions trace_options;
  trace_options.count = static_cast<int>(options.serve_packets);
  trace_options.seed = options.serve_seed;
  std::vector<TracePacket> trace = GenerateTrace(trace_options);

  ServeOptions serve;
  serve.shards = options.serve_shards;
  serve.batch = options.serve_batch;
  serve.profile = !options.profile_file.empty();
  serve.fuel = options.fuel;
  if (serve.fuel == 0 && options.serve_packets > 100'000) {
    serve.fuel = 8'000'000'000ll;  // long runs outgrow the default budget
  }

  Result<std::unique_ptr<RouterFleet>> fleet =
      RouterFleet::FromBuild(build, RouterProgram::ClackEntryNames(*build),
                             EnvSymbol("dev", "dev_tx"), serve, diags);
  if (!fleet.ok()) {
    std::fprintf(stderr, "%s", diags.ToString().c_str());
    return 1;
  }
  Result<ServeReport> served = fleet.value()->Serve(trace, diags);
  if (!served.ok()) {
    std::fprintf(stderr, "%s", diags.ToString().c_str());
    return 1;
  }
  const ServeReport& report = served.value();
  std::fprintf(human, "knitc: served %d packets on %d shard(s), batch %d: %.0f packets/sec\n",
               report.total.packets, options.serve_shards, options.serve_batch,
               report.packets_per_second);
  std::fprintf(human, "  latency p50 %lld  p99 %lld  mean %.1f cycles; %.1f cycles/packet\n",
               report.p50_cycles, report.p99_cycles, report.latency.Mean(),
               report.total.CyclesPerPacket());
  std::fprintf(human, "  tx %u packets, aggregate hash %016llx; %s mode, %d threads\n",
               report.total.tx_count, static_cast<unsigned long long>(report.total.tx_hash),
               report.streamed ? "streaming" : "pre-feed", report.threads);
  if (serve.profile) {
    std::fprintf(human, "fleet component profile (exact sums over %d shards):\n%s",
                 options.serve_shards, report.total.profile.ToText().c_str());
    if (options.profile_file != "-" &&
        !WriteTextOutput(options.profile_file, report.total.profile.ToText())) {
      return 1;
    }
  }
  if (!options.serve_json.empty()) {
    char buffer[1024];
    std::snprintf(buffer, sizeof(buffer),
                  "{\n"
                  "  \"top\": \"%s\",\n"
                  "  \"packets\": %d,\n"
                  "  \"shards\": %d,\n"
                  "  \"batch\": %d,\n"
                  "  \"packets_per_second\": %.0f,\n"
                  "  \"p50_cycles\": %lld,\n"
                  "  \"p99_cycles\": %lld,\n"
                  "  \"mean_cycles\": %.1f,\n"
                  "  \"cycles_per_packet\": %.1f,\n"
                  "  \"tx_count\": %u,\n"
                  "  \"tx_hash\": \"%016llx\",\n"
                  "  \"streamed\": %s,\n"
                  "  \"threads\": %d\n"
                  "}\n",
                  options.top.c_str(), report.total.packets, options.serve_shards,
                  options.serve_batch, report.packets_per_second, report.p50_cycles,
                  report.p99_cycles, report.latency.Mean(), report.total.CyclesPerPacket(),
                  report.total.tx_count,
                  static_cast<unsigned long long>(report.total.tx_hash),
                  report.streamed ? "true" : "false", report.threads);
    if (!WriteTextOutput(options.serve_json, buffer)) {
      return 1;
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions options;
  if (int parse = ParseArgs(argc, argv, options); parse != 0) {
    return parse - 1;
  }
  if (!options.profile_use_file.empty()) {
    // An unreadable or unparseable profile is a hard CLI error; a *mismatched*
    // one (recorded for another configuration) is detected later by the
    // pipeline, which warns and builds plain -O2 instead.
    std::string text;
    if (!ReadFile(options.profile_use_file, text)) {
      std::fprintf(stderr, "knitc: cannot read %s\n", options.profile_use_file.c_str());
      return 1;
    }
    Diagnostics profile_diags;
    Result<LoadedProfile> loaded = ParseComponentProfile(text, profile_diags);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s", profile_diags.ToString().c_str());
      std::fprintf(stderr, "knitc: cannot use profile %s\n",
                   options.profile_use_file.c_str());
      return 1;
    }
    options.build.profile = std::make_shared<const LoadedProfile>(loaded.take());
  }
  if (options.command == "serve") {
    return ServeMain(options);
  }

  std::string knit_text;
  if (!ReadFile(options.knit_file, knit_text)) {
    std::fprintf(stderr, "knitc: cannot read %s\n", options.knit_file.c_str());
    return 1;
  }
  SourceMap sources;
  if (!LoadSources(options.src_dir, sources)) {
    return 1;
  }
  if (!ApplyAllocChoice(options, knit_text, sources, stdout)) {
    return 1;
  }

  if (options.dump_units) {
    Diagnostics diags;
    Result<KnitProgram> program = ParseKnit(knit_text, options.knit_file, diags);
    if (!program.ok()) {
      std::fprintf(stderr, "%s", diags.ToString().c_str());
      return 1;
    }
    std::printf("%s", PrintKnitProgram(program.value()).c_str());
  }

  // Drive the pipeline stage by stage (the CLI is itself a staged-API host), then
  // repackage the linked image in the classic result shape for reporting/running.
  Diagnostics diags;
  KnitPipeline pipeline(options.build);
  Result<LinkedImage> built = pipeline.Build(knit_text, sources, options.top, diags);
  std::fprintf(stderr, "%s", diags.ToString().c_str());
  if (!options.stats_json.empty() && !WriteStatsJson(options.stats_json, pipeline.metrics())) {
    return 1;
  }
  if (!options.trace_file.empty() &&
      !WriteTextOutput(options.trace_file, PipelineMetricsTraceJson(pipeline.metrics()))) {
    return 1;
  }
  if (!built.ok()) {
    return 1;
  }
  // Kept for --profile: the recorded document embeds the elaborated
  // configuration's digest (shared_ptr copies — the artifacts outlive take()).
  ElaboratedConfig built_elaborated = built.value().compiled.checked.scheduled.elaborated;
  KnitBuildResult result = KnitBuildResultFrom(built.take(), pipeline.metrics());
  std::printf("knitc: built '%s': %d instances, %d objects, %d flatten groups, %d bytes "
              "text\n",
              options.top.c_str(), result.stats.instance_count, result.stats.object_count,
              result.stats.flatten_group_count, result.image.text_bytes);

  if (options.print_schedule) {
    std::printf("initializers:\n");
    for (const InitCall& call : result.schedule.initializers) {
      std::printf("  %s.%s()\n", result.config.instances[call.instance].path.c_str(),
                  call.function.c_str());
    }
    std::printf("finalizers:\n");
    for (const InitCall& call : result.schedule.finalizers) {
      std::printf("  %s.%s()\n", result.config.instances[call.instance].path.c_str(),
                  call.function.c_str());
    }
  }
  if (options.print_stats) {
    const PipelineMetrics& metrics = result.stats;
    std::printf("stages (ms):\n");
    for (const StageMetrics& stage : metrics.stages) {
      std::printf("  %-12s %9.3f  items %-4d threads %-2d", stage.stage.c_str(),
                  stage.seconds * 1e3, stage.items, stage.threads);
      if (stage.cache_hits + stage.cache_misses > 0) {
        std::printf("  cache %d hit / %d miss", stage.cache_hits, stage.cache_misses);
      }
      std::printf("\n");
    }
    std::printf("  %-12s %9.3f\n", "total", metrics.TotalSeconds() * 1e3);
  }
  if (options.print_passes) {
    std::printf("optimizer passes:\n");
    if (result.stats.pass_stats.empty()) {
      std::printf("  (none ran: optimization disabled or every object came from "
                  "the cache)\n");
    } else {
      std::printf("  %-14s %-7s %8s %14s %14s %10s\n", "pass", "scope", "runs",
                  "insns-before", "insns-after", "ms");
      for (const PassStats& row : result.stats.pass_stats) {
        std::printf("  %-14s %-7s %8lld %14lld %14lld %10.3f\n", row.pass.c_str(),
                    row.scope.c_str(), row.runs, row.insns_before, row.insns_after,
                    row.seconds * 1e3);
      }
    }
  }
  if (options.print_map) {
    std::printf("link map:\n");
    for (const PlacedObject& placed : result.placements) {
      std::printf("  %-32s data@0x%08x  functions %d..%d\n", placed.name.c_str(),
                  placed.data_offset, placed.first_function,
                  placed.first_function + placed.function_count - 1);
    }
  }
  if (options.list_exports) {
    const UnitDecl* top = result.config.top;
    for (const PortDecl& port : top->exports) {
      std::printf("export %s : %s\n", port.local_name.c_str(), port.bundle_type.c_str());
    }
  }

  if (!options.run.empty()) {
    size_t dot = options.run.find('.');
    if (dot == std::string::npos) {
      std::fprintf(stderr, "knitc: --run expects PORT.SYMBOL\n");
      return 2;
    }
    std::string symbol =
        result.ExportedSymbol(options.run.substr(0, dot), options.run.substr(dot + 1));
    if (symbol.empty()) {
      std::fprintf(stderr, "knitc: no export '%s'\n", options.run.c_str());
      return 1;
    }
    Machine machine(result.image);
    BindEnvironment(machine, result);
    if (options.fuel > 0) {
      machine.set_max_insns(options.fuel);
    }
    if (!options.fault_plan.empty()) {
      machine.set_fault_plan(options.fault_plan);
    }
    if (!options.profile_file.empty()) {
      // Profile the whole execution: init, the exported call, and fini — the
      // "<init>" pseudo-component makes startup cost visible alongside the run.
      machine.EnableProfiling();
    }
    RunResult init = machine.Call(result.init_function);
    if (!init.ok || result.FailingInstance(init) != -1) {
      // Report the failure in Knit component terms, then (after a trap) run the
      // generated rollback so the already-initialized instances are finalized.
      Diagnostics init_diags;
      result.ReportInitFailure(init, init_diags);
      std::fprintf(stderr, "%s", init_diags.ToString().c_str());
      std::fprintf(stderr, "knitc: knit__init failed%s%s\n", init.ok ? "" : ": ",
                   init.ok ? "" : init.error.c_str());
      if (!init.ok && !result.rollback_function.empty()) {
        machine.ResetCounters();
        RunResult rollback = machine.Call(result.rollback_function);
        if (rollback.ok) {
          std::fprintf(stderr, "knitc: rolled back initialized components\n");
        } else {
          std::fprintf(stderr, "knitc: rollback failed: %s\n", rollback.error.c_str());
        }
      }
      return 1;
    }
    if (!options.swaps.empty()) {
      // Hot-swap before the exported call runs. A failed swap rolls back and the
      // old instance keeps serving — degraded but running, never a dead program.
      ReconfigEngine engine(result, machine, sources);
      for (const auto& [instance, file] : options.swaps) {
        std::string replacement;
        if (!ReadFile(file, replacement)) {
          std::fprintf(stderr, "knitc: cannot read %s\n", file.c_str());
          return 1;
        }
        SwapReport report = engine.Request(SwapSpec{instance, replacement, file});
        for (const std::string& warning : report.warnings) {
          std::fprintf(stderr, "knitc: swap warning: %s\n", warning.c_str());
        }
        if (report.ok) {
          std::printf("knitc: swapped %s (generation %d: %d slots rebound, %d functions "
                      "added, %lld pause cycles)\n",
                      instance.c_str(), report.version, report.rebound_slots,
                      report.new_functions, report.pause_cycles);
        } else {
          std::fprintf(stderr,
                       "knitc: swap of %s failed: %s (continuing with the old "
                       "instance)\n",
                       instance.c_str(), report.error.c_str());
        }
      }
    }
    RunResult run = machine.Call(symbol, options.run_args);
    if (!run.ok) {
      std::fprintf(stderr, "knitc: %s trapped: %s\n", options.run.c_str(),
                   run.error.c_str());
      return 1;
    }
    std::printf("%s returned %u (0x%x) in %lld cycles\n", options.run.c_str(), run.value,
                run.value, machine.cycles());
    RunResult fini = machine.Call(result.fini_function);
    if (!fini.ok) {
      std::fprintf(stderr, "knitc: knit__fini failed: %s\n", fini.error.c_str());
      return 1;
    }
    if (!options.profile_file.empty()) {
      ComponentProfile profile = machine.Profile();
      std::printf("component profile (%s):\n%s", options.top.c_str(),
                  profile.ToText().c_str());
      // The document carries the recording context (top unit, configuration
      // digest, -O level) so `--profile-use` can check it matches the build it
      // is asked to steer. It still loads in Perfetto: trace viewers ignore
      // the extra "knit_profile" key.
      ProfileMeta meta = MakeProfileMeta(built_elaborated, options.build.opt_level);
      if (!WriteTextOutput(options.profile_file,
                           SerializeComponentProfile(profile, meta, options.top))) {
        return 1;
      }
      if (options.profile_file != "-") {
        std::printf("profile written to %s (open in Perfetto or chrome://tracing; "
                    "feed back with --profile-use)\n",
                    options.profile_file.c_str());
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace knit

int main(int argc, char** argv) { return knit::Main(argc, argv); }
