#include "src/vm/machine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <new>

namespace knit {

namespace {
constexpr uint32_t kNullGuard = 0x1000;  // accesses below this address trap
constexpr uint32_t kStackBytes = 1 << 20;
// Evaluation-stack words reserved up front, so ordinary runs never grow it.
constexpr size_t kEvalReserve = 4096;
// Native calls with at most this many arguments copy them to the host stack;
// wider ones (variadic natives only) fall back to a heap copy.
constexpr int kInlineNativeArgs = 16;
}  // namespace

std::string ComponentProfile::ToText(size_t max_edges) const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line), "  %-32s %12s %6s %10s %10s %9s %9s\n", "component",
                "cycles", "cyc%", "stalls", "insns", "calls-in", "calls-out");
  out += line;
  for (const ComponentProfileEntry& entry : components) {
    double share = total_cycles > 0 ? 100.0 * double(entry.cycles) / double(total_cycles) : 0;
    std::snprintf(line, sizeof(line), "  %-32s %12lld %5.1f%% %10lld %10lld %9lld %9lld\n",
                  entry.component.c_str(), entry.cycles, share, entry.ifetch_stalls,
                  entry.insns, entry.calls_in, entry.calls_out);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-32s %12lld %5.1f%% %10lld %10lld\n", "total",
                total_cycles, components.empty() ? 0.0 : 100.0, total_ifetch_stalls,
                total_insns);
  out += line;
  std::snprintf(line, sizeof(line), "  boundary calls: %lld\n", boundary_calls);
  out += line;
  if (total_bytes_alloc > 0 || total_bytes_freed > 0) {
    std::snprintf(line, sizeof(line), "  heap: %lld bytes allocated, %lld freed\n",
                  total_bytes_alloc, total_bytes_freed);
    out += line;
    for (const ComponentProfileEntry& entry : components) {
      if (entry.bytes_alloc == 0 && entry.bytes_freed == 0) {
        continue;
      }
      std::snprintf(line, sizeof(line), "    %-30s alloc %10lld  freed %10lld  peak %10lld\n",
                    entry.component.c_str(), entry.bytes_alloc, entry.bytes_freed,
                    entry.live_peak);
      out += line;
    }
  }
  size_t shown = 0;
  for (const BoundaryEdge& edge : edges) {
    if (edge.caller == edge.callee) {
      continue;  // intra-component rows are not boundaries
    }
    if (shown == max_edges) {
      out += "  ... (more edges elided)\n";
      break;
    }
    std::snprintf(line, sizeof(line), "    %-30s -> %-30s %10lld calls\n",
                  edge.caller.c_str(), edge.callee.c_str(), edge.calls);
    out += line;
    ++shown;
  }
  return out;
}

Machine::Machine(const Image& image, CostModel cost, uint32_t memory_bytes)
    : image_(image),
      cost_(cost),
      memory_(static_cast<uint8_t*>(std::calloc(memory_bytes, 1))),
      memory_size_(memory_bytes),
      max_insns_(cost.max_insns) {
  if (memory_ == nullptr && memory_bytes > 0) {
    throw std::bad_alloc();
  }
  assert(image.data_base >= kNullGuard);
  // Load the data image.
  if (!image.data.empty()) {
    std::memcpy(memory_.get() + image.data_base, image.data.data(), image.data.size());
  }
  heap_end_ = image.data_base + static_cast<uint32_t>(image.data.size());
  heap_end_ = (heap_end_ + 0xFFF) & ~0xFFFu;  // page align
  stack_pointer_ = memory_bytes;
  eval_.reserve(kEvalReserve);

  // A degenerate geometry still models a cache: line size and associativity are
  // at least 1, and a cache smaller than one set of lines has one set.
  cost_.icache_line = std::max(1, cost_.icache_line);
  cost_.icache_ways = std::max(1, cost_.icache_ways);
  icache_sets_ = std::max(1, cost_.icache_bytes / (cost_.icache_line * cost_.icache_ways));
  icache_.assign(static_cast<size_t>(icache_sets_) * cost_.icache_ways, CacheWay{});
  icache_pow2_ = std::has_single_bit(static_cast<unsigned>(cost_.icache_line)) &&
                 std::has_single_bit(static_cast<unsigned>(icache_sets_));
  if (icache_pow2_) {
    icache_line_shift_ = std::countr_zero(static_cast<unsigned>(cost_.icache_line));
    icache_set_shift_ = std::countr_zero(static_cast<unsigned>(icache_sets_));
  }

  BindBuiltins();
}

void Machine::BindBuiltins() {
  BindNative("__sbrk", [](Machine& m, std::span<const uint32_t> args) {
    return m.Sbrk(args.empty() ? 0 : args[0]);
  });
  BindNative("__putchar", [](Machine& m, std::span<const uint32_t> args) {
    if (!args.empty()) {
      m.console_ += static_cast<char>(args[0] & 0xFF);
    }
    return 0u;
  });
  BindNative("__cycles", [](Machine& m, std::span<const uint32_t>) {
    return static_cast<uint32_t>(m.cycles_);
  });
  BindNative("__vararg_count", [](Machine& m, std::span<const uint32_t>) {
    return static_cast<uint32_t>(m.CurrentVarargCount());
  });
  BindNative("__vararg", [](Machine& m, std::span<const uint32_t> args) {
    return m.CurrentVararg(args.empty() ? 0 : static_cast<int>(args[0]));
  });
  BindNative("__abort", [](Machine& m, std::span<const uint32_t> args) {
    m.Trap("program aborted (code " + std::to_string(args.empty() ? 0 : args[0]) + ")");
    return 0u;
  });
  BindNative("__trace", [](Machine& m, std::span<const uint32_t> args) {
    m.console_ += "[trace " + std::to_string(args.empty() ? 0 : static_cast<int32_t>(args[0])) +
                  "]";
    return 0u;
  });
  // Heap accounting intrinsics: allocator units report each SUCCESSFUL
  // malloc/free so the machine can keep exact totals (and, while profiling,
  // per-requester attribution) without knowing any allocator's internals.
  BindNative("__alloc_note", [](Machine& m, std::span<const uint32_t> args) {
    m.NoteAlloc(args.empty() ? 0 : args[0]);
    return 0u;
  });
  BindNative("__free_note", [](Machine& m, std::span<const uint32_t> args) {
    m.NoteFree(args.empty() ? 0 : args[0]);
    return 0u;
  });
}

void Machine::BindNative(const std::string& name, NativeFn fn) {
  natives_[name] = std::move(fn);
  native_table_.clear();
}

const NativeFn* Machine::NativeAt(size_t index) {
  if (index >= native_table_.size()) {
    native_table_.assign(image_.natives.size(), nullptr);
    for (size_t n = 0; n < image_.natives.size(); ++n) {
      auto it = natives_.find(image_.natives[n]);
      if (it != natives_.end()) {
        native_table_[n] = &it->second;
      }
    }
  }
  return native_table_[index];
}

void Machine::ResetCounters() {
  cycles_ = 0;
  ifetch_stalls_ = 0;
  insns_ = 0;
}

void Machine::EnableProfiling(size_t max_events) {
  profiling_ = true;
  max_profile_events_ = max_events;
  profile_components_.clear();
  function_component_.assign(image_.functions.size(), -1);
  std::map<std::string, int> ids;
  auto intern = [&](const std::string& name) {
    auto [it, inserted] = ids.emplace(name, static_cast<int>(profile_components_.size()));
    if (inserted) {
      profile_components_.push_back(name);
    }
    return it->second;
  };
  for (size_t f = 0; f < image_.functions.size(); ++f) {
    const std::string& component = image_.functions[f].component;
    function_component_[f] = intern(component.empty() ? "<other>" : component);
  }
  env_component_ = intern("<env>");
  ResetProfile();
}

void Machine::ResetProfile() {
  profile_cycles_.assign(profile_components_.size(), 0);
  profile_stalls_.assign(profile_components_.size(), 0);
  profile_insns_.assign(profile_components_.size(), 0);
  profile_alloc_.assign(profile_components_.size(), 0);
  profile_freed_.assign(profile_components_.size(), 0);
  profile_live_.assign(profile_components_.size(), 0);
  profile_live_peak_.assign(profile_components_.size(), 0);
  profile_fn_calls_.assign(image_.functions.size(), 0);
  profile_edges_.assign(profile_components_.size() * profile_components_.size(), 0);
  profile_events_.clear();
  profile_events_truncated_ = false;
}

void Machine::ProfileCall(int caller_component, int callee_component) {
  if (caller_component < 0) {
    return;  // host-initiated call: there is no caller bucket
  }
  ++profile_edges_[static_cast<size_t>(caller_component) * profile_components_.size() +
                   static_cast<size_t>(callee_component)];
}

void Machine::ProfileMark(int component, bool begin) {
  if (max_profile_events_ == 0) {
    return;  // counters only
  }
  if (profile_events_.size() >= max_profile_events_) {
    profile_events_truncated_ = true;
    return;
  }
  profile_events_.push_back(ProfileEvent{component, begin, cycles_});
}

ComponentProfile Machine::Profile(bool include_events) const {
  ComponentProfile out;
  size_t count = profile_components_.size();
  if (count == 0) {
    return out;  // profiling was never enabled
  }
  out.component_names = profile_components_;
  std::vector<long long> calls_in(count, 0);
  std::vector<long long> calls_out(count, 0);
  for (size_t caller = 0; caller < count; ++caller) {
    for (size_t callee = 0; callee < count; ++callee) {
      long long calls = profile_edges_[caller * count + callee];
      if (calls == 0) {
        continue;
      }
      if (caller != callee) {
        calls_out[caller] += calls;
        calls_in[callee] += calls;
        out.boundary_calls += calls;
      }
      out.edges.push_back(
          BoundaryEdge{profile_components_[caller], profile_components_[callee], calls});
    }
  }
  std::sort(out.edges.begin(), out.edges.end(), [](const BoundaryEdge& a, const BoundaryEdge& b) {
    if (a.calls != b.calls) {
      return a.calls > b.calls;
    }
    if (a.caller != b.caller) {
      return a.caller < b.caller;
    }
    return a.callee < b.callee;
  });
  for (size_t c = 0; c < count; ++c) {
    if (profile_cycles_[c] == 0 && profile_insns_[c] == 0 && profile_stalls_[c] == 0 &&
        calls_in[c] == 0 && calls_out[c] == 0 && profile_alloc_[c] == 0 &&
        profile_freed_[c] == 0) {
      continue;  // component never entered during the profiled window
    }
    ComponentProfileEntry entry;
    entry.component = profile_components_[c];
    entry.cycles = profile_cycles_[c];
    entry.ifetch_stalls = profile_stalls_[c];
    entry.insns = profile_insns_[c];
    entry.calls_in = calls_in[c];
    entry.calls_out = calls_out[c];
    entry.bytes_alloc = profile_alloc_[c];
    entry.bytes_freed = profile_freed_[c];
    entry.live_peak = profile_live_peak_[c];
    out.total_cycles += entry.cycles;
    out.total_ifetch_stalls += entry.ifetch_stalls;
    out.total_insns += entry.insns;
    out.total_bytes_alloc += entry.bytes_alloc;
    out.total_bytes_freed += entry.bytes_freed;
    out.components.push_back(std::move(entry));
  }
  std::sort(out.components.begin(), out.components.end(),
            [](const ComponentProfileEntry& a, const ComponentProfileEntry& b) {
              if (a.cycles != b.cycles) {
                return a.cycles > b.cycles;
              }
              return a.component < b.component;
            });
  for (size_t f = 0; f < profile_fn_calls_.size() && f < image_.functions.size(); ++f) {
    if (profile_fn_calls_[f] > 0 && !image_.functions[f].name.empty()) {
      out.function_calls.push_back(FunctionCallCount{image_.functions[f].name,
                                                     profile_fn_calls_[f]});
    }
  }
  std::sort(out.function_calls.begin(), out.function_calls.end(),
            [](const FunctionCallCount& a, const FunctionCallCount& b) {
              if (a.calls != b.calls) {
                return a.calls > b.calls;
              }
              return a.function < b.function;
            });
  out.events_truncated = profile_events_truncated_;
  if (include_events) {
    out.events = profile_events_;
  }
  return out;
}

void Machine::Trap(const std::string& message) {
  if (!trapped_) {
    trapped_ = true;
    trap_message_ = message;
    // Snapshot the call stack before CallId unwinds it: function names innermost
    // first, with the instruction the frame was executing (pc already advanced).
    trap_backtrace_.clear();
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      trap_backtrace_.push_back(image_.functions[it->function].name + " (pc " +
                                std::to_string(it->pc > 0 ? it->pc - 1 : 0) + ")");
    }
  }
}

std::string Machine::TrapError() const {
  std::string error = trap_message_.empty() ? "execution error" : trap_message_;
  for (const std::string& frame : trap_backtrace_) {
    error += "\n  at " + frame;
  }
  return error;
}

void Machine::set_fault_plan(FaultPlan plan) {
  fault_plan_ = std::move(plan);
  invocation_counts_.clear();
}

// Decides the planned fate of this invocation; the caller raises the trap itself so
// the backtrace reflects where the fault lands (inside the callee for functions, at
// the call site for natives).
Machine::FaultAction Machine::CheckFault(const std::string& function, uint32_t* value_out) {
  if (fault_plan_.empty()) {
    return FaultAction::kNone;
  }
  long long count = ++invocation_counts_[function];
  for (const FaultInjection& injection : fault_plan_.injections) {
    if (injection.function != function || injection.invocation != count) {
      continue;
    }
    if (injection.trap) {
      return FaultAction::kTrap;
    }
    *value_out = injection.value;
    return FaultAction::kReturn;
  }
  return FaultAction::kNone;
}

bool Machine::InRange(uint32_t address, size_t size) const {
  return address >= kNullGuard && static_cast<uint64_t>(address) + size <= memory_size_;
}

bool Machine::CheckRange(uint32_t address, uint32_t size) {
  if (address < kNullGuard) {
    Trap("null/guard-page dereference at address " + std::to_string(address));
    return false;
  }
  if (static_cast<uint64_t>(address) + size > memory_size_) {
    Trap("out-of-range memory access at address " + std::to_string(address));
    return false;
  }
  return true;
}

uint32_t Machine::ReadWord(uint32_t address) {
  if (!CheckRange(address, 4)) {
    return 0;
  }
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(memory_[address + i]) << (8 * i);
  }
  return value;
}

void Machine::WriteWord(uint32_t address, uint32_t value) {
  if (!CheckRange(address, 4)) {
    return;
  }
  for (int i = 0; i < 4; ++i) {
    memory_[address + i] = static_cast<uint8_t>((value >> (8 * i)) & 0xFF);
  }
}

uint8_t Machine::ReadByte(uint32_t address) {
  if (!CheckRange(address, 1)) {
    return 0;
  }
  return memory_[address];
}

void Machine::WriteByte(uint32_t address, uint8_t value) {
  if (!CheckRange(address, 1)) {
    return;
  }
  memory_[address] = value;
}

void Machine::WriteBytes(uint32_t address, std::span<const uint8_t> bytes) {
  if (InRange(address, bytes.size())) {
    std::memcpy(memory_.get() + address, bytes.data(), bytes.size());
    return;
  }
  // Byte by byte, so the trap names the first bad address as WriteByte does.
  for (size_t i = 0; i < bytes.size(); ++i) {
    WriteByte(address + static_cast<uint32_t>(i), bytes[i]);
  }
}

std::span<const uint8_t> Machine::ByteView(uint32_t address, uint32_t size) const {
  if (!InRange(address, size)) {
    return {};
  }
  return {memory_.get() + address, size};
}

std::string Machine::ReadCString(uint32_t address, uint32_t max_length) {
  std::string out;
  for (uint32_t i = 0; i < max_length; ++i) {
    uint8_t c = ReadByte(address + i);
    if (trapped_ || c == 0) {
      break;
    }
    out += static_cast<char>(c);
  }
  return out;
}

uint32_t Machine::Sbrk(uint32_t bytes) {
  // Page-grant primitive (see machine.h): requests round up to whole 4 KB
  // pages, and exhaustion returns 0 — allocator units turn that into a null
  // malloc result; only dereferencing null traps. The granted size is part of
  // the contract: a caller asking for N bytes owns (N + 0xFFF) & ~0xFFF.
  uint32_t base = heap_end_;
  uint64_t granted = (static_cast<uint64_t>(bytes) + 0xFFF) & ~uint64_t{0xFFF};
  if (granted == 0) {
    granted = 0x1000;
  }
  if (static_cast<uint64_t>(heap_end_) + granted >= stack_pointer_ - kStackBytes) {
    return 0;
  }
  heap_end_ += static_cast<uint32_t>(granted);
  return base;
}

int Machine::RequesterComponent() const {
  if (frames_.empty()) {
    return -1;
  }
  int allocator = function_component_[frames_.back().function];
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    int component = function_component_[it->function];
    if (component != allocator) {
      return component;
    }
  }
  return allocator;  // the allocator allocated for itself (e.g. its initializer)
}

void Machine::NoteAlloc(uint32_t bytes) {
  bytes_allocated_ += bytes;
  long long live = bytes_allocated_ - bytes_freed_;
  if (live > live_peak_) {
    live_peak_ = live;
  }
  if (profiling_) {
    int component = RequesterComponent();
    if (component >= 0) {
      profile_alloc_[component] += bytes;
      profile_live_[component] += bytes;
      if (profile_live_[component] > profile_live_peak_[component]) {
        profile_live_peak_[component] = profile_live_[component];
      }
    }
  }
}

void Machine::NoteFree(uint32_t bytes) {
  bytes_freed_ += bytes;
  if (profiling_) {
    int component = RequesterComponent();
    if (component >= 0) {
      profile_freed_[component] += bytes;
      profile_live_[component] -= bytes;
    }
  }
}

int Machine::CurrentVarargCount() const {
  // The __vararg natives execute while the variadic function's frame is on top.
  return frames_.empty() ? 0 : frames_.back().vararg_count;
}

uint32_t Machine::CurrentVararg(int index) {
  if (frames_.empty()) {
    return 0;
  }
  const Frame& frame = frames_.back();
  if (index < 0 || index >= frame.vararg_count) {
    return 0;
  }
  return ReadWord(frame.vararg_base + static_cast<uint32_t>(index) * 4);
}

bool Machine::ComponentQuiescent(const std::string& component) const {
  for (const Frame& frame : frames_) {
    if (image_.functions[frame.function].component == component) {
      return false;
    }
  }
  return true;
}

void Machine::RecoverNestedTrap(size_t eval_depth) {
  trapped_ = false;
  trap_message_.clear();
  trap_backtrace_.clear();
  // The trap unwind already cut the evaluation stack back to where the nested
  // call began; cutting to the captured depth also drops anything pushed after
  // the capture, so the interrupted outer frame resumes with exactly the stack
  // it had.
  if (eval_.size() > eval_depth) {
    eval_.resize(eval_depth);
  }
}

void Machine::RefreshAfterImageGrowth() {
  // A swap retargets call sites; retire the indirect-branch predictions so the
  // first post-swap call at each site pays the miss, as real hardware would.
  btb_.clear();
  native_table_.clear();
  if (!profiling_) {
    return;
  }
  // Extend (never reset) the attribution tables: new functions get component ids,
  // new components get zeroed buckets, accumulated attribution is preserved.
  const size_t old_count = profile_components_.size();
  std::map<std::string, int> ids;
  for (size_t c = 0; c < profile_components_.size(); ++c) {
    ids.emplace(profile_components_[c], static_cast<int>(c));
  }
  auto intern = [&](const std::string& name) {
    auto [it, inserted] = ids.emplace(name, static_cast<int>(profile_components_.size()));
    if (inserted) {
      profile_components_.push_back(name);
      profile_cycles_.push_back(0);
      profile_stalls_.push_back(0);
      profile_insns_.push_back(0);
      profile_alloc_.push_back(0);
      profile_freed_.push_back(0);
      profile_live_.push_back(0);
      profile_live_peak_.push_back(0);
    }
    return it->second;
  };
  for (size_t f = function_component_.size(); f < image_.functions.size(); ++f) {
    const std::string& component = image_.functions[f].component;
    function_component_.push_back(intern(component.empty() ? "<other>" : component));
  }
  profile_fn_calls_.resize(image_.functions.size(), 0);
  const size_t count = profile_components_.size();
  if (count != old_count) {
    std::vector<long long> edges(count * count, 0);
    for (size_t caller = 0; caller < old_count; ++caller) {
      std::copy_n(profile_edges_.begin() + static_cast<ptrdiff_t>(caller * old_count), old_count,
                  edges.begin() + static_cast<ptrdiff_t>(caller * count));
    }
    profile_edges_ = std::move(edges);
  }
}

int& Machine::BtbSlot(int function, int pc) {
  if (static_cast<size_t>(function) >= btb_.size()) {
    btb_.resize(image_.functions.size());
  }
  std::vector<int>& row = btb_[function];
  if (static_cast<size_t>(pc) >= row.size()) {
    row.resize(image_.functions[function].code.size(), kBtbEmpty);
  }
  return row[pc];
}

void Machine::ICacheAccess(uint32_t text_address) {
  uint32_t line = icache_pow2_ ? text_address >> icache_line_shift_
                               : text_address / static_cast<uint32_t>(cost_.icache_line);
  // Refetching the previous line is a hit that needs no bookkeeping: that line
  // holds the newest stamp in its set, and stamps are only ever compared within
  // a set, so restamping it (and advancing the clock) would leave every LRU
  // decision unchanged.
  if (static_cast<int64_t>(line) == icache_last_line_) {
    return;
  }
  icache_last_line_ = line;
  uint32_t sets = static_cast<uint32_t>(icache_sets_);
  uint32_t set = icache_pow2_ ? line & (sets - 1) : line % sets;
  int64_t tag = icache_pow2_ ? line >> icache_set_shift_ : line / sets;
  CacheWay* ways = &icache_[static_cast<size_t>(set) * cost_.icache_ways];
  ++icache_clock_;
  int victim = 0;
  for (int w = 0; w < cost_.icache_ways; ++w) {
    if (ways[w].tag == tag) {
      ways[w].stamp = icache_clock_;
      return;  // hit
    }
    if (ways[w].stamp < ways[victim].stamp) {
      victim = w;
    }
  }
  // Miss: fill + stall.
  ways[victim].tag = tag;
  ways[victim].stamp = icache_clock_;
  ifetch_stalls_ += cost_.icache_miss_stall;
  cycles_ += cost_.icache_miss_stall;
}

template <bool kProfiling>
bool Machine::EnterFunction(int function_id, size_t args_base) {
  const BytecodeFunction& function = image_.functions[function_id];
  int argc = static_cast<int>(eval_.size() - args_base);
  int fixed = function.param_count;
  int extras = argc - fixed;
  if (extras < 0) {
    eval_.resize(args_base);
    Trap("call to " + function.name + " with too few arguments");
    return false;
  }
  if (!function.variadic) {
    extras = 0;  // ignore surplus (checked by sema; defensive here)
  }
  uint32_t frame_bytes =
      static_cast<uint32_t>(function.frame_size) + static_cast<uint32_t>(extras) * 4 + 16;
  frame_bytes = (frame_bytes + 7) & ~7u;
  if (stack_pointer_ < heap_end_ + frame_bytes + 4096) {
    eval_.resize(args_base);
    Trap("stack overflow entering " + function.name);
    return false;
  }
  Frame frame;
  frame.saved_sp = stack_pointer_;
  stack_pointer_ -= frame_bytes;
  frame.function = function_id;
  frame.pc = 0;
  frame.fp = stack_pointer_;
  frame.eval_base = args_base;
  frame.vararg_count = function.variadic ? extras : 0;
  frame.vararg_base = frame.fp + static_cast<uint32_t>(function.frame_size);
  // Copy fixed params into the first slots and varargs after the static frame,
  // straight off the evaluation stack, then pop them.
  const uint32_t* args = eval_.data() + args_base;
  for (int i = 0; i < fixed; ++i) {
    WriteWord(frame.fp + static_cast<uint32_t>(i) * 4, args[i]);
  }
  for (int i = 0; i < frame.vararg_count; ++i) {
    WriteWord(frame.vararg_base + static_cast<uint32_t>(i) * 4, args[fixed + i]);
  }
  eval_.resize(args_base);
  if constexpr (kProfiling) {
    ++profile_fn_calls_[function_id];
    // Entering a frame of a different component (the host counts as a different
    // component) opens a span on the event timeline.
    int callee = function_component_[function_id];
    int parent = frames_.empty() ? -1 : function_component_[frames_.back().function];
    if (callee != parent) {
      ProfileMark(callee, true);
    }
  }
  frames_.push_back(frame);
  return true;
}

RunResult Machine::Call(const std::string& name, const std::vector<uint32_t>& args) {
  int id = image_.FindFunction(name);
  if (id < 0) {
    return RunResult{false, 0, "no such function: " + name, {}};
  }
  return CallId(id, args);
}

RunResult Machine::CallId(int function_id, std::span<const uint32_t> args) {
  trapped_ = false;
  trap_message_.clear();
  trap_backtrace_.clear();
  size_t base_frames = frames_.size();

  if (function_id < 0 || function_id >= static_cast<int>(image_.functions.size())) {
    return RunResult{false, 0, "bad function id", {}};
  }
  uint32_t injected = 0;
  FaultAction action = CheckFault(image_.functions[function_id].name, &injected);
  if (action == FaultAction::kReturn) {
    return RunResult{true, injected, "", {}};
  }
  // The profiling mode is fixed here for the whole call (see machine.h).
  const bool profiling = profiling_;
  size_t args_base = eval_.size();
  eval_.insert(eval_.end(), args.begin(), args.end());
  bool entered = profiling ? EnterFunction<true>(function_id, args_base)
                           : EnterFunction<false>(function_id, args_base);
  if (!entered) {
    return RunResult{false, 0, TrapError(), trap_backtrace_};
  }
  if (action == FaultAction::kTrap) {
    // Trap inside the callee's frame so the backtrace names it.
    Trap("fault injected into '" + image_.functions[function_id].name + "'");
  }
  return profiling ? RunLoop<true>(base_frames) : RunLoop<false>(base_frames);
}

template <bool kProfiling>
RunResult Machine::RunLoop(size_t base_frames) {
  // Set at kRet when the popped frame returns control to the host; the loop exits
  // after the instruction's attribution is recorded.
  bool host_return = false;
  bool host_has_value = false;
  uint32_t host_value = 0;

  // The executing frame, cached. frames_ can reallocate inside any call (a
  // native may re-enter the machine) and image_.functions can grow inside a
  // native (a hot swap), so these are reloaded after every call and return and
  // nothing here is used across one before that.
  Frame* frame = nullptr;
  const Insn* code = nullptr;
  size_t code_size = 0;
  uint32_t text_base = 0;
  int frame_component = -1;
  auto load_frame = [&] {
    frame = &frames_.back();
    const BytecodeFunction& function = image_.functions[frame->function];
    code = function.code.data();
    code_size = function.code.size();
    text_base = static_cast<uint32_t>(function.text_offset);
    if constexpr (kProfiling) {
      frame_component = function_component_[frame->function];
    }
  };
  load_frame();

  while (!trapped_) {
    if (frame->pc < 0 || static_cast<size_t>(frame->pc) >= code_size) {
      Trap("pc out of range in " + image_.functions[frame->function].name);
      break;
    }
    const Insn insn = code[frame->pc];
    // Profiling snapshot: everything this iteration adds to the counters —
    // including the I-fetch below and any per-op costs inside the switch — is
    // attributed to the component of the executing frame, so per-component sums
    // equal the counter deltas exactly.
    int profile_comp = -1;
    long long profile_c0 = 0;
    long long profile_s0 = 0;
    if constexpr (kProfiling) {
      profile_comp = frame_component;
      profile_c0 = cycles_;
      profile_s0 = ifetch_stalls_;
    }
    ICacheAccess(text_base + static_cast<uint32_t>(frame->pc) * 4);
    ++frame->pc;
    ++insns_;
    cycles_ += cost_.base;
    if (insns_ > max_insns_) {
      if constexpr (kProfiling) {
        profile_cycles_[profile_comp] += cycles_ - profile_c0;
        profile_stalls_[profile_comp] += ifetch_stalls_ - profile_s0;
        ++profile_insns_[profile_comp];
      }
      Trap("fuel exhausted (instruction budget of " + std::to_string(max_insns_) +
           " insns exceeded)");
      break;
    }

    switch (insn.op) {
      case Op::kNop:
        break;
      case Op::kConstInt:
        eval_.push_back(static_cast<uint32_t>(insn.a));
        break;
      case Op::kConstSym:
        Trap("unresolved symbol reference executed (unlinked code)");
        break;
      case Op::kAddrLocal:
        eval_.push_back(frame->fp + static_cast<uint32_t>(insn.a));
        break;
      case Op::kLoadLocal: {
        uint32_t address = frame->fp + static_cast<uint32_t>(insn.a);
        if (insn.b == 1) {
          eval_.push_back(ReadByte(address));
        } else {
          eval_.push_back(ReadWord(address));
        }
        break;
      }
      case Op::kStoreLocal: {
        if (eval_.size() <= frame->eval_base) {
          Trap("evaluation stack underflow");
          break;
        }
        uint32_t value = eval_.back();
        eval_.pop_back();
        uint32_t address = frame->fp + static_cast<uint32_t>(insn.a);
        if (insn.b == 1) {
          WriteByte(address, static_cast<uint8_t>(value & 0xFF));
        } else {
          WriteWord(address, value);
        }
        break;
      }
      case Op::kLoadMem: {
        if (eval_.size() <= frame->eval_base) {
          Trap("evaluation stack underflow");
          break;
        }
        uint32_t address = eval_.back();
        eval_.pop_back();
        cycles_ += cost_.mem_access;
        if (insn.b == 1) {
          eval_.push_back(ReadByte(address));
        } else {
          eval_.push_back(ReadWord(address));
        }
        break;
      }
      case Op::kStoreMem: {
        if (eval_.size() < frame->eval_base + 2) {
          Trap("evaluation stack underflow");
          break;
        }
        uint32_t value = eval_.back();
        eval_.pop_back();
        uint32_t address = eval_.back();
        eval_.pop_back();
        cycles_ += cost_.mem_access;
        if (insn.b == 1) {
          WriteByte(address, static_cast<uint8_t>(value & 0xFF));
        } else {
          WriteWord(address, value);
        }
        break;
      }
      case Op::kDup:
        if (eval_.size() <= frame->eval_base) {
          Trap("evaluation stack underflow");
          break;
        }
        eval_.push_back(eval_.back());
        break;
      case Op::kPop:
        if (eval_.size() <= frame->eval_base) {
          Trap("evaluation stack underflow");
          break;
        }
        eval_.pop_back();
        break;
      case Op::kSwap:
        if (eval_.size() < frame->eval_base + 2) {
          Trap("evaluation stack underflow");
          break;
        }
        std::swap(eval_[eval_.size() - 1], eval_[eval_.size() - 2]);
        break;
      case Op::kNeg:
      case Op::kBitNot:
      case Op::kLogNot:
      case Op::kSext8:
        if (eval_.size() <= frame->eval_base) {
          Trap("evaluation stack underflow");
          break;
        }
        if (insn.op == Op::kNeg) {
          eval_.back() = 0u - eval_.back();
        } else if (insn.op == Op::kBitNot) {
          eval_.back() = ~eval_.back();
        } else if (insn.op == Op::kLogNot) {
          eval_.back() = eval_.back() == 0 ? 1 : 0;
        } else {
          eval_.back() = static_cast<uint32_t>(
              static_cast<int32_t>(static_cast<int8_t>(eval_.back() & 0xFF)));
        }
        break;
      case Op::kJmp:
        frame->pc = insn.a;
        break;
      case Op::kJz: {
        if (eval_.size() <= frame->eval_base) {
          Trap("evaluation stack underflow");
          break;
        }
        uint32_t value = eval_.back();
        eval_.pop_back();
        if (value == 0) {
          frame->pc = insn.a;
        }
        break;
      }
      case Op::kJnz: {
        if (eval_.size() <= frame->eval_base) {
          Trap("evaluation stack underflow");
          break;
        }
        uint32_t value = eval_.back();
        eval_.pop_back();
        if (value != 0) {
          frame->pc = insn.a;
        }
        break;
      }
      case Op::kCall:
      case Op::kCallIndirect:
      case Op::kCallBound: {
        int callable;
        if (insn.op == Op::kCall) {
          callable = insn.a;
          cycles_ += cost_.call_overhead;
        } else if (insn.op == Op::kCallBound) {
          if (insn.a < 0 || static_cast<size_t>(insn.a) >= image_.bindings.size()) {
            Trap("bound call through invalid binding slot " + std::to_string(insn.a));
            break;
          }
          callable = image_.bindings[insn.a].target;
          // A bound call pays the direct-call overhead plus one memory access to
          // load the slot, and resolves like an indirect branch: the BTB predicts
          // the slot's last target, so the steady-state cost of swappability is
          // call_overhead + mem_access + indirect_predicted per boundary call.
          cycles_ += cost_.call_overhead + cost_.mem_access;
        } else {
          if (eval_.size() <= frame->eval_base) {
            Trap("evaluation stack underflow");
            break;
          }
          uint32_t ref = eval_.back();
          eval_.pop_back();
          if (!IsFuncRef(ref)) {
            Trap("indirect call through a non-function value");
            break;
          }
          callable = DecodeFuncRef(ref);
        }
        if (insn.op != Op::kCall) {
          int& predicted = BtbSlot(frame->function, frame->pc - 1);
          if (predicted == callable) {
            cycles_ += cost_.indirect_predicted;
          } else {
            predicted = callable;
            cycles_ += cost_.indirect_call_overhead;
          }
        }
        int argc = CallArgc(insn.b);
        cycles_ += cost_.per_argument * argc;
        if (eval_.size() < frame->eval_base + static_cast<size_t>(argc)) {
          Trap("evaluation stack underflow at call");
          break;
        }
        size_t args_base = eval_.size() - argc;
        if (callable < 0) {
          Trap("call through unresolved or non-text symbol");
          break;
        }
        if (image_.IsNativeId(callable)) {
          size_t native_index = static_cast<size_t>(callable) - image_.functions.size();
          if (native_index >= image_.natives.size()) {
            Trap("call through unresolved or non-text symbol");
            break;
          }
          const std::string& native_name = image_.natives[native_index];
          uint32_t fault_value = 0;
          FaultAction action = CheckFault(native_name, &fault_value);
          if (action == FaultAction::kTrap) {
            Trap("fault injected into '" + native_name + "'");
            break;
          }
          if (action == FaultAction::kReturn) {
            eval_.resize(args_base);
            if (CallReturns(insn.b)) {
              eval_.push_back(fault_value);
            }
            break;
          }
          const NativeFn* native = NativeAt(native_index);
          if (native == nullptr) {
            Trap("native '" + native_name + "' is not bound");
            break;
          }
          // The native may re-enter the machine and grow eval_, so it gets a
          // copy of its arguments, never a view into the evaluation stack.
          uint32_t inline_args[kInlineNativeArgs];
          std::vector<uint32_t> wide_args;
          uint32_t* native_args = inline_args;
          if (argc > kInlineNativeArgs) {
            wide_args.resize(argc);
            native_args = wide_args.data();
          }
          std::copy(eval_.begin() + args_base, eval_.end(), native_args);
          eval_.resize(args_base);
          cycles_ += cost_.native_cost;
          if constexpr (kProfiling) {
            ProfileCall(profile_comp, env_component_);
          }
          uint32_t result = (*native)(*this, std::span<const uint32_t>(native_args, argc));
          if (CallReturns(insn.b)) {
            eval_.push_back(result);
          }
          load_frame();
          break;
        }
        uint32_t fault_value = 0;
        FaultAction action = CheckFault(image_.functions[callable].name, &fault_value);
        if (action == FaultAction::kReturn) {
          eval_.resize(args_base);
          if (CallReturns(insn.b)) {
            eval_.push_back(fault_value);
          }
          break;
        }
        if (!EnterFunction<kProfiling>(callable, args_base)) {
          break;
        }
        if constexpr (kProfiling) {
          ProfileCall(profile_comp, function_component_[callable]);
        }
        if (action == FaultAction::kTrap) {
          // Trap inside the callee's frame so the backtrace names it.
          Trap("fault injected into '" + image_.functions[callable].name + "'");
          break;
        }
        // Mismatched value expectations are reconciled at the callee's kRet.
        load_frame();
        break;
      }
      case Op::kRet: {
        cycles_ += cost_.ret_overhead;
        uint32_t value = 0;
        bool has_value = insn.a != 0;
        if (has_value) {
          if (eval_.size() <= frame->eval_base) {
            Trap("return with empty evaluation stack");
            break;
          }
          value = eval_.back();
        }
        // Discard the callee's leftover stack and frame.
        eval_.resize(frame->eval_base);
        stack_pointer_ = frame->saved_sp;
        bool caller_exists = frames_.size() > base_frames + 1;
        if constexpr (kProfiling) {
          // Close the span if control moves to a different component (or the host).
          int parent =
              caller_exists ? function_component_[frames_[frames_.size() - 2].function] : -1;
          if (profile_comp != parent) {
            ProfileMark(profile_comp, false);
          }
        }
        frames_.pop_back();
        if (!caller_exists) {
          // Returning to the host: exit after this instruction's attribution below.
          host_return = true;
          host_has_value = has_value;
          host_value = value;
          break;
        }
        // The caller's kCall encoded whether it expects a value; we cannot see that
        // insn here cheaply, so push if the callee returns one — codegen keeps the
        // conventions consistent (kPop after calls whose results are unused).
        if (has_value) {
          eval_.push_back(value);
        }
        load_frame();
        break;
      }
      default: {
        // Binary ALU.
        if (eval_.size() < frame->eval_base + 2) {
          Trap("evaluation stack underflow");
          break;
        }
        uint32_t y = eval_.back();
        eval_.pop_back();
        uint32_t x = eval_.back();
        eval_.pop_back();
        int32_t sx = static_cast<int32_t>(x);
        int32_t sy = static_cast<int32_t>(y);
        uint32_t result = 0;
        switch (insn.op) {
          case Op::kAdd:
            result = x + y;
            break;
          case Op::kSub:
            result = x - y;
            break;
          case Op::kMul:
            result = x * y;
            break;
          case Op::kDivS:
            cycles_ += cost_.divide;
            if (sy == 0) {
              Trap("division by zero");
              break;
            }
            result = static_cast<uint32_t>(sx / sy);
            break;
          case Op::kDivU:
            cycles_ += cost_.divide;
            if (y == 0) {
              Trap("division by zero");
              break;
            }
            result = x / y;
            break;
          case Op::kModS:
            cycles_ += cost_.divide;
            if (sy == 0) {
              Trap("modulo by zero");
              break;
            }
            result = static_cast<uint32_t>(sx % sy);
            break;
          case Op::kModU:
            cycles_ += cost_.divide;
            if (y == 0) {
              Trap("modulo by zero");
              break;
            }
            result = x % y;
            break;
          case Op::kShl:
            result = x << (y & 31);
            break;
          case Op::kShrS:
            result = static_cast<uint32_t>(sx >> (y & 31));
            break;
          case Op::kShrU:
            result = x >> (y & 31);
            break;
          case Op::kAnd:
            result = x & y;
            break;
          case Op::kOr:
            result = x | y;
            break;
          case Op::kXor:
            result = x ^ y;
            break;
          case Op::kEq:
            result = x == y;
            break;
          case Op::kNe:
            result = x != y;
            break;
          case Op::kLtS:
            result = sx < sy;
            break;
          case Op::kLtU:
            result = x < y;
            break;
          case Op::kLeS:
            result = sx <= sy;
            break;
          case Op::kLeU:
            result = x <= y;
            break;
          case Op::kGtS:
            result = sx > sy;
            break;
          case Op::kGtU:
            result = x > y;
            break;
          case Op::kGeS:
            result = sx >= sy;
            break;
          case Op::kGeU:
            result = x >= y;
            break;
          default:
            Trap("illegal instruction");
            break;
        }
        if (!trapped_) {
          eval_.push_back(result);
        }
        break;
      }
    }

    if constexpr (kProfiling) {
      profile_cycles_[profile_comp] += cycles_ - profile_c0;
      profile_stalls_[profile_comp] += ifetch_stalls_ - profile_s0;
      ++profile_insns_[profile_comp];
    }
    if (host_return) {
      return RunResult{!trapped_, host_has_value ? host_value : 0, trap_message_,
                       trap_backtrace_};
    }
  }

  // Trapped: unwind, dropping whatever the run's frames left on the evaluation
  // stack, so the host sees it as it was before the call.
  if (frames_.size() > base_frames) {
    eval_.resize(frames_[base_frames].eval_base);
  }
  while (frames_.size() > base_frames) {
    if constexpr (kProfiling) {
      int comp = function_component_[frames_.back().function];
      int parent = frames_.size() > base_frames + 1
                       ? function_component_[frames_[frames_.size() - 2].function]
                       : -1;
      if (comp != parent) {
        ProfileMark(comp, false);
      }
    }
    stack_pointer_ = frames_.back().saved_sp;
    frames_.pop_back();
  }
  return RunResult{false, 0, TrapError(), trap_backtrace_};
}

}  // namespace knit
