// The MiniC virtual machine: executes a linked Image with an explicit cost model
// and an L1 instruction-cache simulator, standing in for the paper's Pentium Pro
// testbed (200 MHz, 8 KB L1I, measured via performance counters).
//
// Counters reported:
//   cycles()        — total modeled cycles (includes i-fetch stalls)
//   ifetch_stalls() — stall cycles from I-cache misses (Table 1's middle column)
//   insns()         — dynamic instruction count
//
// Cost model (documented in DESIGN.md; absolute values are a model, shapes are what
// the reproduction relies on):
//   every instruction          1 cycle
//   memory load/store          +1
//   signed/unsigned divide     +20
//   direct call                +8, +2 per argument (IA-32 cdecl: arguments travel
//                              through the stack in memory; prologue/epilogue)
//   indirect call              +15 on a BTB miss (target differs from the last one
//                              seen at this call site), +3 when predicted,
//                              +2 per argument — the P6 BTB predicts indirect
//                              branches to their last target, so monomorphic call
//                              sites (the common Click case) are cheap after warmup
//   return                     +4
//   native (environment) call  +5 flat
//   I-cache miss               +8 stall cycles (counted separately too)
#ifndef SRC_VM_MACHINE_H_
#define SRC_VM_MACHINE_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/vm/image.h"

namespace knit {

struct CostModel {
  long long base = 1;
  // Fuel: the instruction budget for a Machine (overridable per machine with
  // set_max_insns). Exhausting it raises a clean "fuel exhausted" trap so runaway
  // or cyclic code cannot hang a harness.
  long long max_insns = 2'000'000'000;
  long long mem_access = 1;
  long long divide = 20;
  long long call_overhead = 8;
  long long indirect_call_overhead = 15;  // BTB miss
  long long indirect_predicted = 3;       // BTB hit (same target as last time)
  long long per_argument = 2;
  long long ret_overhead = 4;
  long long native_cost = 5;

  // L1I geometry. Line size and associativity are clamped to at least 1, and a
  // cache smaller than one set of lines has one set.
  int icache_bytes = 8192;
  int icache_line = 32;
  int icache_ways = 4;
  long long icache_miss_stall = 8;
};

class Machine;

// A native (environment) callable. Receives the machine (for memory access) and the
// popped argument values; returns the result (ignored for void uses). The span
// views a copy the machine made for this call, so it stays valid even when the
// native re-enters the machine; it does not outlive the call.
using NativeFn = std::function<uint32_t(Machine&, std::span<const uint32_t>)>;

// One forced failure: the Nth invocation of `function` (a VM function or a native,
// by link name) is intercepted before its body runs. `trap` makes it trap the
// machine; otherwise the call is skipped and `value` is returned in its place (for
// int-returning functions, a nonzero `value` models "initializer reported failure").
struct FaultInjection {
  std::string function;
  long long invocation = 1;  // 1-based: fail the Nth call
  bool trap = true;
  uint32_t value = 1;  // result substituted when !trap
};

// A fault-injection plan, used by the init/fini robustness harness to prove
// rollback correct under every possible failure point.
struct FaultPlan {
  std::vector<FaultInjection> injections;

  // Named swap-path injection points, consumed by the ReconfigEngine (not the
  // Machine): "swap-link" fails the replacement link, "swap-init" forces a
  // nonzero initializer status, "swap-init-trap" traps inside the initializer,
  // "swap-quiesce" aborts after quiescence is confirmed but before rebinding.
  std::vector<std::string> swap_points;

  bool empty() const { return injections.empty() && swap_points.empty(); }

  bool HasSwapPoint(const std::string& name) const {
    for (const std::string& point : swap_points) {
      if (point == name) {
        return true;
      }
    }
    return false;
  }
};

// ---- component profiling -----------------------------------------------------
//
// When profiling is enabled (Machine::EnableProfiling), every modeled cycle,
// I-cache stall, and instruction fetch is attributed to the Knit component whose
// code was executing (BytecodeFunction::component, stamped by the compile stage),
// and every call instruction whose caller and callee belong to different
// components is counted as a boundary crossing. Profiling is an observer: cycle
// counts, RunResults, and memory are bit-identical with profiling on or off, and
// a profiling-off run pays nothing: the interpreter loop is one body instantiated
// twice, and a host Call picks the profiling or the plain instance on entry.
// Pseudo-components: "<env>" (native/environment calls), "<init>" (the generated
// knit__init/knit__fini driver), "<other>" (functions without attribution, e.g.
// hand-assembled images).

// One component's share of a profiled run.
struct ComponentProfileEntry {
  std::string component;        // instance path or pseudo-component
  long long cycles = 0;         // includes this component's I-cache stalls
  long long ifetch_stalls = 0;
  long long insns = 0;
  long long calls_in = 0;   // calls entering from a different component
  long long calls_out = 0;  // calls leaving to a different component (incl. <env>)
  // Heap attribution (filled when an allocator unit reports through the
  // __alloc_note/__free_note intrinsics): bytes this component requested and
  // released, and the peak of its own live-byte count. Allocations are charged
  // to the REQUESTER — the innermost live frame whose component differs from
  // the allocator's — so the allocator unit itself stays a thin service row.
  long long bytes_alloc = 0;
  long long bytes_freed = 0;
  long long live_peak = 0;
};

// Call counts at component granularity. Rows with caller == callee are
// intra-component calls; rows with caller != callee are the boundary crossings
// flattening exists to eliminate.
struct BoundaryEdge {
  std::string caller;
  std::string callee;
  long long calls = 0;
};

// One component-entry or -exit on the modeled cycle timeline; emitted whenever a
// call/return moves execution into a frame of a different component (host entries
// included). Events nest like frames do, so the sequence renders as a flame chart
// (see ComponentProfileTrace / trace_event.h).
struct ProfileEvent {
  int component = 0;  // index into ComponentProfile::component_names
  bool begin = false;
  long long at_cycle = 0;
};

// Per-function entry counts from a profiled window, keyed by function name (the
// stable identity across rebuilds of the same configuration). Functions never
// entered are omitted — their absence is what the outline-cold PGO pass keys on.
struct FunctionCallCount {
  std::string function;
  long long calls = 0;
};

struct ComponentProfile {
  std::vector<ComponentProfileEntry> components;  // cycles-descending, then name
  std::vector<BoundaryEdge> edges;                // calls-descending, then names
  std::vector<FunctionCallCount> function_calls;  // calls-descending, then name
  std::vector<std::string> component_names;       // ProfileEvent::component table
  std::vector<ProfileEvent> events;
  bool events_truncated = false;  // hit the event cap; counters remain exact

  long long total_cycles = 0;  // sums of the per-component rows; equal to the
  long long total_ifetch_stalls = 0;  // Machine counter deltas over the profiled
  long long total_insns = 0;          // window — attribution never loses a cycle
  long long boundary_calls = 0;       // sum of edges with caller != callee
  // Exact sums of the per-component bytes_alloc/bytes_freed rows; equal to the
  // Machine's bytes_allocated()/bytes_freed() deltas over the profiled window
  // (live peaks are per-component maxima and deliberately have no sum row).
  long long total_bytes_alloc = 0;
  long long total_bytes_freed = 0;

  // Renders the per-component table and the top boundary edges as fixed-width
  // text (benches and knitc share this format).
  std::string ToText(size_t max_edges = 10) const;
};

struct RunResult {
  bool ok = false;
  uint32_t value = 0;
  std::string error;  // set when !ok: trap message plus rendered backtrace
  // Call stack at the trap, innermost frame first, each entry "function (pc N)".
  // Empty on success.
  std::vector<std::string> backtrace;
  // Component attribution is not part of a result: it accumulates on the
  // Machine across calls, and Machine::Profile() snapshots it on request.
};

class Machine {
 public:
  Machine(const Image& image, CostModel cost = CostModel(), uint32_t memory_bytes = 1 << 24);

  // Binds an implementation to a native name from the image. Unbound natives trap
  // when called. Built-ins (__sbrk, __putchar, __puthex, __cycles, __vararg,
  // __vararg_count, __abort, __trace, __alloc_note, __free_note) are pre-bound
  // when present in the image. Rebinding takes effect at the next native call.
  void BindNative(const std::string& name, NativeFn fn);

  // Calls a function by global symbol name or id. Runs to completion. The
  // profiling mode is read once on entry and holds for the whole call: enabling
  // or disabling profiling from inside a native affects the next host Call only.
  RunResult Call(const std::string& name, const std::vector<uint32_t>& args = {});
  RunResult CallId(int function_id, std::span<const uint32_t> args = {});

  // Counters.
  long long cycles() const { return cycles_; }
  long long ifetch_stalls() const { return ifetch_stalls_; }
  long long insns() const { return insns_; }
  void ResetCounters();

  // Component profiling (see ComponentProfile above). EnableProfiling builds the
  // function-id -> component table from the image and zeroes the attribution;
  // `max_events` caps the entry/exit event log (counters are exact regardless —
  // when the cap is hit, events stop and Profile().events_truncated is set).
  // `max_events` 0 means counters only: no event is logged and
  // events_truncated stays false. A profiled host Call allocates nothing once
  // the machine has run its call sites once (the event log aside).
  // Natives must not re-enter the Machine while profiling (none of the built-ins
  // do): a nested Call would double-attribute the nested cycles.
  void EnableProfiling(size_t max_events = 1 << 20);
  void DisableProfiling() { profiling_ = false; }
  bool profiling() const { return profiling_; }
  // Zeroes the accumulated attribution and event log (e.g. after warmup/init, so
  // a measured window sums exactly to the counter deltas over that window).
  void ResetProfile();
  // Snapshot of the accumulated attribution. `include_events` false skips copying
  // the (possibly large) event log.
  ComponentProfile Profile(bool include_events = true) const;

  // Fuel limit (defensive against runaway corpus code): exceeding it traps with
  // "fuel exhausted". Defaults to CostModel::max_insns.
  void set_max_insns(long long max) { max_insns_ = max; }
  long long fuel_remaining() const { return max_insns_ > insns_ ? max_insns_ - insns_ : 0; }

  // Fault injection: installing a plan resets the per-function invocation counters;
  // every subsequent call of a planned function is counted and the matching
  // invocation is forced to fail (see FaultInjection).
  void set_fault_plan(FaultPlan plan);
  void ClearFaultPlan() { set_fault_plan(FaultPlan()); }
  const FaultPlan& fault_plan() const { return fault_plan_; }

  // Memory access (for natives and tests). Out-of-range accesses trap the current
  // execution; from the host side they return 0 / are ignored with ok_ set false.
  uint32_t ReadWord(uint32_t address);
  void WriteWord(uint32_t address, uint32_t value);
  uint8_t ReadByte(uint32_t address);
  void WriteByte(uint32_t address, uint8_t value);
  std::string ReadCString(uint32_t address, uint32_t max_length = 4096);
  // Bulk forms. WriteBytes stores `bytes` at `address` exactly as a WriteByte
  // per byte would, trap included, in one copy when the whole range is valid.
  // ByteView returns the `size` bytes at `address` when the whole range is
  // valid and an empty span otherwise, without trapping; a caller that must
  // trap on a bad range falls back to ReadByte. The view is invalidated by the
  // next write to that memory.
  void WriteBytes(uint32_t address, std::span<const uint8_t> bytes);
  std::span<const uint8_t> ByteView(uint32_t address, uint32_t size) const;

  // Console output captured from __putchar (and from environment natives that
  // choose to print via AppendConsole).
  const std::string& console() const { return console_; }
  void AppendConsole(char c) { console_ += c; }
  void ClearConsole() { console_.clear(); }

  // Heap page-grant primitive, exposed to programs via the __sbrk native. This
  // is NOT an allocator: it hands out page-aligned regions (requests round up
  // to 4 KB pages) and never reuses them. Allocator UNITS (src/oskit
  // alloc_corpus) call it to grow their slabs and carve objects out themselves.
  // Exhaustion (the grant would run into the stack guard) returns 0 — the null
  // page — so allocators can surface failure as a null pointer, never a trap.
  uint32_t Sbrk(uint32_t bytes);
  uint32_t heap_end() const { return heap_end_; }

  // Heap accounting, reported by allocator units through the __alloc_note /
  // __free_note intrinsics on every SUCCESSFUL malloc/free. The totals are
  // always on (cumulative over the machine's lifetime — ResetCounters leaves
  // them alone so live_bytes stays truthful); per-component buckets fill only
  // while profiling, attributed to the requesting component (see
  // ComponentProfileEntry). Σ per-component == total by construction.
  void NoteAlloc(uint32_t bytes);
  void NoteFree(uint32_t bytes);
  long long bytes_allocated() const { return bytes_allocated_; }
  long long bytes_freed() const { return bytes_freed_; }
  long long live_bytes() const { return bytes_allocated_ - bytes_freed_; }
  long long live_peak() const { return live_peak_; }

  // Variadic support for natives implementing __vararg/__vararg_count: the current
  // frame's variadic arguments.
  int CurrentVarargCount() const;
  uint32_t CurrentVararg(int index);

  // ---- live reconfiguration support (see src/reconfig/) ----

  // True when no live frame belongs to `component` (BytecodeFunction::component of
  // the frame's function). A swap of that instance is safe exactly then: no call
  // into the old code is mid-flight, so rebinding can never tear a frame.
  bool ComponentQuiescent(const std::string& component) const;

  // Number of live frames (0 when the machine is idle between Calls).
  size_t FrameDepth() const { return frames_.size(); }

  // Nested-execution guard for natives that re-enter Call/CallId (the reconfig
  // engine's initializer runs do this): capture EvalDepth() before the nested
  // call; if it trapped, RecoverNestedTrap restores the evaluation stack and
  // clears the trap state so the outer execution can continue. The outer frames
  // themselves are untouched — CallId only unwinds frames it pushed.
  size_t EvalDepth() const { return eval_.size(); }
  void RecoverNestedTrap(size_t eval_depth);

  // Re-syncs machine state after the reconfig engine grew image().functions /
  // bindings in place: extends the profiling attribution tables for the new
  // function ids (interning new component names) WITHOUT zeroing accumulated
  // attribution, and drops BTB entries so stale indirect-call predictions can't
  // reference retired targets.
  void RefreshAfterImageGrowth();

  const Image& image() const { return image_; }

 private:
  struct Frame {
    int function = -1;
    int pc = 0;
    uint32_t fp = 0;
    size_t eval_base = 0;
    int vararg_count = 0;
    uint32_t vararg_base = 0;
    uint32_t saved_sp = 0;
  };

  enum class FaultAction { kNone, kTrap, kReturn };

  void Trap(const std::string& message);
  std::string TrapError() const;
  FaultAction CheckFault(const std::string& function, uint32_t* value_out);
  bool CheckRange(uint32_t address, uint32_t size);
  bool InRange(uint32_t address, size_t size) const;
  void ICacheAccess(uint32_t text_address);
  // Pushes a frame for `function_id` whose arguments are the evaluation-stack
  // words from `args_base` to the top; pops them whether or not it succeeds.
  template <bool kProfiling>
  bool EnterFunction(int function_id, size_t args_base);
  // The interpreter: runs until the frame pushed above `base_frames` returns or
  // the machine traps. One body, instantiated with and without profiling.
  template <bool kProfiling>
  RunResult RunLoop(size_t base_frames);
  // The binding for image().natives[index], or null when unbound.
  const NativeFn* NativeAt(size_t index);
  void BindBuiltins();

  // Profiling helpers (only called when profiling_).
  void ProfileCall(int caller_component, int callee_component);
  void ProfileMark(int component, bool begin);
  // The component a heap note is charged to: walking frames innermost-first,
  // the first frame whose component differs from the innermost's (the
  // allocator unit running the note); the allocator's own component when no
  // caller crosses a boundary; -1 with no frames (host-driven notes).
  int RequesterComponent() const;
  // The BTB slot of the call instruction at (function, pc), created empty
  // (kBtbEmpty) on first use. Invalidated by a native call (a native may grow
  // the image) and by RefreshAfterImageGrowth.
  int& BtbSlot(int function, int pc);

  struct FreeDeleter {
    void operator()(uint8_t* bytes) const { std::free(bytes); }
  };

  const Image& image_;
  CostModel cost_;
  // Guest memory comes from calloc: a large grant is fresh zero pages from the
  // OS, so only pages the program touches cost time or resident memory.
  std::unique_ptr<uint8_t[], FreeDeleter> memory_;
  uint32_t memory_size_;
  uint32_t heap_end_;
  uint32_t stack_pointer_;

  std::vector<uint32_t> eval_;
  std::vector<Frame> frames_;

  std::map<std::string, NativeFn> natives_;
  // Dense native-index -> binding table over natives_, built on the first native
  // call and cleared by BindNative and RefreshAfterImageGrowth.
  std::vector<const NativeFn*> native_table_;
  std::string console_;

  long long cycles_ = 0;
  long long ifetch_stalls_ = 0;
  long long insns_ = 0;
  long long max_insns_;  // initialized from CostModel::max_insns

  // Heap accounting totals (see NoteAlloc/NoteFree): cumulative, monotonic,
  // and survive ResetCounters so live_bytes() is always allocated - freed.
  long long bytes_allocated_ = 0;
  long long bytes_freed_ = 0;
  long long live_peak_ = 0;

  bool trapped_ = false;
  std::string trap_message_;
  std::vector<std::string> trap_backtrace_;

  FaultPlan fault_plan_;
  std::map<std::string, long long> invocation_counts_;

  // Profiling state. component id = index into profile_components_; natives all
  // attribute to env_component_; the host side of a Call is id -1 (no bucket).
  bool profiling_ = false;
  size_t max_profile_events_ = 0;
  std::vector<std::string> profile_components_;
  std::vector<int> function_component_;  // function id -> component id
  int env_component_ = -1;
  std::vector<long long> profile_cycles_;
  std::vector<long long> profile_stalls_;
  std::vector<long long> profile_insns_;
  std::vector<long long> profile_alloc_;      // bytes requested, per component
  std::vector<long long> profile_freed_;      // bytes released, per component
  std::vector<long long> profile_live_;       // current live bytes, per component
  std::vector<long long> profile_live_peak_;  // max of profile_live_ per component
  // Calls from component `caller` to `callee`, at [caller * components + callee].
  std::vector<long long> profile_edges_;
  std::vector<long long> profile_fn_calls_;  // function id -> entries
  std::vector<ProfileEvent> profile_events_;
  bool profile_events_truncated_ = false;

  // I-cache state: per set, per way: tag (-1 empty) and LRU stamp.
  struct CacheWay {
    int64_t tag = -1;
    uint64_t stamp = 0;
  };
  std::vector<CacheWay> icache_;
  int icache_sets_ = 0;
  uint64_t icache_clock_ = 0;
  // Shift/mask indexing when both the line size and the set count are powers
  // of two (icache_pow2_); divides otherwise.
  bool icache_pow2_ = false;
  int icache_line_shift_ = 0;
  int icache_set_shift_ = 0;
  // The line of the previous fetch. Refetching it is a hit that changes nothing
  // (see ICacheAccess), so it skips the set walk; -1 before the first fetch.
  int64_t icache_last_line_ = -1;

  // Branch target buffer for indirect and bound calls: the last target of the
  // call at [function id][pc], or kBtbEmpty before its first call. A function's
  // row is sized to its code on its first BTB lookup.
  static constexpr int kBtbEmpty = std::numeric_limits<int>::min();
  std::vector<std::vector<int>> btb_;
};

}  // namespace knit

#endif  // SRC_VM_MACHINE_H_
