// Per-translation-unit bytecode optimizer, deliberately modeled on what the paper
// relies on from gcc 2.95 after flattening ("turns function call nests into compact
// straight-line code, and eliminates redundant reads via common subexpression
// elimination"):
//
//  * Inlining of direct calls whose callee is defined EARLIER in the same object —
//    the same restriction that makes the flattener's defs-before-uses sorting
//    matter, and that confines inlining to a translation unit (so componentized
//    builds cannot inline across units; flattened builds can — and -O2's image
//    passes in src/vm/passes.h recover the same wins after linking).
//  * Local value numbering per basic block: constant folding, algebraic identities,
//    redundant-load elimination with store-to-load forwarding, dead pure code.
//  * Jump threading, unreachable-code removal, scratch store/load peepholes.
//  * Dead local-function elimination (inlined-away statics shrink the text, which
//    is why Table 1's flattened router is *smaller* than the modular one).
//
// The transforms are exposed as named building blocks; the pass manager
// (src/vm/passes.h) composes them into the standard pipeline.
#ifndef SRC_VM_OPTIMIZE_H_
#define SRC_VM_OPTIMIZE_H_

#include "src/obj/object.h"
#include "src/vm/codegen.h"

namespace knit {

struct CodegenOptions;

// Optimizes every function in the object in definition order, then removes dead
// local functions. Delegates to MakeObjectPassManager(); kept as the single-call
// entry point for codegen and targeted tests.
void OptimizeObject(ObjectFile& object, const CodegenOptions& options);

// The full per-function sequence: SimplifyControlFlow, LocalValueNumber,
// ThreadJumpChains, PeepholeOptimize.
void OptimizeFunction(BytecodeFunction& function);

// ---- building-block transforms (the pass manager's function passes) ----------

// Unreachable-code removal + nop compaction.
void SimplifyControlFlow(BytecodeFunction& function);
// Local value numbering over extended basic blocks.
void LocalValueNumber(BytecodeFunction& function);
// Jump-to-jump threading, then re-simplification.
void ThreadJumpChains(BytecodeFunction& function);
// Scratch store/load peephole plus the dead-store / pop-cancellation fixpoint.
void PeepholeOptimize(BytecodeFunction& function);

// ---- the inline rule (shared by the object-scope inliner below and the image
// scope's cross-inline pass in src/vm/passes.cc) -------------------------------
//
// Each scope names its callees its own way (object symbol vs image id), counts
// references its own way, and picks its own site (first eligible vs
// profile-hottest); the budget and the splice are the same.

// Size cap for inlining a callee at its only reference. Effectively unlimited:
// the body dies afterwards, so text never grows — what lets flattened builds
// both speed up and shrink, as in Table 1.
constexpr int kSingleCallLimit = 8192;

// Whether `callee` may replace `call`: not variadic; small (at most
// `inline_limit` insns) or, when `single_reference` says this call is its only
// use, at most kSingleCallLimit insns; and the call's argc and result flag
// match the callee's signature.
bool WithinInlineBudget(const BytecodeFunction& callee, const Insn& call, int inline_limit,
                        bool single_reference);

// Replaces the call at `pc` in `caller` with a copy of `callee`'s body: the
// arguments are stored into a fresh frame region, the body's locals and jumps
// are rebased, every ret becomes a jump past the copy, and the caller's own
// jumps over the site are shifted by the growth.
void SpliceCall(BytecodeFunction& caller, size_t pc, const BytecodeFunction& callee);

// Inlines direct calls to earlier-defined callees into `function_index`, within
// the options' budgets. Returns the number of call sites inlined.
int InlineCalls(ObjectFile& object, int function_index, const CodegenOptions& options);

// Removes local functions unreachable from any global text symbol or data reloc.
void RemoveDeadLocalFunctions(ObjectFile& object);

}  // namespace knit

#endif  // SRC_VM_OPTIMIZE_H_
