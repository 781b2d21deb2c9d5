// Register-bytecode virtual machine for compiled PerfScript programs.
//
// A Vm executes the CompiledProgram form produced by CompileProgram
// (compile.h) with the same observable semantics as the tree-walking
// Interpreter (interp.h): identical results, identical error strings,
// identical recursion-depth limit. The one documented deviation is step
// accounting — the VM counts one step per executed bytecode instruction,
// except loop control (bounds test, child fetch, back edge), which is free
// as iterating is in the interpreter. Folding and slot resolution usually
// keep that at or below the interpreter's per-AST-node count
// (vm_diff_test checks it over its corpora), but it is not a bound for
// every program: a min/max over unchecked arguments, say, costs a move and
// a type check per argument. Exhaustion fails cleanly either way.
//
// Call memo: PerfScript functions are pure (globals are folded constants,
// builtins have no effects), and a host object's answers do not change
// during a call (the ScriptObject contract in value.h). So within one
// top-level Call, a kCall whose callee and arguments are bit-identical to
// an earlier call that returned (numbers by IEEE bits, so -0.0 and 0.0 and
// NaN payloads stay apart; objects by address) takes that call's result
// instead of running it. The memo adds no second deviation: a reused call
// is charged exactly the steps the recorded call consumed, and is reused
// only when those steps fit in the remaining budget and its recorded
// nesting fits under the depth limit from the current depth. Otherwise the
// call runs, so a budget or depth failure lands on the same instruction,
// line and steps_used() as without the memo. The head of a child-sum loop
// (kForSum, compile.h) reuses the memo by the same rule and adds no
// deviation either: it runs an iteration in place only when its child is
// the loop variable's previous value and the memo would answer the body's
// call, charges the steps the body would (5 plus the recorded call's) and
// counts the hit, and leaves to the body any iteration in which the body
// could reach the budget, back edge included. The table is direct-mapped,
// sized at four slots per call site (a power of two from 16 to 256), holds
// callees of at most kMemoMaxArgs arguments, and is reset by a generation
// count at every top-level Call, because object addresses are reused
// across calls.
//
// The hot path allocates nothing: the register file, frame stack, inline-
// cache array and memo table are owned by the Vm and reused across calls.
// Mirroring the Interpreter's thread-safety contract, a Vm is STATEFUL and
// must not be shared between threads, while the CompiledProgram it runs is
// immutable and freely shared (each Vm keeps only per-thread inline-cache
// hints and its memo). A call writes nothing shared: its cost is read back
// from steps_used() and memo_hits(), and whoever owns the Vm sums those
// into its own VmCounts.
#ifndef SRC_PERFSCRIPT_VM_H_
#define SRC_PERFSCRIPT_VM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/perfscript/compile.h"
#include "src/perfscript/interp.h"

namespace perfiface {

class Vm {
 public:
  explicit Vm(std::shared_ptr<const CompiledProgram> program);

  // Calls a top-level function; mirrors Interpreter::Call exactly.
  EvalResult Call(const std::string& function, const std::vector<Value>& args);

  void set_max_steps(std::uint64_t steps) { max_steps_ = steps; }
  void set_max_depth(std::size_t depth) { max_depth_ = depth; }
  bool step_budget_exhausted() const { return steps_ > max_steps_; }
  std::uint64_t steps_used() const { return steps_; }
  // Calls the last Call took from the call memo instead of running them.
  std::uint64_t memo_hits() const { return memo_hits_; }

  const CompiledProgram& program() const { return *program_; }

 private:
  static constexpr std::size_t kMemoMaxArgs = 4;
  static constexpr std::uint16_t kNoMemoSlot = 0xffff;

  struct Frame {
    const CompiledFunction* fn;
    // steps_ right after the kCall that pushed this frame was charged.
    std::uint64_t entry_steps;
    std::uint32_t base;
    std::uint32_t pc;
    // The caller's deepest_ when it made the call, restored at the return.
    std::uint32_t caller_deepest;
    // The pending memo entry the call fills when it returns.
    std::uint16_t memo_slot;
    std::uint8_t dst;
  };

  // One memoized call: the callee and its arguments (IEEE bits or object
  // address), and what the call returned and cost.
  struct MemoEntry {
    std::uint64_t args[kMemoMaxArgs];
    std::uint64_t result;
    std::uint64_t steps;  // steps the call consumed after its kCall
    std::uint64_t gen;    // the top-level Call that recorded it
    std::uint32_t height;  // depth of the call's call tree: 1 for a leaf
    std::uint16_t fn;
    std::uint8_t kinds;  // bit i: args[i] is an object; kResultObject
    std::uint8_t state;  // 0 (empty), kMemoPending or kMemoDone
  };
  static_assert(sizeof(MemoEntry) <= 64, "memo entries stay within a cache line");

  // The memo slot of a call to functions[fn] with the n arguments at args;
  // *kinds gets their kind bits.
  std::size_t MemoSlot(std::uint16_t fn, const Value* args, std::uint32_t n,
                       std::uint8_t* kinds) const;
  // Whether `e` holds a call of this top-level Call to functions[fn] with
  // these arguments that has returned.
  bool MemoDone(const MemoEntry& e, std::uint16_t fn, const Value* args, std::uint32_t n,
                std::uint8_t kinds) const;

  void EnsureRegs(std::size_t n) {
    if (regs_.size() < n) {
      regs_.resize(n < 2 * regs_.size() ? 2 * regs_.size() : n);
    }
  }

  std::shared_ptr<const CompiledProgram> program_;
  std::vector<Value> regs_;
  std::vector<Frame> frames_;
  // One inline-cache slot per kAttr site, shared across calls on this Vm
  // (per-thread by the no-sharing contract above).
  std::vector<std::uint32_t> ic_;
  // Empty when the program has no call sites; a slot is the top bits of
  // the key's hash, h >> memo_shift_.
  std::vector<MemoEntry> memo_;
  unsigned memo_shift_ = 63;
  std::uint64_t gen_ = 0;
  std::uint64_t memo_hits_ = 0;
  // Deepest call depth reached so far inside the running frame's call tree,
  // counting the recorded nesting of memoized calls (the entry call is
  // depth 1).
  std::uint32_t deepest_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_ = 50'000'000;
  std::size_t max_depth_ = 200;
};

// What top-level Vm::Call runs cost, summed by the owner of the Vms: the
// prediction service per worker, psc_tool for its one call.
struct VmCounts {
  std::uint64_t calls = 0;      // calls of a function the program defines
  std::uint64_t steps = 0;      // steps_used(), summed
  std::uint64_t errors = 0;     // calls that failed, unknown functions included
  std::uint64_t memo_hits = 0;  // memo_hits(), summed
};

// The perfiface_psc_vm_{calls,steps,errors,memo_hits}_total families.
void AppendVmPrometheus(std::string* out, const VmCounts& counts);

}  // namespace perfiface

#endif  // SRC_PERFSCRIPT_VM_H_
