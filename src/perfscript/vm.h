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
// The hot path allocates nothing: the register file, frame stack, and
// inline-cache array are owned by the Vm and reused across calls. Mirroring
// the Interpreter's thread-safety contract, a Vm is STATEFUL and must not be
// shared between threads, while the CompiledProgram it runs is immutable and
// freely shared (each Vm keeps only per-thread inline-cache hints).
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

  const CompiledProgram& program() const { return *program_; }

 private:
  struct Frame {
    const CompiledFunction* fn;
    std::uint32_t base;
    std::uint32_t pc;
    std::uint8_t dst;
  };

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
  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_ = 50'000'000;
  std::size_t max_depth_ = 200;
};

}  // namespace perfiface

#endif  // SRC_PERFSCRIPT_VM_H_
