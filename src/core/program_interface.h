// Interfaces as executable programs (paper §3, Figs 2-3).
//
// A ProgramInterface loads a PerfScript source file shipped with the
// accelerator, holds the parsed program, and evaluates its prediction
// functions against workload descriptors. This mirrors how the paper
// envisions vendors shipping small Python programs alongside hardware.
//
// Thread-safety: after construction, SetConstant, and Compile calls are
// done, the object is effectively immutable — Eval builds a private Vm per
// call, so concurrent Eval from many threads is safe. Callers that want to
// amortize even that (one Vm per worker thread) share the bytecode via
// compiled(); see src/serve. The parsed program and its constants stay
// available through program()/constants() for reference evaluators.
#ifndef SRC_CORE_PROGRAM_INTERFACE_H_
#define SRC_CORE_PROGRAM_INTERFACE_H_

#include <memory>
#include <string>

#include "src/perfscript/ast.h"
#include "src/perfscript/compile.h"
#include "src/perfscript/value.h"

namespace perfiface {

class ProgramInterface {
 public:
  // Parses a PerfScript source string; aborts on syntax errors (a shipped
  // interface that does not parse is a packaging bug, not a runtime
  // condition).
  static ProgramInterface FromSource(const std::string& source);
  static ProgramInterface FromFile(const std::string& path);

  // Calibration constants referenced by the program (e.g. avg_mem_latency).
  // Invalidates any compiled form, since constants are folded into it.
  void SetConstant(const std::string& name, double value);

  // Lowers the program to register bytecode with the current constants
  // folded in (perfscript/compile.h). Idempotent; called by the registry
  // after all constants are set. Aborts with the compiler's message when
  // the program exceeds a bytecode size limit (like a syntax error, a
  // shipped interface that does not load is a packaging bug).
  void Compile();

  // The compiled bytecode, or nullptr if Compile was never called or a
  // constant changed since. Immutable and freely shared across threads
  // (each Vm keeps its own mutable state).
  const std::shared_ptr<const CompiledProgram>& compiled() const { return compiled_; }

  // Evaluates `function(workload)` on the bytecode VM; aborts with the
  // script error message on runtime failure. Without a current Compile(),
  // each call compiles a private copy first.
  double Eval(const std::string& function, const ScriptObject& workload) const;

  // True if the program defines `function` (interfaces expose different
  // prediction sets: some have bounds, some exact predictors).
  bool Has(const std::string& function) const;

  const std::string& source() const { return source_; }

  // The parsed program and the constants applied to it, for reference
  // evaluators (the Interpreter oracle) over the shared parse.
  const std::shared_ptr<Program>& program() const { return program_; }
  const std::vector<std::pair<std::string, double>>& constants() const { return constants_; }

 private:
  ProgramInterface() = default;

  std::string source_;
  std::shared_ptr<Program> program_;
  std::vector<std::pair<std::string, double>> constants_;
  std::shared_ptr<const CompiledProgram> compiled_;
};

}  // namespace perfiface

#endif  // SRC_CORE_PROGRAM_INTERFACE_H_
