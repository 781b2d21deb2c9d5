// Tree-walking interpreter for PerfScript interface programs.
//
// Thread-safety contract (relied on by src/serve's worker pool):
//  - An Interpreter instance is STATEFUL (globals, step counter, error
//    latch) and must never be shared between threads. Create one per
//    thread — construction is cheap.
//  - A parsed `Program` is immutable after parsing; any number of
//    Interpreters on any number of threads may evaluate against the same
//    Program concurrently.
//  - Workload `ScriptObject`s are read through const methods only;
//    implementations must keep GetAttr/NumChildren/Child free of hidden
//    mutation (all in-tree implementations are plain const reads).
//  - The interpreter itself holds no global or static mutable state.
#ifndef SRC_PERFSCRIPT_INTERP_H_
#define SRC_PERFSCRIPT_INTERP_H_

#include <string>
#include <vector>

#include "src/perfscript/ast.h"
#include "src/perfscript/value.h"

namespace perfiface {

struct EvalResult {
  bool ok = false;
  std::string error;
  Value value;

  // Convenience: the numeric result; aborts if !ok or non-numeric.
  double Num() const;
};

class Interpreter {
 public:
  // The program must outlive the interpreter.
  explicit Interpreter(const Program* program);

  // Calls a top-level function with the given arguments.
  EvalResult Call(const std::string& function, const std::vector<Value>& args);

  // Defines a global constant visible to every function (the paper's Fig 3
  // interface reads `avg_mem_latency`, a calibration constant shipped with
  // the accelerator).
  void SetGlobal(const std::string& name, double value);

  // Resource limits: interfaces are untrusted vendor-supplied programs, so
  // runaway recursion or loops must fail cleanly rather than hang the tool.
  void set_max_steps(std::uint64_t steps) { max_steps_ = steps; }
  void set_max_depth(std::size_t depth) { max_depth_ = depth; }

  // True if the last Call failed because the step budget ran out, letting
  // callers distinguish "program is broken" from "program was truncated"
  // without parsing the error string.
  bool step_budget_exhausted() const { return steps_ > max_steps_; }
  std::uint64_t steps_used() const { return steps_; }

 private:
  struct Frame {
    std::vector<std::pair<std::string, Value>> locals;
  };

  Value EvalExpr(const Expr& e, Frame* frame);
  // Returns true if a `return` was executed (result in *ret).
  bool ExecBlock(const std::vector<StmtPtr>& block, Frame* frame, Value* ret);
  bool ExecStmt(const Stmt& s, Frame* frame, Value* ret);
  Value CallFunction(const FunctionDef& f, const std::vector<Value>& args, int call_line);
  Value CallBuiltin(const Expr& call, std::vector<Value> args, bool* handled);
  Value* FindLocal(Frame* frame, const std::string& name);
  void SetLocal(Frame* frame, const std::string& name, Value v);

  void RuntimeError(int line, const std::string& msg);
  bool Step(int line);
  double NumOrError(const Value& v, int line, const char* what);

  const Program* program_;
  std::vector<std::pair<std::string, double>> globals_;
  bool failed_ = false;
  std::string error_;
  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_ = 50'000'000;
  std::size_t depth_ = 0;
  std::size_t max_depth_ = 200;
};

}  // namespace perfiface

#endif  // SRC_PERFSCRIPT_INTERP_H_
