// Bytecode compiler for PerfScript (docs/serving.md "Program compilation").
//
// Two compiled forms live here:
//
//  - CompiledProgram: a whole interface program lowered to register bytecode
//    for the Vm (vm.h). Lowering happens once, at registry load: variable
//    names resolve to register slots, calibration constants fold into the
//    instruction stream, builtin and function call targets resolve to
//    opcodes/indices, attribute reads get inline-cache sites, and `for`
//    loops get their iteration setup precomputed. Every program lowers
//    with the tree-walking interpreter's semantics (interp.h, the test
//    oracle): a read of a variable assigned on only some paths compiles to
//    a dynamic-scope load. The only refusals are bytecode size limits, which
//    the caller reports as a load error.
//
//  - CompiledExpr: a standalone expression (Petri-net delay/guard
//    annotations) bound once against a caller-supplied name resolver and
//    lowered onto the same register bytecode, evaluated many times with no
//    per-call lookups, parses, or allocations. This is the cached "bound
//    form" the .pnet loader stores per transition.
//
// Thread-safety: a CompiledProgram/CompiledExpr is immutable after
// compilation; any number of threads may execute it concurrently (each Vm
// instance holds the mutable state).
#ifndef SRC_PERFSCRIPT_COMPILE_H_
#define SRC_PERFSCRIPT_COMPILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/perfscript/ast.h"
#include "src/perfscript/value.h"

namespace perfiface {

struct EvalResult;  // interp.h

// ---------------------------------------------------------------------------
// Register bytecode (CompiledProgram + Vm)
// ---------------------------------------------------------------------------

enum class Op : std::uint8_t {
  kLoadConst,  // r[a] = consts[imm]
  kMove,       // r[a] = r[b]
  // Numeric binary ops: r[a] = r[b] op r[c]; both operands type-checked.
  kAdd, kSub, kMul, kDiv, kMod,
  kLt, kLe, kGt, kGe, kEq, kNe,
  // Constant-operand forms: r[a] = r[b] op consts[imm] (k*C) or
  // consts[imm] op r[b] (kR*C). kDivC is only emitted for a non-zero
  // constant divisor.
  kAddC, kSubC, kMulC, kDivC, kRSubC, kRDivC,
  kNeg,   // r[a] = -r[b]
  kNot,   // r[a] = r[b] == 0 ? 1 : 0
  kBool,  // r[a] = r[b] != 0 ? 1 : 0
  kCeil, kFloor, kAbs, kSqrt,  // r[a] = f(r[b])
  kMin2, kMax2,                // r[a] = MinNum/MaxNum(r[b], r[c]) (value.h)
  kLen,                        // r[a] = NumChildren(r[b])
  kCheckNum,   // error "<whats[imm]> must be a number" unless r[a] numeric
  kAttr,       // r[a] = r[b].<attr_names[imm]>; imm doubles as the IC slot
  kJmp,        // pc = imm
  kJmpIfZero,  // if r[a].num == 0: pc = imm (operand pre-checked numeric)
  kJmpIfNotZero,
  kJmpGe,      // if r[a].num >= r[b].num: pc = imm (loop bounds, numeric)
  kIterLen,    // r[a] = NumChildren(r[b]); error unless r[b] is an object
  kIterChild,  // r[a] = Child(r[b], r[c].num); error on null child
  kCall,       // r[a] = functions[imm](args at r[b]..r[b+c-1])
  kRet,        // return r[a]
  kError,      // raise errors[imm]
  // --- Fused superinstructions (docs/serving.md "Unified expression IR").
  // Emitted only by the peephole pass (FuseSuperinstructions) over already
  // type-checked code, plus kAnd2/kOr2 which the standalone-expression
  // lowering emits directly (net `and`/`or` do not short-circuit). Appended
  // after kError so existing opcode numbering is untouched.
  kMulAddCC,   // r[a] = r[b] * consts[imm] + consts[c]  (c indexes consts)
  kMulAddC,    // r[a] = r[b] * consts[imm] + r[c]; r[c] checked at runtime
  kFma,        // r[a] = r[a] + r[b] * r[c]; all three checked at runtime
  kMinC,       // r[a] = MinNum(r[b], consts[imm])
  kMaxC,       // r[a] = MaxNum(r[b], consts[imm])
  kClampCC,    // r[a] = MaxNum(MinNum(r[b], consts[imm]), consts[c])
  kCmpBranch,  // if cmp<c&7>(r[a], r[b]) == bool(c&8): pc = imm; both checked
  kAnd2,       // r[a] = (r[b] != 0 && r[c] != 0) ? 1 : 0
  kOr2,        // r[a] = (r[b] != 0 || r[c] != 0) ? 1 : 0
  // Dynamic-scope reads of maybe-assigned locals (assigned on only some
  // paths). The Vm marks such locals unassigned on function entry
  // (CompiledFunction::unassigned_on_entry), so these follow the
  // interpreter's lookup: the local if this call assigned it, else the
  // global constant, else an error.
  kLoadOrConst,  // r[a] = r[b] if assigned, else consts[imm]
  kCheckDef,     // raise errors[imm] unless r[a] is assigned
  // Head of the loop `for x in obj: acc += f(x)` with f of one argument,
  // put in place of its kJmpGe (same operands) after fusion. The body that
  // follows stays unchanged and is the exact path:
  //   forsum i, n -> exit; iterchild x, obj, i; move t, x; call t = f(t);
  //   checknum t; add acc, acc, t; addc i, i, K; jmp head
  // The Vm runs the bounds test and the child fetch here, and in place
  // every iteration whose child is x's previous value and whose call the
  // memo answers (vm.h); every other iteration continues in the body.
  kForSum,
};

// kCmpBranch comparison kinds (low 3 bits of `c`); bit 3 set means "branch
// when the comparison is true" (fused from kJmpIfNotZero), clear means
// "branch when false" (fused from kJmpIfZero).
inline constexpr std::uint8_t kCmpLt = 0, kCmpLe = 1, kCmpGt = 2, kCmpGe = 3,
                              kCmpEq = 4, kCmpNe = 5;
inline constexpr std::uint8_t kCmpBranchIfTrue = 8;

// Forces `x` through a rounded double so the compiler cannot contract a
// superinstruction's multiply+add into a hardware fma. A fused instruction
// must round exactly like the two instructions it replaced — that
// bit-identity is what the differential suites assert.
inline double RoundBarrier(double x) {
#if defined(__GNUC__) && defined(__x86_64__)
  asm("" : "+x"(x));
#elif defined(__GNUC__) && defined(__aarch64__)
  asm("" : "+w"(x));
#else
  volatile double y = x;
  x = y;
#endif
  return x;
}

// Operand kinds for kCheckNum's error message ("<what> must be a number"),
// chosen to reproduce the interpreter's messages exactly.
enum class CheckWhat : std::uint16_t {
  kOperand, kCondition, kAugTarget, kAugValue,
  kMinMaxArg, kCeilArg, kFloorArg, kAbsArg, kSqrtArg,
};
const char* CheckWhatName(CheckWhat what);

struct Instr {
  Op op = Op::kRet;
  std::uint8_t a = 0, b = 0, c = 0;
  std::uint16_t imm = 0;
  // Source line for runtime errors (clamped to 16 bits; interface programs
  // are tens of lines).
  std::uint16_t line = 0;
};

struct CompiledFunction {
  std::string name;
  int line = 0;  // definition line (arity errors point here, like interp)
  std::size_t num_params = 0;
  std::size_t num_regs = 0;    // frame size: params + locals + temps
  std::size_t num_locals = 0;  // params + named locals; temps live above
  std::vector<Instr> code;
  // Locals read through kLoadOrConst/kCheckDef; the Vm marks them
  // unassigned when a call enters this function. Empty for functions whose
  // every read is definitely assigned (nothing to reset).
  std::vector<std::uint8_t> unassigned_on_entry;
};

struct CompiledProgram {
  std::vector<CompiledFunction> functions;  // same order as the AST
  std::vector<double> consts;               // kLoadConst / k*C pool
  std::vector<std::string> attr_names;      // one per kAttr site (== IC slot)
  std::vector<std::string> errors;          // kError message pool

  // nullptr if the program defines no such function.
  const CompiledFunction* Find(const std::string& name) const;
  int FindIndex(const std::string& name) const;  // -1 if absent

  // Human-readable listing of every function (psc_tool --dump-bytecode).
  std::string Disassemble() const;
  std::string DisassembleFunction(const CompiledFunction& fn) const;
};

struct CompileProgramResult {
  // Null when the program exceeds a bytecode size limit: more than 250
  // registers in a function, more than 65535 instructions in a function, or
  // more than 65536 constants, attribute-read sites or error strings in the
  // program. `error` then says which; loading such a program is an error.
  std::shared_ptr<const CompiledProgram> program;
  std::string error;

  bool ok() const { return program != nullptr; }
};

// Lowers a parsed program with the given calibration constants folded in as
// immediates (the same values Interpreter::SetGlobal would install). Total
// up to the size limits above. The AST is only read during compilation and
// need not outlive the result.
CompileProgramResult CompileProgram(
    const Program& program,
    const std::vector<std::pair<std::string, double>>& constants);

// Peephole pass over register bytecode: rewrites adjacent instruction pairs
// into the fused superinstructions above (const-mul-add, fma, min/max-clamp,
// compare-and-branch). Applied to both CompiledProgram functions and the
// register form of CompiledExpr — one IR, one optimizer. A pair fuses only
// when the intermediate is a dead temp (register >= first_temp_reg, read
// nowhere else), no jump lands between the two, and both carry the same
// source line, so values, error messages, and error lines stay bit-identical
// to the unfused code. Jump targets are remapped.
void FuseSuperinstructions(std::vector<Instr>* code, const std::vector<double>& consts,
                           std::uint32_t first_temp_reg);

// ---------------------------------------------------------------------------
// Standalone expressions (CompiledExpr)
// ---------------------------------------------------------------------------

// How a free variable in a standalone expression resolves: either to a
// value fixed at compile time (net constants) or to a numeric slot read at
// every evaluation (token attribute index).
struct ExprBinding {
  enum class Kind { kConst, kSlot };
  Kind kind = Kind::kConst;
  double value = 0;
  std::uint32_t slot = 0;

  static ExprBinding Const(double v) { return {Kind::kConst, v, 0}; }
  static ExprBinding Slot(std::uint32_t s) { return {Kind::kSlot, 0, s}; }
};

// Resolves a variable name; std::nullopt makes compilation fail with an
// unknown-variable error.
using ExprBinder = std::function<std::optional<ExprBinding>(std::string_view)>;

// A standalone expression: a Petri-net delay or guard. Its compile errors
// speak of "net expressions" and ask for attrs/consts to be declared first.
class CompiledExpr {
 public:
  // Attribute slots an expression may read: registers [0, kMaxSlots)
  // mirror the slots, temps live above them in the 8-bit register file.
  static constexpr std::uint32_t kMaxSlots = 180;

  // Compiles a parsed expression; returns nullptr and sets *error on
  // unresolvable names, attribute access, unknown functions, or a size
  // limit (stack depth 64, a slot at or above kMaxSlots, more than 65535
  // instructions or 65536 constants).
  static std::unique_ptr<CompiledExpr> Compile(const Expr& expr, const ExprBinder& binder,
                                               std::string* error);
  // Parses and compiles in one step (counts one expression parse).
  static std::unique_ptr<CompiledExpr> CompileSource(std::string_view source,
                                                     const ExprBinder& binder,
                                                     std::string* error);

  // Evaluates the register form with slot values read through `slot`
  // (double(std::uint32_t)). A division or modulo by zero stops evaluation:
  // returns false with *error set to "line N: division by zero" (or
  // "modulo"). *value is written only on success.
  template <typename SlotFn>
  bool EvalRegs(SlotFn&& slot, double* value, std::string* error) const;
  // Same, packaged as an EvalResult.
  template <typename SlotFn>
  EvalResult EvalRegsChecked(SlotFn&& slot) const;

  // Canonical serialization of the compiled ops, rendered once by Compile:
  // constants are inlined and attributes slot-resolved, so the text pins
  // down behavior exactly. CompiledNet's structural hash (the derived
  // tier's model key) reads it, and the derived tier dedupes delay slots
  // by it. The format and the opcode numbering it exposes are pinned
  // (tests/golden/pnet_canonical.golden): a change moves every model key.
  const std::string& Canonical() const { return canonical_; }

  std::size_t num_ops() const { return ops_.size(); }

  // ------------------------------------------------------------------
  // Register-bytecode form (the unified IR). Compile() lowers the postfix
  // ops onto the same Instr set the Vm executes, with constant folding,
  // constant-operand forms, and the shared superinstruction peephole.
  // Registers [0, max_slot] mirror token attribute slots; temps live above.
  // ------------------------------------------------------------------
  const std::vector<Instr>& reg_code() const { return rcode_; }
  const std::vector<double>& reg_consts() const { return rconsts_; }
  std::uint32_t num_regs() const { return num_regs_; }
  // Attribute slots the expression reads, sorted ascending.
  const std::vector<std::uint32_t>& used_slots() const { return used_slots_; }
  // Human-readable listing (pnet_tool --dump-expr-bytecode).
  std::string DisassembleRegs() const;

  // The value of an expression that reads no attribute slot and cannot
  // fail, for the sim's constant delays and guards: exactly those lower to
  // `loadc r, k; ret r` (a zero divisor stays a runtime op). Empty
  // otherwise.
  std::optional<double> ConstantValue() const;

 private:
  // Numbering is load-bearing: Canonical() serializes the raw enum values.
  enum class ExprOp : std::uint8_t {
    kConst, kSlot, kAdd, kSub, kMul, kDiv, kMod, kLt, kLe, kGt, kGe, kEq, kNe,
    kAnd, kOr, kNeg, kNot, kCeil, kFloor, kAbs, kSqrt, kMin, kMax,
  };
  // Postfix form of the parsed expression: the source of Canonical() and
  // the register lowering. Never executed directly.
  struct ExprInstr {
    ExprOp op = ExprOp::kConst;
    double value = 0;
    std::uint32_t slot = 0;
    std::uint16_t line = 0;  // runtime div/mod-by-zero reporting only
  };
  static constexpr int kMaxStack = 64;

  bool Emit(const Expr& e, const ExprBinder& binder, std::string* error);
  // Builds rcode_/rconsts_ from ops_; false (with *error) on a size limit.
  bool LowerToRegs(std::string* error);

  std::vector<ExprInstr> ops_;
  std::string canonical_;
  std::vector<Instr> rcode_;
  std::vector<double> rconsts_;
  std::vector<std::uint32_t> used_slots_;
  std::uint32_t num_regs_ = 0;
};

}  // namespace perfiface

// Template bodies live out-of-line in a header so hot callers (the Petri
// firing path) inline the slot read.
#include "src/perfscript/compile_inl.h"  // IWYU pragma: keep

#endif  // SRC_PERFSCRIPT_COMPILE_H_
