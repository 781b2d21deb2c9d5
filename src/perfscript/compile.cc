#include "src/perfscript/compile.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <utility>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/perfscript/parser.h"

namespace perfiface {
namespace {

constexpr std::uint32_t kMaxRegs = 250;
constexpr std::size_t kMaxImm = 65535;

enum class Builtin { kNone, kMin, kMax, kCeil, kFloor, kAbs, kSqrt, kLen };

Builtin FindBuiltin(const std::string& name) {
  if (name == "min") return Builtin::kMin;
  if (name == "max") return Builtin::kMax;
  if (name == "ceil") return Builtin::kCeil;
  if (name == "floor") return Builtin::kFloor;
  if (name == "abs") return Builtin::kAbs;
  if (name == "sqrt") return Builtin::kSqrt;
  if (name == "len") return Builtin::kLen;
  return Builtin::kNone;
}

// The value an expression lowers to: a compile-time constant (nothing
// emitted), or a register — a named local's slot or a temp holding the
// result. `numeric` means the value is statically known to be a number, so
// type checks against it can be skipped.
struct Operand {
  bool is_const = false;
  double cval = 0;
  std::uint32_t reg = 0;
  bool numeric = false;

  static Operand Const(double v) {
    Operand o;
    o.is_const = true;
    o.cval = v;
    o.numeric = true;
    return o;
  }
  static Operand Reg(std::uint32_t r, bool numeric) {
    Operand o;
    o.reg = r;
    o.numeric = numeric;
    return o;
  }
};

// Collects every name the block can assign (kAssign and kFor targets, in
// source order). kAugAdd never creates a local, mirroring the interpreter.
void CollectAssignedNames(const std::vector<StmtPtr>& block, std::vector<std::string>* out) {
  for (const StmtPtr& s : block) {
    switch (s->kind) {
      case StmtKind::kAssign:
        out->push_back(s->target);
        break;
      case StmtKind::kFor:
        out->push_back(s->target);
        CollectAssignedNames(s->body, out);
        break;
      case StmtKind::kIf:
        CollectAssignedNames(s->body, out);
        CollectAssignedNames(s->else_body, out);
        break;
      default:
        break;
    }
  }
}

// Lowers one function. The analysis that makes register slots safe is
// definite assignment: a variable read compiles to a plain register access
// only when every path to the read assigns the variable first. A read of a
// variable that is assigned on only *some* paths (one `if` branch, inside a
// loop body) compiles to a dynamic-scope load (kLoadOrConst / kCheckDef)
// that resolves local-vs-global at runtime exactly like the interpreter;
// its register is marked unassigned on every entry to the function.
class FunctionCompiler {
 public:
  FunctionCompiler(const Program& program, const FunctionDef& fn,
                   const std::vector<std::pair<std::string, double>>& constants,
                   CompiledProgram* out)
      : program_(program), fn_(fn), constants_(constants), out_(out) {}

  // On failure (a size limit), *error says which.
  bool Compile(CompiledFunction* cf, std::string* error);

 private:
  // --- emission -----------------------------------------------------------
  void Emit(Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c, std::size_t imm,
            int line) {
    if (!ok_) return;
    if (a > 255 || b > 255 || c > 255 || imm > kMaxImm || cf_->code.size() >= kMaxImm) {
      Fail("function too large to lower");
      return;
    }
    Instr ins;
    ins.op = op;
    ins.a = static_cast<std::uint8_t>(a);
    ins.b = static_cast<std::uint8_t>(b);
    ins.c = static_cast<std::uint8_t>(c);
    ins.imm = static_cast<std::uint16_t>(imm);
    ins.line = static_cast<std::uint16_t>(line < 0 ? 0 : (line > 65535 ? 65535 : line));
    cf_->code.push_back(ins);
  }

  std::size_t ConstIdx(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const auto it = const_idx_.find(bits);
    if (it != const_idx_.end()) return it->second;
    const std::size_t idx = out_->consts.size();
    if (idx > kMaxImm) {
      Fail("constant pool overflow");
      return 0;
    }
    out_->consts.push_back(v);
    const_idx_[bits] = idx;
    return idx;
  }

  std::size_t ErrorIdx(const std::string& msg) {
    const auto it = error_idx_.find(msg);
    if (it != error_idx_.end()) return it->second;
    const std::size_t idx = out_->errors.size();
    if (idx > kMaxImm) {
      Fail("error pool overflow");
      return 0;
    }
    out_->errors.push_back(msg);
    error_idx_[msg] = idx;
    return idx;
  }

  void EmitError(int line, const std::string& msg) { Emit(Op::kError, 0, 0, 0, ErrorIdx(msg), line); }

  void EmitCheckNum(const Operand& o, CheckWhat what, int line) {
    if (o.is_const || o.numeric) return;
    Emit(Op::kCheckNum, o.reg, 0, 0, static_cast<std::size_t>(what), line);
  }

  // Returns the index of a jump instruction whose target is patched later.
  std::size_t EmitJump(Op op, std::uint32_t a, std::uint32_t b, int line) {
    Emit(op, a, b, 0, 0, line);
    return ok_ ? cf_->code.size() - 1 : 0;
  }
  void PatchJump(std::size_t at) {
    if (!ok_) return;
    if (cf_->code.size() > kMaxImm) {
      Fail("function too large to lower");
      return;
    }
    cf_->code[at].imm = static_cast<std::uint16_t>(cf_->code.size());
    max_jump_target_ = std::max(max_jump_target_, cf_->code.size());
  }
  void EmitJumpTo(Op op, std::uint32_t a, std::uint32_t b, std::size_t target, int line) {
    Emit(op, a, b, 0, target, line);
    max_jump_target_ = std::max(max_jump_target_, target);
  }

  // If the last emitted instruction wrote the single-use temp `reg`, rewrite
  // it to write `dst` directly instead of emitting a Move. Only temps
  // qualify (rewriting a named local's producer would corrupt the local),
  // and only when no jump lands on that instruction.
  bool TryRetargetLast(std::uint32_t reg, std::uint32_t dst) {
    if (!ok_ || reg < num_locals_ || cf_->code.empty()) return false;
    if (max_jump_target_ >= cf_->code.size()) return false;
    Instr& last = cf_->code.back();
    if (last.a != reg || !WritesA(last.op)) return false;
    last.a = static_cast<std::uint8_t>(dst);
    return true;
  }

  static bool WritesA(Op op) {
    switch (op) {
      case Op::kCheckNum:
      case Op::kCheckDef:
      case Op::kJmp:
      case Op::kJmpIfZero:
      case Op::kJmpIfNotZero:
      case Op::kJmpGe:
      case Op::kForSum:
      case Op::kRet:
      case Op::kError:
        return false;
      default:
        return true;
    }
  }

  // Allocates/uses the temp register at watermark `w`.
  std::uint32_t Temp(std::uint32_t w) {
    if (w >= kMaxRegs) {
      Fail("register file overflow");
      return 0;
    }
    max_regs_ = std::max<std::uint32_t>(max_regs_, w + 1);
    return w;
  }

  // Materializes an operand into a register: constants load into the temp
  // at `w`; register operands pass through.
  Operand Materialize(const Operand& o, std::uint32_t w, int line) {
    if (!o.is_const) return o;
    const std::uint32_t r = Temp(w);
    Emit(Op::kLoadConst, r, 0, 0, ConstIdx(o.cval), line);
    return Operand::Reg(r, true);
  }

  void Fail(const std::string& what) {
    if (ok_) {
      ok_ = false;
      error_ = StrFormat("%s: %s", fn_.name.c_str(), what.c_str());
    }
  }

  // Register of a maybe-assigned local that a dynamic-scope load reads.
  std::uint32_t DynamicLocal(const std::string& name) {
    const std::uint32_t reg = LocalReg(name);
    unassigned_on_entry_.insert(reg);
    return reg;
  }

  // --- analysis -----------------------------------------------------------
  // definite_ maps a variable that is assigned on *every* path to this
  // program point to whether its value is statically known numeric.
  using DefiniteMap = std::map<std::string, bool>;

  bool IsLoopAssigned(const std::string& name) const {
    for (const auto& set : loop_assigned_) {
      if (set.count(name) > 0) return true;
    }
    return false;
  }

  const double* FindConstant(const std::string& name) const {
    for (const auto& kv : constants_) {
      if (kv.first == name) return &kv.second;
    }
    return nullptr;
  }

  std::uint32_t LocalReg(const std::string& name) const {
    for (std::uint32_t i = 0; i < local_names_.size(); ++i) {
      if (local_names_[i] == name) return i;
    }
    PI_CHECK_MSG(false, "unallocated local");
    return 0;
  }

  // --- lowering -----------------------------------------------------------
  Operand LowerExpr(const Expr& e, std::uint32_t w);
  Operand LowerCall(const Expr& e, std::uint32_t w);
  Operand LowerBinary(const Expr& e, std::uint32_t w);
  void LowerBlock(const std::vector<StmtPtr>& block, std::uint32_t w);
  void LowerStmt(const Stmt& s, std::uint32_t w);
  void StoreTo(const Operand& v, std::uint32_t dst, int line);

  const Program& program_;
  const FunctionDef& fn_;
  const std::vector<std::pair<std::string, double>>& constants_;
  CompiledProgram* out_;
  CompiledFunction* cf_ = nullptr;

  std::vector<std::string> local_names_;
  std::uint32_t num_locals_ = 0;
  DefiniteMap definite_;
  std::set<std::string> maybe_;
  std::vector<std::set<std::string>> loop_assigned_;
  std::set<std::uint32_t> unassigned_on_entry_;

  std::map<std::uint64_t, std::size_t> const_idx_;
  std::map<std::string, std::size_t> error_idx_;
  std::size_t max_jump_target_ = 0;
  std::uint32_t max_regs_ = 0;

  bool ok_ = true;
  std::string error_;
};

bool FunctionCompiler::Compile(CompiledFunction* cf, std::string* error) {
  cf_ = cf;
  cf_->name = fn_.name;
  cf_->line = fn_.line;
  cf_->num_params = fn_.params.size();

  // Register layout: params, then every other assignable local (in source
  // order), then expression temps above them.
  for (const std::string& p : fn_.params) {
    local_names_.push_back(p);
  }
  std::vector<std::string> assigned;
  CollectAssignedNames(fn_.body, &assigned);
  for (const std::string& name : assigned) {
    bool seen = false;
    for (const std::string& existing : local_names_) {
      if (existing == name) {
        seen = true;
        break;
      }
    }
    if (!seen) local_names_.push_back(name);
  }
  if (local_names_.size() > kMaxRegs) {
    *error = StrFormat("%s: too many locals", fn_.name.c_str());
    return false;
  }
  num_locals_ = static_cast<std::uint32_t>(local_names_.size());
  max_regs_ = num_locals_;

  // Parameters arrive assigned; their runtime kind is unknown (a caller can
  // pass an object).
  for (const std::string& p : fn_.params) {
    definite_[p] = false;
    maybe_.insert(p);
  }

  LowerBlock(fn_.body, num_locals_);

  // Implicit `return 0` when control falls off the end (interp behavior).
  if (ok_) {
    const std::uint32_t r = Temp(num_locals_);
    Emit(Op::kLoadConst, r, 0, 0, ConstIdx(0.0), fn_.line);
    Emit(Op::kRet, r, 0, 0, 0, fn_.line);
  }

  if (!ok_) {
    *error = error_;
    return false;
  }
  cf_->num_regs = max_regs_;
  cf_->num_locals = num_locals_;
  cf_->unassigned_on_entry.assign(unassigned_on_entry_.begin(), unassigned_on_entry_.end());
  return true;
}

Operand FunctionCompiler::LowerExpr(const Expr& e, std::uint32_t w) {
  if (!ok_) return Operand::Const(0);
  switch (e.kind) {
    case ExprKind::kNumber:
      return Operand::Const(e.number);
    case ExprKind::kVar: {
      const auto it = definite_.find(e.name);
      if (it != definite_.end()) {
        return Operand::Reg(LocalReg(e.name), it->second);
      }
      if (maybe_.count(e.name) > 0 || IsLoopAssigned(e.name)) {
        // Whether this read sees the local or the global depends on the
        // path taken, so it resolves at runtime. No static type either way.
        const std::uint32_t local = DynamicLocal(e.name);
        if (const double* c = FindConstant(e.name)) {
          const std::uint32_t dst = Temp(w);
          Emit(Op::kLoadOrConst, dst, local, 0, ConstIdx(*c), e.line);
          return Operand::Reg(dst, false);
        }
        Emit(Op::kCheckDef, local, 0, 0,
             ErrorIdx(StrFormat("undefined variable '%s'", e.name.c_str())), e.line);
        return Operand::Reg(local, false);
      }
      if (const double* c = FindConstant(e.name)) {
        return Operand::Const(*c);
      }
      // Never assigned, not a global: this is a guaranteed runtime error if
      // reached (it may sit in dead code, so it must stay a runtime error,
      // not a compile failure).
      EmitError(e.line, StrFormat("undefined variable '%s'", e.name.c_str()));
      return Operand::Reg(Temp(w), true);
    }
    case ExprKind::kAttr: {
      Operand base = Materialize(LowerExpr(*e.children[0], w), w, e.line);
      const std::size_t site = out_->attr_names.size();
      if (site > kMaxImm) {
        Fail("attribute site overflow");
        return Operand::Const(0);
      }
      out_->attr_names.push_back(e.name);
      const std::uint32_t dst = Temp(w);
      Emit(Op::kAttr, dst, base.reg, 0, site, e.line);
      return Operand::Reg(dst, true);
    }
    case ExprKind::kCall:
      return LowerCall(e, w);
    case ExprKind::kUnary: {
      const Operand o = LowerExpr(*e.children[0], w);
      if (o.is_const) {
        return Operand::Const(e.un_op == UnOp::kNeg ? -o.cval : (o.cval == 0 ? 1 : 0));
      }
      const std::uint32_t dst = Temp(w);
      Emit(e.un_op == UnOp::kNeg ? Op::kNeg : Op::kNot, dst, o.reg, 0, 0, e.line);
      return Operand::Reg(dst, true);
    }
    case ExprKind::kBinary:
      return LowerBinary(e, w);
  }
  return Operand::Const(0);
}

Operand FunctionCompiler::LowerBinary(const Expr& e, std::uint32_t w) {
  const BinOp op = e.bin_op;
  // Short-circuit logical operators mirror the interpreter: evaluate and
  // type-check the lhs, decide, then evaluate/type-check the rhs.
  if (op == BinOp::kAnd || op == BinOp::kOr) {
    Operand l = LowerExpr(*e.children[0], w);
    if (l.is_const) {
      const bool l_true = l.cval != 0;
      if (op == BinOp::kAnd && !l_true) return Operand::Const(0);
      if (op == BinOp::kOr && l_true) return Operand::Const(1);
      Operand r = LowerExpr(*e.children[1], w);
      if (r.is_const) return Operand::Const(r.cval != 0 ? 1 : 0);
      EmitCheckNum(r, CheckWhat::kOperand, e.line);
      const std::uint32_t dst = Temp(w);
      Emit(Op::kBool, dst, r.reg, 0, 0, e.line);
      return Operand::Reg(dst, true);
    }
    EmitCheckNum(l, CheckWhat::kOperand, e.line);
    const std::uint32_t dst = Temp(w);
    const std::size_t skip = EmitJump(
        op == BinOp::kAnd ? Op::kJmpIfZero : Op::kJmpIfNotZero, l.reg, 0, e.line);
    // Keep dst alive: the rhs evaluates above it.
    Operand r = LowerExpr(*e.children[1], w + 1);
    EmitCheckNum(r, CheckWhat::kOperand, e.line);
    r = Materialize(r, w + 1, e.line);
    Emit(Op::kBool, dst, r.reg, 0, 0, e.line);
    const std::size_t done = EmitJump(Op::kJmp, 0, 0, e.line);
    PatchJump(skip);
    Emit(Op::kLoadConst, dst, 0, 0, ConstIdx(op == BinOp::kAnd ? 0.0 : 1.0), e.line);
    PatchJump(done);
    return Operand::Reg(dst, true);
  }

  Operand l = LowerExpr(*e.children[0], w);
  // The interpreter converts the lhs to a number *before* evaluating the
  // rhs, so a non-numeric lhs must win over any rhs error. Checking the lhs
  // register here (before any rhs code) preserves that order; statically
  // numeric operands skip the check.
  EmitCheckNum(l, CheckWhat::kOperand, e.line);
  std::uint32_t w_r = w;
  if (!l.is_const && l.reg >= num_locals_) w_r = l.reg + 1;
  Operand r = LowerExpr(*e.children[1], w_r);

  if (l.is_const && r.is_const) {
    const double a = l.cval;
    const double b = r.cval;
    switch (op) {
      case BinOp::kAdd: return Operand::Const(a + b);
      case BinOp::kSub: return Operand::Const(a - b);
      case BinOp::kMul: return Operand::Const(a * b);
      case BinOp::kDiv:
        if (b != 0) return Operand::Const(a / b);
        break;  // runtime "division by zero"
      case BinOp::kMod:
        if (b != 0) return Operand::Const(std::fmod(a, b));
        break;  // runtime "modulo by zero"
      case BinOp::kLt: return Operand::Const(a < b ? 1 : 0);
      case BinOp::kLe: return Operand::Const(a <= b ? 1 : 0);
      case BinOp::kGt: return Operand::Const(a > b ? 1 : 0);
      case BinOp::kGe: return Operand::Const(a >= b ? 1 : 0);
      case BinOp::kEq: return Operand::Const(a == b ? 1 : 0);
      case BinOp::kNe: return Operand::Const(a != b ? 1 : 0);
      case BinOp::kAnd:
      case BinOp::kOr:
        break;  // handled above
    }
  }

  // Constant-operand fast forms for the arithmetic core. By this point the
  // register operand is already type-checked (EmitCheckNum above for the
  // lhs; for a constant lhs the rhs check comes from the op itself), so
  // these run unchecked except kRDivC's divisor-zero test.
  const std::uint32_t dst = Temp(w);
  if (r.is_const && !l.is_const) {
    switch (op) {
      case BinOp::kAdd:
        Emit(Op::kAddC, dst, l.reg, 0, ConstIdx(r.cval), e.line);
        return Operand::Reg(dst, true);
      case BinOp::kSub:
        Emit(Op::kSubC, dst, l.reg, 0, ConstIdx(r.cval), e.line);
        return Operand::Reg(dst, true);
      case BinOp::kMul:
        Emit(Op::kMulC, dst, l.reg, 0, ConstIdx(r.cval), e.line);
        return Operand::Reg(dst, true);
      case BinOp::kDiv:
        if (r.cval != 0) {
          Emit(Op::kDivC, dst, l.reg, 0, ConstIdx(r.cval), e.line);
          return Operand::Reg(dst, true);
        }
        break;
      default:
        break;
    }
  }
  if (l.is_const && !r.is_const) {
    // The rhs register still needs its type check before the raw ops.
    EmitCheckNum(r, CheckWhat::kOperand, e.line);
    switch (op) {
      case BinOp::kAdd:
        Emit(Op::kAddC, dst, r.reg, 0, ConstIdx(l.cval), e.line);
        return Operand::Reg(dst, true);
      case BinOp::kMul:
        Emit(Op::kMulC, dst, r.reg, 0, ConstIdx(l.cval), e.line);
        return Operand::Reg(dst, true);
      case BinOp::kSub:
        Emit(Op::kRSubC, dst, r.reg, 0, ConstIdx(l.cval), e.line);
        return Operand::Reg(dst, true);
      case BinOp::kDiv:
        Emit(Op::kRDivC, dst, r.reg, 0, ConstIdx(l.cval), e.line);
        return Operand::Reg(dst, true);
      default:
        break;
    }
  }

  // A constant lhs loads above a temp rhs, which may sit at w.
  const std::uint32_t w_l =
      l.is_const && !r.is_const && r.reg >= num_locals_ ? std::max(w, r.reg + 1) : w;
  l = Materialize(l, w_l, e.line);
  std::uint32_t w_m = l.reg >= num_locals_ ? std::max(w, l.reg + 1) : w;
  r = Materialize(r, w_m, e.line);
  Op generic = Op::kAdd;
  switch (op) {
    case BinOp::kAdd: generic = Op::kAdd; break;
    case BinOp::kSub: generic = Op::kSub; break;
    case BinOp::kMul: generic = Op::kMul; break;
    case BinOp::kDiv: generic = Op::kDiv; break;
    case BinOp::kMod: generic = Op::kMod; break;
    case BinOp::kLt: generic = Op::kLt; break;
    case BinOp::kLe: generic = Op::kLe; break;
    case BinOp::kGt: generic = Op::kGt; break;
    case BinOp::kGe: generic = Op::kGe; break;
    case BinOp::kEq: generic = Op::kEq; break;
    case BinOp::kNe: generic = Op::kNe; break;
    case BinOp::kAnd:
    case BinOp::kOr: PI_CHECK_MSG(false, "logical op reached generic lowering"); break;
  }
  Emit(generic, dst, l.reg, r.reg, 0, e.line);
  return Operand::Reg(dst, true);
}

Operand FunctionCompiler::LowerCall(const Expr& e, std::uint32_t w) {
  const std::size_t n = e.children.size();
  const Builtin builtin = FindBuiltin(e.name);

  // The interpreter evaluates every argument before any builtin arity or
  // arity/undefined-function error, so lowering always emits the argument
  // code first. Arguments land in consecutive temps at w, w+1, ...; for
  // error paths they are evaluated for effect (errors) only.
  std::vector<Operand> args;
  args.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = w + static_cast<std::uint32_t>(i);
    Operand a = LowerExpr(*e.children[i], slot);
    if (!ok_) return Operand::Const(0);
    args.push_back(a);
  }

  auto all_const = [&]() {
    for (const Operand& a : args) {
      if (!a.is_const) return false;
    }
    return true;
  };
  // Forces argument i into its call slot w+i (needed when the chain/call
  // consumes them as a register block).
  auto place = [&](std::size_t i) {
    const std::uint32_t slot = w + static_cast<std::uint32_t>(i);
    Operand& a = args[i];
    if (a.is_const) {
      a = Materialize(a, slot, e.line);
    } else if (a.reg != slot) {
      if (!TryRetargetLast(a.reg, Temp(slot))) {
        Emit(Op::kMove, Temp(slot), a.reg, 0, 0, e.line);
      }
      a.reg = slot;
    }
  };

  switch (builtin) {
    case Builtin::kMin:
    case Builtin::kMax: {
      if (n < 1 || n > 16) {
        EmitError(e.line, StrFormat("%s: wrong argument count", e.name.c_str()));
        return Operand::Reg(Temp(w), true);
      }
      if (all_const()) {
        double best = args[0].cval;
        for (std::size_t i = 1; i < n; ++i) {
          best = builtin == Builtin::kMin ? MinNum(best, args[i].cval)
                                          : MaxNum(best, args[i].cval);
        }
        return Operand::Const(best);
      }
      for (std::size_t i = 0; i < n; ++i) place(i);
      // Type checks in argument order, like the interpreter's NumOrError
      // sweep, then a fold chain into the accumulator at w.
      for (std::size_t i = 0; i < n; ++i) {
        EmitCheckNum(args[i], CheckWhat::kMinMaxArg, e.line);
      }
      const Op fold = builtin == Builtin::kMin ? Op::kMin2 : Op::kMax2;
      for (std::size_t i = 1; i < n; ++i) {
        Emit(fold, w, w, w + static_cast<std::uint32_t>(i), 0, e.line);
      }
      return Operand::Reg(w, true);
    }
    case Builtin::kCeil:
    case Builtin::kFloor:
    case Builtin::kAbs:
    case Builtin::kSqrt: {
      if (n != 1) {
        EmitError(e.line, StrFormat("%s: wrong argument count", e.name.c_str()));
        return Operand::Reg(Temp(w), true);
      }
      if (args[0].is_const) {
        const double v = args[0].cval;
        switch (builtin) {
          case Builtin::kCeil: return Operand::Const(std::ceil(v));
          case Builtin::kFloor: return Operand::Const(std::floor(v));
          case Builtin::kAbs: return Operand::Const(std::fabs(v));
          default: return Operand::Const(std::sqrt(v));
        }
      }
      CheckWhat what = CheckWhat::kCeilArg;
      Op op = Op::kCeil;
      switch (builtin) {
        case Builtin::kCeil: what = CheckWhat::kCeilArg; op = Op::kCeil; break;
        case Builtin::kFloor: what = CheckWhat::kFloorArg; op = Op::kFloor; break;
        case Builtin::kAbs: what = CheckWhat::kAbsArg; op = Op::kAbs; break;
        default: what = CheckWhat::kSqrtArg; op = Op::kSqrt; break;
      }
      EmitCheckNum(args[0], what, e.line);
      const std::uint32_t dst = Temp(w);
      Emit(op, dst, args[0].reg, 0, 0, e.line);
      return Operand::Reg(dst, true);
    }
    case Builtin::kLen: {
      if (n != 1) {
        EmitError(e.line, "len: wrong argument count");
        return Operand::Reg(Temp(w), true);
      }
      const Operand a = Materialize(args[0], w, e.line);
      const std::uint32_t dst = Temp(w);
      Emit(Op::kLen, dst, a.reg, 0, 0, e.line);
      return Operand::Reg(dst, true);
    }
    case Builtin::kNone:
      break;
  }

  // User-defined function: resolve the callee index now; arity mismatches
  // and unknown names become runtime error instructions (they may be dead
  // code, and the interpreter only reports them when reached).
  int fidx = -1;
  for (std::size_t i = 0; i < program_.functions.size(); ++i) {
    if (program_.functions[i].name == e.name) {
      fidx = static_cast<int>(i);
      break;
    }
  }
  if (fidx < 0) {
    EmitError(e.line, StrFormat("undefined function '%s'", e.name.c_str()));
    return Operand::Reg(Temp(w), true);
  }
  const FunctionDef& callee = program_.functions[fidx];
  if (callee.params.size() != n) {
    EmitError(e.line, StrFormat("%s: expected %zu arguments, got %zu", e.name.c_str(),
                                callee.params.size(), n));
    return Operand::Reg(Temp(w), true);
  }
  for (std::size_t i = 0; i < n; ++i) place(i);
  if (n == 0) Temp(w);  // the result slot still needs a register
  // The callee's register window starts at the first argument slot, so the
  // arguments are already in place as its parameters (zero-copy call).
  Emit(Op::kCall, w, w, n, static_cast<std::size_t>(fidx), e.line);
  // A user function can return an object (`return msg`), so the result is
  // not statically numeric.
  return Operand::Reg(w, false);
}

// Stores a lowered value into a named local's register.
void FunctionCompiler::StoreTo(const Operand& v, std::uint32_t dst, int line) {
  if (v.is_const) {
    Emit(Op::kLoadConst, dst, 0, 0, ConstIdx(v.cval), line);
  } else if (v.reg != dst) {
    if (!TryRetargetLast(v.reg, dst)) {
      Emit(Op::kMove, dst, v.reg, 0, 0, line);
    }
  }
}

void FunctionCompiler::LowerBlock(const std::vector<StmtPtr>& block, std::uint32_t w) {
  for (const StmtPtr& s : block) {
    if (!ok_) return;
    LowerStmt(*s, w);
  }
}

void FunctionCompiler::LowerStmt(const Stmt& s, std::uint32_t w) {
  switch (s.kind) {
    case StmtKind::kAssign: {
      const Operand v = LowerExpr(*s.value, w);
      if (!ok_) return;
      StoreTo(v, LocalReg(s.target), s.line);
      definite_[s.target] = v.is_const || v.numeric;
      maybe_.insert(s.target);
      return;
    }
    case StmtKind::kAugAdd: {
      auto it = definite_.find(s.target);
      if (it == definite_.end()) {
        // The interpreter never falls back to globals for a '+=' target.
        const std::string undefined =
            StrFormat("undefined variable '%s'", s.target.c_str());
        if (maybe_.count(s.target) == 0 && !IsLoopAssigned(s.target)) {
          // Guaranteed runtime error when reached.
          EmitError(s.line, undefined);
          return;
        }
        // Maybe-assigned: an error unless this call assigned it. Past the
        // check the target is assigned, with no static type.
        Emit(Op::kCheckDef, DynamicLocal(s.target), 0, 0, ErrorIdx(undefined), s.line);
        it = definite_.emplace(s.target, false).first;
      }
      const std::uint32_t t = LocalReg(s.target);
      // Interpreter order: check the target's type, evaluate the value,
      // check the value's type, add.
      EmitCheckNum(Operand::Reg(t, it->second), CheckWhat::kAugTarget, s.line);
      const Operand v = LowerExpr(*s.value, w);
      if (!ok_) return;
      EmitCheckNum(v, CheckWhat::kAugValue, s.line);
      if (v.is_const) {
        Emit(Op::kAddC, t, t, 0, ConstIdx(v.cval), s.line);
      } else {
        Emit(Op::kAdd, t, t, v.reg, 0, s.line);
      }
      definite_[s.target] = true;
      return;
    }
    case StmtKind::kReturn: {
      Operand v = LowerExpr(*s.value, w);
      if (!ok_) return;
      v = Materialize(v, w, s.line);
      Emit(Op::kRet, v.reg, 0, 0, 0, s.line);
      return;
    }
    case StmtKind::kExpr:
      LowerExpr(*s.value, w);
      return;
    case StmtKind::kIf: {
      const Operand c = LowerExpr(*s.value, w);
      if (!ok_) return;
      if (c.is_const) {
        // A constant condition takes the same branch on every execution, so
        // only the taken branch is compiled; the other branch's assignments
        // never happen, exactly as in the interpreter.
        LowerBlock(c.cval != 0 ? s.body : s.else_body, w);
        return;
      }
      EmitCheckNum(c, CheckWhat::kCondition, s.line);
      const std::size_t to_else = EmitJump(Op::kJmpIfZero, c.reg, 0, s.line);
      const DefiniteMap before = definite_;
      LowerBlock(s.body, w);
      DefiniteMap after_then = definite_;
      if (s.else_body.empty()) {
        PatchJump(to_else);
        definite_ = before;
      } else {
        const std::size_t to_end = EmitJump(Op::kJmp, 0, 0, s.line);
        PatchJump(to_else);
        definite_ = before;
        LowerBlock(s.else_body, w);
        PatchJump(to_end);
        // Merge: definite afterwards iff definite on both paths; numeric
        // iff numeric on both.
        DefiniteMap merged;
        for (const auto& kv : after_then) {
          const auto other = definite_.find(kv.first);
          if (other != definite_.end()) {
            merged[kv.first] = kv.second && other->second;
          }
        }
        definite_ = std::move(merged);
        return;
      }
      // No else: merge then-branch against fallthrough state.
      DefiniteMap merged;
      for (const auto& kv : before) {
        const auto other = after_then.find(kv.first);
        if (other != after_then.end()) {
          merged[kv.first] = kv.second && other->second;
        }
      }
      definite_ = std::move(merged);
      return;
    }
    case StmtKind::kFor: {
      Operand iter = LowerExpr(*s.value, w);
      if (!ok_) return;
      iter = Materialize(iter, w, s.line);

      // Names assigned anywhere in the body: reads of them inside the body
      // resolve differently on iteration 1 vs 2+ unless definitely assigned
      // first (handled via loop_assigned_), and their static numeric-ness
      // cannot be trusted across the back edge.
      std::vector<std::string> body_assigned;
      CollectAssignedNames(s.body, &body_assigned);
      std::set<std::string> assigned_set(body_assigned.begin(), body_assigned.end());
      assigned_set.insert(s.target);

      std::uint32_t wl = iter.reg >= num_locals_ ? std::max(w, iter.reg + 1) : w;
      // The interpreter evaluates the iterable once, so a local that the
      // loop variable or the body reassigns is iterated from a snapshot.
      if (iter.reg < num_locals_ && assigned_set.count(local_names_[iter.reg]) > 0) {
        const std::uint32_t snapshot = Temp(wl);
        Emit(Op::kMove, snapshot, iter.reg, 0, 0, s.line);
        iter = Operand::Reg(snapshot, false);
        wl = snapshot + 1;
      }
      const std::uint32_t rn = Temp(wl);
      const std::uint32_t ri = Temp(wl + 1);
      if (!ok_) return;
      Emit(Op::kIterLen, rn, iter.reg, 0, 0, s.line);
      Emit(Op::kLoadConst, ri, 0, 0, ConstIdx(0.0), s.line);

      const DefiniteMap before = definite_;
      for (const std::string& name : body_assigned) {
        const auto it = definite_.find(name);
        if (it != definite_.end()) it->second = false;
      }
      definite_[s.target] = false;  // the loop variable is an object
      maybe_.insert(s.target);
      loop_assigned_.push_back(assigned_set);

      const std::size_t head = cf_->code.size();
      const std::size_t to_exit = EmitJump(Op::kJmpGe, ri, rn, s.line);
      Emit(Op::kIterChild, LocalReg(s.target), iter.reg, ri, 0, s.line);
      LowerBlock(s.body, wl + 2);
      Emit(Op::kAddC, ri, ri, 0, ConstIdx(1.0), s.line);
      EmitJumpTo(Op::kJmp, 0, 0, head, s.line);
      PatchJump(to_exit);

      loop_assigned_.pop_back();
      for (const std::string& name : body_assigned) maybe_.insert(name);
      // After the loop: a variable stays definite only if it was definite
      // before (zero-iteration path); its numeric-ness must hold on both
      // the zero-iteration and the post-body state.
      DefiniteMap merged;
      for (const auto& kv : before) {
        const auto now = definite_.find(kv.first);
        merged[kv.first] = kv.second && (now == definite_.end() || now->second);
      }
      definite_ = std::move(merged);
      return;
    }
  }
}

bool IsJumpOp(Op op) {
  return op == Op::kJmp || op == Op::kJmpIfZero || op == Op::kJmpIfNotZero ||
         op == Op::kJmpGe || op == Op::kCmpBranch || op == Op::kForSum;
}

bool InstrWritesA(Op op) {
  switch (op) {
    case Op::kCheckNum:
    case Op::kCheckDef:
    case Op::kJmp:
    case Op::kJmpIfZero:
    case Op::kJmpIfNotZero:
    case Op::kJmpGe:
    case Op::kForSum:
    case Op::kCmpBranch:
    case Op::kRet:
    case Op::kError:
      return false;
    default:
      return true;
  }
}

// Whether `ins` reads register `r`. Used by the fusion pass to prove the
// intermediate temp of a candidate pair is dead everywhere else; errs on the
// side of "reads it".
bool InstrReadsReg(const Instr& ins, std::uint32_t r) {
  switch (ins.op) {
    case Op::kLoadConst:
    case Op::kError:
    case Op::kJmp:
      return false;
    case Op::kMove:
    case Op::kNeg:
    case Op::kNot:
    case Op::kBool:
    case Op::kCeil:
    case Op::kFloor:
    case Op::kAbs:
    case Op::kSqrt:
    case Op::kLen:
    case Op::kIterLen:
    case Op::kAttr:
    case Op::kAddC:
    case Op::kSubC:
    case Op::kMulC:
    case Op::kDivC:
    case Op::kRSubC:
    case Op::kRDivC:
    case Op::kMinC:
    case Op::kMaxC:
    case Op::kClampCC:
    case Op::kMulAddCC:
    case Op::kLoadOrConst:
      return ins.b == r;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kEq:
    case Op::kNe:
    case Op::kMin2:
    case Op::kMax2:
    case Op::kIterChild:
    case Op::kAnd2:
    case Op::kOr2:
    case Op::kMulAddC:
      return ins.b == r || ins.c == r;
    case Op::kCheckNum:
    case Op::kCheckDef:
    case Op::kJmpIfZero:
    case Op::kJmpIfNotZero:
    case Op::kRet:
      return ins.a == r;
    case Op::kJmpGe:
    case Op::kCmpBranch:
      return ins.a == r || ins.b == r;
    case Op::kFma:
      return ins.a == r || ins.b == r || ins.c == r;
    case Op::kCall:
      // The callee's register window starts at b: arguments and the callee
      // frame alias everything at or above it.
      return r >= ins.b;
    case Op::kForSum:
      // Runs its whole loop body (marked only after fusion).
      return true;
  }
  return true;
}

// Whether the loop whose kJmpGe is code[head] is exactly what
// `for x in obj: acc += f(x)` lowers to with f of one argument, the
// registers it names all distinct (the shape kForSum documents).
bool IsForSumLoop(const std::vector<Instr>& code, std::size_t head) {
  if (head + 8 > code.size()) return false;
  const Instr* p = &code[head];
  const Instr& child = p[1];
  const Instr& move = p[2];
  const Instr& call = p[3];
  const Instr& check = p[4];
  const Instr& add = p[5];
  const Instr& next = p[6];
  const Instr& back = p[7];
  const std::uint8_t i = p[0].a;
  const std::uint8_t t = move.a;
  if (p[0].op != Op::kJmpGe || child.op != Op::kIterChild || child.c != i ||
      move.op != Op::kMove || move.b != child.a || call.op != Op::kCall || call.a != t ||
      call.b != t || call.c != 1 || check.op != Op::kCheckNum || check.a != t ||
      add.op != Op::kAdd || add.b != add.a || add.c != t || next.op != Op::kAddC ||
      next.a != i || next.b != i || back.op != Op::kJmp || back.imm != head) {
    return false;
  }
  const std::uint8_t regs[] = {i, p[0].b, child.a, child.b, t, add.a};
  for (std::size_t j = 0; j < std::size(regs); ++j) {
    for (std::size_t k = j + 1; k < std::size(regs); ++k) {
      if (regs[j] == regs[k]) return false;
    }
  }
  return true;
}

}  // namespace

void FuseSuperinstructions(std::vector<Instr>* code_ptr, const std::vector<double>& consts,
                           std::uint32_t first_temp_reg) {
  (void)consts;
  std::vector<Instr>& code = *code_ptr;

  bool straight_line = true;
  for (const Instr& ins : code) {
    if (IsJumpOp(ins.op) || ins.op == Op::kCall) {
      straight_line = false;
      break;
    }
  }

  // The intermediate temp of a candidate pair (instructions i, i+1) must be
  // provably dead outside the pair. Straight-line code gets a forward
  // liveness scan (a later write kills it); code with jumps/calls falls back
  // to "no other instruction anywhere reads it", which is sound without a
  // CFG.
  auto temp_dead_elsewhere = [&](std::uint32_t r, std::size_t i, std::size_t j) {
    if (r < first_temp_reg) return false;
    if (straight_line) {
      for (std::size_t k = j + 1; k < code.size(); ++k) {
        if (InstrReadsReg(code[k], r)) return false;
        if (InstrWritesA(code[k].op) && code[k].a == r) return true;
      }
      return true;
    }
    for (std::size_t k = 0; k < code.size(); ++k) {
      if (k == i || k == j) continue;
      if (InstrReadsReg(code[k], r)) return false;
    }
    return true;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    // A pair must not span a jump landing point: control could enter between
    // the two halves.
    std::vector<bool> target(code.size() + 1, false);
    for (const Instr& ins : code) {
      if (IsJumpOp(ins.op)) {
        target[std::min<std::size_t>(ins.imm, code.size())] = true;
      }
    }
    std::vector<Instr> out;
    out.reserve(code.size());
    std::vector<std::uint16_t> remap(code.size() + 1, 0);
    for (std::size_t i = 0; i < code.size(); ++i) {
      remap[i] = static_cast<std::uint16_t>(out.size());
      bool fused = false;
      // Fusing across source lines would change which line a runtime error
      // reports, so equal lines are part of the pattern.
      if (i + 1 < code.size() && !target[i + 1] && code[i].line == code[i + 1].line) {
        const Instr& x = code[i];
        const Instr& y = code[i + 1];
        Instr f;
        f.line = x.line;
        // const-mul-add: (t = b*C1; a = t + C2) -> muladdcc. The second
        // constant rides in the 8-bit c field, so its pool index must fit.
        if (x.op == Op::kMulC && y.op == Op::kAddC && y.b == x.a && y.imm <= 255 &&
            temp_dead_elsewhere(x.a, i, i + 1)) {
          f.op = Op::kMulAddCC;
          f.a = y.a;
          f.b = x.b;
          f.c = static_cast<std::uint8_t>(y.imm);
          f.imm = x.imm;
          fused = true;
          // attr-mul-add: (t = b*C; a = t + z). Only the t-first add form
          // fuses — swapping add operands could swap which NaN payload wins.
        } else if (x.op == Op::kMulC && y.op == Op::kAdd && y.b == x.a && y.c != x.a &&
                   temp_dead_elsewhere(x.a, i, i + 1)) {
          f.op = Op::kMulAddC;
          f.a = y.a;
          f.b = x.b;
          f.c = y.c;
          f.imm = x.imm;
          fused = true;
          // accumulate: (t = x*y; a = a + t) -> fma (the '+=' shape).
        } else if (x.op == Op::kMul && y.op == Op::kAdd && y.c == x.a && y.b == y.a &&
                   y.a != x.a && temp_dead_elsewhere(x.a, i, i + 1)) {
          f.op = Op::kFma;
          f.a = y.a;
          f.b = x.b;
          f.c = x.c;
          fused = true;
          // min/max against a just-loaded constant. Only the const-second
          // form fuses, so operands keep their order (of two NaNs MinNum
          // returns the second).
        } else if (x.op == Op::kLoadConst && (y.op == Op::kMin2 || y.op == Op::kMax2) &&
                   y.c == x.a && y.b != x.a && temp_dead_elsewhere(x.a, i, i + 1)) {
          f.op = y.op == Op::kMin2 ? Op::kMinC : Op::kMaxC;
          f.a = y.a;
          f.b = y.b;
          f.imm = x.imm;
          fused = true;
          // clamp: (t = MinNum(b, C1); a = MaxNum(t, C2)) -> clampcc. Reaches
          // fixpoint on the second pass once minc/maxc exist.
        } else if (x.op == Op::kMinC && y.op == Op::kMaxC && y.b == x.a && y.imm <= 255 &&
                   temp_dead_elsewhere(x.a, i, i + 1)) {
          f.op = Op::kClampCC;
          f.a = y.a;
          f.b = x.b;
          f.c = static_cast<std::uint8_t>(y.imm);
          f.imm = x.imm;
          fused = true;
          // compare-and-branch guards: (t = x cmp y; jz/jnz t) -> cmpbr.
        } else if (x.op >= Op::kLt && x.op <= Op::kNe &&
                   (y.op == Op::kJmpIfZero || y.op == Op::kJmpIfNotZero) && y.a == x.a &&
                   temp_dead_elsewhere(x.a, i, i + 1)) {
          f.op = Op::kCmpBranch;
          f.a = x.b;
          f.b = x.c;
          f.c = static_cast<std::uint8_t>(
              static_cast<int>(x.op) - static_cast<int>(Op::kLt) +
              (y.op == Op::kJmpIfNotZero ? kCmpBranchIfTrue : 0));
          f.imm = y.imm;
          fused = true;
        }
        if (fused) {
          out.push_back(f);
          remap[i + 1] = remap[i];
          ++i;
          changed = true;
        }
      }
      if (!fused) out.push_back(code[i]);
    }
    remap[code.size()] = static_cast<std::uint16_t>(out.size());
    for (Instr& ins : out) {
      if (IsJumpOp(ins.op)) {
        ins.imm = remap[std::min<std::size_t>(ins.imm, code.size())];
      }
    }
    code.swap(out);
  }
}

const CompiledFunction* CompiledProgram::Find(const std::string& name) const {
  const int idx = FindIndex(name);
  return idx < 0 ? nullptr : &functions[idx];
}

int CompiledProgram::FindIndex(const std::string& name) const {
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (functions[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const char* CheckWhatName(CheckWhat what) {
  switch (what) {
    case CheckWhat::kOperand: return "operand";
    case CheckWhat::kCondition: return "condition";
    case CheckWhat::kAugTarget: return "'+=' target";
    case CheckWhat::kAugValue: return "'+=' value";
    case CheckWhat::kMinMaxArg: return "min/max argument";
    case CheckWhat::kCeilArg: return "ceil argument";
    case CheckWhat::kFloorArg: return "floor argument";
    case CheckWhat::kAbsArg: return "abs argument";
    case CheckWhat::kSqrtArg: return "sqrt argument";
  }
  return "operand";
}

CompileProgramResult CompileProgram(
    const Program& program,
    const std::vector<std::pair<std::string, double>>& constants) {
  CompileProgramResult result;
  auto out = std::make_shared<CompiledProgram>();
  out->functions.resize(program.functions.size());
  for (std::size_t i = 0; i < program.functions.size(); ++i) {
    FunctionCompiler fc(program, program.functions[i], constants, out.get());
    if (!fc.Compile(&out->functions[i], &result.error)) {
      return result;
    }
  }
  // The shared peephole runs after every function lowers: the superinstruction
  // set is part of the one IR both pipelines execute. Then each child-sum
  // loop head is marked (programs only: expressions have no loops).
  for (CompiledFunction& fn : out->functions) {
    FuseSuperinstructions(&fn.code, out->consts, static_cast<std::uint32_t>(fn.num_locals));
    for (std::size_t head = 0; head < fn.code.size(); ++head) {
      if (IsForSumLoop(fn.code, head)) fn.code[head].op = Op::kForSum;
    }
  }
  result.program = std::move(out);
  return result;
}

namespace {

const char* OpName(Op op) {
  switch (op) {
    case Op::kLoadConst: return "loadc";
    case Op::kMove: return "move";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kAddC: return "addc";
    case Op::kSubC: return "subc";
    case Op::kMulC: return "mulc";
    case Op::kDivC: return "divc";
    case Op::kRSubC: return "rsubc";
    case Op::kRDivC: return "rdivc";
    case Op::kNeg: return "neg";
    case Op::kNot: return "not";
    case Op::kBool: return "bool";
    case Op::kCeil: return "ceil";
    case Op::kFloor: return "floor";
    case Op::kAbs: return "abs";
    case Op::kSqrt: return "sqrt";
    case Op::kMin2: return "min2";
    case Op::kMax2: return "max2";
    case Op::kLen: return "len";
    case Op::kCheckNum: return "checknum";
    case Op::kAttr: return "attr";
    case Op::kJmp: return "jmp";
    case Op::kJmpIfZero: return "jz";
    case Op::kJmpIfNotZero: return "jnz";
    case Op::kJmpGe: return "jge";
    case Op::kIterLen: return "iterlen";
    case Op::kIterChild: return "iterchild";
    case Op::kCall: return "call";
    case Op::kRet: return "ret";
    case Op::kError: return "error";
    case Op::kMulAddCC: return "muladdcc";
    case Op::kMulAddC: return "muladdc";
    case Op::kFma: return "fma";
    case Op::kMinC: return "minc";
    case Op::kMaxC: return "maxc";
    case Op::kClampCC: return "clampcc";
    case Op::kCmpBranch: return "cmpbr";
    case Op::kAnd2: return "and2";
    case Op::kOr2: return "or2";
    case Op::kLoadOrConst: return "loadorc";
    case Op::kCheckDef: return "checkdef";
    case Op::kForSum: return "forsum";
  }
  return "?";
}

const char* CmpName(std::uint8_t kind) {
  switch (kind & 7) {
    case kCmpLt: return "<";
    case kCmpLe: return "<=";
    case kCmpGt: return ">";
    case kCmpGe: return ">=";
    case kCmpEq: return "==";
    case kCmpNe: return "!=";
  }
  return "?";
}

// One line of a bytecode listing. `program` resolves what only programs
// hold (attribute caches, callees, error strings): expressions pass null.
std::string DisassembleInstr(std::size_t index, const Instr& ins,
                             const std::vector<double>& consts,
                             const CompiledProgram* program) {
  std::string out = StrFormat("  %4zu: %-9s", index, OpName(ins.op));
  switch (ins.op) {
    case Op::kLoadConst:
    case Op::kAddC:
    case Op::kSubC:
    case Op::kMulC:
    case Op::kDivC:
    case Op::kRSubC:
    case Op::kRDivC:
    case Op::kMinC:
    case Op::kMaxC:
      out += StrFormat("r%u", ins.a);
      if (ins.op != Op::kLoadConst) out += StrFormat(", r%u", ins.b);
      out += StrFormat(", %g", consts[ins.imm]);
      break;
    case Op::kMove:
    case Op::kNeg:
    case Op::kNot:
    case Op::kBool:
    case Op::kCeil:
    case Op::kFloor:
    case Op::kAbs:
    case Op::kSqrt:
    case Op::kLen:
    case Op::kIterLen:
      out += StrFormat("r%u, r%u", ins.a, ins.b);
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kEq:
    case Op::kNe:
    case Op::kMin2:
    case Op::kMax2:
    case Op::kAnd2:
    case Op::kOr2:
    case Op::kIterChild:
      out += StrFormat("r%u, r%u, r%u", ins.a, ins.b, ins.c);
      break;
    case Op::kCheckNum:
      out += StrFormat("r%u (%s)", ins.a, CheckWhatName(static_cast<CheckWhat>(ins.imm)));
      break;
    case Op::kAttr:
      out += StrFormat("r%u, r%u.%s [ic %u]", ins.a, ins.b,
                       program->attr_names[ins.imm].c_str(), ins.imm);
      break;
    case Op::kJmp:
      out += StrFormat("-> %u", ins.imm);
      break;
    case Op::kJmpIfZero:
    case Op::kJmpIfNotZero:
      out += StrFormat("r%u -> %u", ins.a, ins.imm);
      break;
    case Op::kJmpGe:
    case Op::kForSum:
      out += StrFormat("r%u, r%u -> %u", ins.a, ins.b, ins.imm);
      break;
    case Op::kCall:
      out += StrFormat("r%u = %s(r%u..r%u)", ins.a, program->functions[ins.imm].name.c_str(),
                       ins.b, ins.b + (ins.c == 0 ? 0 : ins.c - 1));
      break;
    case Op::kRet:
      out += StrFormat("r%u", ins.a);
      break;
    case Op::kError:
      out += StrFormat("\"%s\"", program->errors[ins.imm].c_str());
      break;
    case Op::kMulAddCC:
      out += StrFormat("r%u, r%u * %g + %g", ins.a, ins.b, consts[ins.imm], consts[ins.c]);
      break;
    case Op::kMulAddC:
      out += StrFormat("r%u, r%u * %g + r%u", ins.a, ins.b, consts[ins.imm], ins.c);
      break;
    case Op::kFma:
      out += StrFormat("r%u += r%u * r%u", ins.a, ins.b, ins.c);
      break;
    case Op::kClampCC:
      out += StrFormat("r%u, r%u in [%g, %g]", ins.a, ins.b, consts[ins.c], consts[ins.imm]);
      break;
    case Op::kCmpBranch:
      out += StrFormat("r%u %s r%u %s-> %u", ins.a, CmpName(ins.c), ins.b,
                       (ins.c & kCmpBranchIfTrue) ? "" : "!", ins.imm);
      break;
    case Op::kLoadOrConst:
      out += StrFormat("r%u, r%u or %g", ins.a, ins.b, consts[ins.imm]);
      break;
    case Op::kCheckDef:
      out += StrFormat("r%u else \"%s\"", ins.a, program->errors[ins.imm].c_str());
      break;
  }
  out += StrFormat("   ; line %u\n", ins.line);
  return out;
}

}  // namespace

std::string CompiledProgram::DisassembleFunction(const CompiledFunction& fn) const {
  std::string out = StrFormat("function %s(%zu params, %zu regs):\n", fn.name.c_str(),
                              fn.num_params, fn.num_regs);
  if (!fn.unassigned_on_entry.empty()) {
    out += "  unassigned on entry:";
    for (const std::uint8_t r : fn.unassigned_on_entry) {
      out += StrFormat(" r%u", r);
    }
    out += "\n";
  }
  for (std::size_t i = 0; i < fn.code.size(); ++i) {
    out += DisassembleInstr(i, fn.code[i], consts, this);
  }
  return out;
}

std::string CompiledProgram::Disassemble() const {
  std::string out;
  for (const CompiledFunction& fn : functions) {
    out += DisassembleFunction(fn);
  }
  return out;
}

// ---------------------------------------------------------------------------
// CompiledExpr
// ---------------------------------------------------------------------------

std::unique_ptr<CompiledExpr> CompiledExpr::Compile(const Expr& expr, const ExprBinder& binder,
                                                    std::string* error) {
  auto compiled = std::unique_ptr<CompiledExpr>(new CompiledExpr());
  if (!compiled->Emit(expr, binder, error)) {
    return nullptr;
  }
  // Postfix depth bounds the temps the register lowering needs above the
  // slot registers (kMaxSlots + kMaxStack + 2 scratch fit in 8 bits).
  int depth = 0;
  int max_depth = 0;
  for (const ExprInstr& op : compiled->ops_) {
    switch (op.op) {
      case ExprOp::kConst:
      case ExprOp::kSlot:
        ++depth;
        break;
      case ExprOp::kNeg:
      case ExprOp::kNot:
      case ExprOp::kCeil:
      case ExprOp::kFloor:
      case ExprOp::kAbs:
      case ExprOp::kSqrt:
        break;
      default:
        --depth;
        break;
    }
    max_depth = std::max(max_depth, depth);
  }
  if (max_depth > kMaxStack) {
    *error = "expression too deep";
    return nullptr;
  }
  // ops_ is final; the canonical text and the register form are derived
  // views on top.
  if (!compiled->LowerToRegs(error)) {
    return nullptr;
  }
  compiled->canonical_.reserve(compiled->ops_.size() * 8);
  for (const ExprInstr& op : compiled->ops_) {
    compiled->canonical_ +=
        StrFormat("%u:%.17g:%u;", static_cast<unsigned>(op.op), op.value, op.slot);
  }
  return compiled;
}

std::unique_ptr<CompiledExpr> CompiledExpr::CompileSource(std::string_view source,
                                                          const ExprBinder& binder,
                                                          std::string* error) {
  ParseExprResult parsed = ParseExpression(source);
  if (!parsed.ok) {
    *error = parsed.error;
    return nullptr;
  }
  return Compile(*parsed.expr, binder, error);
}

bool CompiledExpr::Emit(const Expr& e, const ExprBinder& binder, std::string* error) {
  const std::uint16_t line =
      static_cast<std::uint16_t>(e.line < 0 ? 0 : (e.line > 65535 ? 65535 : e.line));
  auto push = [&](ExprOp op) { ops_.push_back(ExprInstr{op, 0, 0, line}); };
  switch (e.kind) {
    case ExprKind::kNumber:
      ops_.push_back(ExprInstr{ExprOp::kConst, e.number, 0, line});
      return true;
    case ExprKind::kVar: {
      const std::optional<ExprBinding> binding = binder(e.name);
      if (!binding.has_value()) {
        *error = StrFormat("line %d: unknown variable '%s' (declare attrs/consts first)", e.line,
                           e.name.c_str());
        return false;
      }
      if (binding->kind == ExprBinding::Kind::kConst) {
        ops_.push_back(ExprInstr{ExprOp::kConst, binding->value, 0, line});
      } else {
        ops_.push_back(ExprInstr{ExprOp::kSlot, 0, binding->slot, line});
      }
      return true;
    }
    case ExprKind::kAttr:
      *error = StrFormat("line %d: attribute access is not allowed in net expressions", e.line);
      return false;
    case ExprKind::kUnary:
      if (!Emit(*e.children[0], binder, error)) {
        return false;
      }
      push(e.un_op == UnOp::kNeg ? ExprOp::kNeg : ExprOp::kNot);
      return true;
    case ExprKind::kCall: {
      ExprOp unary_op = ExprOp::kCeil;
      bool is_unary = true;
      if (e.name == "ceil") unary_op = ExprOp::kCeil;
      else if (e.name == "floor") unary_op = ExprOp::kFloor;
      else if (e.name == "abs") unary_op = ExprOp::kAbs;
      else if (e.name == "sqrt") unary_op = ExprOp::kSqrt;
      else is_unary = false;
      if (is_unary && e.children.size() == 1) {
        if (!Emit(*e.children[0], binder, error)) {
          return false;
        }
        push(unary_op);
        return true;
      }
      if ((e.name == "min" || e.name == "max") && !e.children.empty()) {
        if (!Emit(*e.children[0], binder, error)) {
          return false;
        }
        for (std::size_t i = 1; i < e.children.size(); ++i) {
          if (!Emit(*e.children[i], binder, error)) {
            return false;
          }
          push(e.name == "min" ? ExprOp::kMin : ExprOp::kMax);
        }
        return true;
      }
      *error =
          StrFormat("line %d: unknown function '%s' in net expressions", e.line, e.name.c_str());
      return false;
    }
    case ExprKind::kBinary: {
      if (!Emit(*e.children[0], binder, error) ||
          !Emit(*e.children[1], binder, error)) {
        return false;
      }
      switch (e.bin_op) {
        case BinOp::kAdd: push(ExprOp::kAdd); break;
        case BinOp::kSub: push(ExprOp::kSub); break;
        case BinOp::kMul: push(ExprOp::kMul); break;
        case BinOp::kDiv: push(ExprOp::kDiv); break;
        case BinOp::kMod: push(ExprOp::kMod); break;
        case BinOp::kLt: push(ExprOp::kLt); break;
        case BinOp::kLe: push(ExprOp::kLe); break;
        case BinOp::kGt: push(ExprOp::kGt); break;
        case BinOp::kGe: push(ExprOp::kGe); break;
        case BinOp::kEq: push(ExprOp::kEq); break;
        case BinOp::kNe: push(ExprOp::kNe); break;
        case BinOp::kAnd: push(ExprOp::kAnd); break;
        case BinOp::kOr: push(ExprOp::kOr); break;
      }
      return true;
    }
  }
  return false;
}

// Lowers the postfix ops onto the shared register instruction set.
// Strictly order-preserving: no reassociation, constants fold with the same
// std:: calls a direct evaluation uses, commuted constant forms (kAddC/kMulC
// with a constant lhs) are taken only for non-NaN constants (NaN payload
// propagation is the one way IEEE add/mul observe operand order), and a
// constant zero divisor is left as a generic kDiv/kMod so the runtime error
// fires at its own line. The only refusals are size limits.
bool CompiledExpr::LowerToRegs(std::string* error) {

  // Registers [0, slot_limit) mirror attribute slots identically; temps live
  // above. The prelude in RunRegs loads only used_slots_.
  std::uint32_t slot_limit = 0;
  for (const ExprInstr& op : ops_) {
    if (op.op == ExprOp::kSlot) {
      used_slots_.push_back(op.slot);
      slot_limit = std::max(slot_limit, op.slot + 1);
    }
  }
  std::sort(used_slots_.begin(), used_slots_.end());
  used_slots_.erase(std::unique(used_slots_.begin(), used_slots_.end()), used_slots_.end());
  // Temps need headroom below the 8-bit operand fields (64 stack slots + 2
  // materialization scratch regs).
  if (slot_limit > kMaxSlots) {
    *error = StrFormat("expression reads attribute slot %u (at most %u attributes)",
                       slot_limit - 1, kMaxSlots);
    return false;
  }
  bool ok = true;

  struct VOp {
    bool is_const = false;
    double cval = 0;
    std::uint32_t reg = 0;
  };
  std::vector<VOp> stk;
  stk.reserve(16);
  std::uint32_t max_reg = slot_limit;

  auto const_idx = [&](double v) -> std::size_t {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (std::size_t i = 0; i < rconsts_.size(); ++i) {
      std::uint64_t have;
      std::memcpy(&have, &rconsts_[i], sizeof(have));
      if (have == bits) return i;
    }
    rconsts_.push_back(v);
    return rconsts_.size() - 1;
  };
  auto emit = [&](Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                  std::size_t imm, std::uint16_t line) {
    if (a > 255 || b > 255 || c > 255 || imm > kMaxImm || rcode_.size() >= kMaxImm) {
      ok = false;
      return;
    }
    max_reg = std::max({max_reg, a + 1, b + 1, c + 1});
    Instr ins;
    ins.op = op;
    ins.a = static_cast<std::uint8_t>(a);
    ins.b = static_cast<std::uint8_t>(b);
    ins.c = static_cast<std::uint8_t>(c);
    ins.imm = static_cast<std::uint16_t>(imm);
    ins.line = line;
    rcode_.push_back(ins);
  };
  // First temp register above every live temp on the virtual stack
  // (constants occupy no register until materialized).
  auto temp_base = [&]() {
    std::uint32_t n = 0;
    for (const VOp& v : stk) {
      if (!v.is_const && v.reg >= slot_limit) ++n;
    }
    return slot_limit + n;
  };

  for (const ExprInstr& op : ops_) {
    if (!ok) break;
    switch (op.op) {
      case ExprOp::kConst:
        stk.push_back(VOp{true, op.value, 0});
        break;
      case ExprOp::kSlot:
        stk.push_back(VOp{false, 0, op.slot});
        break;
      case ExprOp::kNeg:
      case ExprOp::kNot:
      case ExprOp::kCeil:
      case ExprOp::kFloor:
      case ExprOp::kAbs:
      case ExprOp::kSqrt: {
        VOp v = stk.back();
        stk.pop_back();
        if (v.is_const) {
          double r = 0;
          switch (op.op) {
            case ExprOp::kNeg: r = -v.cval; break;
            case ExprOp::kNot: r = v.cval == 0 ? 1 : 0; break;
            case ExprOp::kCeil: r = std::ceil(v.cval); break;
            case ExprOp::kFloor: r = std::floor(v.cval); break;
            case ExprOp::kAbs: r = std::fabs(v.cval); break;
            default: r = std::sqrt(v.cval); break;
          }
          stk.push_back(VOp{true, r, 0});
          break;
        }
        const std::uint32_t dst = temp_base();
        Op ro = Op::kNeg;
        switch (op.op) {
          case ExprOp::kNeg: ro = Op::kNeg; break;
          case ExprOp::kNot: ro = Op::kNot; break;
          case ExprOp::kCeil: ro = Op::kCeil; break;
          case ExprOp::kFloor: ro = Op::kFloor; break;
          case ExprOp::kAbs: ro = Op::kAbs; break;
          default: ro = Op::kSqrt; break;
        }
        emit(ro, dst, v.reg, 0, 0, op.line);
        stk.push_back(VOp{false, 0, dst});
        break;
      }
      default: {
        VOp b = stk.back();
        stk.pop_back();
        VOp a = stk.back();
        stk.pop_back();
        const std::uint32_t base = temp_base();

        // Both constant: fold, except a zero divisor (must stay a runtime
        // error at this op's line).
        if (a.is_const && b.is_const) {
          const double x = a.cval;
          const double y = b.cval;
          bool folded = true;
          double r = 0;
          switch (op.op) {
            case ExprOp::kAdd: r = x + y; break;
            case ExprOp::kSub: r = x - y; break;
            case ExprOp::kMul: r = x * y; break;
            case ExprOp::kDiv:
              if (y == 0) folded = false;
              else r = x / y;
              break;
            case ExprOp::kMod:
              if (y == 0) folded = false;
              else r = std::fmod(x, y);
              break;
            case ExprOp::kLt: r = x < y ? 1 : 0; break;
            case ExprOp::kLe: r = x <= y ? 1 : 0; break;
            case ExprOp::kGt: r = x > y ? 1 : 0; break;
            case ExprOp::kGe: r = x >= y ? 1 : 0; break;
            case ExprOp::kEq: r = x == y ? 1 : 0; break;
            case ExprOp::kNe: r = x != y ? 1 : 0; break;
            case ExprOp::kAnd: r = (x != 0 && y != 0) ? 1 : 0; break;
            case ExprOp::kOr: r = (x != 0 || y != 0) ? 1 : 0; break;
            case ExprOp::kMin: r = MinNum(x, y); break;
            case ExprOp::kMax: r = MaxNum(x, y); break;
            default: ok = false; break;
          }
          if (folded) {
            stk.push_back(VOp{true, r, 0});
            break;
          }
        }

        // Logical ops against a constant decide from the other side alone
        // (non-short-circuit semantics; any operand code already emitted
        // stays, so a dividing-by-zero subexpression still fails).
        if (op.op == ExprOp::kAnd || op.op == ExprOp::kOr) {
          const bool is_and = op.op == ExprOp::kAnd;
          if (a.is_const || b.is_const) {
            const VOp& cv = a.is_const ? a : b;
            const VOp& rv = a.is_const ? b : a;
            const bool c_true = cv.cval != 0;
            if (is_and != c_true) {
              // and-false / or-true: the result is fixed.
              stk.push_back(VOp{true, is_and ? 0.0 : 1.0, 0});
            } else {
              emit(Op::kBool, base, rv.reg, 0, 0, op.line);
              stk.push_back(VOp{false, 0, base});
            }
            break;
          }
          emit(is_and ? Op::kAnd2 : Op::kOr2, base, a.reg, b.reg, 0, op.line);
          stk.push_back(VOp{false, 0, base});
          break;
        }

        // Constant-operand forms. Directional ops get their kR* twins;
        // commutable add/mul swap only for non-NaN constants.
        bool handled = false;
        if (b.is_const && !a.is_const) {
          switch (op.op) {
            case ExprOp::kAdd:
              emit(Op::kAddC, base, a.reg, 0, const_idx(b.cval), op.line);
              handled = true;
              break;
            case ExprOp::kSub:
              emit(Op::kSubC, base, a.reg, 0, const_idx(b.cval), op.line);
              handled = true;
              break;
            case ExprOp::kMul:
              emit(Op::kMulC, base, a.reg, 0, const_idx(b.cval), op.line);
              handled = true;
              break;
            case ExprOp::kDiv:
              if (b.cval != 0) {
                emit(Op::kDivC, base, a.reg, 0, const_idx(b.cval), op.line);
                handled = true;
              }
              break;
            case ExprOp::kMin:
              emit(Op::kMinC, base, a.reg, 0, const_idx(b.cval), op.line);
              handled = true;
              break;
            case ExprOp::kMax:
              emit(Op::kMaxC, base, a.reg, 0, const_idx(b.cval), op.line);
              handled = true;
              break;
            default:
              break;
          }
        } else if (a.is_const && !b.is_const) {
          switch (op.op) {
            case ExprOp::kAdd:
              if (!std::isnan(a.cval)) {
                emit(Op::kAddC, base, b.reg, 0, const_idx(a.cval), op.line);
                handled = true;
              }
              break;
            case ExprOp::kMul:
              if (!std::isnan(a.cval)) {
                emit(Op::kMulC, base, b.reg, 0, const_idx(a.cval), op.line);
                handled = true;
              }
              break;
            case ExprOp::kSub:
              emit(Op::kRSubC, base, b.reg, 0, const_idx(a.cval), op.line);
              handled = true;
              break;
            case ExprOp::kDiv:
              emit(Op::kRDivC, base, b.reg, 0, const_idx(a.cval), op.line);
              handled = true;
              break;
            default:
              break;
          }
        }
        if (handled) {
          stk.push_back(VOp{false, 0, base});
          break;
        }

        // Generic form: materialize constants into scratch temps that dodge
        // the live operand registers, preserve operand order exactly.
        std::uint32_t next_free = base;
        auto alloc_free = [&]() {
          while ((!a.is_const && a.reg == next_free) ||
                 (!b.is_const && b.reg == next_free)) {
            ++next_free;
          }
          return next_free++;
        };
        std::uint32_t ra = a.reg;
        if (a.is_const) {
          ra = alloc_free();
          emit(Op::kLoadConst, ra, 0, 0, const_idx(a.cval), op.line);
        }
        std::uint32_t rb = b.reg;
        if (b.is_const) {
          rb = alloc_free();
          emit(Op::kLoadConst, rb, 0, 0, const_idx(b.cval), op.line);
        }
        Op generic = Op::kAdd;
        switch (op.op) {
          case ExprOp::kAdd: generic = Op::kAdd; break;
          case ExprOp::kSub: generic = Op::kSub; break;
          case ExprOp::kMul: generic = Op::kMul; break;
          case ExprOp::kDiv: generic = Op::kDiv; break;
          case ExprOp::kMod: generic = Op::kMod; break;
          case ExprOp::kLt: generic = Op::kLt; break;
          case ExprOp::kLe: generic = Op::kLe; break;
          case ExprOp::kGt: generic = Op::kGt; break;
          case ExprOp::kGe: generic = Op::kGe; break;
          case ExprOp::kEq: generic = Op::kEq; break;
          case ExprOp::kNe: generic = Op::kNe; break;
          case ExprOp::kMin: generic = Op::kMin2; break;
          case ExprOp::kMax: generic = Op::kMax2; break;
          default: ok = false; break;
        }
        emit(generic, base, ra, rb, 0, op.line);
        stk.push_back(VOp{false, 0, base});
        break;
      }
    }
  }

  if (ok && stk.size() == 1) {
    const std::uint16_t line = ops_.empty() ? 0 : ops_.back().line;
    const VOp res = stk.back();
    if (res.is_const) {
      const std::uint32_t r = slot_limit;
      emit(Op::kLoadConst, r, 0, 0, const_idx(res.cval), line);
      emit(Op::kRet, r, 0, 0, 0, line);
    } else {
      emit(Op::kRet, res.reg, 0, 0, 0, line);
    }
  } else {
    ok = false;
  }

  if (!ok) {
    *error = "expression too large (more than 65535 instructions or 65536 constants)";
    return false;
  }
  num_regs_ = max_reg;
  FuseSuperinstructions(&rcode_, rconsts_, slot_limit);
  return true;
}

std::optional<double> CompiledExpr::ConstantValue() const {
  if (!used_slots_.empty() || rcode_.size() != 2 || rcode_[0].op != Op::kLoadConst ||
      rcode_[1].op != Op::kRet || rcode_[1].a != rcode_[0].a) {
    return std::nullopt;
  }
  return rconsts_[rcode_[0].imm];
}

std::string CompiledExpr::DisassembleRegs() const {
  std::string out = StrFormat("expr: %u regs, slots [", num_regs_);
  for (std::size_t i = 0; i < used_slots_.size(); ++i) {
    out += StrFormat(i == 0 ? "%u" : " %u", used_slots_[i]);
  }
  out += "]\n";
  for (std::size_t i = 0; i < rcode_.size(); ++i) {
    out += DisassembleInstr(i, rcode_[i], rconsts_, nullptr);
  }
  return out;
}

}  // namespace perfiface
