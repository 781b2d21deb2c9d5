// Template bodies for CompiledExpr (see compile.h). Included at the end of
// compile.h; do not include directly.
#ifndef SRC_PERFSCRIPT_COMPILE_INL_H_
#define SRC_PERFSCRIPT_COMPILE_INL_H_

#include <cmath>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/perfscript/interp.h"

namespace perfiface {

// The one evaluator for standalone expressions. The lowering preserves the
// parsed expression's evaluation order and never reassociates, so each
// arithmetic op rounds exactly as a direct recursive evaluation of the
// parsed Expr would (expr_diff_test holds it to that, bit for bit, with the
// same error strings); superinstructions use RoundBarrier to keep their
// internal multiply+add as two roundings.
template <typename SlotFn>
bool CompiledExpr::EvalRegs(SlotFn&& slot, double* value, std::string* error) const {
  double regs[256];
  for (const std::uint32_t s : used_slots_) regs[s] = slot(s);
  const double* consts = rconsts_.data();
  for (const Instr& ins : rcode_) {
    switch (ins.op) {
      case Op::kLoadConst: regs[ins.a] = consts[ins.imm]; break;
      case Op::kMove: regs[ins.a] = regs[ins.b]; break;
      case Op::kAdd: regs[ins.a] = regs[ins.b] + regs[ins.c]; break;
      case Op::kSub: regs[ins.a] = regs[ins.b] - regs[ins.c]; break;
      case Op::kMul: regs[ins.a] = regs[ins.b] * regs[ins.c]; break;
      case Op::kDiv: {
        const double d = regs[ins.c];
        if (d == 0) {
          *error = StrFormat("line %d: division by zero", ins.line);
          return false;
        }
        regs[ins.a] = regs[ins.b] / d;
        break;
      }
      case Op::kMod: {
        const double d = regs[ins.c];
        if (d == 0) {
          *error = StrFormat("line %d: modulo by zero", ins.line);
          return false;
        }
        regs[ins.a] = std::fmod(regs[ins.b], d);
        break;
      }
      case Op::kLt: regs[ins.a] = regs[ins.b] < regs[ins.c] ? 1 : 0; break;
      case Op::kLe: regs[ins.a] = regs[ins.b] <= regs[ins.c] ? 1 : 0; break;
      case Op::kGt: regs[ins.a] = regs[ins.b] > regs[ins.c] ? 1 : 0; break;
      case Op::kGe: regs[ins.a] = regs[ins.b] >= regs[ins.c] ? 1 : 0; break;
      case Op::kEq: regs[ins.a] = regs[ins.b] == regs[ins.c] ? 1 : 0; break;
      case Op::kNe: regs[ins.a] = regs[ins.b] != regs[ins.c] ? 1 : 0; break;
      case Op::kAddC: regs[ins.a] = regs[ins.b] + consts[ins.imm]; break;
      case Op::kSubC: regs[ins.a] = regs[ins.b] - consts[ins.imm]; break;
      case Op::kMulC: regs[ins.a] = regs[ins.b] * consts[ins.imm]; break;
      case Op::kDivC: regs[ins.a] = regs[ins.b] / consts[ins.imm]; break;
      case Op::kRSubC: regs[ins.a] = consts[ins.imm] - regs[ins.b]; break;
      case Op::kRDivC: {
        const double d = regs[ins.b];
        if (d == 0) {
          *error = StrFormat("line %d: division by zero", ins.line);
          return false;
        }
        regs[ins.a] = consts[ins.imm] / d;
        break;
      }
      case Op::kNeg: regs[ins.a] = -regs[ins.b]; break;
      case Op::kNot: regs[ins.a] = regs[ins.b] == 0 ? 1 : 0; break;
      case Op::kBool: regs[ins.a] = regs[ins.b] != 0 ? 1 : 0; break;
      case Op::kCeil: regs[ins.a] = std::ceil(regs[ins.b]); break;
      case Op::kFloor: regs[ins.a] = std::floor(regs[ins.b]); break;
      case Op::kAbs: regs[ins.a] = std::fabs(regs[ins.b]); break;
      case Op::kSqrt: regs[ins.a] = std::sqrt(regs[ins.b]); break;
      case Op::kMin2: regs[ins.a] = MinNum(regs[ins.b], regs[ins.c]); break;
      case Op::kMax2: regs[ins.a] = MaxNum(regs[ins.b], regs[ins.c]); break;
      case Op::kMinC: regs[ins.a] = MinNum(regs[ins.b], consts[ins.imm]); break;
      case Op::kMaxC: regs[ins.a] = MaxNum(regs[ins.b], consts[ins.imm]); break;
      case Op::kClampCC:
        regs[ins.a] =
            MaxNum(MinNum(regs[ins.b], consts[ins.imm]), consts[ins.c]);
        break;
      case Op::kMulAddCC:
        regs[ins.a] = RoundBarrier(regs[ins.b] * consts[ins.imm]) + consts[ins.c];
        break;
      case Op::kMulAddC:
        regs[ins.a] = RoundBarrier(regs[ins.b] * consts[ins.imm]) + regs[ins.c];
        break;
      case Op::kFma:
        regs[ins.a] = regs[ins.a] + RoundBarrier(regs[ins.b] * regs[ins.c]);
        break;
      case Op::kAnd2:
        regs[ins.a] = (regs[ins.b] != 0 && regs[ins.c] != 0) ? 1 : 0;
        break;
      case Op::kOr2:
        regs[ins.a] = (regs[ins.b] != 0 || regs[ins.c] != 0) ? 1 : 0;
        break;
      case Op::kRet:
        *value = regs[ins.a];
        return true;
      default: PI_CHECK_MSG(false, "bad opcode in expression register code");
    }
  }
  PI_CHECK_MSG(false, "expression register code fell off the end");
  return false;
}

template <typename SlotFn>
EvalResult CompiledExpr::EvalRegsChecked(SlotFn&& slot) const {
  EvalResult out;
  double v = 0;
  if (!EvalRegs(static_cast<SlotFn&&>(slot), &v, &out.error)) {
    return out;
  }
  out.ok = true;
  out.value = Value::Number(v);
  return out;
}

}  // namespace perfiface

#endif  // SRC_PERFSCRIPT_COMPILE_INL_H_
