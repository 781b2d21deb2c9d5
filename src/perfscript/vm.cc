#include "src/perfscript/vm.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace perfiface {

namespace {

// What a maybe-assigned local holds until the call assigns it. Only
// kLoadOrConst/kCheckDef read such registers, and they compare against
// this address, so no other instruction ever sees the marker.
class UnassignedMarker final : public ScriptObject {
 public:
  std::optional<double> GetAttr(std::string_view) const override { return std::nullopt; }
};
const UnassignedMarker kUnassigned{};

bool IsAssigned(const Value& v) { return v.obj != &kUnassigned; }

// Marks `fn`'s maybe-assigned locals unassigned in the frame at `frame`, so
// no call sees a value left behind by an earlier one.
void EnterFunction(const CompiledFunction& fn, Value* frame) {
  for (const std::uint8_t r : fn.unassigned_on_entry) {
    frame[r] = Value::Object(&kUnassigned);
  }
}

}  // namespace

Vm::Vm(std::shared_ptr<const CompiledProgram> program) : program_(std::move(program)) {
  PI_CHECK(program_ != nullptr);
  // Pre-size the reusable state so steady-state calls never allocate.
  std::size_t max_frame = 1;
  for (const CompiledFunction& fn : program_->functions) {
    max_frame = std::max(max_frame, fn.num_regs);
  }
  regs_.resize(std::max<std::size_t>(64, 4 * max_frame));
  frames_.reserve(max_depth_ + 1);
  ic_.assign(program_->attr_names.size(), 0);
}

EvalResult Vm::Call(const std::string& function, const std::vector<Value>& args) {
  static obs::MetricsRegistry::Counter& calls_total = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_psc_vm_calls_total", "Top-level PerfScript bytecode VM calls");
  static obs::MetricsRegistry::Counter& steps_total = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_psc_vm_steps_total", "PerfScript bytecode VM instructions executed");
  static obs::MetricsRegistry::Counter& errors_total = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_psc_vm_errors_total", "PerfScript bytecode VM calls that failed");
  obs::SpanGuard span("vm", "call");
  if (span.active()) {
    span.SetArg("function", function);
  }

  EvalResult out;
  steps_ = 0;
  frames_.clear();

  const int fidx = program_->FindIndex(function);
  if (fidx < 0) {
    out.error = StrFormat("no such function '%s'", function.c_str());
    errors_total.Increment();
    return out;
  }
  const CompiledFunction* fn = &program_->functions[fidx];
  calls_total.Increment();
  if (args.size() != fn->num_params) {
    out.error = StrFormat("line %d: %s: expected %zu arguments, got %zu", fn->line,
                          fn->name.c_str(), fn->num_params, args.size());
    errors_total.Increment();
    return out;
  }
  if (max_depth_ < 1) {
    out.error = StrFormat("line %d: recursion depth limit exceeded", fn->line);
    errors_total.Increment();
    return out;
  }

  EnsureRegs(fn->num_regs);
  for (std::size_t i = 0; i < args.size(); ++i) {
    regs_[i] = args[i];
  }
  EnterFunction(*fn, regs_.data());

  std::uint32_t base = 0;
  std::uint32_t pc = 0;
  Value* R = regs_.data();
  const Instr* code = fn->code.data();
  bool failed = false;
  Value result = Value::Number(0);

  // fail() latches the first error, like Interpreter::RuntimeError, and the
  // jump to done unwinds the whole call.
  auto fail = [&](int line, const std::string& msg) {
    failed = true;
    out.error = StrFormat("line %d: %s", line, msg.c_str());
  };

  for (;;) {
    const Instr ins = code[pc++];
    if (++steps_ > max_steps_) {
      fail(ins.line, "step budget exhausted");
      break;
    }
    switch (ins.op) {
      case Op::kLoadConst:
        R[ins.a] = Value::Number(program_->consts[ins.imm]);
        break;
      case Op::kMove:
        R[ins.a] = R[ins.b];
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
      case Op::kNe: {
        const Value& vb = R[ins.b];
        const Value& vc = R[ins.c];
        if (!vb.IsNumber() || !vc.IsNumber()) {
          fail(ins.line, "operand must be a number");
          break;
        }
        const double a = vb.num;
        const double b = vc.num;
        double r = 0;
        switch (ins.op) {
          case Op::kAdd: r = a + b; break;
          case Op::kSub: r = a - b; break;
          case Op::kMul: r = a * b; break;
          case Op::kDiv:
            if (b == 0) {
              fail(ins.line, "division by zero");
            } else {
              r = a / b;
            }
            break;
          case Op::kMod:
            if (b == 0) {
              fail(ins.line, "modulo by zero");
            } else {
              r = std::fmod(a, b);
            }
            break;
          case Op::kLt: r = a < b ? 1 : 0; break;
          case Op::kLe: r = a <= b ? 1 : 0; break;
          case Op::kGt: r = a > b ? 1 : 0; break;
          case Op::kGe: r = a >= b ? 1 : 0; break;
          case Op::kEq: r = a == b ? 1 : 0; break;
          default: r = a != b ? 1 : 0; break;
        }
        if (failed) break;
        R[ins.a] = Value::Number(r);
        break;
      }
      // The compiler guarantees the register operand of the constant forms
      // is already type-checked, so these run unchecked.
      case Op::kAddC:
        R[ins.a] = Value::Number(R[ins.b].num + program_->consts[ins.imm]);
        break;
      case Op::kSubC:
        R[ins.a] = Value::Number(R[ins.b].num - program_->consts[ins.imm]);
        break;
      case Op::kMulC:
        R[ins.a] = Value::Number(R[ins.b].num * program_->consts[ins.imm]);
        break;
      case Op::kDivC:
        R[ins.a] = Value::Number(R[ins.b].num / program_->consts[ins.imm]);
        break;
      case Op::kRSubC:
        R[ins.a] = Value::Number(program_->consts[ins.imm] - R[ins.b].num);
        break;
      case Op::kRDivC: {
        const double b = R[ins.b].num;
        if (b == 0) {
          fail(ins.line, "division by zero");
          break;
        }
        R[ins.a] = Value::Number(program_->consts[ins.imm] / b);
        break;
      }
      case Op::kNeg:
      case Op::kNot: {
        const Value& vb = R[ins.b];
        if (!vb.IsNumber()) {
          fail(ins.line, "operand must be a number");
          break;
        }
        R[ins.a] =
            Value::Number(ins.op == Op::kNeg ? -vb.num : (vb.num == 0 ? 1 : 0));
        break;
      }
      case Op::kBool:
        R[ins.a] = Value::Number(R[ins.b].num != 0 ? 1 : 0);
        break;
      case Op::kCeil:
        R[ins.a] = Value::Number(std::ceil(R[ins.b].num));
        break;
      case Op::kFloor:
        R[ins.a] = Value::Number(std::floor(R[ins.b].num));
        break;
      case Op::kAbs:
        R[ins.a] = Value::Number(std::fabs(R[ins.b].num));
        break;
      case Op::kSqrt:
        R[ins.a] = Value::Number(std::sqrt(R[ins.b].num));
        break;
      case Op::kMin2:
        R[ins.a] = Value::Number(std::fmin(R[ins.b].num, R[ins.c].num));
        break;
      case Op::kMax2:
        R[ins.a] = Value::Number(std::fmax(R[ins.b].num, R[ins.c].num));
        break;
      case Op::kLen: {
        const Value& vb = R[ins.b];
        if (vb.IsNumber() || vb.obj == nullptr) {
          fail(ins.line, "len: argument must be an object");
          break;
        }
        R[ins.a] = Value::Number(static_cast<double>(vb.obj->NumChildren()));
        break;
      }
      case Op::kCheckNum:
        if (!R[ins.a].IsNumber()) {
          fail(ins.line, StrFormat("%s must be a number",
                                   CheckWhatName(static_cast<CheckWhat>(ins.imm))));
        }
        break;
      case Op::kAttr: {
        const Value& vb = R[ins.b];
        const std::string& name = program_->attr_names[ins.imm];
        if (vb.IsNumber() || vb.obj == nullptr) {
          fail(ins.line, StrFormat("cannot read attribute '%s' of a number", name.c_str()));
          break;
        }
        const std::optional<double> attr = vb.obj->GetAttrHinted(name, &ic_[ins.imm]);
        if (!attr.has_value()) {
          fail(ins.line, StrFormat("object has no attribute '%s'", name.c_str()));
          break;
        }
        R[ins.a] = Value::Number(*attr);
        break;
      }
      // Loop control (the bounds test, the child fetch and the back edge) is
      // free, as iterating is in the interpreter; the index increment is
      // the loop's one charged step per iteration.
      case Op::kJmp:
        if (ins.imm < pc) --steps_;
        pc = ins.imm;
        break;
      case Op::kJmpIfZero:
        if (R[ins.a].num == 0) pc = ins.imm;
        break;
      case Op::kJmpIfNotZero:
        if (R[ins.a].num != 0) pc = ins.imm;
        break;
      case Op::kJmpGe:
        --steps_;
        if (R[ins.a].num >= R[ins.b].num) pc = ins.imm;
        break;
      case Op::kIterLen: {
        const Value& vb = R[ins.b];
        if (vb.IsNumber() || vb.obj == nullptr) {
          fail(ins.line, "for: iterable must be an object");
          break;
        }
        R[ins.a] = Value::Number(static_cast<double>(vb.obj->NumChildren()));
        break;
      }
      case Op::kIterChild: {
        --steps_;
        const ScriptObject* child =
            R[ins.b].obj->Child(static_cast<std::size_t>(R[ins.c].num));
        if (child == nullptr) {
          fail(ins.line, "for: object returned a null child");
          break;
        }
        R[ins.a] = Value::Object(child);
        break;
      }
      case Op::kCall: {
        // Depth mirrors the interpreter: the entry call is depth 1, so a
        // nested call pushes frames_.size() + 2 total live frames.
        if (frames_.size() + 2 > max_depth_) {
          fail(ins.line, "recursion depth limit exceeded");
          break;
        }
        frames_.push_back(Frame{fn, base, pc, ins.a});
        const CompiledFunction* callee = &program_->functions[ins.imm];
        base += ins.b;
        EnsureRegs(base + callee->num_regs);
        fn = callee;
        code = fn->code.data();
        pc = 0;
        R = regs_.data() + base;
        EnterFunction(*fn, R);
        break;
      }
      case Op::kRet: {
        const Value v = R[ins.a];
        if (frames_.empty()) {
          result = v;
          goto done;
        }
        const Frame f = frames_.back();
        frames_.pop_back();
        regs_[f.base + f.dst] = v;
        fn = f.fn;
        base = f.base;
        pc = f.pc;
        code = fn->code.data();
        R = regs_.data() + base;
        break;
      }
      case Op::kError:
        fail(ins.line, program_->errors[ins.imm]);
        break;
      // Fused superinstructions (FuseSuperinstructions in compile.cc). Each
      // must round and type-check exactly like the pair it replaced:
      // RoundBarrier keeps the multiply a separate rounding step, and the
      // runtime checks mirror whichever operands the original generic ops
      // checked (constant-form operands were compiler-proven numeric).
      case Op::kMulAddCC:
        R[ins.a] = Value::Number(RoundBarrier(R[ins.b].num * program_->consts[ins.imm]) +
                                 program_->consts[ins.c]);
        break;
      case Op::kMulAddC: {
        const Value& vc = R[ins.c];
        if (!vc.IsNumber()) {
          fail(ins.line, "operand must be a number");
          break;
        }
        R[ins.a] =
            Value::Number(RoundBarrier(R[ins.b].num * program_->consts[ins.imm]) + vc.num);
        break;
      }
      case Op::kFma: {
        const Value& vb = R[ins.b];
        const Value& vc = R[ins.c];
        if (!vb.IsNumber() || !vc.IsNumber()) {
          fail(ins.line, "operand must be a number");
          break;
        }
        const Value& va = R[ins.a];
        if (!va.IsNumber()) {
          fail(ins.line, "operand must be a number");
          break;
        }
        R[ins.a] = Value::Number(va.num + RoundBarrier(vb.num * vc.num));
        break;
      }
      case Op::kMinC:
        R[ins.a] = Value::Number(std::fmin(R[ins.b].num, program_->consts[ins.imm]));
        break;
      case Op::kMaxC:
        R[ins.a] = Value::Number(std::fmax(R[ins.b].num, program_->consts[ins.imm]));
        break;
      case Op::kClampCC:
        R[ins.a] = Value::Number(std::fmax(
            std::fmin(R[ins.b].num, program_->consts[ins.imm]), program_->consts[ins.c]));
        break;
      case Op::kCmpBranch: {
        const Value& va = R[ins.a];
        const Value& vb = R[ins.b];
        if (!va.IsNumber() || !vb.IsNumber()) {
          fail(ins.line, "operand must be a number");
          break;
        }
        const double x = va.num;
        const double y = vb.num;
        bool cond = false;
        switch (ins.c & 7) {
          case kCmpLt: cond = x < y; break;
          case kCmpLe: cond = x <= y; break;
          case kCmpGt: cond = x > y; break;
          case kCmpGe: cond = x >= y; break;
          case kCmpEq: cond = x == y; break;
          default: cond = x != y; break;
        }
        if (cond == ((ins.c & kCmpBranchIfTrue) != 0)) pc = ins.imm;
        break;
      }
      // The expression lowering's non-short-circuit logical ops; programs
      // never emit these, but the Vm executes the full shared instruction
      // set.
      case Op::kAnd2:
        R[ins.a] = Value::Number((R[ins.b].num != 0 && R[ins.c].num != 0) ? 1 : 0);
        break;
      case Op::kOr2:
        R[ins.a] = Value::Number((R[ins.b].num != 0 || R[ins.c].num != 0) ? 1 : 0);
        break;
      case Op::kLoadOrConst:
        R[ins.a] = IsAssigned(R[ins.b]) ? R[ins.b] : Value::Number(program_->consts[ins.imm]);
        break;
      case Op::kCheckDef:
        if (!IsAssigned(R[ins.a])) {
          fail(ins.line, program_->errors[ins.imm]);
        }
        break;
    }
    if (failed) break;
  }

done:
  steps_total.Add(steps_);
  if (span.active()) {
    span.SetArg("steps", static_cast<double>(steps_));
  }
  if (failed) {
    errors_total.Increment();
    return out;
  }
  out.ok = true;
  out.value = result;
  return out;
}

}  // namespace perfiface
