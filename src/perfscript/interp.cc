#include "src/perfscript/interp.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/trace.h"

namespace perfiface {

double EvalResult::Num() const {
  PI_CHECK_MSG(ok, error.c_str());
  PI_CHECK_MSG(value.IsNumber(), "result is not a number");
  return value.num;
}

Interpreter::Interpreter(const Program* program) : program_(program) {
  PI_CHECK(program_ != nullptr);
}

void Interpreter::SetGlobal(const std::string& name, double value) {
  for (auto& g : globals_) {
    if (g.first == name) {
      g.second = value;
      return;
    }
  }
  globals_.emplace_back(name, value);
}

void Interpreter::RuntimeError(int line, const std::string& msg) {
  if (!failed_) {
    failed_ = true;
    error_ = StrFormat("line %d: %s", line, msg.c_str());
  }
}

bool Interpreter::Step(int line) {
  if (failed_) {
    return false;
  }
  if (++steps_ > max_steps_) {
    RuntimeError(line, "step budget exhausted");
    return false;
  }
  return true;
}

double Interpreter::NumOrError(const Value& v, int line, const char* what) {
  if (!v.IsNumber()) {
    RuntimeError(line, StrFormat("%s must be a number", what));
    return 0;
  }
  return v.num;
}

Value* Interpreter::FindLocal(Frame* frame, const std::string& name) {
  for (auto& kv : frame->locals) {
    if (kv.first == name) {
      return &kv.second;
    }
  }
  return nullptr;
}

void Interpreter::SetLocal(Frame* frame, const std::string& name, Value v) {
  if (Value* existing = FindLocal(frame, name)) {
    *existing = v;
    return;
  }
  frame->locals.emplace_back(name, v);
}

Value Interpreter::CallBuiltin(const Expr& call, std::vector<Value> args, bool* handled) {
  *handled = true;
  const int line = call.line;
  auto need_args = [&](std::size_t lo, std::size_t hi) {
    if (args.size() < lo || args.size() > hi) {
      RuntimeError(line, StrFormat("%s: wrong argument count", call.name.c_str()));
      return false;
    }
    return true;
  };
  if (call.name == "min" || call.name == "max") {
    if (!need_args(1, 16)) return Value::Number(0);
    double best = NumOrError(args[0], line, "min/max argument");
    for (std::size_t i = 1; i < args.size() && !failed_; ++i) {
      const double v = NumOrError(args[i], line, "min/max argument");
      best = call.name == "min" ? MinNum(best, v) : MaxNum(best, v);
    }
    return Value::Number(best);
  }
  if (call.name == "ceil") {
    if (!need_args(1, 1)) return Value::Number(0);
    return Value::Number(std::ceil(NumOrError(args[0], line, "ceil argument")));
  }
  if (call.name == "floor") {
    if (!need_args(1, 1)) return Value::Number(0);
    return Value::Number(std::floor(NumOrError(args[0], line, "floor argument")));
  }
  if (call.name == "abs") {
    if (!need_args(1, 1)) return Value::Number(0);
    return Value::Number(std::fabs(NumOrError(args[0], line, "abs argument")));
  }
  if (call.name == "sqrt") {
    if (!need_args(1, 1)) return Value::Number(0);
    return Value::Number(std::sqrt(NumOrError(args[0], line, "sqrt argument")));
  }
  if (call.name == "len") {
    if (!need_args(1, 1)) return Value::Number(0);
    if (args[0].IsNumber() || args[0].obj == nullptr) {
      RuntimeError(line, "len: argument must be an object");
      return Value::Number(0);
    }
    return Value::Number(static_cast<double>(args[0].obj->NumChildren()));
  }
  *handled = false;
  return Value::Number(0);
}

Value Interpreter::CallFunction(const FunctionDef& f, const std::vector<Value>& args,
                                int call_line) {
  if (args.size() != f.params.size()) {
    RuntimeError(call_line, StrFormat("%s: expected %zu arguments, got %zu", f.name.c_str(),
                                      f.params.size(), args.size()));
    return Value::Number(0);
  }
  if (++depth_ > max_depth_) {
    RuntimeError(call_line, "recursion depth limit exceeded");
    --depth_;
    return Value::Number(0);
  }
  Frame frame;
  for (std::size_t i = 0; i < args.size(); ++i) {
    frame.locals.emplace_back(f.params[i], args[i]);
  }
  Value ret = Value::Number(0);
  ExecBlock(f.body, &frame, &ret);
  --depth_;
  return ret;
}

Value Interpreter::EvalExpr(const Expr& e, Frame* frame) {
  if (!Step(e.line)) {
    return Value::Number(0);
  }
  switch (e.kind) {
    case ExprKind::kNumber:
      return Value::Number(e.number);
    case ExprKind::kVar: {
      if (Value* v = FindLocal(frame, e.name)) {
        return *v;
      }
      for (const auto& g : globals_) {
        if (g.first == e.name) {
          return Value::Number(g.second);
        }
      }
      RuntimeError(e.line, StrFormat("undefined variable '%s'", e.name.c_str()));
      return Value::Number(0);
    }
    case ExprKind::kAttr: {
      const Value base = EvalExpr(*e.children[0], frame);
      if (failed_) return Value::Number(0);
      if (base.IsNumber() || base.obj == nullptr) {
        RuntimeError(e.line, StrFormat("cannot read attribute '%s' of a number", e.name.c_str()));
        return Value::Number(0);
      }
      const std::optional<double> attr = base.obj->GetAttr(e.name);
      if (!attr.has_value()) {
        RuntimeError(e.line, StrFormat("object has no attribute '%s'", e.name.c_str()));
        return Value::Number(0);
      }
      return Value::Number(*attr);
    }
    case ExprKind::kCall: {
      std::vector<Value> args;
      args.reserve(e.children.size());
      for (const ExprPtr& c : e.children) {
        args.push_back(EvalExpr(*c, frame));
        if (failed_) return Value::Number(0);
      }
      bool handled = false;
      Value v = CallBuiltin(e, args, &handled);
      if (handled || failed_) {
        return v;
      }
      if (const FunctionDef* f = program_->Find(e.name)) {
        return CallFunction(*f, args, e.line);
      }
      RuntimeError(e.line, StrFormat("undefined function '%s'", e.name.c_str()));
      return Value::Number(0);
    }
    case ExprKind::kUnary: {
      const double v = NumOrError(EvalExpr(*e.children[0], frame), e.line, "operand");
      if (failed_) return Value::Number(0);
      return Value::Number(e.un_op == UnOp::kNeg ? -v : (v == 0 ? 1 : 0));
    }
    case ExprKind::kBinary: {
      // Short-circuit logical operators.
      if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
        const double lhs = NumOrError(EvalExpr(*e.children[0], frame), e.line, "operand");
        if (failed_) return Value::Number(0);
        const bool lhs_true = lhs != 0;
        if (e.bin_op == BinOp::kAnd && !lhs_true) return Value::Number(0);
        if (e.bin_op == BinOp::kOr && lhs_true) return Value::Number(1);
        const double rhs = NumOrError(EvalExpr(*e.children[1], frame), e.line, "operand");
        if (failed_) return Value::Number(0);
        return Value::Number(rhs != 0 ? 1 : 0);
      }
      const double a = NumOrError(EvalExpr(*e.children[0], frame), e.line, "operand");
      if (failed_) return Value::Number(0);
      const double b = NumOrError(EvalExpr(*e.children[1], frame), e.line, "operand");
      if (failed_) return Value::Number(0);
      switch (e.bin_op) {
        case BinOp::kAdd: return Value::Number(a + b);
        case BinOp::kSub: return Value::Number(a - b);
        case BinOp::kMul: return Value::Number(a * b);
        case BinOp::kDiv:
          if (b == 0) {
            RuntimeError(e.line, "division by zero");
            return Value::Number(0);
          }
          return Value::Number(a / b);
        case BinOp::kMod:
          if (b == 0) {
            RuntimeError(e.line, "modulo by zero");
            return Value::Number(0);
          }
          return Value::Number(std::fmod(a, b));
        case BinOp::kLt: return Value::Number(a < b ? 1 : 0);
        case BinOp::kLe: return Value::Number(a <= b ? 1 : 0);
        case BinOp::kGt: return Value::Number(a > b ? 1 : 0);
        case BinOp::kGe: return Value::Number(a >= b ? 1 : 0);
        case BinOp::kEq: return Value::Number(a == b ? 1 : 0);
        case BinOp::kNe: return Value::Number(a != b ? 1 : 0);
        case BinOp::kAnd:
        case BinOp::kOr:
          break;  // handled above
      }
      return Value::Number(0);
    }
  }
  return Value::Number(0);
}

bool Interpreter::ExecStmt(const Stmt& s, Frame* frame, Value* ret) {
  if (!Step(s.line)) {
    return true;
  }
  switch (s.kind) {
    case StmtKind::kAssign:
      SetLocal(frame, s.target, EvalExpr(*s.value, frame));
      return false;
    case StmtKind::kAugAdd: {
      Value* v = FindLocal(frame, s.target);
      if (v == nullptr) {
        RuntimeError(s.line, StrFormat("undefined variable '%s'", s.target.c_str()));
        return true;
      }
      const double lhs = NumOrError(*v, s.line, "'+=' target");
      const double rhs = NumOrError(EvalExpr(*s.value, frame), s.line, "'+=' value");
      if (failed_) return true;
      *v = Value::Number(lhs + rhs);
      return false;
    }
    case StmtKind::kReturn:
      *ret = EvalExpr(*s.value, frame);
      return true;
    case StmtKind::kExpr:
      EvalExpr(*s.value, frame);
      return failed_;
    case StmtKind::kIf: {
      const double cond = NumOrError(EvalExpr(*s.value, frame), s.line, "condition");
      if (failed_) return true;
      return ExecBlock(cond != 0 ? s.body : s.else_body, frame, ret);
    }
    case StmtKind::kFor: {
      const Value iter = EvalExpr(*s.value, frame);
      if (failed_) return true;
      if (iter.IsNumber() || iter.obj == nullptr) {
        RuntimeError(s.line, "for: iterable must be an object");
        return true;
      }
      const std::size_t n = iter.obj->NumChildren();
      for (std::size_t i = 0; i < n; ++i) {
        const ScriptObject* child = iter.obj->Child(i);
        if (child == nullptr) {
          RuntimeError(s.line, "for: object returned a null child");
          return true;
        }
        SetLocal(frame, s.target, Value::Object(child));
        if (ExecBlock(s.body, frame, ret)) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

bool Interpreter::ExecBlock(const std::vector<StmtPtr>& block, Frame* frame, Value* ret) {
  for (const StmtPtr& s : block) {
    if (ExecStmt(*s, frame, ret)) {
      return true;
    }
    if (failed_) {
      return true;
    }
  }
  return false;
}

EvalResult Interpreter::Call(const std::string& function, const std::vector<Value>& args) {
  // One span per top-level call. The interpreter counts nothing shared: a
  // caller reads the result and steps_used().
  obs::SpanGuard span("interp", "call");
  if (span.active()) {
    span.SetArg("function", function);
  }

  EvalResult out;
  failed_ = false;
  error_.clear();
  steps_ = 0;
  depth_ = 0;
  const FunctionDef* f = program_->Find(function);
  if (f == nullptr) {
    out.error = StrFormat("no such function '%s'", function.c_str());
    return out;
  }
  const Value v = CallFunction(*f, args, f->line);
  if (span.active()) {
    span.SetArg("steps", static_cast<double>(steps_));
    obs::Tracer::Global().Counter("interp", "steps_used", static_cast<double>(steps_));
  }
  if (failed_) {
    out.error = error_;
    return out;
  }
  out.ok = true;
  out.value = v;
  return out;
}

}  // namespace perfiface
