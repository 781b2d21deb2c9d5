#include "src/perfscript/vm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/exposition.h"
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

// MemoEntry::state; a zeroed entry is empty.
constexpr std::uint8_t kMemoPending = 1;
constexpr std::uint8_t kMemoDone = 2;
// MemoEntry::kinds: bits 0..3 mark object arguments, this bit an object
// result.
constexpr std::uint8_t kResultObject = 1 << 4;
constexpr std::uint8_t kArgKinds = kResultObject - 1;

constexpr std::size_t kMemoMinSlots = 16;
constexpr std::size_t kMemoMaxSlots = 256;
// The slot is the top bits of a multiplicative hash over the callee and
// one independent product per argument word.
constexpr std::uint64_t kMemoHashMul = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMemoArgMul[] = {0xbf58476d1ce4e5b9ULL, 0x94d049bb133111ebULL,
                                         0xd6e8feb86659fd93ULL, 0xff51afd7ed558ccdULL};

// A value as a memo key or result word: the IEEE bits of a number, the
// address of an object.
std::uint64_t MemoWord(const Value& v) {
  if (!v.IsNumber()) return reinterpret_cast<std::uintptr_t>(v.obj);
  std::uint64_t bits;
  std::memcpy(&bits, &v.num, sizeof bits);
  return bits;
}

Value MemoValue(std::uint64_t word, bool object) {
  if (object) {
    return Value::Object(reinterpret_cast<const ScriptObject*>(static_cast<std::uintptr_t>(word)));
  }
  double num;
  std::memcpy(&num, &word, sizeof num);
  return Value::Number(num);
}

}  // namespace

std::size_t Vm::MemoSlot(std::uint16_t fn, const Value* args, std::uint32_t n,
                         std::uint8_t* kinds) const {
  std::uint8_t k = 0;
  std::uint64_t h = (fn + 1ULL) * kMemoHashMul;
  for (std::uint32_t i = 0; i < n; ++i) {
    k |= args[i].IsNumber() ? 0 : 1 << i;
    h += MemoWord(args[i]) * kMemoArgMul[i];
  }
  h ^= h >> 29;
  *kinds = k;
  return (h * kMemoHashMul) >> memo_shift_;
}

bool Vm::MemoDone(const MemoEntry& e, std::uint16_t fn, const Value* args, std::uint32_t n,
                  std::uint8_t kinds) const {
  if (e.gen != gen_ || e.state != kMemoDone || e.fn != fn || (e.kinds & kArgKinds) != kinds) {
    return false;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (e.args[i] != MemoWord(args[i])) return false;
  }
  return true;
}

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

  // Four memo slots per call site, a power of two from 16 to 256; a
  // program without calls gets no table.
  std::size_t call_sites = 0;
  for (const CompiledFunction& fn : program_->functions) {
    call_sites += std::count_if(fn.code.begin(), fn.code.end(),
                                [](const Instr& ins) { return ins.op == Op::kCall; });
  }
  if (call_sites > 0) {
    std::size_t slots = kMemoMinSlots;
    memo_shift_ = 60;
    while (slots < 4 * call_sites && slots < kMemoMaxSlots) {
      slots *= 2;
      --memo_shift_;
    }
    memo_.assign(slots, MemoEntry{});
  }
}

EvalResult Vm::Call(const std::string& function, const std::vector<Value>& args) {
  obs::SpanGuard span("vm", "call");
  if (span.active()) {
    span.SetArg("function", function);
  }

  EvalResult out;
  steps_ = 0;
  frames_.clear();
  // Entries of earlier calls go stale: their object addresses may be reused.
  ++gen_;
  memo_hits_ = 0;
  deepest_ = 1;

  const int fidx = program_->FindIndex(function);
  if (fidx < 0) {
    out.error = StrFormat("no such function '%s'", function.c_str());
    return out;
  }
  const CompiledFunction* fn = &program_->functions[fidx];
  if (args.size() != fn->num_params) {
    out.error = StrFormat("line %d: %s: expected %zu arguments, got %zu", fn->line,
                          fn->name.c_str(), fn->num_params, args.size());
    return out;
  }
  if (max_depth_ < 1) {
    out.error = StrFormat("line %d: recursion depth limit exceeded", fn->line);
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
        R[ins.a] = Value::Number(MinNum(R[ins.b].num, R[ins.c].num));
        break;
      case Op::kMax2:
        R[ins.a] = Value::Number(MaxNum(R[ins.b].num, R[ins.c].num));
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
        // Every program with a kCall has a memo table.
        std::uint16_t memo_slot = kNoMemoSlot;
        if (ins.c <= kMemoMaxArgs) {
          const Value* call_args = R + ins.b;
          std::uint8_t kinds;
          const std::size_t slot = MemoSlot(ins.imm, call_args, ins.c, &kinds);
          MemoEntry& e = memo_[slot];
          if (MemoDone(e, ins.imm, call_args, ins.c, kinds)) {
            // Reuse only what the call itself would have completed: its
            // steps within the budget, its nesting within the depth limit.
            if (e.steps <= max_steps_ - steps_ && frames_.size() + 1 + e.height <= max_depth_) {
              steps_ += e.steps;
              deepest_ = std::max(deepest_,
                                  static_cast<std::uint32_t>(frames_.size() + 1 + e.height));
              R[ins.a] = MemoValue(e.result, (e.kinds & kResultObject) != 0);
              ++memo_hits_;
              break;
            }
          } else if (e.gen != gen_ || e.state == kMemoDone) {
            // Claim the slot; the call fills in its outcome when it returns.
            // A pending slot belongs to a call still running and stays.
            e.gen = gen_;
            e.fn = ins.imm;
            e.kinds = kinds;
            for (std::uint32_t i = 0; i < ins.c; ++i) {
              e.args[i] = MemoWord(call_args[i]);
            }
            e.state = kMemoPending;
            memo_slot = static_cast<std::uint16_t>(slot);
          }
        }
        frames_.push_back(Frame{fn, steps_, base, pc, deepest_, memo_slot, ins.a});
        const CompiledFunction* callee = &program_->functions[ins.imm];
        base += ins.b;
        EnsureRegs(base + callee->num_regs);
        fn = callee;
        code = fn->code.data();
        pc = 0;
        R = regs_.data() + base;
        EnterFunction(*fn, R);
        deepest_ = static_cast<std::uint32_t>(frames_.size() + 1);
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
        if (f.memo_slot != kNoMemoSlot) {
          MemoEntry& e = memo_[f.memo_slot];
          e.result = MemoWord(v);
          e.kinds |= v.IsNumber() ? 0 : kResultObject;
          e.steps = steps_ - f.entry_steps;
          // The callee ran at depth frames_.size() + 2.
          e.height = deepest_ - static_cast<std::uint32_t>(frames_.size() + 1);
          e.state = kMemoDone;
        }
        deepest_ = std::max(deepest_, f.caller_deepest);
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
        R[ins.a] = Value::Number(MinNum(R[ins.b].num, program_->consts[ins.imm]));
        break;
      case Op::kMaxC:
        R[ins.a] = Value::Number(MaxNum(R[ins.b].num, program_->consts[ins.imm]));
        break;
      case Op::kClampCC:
        R[ins.a] = Value::Number(MaxNum(
            MinNum(R[ins.b].num, program_->consts[ins.imm]), program_->consts[ins.c]));
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
      // The head of `for x in obj: acc += f(x)` (compile.h): kJmpGe's bounds
      // test and kIterChild's child fetch, free as theirs are. While the
      // child is x's previous value and the memo answers f(child) as the
      // body's kCall would, the iteration runs here: it writes what the
      // body writes and is charged what the body charges (move, call,
      // checknum, add and addc, plus the recorded call's steps), and only
      // if the body could not reach the budget in it, the back edge's check
      // included. Every other iteration continues in the body, the exact
      // path.
      case Op::kForSum: {
        --steps_;
        // iterchild x, obj, i; move t, x; call t = f(t); checknum t;
        // add acc, acc, t; addc i, i, K; jmp head
        const Instr* body = code + pc;
        Value& index = R[ins.a];
        if (index.num >= R[ins.b].num) {
          pc = ins.imm;
          break;
        }
        ++pc;  // on to the body's move, unless the loop ends in place
        const ScriptObject* iterable = R[body[0].b].obj;
        const ScriptObject* child = iterable->Child(static_cast<std::size_t>(index.num));
        Value& var = R[body[0].a];
        // The child the body goes on with: `child`, or after iterations in
        // place the first child that differs (null fails as kIterChild).
        const ScriptObject* next = child;
        if (child != nullptr && !var.IsNumber() && var.obj == child) {
          const std::uint16_t callee = body[2].imm;
          std::uint8_t kinds;
          const MemoEntry& e = memo_[MemoSlot(callee, &var, 1, &kinds)];
          Value& acc = R[body[4].a];
          if (MemoDone(e, callee, &var, 1, kinds) && (e.kinds & kResultObject) == 0 &&
              acc.IsNumber() && frames_.size() + 1 + e.height <= max_depth_) {
            const std::uint64_t cost = 5 + e.steps;
            const std::uint64_t budget = max_steps_;
            const double value = MemoValue(e.result, false).num;
            const double count = R[ins.b].num;
            const double step = program_->consts[body[5].imm];
            std::uint64_t steps = steps_;
            std::uint64_t hits = 0;
            double i = index.num;
            double sum = acc.num;
            while (cost < budget - steps) {
              steps += cost;
              ++hits;
              sum += value;
              i += step;
              if (i >= count) {
                pc = ins.imm;
                break;
              }
              next = iterable->Child(static_cast<std::size_t>(i));
              if (next != child) break;
            }
            steps_ = steps;
            if (hits > 0) {
              memo_hits_ += hits;
              deepest_ =
                  std::max(deepest_, static_cast<std::uint32_t>(frames_.size() + 1 + e.height));
              R[body[1].a] = Value::Number(value);
              acc = Value::Number(sum);
              index = Value::Number(i);
            }
          }
        }
        if (next == nullptr) {
          fail(body[0].line, "for: object returned a null child");
          break;
        }
        var = Value::Object(next);
        break;
      }
    }
    if (failed) break;
  }

done:
  if (span.active()) {
    span.SetArg("steps", static_cast<double>(steps_));
    span.SetArg("memo_hits", static_cast<double>(memo_hits_));
  }
  if (failed) {
    return out;
  }
  out.ok = true;
  out.value = result;
  return out;
}

void AppendVmPrometheus(std::string* out, const VmCounts& counts) {
  obs::AppendCounter(out, "perfiface_psc_vm_calls_total", "Top-level PerfScript bytecode VM calls",
                     counts.calls);
  obs::AppendCounter(out, "perfiface_psc_vm_steps_total",
                     "PerfScript bytecode VM instructions executed", counts.steps);
  obs::AppendCounter(out, "perfiface_psc_vm_errors_total",
                     "PerfScript bytecode VM calls that failed", counts.errors);
  obs::AppendCounter(out, "perfiface_psc_vm_memo_hits_total",
                     "PerfScript bytecode VM calls taken from the call memo instead of run",
                     counts.memo_hits);
}

}  // namespace perfiface
