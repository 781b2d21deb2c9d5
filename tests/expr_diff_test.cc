// Differential equivalence for the unified expression IR: the register
// bytecode CompiledExpr executes (EvalRegs / EvalRegsChecked, with the
// shared superinstruction peephole) must agree with an independent
// reference — a direct recursive evaluation of the parsed Expr with net
// semantics — bit-exact doubles, including the NaN produced, and
// byte-identical error strings. The reference never reads CompiledExpr's
// postfix ops, so a bug in building them (not only in lowering them) shows
// up as a mismatch. This is the contract the simulator (src/petri/sim.cc)
// and the distiller (src/petri/distill.cc) rely on.
//
// Three corpora: every delay/guard expression of every shipped .pnet
// interface, a seeded random-expression fuzz over the full operator set,
// and the long fusion-heavy shapes of an expression-bound net — all swept
// across attribute vectors that include 0, negatives, non-integers, huge
// magnitudes, NaN, and +/-Inf.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/loc.h"
#include "src/common/strings.h"
#include "src/core/pnet.h"
#include "src/perfscript/compile.h"
#include "src/perfscript/interp.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"
#include "src/petri/net.h"

namespace perfiface {
namespace {

// Deterministic seed stream (SplitMix64): the fuzzed expressions and
// argument sets must be identical on every run and platform.
std::uint64_t NextRand(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Bit-exact double comparison. NaN == NaN only when the payloads match:
// both sides run the same arithmetic in the same order, so even NaN bits
// must agree.
bool BitEqual(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

// Attribute values the fuzz draws from; deliberately adversarial (zero
// divisors, NaN/Inf propagation, values past the 2^53 integer range).
const double kAttrPool[] = {
    0.0,    1.0, -1.0, 0.5,      -3.25, 8.0,   17.0,
    4096.0, 1e6, 1e15, 9.007e15, -1e9,  1e-12,
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
};

double DrawAttr(std::uint64_t* rng) {
  if (NextRand(rng) % 4 == 0) {
    return kAttrPool[NextRand(rng) % (sizeof(kAttrPool) / sizeof(kAttrPool[0]))];
  }
  // A "plausible workload" value: non-negative, mixed magnitude.
  return static_cast<double>(NextRand(rng) % 100000) / 4.0;
}

// The reference evaluator: the parsed expression walked directly. Net
// semantics — `and`/`or` evaluate both operands, operands evaluate left to
// right, min/max fold left to right, and the first division or modulo by
// zero stops evaluation with the register code's error string. Names
// resolve through the same binder the compiler used.
bool RefEval(const Expr& e, const ExprBinder& binder, const std::vector<double>& attrs,
             double* out, std::string* error) {
  switch (e.kind) {
    case ExprKind::kNumber:
      *out = e.number;
      return true;
    case ExprKind::kVar: {
      const std::optional<ExprBinding> b = binder(e.name);
      if (!b.has_value()) {
        *error = "unbound " + e.name;
        return false;
      }
      *out = b->kind == ExprBinding::Kind::kConst
                 ? b->value
                 : (b->slot < attrs.size() ? attrs[b->slot] : 0.0);
      return true;
    }
    case ExprKind::kAttr:
      *error = "attribute access";
      return false;
    case ExprKind::kUnary: {
      double v = 0;
      if (!RefEval(*e.children[0], binder, attrs, &v, error)) return false;
      *out = e.un_op == UnOp::kNeg ? -v : (v == 0 ? 1 : 0);
      return true;
    }
    case ExprKind::kCall: {
      std::vector<double> args;
      for (const ExprPtr& c : e.children) {
        double v = 0;
        if (!RefEval(*c, binder, attrs, &v, error)) return false;
        args.push_back(v);
      }
      if (e.name == "min" || e.name == "max") {
        double r = args.at(0);
        for (std::size_t i = 1; i < args.size(); ++i) {
          r = e.name == "min" ? MinNum(r, args[i]) : MaxNum(r, args[i]);
        }
        *out = r;
      } else if (e.name == "ceil") {
        *out = std::ceil(args.at(0));
      } else if (e.name == "floor") {
        *out = std::floor(args.at(0));
      } else if (e.name == "abs") {
        *out = std::fabs(args.at(0));
      } else if (e.name == "sqrt") {
        *out = std::sqrt(args.at(0));
      } else {
        *error = "unknown function " + e.name;
        return false;
      }
      return true;
    }
    case ExprKind::kBinary: {
      double a = 0, b = 0;
      if (!RefEval(*e.children[0], binder, attrs, &a, error) ||
          !RefEval(*e.children[1], binder, attrs, &b, error)) {
        return false;
      }
      switch (e.bin_op) {
        case BinOp::kAdd: *out = a + b; break;
        case BinOp::kSub: *out = a - b; break;
        case BinOp::kMul: *out = a * b; break;
        case BinOp::kDiv:
          if (b == 0) {
            *error = StrFormat("line %d: division by zero", e.line);
            return false;
          }
          *out = a / b;
          break;
        case BinOp::kMod:
          if (b == 0) {
            *error = StrFormat("line %d: modulo by zero", e.line);
            return false;
          }
          *out = std::fmod(a, b);
          break;
        case BinOp::kLt: *out = a < b ? 1 : 0; break;
        case BinOp::kLe: *out = a <= b ? 1 : 0; break;
        case BinOp::kGt: *out = a > b ? 1 : 0; break;
        case BinOp::kGe: *out = a >= b ? 1 : 0; break;
        case BinOp::kEq: *out = a == b ? 1 : 0; break;
        case BinOp::kNe: *out = a != b ? 1 : 0; break;
        case BinOp::kAnd: *out = (a != 0 && b != 0) ? 1 : 0; break;
        case BinOp::kOr: *out = (a != 0 || b != 0) ? 1 : 0; break;
      }
      return true;
    }
  }
  return false;
}

// Asserts the compiled expression and the reference agree on one
// attribute vector: same ok flag, byte-identical error, bit-exact value,
// through both the checked and the lean (simulator) entry points.
void ExpectSame(const CompiledExpr& compiled, const Expr& parsed, const ExprBinder& binder,
                const std::vector<double>& attrs, const std::string& what) {
  double want = 0;
  std::string want_error;
  const bool want_ok = RefEval(parsed, binder, attrs, &want, &want_error);
  const auto slot = [&attrs](std::uint32_t s) { return s < attrs.size() ? attrs[s] : 0.0; };
  const EvalResult got = compiled.EvalRegsChecked(slot);
  ASSERT_EQ(want_ok, got.ok) << what << " (reference: '" << want_error << "', compiled: '"
                             << got.error << "')";
  double lean = 0;
  std::string lean_error;
  EXPECT_EQ(compiled.EvalRegs(slot, &lean, &lean_error), got.ok) << what;
  if (!want_ok) {
    EXPECT_EQ(want_error, got.error) << what;
    EXPECT_EQ(want_error, lean_error) << what;
    return;
  }
  EXPECT_TRUE(BitEqual(want, got.Num()))
      << what << ": reference=" << want << " compiled=" << got.Num();
  EXPECT_TRUE(BitEqual(want, lean)) << what;
}

// Binder matching the .pnet loader: declared constants inline, attributes
// resolve to their slot.
ExprBinder NetBinder(const PetriNet& net, const std::map<std::string, double>& consts) {
  return [&net, &consts](std::string_view name) -> std::optional<ExprBinding> {
    const auto it = consts.find(std::string(name));
    if (it != consts.end()) return ExprBinding::Const(it->second);
    const std::size_t slot = net.FindAttr(name);
    if (slot == PetriNet::kNoAttr) return std::nullopt;
    return ExprBinding::Slot(static_cast<std::uint32_t>(slot));
  };
}

// The quoted value of `key="..."` on a .pnet directive line, if present.
std::optional<std::string> QuotedOption(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=\"");
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + key.size() + 3;
  return line.substr(begin, line.find('"', begin) - begin);
}

// A shipped net and what the reference needs beside it: the constants and
// each transition's delay and guard source, which the loaded net keeps only
// in compiled form, read from the flattened document.
struct ShippedNet {
  LoadedNet loaded;
  std::map<std::string, double> consts;
  std::map<std::string, std::pair<std::string, std::optional<std::string>>> sources;
};

void LoadShippedNet(const std::string& name, ShippedNet* out) {
  const std::string path =
      std::string(PERFIFACE_SOURCE_DIR) + "/src/core/interfaces/" + name + ".pnet";
  out->loaded = LoadPnetFile(path);
  ASSERT_TRUE(out->loaded.ok()) << name << ": " << out->loaded.error;
  const PnetExpansion expanded =
      ExpandPnetIncludes(ReadFileOrDie(path), path.substr(0, path.rfind('/')));
  ASSERT_TRUE(expanded.ok) << expanded.error;
  for (const std::string& raw : SplitString(expanded.text, '\n')) {
    const std::string line(StripWhitespace(raw));
    const std::vector<std::string> words = SplitString(line, ' ');
    if (words.size() == 3 && words[0] == "const") {
      out->consts[words[1]] = std::atof(words[2].c_str());
    } else if (words.size() > 1 && words[0] == "trans") {
      out->sources[words[1]] = {QuotedOption(line, "delay").value(), QuotedOption(line, "guard")};
    }
  }
}

TEST(ExprDiff, ShippedNetExpressionsAgree) {
  std::uint64_t rng = 0x9d1f29a4c0ffee01ULL;
  std::size_t checked = 0;
  for (const char* name : {"jpeg", "protoacc", "vta", "conv"}) {
    ShippedNet shipped;
    ASSERT_NO_FATAL_FAILURE(LoadShippedNet(name, &shipped));
    const ExprBinder binder = NetBinder(*shipped.loaded.net, shipped.consts);
    const std::size_t num_attrs = shipped.loaded.net->attr_names().size();
    for (const TransitionSpec& spec : shipped.loaded.net->transitions()) {
      const auto& [delay_source, guard_source] = shipped.sources.at(spec.name);
      for (const auto& [compiled, source] :
           {std::pair{spec.delay_compiled, std::optional<std::string>(delay_source)},
            std::pair{spec.guard_compiled, guard_source}}) {
        ASSERT_EQ(compiled != nullptr, source.has_value()) << name << "/" << spec.name;
        if (compiled == nullptr) continue;
        const ParseExprResult parsed = ParseExpression(*source);
        ASSERT_TRUE(parsed.ok) << *source << ": " << parsed.error;
        ++checked;
        for (int trial = 0; trial < 64; ++trial) {
          std::vector<double> attrs(num_attrs);
          for (double& a : attrs) a = DrawAttr(&rng);
          ExpectSame(*compiled, *parsed.expr, binder, attrs,
                     std::string(name) + "/" + spec.name + " `" + *source + "` trial " +
                         std::to_string(trial));
        }
      }
    }
  }
  EXPECT_GT(checked, 10u);
}

// --------------------------------------------------------------------------
// Random-expression corpus
// --------------------------------------------------------------------------

const char* const kLeafConsts[] = {"0", "1", "2", "0.5", "3", "8", "4096", "1.5", "7"};

// A random expression over the full operator set; with `slots` false its
// leaves are all constants.
std::string GenExpr(std::uint64_t* rng, int depth, bool slots = true) {
  if (depth <= 0 || NextRand(rng) % 100 < 25) {
    const std::uint64_t leaf = NextRand(rng) % 6;
    if (slots && leaf < 3) {
      return std::string(1, static_cast<char>('a' + leaf));
    }
    return kLeafConsts[NextRand(rng) % (sizeof(kLeafConsts) / sizeof(kLeafConsts[0]))];
  }
  const char* const kBinOps[] = {"+", "-",  "*",  "/",  "%",   "<",  "<=",
                                 ">", ">=", "==", "!=", "and", "or"};
  const std::uint64_t op_kind = NextRand(rng) % 20;
  switch (op_kind) {
    case 0: return "(-" + GenExpr(rng, depth - 1, slots) + ")";
    case 1: return "(not " + GenExpr(rng, depth - 1, slots) + ")";
    case 2: return "ceil(" + GenExpr(rng, depth - 1, slots) + ")";
    case 3: return "floor(" + GenExpr(rng, depth - 1, slots) + ")";
    case 4: return "abs(" + GenExpr(rng, depth - 1, slots) + ")";
    case 5: return "sqrt(" + GenExpr(rng, depth - 1, slots) + ")";
    case 6:
    case 7: {
      // Operands are drawn in order: the operands of one `+` chain are
      // evaluated in an unspecified order, which would make the corpus
      // depend on the build.
      const std::string lhs = GenExpr(rng, depth - 1, slots);
      const std::string rhs = GenExpr(rng, depth - 1, slots);
      return std::string(op_kind == 6 ? "min(" : "max(") + lhs + ", " + rhs + ")";
    }
    default: {
      const char* op = kBinOps[NextRand(rng) % (sizeof(kBinOps) / sizeof(kBinOps[0]))];
      const std::string lhs = GenExpr(rng, depth - 1, slots);
      const std::string rhs = GenExpr(rng, depth - 1, slots);
      return "(" + lhs + " " + op + " " + rhs + ")";
    }
  }
}

const ExprBinder kAbcBinder = [](std::string_view name) -> std::optional<ExprBinding> {
  if (name == "a") return ExprBinding::Slot(0);
  if (name == "b") return ExprBinding::Slot(1);
  if (name == "c") return ExprBinding::Slot(2);
  return std::nullopt;
};

// Compiles `source` the way the .pnet loader would and checks it against
// the reference on `trials` attribute vectors of `num_attrs` slots.
void CheckSource(const std::string& source, const ExprBinder& binder, std::size_t num_attrs,
                 int trials, std::uint64_t* rng) {
  std::string error;
  const auto compiled = CompiledExpr::CompileSource(source, binder, &error);
  ASSERT_NE(compiled, nullptr) << source << ": " << error;
  const ParseExprResult parsed = ParseExpression(source);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> attrs(num_attrs);
    for (double& a : attrs) a = DrawAttr(rng);
    ExpectSame(*compiled, *parsed.expr, binder, attrs, source);
  }
}

TEST(ExprDiff, RandomExpressionCorpusAgrees) {
  std::uint64_t rng = 0x5eed5eed5eed5eedULL;
  for (int i = 0; i < 400; ++i) {
    CheckSource(GenExpr(&rng, 5), kAbcBinder, 3, 16, &rng);
  }
}

// A tie of +0 and -0 is -0 for min and +0 for max, in either order, in
// every evaluator: the interpreter, the VM, CompiledExpr::EvalRegs and the
// constant folders of programs and of expressions.
TEST(ExprDiff, SignedZeroTiesOfMinAndMaxFollowOneRule) {
  struct Case {
    const char* fn;
    double a, b, want;
  };
  const Case cases[] = {{"min", 0.0, -0.0, -0.0},
                        {"min", -0.0, 0.0, -0.0},
                        {"max", 0.0, -0.0, 0.0},
                        {"max", -0.0, 0.0, 0.0}};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto literal = [](double v) { return std::string(std::signbit(v) ? "(-0)" : "0"); };
  for (const Case& c : cases) {
    const std::string fn = c.fn;
    const std::string what = fn + StrFormat("(%g, %g)", c.a, c.b);
    const std::string folded = fn + "(" + literal(c.a) + ", " + literal(c.b) + ")";
    const ParseResult parsed = ParseProgram("def f(w):\n  return " + fn +
                                            "(w.a, w.b)\nend\ndef g():\n  return " + folded +
                                            "\nend\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    KvObject w;
    w.Set("a", c.a);
    w.Set("b", c.b);
    Interpreter interp(&parsed.program);
    const CompileProgramResult program = CompileProgram(parsed.program, {});
    ASSERT_NE(program.program, nullptr) << program.error;
    Vm vm(program.program);
    for (const char* function : {"f", "g"}) {
      const std::vector<Value> args =
          function[0] == 'f' ? std::vector<Value>{Value::Object(&w)} : std::vector<Value>{};
      const EvalResult by_interp = interp.Call(function, args);
      const EvalResult by_vm = vm.Call(function, args);
      ASSERT_TRUE(by_interp.ok && by_vm.ok) << by_interp.error << by_vm.error;
      EXPECT_EQ(bits(by_interp.value.num), bits(c.want)) << what << " interpreter " << function;
      EXPECT_EQ(bits(by_vm.value.num), bits(c.want)) << what << " vm " << function;
    }

    std::string error;
    const auto on_slots = CompiledExpr::CompileSource(fn + "(a, b)", kAbcBinder, &error);
    ASSERT_NE(on_slots, nullptr) << error;
    const double slots[] = {c.a, c.b, 0.0};
    const EvalResult by_regs =
        on_slots->EvalRegsChecked([&slots](std::uint32_t s) { return slots[s]; });
    ASSERT_TRUE(by_regs.ok) << by_regs.error;
    EXPECT_EQ(bits(by_regs.value.num), bits(c.want)) << what << " EvalRegs";
    const auto constant = CompiledExpr::CompileSource(folded, kAbcBinder, &error);
    ASSERT_NE(constant, nullptr) << error;
    ASSERT_TRUE(constant->ConstantValue().has_value()) << folded;
    EXPECT_EQ(bits(*constant->ConstantValue()), bits(c.want)) << what << " expression folder";
  }
}

// The shapes of an expression-bound net: long sums of const-mul-add terms,
// min/max clamps and prime moduli, plus compound attribute guards — the
// patterns every superinstruction fuses.
TEST(ExprDiff, SuperinstructionShapesAgree) {
  const ExprBinder binder = [](std::string_view name) -> std::optional<ExprBinding> {
    if (name == "x") return ExprBinding::Slot(0);
    if (name == "y") return ExprBinding::Slot(1);
    return std::nullopt;
  };
  std::uint64_t rng = 0x90de90de90de90deULL;
  const unsigned primes[] = {127, 149, 191, 227, 233, 251, 283, 311, 359,
                             421, 431, 499, 509, 541, 577, 593, 613, 641,
                             647, 683, 709, 733, 769, 821, 883, 919};
  constexpr std::size_t kStages = 4;
  constexpr std::size_t kTermsPerDelay = 96;
  for (std::size_t s = 0; s < kStages; ++s) {
    std::string delay = StrFormat("(x * %zu + y * %zu + %zu) %% 8191", 2 + s, 3 + s, 5 + s);
    for (std::size_t t = 0; t < kTermsPerDelay; ++t) {
      const std::size_t v = s * kTermsPerDelay + t;
      const unsigned prime = primes[v % (sizeof(primes) / sizeof(primes[0]))];
      switch (t % 4) {
        case 0:
          delay += StrFormat(" + ((x * %zu + y * %zu) * %zu + %zu) %% %u", 2 + v % 7,
                             1 + v % 5, 2 + v % 3, 3 + v, prime);
          break;
        case 1:
          delay += StrFormat(" + max(min(y * %zu + %zu, %zu), %zu)", 2 + v % 8, 3 + v,
                             8'000 + 900 * (v % 50), 8 + v % 56);
          break;
        case 2:
          delay += StrFormat(" + (x * %zu + y * %zu + %zu) %% %u", 1 + v % 9, 2 + v % 7,
                             7 + v, prime);
          break;
        default:
          delay += StrFormat(" + min(x * %zu + %zu, %zu) / %zu", 2 + v % 6, 2 + v,
                             30'000 + 1'000 * (v % 60), 3 + v % 28);
          break;
      }
    }
    CheckSource(delay, binder, 2, 64, &rng);
  }
  for (const char* guard :
       {"x + y * 2 >= 1 and x * 3 + 1 > 0", "max(x, y) >= 0 and y + 1 > 0",
        "x * y + 1 > 0 and x >= 0", "x + 1 > 0 and y * 2 >= 0"}) {
    CheckSource(guard, binder, 2, 64, &rng);
  }
}

// True if the parsed expression names an attribute slot anywhere.
bool ReadsSlot(const Expr& e, const ExprBinder& binder) {
  if (e.kind == ExprKind::kVar) {
    const std::optional<ExprBinding> b = binder(e.name);
    return b.has_value() && b->kind == ExprBinding::Kind::kSlot;
  }
  for (const ExprPtr& c : e.children) {
    if (ReadsSlot(*c, binder)) return true;
  }
  return false;
}

// ConstantValue is present exactly when the expression reads no slot and
// the reference evaluates it without error, and then it is the reference's
// value bit for bit. Returns whether it was present.
bool ExpectConstantMatchesReference(const CompiledExpr& compiled, const std::string& source,
                                    const ExprBinder& binder) {
  const ParseExprResult parsed = ParseExpression(source);
  EXPECT_TRUE(parsed.ok) << source << ": " << parsed.error;
  if (!parsed.ok) return false;
  double want = 0;
  std::string error;
  const bool constant =
      !ReadsSlot(*parsed.expr, binder) && RefEval(*parsed.expr, binder, {}, &want, &error);
  const std::optional<double> got = compiled.ConstantValue();
  EXPECT_EQ(got.has_value(), constant) << source;
  if (got.has_value() && constant) {
    EXPECT_TRUE(BitEqual(*got, want)) << source << ": " << *got << " vs " << want;
  }
  return got.has_value();
}

// The constant delays and guards the simulator skips evaluating. Over the
// shipped nets the test also pins which expressions are constant (jpeg 1,
// conv 9, protoacc 1, vta 3) and the disassembly of every expression,
// rendered as `pnet_tool show --dump-expr-bytecode` prints them, against
// tests/golden/net_expr_bytecode.golden.
TEST(ExprDiff, ConstantValueMatchesTheReference) {
  std::string rendered;
  std::map<std::string, int> constants;
  for (const char* name : {"jpeg", "conv", "protoacc", "vta", "components/dram_channel"}) {
    ShippedNet shipped;
    ASSERT_NO_FATAL_FAILURE(LoadShippedNet(name, &shipped));
    const ExprBinder binder = NetBinder(*shipped.loaded.net, shipped.consts);
    rendered += StrFormat("# %s.pnet\n", name);
    constants[name] = 0;
    for (const TransitionSpec& spec : shipped.loaded.net->transitions()) {
      const auto& [delay_source, guard_source] = shipped.sources.at(spec.name);
      for (const auto& [label, compiled, source] :
           {std::tuple{"delay", spec.delay_compiled.get(), std::optional(delay_source)},
            std::tuple{"guard", spec.guard_compiled.get(), guard_source}}) {
        if (compiled == nullptr) continue;
        constants[name] += ExpectConstantMatchesReference(*compiled, *source, binder);
        const std::optional<double> constant = compiled->ConstantValue();
        rendered += constant.has_value()
                        ? StrFormat("  %s.%s: constant = %.17g\n", spec.name.c_str(), label,
                                    *constant)
                        : StrFormat("  %s.%s: general\n", spec.name.c_str(), label);
        rendered += compiled->DisassembleRegs();
      }
    }
  }
  const std::map<std::string, int> want = {
      {"jpeg", 1}, {"conv", 9}, {"protoacc", 1}, {"vta", 3}, {"components/dram_channel", 0}};
  EXPECT_EQ(constants, want);
  EXPECT_EQ(rendered, ReadFileOrDie(std::string(PERFIFACE_SOURCE_DIR) +
                                    "/tests/golden/net_expr_bytecode.golden"));

  // The random corpus, and one with constant leaves only: zero divisors,
  // NaN from sqrt of a negative, and `and`/`or` decided by one side.
  int slot_free_constants = 0;
  for (const bool slots : {true, false}) {
    std::uint64_t rng = slots ? 0x5eed5eed5eed5eedULL : 0xc0257a47c0257a47ULL;
    for (int i = 0; i < 400; ++i) {
      const std::string source = GenExpr(&rng, 5, slots);
      std::string error;
      const auto compiled = CompiledExpr::CompileSource(source, kAbcBinder, &error);
      ASSERT_NE(compiled, nullptr) << source << ": " << error;
      slot_free_constants += !slots && ExpectConstantMatchesReference(*compiled, source, kAbcBinder);
    }
  }
  EXPECT_GT(slot_free_constants, 100);  // most slot-free expressions cannot fail
  for (const char* source : {"a and 0", "0 * a", "(1 / 0) and 0", "1 % 0", "sqrt(0 - 1)"}) {
    std::string error;
    const auto compiled = CompiledExpr::CompileSource(source, kAbcBinder, &error);
    ASSERT_NE(compiled, nullptr) << source << ": " << error;
    EXPECT_EQ(ExpectConstantMatchesReference(*compiled, source, kAbcBinder),
              std::string_view(source) == "sqrt(0 - 1)")
        << source;
  }
}

TEST(ExprDiff, DivisionByZeroErrorStringsMatchTheReference) {
  std::uint64_t rng = 1;
  for (const char* source : {"(7 / a)", "(a % b)", "(1 / a) + (2 % b)", "(1 / 0) and 0"}) {
    std::string error;
    const auto compiled = CompiledExpr::CompileSource(source, kAbcBinder, &error);
    ASSERT_NE(compiled, nullptr) << error;
    const EvalResult r = compiled->EvalRegsChecked([](std::uint32_t) { return 0.0; });
    ASSERT_FALSE(r.ok) << source;
    EXPECT_EQ(r.error.rfind("line 1: ", 0), 0u) << r.error;
    EXPECT_NE(r.error.find("by zero"), std::string::npos) << r.error;
    CheckSource(source, kAbcBinder, 3, 8, &rng);
  }
}

// --------------------------------------------------------------------------
// Binding and size limits
// --------------------------------------------------------------------------

TEST(CompiledExpr, BindsVariables) {
  const ExprBinder binder = [](std::string_view name) -> std::optional<ExprBinding> {
    if (name == "x") return ExprBinding::Const(20.0);
    if (name == "lat") return ExprBinding::Const(52.0);
    return std::nullopt;
  };
  std::string error;
  const auto compiled = CompiledExpr::CompileSource("ceil(x / 8) * (lat + 8) + 4", binder, &error);
  ASSERT_NE(compiled, nullptr) << error;
  const EvalResult v = compiled->EvalRegsChecked([](std::uint32_t) { return 0.0; });
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_DOUBLE_EQ(v.value.num, 3 * 60 + 4);
}

TEST(CompiledExpr, UnknownVariableFails) {
  std::string error;
  const auto compiled = CompiledExpr::CompileSource(
      "y + 1", [](std::string_view) { return std::optional<ExprBinding>(); }, &error);
  EXPECT_EQ(compiled, nullptr);
  EXPECT_NE(error.find("unknown variable 'y'"), std::string::npos) << error;
}

// Slots at or above kMaxSlots leave the 8-bit register file no room for
// temps: compiling such an expression is an error, and so is loading a net
// whose expression reads one.
TEST(CompiledExpr, ReadingSlot180OrAboveIsALoadError) {
  const auto slot = [](std::uint32_t s) {
    return [s](std::string_view) -> std::optional<ExprBinding> { return ExprBinding::Slot(s); };
  };
  std::string error;
  EXPECT_NE(CompiledExpr::CompileSource("v + 1", slot(CompiledExpr::kMaxSlots - 1), &error),
            nullptr)
      << error;
  EXPECT_EQ(CompiledExpr::CompileSource("v + 1", slot(CompiledExpr::kMaxSlots), &error),
            nullptr);
  EXPECT_NE(error.find("attribute slot 180"), std::string::npos) << error;

  std::string text = "net wide\n";
  for (std::uint32_t i = 0; i <= CompiledExpr::kMaxSlots; ++i) {
    text += StrFormat("attr a%u\n", i);
  }
  text += "place in\nplace out\n";
  text += StrFormat("trans t in=in out=out delay=\"a%u * 2\"\n", CompiledExpr::kMaxSlots);
  const LoadedNet loaded = LoadPnet(text);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("delay: expression reads attribute slot 180"), std::string::npos)
      << loaded.error;
}

}  // namespace
}  // namespace perfiface
