// Differential equivalence: the bytecode VM (src/perfscript/vm.h) must be
// observably identical to the tree-walking interpreter — same results, same
// error strings, same budget/depth behavior — over every program the
// registry ships and over targeted edge-case programs. The interpreter is
// the oracle; the VM is the only evaluator on the serving path.
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/program_interface.h"
#include "src/core/registry.h"
#include "src/perfscript/compile.h"
#include "src/perfscript/interp.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"

namespace perfiface {
namespace {

template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

// Deterministic seed stream (SplitMix64): the fuzzed argument sets must be
// identical on every run and platform.
std::uint64_t NextRand(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void CollectAttrNames(const Expr& e, std::set<std::string>* out) {
  if (e.kind == ExprKind::kAttr) {
    out->insert(e.name);
  }
  for (const ExprPtr& c : e.children) {
    CollectAttrNames(*c, out);
  }
}

void CollectAttrNames(const std::vector<StmtPtr>& block, std::set<std::string>* out) {
  for (const StmtPtr& s : block) {
    if (s->value != nullptr) {
      CollectAttrNames(*s->value, out);
    }
    CollectAttrNames(s->body, out);
    CollectAttrNames(s->else_body, out);
  }
}

std::set<std::string> AttrNamesOf(const Program& program) {
  std::set<std::string> names;
  for (const FunctionDef& f : program.functions) {
    CollectAttrNames(f.body, &names);
  }
  return names;
}

// A workload whose attributes cover every name the program reads, with
// seeded values that include zero (division/modulo-by-zero paths) and a
// seeded child count (loop paths). Children carry the same attributes.
std::unique_ptr<KvObject> MakeWorkload(const std::set<std::string>& attr_names,
                                       std::uint64_t* rng) {
  auto workload = std::make_unique<KvObject>();
  for (const std::string& name : attr_names) {
    const std::uint64_t r = NextRand(rng);
    double v;
    switch (r % 4) {
      case 0: v = 0.0; break;
      case 1: v = static_cast<double>(r % 7); break;
      case 2: v = static_cast<double>(r % 4096) + 0.25; break;
      default: v = -static_cast<double>(r % 100); break;
    }
    workload->Set(name, v);
  }
  static const int kChildCounts[] = {0, 1, 2, 5};
  workload->AddUniformChildren(kChildCounts[NextRand(rng) % 4]);
  return workload;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.kind != b.kind) {
    return false;
  }
  if (a.kind == Value::Kind::kObject) {
    return a.obj == b.obj;
  }
  if (std::isnan(a.num) && std::isnan(b.num)) {
    return true;
  }
  std::uint64_t ab, bb;
  std::memcpy(&ab, &a.num, sizeof ab);
  std::memcpy(&bb, &b.num, sizeof bb);
  return ab == bb;
}

// Runs one call on both backends and asserts identical observables.
void ExpectSame(Interpreter* interp, Vm* vm, const std::string& function,
                const std::vector<Value>& args, const std::string& context) {
  const EvalResult a = interp->Call(function, args);
  const EvalResult b = vm->Call(function, args);
  ASSERT_EQ(a.ok, b.ok) << context << ": ok mismatch (interp error: '" << a.error
                        << "', vm error: '" << b.error << "')";
  if (!a.ok) {
    EXPECT_EQ(a.error, b.error) << context;
    return;
  }
  EXPECT_TRUE(SameValue(a.value, b.value))
      << context << ": value mismatch (interp " << a.value.num << ", vm " << b.value.num << ")";
}

struct Backends {
  Interpreter interp;
  Vm vm;

  Backends(const ProgramInterface& iface)
      : interp(iface.program().get()), vm(iface.compiled()) {
    for (const auto& c : iface.constants()) {
      interp.SetGlobal(c.first, c.second);
    }
  }
};

constexpr int kSeedsPerFunction = 8;

// Every program the registry ships compiles at load (LoadProgram aborts
// otherwise); the compiled form must be there for the serve workers.
TEST(VmDiff, EveryRegistryProgramCompiles) {
  const InterfaceRegistry& registry = InterfaceRegistry::Default();
  std::size_t programs = 0;
  for (const InterfaceBundle& bundle : registry.bundles()) {
    if (bundle.program_path.empty()) {
      continue;
    }
    ++programs;
    const ProgramInterface iface = registry.LoadProgram(bundle.accelerator);
    EXPECT_NE(iface.compiled(), nullptr) << bundle.accelerator;
  }
  EXPECT_GT(programs, 0u) << "registry ships no executable interfaces?";
}

// For every registry program, every function, N seeded argument sets:
// interpreter and VM must agree exactly — including on error paths
// (wrong-argument workloads, zero attributes driving division by zero).
TEST(VmDiff, RegistryProgramsFuzzEquivalence) {
  const InterfaceRegistry& registry = InterfaceRegistry::Default();
  for (const InterfaceBundle& bundle : registry.bundles()) {
    if (bundle.program_path.empty()) {
      continue;
    }
    const ProgramInterface iface = registry.LoadProgram(bundle.accelerator);
    ASSERT_NE(iface.compiled(), nullptr) << bundle.accelerator;
    Backends backends(iface);
    const std::set<std::string> attr_names = AttrNamesOf(*iface.program());

    for (const FunctionDef& fn : iface.program()->functions) {
      std::uint64_t rng = 0x5eed0000 + std::hash<std::string>{}(bundle.accelerator + fn.name);
      for (int seed = 0; seed < kSeedsPerFunction; ++seed) {
        // Per-seed argument shapes: the workload object in the conventional
        // first slot, then a mix of objects and numbers (number-typed
        // arguments exercise "cannot read attribute of a number" and
        // "operand must be a number" paths on both backends).
        auto workload = MakeWorkload(attr_names, &rng);
        std::vector<Value> args;
        for (std::size_t p = 0; p < fn.params.size(); ++p) {
          const bool use_object = p == 0 ? seed % 4 != 3 : NextRand(&rng) % 2 == 0;
          if (use_object) {
            args.push_back(Value::Object(workload.get()));
          } else {
            args.push_back(Value::Number(static_cast<double>(NextRand(&rng) % 64)));
          }
        }
        const std::string context =
            bundle.accelerator + "." + fn.name + " seed " + std::to_string(seed);
        ExpectSame(&backends.interp, &backends.vm, fn.name, args, context);
        // A budget that suffices for the interpreter suffices for the VM.
        EXPECT_LE(backends.vm.steps_used(), backends.interp.steps_used()) << context;
      }
      // Arity and missing-function errors must match too.
      std::vector<Value> too_many(fn.params.size() + 1, Value::Number(1));
      ExpectSame(&backends.interp, &backends.vm, fn.name, too_many,
                 bundle.accelerator + "." + fn.name + " arity");
    }
    ExpectSame(&backends.interp, &backends.vm, "definitely_not_a_function", {},
               bundle.accelerator + " missing function");
  }
}

ProgramInterface Compiled(const std::string& source) {
  ProgramInterface iface = ProgramInterface::FromSource(source);
  iface.Compile();
  return iface;
}

// Hand-written edge-case programs: runtime errors, loops, recursion,
// short-circuiting, attribute polymorphism.
TEST(VmDiff, EdgeCaseProgramsEquivalence) {
  const char* kPrograms[] = {
      // Runtime division/modulo by zero through an attribute.
      "def f(w):\n  return 1 / w.x\nend\n"
      "def g(w):\n  return w.x % w.y\nend\n",
      // Undefined variable reached at runtime (compiled to an error op).
      "def f(w):\n  return undefined_name\nend\n",
      // Dead undefined read behind a constant condition: never an error.
      "def f(w):\n  if 0:\n    return undefined_name\n  end\n  return 1\nend\n",
      // Loops over children with accumulation and nested attribute reads.
      "def f(w):\n  total = 0\n  for c in w:\n    total += c.x * 2 + c.y\n  end\n"
      "  return total\nend\n",
      // Short-circuit: the rhs division only runs when the lhs admits it.
      "def f(w):\n  return w.x > 0 and 10 / w.x\nend\n"
      "def g(w):\n  return w.x == 0 or 10 / w.x\nend\n",
      // User-function calls, including through expressions.
      "def helper(a, b):\n  return a * b + 1\nend\n"
      "def f(w):\n  return helper(w.x, 2) + helper(3, w.y)\nend\n",
      // Recursion (bounded by the attribute value).
      "def fib(n):\n  if n < 2:\n    return n\n  end\n"
      "  return fib(n - 1) + fib(n - 2)\nend\n"
      "def f(w):\n  return fib(w.x)\nend\n",
      // Builtins, folding, and len().
      "def f(w):\n  return min(ceil(w.x / 3), floor(w.y), abs(0 - w.x), sqrt(w.x * w.x))"
      " + len(w)\nend\n",
      // Attribute read on a number (runtime type error).
      "def f(w):\n  return w.x.y\nend\n",
      // Implicit return and bare-expression statements.
      "def f(w):\n  w.x + 1\nend\n",
  };
  for (const char* source : kPrograms) {
    const ProgramInterface iface = Compiled(source);
    ASSERT_NE(iface.compiled(), nullptr) << source;
    Backends backends(iface);
    const std::set<std::string> attr_names = {"x", "y"};
    for (const FunctionDef& fn : iface.program()->functions) {
      std::uint64_t rng = 0xabc123;
      for (int seed = 0; seed < kSeedsPerFunction; ++seed) {
        auto workload = MakeWorkload(attr_names, &rng);
        std::vector<Value> args(fn.params.size(), Value::Object(workload.get()));
        ExpectSame(&backends.interp, &backends.vm, fn.name, args,
                   std::string(source) + " fn " + fn.name);
      }
    }
  }
}

// Programs that read a variable assigned on only some paths — one `if`
// branch, a loop body, a loop variable after its loop — compile to
// dynamic-scope loads. Each must match the interpreter exactly on every
// path (values, error strings), with and without a global constant of the
// same name, and never take more VM steps than interpreter steps. One Vm
// serves every input of a program, as in a serve worker, so a call that
// skips the assignment after one that made it also checks that no call
// sees a local an earlier call left in its registers.
TEST(VmDiff, MaybeAssignedReadsMatchInterpreter) {
  const char* kPrograms[] = {
      // Assigned in one branch, read after.
      "def f(w):\n  if w.x > 0:\n    y = 2\n  end\n  return y\nend\n",
      // Assigned in the else branch only, read inside arithmetic.
      "def f(w):\n  if w.x > 0:\n    z = 1\n  else:\n    y = w.x - 5\n  end\n"
      "  return y * 3 + 1\nend\n",
      // Assigned in a loop, read after it (0 children: never assigned).
      "def f(w):\n  for c in w:\n    y = c.x\n  end\n  return y\nend\n",
      // The loop variable itself, read after the loop.
      "def f(w):\n  for c in w:\n    n = 1\n  end\n  return c.x\nend\n",
      // Read inside the loop before the body assigns it (first iteration).
      "def f(w):\n  total = 0\n  for c in w:\n    total = total + y\n    y = c.x\n  end\n"
      "  return total\nend\n",
      // `+=` on a maybe-assigned variable: never falls back to a global.
      "def f(w):\n  if w.x > 0:\n    y = 1\n  end\n  y += 2\n  return y\nend\n",
      "def f(w):\n  for c in w:\n    y = c.x\n  end\n  y += w.x\n  return y\nend\n",
      // Maybe-assigned reads reached through a call, and short-circuited.
      "def g(w):\n  if w.x > 1:\n    y = w.x\n  end\n  return y\nend\n"
      "def f(w):\n  return g(w) + g(w)\nend\n",
      "def f(w):\n  if w.x > 0:\n    y = 4\n  end\n  return w.x > 0 and y\nend\n",
      // The callee's maybe-assigned local, across calls into it.
      "def h(w):\n  if w.x > 0:\n    y = w.x * 10\n  end\n  return y\nend\n"
      "def f(w):\n  return h(w)\nend\n",
  };
  // x drives the branch; the child count drives the loops (0 and n).
  const double kXs[] = {3, 0, -1};
  const int kChildren[] = {0, 1, 4};
  for (const char* source : kPrograms) {
    for (const bool with_global : {false, true}) {
      ProgramInterface iface = ProgramInterface::FromSource(source);
      if (with_global) {
        iface.SetConstant("y", 100.0);
        iface.SetConstant("c", 7.0);
      }
      iface.Compile();
      ASSERT_NE(iface.compiled(), nullptr) << source;
      Backends backends(iface);
      for (const double x : kXs) {
        for (const int children : kChildren) {
          KvObject workload;
          workload.Set("x", x);
          workload.AddUniformChildren(children);
          const std::string context =
              Cat(source, with_global ? " [globals]" : "", " x=", x, " children=", children);
          ExpectSame(&backends.interp, &backends.vm, "f", {Value::Object(&workload)}, context);
          EXPECT_LE(backends.vm.steps_used(), backends.interp.steps_used()) << context;
        }
      }
    }
  }
}

// The only compile refusals are bytecode size limits, reported as an error
// (a load error for registry programs and psc_tool).
std::string CompileErrorOf(const std::string& source) {
  ParseResult parsed = ParseProgram(source);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  const CompileProgramResult result = CompileProgram(parsed.program, {});
  EXPECT_EQ(result.program, nullptr);
  return result.error;
}

// Function `name` made of `count` generated statements.
std::string Function(const std::string& name, int count,
                     const std::function<std::string(int)>& statement) {
  std::string out = "def " + name + "(w):\n";
  for (int i = 0; i < count; ++i) {
    out += "  " + statement(i) + "\n";
  }
  return out + "  return 0\nend\n";
}

TEST(VmDiffLimits, MoreThan250RegistersIsALoadError) {
  const std::string error = CompileErrorOf(
      Function("f", 251, [](int i) { return Cat("v", i, " = w.x"); }));
  EXPECT_NE(error.find("too many locals"), std::string::npos) << error;
}

TEST(VmDiffLimits, MoreThan65535InstructionsIsALoadError) {
  const std::string error = CompileErrorOf(
      Function("f", 70'000, [](int) { return std::string("t = w"); }));
  EXPECT_NE(error.find("function too large"), std::string::npos) << error;
}

// The pools are shared by the whole program, so two functions below the
// per-function instruction limit overflow them together.
TEST(VmDiffLimits, MoreThan65536ConstantsIsALoadError) {
  const auto statement = [](int offset) {
    return [offset](int i) { return Cat("t = ", offset + i); };
  };
  const std::string error = CompileErrorOf(Function("f", 40'000, statement(1)) +
                                           Function("g", 40'000, statement(50'000)));
  EXPECT_NE(error.find("constant pool overflow"), std::string::npos) << error;
}

TEST(VmDiffLimits, MoreThan65536AttributeSitesIsALoadError) {
  const auto statement = [](int i) { return Cat("t = w.a", i % 10); };
  const std::string error =
      CompileErrorOf(Function("f", 40'000, statement) + Function("g", 40'000, statement));
  EXPECT_NE(error.find("attribute site overflow"), std::string::npos) << error;
}

TEST(VmDiffLimits, MoreThan65536ErrorStringsIsALoadError) {
  const auto statement = [](int offset) {
    return [offset](int i) { return Cat("undefined", offset + i); };
  };
  const std::string error = CompileErrorOf(Function("f", 40'000, statement(0)) +
                                           Function("g", 40'000, statement(40'000)));
  EXPECT_NE(error.find("error pool overflow"), std::string::npos) << error;
}

// Constants fold into the bytecode, so changing one must invalidate the
// compiled form (the registry recompiles after setting them all).
TEST(VmDiff, SetConstantInvalidatesCompiledForm) {
  ProgramInterface iface =
      ProgramInterface::FromSource("def f(w):\n  return base + w.x\nend\n");
  iface.SetConstant("base", 100.0);
  iface.Compile();
  ASSERT_NE(iface.compiled(), nullptr);

  KvObject workload;
  workload.Set("x", 1.0);
  EXPECT_EQ(iface.Eval("f", workload), 101.0);

  iface.SetConstant("base", 200.0);
  EXPECT_EQ(iface.compiled(), nullptr) << "stale bytecode with the old constant folded in";
  EXPECT_EQ(iface.Eval("f", workload), 201.0);
  iface.Compile();
  ASSERT_NE(iface.compiled(), nullptr);
  EXPECT_EQ(iface.Eval("f", workload), 201.0);
}

TEST(VmDiff, StepBudgetAndDepthLimitsMatch) {
  const ProgramInterface iface = Compiled(
      "def spin(w):\n  total = 0\n  for c in w:\n    total += c.x\n  end\n  return total\nend\n"
      "def deep(n):\n  if n <= 0:\n    return 0\n  end\n  return deep(n - 1) + 1\nend\n");
  ASSERT_NE(iface.compiled(), nullptr);

  // Step budget: the VM executes at most as many steps as the interpreter
  // for the same call (folding removes work), so a budget the interpreter
  // exhausts may still complete on the VM — but the VM must fail cleanly
  // under a budget IT exhausts, with the interpreter's exact error string.
  KvObject big;
  big.Set("x", 1.0);
  big.AddUniformChildren(64);
  {
    Vm vm(iface.compiled());
    vm.set_max_steps(10);
    const EvalResult r = vm.Call("spin", {Value::Object(&big)});
    ASSERT_FALSE(r.ok);
    EXPECT_TRUE(vm.step_budget_exhausted());
    EXPECT_NE(r.error.find("step budget exhausted"), std::string::npos) << r.error;
  }

  // Depth limit: identical error, identical boundary.
  Backends backends(iface);
  backends.interp.set_max_depth(10);
  backends.vm.set_max_depth(10);
  ExpectSame(&backends.interp, &backends.vm, "deep", {Value::Number(5)}, "under depth limit");
  ExpectSame(&backends.interp, &backends.vm, "deep", {Value::Number(50)}, "over depth limit");
}

// The inline cache must be correct across objects with different attribute
// layouts hitting the same call site (hint miss -> probe -> rewrite).
TEST(VmDiff, InlineCacheSurvivesLayoutChanges) {
  const ProgramInterface iface = Compiled("def f(w):\n  return w.x\nend\n");
  ASSERT_NE(iface.compiled(), nullptr);
  Vm vm(iface.compiled());

  KvObject first;  // "x" at index 0
  first.Set("x", 1.0);
  KvObject second;  // "x" at index 2
  second.Set("a", 0.0);
  second.Set("b", 0.0);
  second.Set("x", 2.0);
  KvObject third;  // no "x" at all
  third.Set("a", 0.0);

  EXPECT_EQ(vm.Call("f", {Value::Object(&first)}).Num(), 1.0);
  EXPECT_EQ(vm.Call("f", {Value::Object(&second)}).Num(), 2.0);
  EXPECT_EQ(vm.Call("f", {Value::Object(&first)}).Num(), 1.0);
  const EvalResult missing = vm.Call("f", {Value::Object(&third)});
  ASSERT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("no attribute 'x'"), std::string::npos) << missing.error;
}

TEST(VmDiff, DisassemblyShowsFoldedConstantsAndCalls) {
  ProgramInterface iface =
      ProgramInterface::FromSource("def f(w):\n  return w.x * (2 + 3) + base\nend\n");
  iface.SetConstant("base", 7.0);
  iface.Compile();
  ASSERT_NE(iface.compiled(), nullptr);
  const std::string text = iface.compiled()->Disassemble();
  EXPECT_NE(text.find("function f"), std::string::npos) << text;
  // 2 + 3 folds at compile time; `base` folds to its constant value.
  EXPECT_NE(text.find("5"), std::string::npos) << text;
  EXPECT_NE(text.find("7"), std::string::npos) << text;
  EXPECT_EQ(text.find("undefined"), std::string::npos) << text;
}

}  // namespace
}  // namespace perfiface
