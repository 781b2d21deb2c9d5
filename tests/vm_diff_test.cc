// Differential equivalence: the bytecode VM (src/perfscript/vm.h) must be
// observably identical to the tree-walking interpreter — same results, same
// error strings, same budget/depth behavior — over every program the
// registry ships and over targeted edge-case programs. The interpreter is
// the oracle; the VM is the only evaluator on the serving path.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/loc.h"
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

// `n` children that are all one object, which (unlike a KvObject's uniform
// children) may have children of its own; Child(null_at) returns null.
class AliasedRun final : public ScriptObject {
 public:
  AliasedRun(const KvObject* attrs, const ScriptObject* child, std::size_t n,
             std::size_t null_at = SIZE_MAX)
      : attrs_(attrs), child_(child), n_(n), null_at_(null_at) {}

  std::optional<double> GetAttr(std::string_view name) const override {
    return attrs_->GetAttr(name);
  }
  std::size_t NumChildren() const override { return n_; }
  const ScriptObject* Child(std::size_t i) const override {
    return i == null_at_ ? nullptr : child_;
  }

 private:
  const KvObject* attrs_;
  const ScriptObject* child_;
  std::size_t n_;
  std::size_t null_at_;
};

// Bit-exact: -0.0 and 0.0 differ, and so do NaN payloads.
bool SameValue(const Value& a, const Value& b) {
  if (a.kind != b.kind) {
    return false;
  }
  if (a.kind == Value::Kind::kObject) {
    return a.obj == b.obj;
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
      // A loop whose variable or body reassigns the iterable's local: the
      // iterable is evaluated once, as in the interpreter.
      "def f(w):\n  n = 0\n  for w in w:\n    n += 1\n  end\n  return n\nend\n",
      "def f(w):\n  n = 0\n  for c in w:\n    n += c.x\n    w = 5\n  end\n  return n + w\nend\n",
      // A constant lhs of a comparison or modulo whose rhs is a temp (a
      // fuzzed conv mutant, `4 < ceil(words / 8) * ...`, found the
      // constant loaded over the rhs).
      "def f(w):\n  return 4 < w.x * 2\nend\n"
      "def g(w):\n  return 4 % (w.x * 2 + 1)\nend\n"
      "def h(w):\n  return 6 == w.x + w.y\nend\n"
      "def k(w):\n  return 4 <= w.x\nend\n",
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

// The call memo (vm.h) reuses a call's result for a later call to the same
// function with bit-identical arguments. Against the interpreter, which
// runs every call, values must stay bit-exact and errors identical: -0.0
// and 0.0 and NaN payloads are different keys, an object returned from a
// call is the same object, distinct children are distinct keys, and a
// 5-argument callee is never memoized.
TEST(VmDiff, CallMemoMatchesInterpreter) {
  struct Case {
    const char* source;
    bool hits;  // whether the workloads below make the memo reuse calls
  };
  const Case kCases[] = {
      // A pure helper called repeatedly with the same object and numbers.
      {"def cost(o, k):\n  return o.x * k + o.y\nend\n"
       "def f(w):\n  t = 0\n  for c in w:\n    t += cost(c, 2) + cost(w, 3)\n  end\n"
       "  return t + cost(w, 2) + cost(w, 2)\nend\n",
       true},
      // Signed zeros: id(0) then id(0 * -1) must return -0.0, at compile
      // time and at run time.
      {"def id(v):\n  return v\nend\n"
       "def f(w):\n  a = id(0)\n  return id(0 * -1)\nend\n"
       "def g(w):\n  a = id(w.x * 0)\n  return id(w.x * 0 * -1)\nend\n",
       false},
      // NaN arguments: a sign-flipped NaN is a different key.
      {"def id(v):\n  return v\nend\n"
       "def f(w):\n  n = sqrt(0 - 1 - w.x * w.x)\n  a = id(n)\n  b = id(n)\n"
       "  return id(0 - n) + 0 * a + 0 * b\nend\n"
       "def g(w):\n  n = sqrt(0 - 1 - w.x * w.x)\n  a = id(n)\n  return id(-n)\nend\n",
       true},
      // A function that returns its object argument, reused.
      {"def pick(o):\n  return o\nend\n"
       "def f(w):\n  t = 0\n  for c in w:\n    t += pick(c).x + len(pick(w))\n  end\n"
       "  return pick(w).y + t\nend\n",
       true},
      // Recursion over a tree: distinct children are distinct keys.
      {"def cost(m):\n  t = m.x\n  for s in m:\n    t += cost(s)\n  end\n  return t\nend\n"
       "def f(w):\n  return cost(w) + cost(w) * 2\nend\n",
       true},
      // More than four arguments: never memoized.
      {"def five(a, b, c, d, e):\n  return a * b + c * d + e\nend\n"
       "def f(w):\n  return five(w.x, 1, 2, 3, 4) + five(w.x, 1, 2, 3, 4)\nend\n",
       false},
  };
  const double kXs[] = {3, 0, -1};
  for (const Case& c : kCases) {
    const ProgramInterface iface = Compiled(c.source);
    ASSERT_NE(iface.compiled(), nullptr) << c.source;
    Backends backends(iface);
    std::uint64_t hits = 0;
    for (const double x : kXs) {
      // Uniform children alias one object; the tree's children are
      // distinct objects with distinct attributes, two with grandchildren.
      std::vector<std::unique_ptr<KvObject>> workloads;
      for (const int children : {0, 1, 4}) {
        auto uniform = std::make_unique<KvObject>();
        uniform->Set("x", x);
        uniform->Set("y", 2);
        uniform->AddUniformChildren(children);
        workloads.push_back(std::move(uniform));
      }
      auto tree = std::make_unique<KvObject>();
      tree->Set("x", x);
      tree->Set("y", 5);
      for (int i = 0; i < 3; ++i) {
        auto child = std::make_unique<KvObject>();
        child->Set("x", x + i);
        child->Set("y", i);
        child->AddUniformChildren(i);
        tree->AddChild(std::move(child));
      }
      tree->AddUniformChildren(2);
      workloads.push_back(std::move(tree));

      for (const FunctionDef& fn : iface.program()->functions) {
        if (fn.params.size() != 1) {
          continue;
        }
        for (std::size_t i = 0; i < workloads.size(); ++i) {
          const std::string context = Cat(c.source, " fn ", fn.name, " x=", x, " workload ", i);
          ExpectSame(&backends.interp, &backends.vm, fn.name,
                     {Value::Object(workloads[i].get())}, context);
          hits += backends.vm.memo_hits();
        }
      }
    }
    EXPECT_EQ(hits > 0, c.hits) << c.source << " reused " << hits << " calls";
  }
}

// A memoized call is reused only where its recorded nesting fits under the
// depth limit. deep(5) is first recorded near the top, and a(5) is recorded
// around a reuse of it, so a's nesting must count deep's. wrap(k, 5) calls
// a(5) again k frames deeper, where past the limit a(5) and then deep(5)
// must run and fail exactly where the interpreter fails.
TEST(VmDiff, CallMemoRespectsTheDepthLimit) {
  const ProgramInterface iface = Compiled(
      "def deep(n):\n  if n <= 0:\n    return 0\n  end\n  return deep(n - 1) + 1\nend\n"
      "def a(n):\n  return deep(n)\nend\n"
      "def wrap(k, n):\n  if k <= 0:\n    return a(n)\n  end\n  return wrap(k - 1, n)\nend\n"
      "def f(k):\n  return deep(5) + a(5) + wrap(k, 5)\nend\n");
  ASSERT_NE(iface.compiled(), nullptr);
  Backends backends(iface);
  backends.interp.set_max_depth(15);
  backends.vm.set_max_depth(15);
  for (int k = 0; k <= 10; ++k) {
    ExpectSame(&backends.interp, &backends.vm, "f", {Value::Number(k)}, Cat("k=", k));
  }
}

// Keys compare the kind of each argument, not only its 64 bits: a number
// whose IEEE bits equal an object's address is a different argument.
TEST(VmDiff, CallMemoKeysOnArgumentKind) {
  const ProgramInterface iface = Compiled(
      "def id(v):\n  return v\nend\n"
      "def f(o, x):\n  t = id(o)\n  return id(x)\nend\n");
  ASSERT_NE(iface.compiled(), nullptr);
  Backends backends(iface);
  KvObject object;
  const std::uint64_t address = reinterpret_cast<std::uintptr_t>(&object);
  double aliasing_number;
  std::memcpy(&aliasing_number, &address, sizeof aliasing_number);
  ExpectSame(&backends.interp, &backends.vm, "f",
             {Value::Object(&object), Value::Number(aliasing_number)}, "aliasing bits");
}

// `for c in w: t += f(c)`, the loop of Fig 3, over inputs that leave the
// memo-answered iterations: a non-numeric accumulator, a callee returning
// an object (first recorded by another loop, so the second loop's first
// child is already memoized), a callee failing on one child, a null child
// mid-run, explicit children before a uniform run, two uniform runs, the
// loop variable read after the loop, and nested loops; at depth limits 1..6.
TEST(VmDiff, ChildLoopMatchesInterpreter) {
  const char* kCost = "def cost(c):\n  return c.x * 2 + 1\nend\n";
  const std::string kPrograms[] = {
      Cat(kCost, "def f(w):\n  t = w\n  for c in w:\n    t += cost(c)\n  end\n  return t\nend\n"),
      "def pick(o):\n  return o\nend\n"
      "def f(w):\n  n = 0\n  for c in w:\n    n = n + pick(c).x\n  end\n"
      "  t = 0\n  for c in w:\n    t += pick(c)\n  end\n  return t + n\nend\n",
      "def inv(c):\n  return 1 / c.x\nend\n"
      "def f(w):\n  t = 0\n  for c in w:\n    t += inv(c)\n  end\n  return t\nend\n",
      Cat(kCost, "def f(w):\n  t = 0\n  for c in w:\n    t += cost(c)\n  end\n  return t\nend\n"),
      Cat(kCost, "def f(w):\n  t = 0\n  for c in w:\n    t += cost(c)\n  end\n"
                 "  return t + c.x\nend\n"),
      Cat(kCost, "def inner(c):\n  t = 0\n  for g in c:\n    t += cost(g)\n  end\n"
                 "  return t + c.y\nend\n"
                 "def f(w):\n  t = 0\n  for c in w:\n    t += inner(c)\n  end\n  return t\nend\n"),
      Cat(kCost, "def f(w):\n  t = 0\n  for c in w:\n    for g in c:\n      t += cost(g)\n"
                 "    end\n  end\n  return t\nend\n"),
  };
  std::vector<std::unique_ptr<ScriptObject>> workloads;
  std::vector<std::string> names;
  const auto add = [&](std::unique_ptr<ScriptObject> w, const std::string& name) {
    workloads.push_back(std::move(w));
    names.push_back(name);
  };
  for (const int children : {0, 1, 5}) {
    auto uniform = std::make_unique<KvObject>();
    uniform->Set("x", 3);
    uniform->Set("y", 2);
    uniform->AddUniformChildren(children);
    add(std::move(uniform), Cat("uniform ", children));
  }
  // Explicit children (one with x = 0 in the second tree) before a run.
  for (const double third : {4.0, 0.0}) {
    auto tree = std::make_unique<KvObject>();
    tree->Set("x", 3);
    tree->Set("y", 2);
    for (const double x : {1.0, 2.0, third, 5.0}) {
      auto child = std::make_unique<KvObject>();
      child->Set("x", x);
      child->Set("y", x + 1);
      child->AddUniformChildren(x == 1.0 ? 2 : 0);
      tree->AddChild(std::move(child));
    }
    tree->AddUniformChildren(4);
    add(std::move(tree), Cat("tree, third child x=", third));
  }
  // Two uniform runs of different children: a run answered in place ends
  // at a new child.
  auto runs = std::make_unique<KvObject>();
  runs->Set("x", 3);
  runs->Set("y", 2);
  runs->AddUniformChildren(3);
  runs->Set("x", 5);
  runs->AddUniformChildren(3);
  add(std::move(runs), "two uniform runs");
  KvObject attrs;
  attrs.Set("x", 3);
  attrs.Set("y", 2);
  KvObject grandparent;
  grandparent.Set("x", 2);
  grandparent.Set("y", 7);
  grandparent.AddUniformChildren(3);
  add(std::make_unique<AliasedRun>(&attrs, &grandparent, 6), "aliased run");
  add(std::make_unique<AliasedRun>(&attrs, &grandparent, 7, 4), "aliased run, null child 4");

  for (const std::string& source : kPrograms) {
    const ProgramInterface iface = Compiled(source);
    ASSERT_NE(iface.compiled(), nullptr) << source;
    Backends backends(iface);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      for (std::size_t depth = 1; depth <= 6; ++depth) {
        backends.interp.set_max_depth(depth);
        backends.vm.set_max_depth(depth);
        ExpectSame(&backends.interp, &backends.vm, "f", {Value::Object(workloads[i].get())},
                   Cat(source, " on ", names[i], " at depth <= ", depth));
      }
    }
  }
}

// Fig 3's three child loops compile to kForSum heads, each followed by its
// unchanged body, so the in-place iterations cannot silently disappear; no
// other shipped program has a child loop.
TEST(VmDiff, ProtoaccChildLoopsHaveForSumHeads) {
  const InterfaceRegistry& registry = InterfaceRegistry::Default();
  for (const InterfaceBundle& bundle : registry.bundles()) {
    if (bundle.program_path.empty()) {
      continue;
    }
    const ProgramInterface iface = registry.LoadProgram(bundle.accelerator);
    std::vector<std::string> heads;
    for (const CompiledFunction& fn : iface.compiled()->functions) {
      for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
        if (fn.code[pc].op == Op::kForSum) {
          heads.push_back(fn.name);
          ASSERT_LT(pc + 1, fn.code.size());
          EXPECT_EQ(fn.code[pc + 1].op, Op::kIterChild) << fn.name;
        }
        EXPECT_NE(fn.code[pc].op, Op::kJmpGe) << bundle.accelerator << " " << fn.name;
      }
    }
    const std::vector<std::string> want =
        bundle.accelerator == "protoacc"
            ? std::vector<std::string>{"read_cost", "tput_protoacc_ser", "max_latency_protoacc_ser"}
            : std::vector<std::string>{};
    EXPECT_EQ(heads, want) << bundle.accelerator;
  }
}

// A memoized call is reused by a loop head only where its recorded nesting
// fits under the depth limit. g's loop runs at depth 2 from f and then at
// depth 3 through hop, in the same registers (f calls g one slot above
// hop), so the second run's first child is the loop variable's stale value
// and cost(c), recorded at depth 3 two deep, is already in the memo.
TEST(VmDiff, ChildLoopRespectsRecordedNesting) {
  const ProgramInterface iface = Compiled(
      "def leaf(o):\n  return o.x\nend\n"
      "def cost(c):\n  t = 0\n  for g in c:\n    t += leaf(g)\n  end\n  return t\nend\n"
      "def g(w):\n  t = 0\n  for c in w:\n    t += cost(c)\n  end\n  return t\nend\n"
      "def hop(w):\n  return g(w)\nend\n"
      "def f(w):\n  a = w.x * 0 + g(w)\n  b = hop(w)\n  return a + b\nend\n");
  ASSERT_NE(iface.compiled(), nullptr);
  const std::string text = iface.compiled()->Disassemble();
  ASSERT_NE(text.find("call     r4 = g(r4..r4)"), std::string::npos) << text;
  ASSERT_NE(text.find("call     r2 = hop(r3..r3)"), std::string::npos) << text;
  ASSERT_NE(text.find("call     r1 = g(r1..r1)"), std::string::npos) << text;
  KvObject attrs;
  attrs.Set("x", 1);
  KvObject grandparent;
  grandparent.Set("x", 2);
  grandparent.AddUniformChildren(3);
  const AliasedRun run(&attrs, &grandparent, 4);
  Backends backends(iface);
  for (std::size_t depth = 1; depth <= 8; ++depth) {
    backends.interp.set_max_depth(depth);
    backends.vm.set_max_depth(depth);
    ExpectSame(&backends.interp, &backends.vm, "f", {Value::Object(&run)}, Cat("depth ", depth));
  }
}

// --- Pinned VM outcomes -------------------------------------------------------
//
// The interpreter cannot be the oracle for charged steps (the VM counts per
// instruction, the interpreter per AST node), so the VM's own observables
// on every shipped program are pinned in tests/golden/vm_outcomes.golden:
// one line per call with its value bits, steps_used() and error text, over
// seeded workloads, every step budget from S-64 (for Fig 3's child loops,
// from 0) to S+1 around a call of S steps, and every depth limit 1..8.

bool IsVar(const Expr& e, const std::string& name) {
  return e.kind == ExprKind::kVar && e.name == name;
}

using ObjectParamMap = std::map<std::string, std::vector<bool>>;

// Whether `e` uses the variable `name` as an object: reads an attribute of
// it, takes its len(), or passes it to a callee parameter that is one.
bool UsesAsObject(const Expr& e, const std::string& name, const ObjectParamMap& objects) {
  if (e.kind == ExprKind::kAttr && IsVar(*e.children[0], name)) {
    return true;
  }
  if (e.kind == ExprKind::kCall) {
    if (e.name == "len" && e.children.size() == 1 && IsVar(*e.children[0], name)) {
      return true;
    }
    const auto it = objects.find(e.name);
    for (std::size_t i = 0; it != objects.end() && i < e.children.size(); ++i) {
      if (i < it->second.size() && it->second[i] && IsVar(*e.children[i], name)) {
        return true;
      }
    }
  }
  for (const ExprPtr& c : e.children) {
    if (UsesAsObject(*c, name, objects)) {
      return true;
    }
  }
  return false;
}

bool UsesAsObject(const std::vector<StmtPtr>& block, const std::string& name,
                  const ObjectParamMap& objects) {
  for (const StmtPtr& s : block) {
    if (s->kind == StmtKind::kFor && IsVar(*s->value, name)) {
      return true;
    }
    if ((s->value != nullptr && UsesAsObject(*s->value, name, objects)) ||
        UsesAsObject(s->body, name, objects) || UsesAsObject(s->else_body, name, objects)) {
      return true;
    }
  }
  return false;
}

// Per function, which parameters are objects (a fixed point over calls), so
// the golden hands the workload to `l` in conv's iload_time(l, th, tw) and
// numbers to `th`, `tw` and dma_xfer's `words`.
ObjectParamMap ObjectParams(const Program& program) {
  ObjectParamMap objects;
  for (const FunctionDef& f : program.functions) {
    objects[f.name].assign(f.params.size(), false);
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const FunctionDef& f : program.functions) {
      for (std::size_t i = 0; i < f.params.size(); ++i) {
        if (!objects[f.name][i] && UsesAsObject(f.body, f.params[i], objects)) {
          objects[f.name][i] = true;
          changed = true;
        }
      }
    }
  }
  return objects;
}

// `positive` draws mostly small positive integers (success paths); the
// other mix adds zeros, fractions and negatives (error paths).
double SeededValue(std::uint64_t* rng, bool positive) {
  const std::uint64_t r = NextRand(rng);
  if (positive) {
    return r % 8 == 0 ? static_cast<double>(r % 4096) + 0.25 : static_cast<double>(1 + r % 64);
  }
  switch (r % 4) {
    case 0: return 0.0;
    case 1: return static_cast<double>(r % 4096) + 0.25;
    case 2: return -static_cast<double>(r % 100);
    default: return static_cast<double>(1 + r % 64);
  }
}

std::unique_ptr<KvObject> SeededObject(const std::set<std::string>& attr_names,
                                       std::uint64_t* rng, bool positive) {
  auto object = std::make_unique<KvObject>();
  for (const std::string& name : attr_names) {
    object->Set(name, SeededValue(rng, positive));
  }
  return object;
}

std::string OutcomeLine(const std::string& program, const std::string& function,
                        const std::string& workload, const Vm& vm, const EvalResult& r) {
  std::string bits = "-";
  if (r.ok && !r.value.IsNumber()) {
    bits = "object";
  } else if (r.ok) {
    std::uint64_t raw;
    std::memcpy(&raw, &r.value.num, sizeof raw);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(raw));
    bits = buf;
  }
  return Cat(program, ' ', function, ' ', workload, ' ', r.ok ? "ok" : "fail", ' ', bits, ' ',
             vm.steps_used(), ' ', r.ok ? "-" : r.error, '\n');
}

// One call at every budget from S-64 (with `every_budget`, from 0) to S+1
// and every depth limit 1..8, where S is the call's steps under the default
// limits.
void SweepLimits(const std::string& program, const std::string& function,
                 const std::string& id, const ScriptObject& workload, Vm* vm,
                 std::string* out, bool every_budget = false) {
  const std::vector<Value> args = {Value::Object(&workload)};
  const EvalResult full = vm->Call(function, args);
  *out += OutcomeLine(program, function, id, *vm, full);
  const std::uint64_t s = vm->steps_used();
  for (std::uint64_t budget = s < 64 || every_budget ? 0 : s - 64; budget <= s + 1; ++budget) {
    vm->set_max_steps(budget);
    const EvalResult r = vm->Call(function, args);
    *out += OutcomeLine(program, function, Cat(id, "/steps<=", budget), *vm, r);
  }
  vm->set_max_steps(50'000'000);
  for (std::size_t depth = 1; depth <= 8; ++depth) {
    vm->set_max_depth(depth);
    const EvalResult r = vm->Call(function, args);
    *out += OutcomeLine(program, function, Cat(id, "/depth<=", depth), *vm, r);
  }
  vm->set_max_depth(200);
}

std::string VmOutcomes() {
  const InterfaceRegistry& registry = InterfaceRegistry::Default();
  std::string out;
  std::uint64_t program_seed = 0x601d0000;
  for (const InterfaceBundle& bundle : registry.bundles()) {
    if (bundle.program_path.empty()) {
      continue;
    }
    const ProgramInterface iface = registry.LoadProgram(bundle.accelerator);
    const std::string& name = bundle.accelerator;
    // One Vm per program, reused across every call as in a serve worker.
    Vm vm(iface.compiled());
    const std::set<std::string> attr_names = AttrNamesOf(*iface.program());
    const ObjectParamMap objects = ObjectParams(*iface.program());
    std::uint64_t rng = ++program_seed;

    const auto run_all = [&](const ScriptObject& workload, const std::string& id, bool positive) {
      for (const FunctionDef& fn : iface.program()->functions) {
        std::vector<Value> args;
        for (std::size_t p = 0; p < fn.params.size(); ++p) {
          args.push_back(objects.at(fn.name)[p] ? Value::Object(&workload)
                                                : Value::Number(SeededValue(&rng, positive)));
        }
        const EvalResult r = vm.Call(fn.name, args);
        out += OutcomeLine(name, fn.name, id, vm, r);
      }
    };
    for (const int children : {0, 1, 2, 5, 50, 220}) {
      for (const int seed : {0, 1}) {
        auto workload = SeededObject(attr_names, &rng, seed == 0);
        workload->AddUniformChildren(children);
        run_all(*workload, Cat('c', children, "/s", seed), seed == 0);
      }
    }
    // A tree of distinct children, two of them with uniform grandchildren.
    auto tree = SeededObject(attr_names, &rng, true);
    for (int i = 0; i < 3; ++i) {
      auto child = SeededObject(attr_names, &rng, true);
      child->AddUniformChildren(i);
      tree->AddChild(std::move(child));
    }
    tree->AddUniformChildren(4);
    run_all(*tree, "tree", true);
  }

  KvObject message;
  message.Set("num_fields", 6);
  message.Set("num_writes", 9);
  message.AddUniformChildren(50);
  Vm protoacc(registry.LoadProgram("protoacc").compiled());
  SweepLimits("protoacc", "tput_protoacc_ser", "c50", message, &protoacc, &out);

  KvObject layer;
  const std::pair<const char*, double> kLayer[] = {
      {"height", 28}, {"width", 28}, {"channels", 16}, {"filters", 16}, {"kernel_h", 3},
      {"kernel_w", 3}, {"stride", 1}, {"pad", 1}, {"tile_h", 4}, {"tile_w", 28}, {"tile_k", 8}};
  for (const auto& kv : kLayer) {
    layer.Set(kv.first, kv.second);
  }
  Vm conv(registry.LoadProgram("conv").compiled());
  SweepLimits("conv", "latency_conv", "layer", layer, &conv, &out);

  // Fig 3's child loops at every budget, so a budget lands in every
  // iteration: a uniform run; a tree of distinct children, some with
  // uniform grandchildren, then a uniform run; and a uniform run whose one
  // child has children of its own (its memoized read_cost nests two deep).
  KvObject five;
  five.Set("num_fields", 6);
  five.Set("num_writes", 9);
  five.AddUniformChildren(5);
  SweepLimits("protoacc", "tput_protoacc_ser", "c5", five, &protoacc, &out, true);

  KvObject tree;
  tree.Set("num_fields", 40);
  tree.Set("num_writes", 20);
  for (int i = 0; i < 3; ++i) {
    auto child = std::make_unique<KvObject>();
    child->Set("num_fields", 3 + 20 * i);
    child->Set("num_writes", 7 + i);
    child->AddUniformChildren(i);
    tree.AddChild(std::move(child));
  }
  tree.AddUniformChildren(4);
  SweepLimits("protoacc", "max_latency_protoacc_ser", "tree", tree, &protoacc, &out, true);

  KvObject grandparent;
  grandparent.Set("num_fields", 33);
  grandparent.Set("num_writes", 4);
  grandparent.AddUniformChildren(3);
  const AliasedRun aliased(&message, &grandparent, 6);
  SweepLimits("protoacc", "tput_protoacc_ser", "aliased", aliased, &protoacc, &out, true);
  return out;
}

TEST(VmDiffGolden, ShippedProgramOutcomesAreByteIdentical) {
  const std::string actual = VmOutcomes();
  const std::string golden_path =
      std::string(PERFIFACE_SOURCE_DIR) + "/tests/golden/vm_outcomes.golden";
  const std::string golden = ReadFileOrDie(golden_path);
  if (golden == actual) {
    return;
  }
  const std::string actual_path = ::testing::TempDir() + "/vm_outcomes.actual";
  std::ofstream(actual_path) << actual;
  std::istringstream want(golden);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 0;
  do {
    ++line;
    if (!std::getline(want, want_line)) want_line = "<end of file>";
    if (!std::getline(got, got_line)) got_line = "<end of output>";
  } while (want_line == got_line);
  ADD_FAILURE() << "VM outcomes differ from " << golden_path << " at line " << line
                << "\n  golden: " << want_line << "\n  actual: " << got_line
                << "\nA value, steps_used() or error text of a shipped program changed. "
                   "The full output is in "
                << actual_path;
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
