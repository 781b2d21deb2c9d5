#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/perfscript/interp.h"
#include "src/perfscript/lexer.h"
#include "src/perfscript/parser.h"

namespace perfiface {
namespace {

double EvalFn(const std::string& src, const std::string& fn, const std::vector<Value>& args,
           const std::vector<std::pair<std::string, double>>& globals = {}) {
  ParseResult parsed = ParseProgram(src);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  Interpreter interp(&parsed.program);
  for (const auto& g : globals) {
    interp.SetGlobal(g.first, g.second);
  }
  const EvalResult r = interp.Call(fn, args);
  EXPECT_TRUE(r.ok) << r.error;
  return r.value.num;
}

std::string RunExpectError(const std::string& src, const std::string& fn,
                           const std::vector<Value>& args) {
  ParseResult parsed = ParseProgram(src);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  Interpreter interp(&parsed.program);
  const EvalResult r = interp.Call(fn, args);
  EXPECT_FALSE(r.ok);
  return r.error;
}

TEST(Lexer, TokenizesOperators) {
  const LexResult r = Lex("a <= b == c != (1.5)");
  ASSERT_TRUE(r.ok);
  // a <= b == c != ( 1.5 ) NEWLINE EOF
  ASSERT_EQ(r.tokens.size(), 11u);
  EXPECT_EQ(r.tokens[1].kind, TokKind::kLe);
  EXPECT_EQ(r.tokens[3].kind, TokKind::kEq);
  EXPECT_EQ(r.tokens[5].kind, TokKind::kNe);
  EXPECT_DOUBLE_EQ(r.tokens[7].number, 1.5);
}

TEST(Lexer, SkipsCommentsAndBlankLines) {
  const LexResult r = Lex("# full comment\n\n x = 1 # trailing\n");
  ASSERT_TRUE(r.ok);
  // x = 1 NEWLINE EOF
  EXPECT_EQ(r.tokens.size(), 5u);
}

TEST(Lexer, RejectsUnknownCharacter) {
  const LexResult r = Lex("a @ b");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("'@'"), std::string::npos);
}

TEST(Parser, RejectsMissingEnd) {
  const ParseResult r = ParseProgram("def f(x):\n return x\n");
  EXPECT_FALSE(r.ok);
}

TEST(Parser, RejectsBadExpression) {
  const ParseResult r = ParseProgram("def f(x):\n return x +\nend\n");
  EXPECT_FALSE(r.ok);
}

TEST(Interp, Arithmetic) {
  EXPECT_DOUBLE_EQ(EvalFn("def f(x):\n return (x + 2) * 3 - 4 / 2\nend\n", "f",
                       {Value::Number(1)}),
                   7.0);
}

TEST(Interp, Precedence) {
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return 2 + 3 * 4\nend\n", "f", {}), 14.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return -2 * 3\nend\n", "f", {}), -6.0);
}

TEST(Interp, Builtins) {
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return max(1, 5, 3)\nend\n", "f", {}), 5.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return min(4, 2)\nend\n", "f", {}), 2.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return ceil(1.2)\nend\n", "f", {}), 2.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return floor(1.8)\nend\n", "f", {}), 1.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return abs(0 - 3)\nend\n", "f", {}), 3.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return sqrt(9)\nend\n", "f", {}), 3.0);
}

TEST(Interp, IfElse) {
  const std::string src =
      "def f(x):\n"
      " if x > 10:\n"
      "  return 1\n"
      " else:\n"
      "  return 2\n"
      " end\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(11)}), 1.0);
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(9)}), 2.0);
}

TEST(Interp, LogicalShortCircuit) {
  // `or` must not evaluate the rhs when lhs is true: rhs divides by zero.
  const std::string src =
      "def f(x):\n"
      " if x == 0 or 1 / x > 0:\n"
      "  return 1\n"
      " end\n"
      " return 0\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(0)}), 1.0);
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(4)}), 1.0);
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(-4)}), 0.0);
}

TEST(Interp, Recursion) {
  const std::string src =
      "def fact(n):\n"
      " if n <= 1:\n"
      "  return 1\n"
      " end\n"
      " return n * fact(n - 1)\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "fact", {Value::Number(6)}), 720.0);
}

TEST(Interp, Globals) {
  EXPECT_DOUBLE_EQ(
      EvalFn("def f():\n return avg_mem_latency * 2\nend\n", "f", {}, {{"avg_mem_latency", 60}}),
      120.0);
}

TEST(Interp, AugmentedAdd) {
  const std::string src =
      "def f():\n"
      " cost = 1\n"
      " cost += 4\n"
      " cost += cost\n"
      " return cost\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {}), 10.0);
}

TEST(Interp, RuntimeErrors) {
  EXPECT_NE(RunExpectError("def f():\n return 1 / 0\nend\n", "f", {}).find("division"),
            std::string::npos);
  EXPECT_NE(RunExpectError("def f():\n return q\nend\n", "f", {}).find("undefined variable"),
            std::string::npos);
  EXPECT_NE(RunExpectError("def f():\n return g(1)\nend\n", "f", {}).find("undefined function"),
            std::string::npos);
}

TEST(Interp, RecursionDepthLimited) {
  const std::string src = "def f(n):\n return f(n + 1)\nend\n";
  const std::string err = RunExpectError(src, "f", {Value::Number(0)});
  EXPECT_NE(err.find("recursion depth"), std::string::npos);
}

TEST(Interp, WrongArgumentCount) {
  EXPECT_NE(RunExpectError("def f(a, b):\n return a\nend\n", "f", {Value::Number(1)})
                .find("expected 2 arguments"),
            std::string::npos);
}

// A host object tree for iteration/attribute tests.
class FakeNode : public ScriptObject {
 public:
  explicit FakeNode(double weight) : weight_(weight) {}

  std::optional<double> GetAttr(std::string_view name) const override {
    if (name == "weight") {
      return weight_;
    }
    return std::nullopt;
  }
  std::size_t NumChildren() const override { return children_.size(); }
  const ScriptObject* Child(std::size_t i) const override { return children_[i].get(); }

  void Add(std::unique_ptr<FakeNode> child) { children_.push_back(std::move(child)); }

 private:
  double weight_;
  std::vector<std::unique_ptr<FakeNode>> children_;
};

TEST(Interp, AttributeAccess) {
  FakeNode node(42);
  EXPECT_DOUBLE_EQ(EvalFn("def f(n):\n return n.weight\nend\n", "f", {Value::Object(&node)}), 42.0);
}

TEST(Interp, UnknownAttributeFails) {
  FakeNode node(1);
  ParseResult parsed = ParseProgram("def f(n):\n return n.mass\nend\n");
  ASSERT_TRUE(parsed.ok);
  Interpreter interp(&parsed.program);
  const EvalResult r = interp.Call("f", {Value::Object(&node)});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no attribute 'mass'"), std::string::npos);
}

TEST(Interp, ForIteratesChildrenRecursively) {
  auto root = std::make_unique<FakeNode>(1);
  auto child1 = std::make_unique<FakeNode>(10);
  child1->Add(std::make_unique<FakeNode>(100));
  root->Add(std::move(child1));
  root->Add(std::make_unique<FakeNode>(20));

  const std::string src =
      "def total(n):\n"
      " sum = n.weight\n"
      " for c in n:\n"
      "  sum += total(c)\n"
      " end\n"
      " return sum\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "total", {Value::Object(root.get())}), 131.0);
}

TEST(Interp, LenBuiltin) {
  FakeNode root(0);
  root.Add(std::make_unique<FakeNode>(1));
  root.Add(std::make_unique<FakeNode>(2));
  EXPECT_DOUBLE_EQ(EvalFn("def f(n):\n return len(n)\nend\n", "f", {Value::Object(&root)}), 2.0);
}

}  // namespace
}  // namespace perfiface
