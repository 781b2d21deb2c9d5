#include "src/perfscript/parser.h"

#include <utility>

#include "src/common/strings.h"
#include "src/perfscript/lexer.h"

namespace perfiface {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Tok> tokens) : toks_(std::move(tokens)) {}

  bool ParseTop(Program* out) {
    SkipNewlines();
    while (!Check(TokKind::kEof)) {
      FunctionDef f;
      if (!ParseFunc(&f)) {
        return false;
      }
      out->functions.push_back(std::move(f));
      SkipNewlines();
    }
    return true;
  }

  bool ParseLoneExpr(ExprPtr* out) {
    SkipNewlines();
    *out = ParseExpr();
    if (failed_) {
      return false;
    }
    SkipNewlines();
    if (!Check(TokKind::kEof)) {
      return Fail("trailing input after expression");
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  const Tok& Peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool Check(TokKind k) const { return Peek().kind == k; }
  Tok Advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool Match(TokKind k) {
    if (Check(k)) {
      Advance();
      return true;
    }
    return false;
  }
  bool Fail(const std::string& msg) {
    if (!failed_) {
      failed_ = true;
      error_ = StrFormat("line %d: %s (got %s)", Peek().line, msg.c_str(),
                         std::string(TokKindName(Peek().kind)).c_str());
    }
    return false;
  }
  bool Expect(TokKind k, const char* what) {
    if (!Match(k)) {
      return Fail(StrFormat("expected %s", what));
    }
    return true;
  }
  void SkipNewlines() {
    while (Match(TokKind::kNewline)) {
    }
  }

  bool ParseFunc(FunctionDef* out) {
    out->line = Peek().line;
    if (!Expect(TokKind::kDef, "'def'")) return false;
    if (!Check(TokKind::kIdent)) return Fail("expected function name");
    out->name = Advance().text;
    if (!Expect(TokKind::kLParen, "'('")) return false;
    if (!Check(TokKind::kRParen)) {
      do {
        if (!Check(TokKind::kIdent)) return Fail("expected parameter name");
        out->params.push_back(Advance().text);
      } while (Match(TokKind::kComma));
    }
    if (!Expect(TokKind::kRParen, "')'")) return false;
    if (!Expect(TokKind::kColon, "':'")) return false;
    if (!Expect(TokKind::kNewline, "newline")) return false;
    if (!ParseBlock(&out->body)) return false;
    if (!Expect(TokKind::kEnd, "'end'")) return false;
    return true;
  }

  // Parses statements until 'end' or 'else' (not consumed).
  bool ParseBlock(std::vector<StmtPtr>* out) {
    SkipNewlines();
    while (!Check(TokKind::kEnd) && !Check(TokKind::kElse) && !Check(TokKind::kEof)) {
      StmtPtr s = ParseStmt();
      if (failed_) {
        return false;
      }
      out->push_back(std::move(s));
      SkipNewlines();
    }
    return true;
  }

  StmtPtr ParseStmt() {
    auto s = std::make_unique<Stmt>();
    s->line = Peek().line;
    if (Check(TokKind::kReturn)) {
      Advance();
      s->kind = StmtKind::kReturn;
      s->value = ParseExpr();
      return s;
    }
    if (Check(TokKind::kFor)) {
      Advance();
      s->kind = StmtKind::kFor;
      if (!Check(TokKind::kIdent)) {
        Fail("expected loop variable");
        return s;
      }
      s->target = Advance().text;
      if (!Expect(TokKind::kIn, "'in'")) return s;
      s->value = ParseExpr();
      if (failed_) return s;
      if (!Expect(TokKind::kColon, "':'")) return s;
      if (!ParseBlock(&s->body)) return s;
      Expect(TokKind::kEnd, "'end'");
      return s;
    }
    if (Check(TokKind::kIf)) {
      Advance();
      s->kind = StmtKind::kIf;
      s->value = ParseExpr();
      if (failed_) return s;
      if (!Expect(TokKind::kColon, "':'")) return s;
      if (!ParseBlock(&s->body)) return s;
      if (Match(TokKind::kElse)) {
        if (!Expect(TokKind::kColon, "':'")) return s;
        if (!ParseBlock(&s->else_body)) return s;
      }
      Expect(TokKind::kEnd, "'end'");
      return s;
    }
    // Assignment (`x = e`, `x += e`) or bare expression.
    if (Check(TokKind::kIdent)) {
      if (Peek(1).kind == TokKind::kAssign) {
        s->kind = StmtKind::kAssign;
        s->target = Advance().text;
        Advance();  // '='
        s->value = ParseExpr();
        return s;
      }
      if (Peek(1).kind == TokKind::kPlus && Peek(2).kind == TokKind::kAssign) {
        s->kind = StmtKind::kAugAdd;
        s->target = Advance().text;
        Advance();  // '+'
        Advance();  // '='
        s->value = ParseExpr();
        return s;
      }
    }
    s->kind = StmtKind::kExpr;
    s->value = ParseExpr();
    return s;
  }

  ExprPtr MakeBin(BinOp op, ExprPtr lhs, ExprPtr rhs, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBinary;
    e->bin_op = op;
    e->line = line;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  ExprPtr ParseExpr() { return ParseOr(); }

  ExprPtr ParseOr() {
    ExprPtr e = ParseAnd();
    while (!failed_ && Check(TokKind::kOr)) {
      const int line = Advance().line;
      e = MakeBin(BinOp::kOr, std::move(e), ParseAnd(), line);
    }
    return e;
  }

  ExprPtr ParseAnd() {
    ExprPtr e = ParseCmp();
    while (!failed_ && Check(TokKind::kAnd)) {
      const int line = Advance().line;
      e = MakeBin(BinOp::kAnd, std::move(e), ParseCmp(), line);
    }
    return e;
  }

  ExprPtr ParseCmp() {
    ExprPtr e = ParseAdd();
    while (!failed_) {
      BinOp op;
      if (Check(TokKind::kLt)) op = BinOp::kLt;
      else if (Check(TokKind::kLe)) op = BinOp::kLe;
      else if (Check(TokKind::kGt)) op = BinOp::kGt;
      else if (Check(TokKind::kGe)) op = BinOp::kGe;
      else if (Check(TokKind::kEq)) op = BinOp::kEq;
      else if (Check(TokKind::kNe)) op = BinOp::kNe;
      else break;
      const int line = Advance().line;
      e = MakeBin(op, std::move(e), ParseAdd(), line);
    }
    return e;
  }

  ExprPtr ParseAdd() {
    ExprPtr e = ParseMul();
    while (!failed_) {
      if (Check(TokKind::kPlus)) {
        const int line = Advance().line;
        e = MakeBin(BinOp::kAdd, std::move(e), ParseMul(), line);
      } else if (Check(TokKind::kMinus)) {
        const int line = Advance().line;
        e = MakeBin(BinOp::kSub, std::move(e), ParseMul(), line);
      } else {
        break;
      }
    }
    return e;
  }

  ExprPtr ParseMul() {
    ExprPtr e = ParseUnary();
    while (!failed_) {
      BinOp op;
      if (Check(TokKind::kStar)) op = BinOp::kMul;
      else if (Check(TokKind::kSlash)) op = BinOp::kDiv;
      else if (Check(TokKind::kPercent)) op = BinOp::kMod;
      else break;
      const int line = Advance().line;
      e = MakeBin(op, std::move(e), ParseUnary(), line);
    }
    return e;
  }

  ExprPtr ParseUnary() {
    if (Check(TokKind::kMinus) || Check(TokKind::kNot)) {
      const Tok t = Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->un_op = t.kind == TokKind::kMinus ? UnOp::kNeg : UnOp::kNot;
      e->line = t.line;
      e->children.push_back(ParseUnary());
      return e;
    }
    return ParsePostfix();
  }

  ExprPtr ParsePostfix() {
    ExprPtr e = ParsePrimary();
    while (!failed_ && Check(TokKind::kDot)) {
      const int line = Advance().line;
      if (!Check(TokKind::kIdent)) {
        Fail("expected attribute name after '.'");
        return e;
      }
      auto attr = std::make_unique<Expr>();
      attr->kind = ExprKind::kAttr;
      attr->name = Advance().text;
      attr->line = line;
      attr->children.push_back(std::move(e));
      e = std::move(attr);
    }
    return e;
  }

  ExprPtr ParsePrimary() {
    auto e = std::make_unique<Expr>();
    e->line = Peek().line;
    if (Check(TokKind::kNumber)) {
      e->kind = ExprKind::kNumber;
      e->number = Advance().number;
      return e;
    }
    if (Check(TokKind::kIdent)) {
      const Tok t = Advance();
      if (Check(TokKind::kLParen)) {
        Advance();
        e->kind = ExprKind::kCall;
        e->name = t.text;
        if (!Check(TokKind::kRParen)) {
          do {
            e->children.push_back(ParseExpr());
            if (failed_) return e;
          } while (Match(TokKind::kComma));
        }
        Expect(TokKind::kRParen, "')'");
        return e;
      }
      e->kind = ExprKind::kVar;
      e->name = t.text;
      return e;
    }
    if (Match(TokKind::kLParen)) {
      ExprPtr inner = ParseExpr();
      Expect(TokKind::kRParen, "')'");
      return inner;
    }
    Fail("expected expression");
    return e;
  }

  std::vector<Tok> toks_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace

ParseResult ParseProgram(std::string_view source) {
  ParseResult out;
  LexResult lexed = Lex(source);
  if (!lexed.ok) {
    out.error = lexed.error;
    return out;
  }
  Parser p(std::move(lexed.tokens));
  if (!p.ParseTop(&out.program)) {
    out.error = p.error();
    return out;
  }
  out.ok = true;
  return out;
}

ParseExprResult ParseExpression(std::string_view source) {
  ParseExprResult out;
  LexResult lexed = Lex(source);
  if (!lexed.ok) {
    out.error = lexed.error;
    return out;
  }
  Parser p(std::move(lexed.tokens));
  if (!p.ParseLoneExpr(&out.expr)) {
    out.error = p.error();
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace perfiface
