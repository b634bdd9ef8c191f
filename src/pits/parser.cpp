// Recursive-descent parser for PITS. Precedence (loosest first):
//   or | and | not | = <> < <= > >= | + - | * / mod | unary - | ^ (right)
//   | postfix [index] | primary.
#include <algorithm>
#include <string>
#include <utility>

#include "pits/ast.hpp"
#include "pits/token.hpp"

namespace banger::pits {

std::string_view to_string(BinOp op) noexcept {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "mod";
    case BinOp::Pow: return "^";
    case BinOp::Eq: return "=";
    case BinOp::Ne: return "<>";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::And: return "and";
    case BinOp::Or: return "or";
  }
  return "?";
}

std::string_view to_string(UnOp op) noexcept {
  return op == UnOp::Neg ? "-" : "not ";
}

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Block parse_program() {
    Block block = parse_stmts();
    expect(Tok::Eof);
    return block;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool check(Tok kind) const { return peek().kind == kind; }
  bool match(Tok kind) {
    if (!check(kind)) return false;
    advance();
    return true;
  }
  const Token& expect(Tok kind) {
    if (!check(kind)) {
      fail(ErrorCode::Parse,
           "expected `" + std::string(to_string(kind)) + "`, got `" +
               std::string(to_string(peek().kind)) + "`",
           peek().pos);
    }
    return advance();
  }
  void skip_newlines() {
    while (match(Tok::Newline)) {
    }
  }
  [[noreturn]] void error(const std::string& msg) const {
    fail(ErrorCode::Parse, msg, peek().pos);
  }
  [[noreturn]] static void too_deep(SourcePos at) {
    fail(ErrorCode::Parse,
         "nesting is deeper than " + std::to_string(kMaxNesting) + " levels",
         at);
  }

  /// One more level of syntactic nesting for the scope of a recursive
  /// descent; bounds the parser's own stack.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxNesting) too_deep(parser_.peek().pos);
    }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  /// Statements until one of the given block-closing keywords (not
  /// consumed). Eof also stops.
  Block parse_stmts() {
    const Nest nest(*this);
    Block block;
    skip_newlines();
    while (!check(Tok::Eof) && !check(Tok::KwEnd) && !check(Tok::KwElse) &&
           !check(Tok::KwElsif)) {
      block.push_back(parse_stmt());
      if (!check(Tok::Eof) && !check(Tok::KwEnd) && !check(Tok::KwElse) &&
          !check(Tok::KwElsif)) {
        expect(Tok::Newline);
      }
      skip_newlines();
    }
    return block;
  }

  StmtPtr parse_stmt() {
    const SourcePos at = peek().pos;
    if (check(Tok::KwIf)) return parse_if();
    if (check(Tok::KwWhile)) return parse_while();
    if (check(Tok::KwRepeat)) return parse_repeat();
    if (check(Tok::KwFor)) return parse_for();
    if (check(Tok::KwFormula)) return parse_formula();
    if (match(Tok::KwReturn)) {
      return make_stmt(at, ReturnStmt{});
    }
    if (check(Tok::Ident)) {
      // Assignment (possibly indexed) or a call statement.
      if (peek(1).kind == Tok::Assign) {
        AssignStmt s;
        s.target = advance().text;
        advance();  // :=
        s.value = parse_expr();
        return make_stmt(at, std::move(s));
      }
      if (peek(1).kind == Tok::LBracket) {
        // Could be `v[i] := e`; scan for the matching `]` then `:=`.
        std::size_t depth = 0;
        std::size_t j = pos_ + 1;
        for (; j < tokens_.size(); ++j) {
          if (tokens_[j].kind == Tok::LBracket) ++depth;
          else if (tokens_[j].kind == Tok::RBracket && --depth == 0) break;
          else if (tokens_[j].kind == Tok::Newline ||
                   tokens_[j].kind == Tok::Eof)
            break;
        }
        if (j < tokens_.size() && tokens_[j].kind == Tok::RBracket &&
            j + 1 < tokens_.size() && tokens_[j + 1].kind == Tok::Assign) {
          AssignStmt s;
          s.target = advance().text;
          expect(Tok::LBracket);
          s.index = parse_expr();
          expect(Tok::RBracket);
          expect(Tok::Assign);
          s.value = parse_expr();
          return make_stmt(at, std::move(s));
        }
      }
      if (peek(1).kind == Tok::LParen) {
        ExprStmt s;
        s.expr = parse_expr();
        return make_stmt(at, std::move(s));
      }
      error("expected `:=` after `" + peek().text + "`");
    }
    error("expected a statement");
  }

  StmtPtr parse_if() {
    const SourcePos at = peek().pos;
    expect(Tok::KwIf);
    IfStmt s;
    for (;;) {
      IfStmt::Arm arm;
      arm.cond = parse_expr();
      expect(Tok::KwThen);
      arm.body = parse_stmts();
      s.arms.push_back(std::move(arm));
      if (match(Tok::KwElsif)) continue;
      if (match(Tok::KwElse)) {
        s.else_body = parse_stmts();
      }
      expect(Tok::KwEnd);
      break;
    }
    return make_stmt(at, std::move(s));
  }

  StmtPtr parse_while() {
    const SourcePos at = peek().pos;
    expect(Tok::KwWhile);
    WhileStmt s;
    s.cond = parse_expr();
    expect(Tok::KwDo);
    s.body = parse_stmts();
    expect(Tok::KwEnd);
    return make_stmt(at, std::move(s));
  }

  StmtPtr parse_repeat() {
    const SourcePos at = peek().pos;
    expect(Tok::KwRepeat);
    RepeatStmt s;
    s.count = parse_expr();
    expect(Tok::KwTimes);
    s.body = parse_stmts();
    expect(Tok::KwEnd);
    return make_stmt(at, std::move(s));
  }

  StmtPtr parse_for() {
    const SourcePos at = peek().pos;
    expect(Tok::KwFor);
    ForStmt s;
    s.var = expect(Tok::Ident).text;
    expect(Tok::Assign);
    s.from = parse_expr();
    expect(Tok::KwTo);
    s.to = parse_expr();
    if (match(Tok::KwStep)) s.step = parse_expr();
    expect(Tok::KwDo);
    s.body = parse_stmts();
    expect(Tok::KwEnd);
    return make_stmt(at, std::move(s));
  }

  StmtPtr parse_formula() {
    const SourcePos at = peek().pos;
    expect(Tok::KwFormula);
    FormulaDef def;
    def.name = expect(Tok::Ident).text;
    expect(Tok::LParen);
    if (!check(Tok::RParen)) {
      do {
        def.params.push_back(expect(Tok::Ident).text);
      } while (match(Tok::Comma));
    }
    expect(Tok::RParen);
    expect(Tok::Assign);
    def.body = parse_expr();
    for (std::size_t i = 0; i < def.params.size(); ++i) {
      for (std::size_t j = i + 1; j < def.params.size(); ++j) {
        if (def.params[i] == def.params[j]) {
          fail(ErrorCode::Parse,
               "duplicate parameter `" + def.params[i] + "`", at);
        }
      }
    }
    return make_stmt(at, std::move(def));
  }

  // ---- expressions ----

  ExprPtr parse_expr() {
    const Nest nest(*this);
    return parse_or();
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (check(Tok::KwOr)) {
      const SourcePos at = advance().pos;
      lhs = make_binary(at, BinOp::Or, std::move(lhs), parse_and());
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (check(Tok::KwAnd)) {
      const SourcePos at = advance().pos;
      lhs = make_binary(at, BinOp::And, std::move(lhs), parse_not());
    }
    return lhs;
  }

  ExprPtr parse_not() {
    if (check(Tok::KwNot)) {
      const SourcePos at = advance().pos;
      const Nest nest(*this);
      Unary u;
      u.op = UnOp::Not;
      u.operand = parse_not();
      return make_expr(at, std::move(u));
    }
    return parse_cmp();
  }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    for (;;) {
      BinOp op;
      switch (peek().kind) {
        case Tok::Eq: op = BinOp::Eq; break;
        case Tok::Ne: op = BinOp::Ne; break;
        case Tok::Lt: op = BinOp::Lt; break;
        case Tok::Le: op = BinOp::Le; break;
        case Tok::Gt: op = BinOp::Gt; break;
        case Tok::Ge: op = BinOp::Ge; break;
        default: return lhs;
      }
      const SourcePos at = advance().pos;
      lhs = make_binary(at, op, std::move(lhs), parse_add());
    }
  }

  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    for (;;) {
      if (check(Tok::Plus)) {
        const SourcePos at = advance().pos;
        lhs = make_binary(at, BinOp::Add, std::move(lhs), parse_mul());
      } else if (check(Tok::Minus)) {
        const SourcePos at = advance().pos;
        lhs = make_binary(at, BinOp::Sub, std::move(lhs), parse_mul());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_mul() {
    ExprPtr lhs = parse_unary();
    for (;;) {
      BinOp op;
      if (check(Tok::Star)) op = BinOp::Mul;
      else if (check(Tok::Slash)) op = BinOp::Div;
      else if (check(Tok::KwMod)) op = BinOp::Mod;
      else return lhs;
      const SourcePos at = advance().pos;
      lhs = make_binary(at, op, std::move(lhs), parse_unary());
    }
  }

  ExprPtr parse_unary() {
    if (check(Tok::Minus)) {
      const SourcePos at = advance().pos;
      const Nest nest(*this);
      Unary u;
      u.op = UnOp::Neg;
      u.operand = parse_unary();
      return make_expr(at, std::move(u));
    }
    return parse_power();
  }

  ExprPtr parse_power() {
    ExprPtr base = parse_postfix();
    if (check(Tok::Caret)) {
      const SourcePos at = advance().pos;
      const Nest nest(*this);
      // Right-associative: a^b^c = a^(b^c).
      return make_binary(at, BinOp::Pow, std::move(base), parse_unary());
    }
    return base;
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    while (check(Tok::LBracket)) {
      const SourcePos at = advance().pos;
      Index ix;
      ix.base = std::move(e);
      ix.index = parse_expr();
      expect(Tok::RBracket);
      e = make_expr(at, std::move(ix));
    }
    return e;
  }

  ExprPtr parse_primary() {
    const SourcePos at = peek().pos;
    if (check(Tok::Number)) {
      return make_expr(at, NumberLit{advance().number});
    }
    if (check(Tok::String)) {
      return make_expr(at, StringLit{advance().text});
    }
    if (check(Tok::Ident)) {
      std::string name = advance().text;
      if (match(Tok::LParen)) {
        Call call;
        call.callee = std::move(name);
        if (!check(Tok::RParen)) {
          do {
            call.args.push_back(parse_expr());
          } while (match(Tok::Comma));
        }
        expect(Tok::RParen);
        return make_expr(at, std::move(call));
      }
      return make_expr(at, VarRef{std::move(name)});
    }
    if (match(Tok::LParen)) {
      ExprPtr e = parse_expr();
      expect(Tok::RParen);
      return e;
    }
    if (match(Tok::LBracket)) {
      VectorLit vec;
      if (!check(Tok::RBracket)) {
        do {
          vec.elements.push_back(parse_expr());
        } while (match(Tok::Comma));
      }
      expect(Tok::RBracket);
      return make_expr(at, std::move(vec));
    }
    error("expected an expression");
  }

  /// Height of the tallest child; left-associative chains (a+b+c...)
  /// grow the tree without recursing in the parser, so the bound is
  /// checked on the tree itself.
  static int child_height(const Expr& e) {
    auto of = [](const ExprPtr& child) { return child ? child->height : 0; };
    auto tallest = [&](const std::vector<ExprPtr>& list) {
      int h = 0;
      for (const ExprPtr& child : list) h = std::max(h, of(child));
      return h;
    };
    if (const auto* u = std::get_if<Unary>(&e.node)) return of(u->operand);
    if (const auto* b = std::get_if<Binary>(&e.node)) {
      return std::max(of(b->lhs), of(b->rhs));
    }
    if (const auto* ix = std::get_if<Index>(&e.node)) {
      return std::max(of(ix->base), of(ix->index));
    }
    if (const auto* v = std::get_if<VectorLit>(&e.node)) {
      return tallest(v->elements);
    }
    if (const auto* c = std::get_if<Call>(&e.node)) return tallest(c->args);
    return 0;
  }

  template <typename Node>
  ExprPtr make_expr(SourcePos at, Node&& node) const {
    auto e = std::make_unique<Expr>();
    e->pos = at;
    e->node = std::forward<Node>(node);
    e->height = 1 + child_height(*e);
    if (depth_ + e->height > kMaxNesting) too_deep(at);
    return e;
  }
  ExprPtr make_binary(SourcePos at, BinOp op, ExprPtr lhs,
                      ExprPtr rhs) const {
    Binary b;
    b.op = op;
    b.lhs = std::move(lhs);
    b.rhs = std::move(rhs);
    return make_expr(at, std::move(b));
  }
  template <typename Node>
  static StmtPtr make_stmt(SourcePos at, Node&& node) {
    auto s = std::make_unique<Stmt>();
    s->pos = at;
    s->node = std::forward<Node>(node);
    return s;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< enclosing blocks and expression recursions
};

}  // namespace

Block parse_block(std::string_view source) {
  return Parser(lex(source)).parse_program();
}

}  // namespace banger::pits
