#include "dpmerge/frontend/parser.h"

#include <cctype>
#include <charconv>
#include <map>
#include <stdexcept>
#include <vector>

#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::frontend {

namespace {

using dfg::Graph;
using dfg::NodeId;
using dfg::OpKind;

// ---------------------------------------------------------------- lexer --

enum class Tok {
  Ident,
  Int,
  Plus,
  Minus,
  Star,
  Shl,
  Lt,
  EqEq,
  LParen,
  RParen,
  Colon,
  Assign,
  Newline,
  End,
};

struct Token {
  Tok kind;
  std::string text;
  std::int64_t value = 0;
  int line = 0;
  int col = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  Token next() {
    skip_space_and_comments();
    Token t;
    t.line = line_;
    t.col = col_;
    if (pos_ >= src_.size()) {
      t.kind = Tok::End;
      return t;
    }
    const char c = src_[pos_];
    if (c == '\n') {
      advance();
      t.kind = Tok::Newline;
      return t;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        t.text.push_back(src_[pos_]);
        advance();
      }
      t.kind = Tok::Ident;
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        t.text.push_back(src_[pos_]);
        advance();
      }
      t.kind = Tok::Int;
      const char* end = t.text.data() + t.text.size();
      const auto [ptr, ec] = std::from_chars(t.text.data(), end, t.value);
      if (ec != std::errc() || ptr != end) {
        throw ParseError(t.line, t.col, t.text,
                         "integer literal '" + t.text + "' out of range");
      }
      return t;
    }
    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < src_.size() && src_[pos_ + 1] == b;
    };
    if (two('<', '<')) {
      advance();
      advance();
      t.kind = Tok::Shl;
      return t;
    }
    if (two('=', '=')) {
      advance();
      advance();
      t.kind = Tok::EqEq;
      return t;
    }
    advance();
    switch (c) {
      case '+':
        t.kind = Tok::Plus;
        return t;
      case '-':
        t.kind = Tok::Minus;
        return t;
      case '*':
        t.kind = Tok::Star;
        return t;
      case '<':
        t.kind = Tok::Lt;
        return t;
      case '(':
        t.kind = Tok::LParen;
        return t;
      case ')':
        t.kind = Tok::RParen;
        return t;
      case ':':
        t.kind = Tok::Colon;
        return t;
      case '=':
        t.kind = Tok::Assign;
        return t;
      default:
        throw ParseError(t.line, t.col, std::string(1, c),
                         "unexpected character '" + std::string(1, c) + "'");
    }
  }

 private:
  void advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }
  void skip_space_and_comments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') advance();
      } else if (c == ' ' || c == '\t' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// --------------------------------------------------------------- parser --

/// An elaborated expression value: a DFG node plus the width/sign the
/// expression logically has (the node's width equals `width`).
struct Value {
  NodeId node;
  int width;
  Sign sign;
};

class Parser {
 public:
  explicit Parser(const std::string& src) : lex_(src) { shift(); }

  CompileResult run() {
    CompileResult res;
    while (cur_.kind != Tok::End) {
      if (cur_.kind == Tok::Newline) {
        shift();
        continue;
      }
      const std::string kw = expect_ident("statement keyword");
      if (kw == "design") {
        res.name = expect_ident("design name");
      } else if (kw == "input") {
        statement_input();
      } else if (kw == "let") {
        statement_binding(/*is_output=*/false);
      } else if (kw == "output") {
        statement_binding(/*is_output=*/true);
      } else {
        fail("unknown statement '" + kw + "'");
      }
      if (cur_.kind != Tok::End) expect(Tok::Newline, "end of statement");
    }
    if (g_.outputs().empty()) fail("design has no outputs");
    const auto errs = g_.validate();
    if (!errs.empty()) fail("internal: invalid graph: " + errs.front());
    res.graph = std::move(g_);
    return res;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(cur_.line, cur_.col, cur_.text, msg);
  }

  /// Returns `w` (declared, inferred or a shift amount) if it is at most
  /// dfg::kMaxWidth, else throws a "frontend.limit" error located at `at`.
  /// Operand widths are already within the limit, so no width a caller
  /// infers from them can overflow `int`; a shift amount arrives as the
  /// literal's 64-bit value.
  static int within_limit(std::int64_t w, const Token& at, const char* what) {
    if (w <= dfg::kMaxWidth) return static_cast<int>(w);
    throw ParseError(at.line, at.col, at.text,
                     std::string(what) + " " + std::to_string(w) +
                         " exceeds the limit of " +
                         std::to_string(dfg::kMaxWidth) + " bits",
                     "frontend.limit");
  }

  void shift() { cur_ = lex_.next(); }

  void expect(Tok k, const char* what) {
    if (cur_.kind != k) fail(std::string("expected ") + what);
    shift();
  }

  std::string expect_ident(const char* what) {
    if (cur_.kind != Tok::Ident) fail(std::string("expected ") + what);
    std::string s = cur_.text;
    shift();
    return s;
  }

  /// Parses ": s8" / ": u12" type annotations.
  std::pair<int, Sign> parse_type() {
    expect(Tok::Colon, "':' and a type like s8 or u12");
    const Token at = cur_;
    const std::string t = expect_ident("type like s8 or u12");
    if (t.size() < 2 || (t[0] != 's' && t[0] != 'u')) {
      fail("bad type '" + t + "' (use s<width> or u<width>)");
    }
    int w = 0;
    const char* end = t.data() + t.size();
    const auto [ptr, ec] = std::from_chars(t.data() + 1, end, w);
    if (ptr != end) fail("bad type '" + t + "'");
    if (ec != std::errc()) fail("width out of range in '" + t + "'");
    if (w <= 0) fail("width must be positive in '" + t + "'");
    within_limit(w, at, "declared width");
    return {w, t[0] == 's' ? Sign::Signed : Sign::Unsigned};
  }

  void define(const std::string& name, Value v) {
    if (!scope_.emplace(name, v).second) {
      fail("redefinition of '" + name + "'");
    }
  }

  void statement_input() {
    const std::string name = expect_ident("input name");
    const auto [w, s] = parse_type();
    const NodeId id = g_.add_node(OpKind::Input, w, name);
    g_.set_node_ext_sign(id, s);
    define(name, Value{id, w, s});
  }

  void statement_binding(bool is_output) {
    const std::string name = expect_ident(is_output ? "output name"
                                                    : "binding name");
    bool has_type = cur_.kind == Tok::Colon;
    int dw = 0;
    Sign ds = Sign::Unsigned;
    if (has_type) std::tie(dw, ds) = parse_type();
    if (is_output && !has_type) fail("outputs must declare a type");
    expect(Tok::Assign, "'='");
    Value v = parse_cmp();
    if (is_output) {
      const NodeId out = g_.add_node(OpKind::Output, dw, name);
      // The connection resizes per the *expression's* signedness; the
      // declared u/s only documents how the consumer reads the port.
      g_.add_edge(v.node, out, 0, dw, v.sign);
    } else {
      if (has_type) {
        // Declared intermediates resize through an explicit Extension node
        // (this is how truncate-then-extend bottlenecks are written).
        const NodeId ext = g_.add_node(OpKind::Extension, dw);
        g_.set_node_ext_sign(ext, v.sign);
        g_.add_edge(v.node, ext, 0, v.width, v.sign);
        v = Value{ext, dw, ds};
      }
      define(name, v);
    }
  }

  // expression parsing, loosest binding first
  Value parse_cmp() {
    Value lhs = parse_addsub();
    if (cur_.kind != Tok::Lt && cur_.kind != Tok::EqEq) return lhs;
    const Token op = cur_;
    shift();
    Value rhs = parse_addsub();
    // Compare at a common lossless width; a mixed-sign compare widens the
    // unsigned side by one and compares signed.
    bool cmp_signed = lhs.sign == Sign::Signed || rhs.sign == Sign::Signed;
    const int w = within_limit(
        std::max(lhs.width + (lhs.sign == Sign::Unsigned && cmp_signed),
                 rhs.width + (rhs.sign == Sign::Unsigned && cmp_signed)),
        op, "comparison width");
    const OpKind kind = op.kind == Tok::EqEq ? OpKind::Eq
                        : cmp_signed         ? OpKind::LtS
                                             : OpKind::LtU;
    const NodeId id = g_.add_node(kind, w);
    g_.add_edge(lhs.node, id, 0, w, lhs.sign);
    g_.add_edge(rhs.node, id, 1, w, rhs.sign);
    return Value{id, w, Sign::Unsigned};  // 1-bit result in w bits; see below
  }

  Value parse_addsub() {
    Value lhs = parse_mul();
    while (cur_.kind == Tok::Plus || cur_.kind == Tok::Minus) {
      const Token op = cur_;
      const bool sub = op.kind == Tok::Minus;
      shift();
      const Value rhs = parse_mul();
      const Sign s =
          (sub || lhs.sign == Sign::Signed || rhs.sign == Sign::Signed)
              ? Sign::Signed
              : Sign::Unsigned;
      const int w = within_limit(std::max(lhs.width, rhs.width) + 1, op,
                                 sub ? "difference width" : "sum width");
      const NodeId id = g_.add_node(sub ? OpKind::Sub : OpKind::Add, w);
      g_.add_edge(lhs.node, id, 0, w, lhs.sign);
      g_.add_edge(rhs.node, id, 1, w, rhs.sign);
      lhs = Value{id, w, s};
    }
    return lhs;
  }

  Value parse_mul() {
    Value lhs = parse_shift();
    while (cur_.kind == Tok::Star) {
      const Token op = cur_;
      shift();
      const Value rhs = parse_shift();
      const Sign s = lhs.sign | rhs.sign;
      const int w = within_limit(lhs.width + rhs.width, op, "product width");
      const NodeId id = g_.add_node(OpKind::Mul, w);
      g_.add_edge(lhs.node, id, 0, w, lhs.sign);
      g_.add_edge(rhs.node, id, 1, w, rhs.sign);
      lhs = Value{id, w, s};
    }
    return lhs;
  }

  Value parse_shift() {
    Value lhs = parse_unary();
    while (cur_.kind == Tok::Shl) {
      shift();
      if (cur_.kind != Tok::Int) fail("shift amount must be a literal");
      const Token amount = cur_;
      const int s = within_limit(amount.value, amount, "shift amount");
      shift();
      const int w = within_limit(lhs.width + s, amount, "shifted width");
      const NodeId id = g_.add_node(OpKind::Shl, w);
      g_.set_node_shift(id, s);
      g_.add_edge(lhs.node, id, 0, w, lhs.sign);
      lhs = Value{id, w, lhs.sign};
    }
    return lhs;
  }

  /// Enters one level of `(` / unary `-` nesting at the current token. A
  /// failed parse is abandoned, so only successful levels leave again.
  void enter_nesting() {
    if (++depth_ > kMaxNestingDepth) {
      throw ParseError(cur_.line, cur_.col, cur_.text,
                       "expression nested deeper than " +
                           std::to_string(kMaxNestingDepth) + " levels",
                       "frontend.limit");
    }
  }

  Value parse_unary() {
    if (cur_.kind == Tok::Minus) {
      const Token op = cur_;
      enter_nesting();
      shift();
      const Value v = parse_unary();
      --depth_;
      const int w = within_limit(v.width + 1, op, "negation width");
      const NodeId id = g_.add_node(OpKind::Neg, w);
      g_.add_edge(v.node, id, 0, w, v.sign);
      return Value{id, w, Sign::Signed};
    }
    return parse_primary();
  }

  Value parse_primary() {
    if (cur_.kind == Tok::LParen) {
      enter_nesting();
      shift();
      const Value v = parse_cmp();
      expect(Tok::RParen, "')'");
      --depth_;
      return v;
    }
    if (cur_.kind == Tok::Int) {
      const std::int64_t val = cur_.value;
      shift();
      int w = 1;
      while ((val >> w) != 0) ++w;
      const NodeId id = g_.add_const(BitVector::from_int(w, val));
      return Value{id, w, Sign::Unsigned};
    }
    if (cur_.kind == Tok::Ident) {
      const auto it = scope_.find(cur_.text);
      if (it == scope_.end()) fail("unknown identifier '" + cur_.text + "'");
      shift();
      return it->second;
    }
    fail("expected an expression");
  }

  Lexer lex_;
  Token cur_;
  Graph g_;
  std::map<std::string, Value> scope_;
  int depth_ = 0;  ///< open `(` / unary `-` levels
};

}  // namespace

ParseError::ParseError(int line, int column, std::string token,
                       const std::string& msg, std::string rule)
    : std::invalid_argument("line " + std::to_string(line) + ":" +
                            std::to_string(column) + ": " + msg),
      line_(line),
      column_(column),
      token_(std::move(token)),
      rule_(std::move(rule)) {}

check::Diagnostic ParseError::diagnostic() const {
  return check::Diagnostic{check::Severity::Error, rule_, what(),
                           check::Locus{"line", line_, column_, token_}};
}

CompileResult compile(const std::string& source) {
  obs::Span span("frontend.compile");
  CompileResult res = Parser(source).run();
  check::enforce(res.graph, "frontend.compile");
  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("frontend.source_bytes",
              static_cast<std::int64_t>(source.size()));
    sink->add("frontend.nodes", res.graph.node_count());
    sink->add("frontend.edges", res.graph.edge_count());
  }
  return res;
}

std::optional<CompileResult> compile_or_diagnose(const std::string& source,
                                                 check::CheckReport& report) {
  try {
    return compile(source);
  } catch (const ParseError& e) {
    const check::Diagnostic d = e.diagnostic();
    report.add(d.severity, d.rule, d.message, d.locus);
    return std::nullopt;
  }
}

}  // namespace dpmerge::frontend
