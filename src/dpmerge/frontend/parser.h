#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "dpmerge/check/diagnostic.h"
#include "dpmerge/dfg/graph.h"

namespace dpmerge::frontend {

/// Compile-time failure with a precise source location. The what() message
/// keeps the historical "line L:C: msg" shape; the structured fields let
/// tooling (dpmerge-lint, editors) point at the offending token directly.
class ParseError : public std::invalid_argument {
 public:
  ParseError(int line, int column, std::string token, const std::string& msg,
             std::string rule = "frontend.parse");

  int line() const { return line_; }
  int column() const { return column_; }
  /// Text of the token the parser was looking at; may be empty (e.g. at
  /// end-of-input).
  const std::string& token() const { return token_; }
  /// "frontend.parse" for malformed source, "frontend.limit" for source
  /// past one of the documented size limits (kMaxNestingDepth,
  /// dfg::kMaxWidth).
  const std::string& rule() const { return rule_; }

  /// The failure as a structured finding: rule(), locus kind "line" with
  /// id = line, aux = column, name = token.
  check::Diagnostic diagnostic() const;

 private:
  int line_;
  int column_;
  std::string token_;
  std::string rule_;
};

/// Deepest nesting of `(` and unary `-` one expression may have. The parser
/// is recursive descent, so each level costs stack frames; past this depth
/// compile() throws a located "frontend.limit" ParseError instead of
/// overflowing the stack. Far above what any datapath expression needs.
inline constexpr int kMaxNestingDepth = 256;

/// A miniature RTL-expression language that compiles to DFGs — the form the
/// paper's datapath testcases originally take. One statement per line, `#`
/// comments:
///
///   design fir                      # optional name
///   input  x0 : s8                  # signed 8-bit input
///   input  k  : u4                  # unsigned 4-bit input
///   let    t  = 3 * x0 + (k << 2)   # intermediate, width inferred
///   let    u : s10 = t - x0         # intermediate with declared width
///   output y  : s16 = u + t         # outputs must declare their width
///   output f  : u1  = t < u         # comparisons give unsigned 1-bit
///
/// Expression grammar (loosest to tightest):
///   cmp    := addsub (('<' | '==') addsub)?
///   addsub := muldiv (('+' | '-') muldiv)*
///   muldiv := shift ('*' shift)*
///   shift  := unary ('<<' INT)*
///   unary  := '-' unary | primary
///   primary:= IDENT | INT | '(' cmp ')'
///
/// Width/sign inference (Verilog-in-spirit, lossless by construction):
///   +,-      -> max(w1, w2) + 1; signed if either side is, or op is '-'
///   *        -> w1 + w2; signed if either side is
///   unary -  -> w + 1, signed
///   << k     -> w + k, same sign
///   <, ==    -> u1 (operands compared at a common lossless width;
///               a mixed-sign compare widens the unsigned side)
///   literal  -> minimal width; negative literals are signed
/// A declared width on `let`/`output` resizes the expression result
/// (truncating or extending per the expression's signedness) — this is how
/// the truncate-then-extend patterns the paper studies are written.
struct CompileResult {
  std::string name;
  dfg::Graph graph;
};

/// Throws ParseError (an std::invalid_argument, so existing catch sites
/// keep working) with a line/column message on errors (syntax, unknown or
/// duplicate identifiers, zero widths, shift by negative amounts, nesting
/// past kMaxNestingDepth, a declared or inferred width or a shift amount
/// past dfg::kMaxWidth).
CompileResult compile(const std::string& source);

/// Non-throwing variant: on failure returns std::nullopt and appends the
/// failure to `report` as a "frontend.parse" or "frontend.limit" Error
/// diagnostic.
std::optional<CompileResult> compile_or_diagnose(const std::string& source,
                                                 check::CheckReport& report);

}  // namespace dpmerge::frontend
