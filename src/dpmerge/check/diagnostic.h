#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dpmerge::check {

/// Severity of a static-check finding. `Error` findings mean the artifact is
/// structurally broken or an analysis claim is provably unsound — pass
/// boundaries refuse to continue past them (see check.h). `Warning` findings
/// are suspicious-but-legal constructions (e.g. a shift that discards the
/// whole operand); they are reported and counted but never fatal.
enum class Severity : unsigned char {
  Note,
  Warning,
  Error,
};

std::string_view to_string(Severity s);

/// Where a diagnostic points: an IR object (node/edge), a netlist object
/// (net/gate), or a source location (line/column) for frontend findings.
/// `id` is the object id or line number; `aux` is a port index or column
/// where meaningful, -1 otherwise.
struct Locus {
  std::string kind;  ///< "node" | "edge" | "net" | "gate" | "line" | ""
  int id = -1;
  int aux = -1;
  std::string name;  ///< node/bus name or offending token, when available

  std::string to_string() const;
};

/// One structured finding. `rule` is a stable dotted identifier from the rule
/// catalog (DESIGN.md §9), e.g. "dfg.graph.cycle" or "net.comb-loop" —
/// tests and tooling match on it, so existing ids never change meaning.
struct Diagnostic {
  Severity severity = Severity::Error;
  std::string rule;
  std::string message;
  Locus locus;

  std::string to_string() const;
};

/// An ordered collection of findings from one checker run. Reports compose
/// (`merge`) so a pass boundary can stack the IR verifier, the netlist
/// verifier and the analysis lints into one result.
class CheckReport {
 public:
  void add(Severity severity, std::string rule, std::string message,
           Locus locus = {});
  void merge(CheckReport other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  int errors() const { return errors_; }
  int warnings() const { return warnings_; }

  /// No errors (warnings allowed) — the gate pass boundaries use.
  bool ok() const { return errors_ == 0; }
  /// Nothing at all, not even warnings.
  bool clean() const { return diags_.empty(); }

  bool has_rule(std::string_view rule) const;
  /// Count of findings carrying `rule`.
  int count_rule(std::string_view rule) const;

  /// One line per finding; empty string when clean.
  std::string to_text() const;

  /// Appends one JSON object:
  ///   {"errors":E,"warnings":W,"diagnostics":[{"severity":...,"rule":...,
  ///    "message":...,"locus":{"kind":...,"id":N,"aux":N,"name":...}},...]}
  /// Serialised with the obs JSON helpers so artifacts stay diffable.
  void to_json(std::string& out) const;

 private:
  std::vector<Diagnostic> diags_;
  int errors_ = 0;
  int warnings_ = 0;
};

}  // namespace dpmerge::check
