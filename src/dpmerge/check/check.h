#pragma once

/// dpmerge::check — static IR/netlist verification and pass-boundary
/// invariant enforcement (DESIGN.md §9).
///
/// Three engines:
///   - `verify(dfg::Graph)`: IR well-formedness (width consistency,
///     acyclicity, arity, port bookkeeping, sign-annotation legality,
///     constant canonicality).
///   - `verify(netlist::Netlist)`: structural netlist checks (multiply-driven
///     nets, floating cell inputs, combinational loops from a Kahn sort,
///     undriven primary outputs, cell-pin arity).
///   - absint_engine.h: abstract-interpretation soundness lint
///     (`lint_absint`) cross-checking `analysis::info_content` /
///     `analysis::required_precision` claims against the fixpoint facts of
///     `compute_absint`.
///
/// Every transform, the clusterer and each synth::flow stage calls the
/// `enforce*` hooks at its boundaries. The hooks are gated by a process-wide
/// `CheckPolicy`:
///   - `Off`      (default): one relaxed atomic load and return — exactly
///                zero checking work, so production flows pay nothing.
///   - `Errors`   : structural verifiers run at pass boundaries (netlist
///                loops included, off index order); any Error finding
///                throws `CheckFailure`.
///   - `Paranoid` : additionally re-verifies pass *inputs* and runs the
///                abstract-interpretation soundness lint wherever analysis
///                results cross a pass boundary.
/// Findings are also counted into the current obs::StatSink ("check.runs",
/// "check.errors", "check.warnings", "check.rule.<id>"), so they surface in
/// FlowReport stage stats and the --stats-json artifacts.

#include <atomic>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "dpmerge/check/diagnostic.h"
#include "dpmerge/dfg/graph.h"
#include "dpmerge/netlist/netlist.h"

namespace dpmerge::analysis {
struct InfoAnalysis;
struct RequiredPrecision;
}  // namespace dpmerge::analysis

namespace dpmerge::check {

// ---------------------------------------------------------------- policy --

enum class CheckPolicy : unsigned char {
  Off = 0,
  Errors = 1,
  Paranoid = 2,
};

std::string_view to_string(CheckPolicy p);
std::optional<CheckPolicy> parse_policy(std::string_view s);

namespace detail {
inline std::atomic<unsigned char>& policy_cell() {
  static std::atomic<unsigned char> p{0};
  return p;
}
}  // namespace detail

inline CheckPolicy policy() {
  return static_cast<CheckPolicy>(
      detail::policy_cell().load(std::memory_order_relaxed));
}
inline void set_policy(CheckPolicy p) {
  detail::policy_cell().store(static_cast<unsigned char>(p),
                              std::memory_order_relaxed);
}

/// RAII policy override, restoring the previous policy on scope exit (tests
/// and the lint CLI use this; flows normally inherit the process policy).
class PolicyScope {
 public:
  explicit PolicyScope(CheckPolicy p) : prev_(policy()) { set_policy(p); }
  ~PolicyScope() { set_policy(prev_); }
  PolicyScope(const PolicyScope&) = delete;
  PolicyScope& operator=(const PolicyScope&) = delete;

 private:
  CheckPolicy prev_;
};

// ------------------------------------------------------------- verifiers --

/// IR verifier for DFGs. Rule catalog (all Error unless noted):
///   dfg.node.id          node id does not match its storage index
///   dfg.node.width       non-positive node width
///   dfg.node.arity       operand count differs from operand_count(kind)
///   dfg.port.unconnected input port with no edge
///   dfg.port.bookkeeping in/out edge lists inconsistent with edge endpoints
///   dfg.edge.id          edge id does not match its storage index
///   dfg.edge.endpoints   edge src/dst out of range
///   dfg.edge.width       non-positive edge width
///   dfg.edge.duplicate-port  two edges claim the same (dst, port)
///   dfg.output.fanout    Output node with out-edges
///   dfg.const.canonical  Const value width differs from the node width
///   dfg.shl.shift        negative shift, or shift attribute on a non-Shl node
///   dfg.shl.wide-shift   (Warning) shift >= width discards the whole operand
///   dfg.sign.comparator  edge sourced at a comparator marked Signed (the
///                        1-bit result is zero-padded; a signed resize of it
///                        reinterprets 1 as -1)
///   dfg.graph.cycle      graph contains a directed cycle
///   dfg.graph.no-outputs (Warning) no Output node — required precision is 0
///                        everywhere and every analysis claim is vacuous
CheckReport verify(const dfg::Graph& g);

/// Structural netlist verifier. Rule catalog (all Error):
///   net.range            net id out of [0, net_count) (or an unused pin)
///   net.gate.drive       drive-strength index outside the library's variants
///   net.gate.type        cell type outside `CellType` (only `mutable_gates()`
///                        edits cause it); the gate's pins are not read
///   net.input-driven     an input-bus bit is a gate's output
///   net.floating-input   gate input net that is neither a constant, an
///                        input-bus bit nor a gate's output
///   net.undriven-output  primary-output bit that is none of those either
///   net.comb-loop        combinational cycle (one finding per Tarjan SCC)
/// A net is a source or exactly one gate's output by construction, so
/// there is no multi-driven, driven-constant or stale-driver rule.
/// While `index_topological()` holds there is no loop and no loop check.
/// Otherwise loops come from one `kahn_order` sort: gates it leaves out are
/// the only ones the SCC sweep visits, so a loop-free netlist pays the sort
/// alone. That check runs only when no `net.range`/`net.gate.type` finding
/// was made.
/// Dead logic is `lint_netlist_deadlogic`'s job (absint_netlist.h).
CheckReport verify(const netlist::Netlist& n);

// ------------------------------------------------- boundary enforcement --

/// Thrown by the enforce hooks when a pass boundary check finds errors.
class CheckFailure : public std::runtime_error {
 public:
  CheckFailure(std::string site, CheckReport report);
  const std::string& site() const { return site_; }
  const CheckReport& report() const { return report_; }

 private:
  std::string site_;
  CheckReport report_;
};

namespace detail {
void do_enforce(const dfg::Graph& g, std::string_view site);
void do_enforce(const netlist::Netlist& n, std::string_view site);
void do_enforce_analyses(const dfg::Graph& g,
                         const analysis::InfoAnalysis& ia,
                         const analysis::RequiredPrecision* rp,
                         std::string_view site);
}  // namespace detail

/// Post-condition check: verifies the artifact a pass produced. Runs under
/// `Errors` and `Paranoid`; free under `Off`.
inline void enforce(const dfg::Graph& g, std::string_view site) {
  if (policy() == CheckPolicy::Off) return;
  detail::do_enforce(g, site);
}
inline void enforce(const netlist::Netlist& n, std::string_view site) {
  if (policy() == CheckPolicy::Off) return;
  detail::do_enforce(n, site);
}

/// Pre-condition check: verifies the artifact a pass consumes. Paranoid only
/// (a well-behaved pipeline already checked it as the previous post).
inline void enforce_pre(const dfg::Graph& g, std::string_view site) {
  if (policy() != CheckPolicy::Paranoid) return;
  detail::do_enforce(g, site);
}

/// Analysis-soundness check at boundaries where information-content /
/// required-precision results cross into a consumer (the clusterer, the
/// synthesizer). Runs the abstract-interpretation lint (`lint_absint`,
/// absint_engine.h), staleness re-derivations included. Paranoid only.
/// `rp` may be null.
inline void enforce_analyses(const dfg::Graph& g,
                             const analysis::InfoAnalysis& ia,
                             const analysis::RequiredPrecision* rp,
                             std::string_view site) {
  if (policy() != CheckPolicy::Paranoid) return;
  detail::do_enforce_analyses(g, ia, rp, site);
}

}  // namespace dpmerge::check
