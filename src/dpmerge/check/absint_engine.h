#pragma once

/// Multi-domain abstract interpretation over the frozen CSR graph
/// (DESIGN.md §13): one topological sweep computes the forward facts over
/// three reduced-product value domains, and one reverse-topological sweep
/// computes the backward demanded widths:
///
///   - **Known bits** and **intervals** (absint.h), with the transfer
///     functions of absint_transfer.h.
///   - **Congruence**: value ≡ residue (mod 2^k). Low-bit knowledge that
///     survives multiplication — (2a+1)·(2b+1) ≡ 1 (mod 2) — and composes
///     with shifts, which known-bits alone reconstructs only partially.
///   - **Demanded width** (backward): how many low bits of each value can
///     influence a design output bit. This tightens required precision
///     (Definition 4.1): both are `dfg::demand_op` and `dfg::demand_edge`
///     over `analysis::WidthOps`, except that demand is clipped at the
///     source's width and a Mul operand drops the trailing zeros of a
///     literal Const co-factor. Both rules are pointwise <= required
///     precision's, which is what the `rp.unsound` cross-check in
///     `lint_absint` exploits.
///
/// The two sweeps are independent: the forward facts never read demand, and
/// demand uses only the graph structure and literal Const operands, never
/// the forward facts. Undemanded high bits could be truncated away and the
/// design would still compute the same outputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/check/absint.h"
#include "dpmerge/check/diagnostic.h"
#include "dpmerge/dfg/graph.h"
#include "dpmerge/support/bitvector.h"

namespace dpmerge::check {

/// Congruence-domain element: value ≡ residue (mod 2^modulus_bits), with
/// 0 <= modulus_bits <= 64 and residue < 2^modulus_bits. modulus_bits == 0
/// is top (every value is ≡ 0 mod 1).
struct Congruence {
  int modulus_bits = 0;
  std::uint64_t residue = 0;

  static Congruence top() { return {}; }
  bool is_top() const { return modulus_bits == 0; }
  /// Low-order bits known zero under this congruence (>= k when residue 0).
  int trailing_zeros() const;
  bool operator==(const Congruence&) const = default;
};

/// One node/edge/operand fact of the forward reduced product.
struct AbsFact {
  KnownBits bits;
  Interval range;
  Congruence cong;

  int width() const { return bits.width(); }
  static AbsFact top(int w);
  static AbsFact constant(const BitVector& v);
  /// Projection onto known bits × interval (for `contradicts` and the
  /// comparator decisions).
  AbstractValue value() const { return {bits, range}; }
};

/// Soundness predicate of the product domain (drives the property tests).
bool contains(const AbsFact& f, const BitVector& v);

/// Forward facts everywhere the evaluator defines concrete values, plus the
/// backward demanded widths. Vectors are indexed by node/edge id.
struct AbsintResult {
  std::vector<AbsFact> at_output_port;
  std::vector<AbsFact> at_edge;     ///< carried(e)
  std::vector<AbsFact> at_operand;  ///< operand delivered into dst
  /// Demanded widths: the low k bits can influence a design output, no
  /// higher bit can (0 = nothing demanded). Each is at most its value's
  /// width.
  std::vector<int> demanded_out;      ///< per node output port, <= w(N)
  std::vector<int> demanded_edge;     ///< per edge carrier, <= w(e)
  std::vector<int> demanded_operand;  ///< per delivered operand, <= w(dst)

  const AbsFact& out(dfg::NodeId n) const {
    return at_output_port[static_cast<std::size_t>(n.value)];
  }
  const AbsFact& edge(dfg::EdgeId e) const {
    return at_edge[static_cast<std::size_t>(e.value)];
  }
  const AbsFact& operand(dfg::EdgeId e) const {
    return at_operand[static_cast<std::size_t>(e.value)];
  }
  int demanded_width(dfg::NodeId n) const {
    return demanded_out[static_cast<std::size_t>(n.value)];
  }
};

/// Runs the forward sweep and the backward sweep, O(V + E) each. The graph
/// must pass the IR verifier (well-formed, acyclic).
AbsintResult compute_absint(const dfg::Graph& g);

/// The analysis-soundness lint: checks information-content claims against
/// the forward facts and required precision against a fresh derivation and
/// the demanded widths. Rule catalog:
///   ic.stale        result vectors do not match the graph's node/edge
///                   counts (the graph was mutated after the analysis ran)
///   ic.malformed    claimed width outside [0, port width]
///   ic.unsound      claim disjoint from the forward fact — no reachable
///                   value can satisfy it (`contradicts`, absint.h)
///   rp.stale        stored r differs from a fresh derivation (or the vector
///                   sizes do not match the graph)
///   rp.unsound      demanded width exceeds r(p_o) — the two demand
///                   algebras differ only in `uncarry` and `mul`, each
///                   pointwise <= the required-precision rule, so this means
///                   one of the two analyses has a soundness bug
///   absint.internal the product domains are mutually disjoint (checker bug)
/// `ia`/`rp` may be null to skip the respective claim checks; `pre` reuses
/// an already-computed result.
CheckReport lint_absint(const dfg::Graph& g,
                        const analysis::InfoAnalysis* ia = nullptr,
                        const analysis::RequiredPrecision* rp = nullptr,
                        const AbsintResult* pre = nullptr);

/// Human-readable per-node fact report for `dpmerge-lint --absint`.
std::string absint_facts_text(const dfg::Graph& g, const AbsintResult& r);

/// Machine-readable fact report on one line ({"nodes":[...]}),
/// so `dpmerge-lint --json` stays one JSON document per line.
std::string absint_facts_json(const dfg::Graph& g, const AbsintResult& r);

}  // namespace dpmerge::check
