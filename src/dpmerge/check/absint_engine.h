#pragma once

/// Bidirectional multi-domain abstract interpretation over the frozen CSR
/// graph (DESIGN.md §13). A worklist fixpoint engine runs a
/// forward pass over three reduced-product value domains and a backward pass
/// over a demanded-bits domain until neither direction changes anything:
///
///   - **Known bits** and **intervals** (absint.h), with the transfer
///     functions of absint_transfer.h.
///   - **Congruence**: value ≡ residue (mod 2^k). Low-bit knowledge that
///     survives multiplication — (2a+1)·(2b+1) ≡ 1 (mod 2) — and composes
///     with shifts, which known-bits alone reconstructs only partially.
///   - **Demanded bits** (backward): which bits of each node's output can
///     influence any design output bit. This generalises required precision
///     (Definition 4.1) from a single width to a mask: both are
///     `dfg::demand_op` and `dfg::demand_edge`, over a mask and a width
///     algebra, and every mask operation is pointwise at least as precise,
///     which is what the `rp.unsound` cross-check in `lint_absint` exploits.
///
/// Demand uses only the graph structure and literal Const operands, never
/// the forward facts: an undemanded high bit could be truncated away and the
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

/// Fixpoint facts everywhere the evaluator defines concrete values, plus the
/// backward demand masks. Vectors are indexed by node/edge id.
struct AbsintResult {
  std::vector<AbsFact> at_output_port;
  std::vector<AbsFact> at_edge;     ///< carried(e)
  std::vector<AbsFact> at_operand;  ///< operand delivered into dst
  /// Demand masks: bit i set iff bit i can influence a design output.
  std::vector<BitVector> demanded_out;      ///< per node output port
  std::vector<BitVector> demanded_edge;     ///< per edge carrier
  std::vector<BitVector> demanded_operand;  ///< per delivered operand
  int rounds = 0;  ///< Forward/backward alternations actually run.

  const AbsFact& out(dfg::NodeId n) const {
    return at_output_port[static_cast<std::size_t>(n.value)];
  }
  const AbsFact& edge(dfg::EdgeId e) const {
    return at_edge[static_cast<std::size_t>(e.value)];
  }
  const AbsFact& operand(dfg::EdgeId e) const {
    return at_operand[static_cast<std::size_t>(e.value)];
  }
  const BitVector& demand_out(dfg::NodeId n) const {
    return demanded_out[static_cast<std::size_t>(n.value)];
  }
  /// 1 + index of the highest demanded output bit (0 = nothing demanded).
  int demanded_width(dfg::NodeId n) const;
};

/// Runs the worklist engine to the combined forward/backward fixpoint (at
/// most 4 forward/backward alternations; a DAG needs <= 2). The graph must
/// pass the IR verifier (well-formed, acyclic).
AbsintResult compute_absint(const dfg::Graph& g);

/// The analysis-soundness lint: checks information-content claims against
/// the fixpoint facts and required precision against a fresh derivation and
/// the demanded bits. Rule catalog:
///   ic.stale        result vectors do not match the graph's node/edge
///                   counts (the graph was mutated after the analysis ran)
///   ic.malformed    claimed width outside [0, port width]
///   ic.unsound      claim disjoint from the fixpoint fact — no reachable
///                   value can satisfy it (`contradicts`, absint.h)
///   rp.stale        stored r differs from a fresh derivation (or the vector
///                   sizes do not match the graph)
///   rp.unsound      demanded width exceeds r(p_o) — the demand transfers
///                   are pointwise <= the required-precision transfers, so
///                   this means one of the two analyses has a soundness bug
///   absint.internal the product domains are mutually disjoint (checker bug)
/// `ia`/`rp` may be null to skip the respective claim checks; `pre` reuses
/// an already-computed fixpoint.
CheckReport lint_absint(const dfg::Graph& g,
                        const analysis::InfoAnalysis* ia = nullptr,
                        const analysis::RequiredPrecision* rp = nullptr,
                        const AbsintResult* pre = nullptr);

/// Human-readable per-node fact report for `dpmerge-lint --absint`.
std::string absint_facts_text(const dfg::Graph& g, const AbsintResult& r);

/// Machine-readable fact report on one line ({"rounds":N,"nodes":[...]}),
/// so `dpmerge-lint --json` stays one JSON document per line.
std::string absint_facts_json(const dfg::Graph& g, const AbsintResult& r);

}  // namespace dpmerge::check
