#pragma once

#include <cstdint>
#include <vector>

#include "dpmerge/analysis/info_content.h"

namespace dpmerge::analysis {

/// One addend of a rebalanceable cluster expression: the information content
/// of a signal plus an integer multiplicity (a term c*I contributes |c|
/// copies of I, negated when c < 0 — Observation 5.9).
struct Addend {
  InfoContent info;
  std::int64_t coefficient = 1;
};

/// Algorithm Huffman_Rebalancing (Section 5.2): computes an upper bound on
/// the information content of a sum of constant multiples of input signals,
/// using the operation ordering that yields the tightest possible bound
/// (Theorem 5.10; modelled on Huffman's minimum-redundancy coding).
///
/// The paper's algorithm manipulates plain integers with the combination
/// max{i1,i2}+1; this implementation carries the full <i, t> tuples and
/// combines them with the sound `ic_add`, which degenerates to the paper's
/// rule when signs agree. Negative coefficients insert `ic_neg` of the base
/// signal's content.
///
/// Copies are counted, not expanded: the multiset is a sorted array of
/// (content, count) buckets, so a run costs O(K^2 + K log sum|c|) for K
/// distinct contents whatever the coefficients (the equivalence argument
/// is at the definition). Throws std::invalid_argument for a coefficient of
/// -2^63 or a copy total past 2^63-1.
InfoContent huffman_rebalanced_bound(const std::vector<Addend>& addends);

/// Reference implementation for tests: the bound obtained by folding the
/// addends left-to-right in the given order (the "skewed" ordering a naive
/// chain evaluation would produce).
InfoContent sequential_bound(const std::vector<Addend>& addends);

/// Exhaustive minimum over all binary combination orders (Catalan blow-up;
/// only usable for <= ~8 expanded addends). Used to test Theorem 5.10's
/// optimality claim.
InfoContent exhaustive_best_bound(const std::vector<Addend>& addends);

/// Expands coefficients into the flat multiset of per-copy contents
/// (`sequential_bound` and `exhaustive_best_bound` fold over it).
std::vector<InfoContent> expand_addends(const std::vector<Addend>& addends);

}  // namespace dpmerge::analysis
