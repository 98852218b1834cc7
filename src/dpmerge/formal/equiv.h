#pragma once

#include <optional>
#include <string>

#include "dpmerge/dfg/graph.h"
#include "dpmerge/formal/bdd.h"
#include "dpmerge/netlist/netlist.h"

namespace dpmerge::formal {

/// Outcome of a formal combinational equivalence check.
struct EquivResult {
  enum class Status { Equivalent, Different, ResourceLimit };
  Status status = Status::Equivalent;
  /// On Difference: which output / bit disagreed, plus a witness input
  /// assignment rendered as "name=binary" pairs.
  std::string detail;

  bool equivalent() const { return status == Status::Equivalent; }
  bool proved() const { return status != Status::ResourceLimit; }
};

/// Symbolic word: one BDD per bit, LSB first. Exposed so tests and tools
/// can build custom checks.
struct Word {
  std::vector<Bdd::Ref> bits;
  int width() const { return static_cast<int>(bits.size()); }
};

/// Symbolic datapath arithmetic over BDD words (the formal twin of
/// BitVector). All operations are modulo 2^width, mirroring the DFG
/// semantics exactly.
Word sym_const(Bdd& m, const BitVector& v);
Word sym_resize(Bdd& m, const Word& w, int width, Sign sign);
Word sym_add(Bdd& m, const Word& a, const Word& b);
Word sym_sub(Bdd& m, const Word& a, const Word& b);
Word sym_neg(Bdd& m, const Word& a);
Word sym_mul(Bdd& m, const Word& a, const Word& b);
Word sym_shl(Bdd& m, const Word& a, int s);
Bdd::Ref sym_lt(Bdd& m, const Word& a, const Word& b, bool is_signed);
Bdd::Ref sym_eq(Bdd& m, const Word& a, const Word& b);

/// Input-variable assignment shared by both sides of a check:
/// bit b of input i gets BDD variable b * num_inputs + i (bit-interleaved —
/// the datapath-friendly order that keeps adder BDDs linear).
class SymbolicInputs {
 public:
  /// Builds variables for inputs named/widthed like the graph's inputs.
  SymbolicInputs(Bdd& m, const dfg::Graph& g);
  const Word& by_name(const std::string& name) const;

  /// Decodes a BDD satisfying assignment back into per-input binary strings.
  std::string witness(const Bdd& m, Bdd::Ref f) const;

 private:
  std::vector<std::pair<std::string, Word>> words_;
  int total_bits_ = 0;
};

/// Symbolically evaluates a DFG: returns the output-port word of every node.
std::vector<Word> sym_eval_graph(Bdd& m, const dfg::Graph& g,
                                 const SymbolicInputs& in);

/// `netlist::apply_cell`'s connectives over BDDs: the gate function of
/// `sym_eval_netlist`. XNOR is the manager's `bdd_xnor` and MUX one `ite`.
struct BddOps {
  Bdd& m;
  Bdd::Ref not_(Bdd::Ref a) const { return m.bdd_not(a); }
  Bdd::Ref and_(Bdd::Ref a, Bdd::Ref b) const { return m.bdd_and(a, b); }
  Bdd::Ref or_(Bdd::Ref a, Bdd::Ref b) const { return m.bdd_or(a, b); }
  Bdd::Ref xor_(Bdd::Ref a, Bdd::Ref b) const { return m.bdd_xor(a, b); }
  Bdd::Ref xnor_(Bdd::Ref a, Bdd::Ref b) const { return m.bdd_xnor(a, b); }
  Bdd::Ref mux(Bdd::Ref d0, Bdd::Ref d1, Bdd::Ref sel) const {
    return m.ite(sel, d1, d0);
  }
};

/// Symbolically evaluates a netlist: returns each output bus word by name.
std::vector<std::pair<std::string, Word>> sym_eval_netlist(
    Bdd& m, const netlist::Netlist& n, const SymbolicInputs& in);

/// Proves (or refutes, with a counterexample witness) that the netlist
/// implements the DFG, output-by-output and bit-by-bit. Buses match by
/// name. `max_nodes` bounds the BDD size; exceeding it yields
/// Status::ResourceLimit, not a verdict.
EquivResult check_netlist_vs_graph(const netlist::Netlist& n,
                                   const dfg::Graph& g,
                                   std::size_t max_nodes = 4u << 20);

/// Proves two DFGs equivalent (same inputs/outputs by name).
EquivResult check_graph_vs_graph(const dfg::Graph& a, const dfg::Graph& b,
                                 std::size_t max_nodes = 4u << 20);

}  // namespace dpmerge::formal
