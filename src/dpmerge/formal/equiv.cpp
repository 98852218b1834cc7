#include "dpmerge/formal/equiv.h"

#include <array>
#include <cassert>
#include <span>
#include <sstream>
#include <stdexcept>

#include "dpmerge/dfg/eval.h"

namespace dpmerge::formal {

using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using netlist::Netlist;

Word sym_const(Bdd& m, const BitVector& v) {
  (void)m;
  Word w;
  for (int i = 0; i < v.width(); ++i) {
    w.bits.push_back(v.bit(i) ? Bdd::kTrue : Bdd::kFalse);
  }
  return w;
}

Word sym_resize(Bdd& m, const Word& w, int width, Sign sign) {
  (void)m;
  Word r;
  const Bdd::Ref fill =
      (sign == Sign::Signed && w.width() > 0) ? w.bits.back() : Bdd::kFalse;
  for (int i = 0; i < width; ++i) {
    r.bits.push_back(i < w.width() ? w.bits[static_cast<std::size_t>(i)]
                                   : fill);
  }
  return r;
}

Word sym_add(Bdd& m, const Word& a, const Word& b) {
  assert(a.width() == b.width());
  Word s;
  Bdd::Ref carry = Bdd::kFalse;
  for (int i = 0; i < a.width(); ++i) {
    const Bdd::Ref x = a.bits[static_cast<std::size_t>(i)];
    const Bdd::Ref y = b.bits[static_cast<std::size_t>(i)];
    const Bdd::Ref xy = m.bdd_xor(x, y);
    s.bits.push_back(m.bdd_xor(xy, carry));
    carry = m.bdd_or(m.bdd_and(x, y), m.bdd_and(xy, carry));
  }
  return s;
}

Word sym_neg(Bdd& m, const Word& a) {
  // ~a + 1.
  Word inv;
  for (auto bit : a.bits) inv.bits.push_back(m.bdd_not(bit));
  Word one;
  one.bits.assign(static_cast<std::size_t>(a.width()), Bdd::kFalse);
  if (!one.bits.empty()) one.bits[0] = Bdd::kTrue;
  return sym_add(m, inv, one);
}

Word sym_sub(Bdd& m, const Word& a, const Word& b) {
  // a + ~b + 1, with the +1 folded in as the initial carry.
  assert(a.width() == b.width());
  Word s;
  Bdd::Ref carry = Bdd::kTrue;
  for (int i = 0; i < a.width(); ++i) {
    const Bdd::Ref x = a.bits[static_cast<std::size_t>(i)];
    const Bdd::Ref y = m.bdd_not(b.bits[static_cast<std::size_t>(i)]);
    const Bdd::Ref xy = m.bdd_xor(x, y);
    s.bits.push_back(m.bdd_xor(xy, carry));
    carry = m.bdd_or(m.bdd_and(x, y), m.bdd_and(xy, carry));
  }
  return s;
}

Word sym_shl(Bdd& m, const Word& a, int s) {
  (void)m;
  Word r;
  r.bits.assign(static_cast<std::size_t>(a.width()), Bdd::kFalse);
  for (int i = 0; i + s < a.width(); ++i) {
    r.bits[static_cast<std::size_t>(i + s)] =
        a.bits[static_cast<std::size_t>(i)];
  }
  return r;
}

Word sym_mul(Bdd& m, const Word& a, const Word& b) {
  assert(a.width() == b.width());
  Word acc;
  acc.bits.assign(static_cast<std::size_t>(a.width()), Bdd::kFalse);
  for (int j = 0; j < b.width(); ++j) {
    // acc += b_j ? (a << j) : 0  — mux each shifted bit by b_j.
    Word row;
    row.bits.assign(static_cast<std::size_t>(a.width()), Bdd::kFalse);
    for (int i = 0; i + j < a.width(); ++i) {
      row.bits[static_cast<std::size_t>(i + j)] =
          m.bdd_and(b.bits[static_cast<std::size_t>(j)],
                    a.bits[static_cast<std::size_t>(i)]);
    }
    acc = sym_add(m, acc, row);
  }
  return acc;
}

Bdd::Ref sym_lt(Bdd& m, const Word& a, const Word& b, bool is_signed) {
  assert(a.width() == b.width());
  if (a.width() == 0) return Bdd::kFalse;
  // Unsigned compare LSB-up; for signed, flip the MSBs first
  // (a <s b  <=>  (a ^ msb) <u (b ^ msb)).
  Bdd::Ref lt = Bdd::kFalse;
  for (int i = 0; i < a.width(); ++i) {
    Bdd::Ref x = a.bits[static_cast<std::size_t>(i)];
    Bdd::Ref y = b.bits[static_cast<std::size_t>(i)];
    if (is_signed && i == a.width() - 1) {
      x = m.bdd_not(x);
      y = m.bdd_not(y);
    }
    // lt = (~x & y) | ((x xnor y) & lt)
    lt = m.bdd_or(m.bdd_and(m.bdd_not(x), y),
                  m.bdd_and(m.bdd_xnor(x, y), lt));
  }
  return lt;
}

Bdd::Ref sym_eq(Bdd& m, const Word& a, const Word& b) {
  assert(a.width() == b.width());
  Bdd::Ref eq = Bdd::kTrue;
  for (int i = 0; i < a.width(); ++i) {
    eq = m.bdd_and(eq, m.bdd_xnor(a.bits[static_cast<std::size_t>(i)],
                                  b.bits[static_cast<std::size_t>(i)]));
  }
  return eq;
}

SymbolicInputs::SymbolicInputs(Bdd& m, const Graph& g) {
  const auto ins = g.inputs();
  const int n = static_cast<int>(ins.size());
  for (int i = 0; i < n; ++i) {
    const Node& node = g.node(ins[static_cast<std::size_t>(i)]);
    Word w;
    for (int b = 0; b < node.width; ++b) {
      w.bits.push_back(m.var(b * n + i));  // bit-interleaved order
      total_bits_ = std::max(total_bits_, b * n + i + 1);
    }
    words_.emplace_back(g.name(node), std::move(w));
  }
}

const Word& SymbolicInputs::by_name(const std::string& name) const {
  for (const auto& [n, w] : words_) {
    if (n == name) return w;
  }
  throw std::invalid_argument("no symbolic input named '" + name + "'");
}

std::string SymbolicInputs::witness(const Bdd& m, Bdd::Ref f) const {
  const auto sat = m.any_sat(f);
  std::vector<bool> assign(static_cast<std::size_t>(total_bits_), false);
  for (const auto& [v, val] : sat) {
    if (static_cast<std::size_t>(v) < assign.size()) {
      assign[static_cast<std::size_t>(v)] = val;
    }
  }
  std::ostringstream os;
  for (const auto& [name, w] : words_) {
    os << " " << name << "=";
    for (int b = w.width() - 1; b >= 0; --b) {
      os << (m.eval(w.bits[static_cast<std::size_t>(b)], assign) ? '1' : '0');
    }
  }
  return os.str();
}

namespace {

/// A 1-bit truth value zero-extended to `w` bits (comparator results).
Word bit_word(Bdd::Ref r, int w) {
  Word out;
  out.bits.assign(static_cast<std::size_t>(w), Bdd::kFalse);
  out.bits[0] = r;
  return out;
}

/// The symbolic algebra of `dfg::deliver` and `dfg::apply_op`: the `sym_*`
/// word operations, with each Input bound to its word in `in` by name.
struct WordOps {
  using Value = Word;
  Bdd& m;
  const Graph& g;
  const SymbolicInputs& in;

  Word resize(const Word& w, int /*from*/, int to, Sign sign) const {
    return sym_resize(m, w, to, sign);
  }
  Word input(const Node& n) const {
    const Word& w = in.by_name(g.name(n));
    if (w.width() != n.width) {
      throw std::invalid_argument("symbolic width mismatch on input '" +
                                  g.name(n) + "'");
    }
    return w;
  }
  Word constant(const Node& n) const { return sym_const(m, n.value); }
  Word neg(const Word& a, int /*w*/) const { return sym_neg(m, a); }
  Word add(const Word& a, const Word& b, int /*w*/) const {
    return sym_add(m, a, b);
  }
  Word sub(const Word& a, const Word& b, int /*w*/) const {
    return sym_sub(m, a, b);
  }
  Word mul(const Word& a, const Word& b, int /*w*/) const {
    return sym_mul(m, a, b);
  }
  Word shl(const Word& a, int s, int /*w*/) const { return sym_shl(m, a, s); }
  Word lt(const Word& a, const Word& b, Sign sign, int w) const {
    return bit_word(sym_lt(m, a, b, sign == Sign::Signed), w);
  }
  Word eq(const Word& a, const Word& b, int w) const {
    return bit_word(sym_eq(m, a, b), w);
  }
};

}  // namespace

std::vector<Word> sym_eval_graph(Bdd& m, const Graph& g,
                                 const SymbolicInputs& in) {
  std::vector<Word> result(static_cast<std::size_t>(g.node_count()));
  const WordOps ops{m, g, in};
  std::array<Word, 2> operands;  // every operator has at most two
  for (NodeId id : g.freeze().topo) {
    const Node& n = g.node(id);
    for (std::size_t p = 0; p < n.in.size(); ++p) {
      const Edge& e = g.edge(n.in[p]);
      operands[p] =
          dfg::deliver(result[static_cast<std::size_t>(e.src.value)],
                       g.node(e.src).width, e, n, ops)
              .delivered;
    }
    result[static_cast<std::size_t>(id.value)] = dfg::apply_op(
        n, std::span<const Word>(operands.data(), n.in.size()), ops);
  }
  return result;
}

std::vector<std::pair<std::string, Word>> sym_eval_netlist(
    Bdd& m, const Netlist& n, const SymbolicInputs& in) {
  std::vector<Bdd::Ref> value(static_cast<std::size_t>(n.net_count()),
                              Bdd::kFalse);
  value[1] = Bdd::kTrue;
  for (const netlist::Bus& b : n.inputs()) {
    const Word& w = in.by_name(b.name);
    if (w.width() != b.signal.width()) {
      throw std::invalid_argument("width mismatch on input '" + b.name + "'");
    }
    for (int i = 0; i < w.width(); ++i) {
      value[static_cast<std::size_t>(b.signal.bit(i).value)] =
          w.bits[static_cast<std::size_t>(i)];
    }
  }
  netlist::eval_gates(n, n.topo_gates(), value, BddOps{m});
  std::vector<std::pair<std::string, Word>> outs;
  for (const netlist::Bus& b : n.outputs()) {
    Word w;
    for (int i = 0; i < b.signal.width(); ++i) {
      w.bits.push_back(value[static_cast<std::size_t>(b.signal.bit(i).value)]);
    }
    outs.emplace_back(b.name, std::move(w));
  }
  return outs;
}

namespace {

EquivResult compare_words(Bdd& m, const SymbolicInputs& in,
                          const std::string& name, const Word& expect,
                          const Word& got) {
  EquivResult res;
  if (expect.width() != got.width()) {
    res.status = EquivResult::Status::Different;
    res.detail = "output '" + name + "' width mismatch";
    return res;
  }
  for (int i = 0; i < expect.width(); ++i) {
    const Bdd::Ref diff = m.bdd_xor(expect.bits[static_cast<std::size_t>(i)],
                                    got.bits[static_cast<std::size_t>(i)]);
    if (diff != Bdd::kFalse) {
      res.status = EquivResult::Status::Different;
      res.detail = "output '" + name + "' bit " + std::to_string(i) +
                   " differs; witness:" + in.witness(m, diff);
      return res;
    }
  }
  return res;
}

}  // namespace

EquivResult check_netlist_vs_graph(const Netlist& n, const Graph& g,
                                   std::size_t max_nodes) {
  try {
    Bdd m(max_nodes);
    SymbolicInputs in(m, g);
    const auto graph_vals = sym_eval_graph(m, g, in);
    const auto net_outs = sym_eval_netlist(m, n, in);
    for (NodeId oid : g.outputs()) {
      const std::string& name = g.name(oid);
      const Word& expect = graph_vals[static_cast<std::size_t>(oid.value)];
      const Word* got = nullptr;
      for (const auto& [nm, w] : net_outs) {
        if (nm == name) got = &w;
      }
      if (!got) {
        EquivResult r;
        r.status = EquivResult::Status::Different;
        r.detail = "netlist has no output '" + name + "'";
        return r;
      }
      const EquivResult r = compare_words(m, in, name, expect, *got);
      if (!r.equivalent()) return r;
    }
    return {};
  } catch (const BddLimitExceeded&) {
    EquivResult r;
    r.status = EquivResult::Status::ResourceLimit;
    r.detail = "BDD node limit exceeded";
    return r;
  }
}

EquivResult check_graph_vs_graph(const Graph& a, const Graph& b,
                                 std::size_t max_nodes) {
  try {
    Bdd m(max_nodes);
    SymbolicInputs in(m, a);
    const auto va = sym_eval_graph(m, a, in);
    const auto vb = sym_eval_graph(m, b, in);
    for (NodeId oa : a.outputs()) {
      const std::string& name = a.name(oa);
      NodeId ob{};
      for (NodeId cand : b.outputs()) {
        if (b.name(cand) == name) ob = cand;
      }
      if (!ob.valid()) {
        EquivResult r;
        r.status = EquivResult::Status::Different;
        r.detail = "second graph has no output '" + name + "'";
        return r;
      }
      const EquivResult r =
          compare_words(m, in, name, va[static_cast<std::size_t>(oa.value)],
                        vb[static_cast<std::size_t>(ob.value)]);
      if (!r.equivalent()) return r;
    }
    return {};
  } catch (const BddLimitExceeded&) {
    EquivResult r;
    r.status = EquivResult::Status::ResourceLimit;
    r.detail = "BDD node limit exceeded";
    return r;
  }
}

}  // namespace dpmerge::formal
