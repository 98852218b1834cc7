#include "dpmerge/formal/equiv.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace dpmerge::formal {

using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;
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

std::vector<Word> sym_eval_graph(Bdd& m, const Graph& g,
                                 const SymbolicInputs& in) {
  std::vector<Word> result(static_cast<std::size_t>(g.node_count()));

  auto operand = [&](const Node& n, int port) {
    const Edge& e = g.edge(n.in[static_cast<std::size_t>(port)]);
    const Word& src = result[static_cast<std::size_t>(e.src.value)];
    const Word carried = sym_resize(m, src, e.width, e.sign);
    const Sign second = n.kind == OpKind::Extension ? n.ext_sign : e.sign;
    return sym_resize(m, carried, n.width, second);
  };

  for (NodeId id : g.freeze().topo) {
    const Node& n = g.node(id);
    auto& out = result[static_cast<std::size_t>(id.value)];
    switch (n.kind) {
      case OpKind::Input:
        out = in.by_name(g.name(n));
        if (out.width() != n.width) {
          throw std::invalid_argument("symbolic width mismatch on input '" +
                                      g.name(n) + "'");
        }
        break;
      case OpKind::Const:
        out = sym_const(m, n.value);
        break;
      case OpKind::Output:
      case OpKind::Extension:
        out = operand(n, 0);
        break;
      case OpKind::Add:
        out = sym_add(m, operand(n, 0), operand(n, 1));
        break;
      case OpKind::Sub:
        out = sym_sub(m, operand(n, 0), operand(n, 1));
        break;
      case OpKind::Mul:
        out = sym_mul(m, operand(n, 0), operand(n, 1));
        break;
      case OpKind::Neg:
        out = sym_neg(m, operand(n, 0));
        break;
      case OpKind::Shl:
        out = sym_shl(m, operand(n, 0), n.shift);
        break;
      case OpKind::LtS:
      case OpKind::LtU:
      case OpKind::Eq: {
        const Word a = operand(n, 0);
        const Word b = operand(n, 1);
        Bdd::Ref r;
        if (n.kind == OpKind::Eq) {
          r = sym_eq(m, a, b);
        } else {
          r = sym_lt(m, a, b, n.kind == OpKind::LtS);
        }
        out.bits.assign(static_cast<std::size_t>(n.width), Bdd::kFalse);
        out.bits[0] = r;
        break;
      }
    }
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
