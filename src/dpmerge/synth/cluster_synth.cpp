#include "dpmerge/synth/cluster_synth.h"

#include <cassert>

#include "dpmerge/dfg/eval.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/synth/csa_tree.h"

namespace dpmerge::synth {

using analysis::InfoAnalysis;
using analysis::InfoContent;
using cluster::Cluster;
using cluster::Term;
using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::NodeId;
using netlist::NetId;
using netlist::Netlist;
using netlist::Signal;

namespace {

/// Gates as the value algebra of `dfg::deliver`: a resize is wiring
/// (truncate, replicate the top net, or tie to 0).
struct SignalOps {
  using Value = Signal;
  Netlist& net;
  Signal resize(const Signal& s, int /*from*/, int to, Sign sign) const {
    return net.resize(s, to, sign);
  }
};

}  // namespace

Signal operand_signal(Netlist& net, const Graph& g, EdgeId eid,
                      const std::vector<Signal>& signals) {
  const Edge& e = g.edge(eid);
  const Signal& src = signals[static_cast<std::size_t>(e.src.value)];
  assert(src.width() == g.node(e.src).width && "source not yet synthesised");
  return dfg::deliver(src, src.width(), e, g.node(e.dst), SignalOps{net})
      .delivered;
}

namespace {

/// Radix-4 (modified Booth) product rows: recodes the multiplier `b`
/// (interpreted per `tb`) into digits d_j in {-2,-1,0,1,2}, each producing
/// one row (-1)^neg * |d_j| * A << 2j. Negative rows contribute their
/// bitwise complement plus a +1 correction, which CsaTree::add_row handles.
void booth_rows(Netlist& net, CsaTree& tree, const Signal& a_ext,
                const Signal& b_raw, Sign tb, int base_shift, bool negate,
                int W) {
  // Extend b by two bits so the top Booth window is well-defined for both
  // signednesses (unsigned gains explicit 0s, signed replicates the sign).
  const Signal b = net.resize(b_raw, b_raw.width() + 2, tb);
  auto bbit = [&](int i) {
    return i < 0 ? net.const0() : b.bit(std::min(i, b.width() - 1));
  };
  for (int j = 0; 2 * j < b_raw.width() + 1; ++j) {
    if (base_shift + 2 * j >= W) break;  // weight beyond 2^W drops out
    const netlist::NetId x0 = bbit(2 * j - 1);
    const netlist::NetId x1 = bbit(2 * j);
    const netlist::NetId x2 = bbit(2 * j + 1);
    // |d| == 1 when x1 != x0; |d| == 2 when x2 != x1 == x0; neg when x2.
    const netlist::NetId one = net.xor2(x1, x0);
    const netlist::NetId two =
        net.and2(net.xor2(x2, x1), net.xnor2(x1, x0));
    const netlist::NetId neg = x2;

    // Row magnitude: (one ? A : 0) | (two ? A >> ... shifted by one) at
    // column base_shift + 2j + i.
    Signal row;
    row.bits.assign(static_cast<std::size_t>(W), net.const0());
    const int off = base_shift + 2 * j;
    for (int ci = off; ci < W; ++ci) {
      const int i = ci - off;
      const netlist::NetId m1 = net.and2(one, a_ext.bit(i));
      const netlist::NetId m2 =
          i >= 1 ? net.and2(two, a_ext.bit(i - 1)) : net.const0();
      row.bits[static_cast<std::size_t>(ci)] = net.or2(m1, m2);
    }
    // The digit's negation must flip the *whole* W-bit row (the value is
    // row * (-1)^neg): columns below `off` hold zeros that become ones.
    // CsaTree::add_row's negative path does exactly that, but here the
    // negation is data-dependent (neg is a net), so fold it in bitwise:
    // negated-or-not bit = row_bit XOR neg, plus `neg` at column 0.
    for (int ci = 0; ci < W; ++ci) {
      row.bits[static_cast<std::size_t>(ci)] =
          net.xor2(row.bits[static_cast<std::size_t>(ci)], neg);
    }
    tree.add_row(row, negate);
    if (!negate) {
      // v = (row XOR neg) + neg: the +neg correction completes the
      // conditional two's complement.
      tree.add_bit(0, neg);
    } else {
      // The term contributes -v = -(row' + neg) = add_row(negated row')
      // plus (-neg). In W-bit two's complement -neg is simply W copies of
      // the neg bit (0 -> 0, 1 -> all ones).
      Signal minus_neg;
      minus_neg.bits.assign(static_cast<std::size_t>(W), neg);
      tree.add_row(minus_neg, false);
    }
  }
}

}  // namespace

Signal synthesize_cluster(Netlist& net, const Graph& g,
                          const cluster::Partition& p, int ci,
                          const InfoAnalysis& ia,
                          const std::vector<Signal>& signals, AdderArch arch,
                          bool booth, ClusterSynthStats* stats) {
  const Cluster& c = p.clusters[static_cast<std::size_t>(ci)];
  const int W = g.node(c.root).width;
  obs::Span span("synth.cluster");
  obs::stat_add("synth.clusters");
  CsaTree tree(net, W);
  const auto flat = cluster::flatten_cluster(g, p, ci);

  // Shifts a W-wide row left by `s` columns (zero fill, overflow drops).
  auto shifted_row = [&](const Signal& row, int s) {
    if (s == 0) return row;
    Signal r;
    r.bits.assign(static_cast<std::size_t>(W), net.const0());
    for (int i = 0; i + s < W; ++i) {
      r.bits[static_cast<std::size_t>(i + s)] = row.bit(i);
    }
    return r;
  };

  for (const Term& t : flat.terms) {
    if (t.factors.size() == 1) {
      const EdgeId e = t.factors[0];
      const Signal op = operand_signal(net, g, e, signals);
      const InfoContent claim = ia.operand(e);
      tree.add_row(shifted_row(net.resize(op, W, claim.sign), t.shift),
                   t.negate);
      continue;
    }
    // Product term: partial-product rows at the root width, no intermediate
    // carry propagation. The multiplicand is extended by its claim's
    // signedness; the multiplier's top bit has negative weight iff its
    // claim is signed (Baugh-Wooley-style handling via row negation).
    assert(t.factors.size() == 2);
    const Signal a = operand_signal(net, g, t.factors[0], signals);
    const Signal b = operand_signal(net, g, t.factors[1], signals);
    const Sign ta = ia.operand(t.factors[0]).sign;
    const Sign tb = ia.operand(t.factors[1]).sign;
    const Signal a_ext = net.resize(a, W, ta);
    if (booth) {
      booth_rows(net, tree, a_ext, b, tb, t.shift, t.negate, W);
      continue;
    }
    const int b_used = std::min(b.width(), W);
    for (int j = 0; j < b_used; ++j) {
      Signal row;
      row.bits.assign(static_cast<std::size_t>(W), net.const0());
      for (int i = 0; i + j + t.shift < W; ++i) {
        row.bits[static_cast<std::size_t>(i + j + t.shift)] =
            net.and2(b.bit(j), a_ext.bit(i));
      }
      const bool negative_weight =
          (tb == Sign::Signed) && (j == b.width() - 1);
      tree.add_row(row, negative_weight != t.negate);
    }
  }

  if (stats) stats->addend_rows = tree.rows_added();
  Signal out = tree.reduce_and_sum(arch);
  if (stats) {
    stats->csa_stages = tree.stages();
    stats->used_cpa = true;
  }
  // Degenerate single-addend clusters can come back narrower paths of
  // constants; the width is always W by construction.
  assert(out.width() == W);
  return out;
}

}  // namespace dpmerge::synth
