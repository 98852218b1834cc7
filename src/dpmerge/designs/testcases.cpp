#include "dpmerge/designs/testcases.h"

#include <cassert>
#include <cmath>
#include <string>

#include "dpmerge/dfg/builder.h"

namespace dpmerge::designs {

using dfg::Builder;
using dfg::Graph;
using dfg::NodeId;
using dfg::Operand;

namespace {

/// A port name: `stem` followed by the decimal `i` ("x" and 3 give "x3").
std::string indexed(std::string stem, int i) {
  stem += std::to_string(i);
  return stem;
}

/// Bits needed to represent the unsigned value `v` (>= 1 so widths stay
/// legal).
int ubits(std::uint64_t v) {
  int b = 1;
  while (v >> b) ++b;
  return b;
}

/// A skewed accumulation chain over `inputs`, each of `in_width` unsigned
/// bits, with *exact* (non-redundant) intermediate widths: the k-th partial
/// sum is declared just wide enough for k operands of full magnitude. This
/// is the "no redundant widths in RTL" style of D1/D2: a skewed
/// information-content pass still over-estimates the tail of the chain, so
/// clusters split until Huffman rebalancing proves the tight bound.
NodeId exact_chain(Builder& b, const std::vector<NodeId>& inputs,
                   int in_width) {
  assert(inputs.size() >= 2);
  const std::uint64_t maxv = (std::uint64_t{1} << in_width) - 1;
  NodeId acc = inputs[0];
  for (std::size_t k = 1; k < inputs.size(); ++k) {
    const int w = ubits(maxv * (k + 1));
    acc = b.add(w, Operand{acc, w, Sign::Unsigned},
                Operand{inputs[k], w, Sign::Unsigned});
  }
  return acc;
}

}  // namespace

Graph make_d1() {
  Graph g;
  Builder b(g);
  std::vector<NodeId> c1, c2;
  for (int i = 0; i < 8; ++i) {
    c1.push_back(b.input(indexed("a", i), 8, Sign::Unsigned));
  }
  for (int i = 0; i < 8; ++i) {
    c2.push_back(b.input(indexed("b", i), 8, Sign::Unsigned));
  }
  const NodeId s1 = exact_chain(b, c1, 8);  // 11 bits for 8 x 8-bit
  const NodeId s2 = exact_chain(b, c2, 8);
  // Total of 16 operands fits 12 bits exactly.
  const NodeId z = b.add(12, Operand{s1, 12, Sign::Unsigned},
                         Operand{s2, 12, Sign::Unsigned});
  b.output("R", 12, Operand{z, 12, Sign::Unsigned});
  return g;
}

Graph make_d2() {
  Graph g;
  Builder b(g);
  std::vector<NodeId> chains;
  for (int c = 0; c < 3; ++c) {
    std::vector<NodeId> ins;
    for (int i = 0; i < 12; ++i) {
      ins.push_back(b.input(indexed(indexed("i", c) + "_", i),
                            10, Sign::Unsigned));
    }
    chains.push_back(exact_chain(b, ins, 10));  // 14 bits for 12 x 10-bit
  }
  // 24 operands -> 15 bits, 36 -> 16 bits; both exact.
  const NodeId z1 = b.add(15, Operand{chains[0], 15, Sign::Unsigned},
                          Operand{chains[1], 15, Sign::Unsigned});
  const NodeId z2 = b.add(16, Operand{z1, 16, Sign::Unsigned},
                          Operand{chains[2], 16, Sign::Unsigned});
  b.output("R", 16, Operand{z2, 16, Sign::Unsigned});
  return g;
}

Graph make_d3() {
  // Sum of products of sums: R = sum_k (a_k + b_k) * (c_k + d_k).
  // The RTL declares the pre-adders and multipliers uniformly 14 bits wide
  // (sloppy but natural); the true content of each product is only 12 bits,
  // which information analysis proves, pruning the product widths and
  // merging all multipliers with the final addition tree.
  Graph g;
  Builder b(g);
  constexpr int kTerms = 4;
  std::vector<NodeId> products;
  for (int k = 0; k < kTerms; ++k) {
    const auto tag = std::to_string(k);
    const NodeId a = b.input("a" + tag, 5);
    const NodeId bb = b.input("b" + tag, 5);
    const NodeId c = b.input("c" + tag, 5);
    const NodeId d = b.input("d" + tag, 5);
    const NodeId s1 =
        b.add(14, Operand{a, 14, Sign::Signed}, Operand{bb, 14, Sign::Signed});
    const NodeId s2 =
        b.add(14, Operand{c, 14, Sign::Signed}, Operand{d, 14, Sign::Signed});
    products.push_back(b.mul(14, Operand{s1, 14, Sign::Signed},
                             Operand{s2, 14, Sign::Signed}));
  }
  const NodeId t1 = b.add(18, Operand{products[0], 18, Sign::Signed},
                          Operand{products[1], 18, Sign::Signed});
  const NodeId t2 = b.add(18, Operand{products[2], 18, Sign::Signed},
                          Operand{products[3], 18, Sign::Signed});
  const NodeId t = b.add(18, Operand{t1, 18, Sign::Signed},
                         Operand{t2, 18, Sign::Signed});
  b.output("R", 18, Operand{t, 18, Sign::Signed});
  return g;
}

namespace {

/// A balanced tree of 32-bit-declared adders over `leaves` (D4/D5 style
/// redundancy: tiny operands on wide wires), with all edges sign-extending.
NodeId wide_tree(Builder& b, std::vector<NodeId> leaves, int wide) {
  while (leaves.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
      next.push_back(b.add(wide, Operand{leaves[i], wide, Sign::Signed},
                           Operand{leaves[i + 1], wide, Sign::Signed}));
    }
    if (leaves.size() % 2) next.push_back(leaves.back());
    leaves = std::move(next);
  }
  return leaves[0];
}

}  // namespace

Graph make_d4() {
  // Heavily width-redundant datapath: 4-bit signed inputs everywhere, all
  // arithmetic declared 32 bits wide. Two small accumulation groups funnel
  // through 10-bit "capture" nodes (the designer knew those partial sums
  // fit 10 bits) that are sign-extended back into a long 32-bit chain — a
  // truncate-then-extend point the width-only leakage analysis must break
  // at, but which information analysis proves exact. The dominant cost sits
  // in the wide chain, where the old flow keeps full 32-bit CSA rows and a
  // 32-bit final adder while the new flow proves ~10 bits suffice.
  Graph g;
  Builder b(g);
  constexpr int kWide = 32;
  auto capture_group = [&](int base) {
    std::vector<NodeId> ins;
    for (int i = 0; i < 4; ++i) {
      ins.push_back(b.input(indexed("x", base + i), 4));
    }
    const NodeId s = wide_tree(b, ins, kWide);
    // 10-bit capture node: truncates the 32-bit wire, provably lossless.
    return b.add(10, Operand{s, 10, Sign::Signed},
                 Operand{b.input(indexed("y", base), 4), 10,
                         Sign::Signed});
  };
  const NodeId h1 = capture_group(0);
  const NodeId h2 = capture_group(4);
  NodeId z = b.sub(kWide, Operand{h1, kWide, Sign::Signed},
                   Operand{h2, kWide, Sign::Signed});
  // The long redundant chain: ten more 4-bit inputs accumulated at 32 bits.
  for (int k = 0; k < 10; ++k) {
    z = b.add(kWide, Operand{z, kWide, Sign::Signed},
              Operand{b.input(indexed("w", k), 4), kWide,
                      Sign::Signed});
  }
  b.output("R", kWide, Operand{z, kWide, Sign::Signed});
  return g;
}

Graph make_d5() {
  // Like D4 but with a different operator mix: a multiplier of two raw
  // 4-bit inputs declared at full 24 bits (content: 8 bits), a unary minus,
  // subtractions, one 9-bit capture point, and a long redundant 24-bit
  // accumulation chain.
  Graph g;
  Builder b(g);
  constexpr int kWide = 24;
  auto in4 = [&](const std::string& name) { return b.input(name, 4); };
  // Product of two raw inputs, declared at full 24 bits.
  const NodeId p = b.mul(kWide, Operand{in4("m0"), kWide, Sign::Signed},
                         Operand{in4("m1"), kWide, Sign::Signed});
  // Capture-bottlenecked accumulation group.
  std::vector<NodeId> leaves;
  for (int i = 0; i < 4; ++i) leaves.push_back(in4(indexed("x", i)));
  const NodeId t = wide_tree(b, leaves, kWide);
  const NodeId cap = b.add(9, Operand{t, 9, Sign::Signed},
                           Operand{in4("k"), 9, Sign::Signed});
  const NodeId n = b.neg(kWide, Operand{cap, kWide, Sign::Signed});
  NodeId z = b.sub(kWide, Operand{p, kWide, Sign::Signed},
                   Operand{n, kWide, Sign::Signed});
  // The long redundant chain of subtractions/additions at 24 bits.
  for (int k = 0; k < 8; ++k) {
    const Operand w{in4(indexed("w", k)), kWide, Sign::Signed};
    z = (k % 3 == 2) ? b.sub(kWide, Operand{z, kWide, Sign::Signed}, w)
                     : b.add(kWide, Operand{z, kWide, Sign::Signed}, w);
  }
  b.output("R", kWide, Operand{z, kWide, Sign::Signed});
  return g;
}

std::vector<Testcase> all_testcases() {
  std::vector<Testcase> v;
  v.push_back({"D1", make_d1()});
  v.push_back({"D2", make_d2()});
  v.push_back({"D3", make_d3()});
  v.push_back({"D4", make_d4()});
  v.push_back({"D5", make_d5()});
  return v;
}

}  // namespace dpmerge::designs
