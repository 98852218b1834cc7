#include "dpmerge/designs/scale.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "dpmerge/dfg/builder.h"
#include "dpmerge/support/rng.h"

namespace dpmerge::designs {

using dfg::Builder;
using dfg::Graph;
using dfg::NodeId;
using dfg::Operand;
using dfg::OpKind;

namespace {

/// A port or design name: `stem` followed by the decimal `i` ("x" and 3
/// give "x3").
std::string indexed(std::string stem, int i) {
  stem += std::to_string(i);
  return stem;
}

int ceil_log2(int n) {
  int b = 0;
  while ((1 << b) < n) ++b;
  return b;
}

/// Balanced pairwise adder reduction at a fixed width. Preserves operand
/// order within each level, so the emitted graph is a deterministic
/// function of the input list.
NodeId adder_tree(Builder& b, std::vector<NodeId> terms, int width) {
  while (terms.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((terms.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back(b.add(width, Operand{terms[i], 0, Sign::Signed},
                           Operand{terms[i + 1], 0, Sign::Signed}));
    }
    if (terms.size() % 2) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms[0];
}

/// A deterministic nonzero "coefficient" in [-127, 127] from an index.
std::int64_t coeff_at(std::uint64_t i) {
  // SplitMix64 finalizer: well-mixed, platform-independent.
  std::uint64_t z = i + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::int64_t c = static_cast<std::int64_t>(z % 255) - 127;
  return c == 0 ? 1 : c;
}

}  // namespace

Graph layered_network(int layers, int layer_width, int width,
                      std::uint64_t seed) {
  Graph g;
  const int n_ops = layers * layer_width;
  g.reserve(n_ops + 2 * layer_width, 2 * n_ops + 2 * layer_width);
  Builder b(g);
  Rng rng(seed);

  std::vector<NodeId> prev;  // previous layer (operand sources)
  prev.reserve(static_cast<std::size_t>(layer_width));
  std::vector<std::vector<NodeId>> history;
  for (int i = 0; i < layer_width; ++i) {
    prev.push_back(b.input(indexed("x", i), width));
  }
  history.push_back(prev);

  for (int l = 0; l < layers; ++l) {
    std::vector<NodeId> cur;
    cur.reserve(static_cast<std::size_t>(layer_width));
    for (int i = 0; i < layer_width; ++i) {
      // Operands come from the previous layer, with a 1-in-16 skip
      // connection reaching further back (keeps the graph connected in
      // depth without collapsing the critical path).
      auto pick = [&]() -> Operand {
        const std::vector<NodeId>& src_layer =
            rng.chance(1.0 / 16) && history.size() > 1
                ? history[static_cast<std::size_t>(
                      rng.uniform(0, static_cast<std::int64_t>(history.size()) - 1))]
                : history.back();
        const NodeId src = src_layer[static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(src_layer.size()) - 1))];
        return Operand{src, 0, Sign::Signed};
      };
      const std::int64_t roll = rng.uniform(0, 99);
      NodeId id;
      if (roll < 60) {
        id = b.add(width, pick(), pick());
      } else if (roll < 75) {
        id = b.sub(width, pick(), pick());
      } else if (roll < 85) {
        id = b.shl(width, pick(), static_cast<int>(rng.uniform(1, 3)));
      } else if (roll < 95) {
        id = b.mul(width, pick(), pick());
      } else {
        id = b.neg(width, pick());
      }
      cur.push_back(id);
    }
    history.push_back(cur);
    prev = std::move(cur);
  }

  // Observe every sink so required precision is defined at every port.
  int out_idx = 0;
  const int n = g.node_count();
  for (std::int32_t i = 0; i < n; ++i) {
    const NodeId id{i};
    if (g.node(id).kind == OpKind::Output || !g.node(id).out.empty()) continue;
    b.output(indexed("y", out_idx++), width,
             Operand{id, 0, Sign::Signed});
  }
  return g;
}

Graph fir(int taps, int width) {
  Graph g;
  g.reserve(4 * taps + 8, 6 * taps + 8);
  Builder b(g);
  const int pw = 2 * width;                   // product width
  const int aw = pw + ceil_log2(taps);        // accumulator width
  std::vector<NodeId> products;
  products.reserve(static_cast<std::size_t>(taps));
  for (int i = 0; i < taps; ++i) {
    const NodeId x = b.input(indexed("x", i), width);
    const NodeId c = b.constant(8, coeff_at(static_cast<std::uint64_t>(i)));
    products.push_back(b.mul(pw, Operand{x, 0, Sign::Signed},
                             Operand{c, 0, Sign::Signed}));
  }
  const NodeId acc = adder_tree(b, std::move(products), aw);
  b.output("y", aw, Operand{acc, 0, Sign::Signed});
  return g;
}

Graph dct_bank(int rows, int width) {
  // 8-point DCT-II coefficient matrix, scaled by 64 and rounded — the
  // standard integer approximation used by 2-D image transforms.
  static constexpr int kDct8[8][8] = {
      {64, 64, 64, 64, 64, 64, 64, 64},
      {89, 75, 50, 18, -18, -50, -75, -89},
      {84, 35, -35, -84, -84, -35, 35, 84},
      {75, -18, -89, -50, 50, 89, 18, -75},
      {64, -64, -64, 64, 64, -64, -64, 64},
      {50, -89, 18, 75, -75, -18, 89, -50},
      {35, -84, 84, -35, -35, 84, -84, 35},
      {18, -50, 75, -89, 89, -75, 50, -18},
  };
  Graph g;
  g.reserve(25 * rows + 16, 40 * rows + 16);
  Builder b(g);
  const int pw = width + 8;
  const int aw = pw + 3;
  std::vector<NodeId> xs;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(b.input(indexed("x", i), width));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<NodeId> terms;
    terms.reserve(8);
    for (int i = 0; i < 8; ++i) {
      const NodeId c = b.constant(8, kDct8[r % 8][i]);
      terms.push_back(b.mul(pw, Operand{xs[static_cast<std::size_t>(i)], 0,
                                        Sign::Signed},
                            Operand{c, 0, Sign::Signed}));
    }
    const NodeId acc = adder_tree(b, std::move(terms), aw);
    b.output(indexed("y", r), aw, Operand{acc, 0, Sign::Signed});
  }
  return g;
}

Graph matmul(int n, int width) {
  Graph g;
  const int n2 = n * n;
  g.reserve(2 * n2 * n + 3 * n2 + 8, 4 * n2 * n + 8);
  Builder b(g);
  const int pw = 2 * width;
  const int aw = pw + ceil_log2(std::max(n, 2));
  std::vector<NodeId> a(static_cast<std::size_t>(n2));
  std::vector<NodeId> bb(static_cast<std::size_t>(n2));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(i * n + j)] = b.input(
          indexed(indexed("a", i) + "_", j), width);
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      bb[static_cast<std::size_t>(i * n + j)] = b.input(
          indexed(indexed("b", i) + "_", j), width);
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      std::vector<NodeId> terms;
      terms.reserve(static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        terms.push_back(
            b.mul(pw,
                  Operand{a[static_cast<std::size_t>(i * n + k)], 0,
                          Sign::Signed},
                  Operand{bb[static_cast<std::size_t>(k * n + j)], 0,
                          Sign::Signed}));
      }
      const NodeId acc = adder_tree(b, std::move(terms), aw);
      b.output(indexed(indexed("c", i) + "_", j), aw,
               Operand{acc, 0, Sign::Signed});
    }
  }
  return g;
}

std::vector<ScaleDesign> scale_suite(int target_nodes) {
  std::vector<ScaleDesign> out;
  const int t = std::max(target_nodes, 64);

  const int lw = std::max(8, static_cast<int>(std::lround(std::sqrt(
                                  static_cast<double>(t)))));
  const int layers = std::max(2, t / lw);
  Graph lay = layered_network(layers, lw, 16);
  std::string lname = indexed("layered_", lay.node_count());
  out.push_back(ScaleDesign{std::move(lname), std::move(lay)});

  Graph f = fir(std::max(4, t / 4), 12);
  out.push_back(ScaleDesign{indexed("fir_", f.node_count()), std::move(f)});

  Graph d = dct_bank(std::max(1, t / 25), 12);
  out.push_back(ScaleDesign{indexed("dct_", d.node_count()), std::move(d)});

  const int mn = std::max(
      2, static_cast<int>(std::lround(std::cbrt(static_cast<double>(t) / 2))));
  Graph m = matmul(mn, 12);
  out.push_back(ScaleDesign{indexed("matmul_", m.node_count()), std::move(m)});
  return out;
}

}  // namespace dpmerge::designs
