#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dpmerge/dfg/graph.h"

namespace dpmerge::designs {

/// Scalable workload generators for the 100k+-node scaling substrate
/// (DESIGN.md §11). Unlike the frontend-compiled `dsp_kernels()` suite,
/// these build parameterised DFGs directly through dfg::Builder, so the
/// same structural family can be emitted at any node count (1k .. 1M+).
/// Every generator is deterministic: the same parameters always produce
/// the same graph, node ids included.

/// Deep layered arithmetic network: `layers` layers of `layer_width`
/// operator nodes, each consuming two values from earlier layers (mostly
/// the previous one, with occasional longer skip connections), with an
/// add/sub-heavy operator mix plus some multiplies and constant shifts.
/// Operand choice is driven by a deterministic Rng seeded with `seed`.
/// Total operator count is layers * layer_width; the critical path is
/// ~`layers` deep: a deep, narrow graph rather than many independent
/// clusters.
dfg::Graph layered_network(int layers, int layer_width, int width,
                           std::uint64_t seed = 0x5ca1eULL);

/// `taps`-tap FIR filter with constant coefficients: taps multiplies
/// reduced by a balanced adder tree (one cluster candidate of ~2*taps
/// arithmetic nodes). ~4*taps nodes total.
dfg::Graph fir(int taps, int width);

/// Bank of `rows` independent DCT-II-style rows, each an 8-point dot
/// product with integer cosine coefficients. Rows share the 8 inputs but
/// nothing else, so the graph is a forest of `rows` independent kernels.
/// ~24*rows nodes.
dfg::Graph dct_bank(int rows, int width);

/// n x n integer matrix-matrix product C = A * B: n^2 dot products of
/// length n (n^3 multiplies + n^2*(n-1) adds + 2n^2 inputs), ~2*n^3 nodes.
dfg::Graph matmul(int n, int width);

/// A named design for the scaling bench.
struct ScaleDesign {
  std::string name;
  dfg::Graph graph;
};

/// The scaling suite at roughly `target_nodes` operator nodes: one design
/// per generator family, each parameterised to land near the target. The
/// design names embed the family and the realised node count.
std::vector<ScaleDesign> scale_suite(int target_nodes);

}  // namespace dpmerge::designs
