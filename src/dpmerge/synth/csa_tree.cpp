#include "dpmerge/synth/csa_tree.h"

#include <cassert>
#include <tuple>

#include "dpmerge/obs/obs.h"

namespace dpmerge::synth {

using netlist::NetId;
using netlist::Netlist;
using netlist::Signal;

CsaTree::CsaTree(Netlist& n, int width) : net_(n), width_(width) {
  assert(width >= 1);
  columns_.resize(static_cast<std::size_t>(width));
}

void CsaTree::add_bit(int column, NetId bit) {
  if (column >= width_) return;  // weight >= 2^W: drops out mod 2^W
  if (bit == net_.const0()) return;
  columns_[static_cast<std::size_t>(column)].push_back(bit);
}

void CsaTree::add_row(const Signal& row, bool negative) {
  assert(row.width() == width_);
  ++rows_;
  if (!negative) {
    for (int i = 0; i < width_; ++i) add_bit(i, row.bit(i));
    return;
  }
  // -r = ~r + 1 (mod 2^W). Sign-extension fill nets share one inverter.
  const Signal inverted = net_.invert(row);
  for (int i = 0; i < width_; ++i) add_bit(i, inverted.bit(i));
  add_bit(0, net_.const1());
}

void CsaTree::add_constant(const BitVector& v) {
  for (int i = 0; i < std::min(v.width(), width_); ++i) {
    if (v.bit(i)) add_bit(i, net_.const1());
  }
}

Signal CsaTree::reduce_and_sum(AdderArch arch) {
  obs::Span span("synth.csa.reduce");
  stages_ = 0;
  // Dadda-style schedule: reduce to successive target heights 2, 3, 4, 6,
  // 9, 13, ... using full adders, with a half adder only when one bit over
  // target. Fewer compressors and shallower logic than eager Wallace.
  std::size_t max_h = 0;
  for (const auto& col : columns_) max_h = std::max(max_h, col.size());
  std::vector<std::size_t> targets{2};
  while (targets.back() < max_h) {
    targets.push_back(targets.back() * 3 / 2);
  }
  for (auto it = targets.rbegin(); it != targets.rend(); ++it) {
    const std::size_t t = *it;
    if (t >= max_h && t != 2) continue;
    bool did_work = false;
    // LSB-first so carries land in columns processed later this stage.
    for (int c = 0; c < width_; ++c) {
      auto& col = columns_[static_cast<std::size_t>(c)];
      std::size_t take = 0;
      // Compressor outputs go to the back of the column (they count toward
      // the target height and are only re-consumed in a later pass).
      while (col.size() - take > t) {
        NetId sum, carry;
        if (col.size() - take == t + 1) {
          std::tie(sum, carry) = net_.half_adder(col[take], col[take + 1]);
          take += 2;
        } else {
          std::tie(sum, carry) =
              net_.full_adder(col[take], col[take + 1], col[take + 2]);
          take += 3;
        }
        col.push_back(sum);
        if (c + 1 < width_ && carry != net_.const0()) {
          columns_[static_cast<std::size_t>(c + 1)].push_back(carry);
        }
        did_work = true;
      }
      col.erase(col.begin(), col.begin() + static_cast<std::ptrdiff_t>(take));
    }
    if (did_work) ++stages_;
    max_h = 0;
    for (const auto& col : columns_) max_h = std::max(max_h, col.size());
  }

  obs::stat_add("synth.csa.trees");
  obs::stat_add("synth.csa.rows", rows_);
  obs::stat_add("synth.csa.stages", stages_);
  obs::stat_max("synth.csa.max_stages", stages_);

  Signal a, b;
  for (int c = 0; c < width_; ++c) {
    const auto& col = columns_[static_cast<std::size_t>(c)];
    a.bits.push_back(col.size() >= 1 ? col[0] : net_.const0());
    b.bits.push_back(col.size() >= 2 ? col[1] : net_.const0());
  }
  // If nothing needs propagating (every column <= 1 bit), skip the CPA.
  bool b_zero = true;
  for (NetId bit : b.bits) {
    if (bit != net_.const0()) b_zero = false;
  }
  if (b_zero) return a;
  return cpa(net_, arch, a, b, net_.const0());
}

}  // namespace dpmerge::synth
