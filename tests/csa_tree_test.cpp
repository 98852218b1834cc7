#include "dpmerge/synth/csa_tree.h"

#include <gtest/gtest.h>

#include "dpmerge/check/check.h"
#include "dpmerge/support/rng.h"
#include "sim_oracle.h"

namespace dpmerge::synth {
namespace {

using netlist::Netlist;
using netlist::Signal;
using netlist::Simulator;

/// Builds a W-bit netlist summing `count` input rows (with per-row negate
/// flags) plus a constant, then checks it against BitVector arithmetic on
/// random stimuli.
void check_sum(int width, const std::vector<bool>& negate,
               std::int64_t constant, AdderArch arch, std::uint64_t seed) {
  Netlist net;
  std::vector<Signal> rows;
  for (std::size_t r = 0; r < negate.size(); ++r) {
    Signal s;
    for (int i = 0; i < width; ++i) s.bits.push_back(net.new_net());
    net.add_input(std::string("r").append(std::to_string(r)), s);
    rows.push_back(s);
  }
  CsaTree tree(net, width);
  for (std::size_t r = 0; r < negate.size(); ++r) {
    tree.add_row(rows[r], negate[r]);
  }
  if (constant != 0) {
    tree.add_constant(BitVector::from_int(width, constant));
  }
  net.add_output("s", tree.reduce_and_sum(arch));
  ASSERT_TRUE(check::verify(net).ok());

  Simulator sim(net);
  Rng rng(seed);
  for (int t = 0; t < 30; ++t) {
    std::map<std::string, BitVector> stim;
    BitVector expect = BitVector::from_int(width, constant);
    for (std::size_t r = 0; r < negate.size(); ++r) {
      const BitVector v = rng.bits(width);
      stim[std::string("r").append(std::to_string(r))] = v;
      expect = negate[r] ? expect.sub(v) : expect.add(v);
    }
    ASSERT_EQ(sim.run(stim).at("s"), expect)
        << "w=" << width << " rows=" << negate.size();
  }
}

TEST(CsaTree, TwoRows) { check_sum(8, {false, false}, 0, AdderArch::Ripple, 1); }

TEST(CsaTree, ThreeRowsOneNegated) {
  check_sum(8, {false, true, false}, 0, AdderArch::Ripple, 2);
}

TEST(CsaTree, ManyRows) {
  check_sum(12, std::vector<bool>(9, false), 0, AdderArch::KoggeStone, 3);
}

TEST(CsaTree, AllNegated) {
  check_sum(10, {true, true, true, true}, 0, AdderArch::KoggeStone, 4);
}

TEST(CsaTree, WithConstant) {
  check_sum(9, {false, true}, 37, AdderArch::Ripple, 5);
  check_sum(9, {false, false}, -5, AdderArch::KoggeStone, 6);
}

TEST(CsaTree, SingleRowIsWiring) {
  Netlist net;
  Signal s;
  for (int i = 0; i < 6; ++i) s.bits.push_back(net.new_net());
  net.add_input("a", s);
  CsaTree tree(net, 6);
  tree.add_row(s);
  const Signal out = tree.reduce_and_sum(AdderArch::Ripple);
  net.add_output("s", out);
  EXPECT_EQ(net.gate_count(), 0);  // no compression, no CPA needed
  EXPECT_EQ(tree.stages(), 0);
}

TEST(CsaTree, StagesGrowLogarithmically) {
  // ~log_{3/2}(rows) compression stages.
  Netlist net;
  CsaTree tree(net, 16);
  std::vector<Signal> rows;
  for (int r = 0; r < 16; ++r) {
    Signal s;
    for (int i = 0; i < 16; ++i) s.bits.push_back(net.new_net());
    net.add_input(std::string("r").append(std::to_string(r)), s);
    tree.add_row(s);
  }
  tree.reduce_and_sum(AdderArch::Ripple);
  EXPECT_GE(tree.stages(), 4);
  EXPECT_LE(tree.stages(), 8);
}

TEST(CsaTree, CarryBeyondWidthDrops) {
  // Sum of four all-ones rows mod 2^4.
  check_sum(4, {false, false, false, false}, 0, AdderArch::Ripple, 7);
}

class CsaRandomShapes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsaRandomShapes, RandomRowsAndSigns) {
  Rng rng(GetParam());
  for (int t = 0; t < 5; ++t) {
    const int width = static_cast<int>(rng.uniform(2, 20));
    const int rows = static_cast<int>(rng.uniform(1, 10));
    std::vector<bool> negate;
    for (int r = 0; r < rows; ++r) negate.push_back(rng.chance(0.4));
    const std::int64_t c = rng.uniform(-100, 100);
    check_sum(width, negate, c,
              rng.chance(0.5) ? AdderArch::Ripple : AdderArch::KoggeStone,
              GetParam() * 97 + static_cast<std::uint64_t>(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsaRandomShapes,
                         ::testing::Values(41, 42, 43, 44, 45, 46));

}  // namespace
}  // namespace dpmerge::synth
