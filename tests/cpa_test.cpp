#include "dpmerge/synth/cpa.h"

#include <gtest/gtest.h>

#include "dpmerge/netlist/sta.h"
#include "dpmerge/support/rng.h"
#include "sim_oracle.h"

namespace dpmerge::synth {
namespace {

using netlist::Netlist;
using netlist::Signal;
using netlist::Simulator;

struct AdderFixture {
  Netlist net;
  explicit AdderFixture(int w, AdderArch arch, bool cin = false) {
    Signal a, b;
    for (int i = 0; i < w; ++i) a.bits.push_back(net.new_net());
    for (int i = 0; i < w; ++i) b.bits.push_back(net.new_net());
    net.add_input("a", a);
    net.add_input("b", b);
    Signal ci;
    if (cin) {
      ci.bits.push_back(net.new_net());
      net.add_input("ci", ci);
    }
    const Signal s =
        cpa(net, arch, a, b, cin ? ci.bit(0) : net.const0());
    net.add_output("s", s);
  }

  std::uint64_t run(std::uint64_t x, std::uint64_t y, int w, int ci = -1) {
    Simulator sim(net);
    std::map<std::string, BitVector> in{
        {"a", BitVector::from_uint(w, x)}, {"b", BitVector::from_uint(w, y)}};
    if (ci >= 0) in["ci"] = BitVector::from_uint(1, static_cast<unsigned>(ci));
    return sim.run(in).at("s").to_uint64();
  }
};

class CpaExhaustive
    : public ::testing::TestWithParam<std::tuple<int, AdderArch>> {};

TEST_P(CpaExhaustive, AllInputPairs) {
  const auto [w, arch] = GetParam();
  AdderFixture f(w, arch, /*cin=*/true);
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  for (std::uint64_t x = 0; x <= mask; ++x) {
    for (std::uint64_t y = 0; y <= mask; ++y) {
      for (int ci = 0; ci <= 1; ++ci) {
        ASSERT_EQ(f.run(x, y, w, ci), (x + y + static_cast<unsigned>(ci)) & mask)
            << to_string(arch) << " w=" << w << " " << x << "+" << y;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallWidths, CpaExhaustive,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(AdderArch::Ripple,
                                         AdderArch::KoggeStone)));

class CpaRandomWide
    : public ::testing::TestWithParam<std::tuple<int, AdderArch>> {};

TEST_P(CpaRandomWide, MatchesNative) {
  const auto [w, arch] = GetParam();
  AdderFixture f(w, arch);
  Rng rng(static_cast<std::uint64_t>(w) * 13 + static_cast<int>(arch));
  const std::uint64_t mask =
      w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
  for (int t = 0; t < 50; ++t) {
    const std::uint64_t x = rng.next_u64() & mask;
    const std::uint64_t y = rng.next_u64() & mask;
    ASSERT_EQ(f.run(x, y, w), (x + y) & mask);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, CpaRandomWide,
    ::testing::Combine(::testing::Values(8, 13, 16, 24, 32, 48, 64),
                       ::testing::Values(AdderArch::Ripple,
                                         AdderArch::KoggeStone)));

TEST(Cpa, KoggeStoneIsFasterButBigger) {
  // The architectural tradeoff the flows rely on: at meaningful widths the
  // prefix adder is much shorter and somewhat larger than the ripple chain.
  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  AdderFixture ripple(32, AdderArch::Ripple);
  AdderFixture ks(32, AdderArch::KoggeStone);
  const auto tr = sta.analyze(ripple.net);
  const auto tk = sta.analyze(ks.net);
  EXPECT_LT(tk.longest_path_ns, tr.longest_path_ns * 0.5);
  EXPECT_GT(sta.area(ks.net), sta.area(ripple.net));
}

TEST(Cpa, DelayGrowsWithWidth) {
  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  double prev = 0.0;
  for (int w : {4, 8, 16, 32}) {
    AdderFixture f(w, AdderArch::Ripple);
    const double d = sta.analyze(f.net).longest_path_ns;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

}  // namespace
}  // namespace dpmerge::synth
