// Tests for the synthesis-option axes added on top of the paper's flow:
// the extra final-adder architectures (Brent-Kung, carry-select), radix-4
// Booth partial products, and the netlist simplification pass.

#include <gtest/gtest.h>

#include "dpmerge/check/check.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/simplify.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "sim_oracle.h"

namespace dpmerge::synth {
namespace {

using dfg::Builder;
using dfg::Graph;
using dfg::Operand;

// ---- extra CPA architectures (reuses the fixture pattern of cpa_test) ----

struct AdderFixture {
  netlist::Netlist net;
  AdderFixture(int w, AdderArch arch, bool cin) {
    netlist::Signal a, b;
    for (int i = 0; i < w; ++i) a.bits.push_back(net.new_net());
    for (int i = 0; i < w; ++i) b.bits.push_back(net.new_net());
    net.add_input("a", a);
    net.add_input("b", b);
    netlist::Signal ci;
    if (cin) {
      ci.bits.push_back(net.new_net());
      net.add_input("ci", ci);
    }
    net.add_output("s", cpa(net, arch, a, b, cin ? ci.bit(0) : net.const0()));
  }
  std::uint64_t run(std::uint64_t x, std::uint64_t y, int w, int ci = -1) {
    netlist::Simulator sim(net);
    std::map<std::string, BitVector> in{{"a", BitVector::from_uint(w, x)},
                                        {"b", BitVector::from_uint(w, y)}};
    if (ci >= 0) in["ci"] = BitVector::from_uint(1, static_cast<unsigned>(ci));
    return sim.run(in).at("s").to_uint64();
  }
};

class NewCpaExhaustive
    : public ::testing::TestWithParam<std::tuple<int, AdderArch>> {};

TEST_P(NewCpaExhaustive, AllInputPairs) {
  const auto [w, arch] = GetParam();
  AdderFixture f(w, arch, true);
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  for (std::uint64_t x = 0; x <= mask; ++x) {
    for (std::uint64_t y = 0; y <= mask; ++y) {
      for (int ci = 0; ci <= 1; ++ci) {
        ASSERT_EQ(f.run(x, y, w, ci),
                  (x + y + static_cast<unsigned>(ci)) & mask)
            << to_string(arch) << " w=" << w;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, NewCpaExhaustive,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(AdderArch::BrentKung,
                                         AdderArch::CarrySelect)));

class NewCpaRandomWide
    : public ::testing::TestWithParam<std::tuple<int, AdderArch>> {};

TEST_P(NewCpaRandomWide, MatchesNative) {
  const auto [w, arch] = GetParam();
  AdderFixture f(w, arch, false);
  Rng rng(static_cast<std::uint64_t>(w) * 31 + static_cast<int>(arch));
  const std::uint64_t mask =
      w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
  for (int t = 0; t < 60; ++t) {
    const std::uint64_t x = rng.next_u64() & mask;
    const std::uint64_t y = rng.next_u64() & mask;
    ASSERT_EQ(f.run(x, y, w), (x + y) & mask) << to_string(arch);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, NewCpaRandomWide,
    ::testing::Combine(::testing::Values(7, 8, 12, 16, 24, 32, 33, 64),
                       ::testing::Values(AdderArch::BrentKung,
                                         AdderArch::CarrySelect)));

TEST(NewCpa, ArchitectureTradeoffs) {
  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  AdderFixture rip(32, AdderArch::Ripple, false);
  AdderFixture ks(32, AdderArch::KoggeStone, false);
  AdderFixture bk(32, AdderArch::BrentKung, false);
  AdderFixture cs(32, AdderArch::CarrySelect, false);
  const double d_rip = sta.analyze(rip.net).longest_path_ns;
  const double d_ks = sta.analyze(ks.net).longest_path_ns;
  const double d_bk = sta.analyze(bk.net).longest_path_ns;
  const double d_cs = sta.analyze(cs.net).longest_path_ns;
  // Both prefix adders beat ripple comfortably; carry-select in between.
  EXPECT_LT(d_ks, 0.5 * d_rip);
  EXPECT_LT(d_bk, 0.6 * d_rip);
  EXPECT_LT(d_cs, d_rip);
  // Brent-Kung is leaner than Kogge-Stone.
  EXPECT_LT(sta.area(bk.net), sta.area(ks.net));
}

// ---- Booth partial products ----

class BoothMul
    : public ::testing::TestWithParam<std::tuple<Sign, Sign, int, int>> {};

TEST_P(BoothMul, ExhaustiveAgainstEvaluator) {
  const auto [sa, sb, wa, wout] = GetParam();
  Graph g;
  Builder b(g);
  const auto a = b.input("a", wa, sa);
  const auto c = b.input("c", 4, sb);
  const auto m = b.mul(wout, Operand{a, wout, sa}, Operand{c, wout, sb});
  b.output("r", wout, Operand{m});
  SynthOptions opt;
  opt.booth_multipliers = true;
  const auto fr = run_flow(g, Flow::NewMerge, opt);
  dfg::Evaluator ev(g);
  netlist::Simulator sim(fr.net);
  for (std::uint64_t x = 0; x < (1u << wa); ++x) {
    for (std::uint64_t y = 0; y < (1u << 4); ++y) {
      const auto expect = ev.run_outputs(
          {BitVector::from_uint(wa, x), BitVector::from_uint(4, y)})[0];
      const auto got = sim.run({{"a", BitVector::from_uint(wa, x)},
                                {"c", BitVector::from_uint(4, y)}});
      ASSERT_EQ(got.at("r"), expect) << x << "*" << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SignsWidths, BoothMul,
    ::testing::Combine(::testing::Values(Sign::Unsigned, Sign::Signed),
                       ::testing::Values(Sign::Unsigned, Sign::Signed),
                       ::testing::Values(3, 5),
                       ::testing::Values(7, 9, 12)));

TEST(Booth, ReducesGatesOnWideMultipliers) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 16);
  const auto c = b.input("c", 16);
  const auto m = b.mul(32, Operand{a, 32, Sign::Signed},
                       Operand{c, 32, Sign::Signed});
  b.output("r", 32, Operand{m});
  SynthOptions plain;
  SynthOptions booth;
  booth.booth_multipliers = true;
  const auto f1 = run_flow(g, Flow::NewMerge, plain);
  const auto f2 = run_flow(g, Flow::NewMerge, booth);
  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  // Roughly half the rows: measurably fewer gates and less area. Raw delay
  // is *worse* before optimisation in this library — the recode nets
  // (one/two/neg per digit) fan out across the whole row and dominate the
  // unbuffered linear delay model; gate sizing/buffering recovers it.
  EXPECT_LT(f2.net.gate_count(), f1.net.gate_count());
  EXPECT_LT(sta.area(f2.net), sta.area(f1.net));
  Rng rng(9);
  std::string why;
  EXPECT_TRUE(verify_netlist(f2.net, g, 40, rng, &why)) << why;
}

TEST(Booth, AllTestcasesStillCorrect) {
  SynthOptions opt;
  opt.booth_multipliers = true;
  for (const auto& tc : designs::all_testcases()) {
    const auto fr = run_flow(tc.graph, Flow::NewMerge, opt);
    Rng rng(19);
    std::string why;
    EXPECT_TRUE(verify_netlist(fr.net, tc.graph, 24, rng, &why))
        << tc.name << ": " << why;
  }
}

class BoothRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoothRandom, NegatedAndShiftedProducts) {
  Rng rng(GetParam());
  for (int t = 0; t < 4; ++t) {
    dfg::RandomGraphOptions ropt;
    ropt.num_operators = 12;
    ropt.mul_fraction = 0.4;
    ropt.neg_fraction = 0.15;
    ropt.shl_fraction = 0.15;
    const Graph g = dfg::random_graph(rng, ropt);
    SynthOptions opt;
    opt.booth_multipliers = true;
    for (Flow f : {Flow::NoMerge, Flow::NewMerge}) {
      const auto fr = run_flow(g, f, opt);
      Rng vr(GetParam() * 7 + t);
      std::string why;
      ASSERT_TRUE(verify_netlist(fr.net, g, 20, vr, &why))
          << std::string(to_string(f)) << ": " << why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoothRandom,
                         ::testing::Values(701, 702, 703, 704, 705, 706));

// ---- netlist simplify ----

TEST(Simplify, RemovesDuplicateGates) {
  netlist::Netlist n;
  netlist::Signal a{{n.new_net()}}, b{{n.new_net()}};
  n.add_input("a", a);
  n.add_input("b", b);
  const auto x1 = n.add_gate(netlist::CellType::XOR2, {a.bit(0), b.bit(0)});
  const auto x2 = n.add_gate(netlist::CellType::XOR2, {b.bit(0), a.bit(0)});
  n.add_output("y", netlist::Signal{{n.and2(x1, x2)}});
  netlist::SimplifyStats st;
  const auto s = netlist::simplify(n, &st);
  // xor(a,b) & xor(b,a) == xor(a,b): CSE + and2(x,x) fold -> 1 gate.
  EXPECT_EQ(s.gate_count(), 1);
  EXPECT_LT(st.gates_after, st.gates_before);
}

TEST(Simplify, CollapsesDoubleInverters) {
  netlist::Netlist n;
  netlist::Signal a{{n.new_net()}};
  n.add_input("a", a);
  const auto i1 = n.add_gate(netlist::CellType::INV, {a.bit(0)});
  const auto i2 = n.add_gate(netlist::CellType::INV, {i1});
  n.add_output("y", netlist::Signal{{i2}});
  const auto s = netlist::simplify(n);
  EXPECT_EQ(s.gate_count(), 0);
  EXPECT_EQ(s.outputs()[0].signal.bit(0), s.inputs()[0].signal.bit(0));
}

TEST(Simplify, SweepsDeadLogic) {
  netlist::Netlist n;
  netlist::Signal a{{n.new_net()}}, b{{n.new_net()}};
  n.add_input("a", a);
  n.add_input("b", b);
  n.add_gate(netlist::CellType::AND2, {a.bit(0), b.bit(0)});  // unobserved
  n.add_output("y", netlist::Signal{{n.inv(a.bit(0))}});
  const auto s = netlist::simplify(n);
  EXPECT_EQ(s.gate_count(), 1);
}

class SimplifyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplifyProperty, PreservesFunctionNeverGrows) {
  Rng rng(GetParam());
  for (int t = 0; t < 3; ++t) {
    const Graph g = dfg::random_graph(rng);
    for (Flow f : {Flow::NoMerge, Flow::NewMerge}) {
      auto fr = run_flow(g, f);
      netlist::SimplifyStats st;
      const auto s = netlist::simplify(fr.net, &st);
      EXPECT_LE(s.gate_count(), fr.net.gate_count());
      ASSERT_TRUE(check::verify(s).ok());
      Rng vr(GetParam() * 13 + t);
      std::string why;
      ASSERT_TRUE(verify_netlist(s, g, 20, vr, &why)) << why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyProperty,
                         ::testing::Values(801, 802, 803, 804, 805, 806));

TEST(Simplify, HelpsSharedOperandClusters) {
  // Two clusters sharing operand cones leave duplicated XOR/AND pairs that
  // CSE picks up on real designs.
  const auto fr = run_flow(designs::make_d3(), Flow::NewMerge);
  netlist::SimplifyStats st;
  netlist::simplify(fr.net, &st);
  EXPECT_LE(st.gates_after, st.gates_before);
}

}  // namespace
}  // namespace dpmerge::synth
