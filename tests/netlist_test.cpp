#include "dpmerge/netlist/netlist.h"

#include <gtest/gtest.h>

#include "dpmerge/check/check.h"
#include "dpmerge/support/rng.h"
#include "netlist_oracle.h"
#include "sim_oracle.h"

namespace dpmerge::netlist {
namespace {

TEST(Cell, InputCounts) {
  EXPECT_EQ(cell_input_count(CellType::INV), 1);
  EXPECT_EQ(cell_input_count(CellType::BUF), 1);
  EXPECT_EQ(cell_input_count(CellType::NAND2), 2);
  EXPECT_EQ(cell_input_count(CellType::MUX2), 3);
}

TEST(Cell, TruthTables) {
  EXPECT_TRUE(eval_cell(CellType::INV, {false}));
  EXPECT_FALSE(eval_cell(CellType::INV, {true}));
  EXPECT_TRUE(eval_cell(CellType::NAND2, {true, false}));
  EXPECT_FALSE(eval_cell(CellType::NAND2, {true, true}));
  EXPECT_TRUE(eval_cell(CellType::XOR2, {true, false}));
  EXPECT_FALSE(eval_cell(CellType::XOR2, {true, true}));
  EXPECT_TRUE(eval_cell(CellType::XNOR2, {true, true}));
  EXPECT_TRUE(eval_cell(CellType::MUX2, {false, true, true}));
  EXPECT_FALSE(eval_cell(CellType::MUX2, {false, true, false}));
}

TEST(Cell, LibraryVariantsScale) {
  const auto& lib = CellLibrary::tsmc025();
  for (CellType t : {CellType::INV, CellType::NAND2, CellType::XOR2}) {
    const auto& x1 = lib.variant(t, 0);
    const auto& x4 = lib.variant(t, 2);
    EXPECT_LT(x4.drive_res_ns, x1.drive_res_ns);  // stronger drive
    EXPECT_GT(x4.area, x1.area);                  // costs area
    EXPECT_GT(x4.input_cap, x1.input_cap);        // loads its driver more
  }
}

TEST(Netlist, ConstantFolding) {
  Netlist n;
  const NetId a = n.new_net();
  EXPECT_EQ(n.and2(a, n.const0()), n.const0());
  EXPECT_EQ(n.and2(a, n.const1()), a);
  EXPECT_EQ(n.or2(a, n.const1()), n.const1());
  EXPECT_EQ(n.or2(a, n.const0()), a);
  EXPECT_EQ(n.xor2(a, n.const0()), a);
  EXPECT_EQ(n.xor2(a, a), n.const0());
  EXPECT_EQ(n.inv(n.const0()), n.const1());
  EXPECT_EQ(n.mux2(a, a, n.new_net()), a);
  EXPECT_EQ(n.gate_count(), 0);  // everything folded
  const NetId b = n.xor2(a, n.const1());
  EXPECT_FALSE(n.is_const(b));
  EXPECT_EQ(n.gate_count(), 1);  // one INV
  EXPECT_EQ(n.gates()[0].type, CellType::INV);
}

TEST(Netlist, FullAdderWithConstantsIsFree) {
  Netlist n;
  const NetId x = n.new_net();
  auto [sum, carry] = n.full_adder(n.const1(), n.const1(), x);
  EXPECT_EQ(sum, x);
  EXPECT_EQ(carry, n.const1());
  EXPECT_EQ(n.gate_count(), 0);
}

TEST(Netlist, ResizeSignal) {
  Netlist n;
  Signal s;
  for (int i = 0; i < 4; ++i) s.bits.push_back(n.new_net());
  const Signal ext = n.resize(s, 7, Sign::Signed);
  EXPECT_EQ(ext.width(), 7);
  EXPECT_EQ(ext.bit(6), s.msb());  // replicated sign net
  const Signal zext = n.resize(s, 7, Sign::Unsigned);
  EXPECT_EQ(zext.bit(6), n.const0());
  const Signal tr = n.resize(s, 2, Sign::Signed);
  EXPECT_EQ(tr.width(), 2);
  EXPECT_EQ(tr.bit(1), s.bit(1));
  EXPECT_EQ(n.gate_count(), 0);  // resizing is pure wiring
}

TEST(Netlist, InvertSharesSignInverter) {
  Netlist n;
  Signal s;
  for (int i = 0; i < 3; ++i) s.bits.push_back(n.new_net());
  const Signal ext = n.resize(s, 8, Sign::Signed);
  const Signal inv = n.invert(ext);
  // 3 distinct nets + 1 shared fill → 3 inverters, not 8... the fill net is
  // the msb itself, so bits 2..7 share one inverter.
  EXPECT_EQ(n.gate_count(), 3);
  for (int i = 3; i < 8; ++i) EXPECT_EQ(inv.bit(i), inv.bit(2));
}

TEST(Netlist, ValidateCatchesFloatingInput) {
  Netlist n;
  const NetId stray = n.new_net();
  n.add_gate(CellType::INV, {stray});
  EXPECT_FALSE(check::verify(n).ok());

  Netlist ok;
  Signal in;
  in.bits.push_back(ok.new_net());
  ok.add_input("a", in);
  Signal out;
  out.bits.push_back(ok.inv(in.bit(0)));
  ok.add_output("r", out);
  EXPECT_TRUE(check::verify(ok).ok());
}

TEST(Netlist, SetDriveAndSetInputRejectWhatTheCellLacks) {
  Netlist n;
  const NetId a = n.new_net();
  n.add_gate(CellType::INV, {a});
  EXPECT_THROW(n.set_drive(GateId{0}, kDriveLevels), std::invalid_argument);
  EXPECT_THROW(n.set_drive(GateId{0}, -1), std::invalid_argument);
  EXPECT_THROW(n.set_input(GateId{0}, 1, a), std::invalid_argument);
  EXPECT_THROW(n.set_input(GateId{0}, -1, a), std::invalid_argument);
  EXPECT_EQ(n.gates()[0].drive, 0);
  EXPECT_EQ(n.gates()[0].pins[1], NetId{});
  n.set_drive(GateId{0}, kDriveLevels - 1);
  EXPECT_EQ(n.gates()[0].drive, kDriveLevels - 1);
}

TEST(Netlist, TopoGatesRespectsDependencies) {
  Netlist n;
  const NetId a = n.new_net();
  Signal in{{a}};
  n.add_input("a", in);
  const NetId b = n.inv(a);
  const NetId c = n.inv(b);
  const NetId d = n.and2(b, c);
  Signal out{{d}};
  n.add_output("r", out);
  const auto order = n.topo_gates();
  ASSERT_EQ(order.size(), 3u);
  std::vector<int> pos(static_cast<std::size_t>(n.gate_count()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i].value)] = static_cast<int>(i);
  }
  for (int gi = 0; gi < n.gate_count(); ++gi) {
    for (NetId gin : n.gates()[static_cast<std::size_t>(gi)].inputs()) {
      const GateId drv = n.driver_id(gin);
      if (drv.valid()) {
        EXPECT_LT(pos[static_cast<std::size_t>(drv.value)],
                  pos[static_cast<std::size_t>(gi)]);
      }
    }
  }
}

TEST(Netlist, DerivedLookupsMatchRecordedMaps) {
  // Random interleavings of source nets, gates, owner switches, rewires and
  // optimiser-style buffer moves; after each batch every derived lookup
  // must agree with the maps the recorder kept while replaying the calls.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    Netlist n;
    oracle::Recorder rec(n);
    auto any_net = [&] {
      return NetId{static_cast<int>(rng.uniform(0, n.net_count() - 1))};
    };
    for (int step = 0; step < 400; ++step) {
      const std::int64_t op = rng.uniform(0, 99);
      if (op < 15 || n.net_count() < 4) {
        const NetId a = rec.new_net();
        if (rng.chance(0.5)) n.add_input("i" + std::to_string(step), {{a}});
      } else if (op < 70) {
        const auto t =
            static_cast<CellType>(rng.uniform(0, kCellTypeCount - 1));
        PinList ins;
        for (int k = 0; k < cell_input_count(t); ++k) ins.push_back(any_net());
        rec.add_gate(t, ins);
      } else if (op < 80) {
        rec.set_provenance_owner(static_cast<int>(rng.uniform(-1, 4)));
      } else if (op < 88 && n.gate_count() > 0) {
        const GateId g{static_cast<int>(rng.uniform(0, n.gate_count() - 1))};
        const int arity =
            cell_input_count(n.gates()[static_cast<std::size_t>(g.value)].type);
        const auto pin = static_cast<int>(rng.uniform(0, arity - 1));
        rec.set_input(g, pin, any_net());
      } else if (const NetId worst = any_net(); !n.is_const(worst)) {
        // A buffer move: a BUF on a net, and all but its first reader moved
        // behind it.
        const NetId buffered = rec.add_gate(CellType::BUF, {worst});
        bool first = true;
        for (int gi = 0; gi + 1 < n.gate_count(); ++gi) {
          const Gate& g = n.gates()[static_cast<std::size_t>(gi)];
          for (std::size_t pin = 0; pin < g.inputs().size(); ++pin) {
            if (g.inputs()[pin] != worst) continue;
            if (!first) {
              rec.set_input(GateId{gi}, static_cast<int>(pin), buffered);
            }
            first = false;
          }
        }
      }
      if (step % 50 == 49) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                     std::to_string(step));
        rec.expect_matches();
        if (n.index_topological()) {
          EXPECT_TRUE(oracle::index_order_is_topological(n));
        }
      }
    }
    rec.expect_matches();
  }
}

TEST(Simulator, FullAdderTruthTable) {
  Netlist n;
  Signal a{{n.new_net()}}, b{{n.new_net()}}, c{{n.new_net()}};
  n.add_input("a", a);
  n.add_input("b", b);
  n.add_input("c", c);
  auto [sum, carry] = n.full_adder(a.bit(0), b.bit(0), c.bit(0));
  n.add_output("s", Signal{{sum}});
  n.add_output("co", Signal{{carry}});
  Simulator sim(n);
  for (int v = 0; v < 8; ++v) {
    const bool ba = v & 1, bb = v & 2, bc = v & 4;
    const auto out = sim.run({{"a", BitVector::from_uint(1, ba)},
                              {"b", BitVector::from_uint(1, bb)},
                              {"c", BitVector::from_uint(1, bc)}});
    const int total = ba + bb + bc;
    EXPECT_EQ(out.at("s").to_uint64(), static_cast<unsigned>(total & 1));
    EXPECT_EQ(out.at("co").to_uint64(), static_cast<unsigned>(total >> 1));
  }
}

TEST(Simulator, MissingStimulusThrows) {
  Netlist n;
  Signal a{{n.new_net()}};
  n.add_input("a", a);
  n.add_output("r", a);
  Simulator sim(n);
  EXPECT_THROW(sim.run(std::map<std::string, BitVector>{}),
               std::invalid_argument);
  EXPECT_THROW(sim.run({{"a", BitVector::from_uint(3, 1)}}),
               std::invalid_argument);
  // Positional form: count and width are validated too.
  EXPECT_THROW(sim.run(std::vector<BitVector>{}), std::invalid_argument);
  EXPECT_THROW(sim.run(std::vector<BitVector>{BitVector::from_uint(3, 1)}),
               std::invalid_argument);
}

TEST(Simulator, PositionalRunMatchesNamed) {
  Netlist n;
  Signal a{{n.new_net(), n.new_net()}}, b{{n.new_net(), n.new_net()}};
  n.add_input("a", a);
  n.add_input("b", b);
  Signal x;
  for (int i = 0; i < 2; ++i) x.bits.push_back(n.xor2(a.bit(i), b.bit(i)));
  n.add_output("x", x);
  Simulator sim(n);
  for (unsigned va = 0; va < 4; ++va) {
    for (unsigned vb = 0; vb < 4; ++vb) {
      const auto named = sim.run({{"a", BitVector::from_uint(2, va)},
                                  {"b", BitVector::from_uint(2, vb)}});
      const auto pos = sim.run(std::vector<BitVector>{
          BitVector::from_uint(2, va), BitVector::from_uint(2, vb)});
      ASSERT_EQ(pos.size(), 1u);
      EXPECT_EQ(pos[0], named.at("x"));
    }
  }
}

}  // namespace
}  // namespace dpmerge::netlist
