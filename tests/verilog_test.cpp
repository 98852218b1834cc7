#include "dpmerge/netlist/verilog.h"

#include <gtest/gtest.h>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge::netlist {
namespace {

TEST(Verilog, StructureOfSmallModule) {
  Netlist n;
  Signal a{{n.new_net()}}, b{{n.new_net()}};
  n.add_input("a", a);
  n.add_input("b", b);
  const NetId y = n.nand2(a.bit(0), b.bit(0));
  n.add_output("y", Signal{{y}});

  const std::string v = to_verilog(n, "tiny");
  EXPECT_NE(v.find("module tiny (a, b, y);"), std::string::npos);
  EXPECT_NE(v.find("input [0:0] a;"), std::string::npos);
  EXPECT_NE(v.find("output [0:0] y;"), std::string::npos);
  EXPECT_NE(v.find("NAND2X1 g0 (.A(n["), std::string::npos);
  EXPECT_NE(v.find("assign n[0] = 1'b0;"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, DriveStrengthSuffixes) {
  Netlist n;
  Signal a{{n.new_net()}};
  n.add_input("a", a);
  const NetId y = n.inv(a.bit(0));
  n.add_output("y", Signal{{y}});
  n.mutable_gates()[0].drive = 2;
  EXPECT_NE(to_verilog(n, "m").find("INVX4"), std::string::npos);
  n.mutable_gates()[0].drive = 1;
  EXPECT_NE(to_verilog(n, "m").find("INVX2"), std::string::npos);
}

TEST(Verilog, CopiedNetlistExportsIdenticalText) {
  for (synth::Flow flow : {synth::Flow::NoMerge, synth::Flow::NewMerge}) {
    const auto res = synth::run_flow(designs::make_d5(), flow);
    const Netlist copy = res.net;  // a fresh copy of every gate/net array
    Netlist assigned;
    assigned = copy;
    const std::string v = to_verilog(res.net, "d5");
    EXPECT_EQ(to_verilog(copy, "d5"), v);
    EXPECT_EQ(to_verilog(assigned, "d5"), v);
  }
}

TEST(Verilog, InstanceCountMatchesGateCount) {
  const auto res = synth::run_flow(designs::make_d1(), synth::Flow::NewMerge);
  const std::string v = to_verilog(res.net, "d1");
  int instances = 0;
  for (std::size_t pos = 0; (pos = v.find("\n  ", pos)) != std::string::npos;
       ++pos) {
    const std::size_t s = pos + 3;
    if (v.compare(s, 3, "INV") == 0 || v.compare(s, 4, "NAND") == 0 ||
        v.compare(s, 3, "NOR") == 0 || v.compare(s, 3, "AND") == 0 ||
        v.compare(s, 2, "OR") == 0 || v.compare(s, 3, "XOR") == 0 ||
        v.compare(s, 4, "XNOR") == 0 || v.compare(s, 3, "MUX") == 0 ||
        v.compare(s, 3, "BUF") == 0) {
      ++instances;
    }
  }
  EXPECT_EQ(instances, res.net.gate_count());
}

TEST(Verilog, EveryOutputBitAssigned) {
  const auto res = synth::run_flow(designs::make_d3(), synth::Flow::NewMerge);
  const std::string v = to_verilog(res.net, "d3");
  for (const Bus& b : res.net.outputs()) {
    for (int i = 0; i < b.signal.width(); ++i) {
      const std::string want =
          "assign " + b.name + "[" + std::to_string(i) + "] = ";
      EXPECT_NE(v.find(want), std::string::npos) << want;
    }
  }
}

}  // namespace
}  // namespace dpmerge::netlist
