// Property tests for the word-parallel simulator: lane-for-lane agreement
// with the scalar oracle on randomly generated DFGs synthesized through all
// three flows, packed cell semantics, and verify_netlist's packed path
// agreeing with the scalar reference implementation.

#include "dpmerge/netlist/packed_sim.h"

#include <gtest/gtest.h>

#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "sim_oracle.h"

namespace dpmerge {
namespace {

using netlist::CellType;
using netlist::PackedSimulator;
using netlist::Simulator;
using synth::Flow;

std::vector<std::vector<BitVector>> random_stimuli(const netlist::Netlist& n,
                                                   int lanes, Rng& rng) {
  std::vector<std::vector<BitVector>> stimuli(
      static_cast<std::size_t>(lanes));
  for (auto& lane : stimuli) {
    for (const auto& bus : n.inputs()) {
      lane.push_back(rng.bits(bus.signal.width()));
    }
  }
  return stimuli;
}

TEST(PackedSim, EvalCellPackedMatchesScalar) {
  for (int ti = 0; ti < 9; ++ti) {
    const auto t = static_cast<CellType>(ti);
    const int n = netlist::cell_input_count(t);
    // Pack every input combination into distinct lanes: lane L carries
    // combination L, so word k has bit L = (L >> k) & 1.
    std::uint64_t words[3] = {0, 0, 0};
    const int combos = 1 << n;
    for (int L = 0; L < combos; ++L) {
      for (int k = 0; k < n; ++k) {
        words[k] |= static_cast<std::uint64_t>((L >> k) & 1) << L;
      }
    }
    const std::uint64_t out =
        netlist::apply_cell(t, words, netlist::PackedOps{});
    for (int L = 0; L < combos; ++L) {
      std::vector<bool> ins;
      for (int k = 0; k < n; ++k) ins.push_back((L >> k) & 1);
      EXPECT_EQ((out >> L) & 1, eval_cell(t, ins))
          << to_string(t) << " combo " << L;
    }
  }
}

TEST(PackedSim, MatchesScalarOnRandomNetlistsAllFlows) {
  Rng rng(20260806);
  for (int round = 0; round < 3; ++round) {
    dfg::RandomGraphOptions opt;
    opt.num_inputs = 3 + round;
    opt.num_operators = 8 + 4 * round;
    const auto g = dfg::random_graph(rng, opt);
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      const auto flow = synth::run_flow(g, f);
      Simulator scalar(flow.net);
      PackedSimulator packed(flow.net);
      const auto stimuli =
          random_stimuli(flow.net, PackedSimulator::kLanes, rng);
      const auto batch = packed.run_batch(stimuli);
      ASSERT_EQ(batch.size(), stimuli.size());
      for (std::size_t L = 0; L < stimuli.size(); ++L) {
        const auto expect = scalar.run(stimuli[L]);
        ASSERT_EQ(batch[L].size(), expect.size());
        for (std::size_t j = 0; j < expect.size(); ++j) {
          EXPECT_EQ(batch[L][j], expect[j])
              << "flow " << synth::to_string(f) << " lane " << L << " output "
              << flow.net.outputs()[j].name;
        }
      }
    }
  }
}

TEST(PackedSim, PartialBatchesWork) {
  Rng rng(5);
  dfg::RandomGraphOptions opt;
  const auto g = dfg::random_graph(rng, opt);
  const auto flow = synth::run_flow(g, Flow::NewMerge);
  Simulator scalar(flow.net);
  PackedSimulator packed(flow.net);
  for (int lanes : {1, 3, 63}) {
    const auto stimuli = random_stimuli(flow.net, lanes, rng);
    const auto batch = packed.run_batch(stimuli);
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(lanes));
    for (std::size_t L = 0; L < batch.size(); ++L) {
      EXPECT_EQ(batch[L], scalar.run(stimuli[L])) << "lane " << L;
    }
  }
  EXPECT_TRUE(packed.run_batch({}).empty());
}

TEST(PackedSim, RejectsBadStimuli) {
  Rng rng(6);
  dfg::RandomGraphOptions opt;
  const auto g = dfg::random_graph(rng, opt);
  const auto flow = synth::run_flow(g, Flow::NoMerge);
  PackedSimulator packed(flow.net);
  EXPECT_THROW(packed.run({}), std::invalid_argument);
  auto stimuli = random_stimuli(flow.net, 2, rng);
  stimuli[1][0] = BitVector(stimuli[1][0].width() + 1);
  EXPECT_THROW(packed.run_batch(stimuli), std::invalid_argument);
  EXPECT_THROW(
      packed.run_batch(std::vector<std::vector<BitVector>>(65)),
      std::invalid_argument);
}

TEST(PackedVerify, AgreesWithScalarOracle) {
  Rng graph_rng(777);
  for (int round = 0; round < 3; ++round) {
    dfg::RandomGraphOptions opt;
    opt.num_operators = 10 + 3 * round;
    const auto g = dfg::random_graph(graph_rng, opt);
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      auto flow = synth::run_flow(g, f);
      // Same seed for both paths: identical stimulus sequences.
      Rng r1(1000 + round), r2(1000 + round);
      std::string why1, why2;
      const bool ok_packed = synth::verify_netlist(flow.net, g, 100, r1, &why1);
      const bool ok_scalar =
          synth::verify_netlist_scalar(flow.net, g, 100, r2, &why2);
      EXPECT_TRUE(ok_packed) << why1;
      EXPECT_EQ(ok_packed, ok_scalar);

      // A corrupted netlist must get the same verdict (and, on failure,
      // the same first-mismatch report) from both paths. Inverting a
      // gate's output sense keeps its arity.
      auto flipped = [](CellType t) {
        switch (t) {
          case CellType::INV: return CellType::BUF;
          case CellType::BUF: return CellType::INV;
          case CellType::NAND2: return CellType::AND2;
          case CellType::AND2: return CellType::NAND2;
          case CellType::NOR2: return CellType::OR2;
          case CellType::OR2: return CellType::NOR2;
          case CellType::XOR2: return CellType::XNOR2;
          case CellType::XNOR2: return CellType::XOR2;
          case CellType::MUX2: return CellType::MUX2;
        }
        return t;
      };
      for (auto& gate : flow.net.mutable_gates()) {
        if (flipped(gate.type) == gate.type) continue;
        const auto orig = gate.type;
        gate.type = flipped(orig);
        Rng r3(55), r4(55);
        const bool bad_packed =
            synth::verify_netlist(flow.net, g, 100, r3, &why1);
        const bool bad_scalar =
            synth::verify_netlist_scalar(flow.net, g, 100, r4, &why2);
        EXPECT_EQ(bad_packed, bad_scalar);
        if (!bad_packed && !bad_scalar) {
          EXPECT_EQ(why1, why2);
        }
        gate.type = orig;
        break;
      }
    }
  }
}

}  // namespace
}  // namespace dpmerge
