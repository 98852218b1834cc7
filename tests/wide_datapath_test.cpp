// The wide-datapath example design (examples/designs/wide_mac.dp: 72-, 100-
// and 130-bit operands, a 172-bit product) through all three flows under
// the paranoid check policy, each netlist then checked against the DFG
// interpreter. Every other flow test stays within 64 bits, so this is the
// one that drives BitVector's multi-word path end to end.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "dpmerge/check/check.h"
#include "dpmerge/frontend/parser.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/verify.h"

namespace dpmerge {
namespace {

frontend::CompileResult compile_wide_mac() {
  std::ifstream f(DPMERGE_EXAMPLE_DESIGNS_DIR "/wide_mac.dp");
  EXPECT_TRUE(f) << "cannot open wide_mac.dp";
  std::ostringstream ss;
  ss << f.rdbuf();
  return frontend::compile(ss.str());
}

TEST(WideDatapath, EveryValueSpansMoreThanOneWord) {
  const frontend::CompileResult src = compile_wide_mac();
  int widest = 0;
  for (const dfg::Node& n : src.graph.nodes()) {
    if (n.kind == dfg::OpKind::Input) {
      EXPECT_GT(n.width, 64);
    }
    widest = std::max(widest, n.width);
  }
  EXPECT_GT(widest, 128);  // the product needs three words
}

TEST(WideDatapath, EveryFlowVerifiesUnderParanoidChecks) {
  const frontend::CompileResult src = compile_wide_mac();
  check::PolicyScope paranoid(check::CheckPolicy::Paranoid);
  for (synth::Flow flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                           synth::Flow::NewMerge}) {
    SCOPED_TRACE(synth::to_string(flow));
    // A check failure throws out of run_flow and fails the test.
    const synth::FlowResult fr = synth::run_flow(src.graph, flow);
    std::int64_t check_runs = 0;
    for (const auto& stage : fr.report.stages) {
      const auto it = stage.stats.find("check.runs");
      if (it != stage.stats.end()) check_runs += it->second;
    }
    EXPECT_GT(check_runs, 0);
    Rng rng(20);
    std::string why;
    EXPECT_TRUE(synth::verify_netlist(fr.net, src.graph, 256, rng, &why))
        << why;
  }
}

}  // namespace
}  // namespace dpmerge
