// The netlist's share-read-only contract: pool threads run STA and packed
// simulation on one shared const Netlist and get the serial results bit for
// bit (run under TSan by the concurrency label). A const Netlist holds no
// cache, so it is shared with no preparation, with the index-order bit set
// or clear (each pass then sorts on its own).

#include <gtest/gtest.h>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/netlist/packed_sim.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/support/thread_pool.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge {
namespace {

using netlist::PackedSimulator;

void expect_shared_reads_match_serial(const netlist::Netlist& net) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  Rng rng(11);
  std::vector<std::vector<BitVector>> stimuli(PackedSimulator::kLanes);
  for (auto& lane : stimuli) {
    for (const auto& bus : net.inputs()) {
      lane.push_back(rng.bits(bus.signal.width()));
    }
  }
  const auto timing = netlist::Sta(lib).analyze(net);
  const auto values = PackedSimulator(net).run_batch(stimuli);

  constexpr int kTasks = 16;
  std::vector<netlist::TimingReport> timings(kTasks);
  std::vector<std::vector<std::vector<BitVector>>> outs(kTasks);
  support::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    timings[k] = netlist::Sta(lib).analyze(net);
    outs[k] = PackedSimulator(net).run_batch(stimuli);
  });
  for (int i = 0; i < kTasks; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(timings[k].longest_path_ns, timing.longest_path_ns);
    EXPECT_EQ(timings[k].arrival, timing.arrival);
    EXPECT_EQ(timings[k].critical_path, timing.critical_path);
    EXPECT_EQ(outs[k], values);
  }
}

TEST(NetlistViewConcurrency, SharedConstNetlistAcrossPoolThreads) {
  const auto flow = synth::run_flow(designs::make_d2(), synth::Flow::NewMerge);
  // Index order: STA and simulation build nothing.
  ASSERT_TRUE(flow.net.index_topological());
  expect_shared_reads_match_serial(flow.net);

  // Kahn order: shared as it is.
  netlist::Netlist kahn = flow.net;
  (void)kahn.mutable_gates();
  ASSERT_FALSE(kahn.index_topological());
  expect_shared_reads_match_serial(kahn);
}

}  // namespace
}  // namespace dpmerge
