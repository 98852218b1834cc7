// Regression locks: pins the exact cluster counts, iteration counts and
// width outcomes of the five testcases under every flow, and the exact
// gate-level netlists (net ids included) they synthesise to, so any change
// to the analyses, break conditions or netlist numbering that shifts the
// Table 1/2 results fails loudly here rather than silently degrading the
// reproduction.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/netlist/verilog.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/opt/timing_opt.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge {
namespace {

struct Expected {
  const char* name;
  int clusters_none;
  int clusters_old;
  int clusters_new;
};

constexpr Expected kExpected[] = {
    {"D1", 15, 7, 1}, {"D2", 35, 14, 1}, {"D3", 15, 13, 9},
    {"D4", 19, 3, 1}, {"D5", 15, 2, 1},
};

TEST(RegressionLock, ClusterCountsPerFlow) {
  const auto cases = designs::all_testcases();
  ASSERT_EQ(cases.size(), std::size(kExpected));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& tc = cases[i];
    const auto& e = kExpected[i];
    ASSERT_EQ(tc.name, e.name);
    EXPECT_EQ(synth::run_flow(tc.graph, synth::Flow::NoMerge)
                  .partition.num_clusters(),
              e.clusters_none)
        << tc.name;
    EXPECT_EQ(synth::run_flow(tc.graph, synth::Flow::OldMerge)
                  .partition.num_clusters(),
              e.clusters_old)
        << tc.name;
    EXPECT_EQ(synth::run_flow(tc.graph, synth::Flow::NewMerge)
                  .partition.num_clusters(),
              e.clusters_new)
        << tc.name;
  }
}

TEST(RegressionLock, D1D2NeedMultipleIterations) {
  // The paper's D1/D2 narrative depends on the *iterative* part of the
  // Section 6 algorithm actually firing.
  for (auto make : {&designs::make_d1, &designs::make_d2}) {
    dfg::Graph g = make();
    const auto cr = synth::prepare_new_merge(g);
    EXPECT_GT(cr.iterations, 1);
  }
}

TEST(RegressionLock, MaxOperatorWidthAfterNewMerge) {
  // Redundant widths must collapse to (close to) the true content.
  struct W {
    const char* name;
    int max_width;
  };
  constexpr W kWidths[] = {
      {"D1", 12}, {"D2", 16}, {"D3", 14}, {"D4", 12}, {"D5", 11}};
  const auto cases = designs::all_testcases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    dfg::Graph g = cases[i].graph;
    synth::prepare_new_merge(g);
    int max_w = 0;
    for (const auto& n : g.nodes()) {
      if (dfg::is_arith_operator(n.kind)) max_w = std::max(max_w, n.width);
    }
    EXPECT_LE(max_w, kWidths[i].max_width) << cases[i].name;
  }
}

TEST(RegressionLock, Table1ShapeBands) {
  // Coarse bands around the measured Table 1 ratios (EXPERIMENTS.md): fail
  // if the new flow's advantage over old collapses or the ordering flips.
  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  const auto cases = designs::all_testcases();
  for (const auto& tc : cases) {
    const auto none = synth::run_flow(tc.graph, synth::Flow::NoMerge);
    const auto old = synth::run_flow(tc.graph, synth::Flow::OldMerge);
    const auto neu = synth::run_flow(tc.graph, synth::Flow::NewMerge);
    const double dn = sta.analyze(none.net).longest_path_ns;
    const double d_old = sta.analyze(old.net).longest_path_ns;
    const double dz = sta.analyze(neu.net).longest_path_ns;
    EXPECT_LE(dz, d_old * 1.001) << tc.name;
    EXPECT_LE(d_old, dn * 1.001) << tc.name;
    const bool redundant = tc.name == "D4" || tc.name == "D5";
    if (redundant) {
      // Dramatic wins: >=40% delay and >=55% area off the old flow.
      EXPECT_LT(dz, 0.6 * d_old) << tc.name;
      EXPECT_LT(sta.area(neu.net), 0.45 * sta.area(old.net)) << tc.name;
    }
  }
}

/// 64-bit FNV-1a of the netlist's structural Verilog, as a hex string.
std::string verilog_digest(const netlist::Netlist& n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : netlist::to_verilog(n, "top")) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST(RegressionLock, VerilogDigestPerFlow) {
  // Every gate, drive and net id of the synthesised netlists. Net ids are
  // derived from creation order (a net is a source or its gate's output),
  // so a change to how they are numbered shows here even when every
  // functional and timing result stays the same.
  struct Digests {
    const char* name;
    const char* none;
    const char* old_merge;
    const char* new_merge;
  };
  constexpr Digests kDigests[] = {
      {"D1", "7421f2e7a7fe6a83", "861e6082a5636235", "195475ed7afb0a30"},
      {"D2", "f7fcc10936d78ce3", "364f0db2d09f98b4", "3e89ce9f049df106"},
      {"D3", "1f9502d6bd9f9fea", "daf22e5f737cba3e", "f18284f946da5ec8"},
      {"D4", "70b10f99a10dd7ac", "b061eac8e2ab19e1", "d308f29b2f5255a1"},
      {"D5", "46d55d3e1fc4171d", "e323dbb5dc32518e", "cdd6a88a08316456"},
  };
  const auto cases = designs::all_testcases();
  ASSERT_EQ(cases.size(), std::size(kDigests));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& tc = cases[i];
    const Digests& d = kDigests[i];
    ASSERT_EQ(tc.name, d.name);
    EXPECT_EQ(verilog_digest(
                  synth::run_flow(tc.graph, synth::Flow::NoMerge).net),
              d.none)
        << tc.name << " no-merge";
    EXPECT_EQ(verilog_digest(
                  synth::run_flow(tc.graph, synth::Flow::OldMerge).net),
              d.old_merge)
        << tc.name << " old-merge";
    EXPECT_EQ(verilog_digest(
                  synth::run_flow(tc.graph, synth::Flow::NewMerge).net),
              d.new_merge)
        << tc.name << " new-merge";
  }

  // Table 2's D4 old-merge cell: the optimiser appends buffers after every
  // source net and rewires earlier readers behind them.
  const auto& lib = netlist::CellLibrary::tsmc025();
  const auto d4 = designs::make_d4();
  auto fr = synth::run_flow(d4, synth::Flow::OldMerge);
  opt::TimingOptOptions o;
  o.target_ns = netlist::Sta(lib)
                    .analyze(synth::run_flow(d4, synth::Flow::NewMerge).net)
                    .longest_path_ns *
                0.93;
  o.max_moves = 5000;
  const int gates_before = fr.net.gate_count();
  opt::TimingOptimizer(lib).optimize(fr.net, o);
  EXPECT_GT(fr.net.gate_count(), gates_before);  // buffers were inserted
  EXPECT_EQ(verilog_digest(fr.net), "3d659a61f21e4bb6")
      << "D4 old-merge optimised";
}

TEST(RegressionLock, Table2OptimiserDecisions) {
  // Every move decision of the Table 2 protocol (target 0.93x the design's
  // new-merge delay, 5000 moves): the optimiser's counters and the final
  // delay and area, exact. A timer change that alters one arrival bit on
  // the way shows here.
  struct Decisions {
    const char* name;
    const char* flow;
    std::int64_t upsize_accept, upsize_reject, buffer_accept, buffer_reject,
        downsize_accept, slack_recovered_ps;
    double final_ns, final_area;
  };
  constexpr Decisions kDecisions[] = {
      {"D1", "old", 7, 35, 0, 0, 0, 11,
       4.1776000000000009, 23.689999999999991},
      {"D1", "new", 1, 24, 0, 0, 0, 18,
       2.8752, 16.052},
      {"D2", "old", 16, 58, 0, 0, 0, 69,
       6.51919, 69.719999999999999},
      {"D2", "new", 12, 35, 0, 0, 0, 70,
       3.5664000000000007, 44.776000000000003},
      {"D3", "old", 73, 15, 0, 4, 4, 697,
       4.8348479999999991, 104.97359999999999},
      {"D3", "new", 7, 0, 0, 0, 0, 415,
       4.7850000000000001, 67.435999999999993},
      {"D4", "old", 256, 57, 0, 39, 0, 12686,
       6.1668819999999984, 65.167600000000164},
      {"D4", "new", 18, 1, 0, 1, 1, 214,
       2.8210359999999999, 21.029999999999994},
      {"D5", "old", 255, 60, 0, 30, 0, 7006,
       5.4945899999999979, 79.608000000000118},
      {"D5", "new", 118, 25, 0, 10, 0, 1785,
       2.7042500000000005, 21.531999999999975},
  };
  const auto& lib = netlist::CellLibrary::tsmc025();
  const auto cases = designs::all_testcases();
  ASSERT_EQ(cases.size() * 2, std::size(kDecisions));
  for (std::size_t i = 0; i < std::size(kDecisions); ++i) {
    const Decisions& d = kDecisions[i];
    const auto& tc = cases[i / 2];
    ASSERT_EQ(tc.name, d.name);
    const synth::Flow f =
        i % 2 == 0 ? synth::Flow::OldMerge : synth::Flow::NewMerge;
    const std::string what = tc.name + " " + d.flow;
    opt::TimingOptOptions o;
    o.target_ns =
        netlist::Sta(lib)
            .analyze(synth::run_flow(tc.graph, synth::Flow::NewMerge).net)
            .longest_path_ns *
        0.93;
    o.max_moves = 5000;
    auto fr = synth::run_flow(tc.graph, f);
    obs::StatSink sink;
    opt::TimingOptResult res;
    {
      obs::StatScope scope(&sink);
      res = opt::TimingOptimizer(lib).optimize(fr.net, o);
    }
    EXPECT_EQ(sink.get("opt.upsize.accept"), d.upsize_accept) << what;
    EXPECT_EQ(sink.get("opt.upsize.reject"), d.upsize_reject) << what;
    EXPECT_EQ(sink.get("opt.buffer.accept"), d.buffer_accept) << what;
    EXPECT_EQ(sink.get("opt.buffer.reject"), d.buffer_reject) << what;
    EXPECT_EQ(sink.get("opt.downsize.accept"), d.downsize_accept) << what;
    EXPECT_EQ(sink.get("opt.slack_recovered_ps"), d.slack_recovered_ps)
        << what;
    EXPECT_EQ(res.final_ns, d.final_ns) << what;
    EXPECT_EQ(res.final_area, d.final_area) << what;
  }
}

}  // namespace
}  // namespace dpmerge
