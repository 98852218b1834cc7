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
#include <vector>

#include "dpmerge/check/absint_engine.h"
#include "dpmerge/designs/kernels.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/netlist/verilog.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/opt/timing_opt.h"
#include "dpmerge/synth/flow.h"
#include "dfg_oracle.h"

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

/// 64-bit FNV-1a, fed one integer at a time (bytewise, little end first).
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(unsigned char c) { h = (h ^ c) * 0x100000001b3ull; }
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// 64-bit FNV-1a of the netlist's structural Verilog, as a hex string.
std::string verilog_digest(const netlist::Netlist& n) {
  Fnv1a f;
  for (const char c : netlist::to_verilog(n, "top")) {
    f.byte(static_cast<unsigned char>(c));
  }
  return f.hex();
}

/// Runs the new-merge front end on `g` and digests what it leaves: every
/// node's (kind, width, t(N), shift), every edge's (src, dst, port, w(e),
/// t(e)), every cluster's root, members and input edges, and the final
/// information-content claims at each port and edge.
std::string normalized_digest(dfg::Graph g) {
  const auto cr = synth::prepare_new_merge(g);
  Fnv1a f;
  auto claim = [&f](analysis::InfoContent c) {
    f.add(c.width);
    f.add(static_cast<int>(c.sign));
  };
  for (const auto& n : g.nodes()) {
    f.add(static_cast<int>(n.kind));
    f.add(n.width);
    f.add(static_cast<int>(n.ext_sign));
    f.add(n.shift);
  }
  for (const auto& e : g.edges()) {
    f.add(e.src.value);
    f.add(e.dst.value);
    f.add(e.dst_port);
    f.add(e.width);
    f.add(static_cast<int>(e.sign));
  }
  for (const auto& c : cr.partition.clusters) {
    f.add(c.root.value);
    for (const auto n : c.nodes) f.add(n.value);
    for (const auto e : c.input_edges) f.add(e.value);
  }
  for (const auto c : cr.info.intrinsic) claim(c);
  for (const auto c : cr.info.at_output_port) claim(c);
  for (const auto c : cr.info.at_edge) claim(c);
  for (const auto c : cr.info.at_operand) claim(c);
  return f.hex();
}

TEST(RegressionLock, NormalizedGraphsUnchanged) {
  // The width transformations, the clusterer and the information-content
  // analysis they share, pinned exactly on the paper's testcases, the DSP
  // kernels and seeded random graphs: an edit to any transfer rule that
  // moves one width, sign, cluster or claim shows here.
  struct Digest {
    const char* name;
    const char* digest;
  };
  constexpr Digest kDesigns[] = {
      {"D1", "9f62a30bcab880a7"},          {"D2", "15c4113e3ed6acd8"},
      {"D3", "d3c01ccaad68bb10"},          {"D4", "36611071468262fa"},
      {"D5", "3dccb54f4deb4971"},          {"fir8", "6eeb8050a9c4cdd2"},
      {"biquad", "69651ef742a38681"},      {"complex_mul", "cce02ec915e686ce"},
      {"dct4", "8a1783202e247aa3"},        {"matvec3", "16399ef8de64f16a"},
      {"checksum8", "0f34a00057a39248"},
  };
  std::vector<std::pair<std::string, const dfg::Graph*>> graphs;
  const auto cases = designs::all_testcases();
  const auto kernels = designs::dsp_kernels();
  for (const auto& tc : cases) graphs.emplace_back(tc.name, &tc.graph);
  for (const auto& k : kernels) graphs.emplace_back(k.name, &k.graph);
  ASSERT_EQ(graphs.size(), std::size(kDesigns));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ASSERT_EQ(graphs[i].first, kDesigns[i].name);
    EXPECT_EQ(normalized_digest(*graphs[i].second), kDesigns[i].digest)
        << graphs[i].first;
  }

  // Twenty random graphs, wider and deeper than the generator's default so
  // that narrowing, inserted Extension nodes and refinements all occur,
  // each also with sign-flipping Extension nodes before its outputs.
  Fnv1a all;
  Fnv1a flipped;
  auto digest_into = [](Fnv1a& f, const dfg::Graph& g) {
    for (const char c : normalized_digest(g)) {
      f.byte(static_cast<unsigned char>(c));
    }
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    dfg::RandomGraphOptions opt;
    opt.num_operators = 24;
    opt.max_width = 24;
    const dfg::Graph g = dfg::random_graph(rng, opt);
    digest_into(all, g);
    digest_into(flipped, dfg::oracle::with_sign_flipping_extensions(g));
  }
  EXPECT_EQ(all.hex(), "ac0c1cc92979a6c2") << "random graphs";
  EXPECT_EQ(flipped.hex(), "5fbd547cf40b736f") << "random graphs, sign-flipping extensions";
}

/// Runs the abstract interpreter on `g` and digests every fact it leaves:
/// known bits, interval and congruence at each output port, edge carrier
/// and delivered operand, the three demand masks, and the round count.
std::string absint_digest(const dfg::Graph& g) {
  const check::AbsintResult r = check::compute_absint(g);
  Fnv1a f;
  auto bits = [&f](const BitVector& v) {
    f.add(v.width());
    for (int i = 0; i < v.width(); ++i) f.byte(v.bit(i) ? 1 : 0);
  };
  auto u128 = [&f](unsigned __int128 v) {
    f.add(static_cast<std::int64_t>(static_cast<std::uint64_t>(v)));
    f.add(static_cast<std::int64_t>(static_cast<std::uint64_t>(v >> 64)));
  };
  auto fact = [&](const check::AbsFact& a) {
    bits(a.bits.known);
    bits(a.bits.value);
    f.add(a.range.valid);
    u128(a.range.lo);
    u128(a.range.hi);
    f.add(a.cong.modulus_bits);
    f.add(static_cast<std::int64_t>(a.cong.residue));
  };
  for (const auto& a : r.at_output_port) fact(a);
  for (const auto& a : r.at_edge) fact(a);
  for (const auto& a : r.at_operand) fact(a);
  for (const auto& m : r.demanded_out) bits(m);
  for (const auto& m : r.demanded_edge) bits(m);
  for (const auto& m : r.demanded_operand) bits(m);
  f.add(r.rounds);
  return f.hex();
}

TEST(RegressionLock, AbsintFactsUnchanged) {
  // Every fixpoint fact of the abstract interpreter (DESIGN.md §13), pinned
  // on the paper's testcases, the DSP kernels and seeded random graphs,
  // each random graph also with sign-flipping Extension nodes before its
  // outputs: an edit to a forward transfer, the reduction, a demand
  // transfer or the delivery sign that moves one fact shows here.
  struct Digest {
    const char* name;
    const char* digest;
  };
  constexpr Digest kDesigns[] = {
      {"D1", "1182eeb9e69213f7"},          {"D2", "9fd67d545316b868"},
      {"D3", "56d2d4958e2b236f"},          {"D4", "45f4ffb83ae4248f"},
      {"D5", "cbc46ee85550cf91"},          {"fir8", "884f58ef11d24761"},
      {"biquad", "bd52e1c1ae877d7e"},      {"complex_mul", "1726edb64767677f"},
      {"dct4", "01e779b556dcbb13"},        {"matvec3", "d8805fc07d47729c"},
      {"checksum8", "2b288cfe7c81f3a6"},
  };
  std::vector<std::pair<std::string, const dfg::Graph*>> graphs;
  const auto cases = designs::all_testcases();
  const auto kernels = designs::dsp_kernels();
  for (const auto& tc : cases) graphs.emplace_back(tc.name, &tc.graph);
  for (const auto& k : kernels) graphs.emplace_back(k.name, &k.graph);
  ASSERT_EQ(graphs.size(), std::size(kDesigns));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ASSERT_EQ(graphs[i].first, kDesigns[i].name);
    EXPECT_EQ(absint_digest(*graphs[i].second), kDesigns[i].digest)
        << graphs[i].first;
  }

  Fnv1a all;
  Fnv1a flipped;
  auto digest_into = [](Fnv1a& f, const dfg::Graph& g) {
    for (const char c : absint_digest(g)) {
      f.byte(static_cast<unsigned char>(c));
    }
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    dfg::RandomGraphOptions opt;
    opt.num_operators = 24;
    opt.max_width = 24;
    const dfg::Graph g = dfg::random_graph(rng, opt);
    digest_into(all, g);
    digest_into(flipped, dfg::oracle::with_sign_flipping_extensions(g));
  }
  EXPECT_EQ(all.hex(), "a1a12cb2a4baa368") << "random graphs";
  EXPECT_EQ(flipped.hex(), "8eb370bdb9db323c")
      << "random graphs, sign-flipping extensions";
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
