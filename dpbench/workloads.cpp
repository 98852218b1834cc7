#include "workloads.h"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/designs/kernels.h"
#include "dpmerge/designs/scale.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/frontend/parser.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/obs/flow_report.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/memory.h"
#include "dpmerge/obs/stats.h"
#include "dpmerge/opt/timing_opt.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"

namespace dpbench {

using namespace dpmerge;
using synth::Flow;

namespace {

constexpr Flow kFlows[] = {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge};
constexpr int kVerifyTrials = 64;
constexpr std::uint64_t kVerifySeed = 0xdb5eedULL;
/// Table 2 protocol: optimise toward 0.93x the new-merge delay.
constexpr double kTargetFactor = 0.93;
constexpr int kMaxMoves = 5000;
constexpr const char* kTable1Baseline = "bench/baselines/BENCH_table1.json";

const netlist::CellLibrary& lib() { return netlist::CellLibrary::tsmc025(); }

double ms_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e6;
}

void fail(OpOutcome& o, const std::string& why) {
  if (o.ok) o.why = why;
  o.ok = false;
}

bool same_partition(const cluster::Partition& a, const cluster::Partition& b) {
  return a.num_clusters() == b.num_clusters() && a.cluster_of == b.cluster_of;
}

/// `synth::prepare_new_merge`. Traced, it runs under a FlowScope and the
/// library's own "normalize" and "cluster" stage times become the
/// `transform.normalize` and `cluster.maximal` children of the
/// `cluster.prepare` span.
cluster::ClusterResult prepare(dfg::Graph& g, int threads, Tracer* tr) {
  if (!tr) return synth::prepare_new_merge(g, nullptr, threads);
  Span span(tr, "cluster.prepare");
  obs::FlowReport rep;
  cluster::ClusterResult cr;
  {
    obs::FlowScope fs(&rep);
    cr = synth::prepare_new_merge(g, &fs, threads);
  }
  tr->add_child("transform.normalize", rep.stage_time_us("normalize") * 1000);
  tr->add_child("cluster.maximal", rep.stage_time_us("cluster") * 1000);
  return cr;
}

struct FlowOut {
  dfg::Graph graph;
  cluster::Partition partition;
  int iterations = 1;
  netlist::Netlist net;
  std::int64_t csa_rows = 0;
  std::int64_t cpa_count = 0;
  double synth_rss_delta_mb = -1.0;
};

/// One flow. Untraced it is `synth::run_flow`; traced it is the same flow
/// broken into the public steps run_flow calls, one span each.
FlowOut flow_step(const dfg::Graph& g, Flow flow, int threads, Tracer* tr) {
  FlowOut out;
  synth::SynthOptions sopt;
  sopt.threads = threads;
  if (!tr) {
    synth::FlowResult fr = synth::run_flow(g, flow, sopt);
    out.graph = std::move(fr.graph);
    out.partition = std::move(fr.partition);
    out.iterations = fr.cluster_iterations;
    out.net = std::move(fr.net);
    out.csa_rows = fr.report.csa_rows;
    out.cpa_count = fr.report.cpa_count;
    return out;
  }
  const bool mem = reset_peak_rss();
  const std::int64_t rss0_kb = obs::MemorySampler::current_rss_kb();
  {
    Span s(tr, "dfg.copy");
    out.graph = g;
  }
  analysis::InfoAnalysis ia;
  if (flow == Flow::NewMerge) {
    cluster::ClusterResult cr = prepare(out.graph, threads, tr);
    out.partition = std::move(cr.partition);
    out.iterations = cr.iterations;
    ia = std::move(cr.info);
  } else {
    {
      Span s(tr, flow == Flow::NoMerge ? "cluster.none" : "cluster.leakage");
      out.partition = flow == Flow::NoMerge ? cluster::cluster_none(out.graph)
                                            : cluster::cluster_leakage(out.graph);
    }
    Span s(tr, "analysis.ic_fixed");
    ia = analysis::compute_info_content(out.graph);
  }
  obs::StatSink sink;
  {
    Span s(tr, "synth.synthesize");
    obs::StatScope scope(&sink);
    out.net = synth::synthesize_partition(out.graph, out.partition, ia, sopt);
  }
  if (mem) {
    out.synth_rss_delta_mb =
        static_cast<double>(obs::MemorySampler::peak_rss_kb() - rss0_kb) /
        1024.0;
  }
  {
    Span s(tr, "synth.report");
    obs::FlowReport rep;
    synth::finalize_flow_report(rep, out.graph, out.partition, out.net, sink);
    out.csa_rows = rep.csa_rows;
    out.cpa_count = rep.cpa_count;
  }
  return out;
}

void verify(const netlist::Netlist& net, const dfg::Graph& g,
            const char* what, OpOutcome& o, Tracer* tr) {
  Span s(tr, "verify");
  Rng rng(kVerifySeed);
  std::string why;
  if (!synth::verify_netlist(net, g, kVerifyTrials, rng, &why)) {
    fail(o, std::string(what) + " netlist differs from the DFG: " + why);
  }
  o.verify_trials += kVerifyTrials;
}

/// STA and functional verification of a flow's netlist, filling the QoR
/// and structural counters.
void check_netlist(const FlowOut& f, const dfg::Graph& input, OpOutcome& o,
                   Tracer* tr) {
  o.has_netlist = true;
  o.gates = f.net.gate_count();
  o.nets = f.net.net_count();
  o.csa_rows = f.csa_rows;
  o.cpa_count = f.cpa_count;
  o.clusters += f.partition.num_clusters();
  o.iterations += f.iterations;
  o.synth_rss_delta_mb = f.synth_rss_delta_mb;
  {
    Span s(tr, "sta.analyze");
    netlist::Sta sta(lib());
    o.delay_ns = sta.analyze(f.net).longest_path_ns;
    o.area = sta.area_scaled(f.net);
  }
  verify(f.net, input, "synthesised", o, tr);
}

std::string flow_label(const std::string& design, Flow f) {
  return design + "/" + std::string(synth::to_string(f));
}

// ------------------------------------------------------------ paper_table --

/// D1-D5 and the six DSP kernels through all three flows, each followed by
/// the Table 2 timing optimisation. Kernels are compiled from their `.dp`
/// source inside every operation.
class PaperTable final : public Workload {
 public:
  void setup(std::uint64_t, int threads) override {
    threads_ = threads;
    designs_.clear();
    for (auto& tc : designs::all_testcases()) {
      designs_.push_back({tc.name, {}, std::move(tc.graph), 0.0});
    }
    for (auto& k : designs::dsp_kernels()) {
      designs_.push_back({k.name, k.source, std::move(k.graph), 0.0});
    }
    load_baseline();
    synth::SynthOptions sopt;
    sopt.threads = threads;
    netlist::Sta sta(lib());
    for (Design& d : designs_) {
      const auto fr = synth::run_flow(d.graph, Flow::NewMerge, sopt);
      d.target_ns = kTargetFactor * sta.analyze(fr.net).longest_path_ns;
    }
  }

  int op_count() const override { return static_cast<int>(designs_.size()) * 3; }
  std::string op_label(int i) const override {
    return flow_label(designs_[static_cast<std::size_t>(i / 3)].name,
                      kFlows[i % 3]);
  }
  bool builds_netlists() const override { return true; }
  int min_rounds() const override { return 7; }  // 231 samples: p95

 protected:
  OpOutcome execute(int i, Tracer* tr, Probe* probe) override {
    const Design& d = designs_[static_cast<std::size_t>(i / 3)];
    const Flow flow = kFlows[i % 3];
    OpOutcome o;
    dfg::Graph compiled;
    const dfg::Graph* g = &d.graph;
    if (!d.source.empty()) {
      Span s(tr, "frontend.compile");
      compiled = frontend::compile(d.source).graph;
      g = &compiled;
    }
    o.nodes = g->node_count();
    FlowOut f = flow_step(*g, flow, threads_, tr);
    check_netlist(f, *g, o, tr);
    check_baseline(d.name, flow, o);

    opt::TimingOptOptions oo;
    oo.target_ns = d.target_ns;
    oo.max_moves = kMaxMoves;
    opt::TimingOptResult r;
    {
      Span s(tr, "opt.optimize");
      const std::int64_t t0 = now_ns();
      r = opt::TimingOptimizer(lib()).optimize(f.net, oo);
      o.opt_ms = ms_since(t0);
    }
    o.has_opt = true;
    o.moves = r.moves;
    o.met_target = r.met_target;
    verify(f.net, *g, "optimised", o, tr);

    if (probe && flow == Flow::NewMerge) {
      probe->partition = std::move(f.partition);
      if (d.source.empty()) {
        probe->input = &d.graph;
      } else {
        probe->owned = std::move(compiled);
        probe->input = &probe->owned;
      }
    }
    return o;
  }

 private:
  struct Design {
    std::string name;
    std::string source;  ///< `.dp` text; empty for D1-D5
    dfg::Graph graph;
    double target_ns;
  };
  struct Expected {
    std::string delay, area;
    std::int64_t cpa_count;
  };

  /// D1-D5 post-synthesis QoR as recorded in the repository's Table 1
  /// baseline (read relative to the checkout root).
  void load_baseline() {
    std::ifstream in(kTable1Baseline);
    if (!in) throw std::runtime_error(std::string("cannot read ") + kTable1Baseline);
    std::stringstream ss;
    ss << in.rdbuf();
    obs::JsonValue doc;
    std::string err;
    if (!obs::json_parse(ss.str(), &doc, &err)) {
      throw std::runtime_error(std::string(kTable1Baseline) + ": " + err);
    }
    const obs::JsonValue* cells = doc.find("cells");
    if (!cells || !cells->is_array() || cells->array.empty()) {
      throw std::runtime_error(std::string(kTable1Baseline) + ": no cells");
    }
    expected_.clear();
    for (const obs::JsonValue& c : cells->array) {
      expected_[std::string(c.text("design")) + "/" + std::string(c.text("flow"))] =
          {obs::json_number(c.num("delay")), obs::json_number(c.num("area")),
           static_cast<std::int64_t>(c.num("cpa_count"))};
    }
  }

  void check_baseline(const std::string& design, Flow flow, OpOutcome& o) const {
    const auto it = expected_.find(flow_label(design, flow));
    if (it == expected_.end()) return;
    const Expected& e = it->second;
    const std::string delay = obs::json_number(o.delay_ns);
    const std::string area = obs::json_number(o.area);
    if (delay != e.delay || area != e.area || o.cpa_count != e.cpa_count) {
      fail(o, "QoR differs from " + std::string(kTable1Baseline) + ": delay " +
                  delay + " (want " + e.delay + "), area " + area + " (want " +
                  e.area + "), cpa_count " + std::to_string(o.cpa_count) +
                  " (want " + std::to_string(e.cpa_count) + ")");
    }
  }

  std::vector<Design> designs_;
  std::map<std::string, Expected> expected_;
};

// ------------------------------------------------------------- gate_heavy --

/// Four generated designs of 0.35-1.7M gates through all three flows; each
/// operation only reads the netlist (topological order, STA, verify).
class GateHeavy final : public Workload {
 public:
  void setup(std::uint64_t seed, int threads) override {
    threads_ = threads;
    designs_.clear();
    designs_.push_back({"matmul9", designs::matmul(9, 12)});
    designs_.push_back({"fir1000", designs::fir(1000, 12)});
    designs_.push_back({"dct100", designs::dct_bank(100, 12)});
    designs_.push_back({"layered40", designs::layered_network(40, 40, 16, seed)});
    for (auto& d : designs_) d.graph.freeze();
  }

  int op_count() const override { return static_cast<int>(designs_.size()) * 3; }
  std::string op_label(int i) const override {
    return flow_label(designs_[static_cast<std::size_t>(i / 3)].name,
                      kFlows[i % 3]);
  }
  bool builds_netlists() const override { return true; }
  int min_rounds() const override { return 4; }  // 48 samples: p75

 protected:
  OpOutcome execute(int i, Tracer* tr, Probe* probe) override {
    const designs::ScaleDesign& d = designs_[static_cast<std::size_t>(i / 3)];
    const Flow flow = kFlows[i % 3];
    OpOutcome o;
    o.nodes = d.graph.node_count();
    FlowOut f = flow_step(d.graph, flow, threads_, tr);
    std::size_t topo = 0;
    {
      Span s(tr, "netlist.topo");
      topo = f.net.topo_gates().size();
    }
    if (topo != static_cast<std::size_t>(f.net.gate_count())) {
      fail(o, "topological order covers " + std::to_string(topo) + " of " +
                  std::to_string(f.net.gate_count()) + " gates");
    }
    check_netlist(f, d.graph, o, tr);
    if (probe && flow == Flow::NewMerge) {
      probe->partition = std::move(f.partition);
      probe->input = &d.graph;
    }
    return o;
  }

 private:
  std::vector<designs::ScaleDesign> designs_;
};

// ----------------------------------------------------------- cluster_100k --

/// The four 100k-node scale-suite designs through the new-merge front end
/// at pool width, then the leakage (old-merge) clusterer. No synthesis.
class Cluster100k final : public Workload {
 public:
  void setup(std::uint64_t, int threads) override {
    threads_ = threads;
    designs_ = designs::scale_suite(100000);
    serial_.clear();
    leakage_.clear();
    for (auto& d : designs_) {
      d.graph.freeze();
      dfg::Graph g = d.graph;
      serial_.push_back(synth::prepare_new_merge(g, nullptr, 1).partition);
      leakage_.push_back(cluster::cluster_leakage(d.graph));
    }
  }

  int op_count() const override { return static_cast<int>(designs_.size()); }
  std::string op_label(int i) const override {
    return designs_[static_cast<std::size_t>(i)].name;
  }
  bool builds_netlists() const override { return false; }
  int min_rounds() const override { return 10; }  // 40 samples: p75

 protected:
  OpOutcome execute(int i, Tracer* tr, Probe* probe) override {
    const auto idx = static_cast<std::size_t>(i);
    const dfg::Graph& input = designs_[idx].graph;
    OpOutcome o;
    o.nodes = input.node_count();
    dfg::Graph g;
    {
      Span s(tr, "dfg.copy");
      g = input;
    }
    std::vector<std::string> errors;
    {
      Span s(tr, "dfg.freeze_validate");
      g.freeze();
      errors = g.validate();
    }
    if (!errors.empty()) fail(o, "invalid input graph: " + errors.front());
    cluster::ClusterResult cr = prepare(g, threads_, tr);
    if (!same_partition(cr.partition, serial_[idx])) {
      fail(o, "new-merge partition differs from the serial one");
    }
    o.clusters += cr.partition.num_clusters();
    o.iterations += cr.iterations;
    cluster::Partition leak;
    {
      Span s(tr, "cluster.leakage");
      leak = cluster::cluster_leakage(input);
    }
    if (!same_partition(leak, leakage_[idx])) {
      fail(o, "leakage partition differs from the set-up one");
    }
    o.clusters += leak.num_clusters();
    if (probe) {
      probe->partition = std::move(cr.partition);
      probe->input = &input;
    }
    return o;
  }

 private:
  std::vector<designs::ScaleDesign> designs_;
  std::vector<cluster::Partition> serial_;
  std::vector<cluster::Partition> leakage_;
};

}  // namespace

std::string OpOutcome::fingerprint() const {
  std::ostringstream os;
  os << "nodes=" << nodes << " clusters=" << clusters
     << " iterations=" << iterations;
  if (has_netlist) {
    os << " delay=" << obs::json_number(delay_ns)
       << " area=" << obs::json_number(area) << " gates=" << gates
       << " nets=" << nets << " csa_rows=" << csa_rows
       << " cpa_count=" << cpa_count << " verify_trials=" << verify_trials;
  }
  if (has_opt) os << " moves=" << moves << " met_target=" << met_target;
  return os.str();
}

OpOutcome Workload::run(int i, Tracer* tr) {
  Probe probe;
  OpOutcome o;
  {
    Span op(tr, "op");
    const std::int64_t t0 = now_ns();
    o = execute(i, tr, tr ? &probe : nullptr);
    o.op_ms = ms_since(t0);
  }
  if (probe.input) {
    // Outside the operation span: the serial front end on the same input
    // (for cluster.parallel_speedup, and it must reproduce the pool-width
    // partition), then one RP and one IC sweep over the prepared graph.
    dfg::Graph g = *probe.input;
    const std::int64_t t0 = now_ns();
    const cluster::ClusterResult serial =
        synth::prepare_new_merge(g, nullptr, 1);
    o.serial_prepare_ms = ms_since(t0);
    if (!same_partition(serial.partition, probe.partition)) {
      fail(o, "pool-width partition differs from the serial one");
    }
    {
      Span s(tr, "probe.rp");
      analysis::compute_required_precision(g, threads_);
    }
    Span s(tr, "probe.ic");
    analysis::compute_info_content(g, {}, threads_);
  }
  return o;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "paper_table") return std::make_unique<PaperTable>();
  if (name == "gate_heavy") return std::make_unique<GateHeavy>();
  if (name == "cluster_100k") return std::make_unique<Cluster100k>();
  return nullptr;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace dpbench
