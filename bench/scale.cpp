// Scaling-curve bench (DESIGN.md §11): how the flow front-end behaves as
// designs grow from 1k to 100k+ operator nodes. For every (size x design
// family) point it times graph construction + freeze + validate, the
// serial new-merge front-end (normalize + iterative maximal clustering),
// and — up to --full-max nodes — the complete new-merge flow including
// synthesis and STA.
//
// Extra flags on top of the shared bench contract:
//   --sizes a,b,c     target operator counts (default 1000,3000,10000,100000)
//   --full-max <n>    run the full synthesis flow for designs up to n nodes
//                     (default 10000; synthesis cost, not clustering, is the
//                     practical bound at larger sizes)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "dpmerge/cluster/partition.h"
#include "dpmerge/designs/scale.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/synth/flow.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpmerge;
  using bench::BenchCell;
  using bench::fmt;

  bench::BenchArgs args = bench::parse_bench_args(argc, argv, true);
  std::vector<int> sizes{1000, 3000, 10000, 100000};
  int full_max = 10000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sizes") {
      sizes.clear();
      const char* s = value();
      while (*s) {
        sizes.push_back(std::atoi(s));
        const char* comma = std::strchr(s, ',');
        if (!comma) break;
        s = comma + 1;
      }
    } else if (arg == "--full-max") {
      full_max = std::atoi(value());
    } else if (arg == "--help") {
      std::fprintf(stdout,
                   "usage: %s [shared bench flags] [--sizes a,b,c]"
                   " [--full-max n]\n",
                   argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  bench::ObsSession obs_session("scale", args);

  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  std::vector<BenchCell> cells;
  bench::Table t({"design", "nodes", "build(ms)", "front-end(ms)",
                  "clusters", "rss(MB)"});

  // Per-cell peak RSS: the high-water mark is reset before every cell, so
  // each reading is that cell's own peak rather than the process's so far.
  bool per_cell_rss = true;
  double row_rss_mb = 0.0;
  auto begin_cell = [&] {
    per_cell_rss = obs::MemorySampler::reset_peak() && per_cell_rss;
  };
  auto cell_rss_mb = [&] {
    const double mb = bench::peak_rss_mb();
    row_rss_mb = std::max(row_rss_mb, mb);
    return mb;
  };

  for (const int target : sizes) {
    auto suite = designs::scale_suite(target);
    for (auto& d : suite) {
      dfg::Graph& g = d.graph;
      row_rss_mb = 0.0;

      // Construction cost proxy: CSR freeze + full validation. Generation
      // itself happened in scale_suite; freeze/validate are the structural
      // sweeps every flow pays, and validate's O(n) behaviour at 100k is
      // exactly what this cell tracks.
      begin_cell();
      const auto t_build = Clock::now();
      g.freeze();
      const auto errs = g.validate();
      const double build_ms = ms_since(t_build);
      if (!errs.empty()) {
        std::fprintf(stderr, "%s: invalid graph: %s\n", d.name.c_str(),
                     errs.front().c_str());
        return 1;
      }
      cells.push_back(BenchCell{d.name, "build", 0.0, 0.0, 0, build_ms,
                                cell_rss_mb()});

      // New-merge front-end.
      begin_cell();
      dfg::Graph work = g;
      const auto t_fe = Clock::now();
      const auto cr = synth::prepare_new_merge(work);
      const double front_end_ms = ms_since(t_fe);
      cells.push_back(BenchCell{d.name, "cluster-serial", 0.0, 0.0,
                                cr.partition.num_clusters(), front_end_ms,
                                cell_rss_mb()});

      // Full flow (clustering + synthesis + STA) at tractable sizes.
      if (g.node_count() <= full_max) {
        begin_cell();
        const auto t_f = Clock::now();
        auto res = synth::run_flow(g, synth::Flow::NewMerge);
        const double full_ms = ms_since(t_f);
        res.report.design = d.name;
        const auto timing = sta.analyze(res.net);
        cells.push_back(BenchCell{d.name, "full-new-merge",
                                  timing.longest_path_ns,
                                  sta.area_scaled(res.net),
                                  res.partition.num_clusters(), full_ms,
                                  cell_rss_mb()});
        res.report.metrics["delay_ns"] = timing.longest_path_ns;
        res.report.metrics["area"] = sta.area_scaled(res.net);
        res.report.metrics["clusters"] = res.partition.num_clusters();
        obs_session.reports.push_back(std::move(res.report));
      }

      t.add_row({d.name, std::to_string(g.node_count()), fmt(build_ms),
                 fmt(front_end_ms), std::to_string(cr.partition.num_clusters()),
                 fmt(row_rss_mb, 1)});
    }
  }

  std::printf("Scaling curve: new-merge front-end\n\n");
  t.print();
  std::printf(
      "\nReading: the front-end stays near-linear in nodes; it is one\n"
      "serial sweep per analysis and per break check.\n");
  if (!per_cell_rss) {
    std::printf(
        "rss(MB): per-cell peak unavailable (/proc/self/clear_refs refused);"
        " the column is the process peak so far.\n");
  }

  if (!args.bench_json.empty()) {
    bench::write_bench_json_file(args.bench_json, "scale", cells,
                                 args.obs.deterministic);
  }
  return 0;
}
