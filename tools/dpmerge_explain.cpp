// dpmerge-explain — decision provenance and critical-path attribution CLI.
//
// Loads datapath sources (.dp, the frontend expression language) or
// serialized DFGs (.dfg), runs the requested synthesis flows, and explains
// the result: which merge decision the clusterer took at every operator
// (and which rule fired), and how much of the STA worst path each decision
// is responsible for. Per design it emits
//   - a per-decision delay/area ledger (text and/or JSON),
//   - flow-vs-flow decision diffs (new vs old, new vs none) naming the
//     operators on which the flows disagreed and the delay each side bills,
//   - optional Graphviz DOT of the DFG coloured by cluster with the
//     critical path overlaid (--dot).
//
// Usage: dpmerge-explain [options] <file|design>...
//   Inputs may be .dp/.dfg paths or bare names of the paper's built-in
//   testcases (D1..D5).
//   --flow=new|old|none|all  flows to run (default all; diffs need all)
//   --json <path|->          machine-readable ledgers + diffs
//   --dot <prefix>           write <prefix><design>.<flow>.dot per run
//   --verilog <prefix>       write <prefix><design>.<flow>.v per run
//   -q                       suppress the human-readable reports
//
// Plus the shared observability flags (obs/session.h): --stats-json,
// --trace, --profile, --events, --seed (recorded in the JSON artifact —
// the flows are deterministic; the seed only tags the output),
// --stats-deterministic. Same dialect as the benches and dpmerge-lint.
//
// Exit status: 0 ok, 1 a flow failed or attribution did not reconcile, 2
// usage/IO errors.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/io.h"
#include "dpmerge/frontend/parser.h"
#include "dpmerge/netlist/verilog.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/session.h"
#include "dpmerge/obs/stats.h"
#include "dpmerge/synth/explain.h"

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string file_stem(const std::string& path) {
  std::size_t b = path.find_last_of('/');
  b = (b == std::string::npos) ? 0 : b + 1;
  std::size_t e = path.find_last_of('.');
  if (e == std::string::npos || e <= b) e = path.size();
  return path.substr(b, e - b);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpmerge;

  bool want[3] = {true, true, true};  // indexed by synth::Flow
  std::string json_path, dot_prefix, verilog_prefix;
  obs::ObsArgs oargs;
  oargs.seed = 0;  // kept from the tool's pre-obs contract
  bool quiet = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (obs::parse_obs_arg(argc, argv, i, &oargs)) continue;
    const std::string arg = argv[i];
    if (arg.rfind("--flow=", 0) == 0) {
      const std::string f = arg.substr(7);
      want[0] = want[1] = want[2] = false;
      if (f == "none") {
        want[0] = true;
      } else if (f == "old") {
        want[1] = true;
      } else if (f == "new") {
        want[2] = true;
      } else if (f == "all") {
        want[0] = want[1] = want[2] = true;
      } else {
        std::fprintf(stderr, "dpmerge-explain: bad --flow '%s'\n", f.c_str());
        return 2;
      }
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_prefix = argv[++i];
    } else if (arg == "--verilog" && i + 1 < argc) {
      verilog_prefix = argv[++i];
    } else if (arg == "-q") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: dpmerge-explain [--flow=new|old|none|all] [--json <path|->] "
          "[--dot <prefix>] [--verilog <prefix>] "
          "[-q] [obs flags] <file>...\n%s",
          obs::obs_usage());
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dpmerge-explain: unknown option '%s'\n",
                   arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "dpmerge-explain: no input files (try --help)\n");
    return 2;
  }
  const synth::SynthOptions sopt;

  // Artifact lifecycle; a flow failure here is a reported finding (exit 1),
  // not a crash, so check-failure dumps stay off.
  obs::CrashOptions crash;
  crash.dump_on_check_failure = false;
  obs::ArtifactSession session("dpmerge-explain", oargs, crash);

  const netlist::CellLibrary& lib = netlist::CellLibrary::tsmc025();
  std::string json = "{\"tool\":\"dpmerge-explain\",\"seed\":" +
                     std::to_string(oargs.seed) + ",\"designs\":[";
  bool first_design = true;
  int failures = 0;

  for (const std::string& path : files) {
    std::string design = file_stem(path);
    dfg::Graph graph;
    bool builtin = false;
    for (const auto& tc : designs::all_testcases()) {
      if (path == tc.name) {
        design = tc.name;
        graph = tc.graph;
        builtin = true;
        break;
      }
    }
    if (!builtin) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr,
                     "dpmerge-explain: cannot read '%s' (not a file and not "
                     "a built-in testcase)\n",
                     path.c_str());
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string source = ss.str();
      try {
        if (ends_with(path, ".dfg")) {
          graph = dfg::parse_graph(source);
        } else {
          auto res = frontend::compile(source);
          if (!res.name.empty()) design = res.name;
          graph = std::move(res.graph);
        }
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "dpmerge-explain: %s: %s\n", path.c_str(),
                     e.what());
        return 2;
      }
    }

    // Run the requested flows.
    std::vector<synth::Explanation> runs(3);
    bool have[3] = {false, false, false};
    for (int f = 0; f < 3; ++f) {
      if (!want[f]) continue;
      try {
        runs[f] =
            synth::explain_flow(graph, static_cast<synth::Flow>(f), lib, sopt);
        runs[f].result.report.design = design;
        runs[f].ledger.design = design;
        session.reports.push_back(runs[f].result.report);
        have[f] = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "dpmerge-explain: %s [%s]: %s\n", path.c_str(),
                     std::string(synth::to_string(static_cast<synth::Flow>(f)))
                         .c_str(),
                     e.what());
        ++failures;
      }
    }

    // The acceptance check the tests also enforce: attributed worst-path
    // delay must reconcile with the STA total.
    for (int f = 0; f < 3; ++f) {
      if (!have[f]) continue;
      const auto& e = runs[f];
      if (std::fabs(e.ledger.attributed_ns - e.ledger.total_delay_ns) >
          1e-6 * std::max(1.0, e.ledger.total_delay_ns)) {
        std::fprintf(stderr,
                     "dpmerge-explain: %s [%s]: attribution mismatch "
                     "(%.9f ns attributed vs %.9f ns worst path)\n",
                     design.c_str(), e.ledger.flow.c_str(),
                     e.ledger.attributed_ns, e.ledger.total_delay_ns);
        ++failures;
      }
    }

    std::vector<obs::prov::LedgerDiff> diffs;
    const int kNew = static_cast<int>(synth::Flow::NewMerge);
    if (have[kNew]) {
      for (int f : {static_cast<int>(synth::Flow::OldMerge),
                    static_cast<int>(synth::Flow::NoMerge)}) {
        if (have[f]) diffs.push_back(diff_explanations(runs[kNew], runs[f]));
      }
    }

    if (!quiet) {
      std::printf("== %s ==\n", design.c_str());
      for (int f = 0; f < 3; ++f) {
        if (have[f]) std::printf("%s", runs[f].ledger.to_text().c_str());
      }
      for (const auto& d : diffs) std::printf("%s", d.to_text().c_str());
    }

    if (!dot_prefix.empty()) {
      for (int f = 0; f < 3; ++f) {
        if (!have[f]) continue;
        const std::string dot_path =
            dot_prefix + design + "." + runs[f].ledger.flow + ".dot";
        std::ofstream os(dot_path);
        if (!os) {
          std::fprintf(stderr, "dpmerge-explain: cannot write '%s'\n",
                       dot_path.c_str());
          return 2;
        }
        os << synth::provenance_dot(runs[f]);
        if (!quiet) std::printf("wrote %s\n", dot_path.c_str());
      }
    }

    if (!verilog_prefix.empty()) {
      for (int f = 0; f < 3; ++f) {
        if (!have[f]) continue;
        const std::string flow_name(
            synth::to_string(static_cast<synth::Flow>(f)));
        const std::string v_path =
            verilog_prefix + design + "." + flow_name + ".v";
        std::ofstream os(v_path);
        if (!os) {
          std::fprintf(stderr, "dpmerge-explain: cannot write '%s'\n",
                       v_path.c_str());
          return 2;
        }
        os << netlist::to_verilog(runs[f].result.net, design);
        if (!quiet) std::printf("wrote %s\n", v_path.c_str());
      }
    }

    json += first_design ? "\n" : ",\n";
    first_design = false;
    json += "{\"design\":";
    obs::json_append_quoted(json, design);
    json += ",\"ledgers\":[";
    bool first = true;
    for (int f = 0; f < 3; ++f) {
      if (!have[f]) continue;
      if (!first) json += ",";
      first = false;
      runs[f].ledger.to_json(json);
    }
    json += "],\"diffs\":[";
    for (std::size_t i = 0; i < diffs.size(); ++i) {
      if (i) json += ",";
      diffs[i].to_json(json);
    }
    json += "]}";
  }
  json += "\n]}\n";

  if (!json_path.empty()) {
    if (json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream os(json_path);
      if (!os) {
        std::fprintf(stderr, "dpmerge-explain: cannot write '%s'\n",
                     json_path.c_str());
        return 2;
      }
      os << json;
    }
  }
  return failures ? 1 : 0;
}
