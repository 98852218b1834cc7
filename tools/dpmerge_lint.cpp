// dpmerge-lint — static checker CLI over the dpmerge::check engines.
//
// Lints datapath sources (the frontend expression language) and serialized
// DFGs (.dfg, see dpmerge/dfg/io.h): parse failures become structured
// "frontend.parse" diagnostics, well-formed inputs run through the IR
// verifier and the analysis-soundness lint, and --flow additionally runs
// the full synthesis flows and verifies every emitted netlist.
//
// Usage: dpmerge-lint [options] <file>...
//   --policy=errors|paranoid  depth of the per-file checks (default paranoid:
//                             verifier + abstract-interpretation lint)
//   --absint                  run the abstract-interpretation lint at any
//                             policy and emit the per-node fact report of
//                             check::compute_absint (known bits, intervals,
//                             congruences, demanded widths; text, or an
//                             "absint" object with --json)
//   --deadlogic               synthesise each input with the new-merge flow
//                             and run the gate-level dead-logic lint on the
//                             emitted netlist (net.absint.* warnings measure
//                             synthesis slack; any finding exits 1)
//   --flow                    run no-merge/old-merge/new-merge on each input
//                             and verify the emitted netlists
//   --explain-rejects         when the new-merge flow merges zero operators,
//                             print the DecisionLog reject reasons (which
//                             break rule fired at each operator, with the
//                             info-content/required-precision evidence)
//   --json                    machine-readable report per file
//   -q                        suppress per-file OK lines
//
// Plus the shared observability flags (obs/session.h): --stats-json,
// --trace, --profile, --events, --seed, --stats-deterministic — the same
// artifact dialect the benches and dpmerge-explain speak.
//
// Exit status: 0 all clean, 1 findings (errors or warnings), 2 usage/IO.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dpmerge/check/absint_engine.h"
#include "dpmerge/check/absint_netlist.h"
#include "dpmerge/check/check.h"
#include "dpmerge/dfg/io.h"
#include "dpmerge/frontend/parser.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/session.h"
#include "dpmerge/synth/flow.h"

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Parses/compiles one lint input into a DFG. Returns false with a
/// diagnostic on parse failure.
bool load_graph(const std::string& path, const std::string& source,
                dpmerge::dfg::Graph& graph, dpmerge::check::CheckReport& rep) {
  namespace check = dpmerge::check;
  if (ends_with(path, ".dfg")) {
    try {
      graph = dpmerge::dfg::parse_graph(source);
      return true;
    } catch (const std::invalid_argument& e) {
      rep.add(check::Severity::Error, "dfg.io.parse", e.what());
      return false;
    }
  }
  auto res = dpmerge::frontend::compile_or_diagnose(source, rep);
  if (!res) return false;
  graph = std::move(res->graph);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpmerge;

  check::CheckPolicy policy = check::CheckPolicy::Paranoid;
  bool run_flows = false, explain_rejects = false, json = false, quiet = false;
  bool absint = false, deadlogic = false;
  obs::ObsArgs oargs;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (obs::parse_obs_arg(argc, argv, i, &oargs)) continue;
    const std::string arg = argv[i];
    if (arg.rfind("--policy=", 0) == 0) {
      const auto p = check::parse_policy(arg.substr(9));
      if (!p || *p == check::CheckPolicy::Off) {
        std::fprintf(stderr, "dpmerge-lint: bad --policy '%s'\n",
                     arg.c_str() + 9);
        return 2;
      }
      policy = *p;
    } else if (arg == "--flow") {
      run_flows = true;
    } else if (arg == "--absint") {
      absint = true;
    } else if (arg == "--deadlogic") {
      deadlogic = true;
    } else if (arg == "--explain-rejects") {
      explain_rejects = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "-q") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: dpmerge-lint [--policy=errors|paranoid] [--absint] "
          "[--deadlogic] [--flow] "
          "[--explain-rejects] [--json] [-q] [obs flags] <file>...\n%s",
          obs::obs_usage());
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dpmerge-lint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  // Artifact lifecycle (--trace/--profile/--events/--stats-json):
  // check-failure dumps stay off — this tool provokes CheckFailures on
  // purpose and reports them as findings, not crashes.
  obs::CrashOptions crash;
  crash.dump_on_check_failure = false;
  obs::ArtifactSession session("dpmerge-lint", oargs, crash);
  if (files.empty()) {
    std::fprintf(stderr, "dpmerge-lint: no input files (try --help)\n");
    return 2;
  }
  const synth::SynthOptions sopt;

  int findings = 0;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "dpmerge-lint: cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string source = ss.str();

    check::CheckReport rep;
    dfg::Graph graph;
    const bool have_graph = load_graph(path, source, graph, rep);

    std::string facts_json;
    if (have_graph) {
      rep.merge(check::verify(graph));
      if (rep.ok() && (absint || policy == check::CheckPolicy::Paranoid)) {
        const auto ia = analysis::compute_info_content(graph);
        const auto rp = analysis::compute_required_precision(graph);
        const auto facts = check::compute_absint(graph);
        rep.merge(check::lint_absint(graph, &ia, &rp, &facts));
        if (absint && json) {
          facts_json = check::absint_facts_json(graph, facts);
        } else if (absint) {
          std::printf("%s: absint facts:\n%s", path.c_str(),
                      check::absint_facts_text(graph, facts).c_str());
        }
      }
      if (rep.ok() && deadlogic) {
        try {
          auto res = synth::run_flow(graph, synth::Flow::NewMerge, sopt);
          res.report.design = path;
          session.reports.push_back(res.report);
          check::NetlistAbsintStats st;
          rep.merge(check::lint_netlist_deadlogic(res.net, &st));
          if (!json && !quiet) {
            std::printf(
                "%s: deadlogic: %d gate(s), %d constant, %d unobservable\n",
                path.c_str(), st.gates, st.constant_cells,
                st.unobservable_cells);
          }
        } catch (const check::CheckFailure& e) {
          rep.merge(e.report());
        }
      }
      if (rep.ok() && explain_rejects) {
        try {
          const auto res = synth::run_flow(graph, synth::Flow::NewMerge, sopt);
          if (res.report.merge_decisions == 0) {
            std::printf("%s: new-merge merged nothing; reject reasons:\n",
                        path.c_str());
            for (const auto id : res.decisions.final_decisions()) {
              const auto& d = res.decisions.decision(id);
              if (d.verdict != obs::prov::Verdict::Reject) continue;
              std::printf("  %s\n", d.to_text().c_str());
              for (const auto rid : res.decisions.rejects_for_node(d.node)) {
                if (rid == id) continue;
                std::printf("    %s\n",
                            res.decisions.decision(rid).to_text().c_str());
              }
            }
          }
        } catch (const check::CheckFailure& e) {
          rep.merge(e.report());
        }
      }
      if (rep.ok() && run_flows) {
        check::PolicyScope scope(policy);
        for (const auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                                synth::Flow::NewMerge}) {
          try {
            auto res = synth::run_flow(graph, flow, sopt);
            res.report.design = path;
            session.reports.push_back(res.report);
            rep.merge(check::verify(res.net));
          } catch (const check::CheckFailure& e) {
            rep.merge(e.report());
          }
        }
      }
    }

    if (json) {
      std::string out = "{\"file\":";
      obs::json_append_quoted(out, path);
      if (!facts_json.empty()) {
        out += ",\"absint\":";
        out += facts_json;
      }
      out += ",\"report\":";
      rep.to_json(out);
      out += "}";
      std::printf("%s\n", out.c_str());
    } else if (!rep.clean()) {
      std::printf("%s:\n%s", path.c_str(), rep.to_text().c_str());
    } else if (!quiet) {
      std::printf("%s: OK\n", path.c_str());
    }
    if (!rep.clean()) ++findings;
  }
  return findings ? 1 : 0;
}
