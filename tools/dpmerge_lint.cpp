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
//                             policy and emit the per-node fact report of its
//                             fixpoint (check::compute_absint — known bits,
//                             intervals, congruences, demanded bits; text, or
//                             an "absint" object with --json)
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
//   --threads=<n>             parallel width for the analysis/cluster stages
//                             (1 = serial default, 0 = one thread per core);
//                             results are bit-identical at any setting
//   --concurrency             run the parallel-sweep race lint instead of the
//                             per-file checks: audits every parallel_for
//                             job's per-task read/write footprints for
//                             disjointness over the built-in scaling suite
//                             (plus any input files), then re-runs each flow
//                             under the seeded stress scheduler and asserts
//                             byte-identical DecisionLogs and netlists
//                             across the interleavings (DESIGN.md §12)
//   --interleavings=<n>       stress-scheduler seeds to try (default 100)
//   --scale-nodes=<n>         target size of the built-in scaling suite used
//                             by --concurrency (default 20000)
//   -q                        suppress per-file OK lines
//
// Plus the shared observability flags (obs/session.h): --stats-json,
// --trace, --profile, --metrics, --events, --seed, --stats-deterministic —
// the same artifact dialect the benches and dpmerge-explain speak.
//
// Exit status: 0 all clean, 1 findings (errors or warnings), 2 usage/IO.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dpmerge/check/absint_engine.h"
#include "dpmerge/check/absint_netlist.h"
#include "dpmerge/check/check.h"
#include "dpmerge/designs/scale.h"
#include "dpmerge/dfg/io.h"
#include "dpmerge/frontend/parser.h"
#include "dpmerge/netlist/verilog.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/session.h"
#include "dpmerge/support/access_audit.h"
#include "dpmerge/support/thread_pool.h"
#include "dpmerge/synth/flow.h"

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Parses/compiles one lint input into a DFG (shared by the per-file checks
/// and the --concurrency design list). Returns false with a diagnostic on
/// parse failure.
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

/// The --concurrency mode: a dynamic race lint over the library's parallel
/// sweeps. Two phases per design:
///
///  1. Footprint audit — `support::audit::AccessAudit` records every task's
///     read/write footprint over (domain, id) resources while the full
///     new-merge flow runs; after each parallel_for job the auditor checks
///     pairwise write/write and read/write disjointness across tasks. A
///     violation names the owning sweep and the contested resource.
///
///  2. Stress interleavings — re-runs the flow under the pool's seeded
///     stress scheduler (randomised dispatch order + per-task jitter) for
///     `interleavings` distinct seeds and asserts the DecisionLog JSON and
///     emitted Verilog are byte-identical to the serial (threads=1,
///     unstressed) reference every time.
///
/// Together these turn the determinism contract ("each fn(i) writes only
/// its own slots; results are schedule-independent") into a checked
/// property over the real workloads.
int run_concurrency_lint(const std::vector<std::string>& files, int threads,
                         int interleavings, int scale_nodes, bool quiet) {
  using namespace dpmerge;
  namespace audit = support::audit;

  std::vector<designs::ScaleDesign> suite = designs::scale_suite(scale_nodes);
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "dpmerge-lint: cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    check::CheckReport rep;
    dfg::Graph g;
    if (!load_graph(path, ss.str(), g, rep)) {
      std::printf("%s:\n%s", path.c_str(), rep.to_text().c_str());
      return 1;
    }
    suite.push_back({path, std::move(g)});
  }

  support::ThreadPool::set_shared_threads(threads);
  synth::SynthOptions par;
  par.threads = threads;
  synth::SynthOptions serial;
  serial.threads = 1;

  int findings = 0;
  audit::AccessAudit& aud = audit::AccessAudit::instance();

  if (!quiet) {
    std::printf(
        "concurrency: auditing parallel-sweep write footprints over %d "
        "designs (threads=%d)\n",
        static_cast<int>(suite.size()), threads);
  }
  for (const auto& d : suite) {
    aud.clear();
    aud.set_enabled(true);
    try {
      (void)synth::run_flow(d.graph, synth::Flow::NewMerge, par);
    } catch (const std::exception& e) {
      aud.set_enabled(false);
      std::printf("  %s: flow failed under audit: %s\n", d.name.c_str(),
                  e.what());
      ++findings;
      continue;
    }
    aud.set_enabled(false);
    const auto violations = aud.take_violations();
    if (!violations.empty()) {
      ++findings;
      std::printf("  %s: %d overlap(s)\n", d.name.c_str(),
                  static_cast<int>(violations.size()));
      for (const auto& v : violations) {
        std::printf("    %s\n", v.to_text().c_str());
      }
    } else if (!quiet) {
      std::printf("  %s: OK (%lld jobs, %lld accesses, disjoint)\n",
                  d.name.c_str(),
                  static_cast<long long>(aud.jobs_audited()),
                  static_cast<long long>(aud.accesses_recorded()));
    }
  }

  if (!quiet) {
    std::printf("concurrency: stress scheduler, %d interleavings per design\n",
                interleavings);
  }
  for (const auto& d : suite) {
    synth::FlowResult ref;
    try {
      ref = synth::run_flow(d.graph, synth::Flow::NewMerge, serial);
    } catch (const std::exception& e) {
      std::printf("  %s: serial reference flow failed: %s\n", d.name.c_str(),
                  e.what());
      ++findings;
      continue;
    }
    std::string ref_dec;
    ref.decisions.to_json(ref_dec);
    const std::string ref_v = netlist::to_verilog(ref.net, "lint");

    int mismatches = 0;
    for (int s = 0; s < interleavings; ++s) {
      support::ThreadPool::StressOptions stress;
      stress.enabled = true;
      stress.seed = static_cast<std::uint64_t>(s);
      support::ThreadPool::shared().set_stress(stress);
      synth::FlowResult got;
      try {
        got = synth::run_flow(d.graph, synth::Flow::NewMerge, par);
      } catch (const std::exception& e) {
        std::printf("  %s: seed %d: flow failed: %s\n", d.name.c_str(), s,
                    e.what());
        ++mismatches;
        continue;
      }
      std::string dec;
      got.decisions.to_json(dec);
      if (dec != ref_dec) {
        std::printf("  %s: seed %d: DecisionLog differs from serial run\n",
                    d.name.c_str(), s);
        ++mismatches;
      } else if (netlist::to_verilog(got.net, "lint") != ref_v) {
        std::printf("  %s: seed %d: netlist differs from serial run\n",
                    d.name.c_str(), s);
        ++mismatches;
      }
    }
    support::ThreadPool::shared().set_stress({});
    if (mismatches) {
      ++findings;
    } else if (!quiet) {
      std::printf("  %s: OK (byte-identical across %d interleavings)\n",
                  d.name.c_str(), interleavings);
    }
  }

  if (findings) {
    std::printf("concurrency: FAIL (%d finding(s))\n", findings);
  } else if (!quiet) {
    std::printf("concurrency: OK\n");
  }
  return findings ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpmerge;

  check::CheckPolicy policy = check::CheckPolicy::Paranoid;
  bool run_flows = false, explain_rejects = false, json = false, quiet = false;
  bool absint = false, deadlogic = false;
  bool concurrency = false;
  bool threads_given = false;
  int threads = 1;
  int interleavings = 100;
  int scale_nodes = 20000;
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
    } else if (arg.rfind("--threads=", 0) == 0) {
      char* end = nullptr;
      threads = static_cast<int>(std::strtol(arg.c_str() + 10, &end, 10));
      if (end == arg.c_str() + 10 || *end != '\0' || threads < 0) {
        std::fprintf(stderr, "dpmerge-lint: bad --threads '%s'\n",
                     arg.c_str() + 10);
        return 2;
      }
      threads_given = true;
    } else if (arg == "--concurrency") {
      concurrency = true;
    } else if (arg.rfind("--interleavings=", 0) == 0) {
      char* end = nullptr;
      interleavings =
          static_cast<int>(std::strtol(arg.c_str() + 16, &end, 10));
      if (end == arg.c_str() + 16 || *end != '\0' || interleavings < 1) {
        std::fprintf(stderr, "dpmerge-lint: bad --interleavings '%s'\n",
                     arg.c_str() + 16);
        return 2;
      }
    } else if (arg.rfind("--scale-nodes=", 0) == 0) {
      char* end = nullptr;
      scale_nodes = static_cast<int>(std::strtol(arg.c_str() + 14, &end, 10));
      if (end == arg.c_str() + 14 || *end != '\0' || scale_nodes < 1) {
        std::fprintf(stderr, "dpmerge-lint: bad --scale-nodes '%s'\n",
                     arg.c_str() + 14);
        return 2;
      }
    } else if (arg == "-q") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: dpmerge-lint [--policy=errors|paranoid] [--absint] "
          "[--deadlogic] [--flow] "
          "[--explain-rejects] [--json] [--threads=<n>] [--concurrency] "
          "[--interleavings=<n>] [--scale-nodes=<n>] [-q] [obs flags] "
          "<file>...\n%s",
          obs::obs_usage());
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dpmerge-lint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  // Artifact lifecycle (--trace/--profile/--metrics/--events/--stats-json):
  // check-failure dumps stay off — this tool provokes CheckFailures on
  // purpose and reports them as findings, not crashes.
  obs::CrashOptions crash;
  crash.dump_on_check_failure = false;
  obs::ArtifactSession session("dpmerge-lint", oargs, crash);
  if (concurrency) {
    // The race lint exercises real parallelism by default; an explicit
    // --threads (e.g. 1 to audit the instrumented serial path) still wins.
    return run_concurrency_lint(files, threads_given ? threads : 4,
                                interleavings, scale_nodes, quiet);
  }
  if (files.empty()) {
    std::fprintf(stderr, "dpmerge-lint: no input files (try --help)\n");
    return 2;
  }
  support::ThreadPool::set_shared_threads(threads);
  synth::SynthOptions sopt;
  sopt.threads = threads;

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
        const auto ia = analysis::compute_info_content(graph, {}, threads);
        const auto rp = analysis::compute_required_precision(graph, threads);
        const auto facts = check::compute_absint(graph);
        rep.merge(check::lint_absint(graph, &ia, &rp, &facts));
        if (absint && json) {
          facts_json = check::absint_facts_json(graph, facts);
        } else if (absint) {
          std::printf("%s: absint facts (%d round(s)):\n%s", path.c_str(),
                      facts.rounds,
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
            if (!dpmerge::obs::compiled_in()) {
              std::printf(
                  "%s: new-merge merged nothing (provenance compiled out; "
                  "rebuild with DPMERGE_OBS=ON for reject reasons)\n",
                  path.c_str());
            } else {
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
            // Warnings off: synthesized netlists legitimately contain unread
            // helper gates (unused carry tails, comparator internals).
            check::NetVerifyOptions nopts;
            nopts.warnings = false;
            rep.merge(check::verify(res.net, nullptr, nopts));
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
