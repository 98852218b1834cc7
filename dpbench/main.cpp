// dpbench: the dpmerge benchmark program. Runs one workload in a closed loop
// (one operation at a time, each round in an order shuffled by the seed)
// for a fixed time, checks every output, prints every metric by name with
// its unit, and ends with one JSON result line.
//
//   dpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--threads <n>] [--trace-out <file>]
//   dpbench --workload <name> --seed <n> --counters [--threads <n>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 splits the time into
// an untraced and a traced half and reports the per-layer metrics.
// --counters runs every operation once and prints its deterministic
// counters (the self-test compares them across runs and pool widths).
// README.md describes the workloads and every metric.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dpmerge/obs/memory.h"
#include "dpmerge/support/thread_pool.h"
#include "workloads.h"

namespace {

using namespace dpbench;

/// Set-up runs at least kMinSetupReps times and for kSetupLeadS before the
/// timed phase, then again between untraced operations whenever one more
/// keeps set-up within kSetupShare of the operation time (so a set-up of
/// seconds, whose memory would show in peak_rss_mb, stays out of a short
/// run); setup_s is the median of every repetition. A set-up of a few milliseconds is at the mercy of a
/// shared host's slow spells, so its repetitions are spread over the same
/// stretch of time as the operations.
constexpr int kMinSetupReps = 3;
constexpr double kSetupLeadS = 0.25;
constexpr double kSetupShare = 0.05;
/// Candidate tail percentiles; the highest with >= 10 samples beyond wins.
constexpr double kTailLadder[] = {50, 75, 90, 95, 99, 99.9};
constexpr int kTailBeyond = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int threads = 0;  ///< 0: min(4, cores)
  bool counters = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "dpbench: %s\n"
               "usage: dpbench --workload <paper_table|gate_heavy|cluster_100k>"
               " --seed <n> (--seconds <s> --trace <0|1> [--trace-out <file>]"
               " | --counters) [--threads <n>]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") usage("runs one benchmark workload");
    if (arg == "--counters") {
      a.counters = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = true;
      if (*end == '\0' && !(a.seconds > 0 && a.seconds <= 600)) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      have_trace = true;
      if (*end == '\0' && a.trace != 0 && a.trace != 1) usage("--trace is 0 or 1");
    } else if (arg == "--threads") {
      a.threads = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end == '\0' && (a.threads < 1 || a.threads > 256)) {
        usage("--threads must be in [1, 256]");
      }
    } else if (arg == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown argument " + arg);
    }
    if (end && (*end != '\0' || v.empty())) usage("bad number for " + arg + ": " + v);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!a.counters && (!have_seconds || !have_trace)) {
    usage("--seconds and --trace are required");
  }
  return a;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Tail {
  double pct = 0, value = 0;
  std::size_t beyond = 0;
};

std::size_t nearest_rank(double pct, std::size_t n) {
  return static_cast<std::size_t>(
      std::max(1.0, std::ceil(pct / 100.0 * static_cast<double>(n))));
}

/// Nearest-rank value of the highest ladder percentile that leaves at
/// least kTailBeyond samples above it (the median when none does). The
/// percentile is chosen for `n_min`, the fewest samples a run can take, so
/// that every run of a workload reports the same percentile.
Tail tail(std::vector<double> v, std::size_t n_min) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : kTailLadder) {
    if (p != kTailLadder[0] && n_min - nearest_rank(p, n_min) < kTailBeyond) break;
    const std::size_t rank = nearest_rank(p, n);
    t = {p, p == kTailLadder[0] ? median(v) : v[rank - 1], n - rank};
  }
  return t;
}

/// Runs one operation; a library exception counts as a failed operation.
OpOutcome run_op(Workload& wl, int i, Tracer* tr) {
  try {
    return wl.run(i, tr);
  } catch (const std::exception& e) {
    OpOutcome o;
    o.ok = false;
    o.why = std::string("exception: ") + e.what();
    return o;
  }
}

/// Timed repetitions of a workload's set-up. Each rebuilds the designs and
/// reference results the operations use, identically for the same seed.
struct Setup {
  Workload& wl;
  std::uint64_t seed;
  int threads;
  std::vector<double> reps_s;

  double rep() {
    const std::int64_t t0 = now_ns();
    wl.setup(seed, threads);
    reps_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return reps_s.back();
  }
};

/// One timed phase: whole rounds of every operation until `seconds` of
/// operations pass. With `setup`, set-up repetitions are interleaved
/// between operations and left out of the phase's wall time.
struct Phase {
  std::vector<std::vector<double>> op_ms;  ///< per operation index, ok runs
  std::vector<OpOutcome> by_op;      ///< last outcome per operation index
  int rounds = 0;
  std::int64_t attempted = 0, failed = 0, nodes = 0;
  double wall_s = 0.0;
  double opt_ms = 0.0;
  std::int64_t moves = 0;
  double serial_prepare_ms = 0.0;
  double synth_rss_delta_mb = -1.0;  ///< max over operations
};

Phase measure(Workload& wl, const std::string& name, Tracer* tr,
              double seconds, int min_rounds, std::mt19937_64& rng,
              Setup* setup) {
  Phase ph;
  const int n = wl.op_count();
  ph.by_op.resize(static_cast<std::size_t>(n));
  ph.op_ms.resize(static_cast<std::size_t>(n));
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  const std::int64_t t0 = now_ns();
  double setup_s = 0.0;
  auto elapsed_s = [&] { return static_cast<double>(now_ns() - t0) / 1e9 - setup_s; };
  while (ph.rounds < min_rounds || elapsed_s() < seconds) {
    for (int k = n - 1; k > 0; --k) {
      std::swap(order[static_cast<std::size_t>(k)],
                order[static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(k + 1))]);
    }
    for (const int i : order) {
      if (tr) tr->set_op(static_cast<int>(ph.attempted), wl.op_label(i));
      ++ph.attempted;
      OpOutcome o = run_op(wl, i, tr);
      if (o.ok) {
        ph.op_ms[static_cast<std::size_t>(i)].push_back(o.op_ms);
        ph.nodes += o.nodes;
      } else {
        ++ph.failed;
        std::fprintf(stderr, "dpbench: %s %s failed: %s\n", name.c_str(),
                     wl.op_label(i).c_str(), o.why.c_str());
      }
      ph.opt_ms += o.opt_ms;
      ph.moves += o.moves;
      ph.serial_prepare_ms += o.serial_prepare_ms;
      ph.synth_rss_delta_mb = std::max(ph.synth_rss_delta_mb, o.synth_rss_delta_mb);
      ph.by_op[static_cast<std::size_t>(i)] = std::move(o);
      while (setup && setup_s + setup->reps_s.back() <= kSetupShare * elapsed_s()) {
        setup_s += setup->rep();
      }
    }
    ++ph.rounds;
  }
  ph.wall_s = elapsed_s();
  return ph;
}

/// Every successful operation's wall time in the phase.
std::vector<double> op_times(const Phase& ph) {
  std::vector<double> out;
  for (const auto& v : ph.op_ms) out.insert(out.end(), v.begin(), v.end());
  return out;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) /
                               static_cast<double>(v.size());
}

/// Deterministic per-round totals: every operation counted once.
struct Totals {
  std::int64_t gates = 0, nets = 0, csa_rows = 0, cpa_count = 0;
  std::int64_t verify_trials = 0, clusters = 0, iterations = 0;
  std::int64_t moves = 0, met_target = 0;
  double delay_geomean = 0.0, area_geomean = 0.0;
};

Totals totals(const Phase& ph) {
  Totals t;
  double log_delay = 0.0, log_area = 0.0;
  int netlists = 0;
  for (const OpOutcome& o : ph.by_op) {
    t.gates += o.gates;
    t.nets += o.nets;
    t.csa_rows += o.csa_rows;
    t.cpa_count += o.cpa_count;
    t.verify_trials += o.verify_trials;
    t.clusters += o.clusters;
    t.iterations += o.iterations;
    t.moves += o.moves;
    t.met_target += o.met_target ? 1 : 0;
    if (o.has_netlist && o.delay_ns > 0 && o.area > 0) {
      log_delay += std::log(o.delay_ns);
      log_area += std::log(o.area);
      ++netlists;
    }
  }
  if (netlists) {
    t.delay_geomean = std::exp(log_delay / netlists);
    t.area_geomean = std::exp(log_area / netlists);
  }
  return t;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-28s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
}

std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

/// Runs every operation once, in index order, and prints its counters.
int run_counters(Workload& wl) {
  int failed = 0;
  for (int i = 0; i < wl.op_count(); ++i) {
    const OpOutcome o = run_op(wl, i, nullptr);
    if (!o.ok) {
      ++failed;
      std::fprintf(stderr, "dpbench: %s failed: %s\n", wl.op_label(i).c_str(),
                   o.why.c_str());
    }
    std::printf("%s %s\n", wl.op_label(i).c_str(), o.fingerprint().c_str());
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  auto wl = make_workload(args.workload);
  if (!wl) usage("unknown workload " + args.workload);
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = args.threads ? args.threads : std::min(4, cores);
  dpmerge::support::ThreadPool::set_shared_threads(threads);

  Setup setup{*wl, args.seed, threads, {}};
  auto setup_failed = [&](const std::exception& e) {
    std::fprintf(stderr, "dpbench: %s set-up failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  };
  try {
    const int min_reps = args.counters ? 1 : kMinSetupReps;
    double spent = 0.0;
    while (setup.reps_s.size() < static_cast<std::size_t>(min_reps) ||
           (!args.counters && spent < kSetupLeadS)) {
      spent += setup.rep();
    }
  } catch (const std::exception& e) {
    return setup_failed(e);
  }
  if (args.counters) return run_counters(*wl);

  std::printf("dpbench workload=%s seed=%llu pool_width=%d trace=%d"
              " closed_loop_clients=1 ops_per_round=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              threads, args.trace, wl->op_count());

  std::mt19937_64 rng(args.seed);
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const bool mem = reset_peak_rss();
  // A traced run needs only the median of each half, so one round will do.
  const int min_rounds = args.trace ? 1 : wl->min_rounds();
  Phase plain;
  try {
    // setup_s is an end-to-end metric; the traced run's halves stay alike.
    plain = measure(*wl, args.workload, nullptr, phase_s, min_rounds, rng,
                    args.trace ? nullptr : &setup);
  } catch (const std::exception& e) {
    return setup_failed(e);
  }
  const Totals tot = totals(plain);
  const std::vector<double> times = op_times(plain);
  const double p50 = median(times);
  const Tail tl = tail(times, static_cast<std::size_t>(min_rounds * wl->op_count()));

  std::vector<Metric> e2e{
      {"setup_s", median(setup.reps_s), "s"},
      {"op_ms.p50", p50, "ms"},
      {"op_ms.tail", tl.value, "ms"},
      {"op_ms.mean", mean(times), "ms"},
      {"nodes_per_s", static_cast<double>(plain.nodes) / plain.wall_s, "1/s"},
  };
  // Unavailable rather than stale: without the reset the high-water mark
  // would include set-up, so the metric is left out.
  if (mem) e2e.push_back({"peak_rss_mb", dpmerge::obs::MemorySampler::peak_rss_mb(), "MB"});
  std::printf("end-to-end (untraced: %d rounds, %zu samples, %.3f s; %zu set-ups):\n",
              plain.rounds, times.size(), plain.wall_s, setup.reps_s.size());
  print_metrics(e2e);
  std::printf("  %-28s p%s, %zu of %zu samples beyond it\n", "op_ms.tail is",
              num(tl.pct).c_str(), tl.beyond, times.size());
  if (!mem) std::printf("  peak_rss_mb unavailable: /proc/self/clear_refs refused\n");
  std::vector<Metric> qor;
  qor.push_back({"fail_ratio",
                 static_cast<double>(plain.failed) /
                     static_cast<double>(plain.attempted),
                 "ratio"});
  if (wl->builds_netlists()) {
    qor.push_back({"delay_ns.geomean", tot.delay_geomean, "ns"});
    qor.push_back({"area.geomean", tot.area_geomean, "area"});
    qor.push_back({"cpa_count.sum", static_cast<double>(tot.cpa_count), "count"});
  }
  print_metrics(qor);

  std::int64_t attempted = plain.attempted, failed = plain.failed;
  std::vector<Metric> result = e2e;

  if (args.trace) {
    Tracer tracer;
    const Phase traced = measure(*wl, args.workload, &tracer, phase_s, 1, rng, nullptr);
    attempted += traced.attempted;
    failed += traced.failed;
    // The decomposed flows must produce exactly what run_flow produced.
    for (int i = 0; i < wl->op_count(); ++i) {
      const auto& a = plain.by_op[static_cast<std::size_t>(i)];
      const auto& b = traced.by_op[static_cast<std::size_t>(i)];
      if (a.ok && b.ok && a.fingerprint() != b.fingerprint()) {
        ++failed;
        std::fprintf(stderr,
                     "dpbench: %s %s: traced decomposition differs from the"
                     " untraced flow:\n  untraced %s\n  traced   %s\n",
                     args.workload.c_str(), wl->op_label(i).c_str(),
                     a.fingerprint().c_str(), b.fingerprint().c_str());
      }
    }
    const auto self = tracer.self_ms_by_name();
    const auto total = tracer.total_ms_by_name();
    auto get = [](const std::map<std::string, double>& m, const char* k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    const double ops = static_cast<double>(traced.attempted);
    // Probe sweeps follow new-merge operations only; they are ms per sweep.
    const double probes = std::max(1, tracer.count("probe.rp"));
    static const std::pair<const char*, const char*> kLayers[] = {
        {"frontend.compile", "frontend.compile_ms"},
        {"dfg.copy", "dfg.copy_ms"},
        {"dfg.freeze_validate", "dfg.freeze_validate_ms"},
        {"probe.rp", "analysis.rp_ms"},
        {"probe.ic", "analysis.ic_ms"},
        {"analysis.ic_fixed", "analysis.ic_fixed_ms"},
        {"transform.normalize", "transform.normalize_ms"},
        {"cluster.prepare", "cluster.prepare_ms"},
        {"cluster.maximal", "cluster.maximal_ms"},
        {"cluster.leakage", "cluster.leakage_ms"},
        {"cluster.none", "cluster.none_ms"},
        {"synth.synthesize", "synth.synthesize_ms"},
        {"synth.report", "synth.report_ms"},
        {"netlist.topo", "netlist.topo_ms"},
        {"sta.analyze", "sta.analyze_ms"},
        {"verify", "verify.ms"},
        {"opt.optimize", "opt.optimize_ms"},
    };
    const Totals tt = totals(traced);
    std::vector<Metric> layer;
    for (const auto& [span, metric] : kLayers) {
      const bool probe = std::string_view(span).starts_with("probe.");
      layer.push_back({metric, get(self, span) / (probe ? probes : ops), "ms"});
    }
    const double prepare_ms = get(total, "cluster.prepare");
    const std::vector<double> traced_times = op_times(traced);
    const double traced_p50 = median(traced_times);
    layer.insert(layer.end(), {
        {"cluster.count", static_cast<double>(tt.clusters), "count"},
        {"cluster.iterations", static_cast<double>(tt.iterations), "count"},
        {"cluster.parallel_speedup",
         prepare_ms > 0 ? traced.serial_prepare_ms / prepare_ms : 0.0, "x"},
        {"synth.gates", static_cast<double>(tt.gates), "count"},
        {"synth.nets", static_cast<double>(tt.nets), "count"},
        {"synth.csa_rows", static_cast<double>(tt.csa_rows), "count"},
        {"synth.cpa_count", static_cast<double>(tt.cpa_count), "count"},
        {"verify.trials", static_cast<double>(tt.verify_trials), "count"},
        {"opt.moves", static_cast<double>(tt.moves), "count"},
        {"opt.ms_per_move",
         traced.moves > 0 ? traced.opt_ms / static_cast<double>(traced.moves) : 0.0,
         "ms"},
        {"opt.met_target", static_cast<double>(tt.met_target), "count"},
        {"delay_ns.geomean", tt.delay_geomean, "ns"},
        {"area.geomean", tt.area_geomean, "area"},
        {"trace.overhead_pct", p50 > 0 ? (traced_p50 / p50 - 1.0) * 100.0 : 0.0,
         "%"},
        {"trace.unattributed_pct",
         get(total, "op") > 0 ? get(self, "op") / get(total, "op") * 100.0 : 0.0,
         "%"},
    });
    // Left out, like peak_rss_mb, when the high-water mark cannot be reset.
    const bool synth_mem = !wl->builds_netlists() || traced.synth_rss_delta_mb >= 0;
    if (synth_mem) {
      layer.push_back({"synth.rss_delta_mb",
                       wl->builds_netlists() ? traced.synth_rss_delta_mb : 0.0, "MB"});
    }
    std::printf("per-layer (traced: %d rounds, %zu samples, %.3f s; times are"
                " self ms per operation, probe sweeps ms per sweep):\n",
                traced.rounds, traced_times.size(), traced.wall_s);
    print_metrics(layer);
    if (!synth_mem) {
      std::printf("  synth.rss_delta_mb unavailable: /proc/self/clear_refs refused\n");
    }
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << tracer.chrome_trace();
    }
    result = layer;
  }

  std::printf("%s\n", result_line(failed == 0, attempted, failed, result).c_str());
  return failed == 0 ? 0 : 1;
}
