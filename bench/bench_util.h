#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/support/thread_pool.h"

namespace dpmerge::bench {

/// Shared command-line contract of every bench harness. The observability
/// flags (--stats-json, --trace, --profile, --events, --seed,
/// --stats-deterministic — see obs::ObsArgs in obs/session.h) are parsed by
/// obs::parse_obs_arg, the same parser dpmerge-lint and dpmerge-explain
/// use, so every flow-running binary speaks one artifact dialect. On top of
/// those, benches add:
///   --bench-json <path>     BENCH_*.json trajectory artifact
///   --threads <n>           pool width for parallel_for_cells, 0..256
///                           (0 = auto); anything else exits 2
///   --check=<policy>        run flows with pass-boundary checks enabled
///                           (off|errors|paranoid, default off)
///   --help                  print usage and exit
struct BenchArgs {
  obs::ObsArgs obs;
  std::string bench_json;
  int threads = 0;
};

/// Parses the shared flags out of argv. With `allow_unknown` (the
/// google-benchmark harnesses), unrecognised arguments are kept in argv (and
/// argc updated) for the caller's own parser; otherwise they are an error.
inline BenchArgs parse_bench_args(int& argc, char** argv,
                                  bool allow_unknown = false) {
  BenchArgs a;
  auto usage = [&](std::FILE* to) {
    std::fprintf(to,
                 "usage: %s [obs flags] [--bench-json <path>]\n"
                 "          [--threads <n>] [--check=<policy>]\n%s",
                 argc > 0 ? argv[0] : "bench", obs::obs_usage());
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (obs::parse_obs_arg(argc, argv, i, &a.obs)) continue;
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--bench-json") {
      a.bench_json = value();
    } else if (arg == "--threads") {
      const char* v = value();
      const char* end = v + std::strlen(v);
      int n = -1;
      const auto [p, ec] = std::from_chars(v, end, n);
      if (ec != std::errc() || p != end || n < 0 || n > 256) {
        std::fprintf(stderr, "bad --threads '%s' (expected 0..256)\n", v);
        std::exit(2);
      }
      a.threads = n;
    } else if (arg.rfind("--check=", 0) == 0) {
      const auto p = check::parse_policy(arg.substr(8));
      if (!p) {
        std::fprintf(stderr, "bad --check policy '%s'\n", arg.c_str() + 8);
        std::exit(2);
      }
      check::set_policy(*p);
    } else if (arg == "--help" && !allow_unknown) {
      usage(stdout);
      std::exit(0);
    } else if (allow_unknown) {
      argv[out++] = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      usage(stderr);
      std::exit(2);
    }
  }
  if (allow_unknown) argc = out;
  return a;
}

/// The bench-side artifact session: obs::ArtifactSession (flight-recorder
/// capture, crash handlers, and the --stats-json/--trace/--profile/--events
/// artifacts at destruction) constructed from the parsed BenchArgs. The
/// harness fills the inherited `reports` vector (in deterministic cell
/// order) before the session is destroyed.
class ObsSession : public obs::ArtifactSession {
 public:
  ObsSession(std::string bench_name, const BenchArgs& args)
      : obs::ArtifactSession(std::move(bench_name), args.obs) {}
};

/// One cell of the `--bench-json` trajectory artifact: the result metrics
/// for one (design x flow) combination. This is the stable cross-bench
/// schema `tools/check_bench_regression.py` compares against the checked-in
/// baselines under bench/baselines/ — keep the field set append-only.
struct BenchCell {
  std::string design;
  std::string flow;
  double delay_ns = 0.0;
  double area = 0.0;
  std::int64_t cpa_count = 0;
  double wall_ms = 0.0;  ///< zeroed with --stats-deterministic
  double rss_mb = 0.0;   ///< peak RSS after the cell (bench/scale: of the
                         ///< cell alone); zeroed likewise
};

/// Peak resident-set size of this process in MiB, or 0.0 where procfs is
/// unavailable. A thin wrapper over obs::MemorySampler (the one RSS source
/// in the tree); kept because every bench already calls it by this name.
/// A high-water mark: it only grows until obs::MemorySampler::reset_peak(),
/// which bench/scale calls before every cell.
inline double peak_rss_mb() { return obs::MemorySampler::peak_rss_mb(); }

/// Writes the BENCH_<name>.json trajectory artifact: one object per cell,
/// in the order the bench stored them. `zero_wall` (the --stats-deterministic
/// mode) zeroes wall_ms so repeated runs are byte-identical; delay/area/
/// cpa_count are pure functions of the workload already.
inline void write_bench_json(std::ostream& os, std::string_view bench_name,
                             const std::vector<BenchCell>& cells,
                             bool zero_wall) {
  std::string out = "{\"bench\":";
  obs::json_append_quoted(out, bench_name);
  out += ",\"schema\":\"dpmerge-bench-v1\"";
#ifdef DPMERGE_SANITIZER_BUILD
  // Tagged so tools/check_bench_regression.py skips timing comparisons:
  // sanitizer instrumentation distorts wall/delay-independent metrics never,
  // but a sanitized artifact must not overwrite or gate against clean
  // baselines.
  out += ",\"sanitizer\":";
  obs::json_append_quoted(out, DPMERGE_SANITIZER_BUILD);
#endif
  out += ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const BenchCell& c = cells[i];
    out += i ? ",\n" : "\n";
    out += "{\"design\":";
    obs::json_append_quoted(out, c.design);
    out += ",\"flow\":";
    obs::json_append_quoted(out, c.flow);
    out += ",\"delay\":" + obs::json_number(c.delay_ns);
    out += ",\"area\":" + obs::json_number(c.area);
    out += ",\"cpa_count\":" + std::to_string(c.cpa_count);
    out += ",\"wall_ms\":" + obs::json_number(zero_wall ? 0.0 : c.wall_ms);
    out += ",\"rss_mb\":" + obs::json_number(zero_wall ? 0.0 : c.rss_mb);
    out += "}";
  }
  out += "\n]}\n";
  os << out;
}

/// Opens `path` and writes the trajectory artifact, with the usual stderr
/// complaint on IO failure (mirrors ObsSession's --stats-json handling).
inline void write_bench_json_file(const std::string& path,
                                  std::string_view bench_name,
                                  const std::vector<BenchCell>& cells,
                                  bool zero_wall) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "failed to write bench json to '%s'\n", path.c_str());
    return;
  }
  write_bench_json(os, bench_name, cells, zero_wall);
}

/// Runs `fn(cell)` for cell in [0, n) on the process-wide
/// `support::ThreadPool` (hardware concurrency by default; `threads` caps
/// the width, 0 = auto). The table harnesses use this to spread their
/// independent (design x flow) cells.
///
/// Determinism rule: cells must be pure functions of their index that write
/// into pre-sized result slots, and any randomness a cell needs must come
/// from an Rng seeded per cell (never shared across cells), so the thread
/// schedule cannot change a single reported number (DESIGN.md §11).
inline void parallel_for_cells(int n, const std::function<void(int)>& fn,
                               int threads = 0) {
  support::ThreadPool::shared().parallel_for(n, fn, threads);
}

/// Minimal fixed-width table printer for the table/figure harnesses, so the
/// bench output visually matches the paper's rows.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> w(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& r) {
      for (std::size_t i = 0; i < r.size() && i < w.size(); ++i) {
        w[i] = std::max(w[i], r[i].size());
      }
    };
    widen(header_);
    for (const auto& r : rows_) widen(r);
    auto line = [&](const std::vector<std::string>& r) {
      std::printf("|");
      for (std::size_t i = 0; i < w.size(); ++i) {
        std::printf(" %-*s |", static_cast<int>(w[i]),
                    i < r.size() ? r[i].c_str() : "");
      }
      std::printf("\n");
    };
    line(header_);
    std::printf("|");
    for (std::size_t i = 0; i < w.size(); ++i) {
      std::printf("%s|", std::string(w[i] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

inline std::string pct_reduction(double before, double after) {
  if (before <= 0) return "-";
  return fmt(100.0 * (before - after) / before, 1);
}

}  // namespace dpmerge::bench
