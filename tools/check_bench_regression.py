#!/usr/bin/env python3
"""Compare BENCH_<name>.json trajectory artifacts against checked-in baselines.

Usage: check_bench_regression.py [--threshold PCT] [--metrics M,M] \
           CURRENT BASELINE [CURRENT BASELINE ...]

Each pair is compared cell-by-cell on the (design, flow) key. A cell fails
when one of the gated metrics (default: delay, area) exceeds the baseline
by more than the threshold (default 10%). The scale bench is gated on
--metrics cpa_count,delay,area at --threshold 0 instead: wall-clock and RSS
vary with the runner, but the cluster structure and full-flow QoR of a
deterministic flow must not drift. wall_ms and
rss_mb are therefore *informational*: listing them in --metrics reports
excesses as notes without failing the run, unless --gate-informational
promotes them to real failures (for a dedicated-hardware runner where
timing and footprint are stable enough to gate on). Cells
present in the baseline but missing from the current run fail too (a bench
that silently drops a design must not pass); *new* cells in the current run
are allowed (the baseline is refreshed when designs are added).

Exit status: 0 all within threshold, 1 regressions found, 2 usage/IO.
"""

import argparse
import json
import sys


def load_cells(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load '{path}': {e}", file=sys.stderr)
        sys.exit(2)
    cells = {}
    for cell in doc.get("cells", []):
        key = (cell.get("design"), cell.get("flow"))
        if key in cells:
            print(f"error: '{path}' has duplicate cell {key}", file=sys.stderr)
            sys.exit(2)
        cells[key] = cell
    return doc.get("bench", "?"), cells, doc.get("sanitizer")


# Runner-dependent metrics: reported, never gated by default. Everything a
# deterministic flow computes (delay, area, cpa_count) is gated as before.
INFORMATIONAL = {"wall_ms", "rss_mb"}


def compare(current_path, baseline_path, threshold, metrics,
            gate_informational=False):
    bench, current, sanitizer = load_cells(current_path)
    _, baseline, _ = load_cells(baseline_path)
    if sanitizer:
        # Sanitizer-built artifacts (asan/tsan CI jobs) carry instrumentation
        # overhead; comparing them against clean-build baselines would only
        # produce noise. The sanitized run's value is the sanitizer's own
        # verdict, not the metrics.
        print(f"SKIP: {bench}: '{current_path}' built with "
              f"-fsanitize={sanitizer}; not compared against baseline")
        return bench, [], [], [], 0
    failures = []
    notes = []
    for key, base in sorted(baseline.items()):
        cur = current.get(key)
        if cur is None:
            failures.append(f"{bench} {key}: missing from current run")
            continue
        for metric in metrics:
            b, c = base.get(metric, 0.0), cur.get(metric, 0.0)
            limit = b * (1.0 + threshold / 100.0)
            if b > 0 and c > limit:
                msg = (
                    f"{bench} design={key[0]} flow={key[1]}: {metric} "
                    f"{c:.4f} exceeds baseline {b:.4f} by "
                    f"{100.0 * (c - b) / b:.1f}% (> {threshold:.0f}%)"
                )
                if metric in INFORMATIONAL and not gate_informational:
                    notes.append(msg)
                else:
                    failures.append(msg)
    extra = sorted(set(current) - set(baseline))
    return bench, failures, notes, extra, len(baseline)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="allowed regression in percent (default 10)")
    ap.add_argument("--metrics", default="delay,area",
                    help="comma-separated cell metrics to gate "
                         "(default: delay,area)")
    ap.add_argument("--gate-informational", action="store_true",
                    help="fail (instead of note) on wall_ms/rss_mb excesses")
    ap.add_argument("files", nargs="+", metavar="CURRENT BASELINE",
                    help="alternating current/baseline json paths")
    args = ap.parse_args()
    if len(args.files) % 2 != 0:
        ap.error("expected CURRENT BASELINE pairs")
    metrics = [m for m in args.metrics.split(",") if m]
    if not metrics:
        ap.error("--metrics needs at least one metric name")

    any_failures = False
    for i in range(0, len(args.files), 2):
        bench, failures, notes, extra, n = compare(
            args.files[i], args.files[i + 1], args.threshold, metrics,
            args.gate_informational)
        for f in failures:
            print(f"FAIL: {f}")
        for m in notes:
            print(f"note: {m} [informational]")
        if failures:
            any_failures = True
        else:
            print(f"OK: {bench}: {n} cell(s) within {args.threshold:.0f}% "
                  f"of baseline")
        for key in extra:
            print(f"note: {bench} {key}: new cell, not in baseline "
                  f"(refresh bench/baselines/ to track it)")
    return 1 if any_failures else 0


if __name__ == "__main__":
    sys.exit(main())
