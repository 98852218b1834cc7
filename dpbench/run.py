#!/usr/bin/env python3
"""Builds and runs the dpmerge benchmark (README.md in this directory).

Run from the root of a checkout:

  python3 dpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 dpbench/run.py --selftest [--workload <name>] [--seed <n>]

The benchmark package is configured and built on first use into
$CARGO_TARGET_DIR/dpbench (default .bench_build/dpbench). Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result. A
traced run also writes its spans to trace-<workload>-<seed>.json there.

--selftest runs every operation of each workload three times (pool width
1, 1 again, then 4) and checks that the deterministic counters and QoR
repeat exactly.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_table", "gate_heavy", "cluster_100k"]
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "dpbench")


def build():
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", "dpbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("dpbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "dpbench")


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def counters(exe, workload, seed, threads):
    cmd = [exe, "--workload", workload, "--seed", seed, "--counters", "--threads", str(threads)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return res.returncode, res.stdout


def selftest(exe, argv):
    seed = option(argv, "--seed", "1")
    names = [option(argv, "--workload", None)] if "--workload" in argv else WORKLOADS
    ok = True
    for name in names:
        runs = [counters(exe, name, seed, t) for t in (1, 1, 4)]
        failed = [code for code, _ in runs if code != 0]
        same = runs[0][1] == runs[1][1] == runs[2][1]
        ops = len(runs[0][1].splitlines())
        verdict = "ok" if same and not failed and ops else "FAIL"
        print(f"selftest {name}: {ops} operations, counters and QoR identical across "
              f"two runs at width 1 and one at width 4: {verdict}")
        if verdict != "ok":
            ok = False
            for label, (code, out) in zip(("width 1", "width 1 again", "width 4"), runs):
                print(f"--- {label} (exit {code})\n{out}", file=sys.stderr)
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    exe = build()
    if "--selftest" in argv:
        return selftest(exe, argv)
    cmd = [exe] + argv
    if option(argv, "--trace", "0") == "1" and "--trace-out" not in argv:
        name = option(argv, "--workload", "unknown")
        seed = option(argv, "--seed", "0")
        cmd += ["--trace-out", os.path.join(build_dir(), f"trace-{name}-{seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"dpbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
