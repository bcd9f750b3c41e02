#!/usr/bin/env python3
"""Builds the perfbench program from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The program and the repository libraries it
links are compiled with CMake into $CARGO_TARGET_DIR (default .bench_build)
under the subdirectory perfbench/. Every metric the program measured is
printed by name and unit; the last line of standard output is the result
object whose metrics are exactly the end_to_end (--trace 0) or per_layer
(--trace 1) names listed in BENCHMARK.json. The full result, and for a
traced run the span file, are written under <build dir>/perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_TIMEOUT_S = 170

# Failures the benchmark surfaces on purpose: a documented defect of the
# program, probed once per debug-session run. They count in `failed`, but do
# not make the run's outputs incorrect.
KNOWN_DEFECT_PREFIX = "known defect: "


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources at {ROOT}/src; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j4", "--target", target],
                   check=True, stdout=sys.stderr)
    return out


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the statistics tests")
    args = ap.parse_args()

    if args.selftest:
        out = build("perfbench_stats_test")
        sys.exit(subprocess.run([os.path.join(out, "perfbench_stats_test")]).returncode)

    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    out = build("perfbench")
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--out", results]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {PROGRAM_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    full = json.loads(lines[-1])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, f"result-{tag}.json"), "w") as f:
        json.dump(full, f, indent=1)

    metrics = full["metrics"]
    print(f"# {args.workload} seed={args.seed} seconds={seconds} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>18.6g} {m['unit']}")
    for f in full["failures"]:
        print(f"FAILED: {f}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    picked = {}
    for w in wanted:
        if w["name"] not in metrics:
            fail(f"perfbench did not report {w['name']}")
        m = metrics[w["name"]]
        if m["unit"] != w["unit"]:
            fail(f"{w['name']} is in {m['unit']}, BENCHMARK.json says {w['unit']}")
        picked[w["name"]] = {"value": m["value"], "unit": m["unit"]}
    unexpected = [f for f in full["failures"] if not f.startswith(KNOWN_DEFECT_PREFIX)]
    print(json.dumps({
        "correct": not unexpected,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": picked,
    }))


if __name__ == "__main__":
    main()
