#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <analyze-cls|diff-cls-oai|learn-remote>
                             --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
ProChecker libraries plus the benchmark program in Release under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
The last line of stdout is the result object; it is printed only when its
metric names are exactly the ones BENCHMARK.json declares for the mode
(end_to_end for --trace 0, per_layer for --trace 1).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze-cls", "diff-cls-oai", "learn-remote")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ProChecker sources under {ROOT / 'src'}; run from a full checkout", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})")
    return out


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Why `line` is not a valid result object, or None when it is."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    names = sorted(result["metrics"])
    want = sorted(expected_metrics(trace))
    if names != want:
        missing = set(want) - set(names)
        extra = set(names) - set(want)
        return f"metric names differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}"
    return None


def run(args):
    out = build(["perfbench"])
    work = out / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    command = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print("\n".join(lines))
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode or 1)
    problem = check_result(lines[-1], args.trace)
    if problem:
        print("\n".join(lines[:-1]))
        fail(problem)
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(proc.returncode)


def self_test():
    out = build(["perfbench_selftest"])
    binary = out / "perfbench_selftest"
    if not binary.is_file():
        fail("GoogleTest not found; the self-test was not built")
    sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    run(args)


if __name__ == "__main__":
    main()
