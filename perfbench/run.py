#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the four workloads one after another.

The runner is built from source with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then started once. Its stdout is passed
through; the last line is the result object. With --trace 1 the retained
layer spans are written to <build dir>/spans/<workload>-seed<n>.trace.json.

Checks added here, on top of the runner's own output checks:
  * the metric names and units match BENCHMARK.json for the mode;
  * determinism: the modeled metrics and window counts of a (workload, seed)
    must equal those of every earlier run of the same binary with that
    seed, recorded under <build dir>/determinism/.
Any failure exits non-zero.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("numeric", "shape_storm", "serving_replay", "compile_churn")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--parallel", jobs,
                  "--target", "perfbench_runner"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {cmd[:2]} failed: {err}")
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
            return None
    runner = build_dir / "perfbench_runner"
    return runner if runner.exists() else None


def expected_metrics(trace):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_determinism(build_dir, runner, workload, seed, record):
    """Compares this run's deterministic record with earlier runs'."""
    digest = hashlib.sha256(runner.read_bytes()).hexdigest()[:16]
    path = build_dir / "determinism" / f"{workload}-seed{seed}-{digest}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != record:
            changed = sorted(k for k in set(earlier) | set(record)
                             if earlier.get(k) != record.get(k))
            log(f"determinism: seed {seed} gave different values for "
                f"{', '.join(changed)}")
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    tmp.replace(path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir / "perfbench").resolve()
    runner = build(build_dir)
    if runner is None:
        return 3
    if args.workload != "all":
        return run_one(args, build_dir, runner)
    status = 0
    for workload in WORKLOADS:
        args.workload = workload
        status = run_one(args, build_dir, runner) or status
    return status


def run_one(args, build_dir, runner):
    """Runs one workload and prints its output; returns the exit code."""
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.trace.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        log("runner timed out")
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        log(f"runner exited {done.returncode} without a result")
        return done.returncode or 4

    ok = done.returncode == 0 and result.get("correct") is True
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        log(f"metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in set(got) & set(want) if got[k] != want[k])}")
        ok = False
    record = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("DETERMINISM ")), None)
    if record is None or not check_determinism(
            build_dir, runner, args.workload, args.seed, record):
        ok = False

    result["correct"] = ok
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
