#!/usr/bin/env python3
"""End-to-end host benchmark driver (see README.md).

Builds the benchmark binary from the checkout's sources, runs one
workload, and prints the result as the last line of stdout:

    python3 e2e_bench/run.py --workload paper_sim --seed 17 --seconds 30 --trace 0

`--workload all` runs every workload untraced and prints each metric by
name and unit instead.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "drift_e2e_bench"


def timeout_s(seconds):
    """How long the binary may run before it is stopped and the run
    fails: `--seconds` of passes plus set-up, one more pass (a pass may
    end past `--seconds`), and a traced run's extra pass, replays and
    1-thread re-run."""
    return 3 * seconds + 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no drift sources under {ROOT}/src")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def git_sha():
    """HEAD of the checkout being built, or "unknown" when the checkout
    is not itself a git work tree (a directory above it may be one)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(spec, workload, seed, seconds, trace):
    """Runs the binary once; returns the contract result object."""
    proc = subprocess.run(
        [str(BINARY), f"--workload={workload}", f"--seed={seed}",
         f"--seconds={seconds}", f"--trace={trace}", f"--root={ROOT}"],
        stdout=subprocess.PIPE, text=True, timeout=timeout_s(seconds),
        check=True)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["meta"]["git_sha"] = git_sha()
    for failure in raw["failures"]:
        log(f"check failed: {failure}")

    correct = raw["failed"] == 0
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        value = raw["metrics"].get(name)
        if name not in raw["metrics"] and trace:
            value = 0.0  # the workload does not reach this layer
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {name} missing or not finite")
            correct = False
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}
    return raw, {"correct": correct, "attempted": raw["checks"],
                 "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        build()
    except (OSError, ValueError, RuntimeError,
            subprocess.CalledProcessError) as err:
        log(f"e2e_bench: cannot set up: {err}")
        return 1
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        ok = True
        for workload in names:
            raw, result = run_workload(spec, workload, args.seed,
                                       args.seconds, 0)
            ok = ok and result["correct"]
            rows = [(k, v["value"], v["unit"])
                    for k, v in result["metrics"].items()]
            rows += [(k, v["value"], v["unit"])
                     for k, v in raw["details"].items()]
            for name, value, unit in rows:
                print(f"{workload:14s} {name:24s} {value:>16.6g} {unit}")
            print(f"{workload:14s} {'failed/checks':24s} "
                  f"{raw['failed']:>10d}/{raw['checks']}")
        return 0 if ok else 1
    if args.workload not in names:
        log(f"unknown workload {args.workload}; one of {', '.join(names)}")
        return 2

    try:
        raw, result = run_workload(spec, args.workload, args.seed,
                                   args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ValueError, KeyError, IndexError) as err:
        log(f"e2e_bench: run failed: {err}")
        return 1
    print("# meta " + json.dumps(raw["meta"]))
    for name, d in raw["details"].items():
        print(f"# {name} = {d['value']:.6g} {d['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
