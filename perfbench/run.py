#!/usr/bin/env python3
"""DFI benchmark runner.

Builds the benchmark binary (a package of its own in this directory, with
path dependencies on the repository's crates) and runs one workload:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 25 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). Everything the binary prints is passed through;
the last line of standard output is the JSON result, whose metric names are
checked against BENCHMARK.json before it is printed. A failed build, a
failed correctness check or a metric-name mismatch exits non-zero without a
result line.

    python3 perfbench/run.py --smoke

runs the benchmark's own tests instead: every workload at toy size, both
trace modes, names checked against BENCHMARK.json, and the planted wrong
decision / wrong repair plan must fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo"] + args + ["--release", "--offline", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode


def revision():
    """The git revision, or a digest of the sources when not a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for base in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-sha1:" + h.hexdigest()


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}, [w["name"] for w in spec["workloads"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    if args.smoke:
        return 0 if cargo(["test"]) == 0 else 1
    if not args.workload:
        p.error("--workload is required")
    names, workloads = expected_names(args.trace == 1)
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json has {workloads}", file=sys.stderr)
        return 2
    if cargo(["build"]) != 0:
        print("build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target_dir(), "release", "dfi-perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, DFI_BENCH_REV=revision())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"workload {args.workload} failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["correct"] is not True:
        print("malformed result line", file=sys.stderr)
        return 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        print(f"metric names/units differ from BENCHMARK.json: {got} vs {names}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
