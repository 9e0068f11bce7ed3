#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) that builds the repository's crates from source
by path; the build goes to $CARGO_TARGET_DIR (default .bench_build) and
run records, spans and scratch WAL directories to .bench_out.

Workloads: plan-scale, plan-flow, serve-read, serve-write, or `all`
(each in turn, then one combined result line with metrics named
<workload>.<metric>). The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A failed correctness check exits 1; a run that cannot build or finish
exits 2 without a result line.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ["plan-scale", "plan-flow", "serve-read", "serve-write"]
# Each workload run must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "crates", ROOT / "vendor", ROOT / "perfbench"]
    for root in roots:
        paths = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in paths:
            if path.is_file() and "target" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_id():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "source-sha256:" + source_digest()[:16]


def build(env):
    if not (ROOT / "crates").is_dir() or not MANIFEST.is_file():
        fail(f"{ROOT} does not hold the repository sources (crates/ and perfbench/ are needed)")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")
    binary = pathlib.Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_workload(binary, env, workload, args):
    command = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(ROOT / ".bench_out"),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with {done.returncode}")
    print("\n".join(lines[:-1]))
    return done.returncode, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = str(ROOT / target) if not os.path.isabs(target) else target
    env["PERFBENCH_COMMIT"] = commit_id()
    env["PERFBENCH_COMMAND"] = " ".join(["python3", "perfbench/run.py"] + sys.argv[1:])
    binary = build(env)

    if args.workload != "all":
        code, result = run_workload(binary, env, args.workload, args)
        print(result)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, line = run_workload(binary, env, workload, args)
        result = json.loads(line)
        combined["correct"] &= result["correct"] and code == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
