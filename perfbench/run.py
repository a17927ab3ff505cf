#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --seed <n> --record

Run from the repository root. The harness is the Rust package in this
directory (its own Cargo workspace, with path dependencies on the crates
under crates/); it is built in release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The binary's stdout is passed through: its
last line is the JSON result. Build output goes to stderr.

Workloads: paper-campaign, delta-sync, route-plane, simcheck (see
BENCHMARK.json and the module docs under src/). --trace 1 also writes the
run's spans as JSON lines to <target dir>/perfbench-spans/<workload>.jsonl.

--record prints the output digests for a seed; append them to
perfbench/expected_digests.txt to make later runs with that seed check
against them.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper-campaign", "delta-sync", "route-plane", "simcheck"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision, or a hash of the sources when not in a git checkout."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(ROOT / top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(Path(dirpath) / f for f in sorted(filenames))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no workspace to benchmark (crates/ or Cargo.toml missing)")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")

    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.record:
        cmd.append("--record")
    else:
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace),
                "--rev", revision(),
                "--rustc", rustc.stdout.strip() or "unknown"]
        if args.trace:
            # One file per workload: the latest traced run's spans.
            spans = target / "perfbench-spans" / f"{args.workload}.jsonl"
            cmd += ["--spans-out", str(spans)]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
