#!/usr/bin/env python3
"""Builds the wormhole binaries and the benchmark, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-tenfold --seed 8 --seconds 30 --trace 0

Workloads: serve-tenfold, campaign-tenfold.
`--seed` is the Internet seed; `--trace 1` runs the per-layer panel
instead of the end-to-end measurement. The last line on stdout is the
run's JSON result. Build output goes to stderr. Builds land in
$CARGO_TARGET_DIR, or `.bench_build` under the checkout when unset.

The run is pinned to at most two CPUs, so the program's worker threads,
the benchmark's connections and the traced run's distributed worker
processes are all capped at min(nproc, 2).
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-tenfold", "campaign-tenfold")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stdin=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}", 3)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=8)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    for need in ("Cargo.toml", "src/bin/wormhole-serve.rs", "src/bin/wormhole-cli.rs", "crates"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: run from a wormhole checkout", 2)

    try:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
    except OSError as e:
        print(f"perfbench: cannot pin to two CPUs ({e}); running unpinned", file=sys.stderr)

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    build(["--bin", "wormhole-serve", "--bin", "wormhole-cli"], target)
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target)

    bins = os.path.join(target, "release")
    cmd = [
        os.path.join(bins, "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--bins", bins,
    ]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        # Reap anything the run left behind in its process group.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
