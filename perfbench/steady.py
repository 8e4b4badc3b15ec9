#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs each workload once per seed
and prints, for every end-to-end metric, the median and the spread
(interquartile distance over the median, as statistics.quantiles gives
the quartiles) next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads serve-tenfold --seeds 1-10
    python3 perfbench/steady.py --repeat-seed 8 --repeats 2

With --repeat-seed the traced run is made --repeats times on that one
seed and every per-layer count must repeat bit for bit: any drift fails.
Exits non-zero when a run fails, a spread exceeds its bound, or a count
drifts. Raw results go to --out as JSON lines.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Per-layer metrics in these units measure deterministic work, so they
# must repeat exactly for one seed; trace.overhead_share is a timing.
EXACT_UNITS = ("count", "probes", "ratio", "MB")
TIMED = ("trace.overhead_share",)


def exact(name, unit):
    return unit in EXACT_UNITS and name not in TIMED


def run(workload, seed, seconds, trace, specs):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want or set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: result does not match "
                         f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    # The run's summary on stderr: figures as measured, pace, samples.
    result["summary"] = [l for l in done.stderr.splitlines() if l.startswith("perfbench: setup_s")]
    return result


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--repeat-seed", type=int)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--out", default=os.path.join(".perfbench", "steady.jsonl"))
    a = p.parse_args()
    os.makedirs(os.path.dirname(os.path.abspath(a.out)), exist_ok=True)
    bad = False
    with open(a.out, "a") as log:
        for w in a.workloads.split(","):
            if a.repeat_seed is not None:
                runs = [run(w, a.repeat_seed, a.seconds, 1, bench["per_layer"])
                        for _ in range(a.repeats)]
                for r in runs:
                    log.write(json.dumps({"workload": w, "seed": a.repeat_seed, "trace": 1, **r}) + "\n")
                    bad |= r["failed"] != 0 or not r["correct"]
                for name, m in runs[0]["metrics"].items():
                    if not exact(name, m["unit"]):
                        continue
                    vals = [r["metrics"][name]["value"] for r in runs]
                    if len(set(vals)) != 1:
                        bad = True
                        print(f"{w:24} {name:28} DRIFT {vals}")
                print(f"{w:24} {sum(exact(n, m['unit']) for n, m in runs[0]['metrics'].items())} "
                      f"counts compared over {a.repeats} traced runs of seed {a.repeat_seed}")
                continue
            vals = {}
            raw = []
            for s in seeds_of(a.seeds):
                r = run(w, s, a.seconds, 0, bench["end_to_end"])
                log.write(json.dumps({"workload": w, "seed": s, "trace": 0, **r}) + "\n")
                log.flush()
                bad |= r["failed"] != 0 or not r["correct"]
                for name, m in r["metrics"].items():
                    vals.setdefault(name, []).append(m["value"])
                got = re.search(r"([0-9.]+) probes/s;", " ".join(r["summary"]))
                if got:
                    raw.append(float(got.group(1)))
            for spec in bench["end_to_end"]:
                v = vals[spec["name"]]
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                over = spread > spec["bound"] and spec["name"] != "setup_s"
                bad |= over
                flag = "OVER" if over else ("wide" if spread > spec["bound"] / 3 else "ok")
                print(f"{w:24} {spec['name']:18} median {med:14.4f} spread {spread:7.4f} "
                      f"bound {spec['bound']:.2f} {flag}")
            if len(raw) == len(vals["probes_per_s"]):
                q1, med, q3 = statistics.quantiles(raw, n=4)
                print(f"{w:24} {'(unpaced probes/s)':18} median {med:14.4f} spread "
                      f"{(q3 - q1) / med:7.4f}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
