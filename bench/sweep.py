"""Run the benchmark over several seeds and summarize, optionally recording
the summary as a trajectory entry.

    python3 bench/sweep.py --seeds 1-10 [--workloads verdict-n11,audit-n60]
                           [--record "label"]

For each workload: one run.py --trace 0 per seed, then one --trace 1 run at
the default seed, each for BENCHMARK.json's run_seconds. It prints each
end-to-end metric's median and spread (interquartile range over the
median), scaled to reference machine speed as reported and, in brackets,
unscaled. With --record it appends an entry to trajectory.json, with the
commit label, the core count and the raw per-seed values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
TRAJECTORY = BENCH_DIR / "trajectory.json"
SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())[
    "run_seconds"
]


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    """The run's result and its unscaled end-to-end metrics."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    unscaled = next(x for x in lines if x.startswith("unscaled "))
    return json.loads(lines[-1]), json.loads(unscaled.split(" ", 1)[1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--record")
    args = ap.parse_args()

    entry = {"label": args.record, "nproc": os.cpu_count(),
             "cpu": platform.processor() or platform.machine(),
             "python": platform.python_version(),
             "seconds": SECONDS, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads.split(","):
        runs, raw = zip(*(run_once(name, s, 0) for s in args.seeds))
        metrics = {}
        for metric, blob in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            unscaled = summarize([r[metric] for r in raw])
            metrics[metric] = dict(summarize(values), unit=blob["unit"],
                                   values=values,
                                   unscaled_median=unscaled["median"],
                                   unscaled_spread=unscaled["spread"])
            print(f"{name:12s} {metric:18s} median "
                  f"{metrics[metric]['median']:10.4g} spread "
                  f"{metrics[metric]['spread']:.3f} (unscaled "
                  f"{unscaled['median']:.4g}, {unscaled['spread']:.3f}) "
                  f"{blob['unit']}", flush=True)
        traced, _ = run_once(name, DEFAULT_SEED, 1)
        entry["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "per_layer": {m: b["value"] for m, b in traced["metrics"].items()},
        }
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
