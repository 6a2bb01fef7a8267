"""One measured process of the benchmark; started by run.py, never by hand.

The set-up phase (imports, `CampaignConfig.from_dict`, `build_cells` of the
workload's set-up config) ends
at the `ready` timestamp, read from the system-wide monotonic clock so the
parent can subtract its own spawn time. With --setup-only the process stops
there. Otherwise it runs rounds of the workload and prints one JSON line
with the timings; answers stay in the JSONL files `run_campaign` writes.

Untraced (--trace 0): rounds run until --seconds have passed.
Traced (--trace 1): each of the first `trace_rounds` rounds runs as pass
"a", the untraced campaign as configured, then pass "b", a serial
(threads=1) replay under the tracer. A workload with more than one worker
also runs pass "c", a serial untraced replay, between them; the tracer's
cost is b against c, and for a 1-worker workload a is c. Interleaving the
passes round by round exposes them to the same machine speed.
"""

import argparse
import itertools
import json
import os
import resource
import sys
import time

from speed import calibrate
from workloads import WORKLOADS, round_blob, setup_blob

from matchlab.campaign import CampaignConfig, build_cells, run_campaign


def cpu_seconds():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def timed_round(blob, cal):
    """Run one round; `cal` is the calibration (speed.py) taken just
    before it. Returns the round's record and the calibration after it."""
    cfg = CampaignConfig.from_dict(blob)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    run_campaign(cfg)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    after = calibrate()
    return {"out": blob["out"], "wall": wall, "cpu": cpu,
            "cal": [cal, after]}, after


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    def blob(tag, r, threads=None):
        out = os.path.join(args.work, f"{tag}{r:04d}")
        return round_blob(args.workload, args.seed, r, out, threads)

    build_cells(CampaignConfig.from_dict(
        setup_blob(args.workload, args.seed, blob("a", 0)["out"])
    ))
    ready = time.monotonic()
    result = {"ready": ready}

    if args.setup_only:
        pass
    elif not args.trace:
        cal = calibrate()
        rounds = []
        for r in itertools.count():
            rnd, cal = timed_round(blob("a", r), cal)
            rounds.append(rnd)
            if time.monotonic() - ready >= args.seconds:
                break
        result["a"] = rounds
    else:
        from spans import Tracer

        tracer = Tracer()
        plan = [("a", None), ("b", 1)]
        if wl.workers > 1:
            plan.insert(1, ("c", 1))
        cal = calibrate()
        for r in range(wl.trace_rounds):
            tracer.round = r
            for tag, threads in plan:
                if tag == "b":
                    tracer.install()
                try:
                    rnd, cal = timed_round(blob(tag, r, threads), cal)
                finally:
                    tracer.uninstall()
                result.setdefault(tag, []).append(rnd)
        calls, self_s, trials = tracer.summary()
        result["trace"] = {
            "calls": calls,
            "self_s": self_s,
            "trial_s": sorted(trials.values()),
            "edges": tracer.edges,
        }

    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["rss_kib"] = me + kids
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
