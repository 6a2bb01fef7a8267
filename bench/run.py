"""Campaign benchmark for matchlab.

    python3 bench/run.py --workload verdict-n11 --seed 3 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
<checkout>/src. Every measurement happens in fresh child processes
(bench/child.py) started with MATCHLAB_THREADS unset:

- SETUP_PROBES processes that only set up; the median of their
  start-to-first-trial times is setup_s;
- the measured process runs the workload's rounds (see workloads.py) for
  --seconds (--trace 0), or its fixed trace rounds untraced, traced and
  serially (--trace 1, see child.py).

Answers are then checked here, outside any timed region (see checks.py).
The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Lines before it print every metric with its unit,
and one line `unscaled {...}` gives the end-to-end metrics with times as
measured, not scaled to reference machine speed (speed.py).
Exit status: 0 when every answer checked out, 1 when some did not, 2 when
the run could not be made (no source tree, a child failed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import START_REFERENCE_S, calibrate_start, factor
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WALL, CPU = 0, 1


class RunError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "MATCHLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(args, deadline):
    """Start bench/child.py, wait for it, and return (spawn time, result)."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise RunError(
            f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def file_bytes(stem):
    return sum(os.path.getsize(stem + ext) for ext in (".jsonl", ".csv"))


def percentile_ms(values, q):
    """q-th percentile (0 < q < 100) in ms, by statistics.quantiles."""
    if len(values) < 2:
        return 1000.0 * values[0]
    return 1000.0 * statistics.quantiles(values, n=100)[q - 1]


def check_answers(name, seed, result, cells):
    """(attempted, failed trial keys, problem lines) over every pass."""
    from checks import (
        load_reference,
        read_jsonl,
        reference_problems,
        strip_timing,
        witness_problems,
    )

    wl = WORKLOADS[name]
    reference = load_reference(name) if seed == DEFAULT_SEED else None
    attempted = 0
    failed = set()
    problems = []
    for r, rnd in enumerate(result["a"]):
        records = read_jsonl(rnd["out"] + ".jsonl")
        attempted += len(records)
        keys = [(r, rec["cell_index"], rec["trial_index"]) for rec in records]
        if reference is not None and r == len(reference):
            print(f"rounds {r}.. are past the {len(reference)} reference "
                  f"rounds: witness checks only")
        if reference is not None and r < len(reference):
            bad = reference_problems(records, reference[r])
            if bad:
                failed.update(keys)
                problems += [f"round {r}: {p}" for p in bad]
        for key, rec in zip(keys, records):
            bad = witness_problems(
                wl.kind, cells[rec["cell_index"]], rec, wl.config, r == 0
            )
            if bad:
                failed.add(key)
                problems += [f"trial {key}: {p}" for p in bad]
        for tag in ("b", "c"):
            if tag in result:
                replay = read_jsonl(result[tag][r]["out"] + ".jsonl")
                if [strip_timing(x) for x in replay] != [
                    strip_timing(x) for x in records
                ]:
                    failed.update(keys)
                    problems.append(f"round {r}: pass {tag} answers differ")
    return attempted, failed, problems


def speed_factor(rnd, clock=WALL):
    """A round's speed factor (speed.py) by its WALL or CPU calibrations."""
    before, after = rnd["cal"]
    return factor(before[clock], after[clock])


def end_to_end(result, setups, attempted, scale=True):
    """The end-to-end metrics; with scale=False, times are left as
    measured rather than scaled to reference machine speed."""
    a = result["a"]
    wall = sum(x["wall"] * (speed_factor(x) if scale else 1.0) for x in a)
    cpu = sum(x["cpu"] * (speed_factor(x, CPU) if scale else 1.0) for x in a)
    return {
        "trials_per_s": attempted / wall,
        "cpu_ms_per_trial": 1000.0 * cpu / attempted,
        "setup_s": statistics.median(
            t * (f if scale else 1.0) for t, f in setups
        ),
        "peak_rss_mb": result["rss_kib"] / 1024.0,
    }


def matchings_enumerated(records, s):
    """Matchings of sizes 2..s+1 in each host: the constraint sets the
    oracle enumerates. Counted here, outside any timed region."""
    from matchlab.oracle import enumerate_matchings
    from matchlab.sampling import SampleSpec, sample_family

    total = 0
    for rec in records:
        host = sample_family(SampleSpec(**rec["spec"]))
        total += sum(len(enumerate_matchings(host, m)) for m in range(2, s + 2))
    return total


def per_layer(name, result, cells):
    from checks import read_jsonl

    wl = WORKLOADS[name]
    tr = result["trace"]
    calls, self_s = tr["calls"], tr["self_s"]
    trial_s = tr["trial_s"]

    def pass_wall(rounds):
        """Scaled wall time of a pass, by the pass's mean speed factor (the
        spans of pass b get the same factor, so they stay inside it)."""
        f = statistics.mean(speed_factor(x) for x in rounds)
        return f, f * sum(x["wall"] for x in rounds)

    _, wall_a = pass_wall(result["a"])
    f_b, wall_b = pass_wall(result["b"])
    _, wall_c = pass_wall(result.get("c", result["a"]))
    self_s = {layer: f_b * v for layer, v in self_s.items()}
    trial_s = [f_b * v for v in trial_s]
    records = [
        rec for rnd in result["a"] for rec in read_jsonl(rnd["out"] + ".jsonl")
    ]
    sample_s = self_s.get("sampling.sample_family", 0.0)
    metrics = {
        "sampling.sample_family.calls": calls.get("sampling.sample_family", 0),
        "sampling.edges": tr["edges"],
        "sampling.edges_per_s": tr["edges"] / sample_s if sample_s else 0.0,
        "families.matching_number.calls": calls.get(
            "families.matching_number", 0
        ),
        "graphs.max_nu_subgraph.calls": calls.get("graphs.max_nu_subgraph", 0),
        "oracle.matchings_enumerated": (
            sum(
                matchings_enumerated(
                    [x for x in records if x["cell_index"] == c.index], c.s
                )
                for c in cells
            )
            if wl.kind == "verdict"
            else 0
        ),
        "campaign.audit_checks": sum(
            sum(rec["payload"]["checked"].values())
            for rec in records
            if wl.kind == "audit"
        ),
        "campaign.worker_efficiency": sum(trial_s) / (wl.workers * wall_a),
        "campaign.overhead_s": wall_b - sum(trial_s),
        "campaign.output_bytes": sum(file_bytes(x["out"]) for x in result["a"]),
        "trial.p50_ms": percentile_ms(trial_s, 50),
        "trial.p90_ms": percentile_ms(trial_s, 90),
        "trace.overhead_share": wall_b / wall_c - 1.0,
    }
    for metric in PER_LAYER_UNITS:
        if metric.endswith(".self_s"):
            metrics[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
    return {m: metrics[m] for m in PER_LAYER_UNITS}


def measure(args, work):
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", work]
    setups = []  # (seconds, speed factor) per probe
    cal = calibrate_start()
    for _ in range(SETUP_PROBES):
        t0, res = run_child(common + ["--setup-only"], deadline)
        after = calibrate_start()
        f = factor(cal, after, START_REFERENCE_S)
        setups.append((res["ready"] - t0, f))
        cal = after
    _, result = run_child(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline,
    )
    return setups, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "matchlab" / "campaign.py").is_file():
        print(f"error: no matchlab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from matchlab.campaign import CampaignConfig, build_cells
    from workloads import round_blob

    cells = build_cells(
        CampaignConfig.from_dict(round_blob(args.workload, args.seed, 0, "x"))
    )
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        setups, result = measure(args, work)
        attempted, failed, problems = check_answers(
            args.workload, args.seed, result, cells
        )
        e2e = end_to_end(result, setups, attempted)
        layers = per_layer(args.workload, result, cells) if args.trace else {}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    speeds = [speed_factor(x) for x in result["a"]]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} trials in {len(result['a'])} rounds; times scaled "
          f"to reference speed by factors {min(speeds):.3f}-"
          f"{max(speeds):.3f}")
    shown = dict(e2e, failed_share=len(failed) / attempted, **layers)
    all_units = dict(END_TO_END_UNITS, failed_share="share", **PER_LAYER_UNITS)
    for metric, value in shown.items():
        print(f"  {metric:34s} {value:>16.6g} {all_units[metric]}")
    unscaled = end_to_end(result, setups, attempted, scale=False)
    print("unscaled " + json.dumps(unscaled))
    reported = layers if args.trace else e2e
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            m: {"value": v, "unit": units[m]} for m, v in reported.items()
        },
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
