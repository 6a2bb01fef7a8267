"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    round_blob,
    setup_blob,
)

from matchlab import families  # noqa: E402
from matchlab.campaign import CampaignConfig, build_cells, run_campaign  # noqa: E402


def campaign(tmp_path, tag="c", **blob):
    cfg = CampaignConfig.from_dict(
        dict(blob, seed=11, threads=1, out=str(tmp_path / tag))
    )
    run_campaign(cfg)
    return build_cells(cfg), checks.read_jsonl(cfg.out + ".jsonl")


def test_corrupted_reference_answer_is_caught(tmp_path, monkeypatch):
    name = "audit-n60"
    stem = str(tmp_path / "a0000")
    blob = round_blob(name, DEFAULT_SEED, 0, stem, threads=1)
    cfg = CampaignConfig.from_dict(blob)
    run_campaign(cfg)
    cells = build_cells(cfg)
    answers = [checks.answer(rec) for rec in checks.read_jsonl(stem + ".jsonl")]
    result = {"a": [{"out": stem}]}

    monkeypatch.setattr(checks, "load_reference", lambda _: [answers])
    attempted, failed, _ = run.check_answers(name, DEFAULT_SEED, result, cells)
    assert attempted == len(answers) and not failed

    corrupt = [list(a) for a in answers]
    corrupt[2][4] += 1.0  # value
    monkeypatch.setattr(checks, "load_reference", lambda _: [corrupt])
    _, failed, problems = run.check_answers(name, DEFAULT_SEED, result, cells)
    assert failed and any("reference" in p for p in problems)

    # other seeds have no reference; only the witness checks apply
    _, failed, _ = run.check_answers(name, DEFAULT_SEED + 1, result, cells)
    assert not failed


def test_witness_checks_pass_and_catch_corruption(tmp_path):
    cells, recs = campaign(
        tmp_path, kind="verdict", n=[9], k=[3], s=[2], p=[0.4], trials=3
    )
    for rec in recs:
        assert checks.witness_problems("verdict", cells[0], rec, {}, True) == []
    rec = next(r for r in recs if r["payload"]["nontrivial_witness"])
    rec["payload"]["nontrivial_witness"][0] = [7, 8, 9]
    rec["payload"]["nontrivial_witness"][1] = [7, 8, 9]
    assert checks.witness_problems("verdict", cells[0], rec, {}, True)

    cells, recs = campaign(tmp_path, kind="window", n=[30], k=[10], s=[6],
                           trials=2)
    assert checks.witness_problems("window", cells[0], recs[0], {}, True) == []
    recs[0]["payload"]["trivial"] = not recs[0]["payload"]["trivial"]
    assert checks.witness_problems("window", cells[0], recs[0], {}, True)

    cells, recs = campaign(tmp_path, kind="k2", n=[60], k=[2], s=[1, 2],
                           p=[0.6], eps=[0.3], trials=1)
    for rec in recs:
        cell = cells[rec["cell_index"]]
        assert checks.witness_problems("k2", cell, rec, {}, True) == []
        rec["payload"]["x_size"] += 5
        rec["value"] += 5
        assert checks.witness_problems("k2", cell, rec, {}, True)

    cfg = {"budget": 20}
    cells, recs = campaign(tmp_path, kind="audit", n=[30], k=[3], s=[2],
                           t=[2], p=[0.3], budget=20, trials=1)
    assert checks.witness_problems("audit", cells[0], recs[0], cfg, True) == []
    assert recs[0]["payload"]["violations"]
    recs[0]["payload"]["violations"][0]["count"] += 1
    assert checks.witness_problems("audit", cells[0], recs[0], cfg, True)


def test_traced_and_untraced_runs_give_identical_answers(tmp_path):
    blob = dict(kind="window", n=[30], k=[10], s=[6], trials=2)
    _, plain = campaign(tmp_path, "plain", **blob)
    original = families.matching_number
    tracer = Tracer()
    tracer.round = 0
    tracer.install()
    try:
        _, traced = campaign(tmp_path, "traced", **blob)
    finally:
        tracer.uninstall()
    assert families.matching_number is original
    assert [checks.strip_timing(r) for r in traced] == [
        checks.strip_timing(r) for r in plain
    ]

    calls, self_s, trials = tracer.summary()
    assert calls["sampling.sample_family"] == 2
    # is_trivial re-solves nu, so matching_number runs twice a trial
    assert calls["families.matching_number"] == 4
    assert calls["families.is_trivial"] == 2
    assert len(trials) == 2 and all(t > 0 for t in trials.values())
    assert all(v >= 0 for v in self_s.values())
    nested = [s for s in tracer.spans if s[3] is not None]
    assert nested and all(
        tracer.spans[s[3]][0] == "families.is_trivial" for s in nested
    )


def test_run_prints_every_end_to_end_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "audit-n60",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("failed_share" in line for line in lines[:-1])


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit-n60",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_are_valid_and_pin_threads(name):
    blob = round_blob(name, 5, 3, "x")
    assert blob["threads"] == WORKLOADS[name].workers
    assert blob["seed"] == round_blob(name, 5, 3, "y")["seed"]
    assert blob["seed"] != round_blob(name, 6, 3, "x")["seed"]
    assert build_cells(CampaignConfig.from_dict(blob))


def test_window_sets_up_with_auto_p():
    blob = setup_blob("window-2w", 5, "x")
    assert blob["p"] == "auto"
    (cell,) = build_cells(CampaignConfig.from_dict(blob))
    timed_blob = round_blob("window-2w", 5, 0, "x")
    (timed,) = build_cells(CampaignConfig.from_dict(timed_blob))
    assert (cell.n, cell.k, cell.s) == (timed.n, timed.k, timed.s)
    assert cell.p != timed.p
