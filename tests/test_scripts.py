"""Smoke runs of the scripts in scripts/: each `main()` at a tiny size
exits 0."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_main(monkeypatch, name, *argv):
    main = runpy.run_path(str(SCRIPTS / name), run_name="smoke")["main"]
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return main()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("count_audit.py",
         ["--max-binom", "20", "--count-cap", "1000", "--audit-n", "100"]),
        ("k2_envelope.py",
         ["--n", "20", "--s", "1", "--p", "0.6", "--trials", "3",
          "--epsilon", "0.9"]),
    ],
    ids=["count_audit", "k2_envelope"],
)
def test_script_exits_zero(monkeypatch, capsys, name, argv):
    assert run_main(monkeypatch, name, *argv) == 0
    assert capsys.readouterr().out


def test_window_experiment_writes_out(monkeypatch, capsys, tmp_path):
    out = tmp_path / "window"
    code = run_main(
        monkeypatch, "window_experiment.py",
        "--trials", "2", "--hot-trials", "2", "--out", str(out),
    )
    assert code == 0
    assert "phase 2" in capsys.readouterr().out
    assert (tmp_path / "window.jsonl").stat().st_size > 0
