import json
from math import comb

import pytest

from matchlab.cli import main
from matchlab.families import read_edge_file, write_edge_file, Family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(path, fam):
    write_edge_file(fam, str(path))
    return str(path)


RESILIENT = Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])


class TestSampleVerb:
    def test_writes_readable_family(self, tmp_path, capsys):
        out = tmp_path / "f.edges"
        code, text, _ = run(
            capsys,
            "sample",
            "--n", "9", "--k", "3", "--p", "0.5",
            "--seed", "4", "--out", str(out),
        )
        assert code == 0
        blob = json.loads(text)
        fam = read_edge_file(str(out))
        assert blob["edges"] == len(fam)
        assert fam.n == 9 and fam.k == 3

    def test_same_seed_same_file(self, tmp_path, capsys):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            run(
                capsys,
                "sample",
                "--n", "12", "--k", "2", "--p", "0.3",
                "--seed", "7", "--trial", "5", "--out", str(out),
            )
        assert a.read_text() == b.read_text()

    def test_bad_p(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "sample",
            "--n", "5", "--k", "2", "--p", "1.5",
            "--seed", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "RangeError" in err


class TestOracleVerb:
    def test_numbers_and_witnesses(self, tmp_path, capsys):
        path = write_family(tmp_path / "t.edges", RESILIENT)
        code, text, _ = run(capsys, "oracle", path)
        blob = json.loads(text)
        assert code == 0
        assert blob["nu"] == 1
        assert blob["tau"] == 2
        assert not blob["trivial"]
        assert len(blob["max_matching"]) == 1

    def test_subfamily_size(self, tmp_path, capsys):
        path = write_family(tmp_path / "k.edges", Family(
            5, 2, [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
        ))
        code, text, _ = run(capsys, "oracle", path, "--s", "1")
        assert json.loads(text)["max_size_nu_le_s"] == 4

    def test_verdict_flag(self, tmp_path, capsys):
        path = write_family(tmp_path / "v.edges", Family(
            5, 2, [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
        ))
        code, text, _ = run(capsys, "oracle", path, "--s", "1", "--verdict")
        v = json.loads(text)["verdict"]
        assert v["max_trivial_size"] == 4
        assert v["opt_size"] == 4

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "oracle", "/does/not/exist.edges")
        assert code == 1


class TestCoverVerbs:
    def test_fan(self, tmp_path, capsys):
        path = write_family(tmp_path / "r.edges", RESILIENT)
        code, text, _ = run(capsys, "cover", path, "--alg", "fan")
        blob = json.loads(text)
        assert code == 0
        assert blob["member_size"] == 2
        assert len(blob["members"]) <= blob["declared_bound"]

    def test_branch_not_resilient(self, tmp_path, capsys):
        path = write_family(
            tmp_path / "s.edges", Family(4, 2, [(1, 2), (1, 3)])
        )
        code, _, err = run(capsys, "cover", path, "--alg", "branch", "--t", "1")
        assert code == 1
        assert "NotResilientError" in err

    def test_decompose(self, tmp_path, capsys):
        star_triangle = Family(
            6, 2, [(1, 2), (1, 3), (4, 5), (4, 6), (5, 6)]
        )
        path = write_family(tmp_path / "d.edges", star_triangle)
        code, text, _ = run(capsys, "decompose", path, "--t", "1")
        blob = json.loads(text)
        assert code == 0
        assert blob["sets"] == [[1]]
        assert blob["residual_edges"] == 3
        assert blob["residual_nu"] == 1

    def test_certify(self, tmp_path, capsys):
        path = write_family(tmp_path / "c.edges", RESILIENT)
        code, text, _ = run(capsys, "certify", path)
        blob = json.loads(text)
        assert code == 0
        assert blob["q"] == 1
        assert [p["tag"] for p in blob["parts"]] == ["nontrivial"]
        assert blob["parts"][0]["prime"] is not None

    def test_certify_avoid(self, tmp_path, capsys):
        host = Family(
            7, 3,
            [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6), (1, 2, 7)],
        )
        path = write_family(tmp_path / "a.edges", host)
        code, text, _ = run(capsys, "certify", path, "--avoid", "7")
        blob = json.loads(text)
        assert code == 0
        assert blob["avoid"] == [7]

    def test_certify_avoid_out_of_range(self, tmp_path, capsys):
        # a vertex above n lies in no edge; one below 1 is an error
        path = write_family(tmp_path / "r.edges", RESILIENT)
        plain = json.loads(run(capsys, "certify", path)[1])
        code, text, _ = run(capsys, "certify", path, "--avoid", "9")
        blob = json.loads(text)
        assert code == 0
        assert blob["avoid"] == [9]
        assert blob["parts"] == plain["parts"]
        for bad in ("0", "2,-1"):
            code, text, err = run(capsys, "certify", path, "--avoid", bad)
            assert code == 1
            assert text == ""
            assert "ValueError" in err


class TestComputeVerbs:
    def test_k2_sweep(self, capsys):
        code, text, err = run(
            capsys,
            "k2",
            "--n", "40", "--s", "1", "--p", "0.5",
            "--seed", "2", "--trials", "3", "--epsilon", "0.5",
        )
        lines = text.strip().splitlines()
        assert code == 0
        assert lines[0] == "trial,edges,x,lo,hi,ok"
        assert len(lines) == 4
        assert "violations: 0/3" in err

    def test_regime_json(self, capsys):
        code, text, _ = run(
            capsys, "regime", "--n", "1600", "--k", "2", "--s", "1",
            "--t", "1",
        )
        blob = json.loads(text)
        assert code == 0
        assert blob["primary_n_ok"] is True
        assert blob["tradeoff_n_high"] == "inf"

    def test_diag_json(self, capsys):
        code, text, _ = run(
            capsys, "diag", "--n", "10", "--k", "2", "--s", "1",
            "--p", "0.5",
        )
        blob = json.loads(text)
        assert blob["matching_count"] == comb(10, 4) * 3
        assert 0 <= blob["union_bound"] <= 1


class TestCampaignVerb:
    def write_cfg(self, tmp_path, blob):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(blob))
        return str(path)

    def test_success_exit(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "kind": "verdict",
                "n": [8],
                "k": [2],
                "s": [1],
                "p": [1.0],
                "trials": 2,
                "seed": 1,
                "out": str(tmp_path / "run"),
                "floor": 1.0,
            },
        )
        code, text, _ = run(capsys, "campaign", "--config", cfg)
        assert code == 0
        assert json.loads(text)["ok"] is True
        assert (tmp_path / "run.jsonl").exists()
        assert (tmp_path / "run.csv").exists()

    def test_floor_exit(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "kind": "verdict",
                "n": [9],
                "k": [3],
                "s": [2],
                "p": [1.0],
                "trials": 1,
                "seed": 1,
                "out": str(tmp_path / "run"),
                "floor": 0.5,
            },
        )
        code, _, _ = run(capsys, "campaign", "--config", cfg)
        assert code == 3

    def test_config_error_exit(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"kind": "nope"})
        code, _, err = run(capsys, "campaign", "--config", cfg)
        assert code == 2
        assert "config error" in err

    def test_bad_threads_exit(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "kind": "verdict",
                "n": [8],
                "k": [2],
                "s": [1],
                "p": [1.0],
                "trials": 1,
                "seed": 1,
                "threads": "2",
                "out": str(tmp_path / "run"),
            },
        )
        code, _, err = run(capsys, "campaign", "--config", cfg)
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "run.jsonl").exists()

    def test_fractional_budget_exit(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "kind": "audit",
                "n": [8],
                "k": [2],
                "s": [1],
                "t": [1],
                "p": [0.5],
                "trials": 1,
                "seed": 1,
                "budget": 2.5,
                "out": str(tmp_path / "run"),
            },
        )
        code, _, err = run(capsys, "campaign", "--config", cfg)
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "run.jsonl").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "campaign", "--config", str(bad))
        assert code == 2

    def test_strict_flag_overrides(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "kind": "k2",
                "n": [4],
                "k": [2],
                "s": [2],
                "eps": [0.3],
                "p": [1.0],
                "trials": 1,
                "seed": 1,
                "out": str(tmp_path / "run"),
            },
        )
        code, _, err = run(capsys, "campaign", "--config", cfg, "--strict")
        assert code == 1
        assert "RangeError" in err
