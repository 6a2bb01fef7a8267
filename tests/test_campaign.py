import hashlib
import itertools
import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from matchlab import campaign
from matchlab.campaign import (
    AuditRecord,
    CampaignConfig,
    Cell,
    TrialReport,
    build_cells,
    complete_audit,
    lemma_audit,
    run_campaign,
)
from matchlab.bounds import regime_report
from matchlab.errors import ConfigError, RangeError
from matchlab.families import Family, complete_family
from matchlab.graphs import f_bound
from matchlab.sampling import SampleSpec, sample_family

from oracles import brute_lemma_audit


def strip_timing(path):
    rows = []
    for line in open(path):
        blob = json.loads(line)
        blob.pop("wall_time_ms")
        rows.append(json.dumps(blob, sort_keys=True))
    return rows


def _direct_count(fam, wit):
    """Recount the edges behind one audit violation from its witness."""
    name = wit["condition"]
    edges = [set(e) for e in fam.edges]
    if name == "avoid_meet_floor":
        q_set, r_set = set(wit["Q"]), set(wit["R"])
        return sum(1 for e in edges if e & q_set and not e & r_set)
    if name == "pair_cluster_cap":
        return sum(1 for e in edges if len(e & set(wit["Q"])) >= 2)
    if name == "fan_cap":
        return sum(1 for e in edges if wit["x"] in e and e & set(wit["Q"]))
    if name == "link_cap":
        return sum(1 for e in edges if set(wit["R"]) <= e)
    return sum(1 for e in edges if set(wit["T"]) <= e)


class TestLemmaAudit:
    def test_zero_budget(self):
        with pytest.raises(RangeError):
            lemma_audit(complete_family(6, 2), 1, 1, 1.0, 0, seed=1)

    def test_bad_params(self):
        fam = complete_family(6, 2)
        with pytest.raises(RangeError):
            lemma_audit(fam, 0, 1, 1.0, 5, seed=1)
        with pytest.raises(RangeError):
            lemma_audit(fam, 1, 0, 1.0, 5, seed=1)
        with pytest.raises(RangeError):
            lemma_audit(fam, 1, 1, 1.5, 5, seed=1)

    def test_deterministic(self):
        fam = sample_family(SampleSpec(n=40, k=2, p=0.5, seed=3))
        a = lemma_audit(fam, 2, 2, 0.5, 30, seed=7)
        b = lemma_audit(fam, 2, 2, 0.5, 30, seed=7)
        assert a == b
        c = lemma_audit(fam, 2, 2, 0.5, 30, seed=8)
        assert a.checked == c.checked

    def test_comfortable_graph_has_no_violations(self):
        fam = sample_family(SampleSpec(n=200, k=2, p=0.5, seed=9))
        rec = lemma_audit(fam, 1, 1, 0.5, 100, seed=42)
        assert rec.ok
        assert rec.checked["avoid_meet_floor"] == 100
        assert rec.checked["pair_cluster_cap"] == 100
        assert rec.checked["fan_cap"] == 100
        assert rec.checked["link_cap"] == 0
        assert rec.checked["deep_link_cap"] == 100

    def test_depth_two_checks_links(self):
        fam = sample_family(SampleSpec(n=100, k=3, p=0.1, seed=5))
        rec = lemma_audit(fam, 2, 2, 0.1, 40, seed=6)
        assert rec.checked["link_cap"] == 40
        assert rec.checked["deep_link_cap"] == 40

    def test_small_dense_family_reports_witnesses(self):
        rec = lemma_audit(complete_family(10, 2), 1, 1, 1.0, 50, seed=1)
        assert not rec.ok
        cluster = [
            v
            for v in rec.violations
            if v["condition"] == "pair_cluster_cap"
        ]
        assert cluster
        wit = cluster[0]
        assert wit["count"] == comb(len(wit["Q"]), 2)
        assert wit["count"] >= wit["threshold"]

    def test_floor_violation_on_sparse_family(self):
        sparse = Family(12, 2, [(1, 2)])
        rec = lemma_audit(sparse, 1, 1, 0.9, 20, seed=2)
        floors = [
            v
            for v in rec.violations
            if v["condition"] == "avoid_meet_floor"
        ]
        assert floors
        assert floors[0]["count"] <= floors[0]["threshold"]

    def test_counts_match_direct_filter(self):
        fam = sample_family(SampleSpec(n=20, k=3, p=0.3, seed=11))
        rec = lemma_audit(fam, 2, 2, 0.3, 25, seed=13)
        for wit in rec.violations:
            if wit["condition"] != "pair_cluster_cap":
                continue
            q_set = set(wit["Q"])
            direct = sum(
                1 for e in fam.edges if len(q_set & set(e)) >= 2
            )
            assert direct == wit["count"]
        # the floor fails only when the audit's p outgrows the host's
        floors = lemma_audit(fam, 2, 2, 0.9, 25, seed=13)
        seen = set()
        for wit in rec.violations + floors.violations:
            name = wit["condition"]
            seen.add(name)
            assert _direct_count(fam, wit) == wit["count"], name
        assert seen == set(rec.checked)

    @pytest.mark.parametrize(
        "host, s, t, p",
        [
            (SampleSpec(n=60, k=3, p=0.3, seed=1), 2, 2, 0.3),
            # past the 64-bit mask width
            (SampleSpec(n=100, k=3, p=0.05, seed=2), 2, 3, 0.05),
            (SampleSpec(n=30, k=1, p=0.5, seed=3), 2, 3, 0.5),
            (Family(12, 3, []), 2, 2, 0.5),
            (complete_family(10, 2), 8, 1, 1.0),
            (complete_family(10, 2), 8, 2, 1.0),
        ],
        ids=["n60k3", "n100k3", "k1", "empty", "K10-t1", "K10-t2"],
    )
    def test_matches_set_oracle(self, host, s, t, p):
        fam = host if isinstance(host, Family) else sample_family(host)
        rec = lemma_audit(fam, s, t, p, 60, seed=5)
        assert rec == brute_lemma_audit(fam, s, t, p, 60, seed=5)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 30),
        k=st.integers(1, 5),
        s=st.integers(1, 4),
        t=st.integers(1, 4),
        p=st.sampled_from([0.05, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 1 << 16),
    )
    def test_matches_set_oracle_on_random_shapes(self, n, k, s, t, p, seed):
        k = min(k, n)
        # the host keeps about 500 edges at most, so the oracle stays fast
        host_p = min(p, 500 / comb(n, k))
        fam = sample_family(SampleSpec(n, k, host_p, seed))
        rec = lemma_audit(fam, s, t, p, 20, seed)
        assert rec == brute_lemma_audit(fam, s, t, p, 20, seed)

    # (host spec, s, t, p, audit seed, SHA-256 of the sorted-key JSON
    # record at budget 100): the six round-0 audit-n60 benchmark hosts at
    # seed 0, then two graphs and two 4-uniform hosts
    GOLDEN = [
        ((60, 3, 0.3, 0, 0), 2, 2, 0.3, 0,
         "569a90a96594da270ea1a1363005b8f56989be36a455c5e81e265997662729a8"),
        ((60, 3, 0.3, 0, 1), 2, 2, 0.3, 1,
         "eae53c7f42fa0fc8da15e0b4cb13f2a0458df1b77c9e28680c682fb74f1ac268"),
        ((60, 3, 0.3, 0, 2), 2, 2, 0.3, 2,
         "3373c35e21eb3d4bbaec363283efc974b25f68e4813d76fa40890c5e201e2559"),
        ((60, 3, 0.3, 0, 3), 2, 2, 0.3, 3,
         "0d1459e464844d0c99a36a2a112adfa32cfcfcbe36c081bdf85298383e26afdd"),
        ((60, 3, 0.3, 0, 4), 2, 2, 0.3, 4,
         "cc6a0a0a7861be053639735b058fedf2cb2ff7a593a794c984f652f01a07e68c"),
        ((60, 3, 0.3, 0, 5), 2, 2, 0.3, 5,
         "646be07206f5aad27c8395cf07a559944fcebf8c8d897c7d6bfe9fa5397e2a90"),
        ((40, 2, 0.3, 0, 0), 3, 3, 0.3, 0,
         "7a3600184c8c59c10c8f0a030f3a0963206a660ec3a914060ba8a009b893969d"),
        ((200, 2, 0.02, 0, 1), 2, 2, 0.02, 1,
         "225d387cef6c43523136521263e53c6cee45772108e5b1382364f17f4aa72606"),
        ((20, 4, 0.2, 0, 0), 2, 3, 0.2, 0,
         "7029c190f71da4c17b61734e1dfc022bc1d4fd0623218995c8d844efd23c65a6"),
        ((30, 4, 0.05, 0, 1), 1, 4, 0.05, 1,
         "d055a040afeb5620ba267fdf185e4698d88b2d4938c4b2ef7a1e508705c63698"),
    ]

    @pytest.mark.parametrize(
        "spec,s,t,p,seed,digest",
        GOLDEN,
        ids=["-".join(map(str, g[0])) for g in GOLDEN],
    )
    def test_golden_record(self, spec, s, t, p, seed, digest):
        rec = lemma_audit(sample_family(SampleSpec(*spec)), s, t, p, 100, seed)
        blob = json.dumps(rec.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_complete_graph_violates_every_condition(self):
        # the K10 rows above: with s = 8 on [10] the drawn R leaves few
        # edges to the floor; t = 1 reaches deep links, t = 2 links
        host = complete_family(10, 2)
        failed = set()
        for t in (1, 2):
            rec = lemma_audit(host, 8, t, 1.0, 60, seed=5)
            failed |= {v["condition"] for v in rec.violations}
        assert failed == set(rec.checked)

    def test_zero_uniform_family_is_rejected(self):
        # the thresholds divide by k
        with pytest.raises(RangeError):
            lemma_audit(Family(8, 0, [()]), 2, 2, 0.5, 10, seed=1)

    def test_empty_vertex_range_is_rejected(self):
        # C(n-1, k-1) needs n >= 1
        with pytest.raises(RangeError):
            lemma_audit(Family(0, 2, []), 2, 2, 0.5, 10, seed=1)

    def test_to_dict_round_trip(self):
        rec = lemma_audit(complete_family(8, 2), 1, 1, 1.0, 10, seed=4)
        blob = json.loads(json.dumps(rec.to_dict()))
        assert blob["ok"] == rec.ok
        assert blob["checked"] == rec.checked
        assert len(blob["violations"]) == len(rec.violations)


class TestCompleteAudit:
    def test_smallest_feasible_grid_point(self):
        rec = complete_audit(1600, 2, 1, 1)
        assert rec.ok
        assert rec.p == 1.0
        assert rec.budget is None
        assert rec.checked["avoid_meet_floor"] == 1
        assert rec.checked["pair_cluster_cap"] == 4
        assert rec.checked["fan_cap"] == 1
        assert rec.checked["link_cap"] == 0
        assert rec.checked["deep_link_cap"] == 1

    def test_depth_two_feasible_point(self):
        assert complete_audit(2000, 2, 1, 2).ok

    def test_small_host_violates(self):
        rec = complete_audit(10, 2, 1, 1)
        assert not rec.ok
        assert any(
            v["condition"] == "pair_cluster_cap" for v in rec.violations
        )

    def test_closed_forms_match_mask_counts(self):
        n, k = 12, 3
        host = complete_family(n, k)
        q_set = set(range(2, 8))
        size = len(q_set)
        inside2 = sum(1 for e in host.edges if len(q_set & set(e)) >= 2)
        assert inside2 == comb(n, k) - comb(n - size, k) - size * comb(
            n - size, k - 1
        )
        x, fan_q = 1, {2, 3, 4}
        fan = sum(
            1 for e in host.edges if x in e and fan_q & set(e)
        )
        assert fan == comb(n - 1, k - 1) - comb(n - 1 - len(fan_q), k - 1)
        r_set = {3, 4}
        link = sum(1 for e in host.edges if r_set <= set(e))
        assert link == comb(n - len(r_set), k - len(r_set))

    def test_bad_params(self):
        with pytest.raises(RangeError):
            complete_audit(5, 6, 1, 1)
        with pytest.raises(RangeError):
            complete_audit(10, 2, 0, 1)


class TestCampaignConfig:
    def base(self, **over):
        blob = {
            "kind": "verdict",
            "n": [8],
            "k": [2],
            "s": [1],
            "p": [1.0],
            "trials": 2,
            "seed": 1,
            "out": "/tmp/x",
        }
        blob.update(over)
        return blob

    def test_round_trip(self):
        cfg = CampaignConfig.from_dict(self.base())
        assert cfg.kind == "verdict"
        assert cfg.n == (8,)
        assert cfg.p == (1.0,)

    @pytest.mark.parametrize(
        "over",
        [
            {"kind": "sweep"},
            {"n": []},
            {"k": [0]},
            {"s": "2"},
            {"trials": 0},
            {"p": [1.5]},
            {"p": "half"},
            {"floor": 1.5},
            {"budget": 0},
            {"out": ""},
            {"bogus": 1},
            {"trials": 2.5},
            {"trials": True},
            {"budget": 2.5},
            {"budget": True},
            {"budget": "100"},
        ],
    )
    def test_rejects(self, over):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(self.base(**over))

    @pytest.mark.parametrize(
        "over",
        [
            {"threads": "2"},
            {"threads": 0},
            {"threads": 1.5},
            {"threads": True},
            {"seed": "7"},
            {"seed": 1.5},
            {"seed": None},
        ],
    )
    def test_rejects_bad_threads_and_seed(self, over):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(self.base(**over))

    def test_accepts_threads_and_seed(self):
        cfg = CampaignConfig.from_dict(self.base(threads=2, seed=-3))
        assert (cfg.threads, cfg.seed) == (2, -3)
        assert CampaignConfig.from_dict(self.base(threads=None)).threads is None

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"kind": "verdict"})
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict([1, 2])

    def test_k2_requirements(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(
                self.base(kind="k2", k=[3], eps=[0.3])
            )
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(self.base(kind="k2", k=[2]))
        cfg = CampaignConfig.from_dict(
            self.base(kind="k2", k=[2], eps=[0.3], n=[10], s=[1])
        )
        assert cfg.eps == (0.3,)

    def test_audit_requires_t(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(self.base(kind="audit"))


class TestBuildCells:
    def test_grid_order(self):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "verdict",
                "n": [6, 7],
                "k": [2],
                "s": [1, 2],
                "p": [0.5, 1.0],
                "trials": 1,
                "seed": 0,
                "out": "/tmp/x",
            }
        )
        cells = build_cells(cfg)
        seen = [(c.n, c.s, c.p) for c in cells]
        assert seen == [
            (n, s, p)
            for n, s, p in itertools.product(
                [6, 7], [1, 2], [0.5, 1.0]
            )
        ]
        assert [c.index for c in cells] == list(range(8))

    def test_auto_p_window_kind(self):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "window",
                "n": [30],
                "k": [10],
                "s": [6],
                "trials": 1,
                "seed": 0,
                "out": "/tmp/x",
            }
        )
        (cell,) = build_cells(cfg)
        assert cell.p == regime_report(30, 10, 6).window_test_point

    def test_auto_p_clamped_elsewhere(self):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "verdict",
                "n": [9],
                "k": [3],
                "s": [1],
                "trials": 1,
                "seed": 0,
                "out": "/tmp/x",
            }
        )
        (cell,) = build_cells(cfg)
        assert cell.p == 1.0

    def test_auto_p_empty_window(self):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "window",
                "n": [100],
                "k": [3],
                "s": [2],
                "trials": 1,
                "seed": 0,
                "out": "/tmp/x",
            }
        )
        with pytest.raises(ConfigError):
            build_cells(cfg)

    def test_k_exceeding_n(self):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "verdict",
                "n": [4],
                "k": [5],
                "s": [1],
                "p": [1.0],
                "trials": 1,
                "seed": 0,
                "out": "/tmp/x",
            }
        )
        with pytest.raises(ConfigError):
            build_cells(cfg)


class TestRunCampaign:
    def verdict_cfg(self, out, **over):
        blob = {
            "kind": "verdict",
            "n": [8],
            "k": [2],
            "s": [1],
            "p": [1.0],
            "trials": 3,
            "seed": 5,
            "out": str(out),
        }
        blob.update(over)
        return CampaignConfig.from_dict(blob)

    def test_deterministic_jsonl(self, tmp_path):
        a = run_campaign(self.verdict_cfg(tmp_path / "a"))
        b = run_campaign(self.verdict_cfg(tmp_path / "b"))
        assert strip_timing(a["jsonl"]) == strip_timing(b["jsonl"])

    def test_worker_count_does_not_change_output(self, tmp_path):
        lo = run_campaign(
            self.verdict_cfg(tmp_path / "lo", threads=1, trials=4)
        )
        hi = run_campaign(
            self.verdict_cfg(tmp_path / "hi", threads=4, trials=4)
        )
        assert strip_timing(lo["jsonl"]) == strip_timing(hi["jsonl"])

    def test_unset_thread_env_runs_serially(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(campaign, "ThreadPoolExecutor", no_pool)
        summary = run_campaign(self.verdict_cfg(tmp_path / "serial"))
        assert sum(1 for _ in open(summary["jsonl"])) == 3

    def test_trial_stream_derivation(self, tmp_path):
        summary = run_campaign(
            self.verdict_cfg(tmp_path / "d", n=[6, 7], trials=2)
        )
        rows = [json.loads(line) for line in open(summary["jsonl"])]
        for row in rows:
            expect = (row["cell_index"] << 32) | row["trial_index"]
            assert row["spec"]["trial_index"] == expect
            assert row["spec"]["seed"] == 5
        assert [r["cell_index"] for r in rows] == [0, 0, 1, 1]

    def test_summary_matches_recount(self, tmp_path):
        summary = run_campaign(
            self.verdict_cfg(tmp_path / "r", n=[7, 8], trials=3)
        )
        rows = [json.loads(line) for line in open(summary["jsonl"])]
        for cell_row in summary["cells"]:
            batch = [
                r for r in rows if r["cell_index"] == cell_row["cell_index"]
            ]
            assert cell_row["trials"] == len(batch)
            assert cell_row["successes"] == sum(r["success"] for r in batch)
            assert cell_row["fraction"] == cell_row["successes"] / len(batch)

    def test_csv_summary(self, tmp_path):
        summary = run_campaign(self.verdict_cfg(tmp_path / "c"))
        header, row = open(summary["csv"]).read().splitlines()
        assert header.startswith("cell_index,n,k,s,t,eps,p,trials")
        assert row.split(",")[1] == "8"

    def test_floor_failure(self, tmp_path):
        # at (9, 3, 2) the complete host's clique family beats every
        # trivial one, so conclusion_holds is False deterministically
        cfg = self.verdict_cfg(
            tmp_path / "f", n=[9], k=[3], s=[2], trials=1, floor=0.5
        )
        summary = run_campaign(cfg)
        assert not summary["ok"]
        assert summary["cells"][0]["fraction"] == 0.0

    def test_error_isolation(self, tmp_path):
        # k2 cells below the n >= 2s+2 floor raise inside the trial
        cfg = CampaignConfig.from_dict(
            {
                "kind": "k2",
                "n": [4],
                "k": [2],
                "s": [2],
                "eps": [0.3],
                "p": [1.0],
                "trials": 2,
                "seed": 1,
                "out": str(tmp_path / "e"),
            }
        )
        summary = run_campaign(cfg)
        row = summary["cells"][0]
        assert row["errors"] == 2
        assert row["successes"] == 0
        rows = [json.loads(line) for line in open(summary["jsonl"])]
        assert all(r["error"].startswith("RangeError") for r in rows)

    def test_strict_reraises(self, tmp_path):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "k2",
                "n": [4],
                "k": [2],
                "s": [2],
                "eps": [0.3],
                "p": [1.0],
                "trials": 1,
                "seed": 1,
                "out": str(tmp_path / "s"),
                "strict": True,
            }
        )
        with pytest.raises(RangeError):
            run_campaign(cfg)

    def test_k2_envelope_payload(self, tmp_path):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "k2",
                "n": [40],
                "k": [2],
                "s": [1],
                "eps": [0.5],
                "p": [0.5],
                "trials": 3,
                "seed": 2,
                "out": str(tmp_path / "k"),
                "floor": 1.0,
            }
        )
        summary = run_campaign(cfg)
        assert summary["ok"]
        center = 0.5 * f_bound(40, 1)
        rows = [json.loads(line) for line in open(summary["jsonl"])]
        for row in rows:
            assert row["payload"]["lo"] == pytest.approx(0.5 * center)
            assert row["payload"]["hi"] == pytest.approx(1.5 * center)
            assert row["payload"]["lo"] <= row["value"] <= row["payload"]["hi"]

    def test_window_kind_payload(self, tmp_path):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "window",
                "n": [12],
                "k": [3],
                "s": [2],
                "p": [0.08],
                "trials": 4,
                "seed": 5,
                "out": str(tmp_path / "w"),
            }
        )
        summary = run_campaign(cfg)
        rows = [json.loads(line) for line in open(summary["jsonl"])]
        for row in rows:
            assert set(row["payload"]) == {"nu", "trivial"}
            assert row["success"] == (
                row["payload"]["nu"] <= 2 and not row["payload"]["trivial"]
            )

    def test_audit_kind_payload(self, tmp_path):
        cfg = CampaignConfig.from_dict(
            {
                "kind": "audit",
                "n": [200],
                "k": [2],
                "s": [1],
                "t": [1],
                "p": [0.5],
                "trials": 2,
                "seed": 3,
                "out": str(tmp_path / "au"),
                "budget": 30,
                "floor": 1.0,
            }
        )
        summary = run_campaign(cfg)
        assert summary["ok"]
        rows = [json.loads(line) for line in open(summary["jsonl"])]
        for row in rows:
            assert row["payload"]["checked"]["fan_cap"] == 30
            assert row["payload"]["violations"] == []
            assert row["value"] == 0.0
