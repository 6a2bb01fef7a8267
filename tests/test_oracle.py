import hashlib
import itertools
import json
import sys
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from matchlab import oracle
from matchlab.errors import ExplosionError, RangeError
from matchlab.families import (
    Family,
    complete_family,
    covering_number,
    is_trivial,
    matching_number,
)
from matchlab.oracle import (
    Verdict,
    enumerate_matchings,
    extremal_verdict,
    max_family_nu_le,
)
from matchlab.sampling import SampleSpec, sample_family

from oracles import (
    brute_matchings,
    brute_max_nontrivial,
    brute_max_nu_le,
    brute_min_hitting,
)


@st.composite
def small_family(draw, max_n=7, max_k=3, max_edges=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=min(n, max_k)))
    pool = list(itertools.combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(pool), max_size=max_edges))
    return Family(n, k, edges)


@st.composite
def small_graph(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pool = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pool), max_size=14))
    return Family(n, 2, edges)


class TestEnumerateMatchings:
    def test_k4_perfect(self):
        ms = enumerate_matchings(complete_family(4, 2), 2)
        assert len(ms) == 3
        assert [m.edges for m in ms] == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    def test_star_has_none(self):
        star = Family(5, 2, [(1, 2), (1, 3), (1, 4), (1, 5)])
        assert enumerate_matchings(star, 2) == []

    def test_complete_triples(self):
        assert len(enumerate_matchings(complete_family(6, 3), 2)) == 10

    def test_size_one_lists_edges(self):
        f = complete_family(5, 2)
        ms = enumerate_matchings(f, 1)
        assert [m.edges[0] for m in ms] == list(f.edges)

    def test_bad_size(self):
        with pytest.raises(RangeError):
            enumerate_matchings(complete_family(4, 2), 0)

    def test_cap(self):
        with pytest.raises(ExplosionError):
            enumerate_matchings(complete_family(9, 3), 2, cap=10)

    def test_cap_allows_exactly_cap(self):
        # complete_family(6, 3) has exactly 10 matchings of size 2
        assert len(enumerate_matchings(complete_family(6, 3), 2, cap=10)) == 10
        with pytest.raises(ExplosionError):
            enumerate_matchings(complete_family(6, 3), 2, cap=9)

    @given(small_family())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute(self, fam):
        for size in (1, 2, 3):
            got = [m.edges for m in enumerate_matchings(fam, size)]
            want = sorted(brute_matchings(list(fam.edges), size))
            assert got == want


class TestMaxFamily:
    def test_ekr_k5(self):
        sz, fam = max_family_nu_le(complete_family(5, 2), 1)
        assert sz == 4
        assert matching_number(fam)[0] <= 1

    def test_k5_whole_at_s2(self):
        sz, fam = max_family_nu_le(complete_family(5, 2), 2)
        assert sz == 10
        assert fam == complete_family(5, 2)

    def test_already_small_matching(self):
        star = Family(6, 3, [(1, 2, 3), (1, 4, 5)])
        sz, fam = max_family_nu_le(star, 1)
        assert sz == 2 and fam == star

    def test_s_zero(self):
        sz, fam = max_family_nu_le(complete_family(4, 2), 0)
        assert sz == 0 and fam.edges == ()

    def test_graph_without_vertices(self):
        host = Family(0, 2, [])
        assert max_family_nu_le(host, 1) == (0, host)
        # the verdict needs an s-set of vertices
        with pytest.raises(RangeError):
            extremal_verdict(host, 1)

    def test_negative_s(self):
        with pytest.raises(RangeError):
            max_family_nu_le(complete_family(4, 2), -1)

    def test_nontrivial_intersecting_maximum(self):
        # best non-trivial intersecting triple system on [9] has 19 edges
        v = extremal_verdict(complete_family(9, 3), 1)
        assert v.max_nontrivial_size == 19

    @given(small_family(max_edges=9), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_brute(self, fam, s):
        sz, sub = max_family_nu_le(fam, s)
        assert sz == brute_max_nu_le(list(fam.edges), s)
        assert matching_number(sub)[0] <= s
        assert set(sub.edges) <= set(fam.edges)

    @given(small_family(max_edges=9))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_s(self, fam):
        nu, _ = matching_number(fam)
        prev = 0
        for s in range(nu + 1):
            sz, _ = max_family_nu_le(fam, s)
            assert sz >= prev
            prev = sz
        assert max_family_nu_le(fam, nu)[0] == len(fam.edges)

    @given(small_family(max_edges=8), st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_duality_vs_hitting_brute(self, fam, s):
        cons = [m.edges for m in enumerate_matchings(fam, s + 1)]
        idx = {e: i for i, e in enumerate(fam.edges)}
        cons_idx = [[idx[e] for e in c] for c in cons]
        opt = brute_min_hitting(list(fam.edges), cons_idx)
        sz, _ = max_family_nu_le(fam, s)
        assert len(fam.edges) - sz == opt


class TestVerdict:
    def test_k5_star_beats_triangle(self):
        v = extremal_verdict(complete_family(5, 2), 1)
        assert v.opt_size == 4
        assert v.max_trivial_size == 4
        assert v.max_nontrivial_size == 3
        assert v.conclusion_holds
        assert v.all_optima_trivial

    def test_empty_host_vacuous(self):
        v = extremal_verdict(Family(5, 2, []), 1)
        assert v.max_nontrivial_size is None
        assert v.conclusion_holds

    def test_triangle_host(self):
        tri = Family(3, 2, [(1, 2), (1, 3), (2, 3)])
        v = extremal_verdict(tri, 1)
        assert v.opt_size == 3
        assert v.max_trivial_size == 2
        assert v.max_nontrivial_size == 3
        assert not v.conclusion_holds
        assert not v.all_optima_trivial
        assert v.nontrivial_witness == tri

    def test_ekr_9_3(self):
        v = extremal_verdict(complete_family(9, 3), 1)
        assert v.opt_size == comb(8, 2)
        assert v.max_trivial_size == comb(8, 2)
        assert v.opt_nu == 1 and v.opt_tau == 1
        assert v.conclusion_holds and v.all_optima_trivial

    def test_emc_9_3_2_clique_wins(self):
        v = extremal_verdict(complete_family(9, 3), 2)
        assert v.opt_size == comb(8, 3)
        assert v.max_trivial_size == comb(9, 3) - comb(7, 3)
        assert v.max_nontrivial_size == comb(8, 3)
        assert not v.conclusion_holds

    def test_bad_s(self):
        with pytest.raises(RangeError):
            extremal_verdict(complete_family(4, 2), 0)

    def test_to_dict_round(self):
        v = extremal_verdict(complete_family(5, 2), 1)
        d = v.to_dict()
        assert d["opt_size"] == 4
        assert d["conclusion_holds"] is True

    @given(small_graph())
    @settings(max_examples=80, deadline=None)
    def test_fast_path_matches_generic(self, g):
        fast = extremal_verdict(g, 1)
        slow = extremal_verdict(g, 1, force_generic=True)
        assert fast.opt_size == slow.opt_size
        assert fast.max_trivial_size == slow.max_trivial_size
        assert fast.max_nontrivial_size == slow.max_nontrivial_size
        assert fast.conclusion_holds == slow.conclusion_holds
        assert fast.all_optima_trivial == slow.all_optima_trivial

    @given(small_family(max_n=6, max_edges=8), st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_nontrivial_matches_brute(self, fam, s):
        v = extremal_verdict(fam, s, force_generic=True)
        want = brute_max_nontrivial(list(fam.edges), fam.n, s)
        assert v.max_nontrivial_size == want
        if v.nontrivial_witness is not None:
            w = v.nontrivial_witness
            assert matching_number(w)[0] <= s
            assert not is_trivial(w)
            assert set(w.edges) <= set(fam.edges)

    @given(small_family(max_n=6, max_edges=8), st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_verdict_internal_consistency(self, fam, s):
        v = extremal_verdict(fam, s, force_generic=True)
        assert v.host_size == len(fam.edges)
        assert matching_number(v.opt_family)[0] == v.opt_nu <= s
        if v.opt_family.edges:
            assert covering_number(v.opt_family)[0] == v.opt_tau
        nt = v.max_nontrivial_size
        assert nt is None or nt <= v.host_size
        assert v.conclusion_holds == (nt is None or nt < v.max_trivial_size)
        assert v.all_optima_trivial == (nt is None or nt < v.opt_size)

    @given(
        small_family(max_n=6, max_edges=8),
        st.integers(min_value=1, max_value=2),
        st.booleans(),
    )
    # K4 at s=1: the best star and the triangle tie at 3 edges
    @example(complete_family(4, 2), 1, False)
    @example(complete_family(4, 2), 1, True)
    @example(complete_family(3, 2), 1, False)
    @example(Family(5, 2, [(1, 2), (1, 3), (1, 4)]), 1, False)
    @example(Family(5, 2, []), 1, False)
    @settings(max_examples=60, deadline=None)
    def test_opt_is_best_star_or_nontrivial(self, fam, s, force_generic):
        v = extremal_verdict(fam, s, force_generic=force_generic)
        size, best = max_family_nu_le(fam, s)
        assert v.opt_size == size
        if fam.k == 2 and s == 1 and not force_generic:
            # a graph at s=1 gets the verdict's own optimum, ties to the star
            assert best == v.opt_family
        nt = v.max_nontrivial_size
        if nt is not None and nt > v.max_trivial_size:
            assert v.opt_family == v.nontrivial_witness
        else:
            assert v.opt_family == fam.filter(meet=v.best_trivial_set)


# the 48 hosts of round 0 of the verdict-n11 benchmark workload (master
# seed 0, cell 0)
N11_ROUND0 = [(11, 3, 0.2, 0, t) for t in range(48)]


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestSearch:
    def test_depth_not_bounded_by_recursion_limit(self):
        # a perfect matching has no non-trivial intersecting subfamily; the
        # first path of the level-1 search deletes one edge per node, 59
        # deep, before a keep-set runs out, while the limit leaves 40 frames
        host = Family(120, 2, [(2 * i + 1, 2 * i + 2) for i in range(60)])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 40)
        try:
            v = extremal_verdict(host, 1, force_generic=True)
        finally:
            sys.setrecursionlimit(old)
        assert v.max_nontrivial_size is None
        assert v.opt_size == 1

    def test_lower_level_cut_at_root(self, monkeypatch):
        solvers = []

        class Recording(oracle._HitSolver):
            def __init__(self, *args):
                super().__init__(*args)
                solvers.append(self)

        monkeypatch.setattr(oracle, "_HitSolver", Recording)
        host = sample_family(SampleSpec(n=11, k=3, p=0.2, seed=0))
        v = extremal_verdict(host, 2)
        nodes = {sv.level: sv.nodes for sv in solvers}
        # level 2 reaches 22 edges, so level 1 starts with incumbent 22 and
        # its root bound proves it cannot (its own optimum is 11)
        assert v.max_nontrivial_size == 22
        assert matching_number(v.nontrivial_witness)[0] == 2
        assert nodes[2] > 1
        assert nodes[1] == 1
        assert extremal_verdict(host, 1).max_nontrivial_size == 11

    def test_level_two_node_budget(self, monkeypatch):
        # the level-2 searches of the verdict-n11 round-0 hosts took 25,802
        # nodes with the pack bound in lex order and 14,551 fewest conflicts
        # first; a weaker bound visits more nodes and fails here
        solvers = []

        class Recording(oracle._HitSolver):
            def __init__(self, *args):
                super().__init__(*args)
                solvers.append(self)

        monkeypatch.setattr(oracle, "_HitSolver", Recording)
        for spec in N11_ROUND0:
            extremal_verdict(sample_family(SampleSpec(*spec)), 2)
        assert sum(sv.nodes for sv in solvers if sv.level == 2) <= 14_551

    @given(small_family(max_n=7, max_edges=10), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_witness_matches_bottom_up_levels(self, fam, s):
        """Levels s..1 with a shared incumbent give the witness of levels
        1..s each solved alone, where a later level wins only when larger."""
        best = witness = None
        for m in range(1, s + 1):
            cons = oracle._enum_matching_indices(
                fam, m + 1, oracle.MATCHING_CAP
            )
            keeps = oracle._keep_sets(fam, m)
            if not all(keeps):
                continue
            r = oracle._HitSolver(fam.masks, cons, m).minimize(
                keep_sets=keeps, seeds=oracle._window_seeds(fam, m)
            )
            if r is not None and (best is None or len(fam) - r[0] > best):
                best = len(fam) - r[0]
                witness = oracle._family_from_kept(fam, r[1])
        got = oracle._max_nontrivial(
            fam, s, oracle.MATCHING_CAP, force_generic=True
        )
        assert got == (best, witness)


class TestGoldenVerdicts:
    """SHA-256 over the verdicts and the `max_family_nu_le` answers,
    witnesses included, of fixed sampled hosts: a search change that returns
    another witness of the same size shows here."""

    GOLDEN = [
        ("n11", N11_ROUND0, 2,
         "9c08a485ba9cf0f99561a555cd913fc429891dacc7c5196e52022eb7d0de031c",
         "fef8588ba574eda6fe56c25093a873390638e7037dd923c14e4c54b2049e007b"),
        ("k2", [(10, 2, 0.5, 1, t) for t in range(4)], 2,
         "fe8ef6a4ca6783315048aaa276821d23d945b11e8fa9a4382ae67612410fe6c2",
         "e9f43e3cdc8718b4ed7318a1ebdb2ab6ac23ca84593e8691d1367586b644d674"),
        ("k4", [(10, 4, 0.2, 1, t) for t in range(3)]
         + [(12, 4, 0.1, 1, t) for t in range(3)], 1,
         "e4c77219f00a3173b9264817fb167eff38111341140fde64a2cf4c8a85823a4d",
         "d394b731acd51558b593f8afc8bdba120b75427f0f932434ccb445867aa34b25"),
        ("k3", [(12, 3, 0.15, 1, t) for t in range(3)]
         + [(13, 3, 0.12, 1, t) for t in range(3)], 2,
         "b890a967a48f03179f8c9f89e7fa7e6f4f6f66067d11e4a7d3d469a69255790d",
         "14c9f8ac28e3ed54f62c7db4145c776c81c6c469662682cd2b929a0977ebafce"),
    ]

    @pytest.mark.parametrize(
        "specs,s,verdicts,nu_le", [g[1:] for g in GOLDEN],
        ids=[g[0] for g in GOLDEN],
    )
    def test_golden(self, specs, s, verdicts, nu_le):
        v_hash, nu_hash = hashlib.sha256(), hashlib.sha256()
        for spec in specs:
            host = sample_family(SampleSpec(*spec))
            v = extremal_verdict(host, s).to_dict()
            v_hash.update(json.dumps(v, sort_keys=True).encode())
            size, fam = max_family_nu_le(host, s)
            nu_hash.update(
                json.dumps([size, [list(e) for e in fam.edges]]).encode()
            )
        assert v_hash.hexdigest() == verdicts
        assert nu_hash.hexdigest() == nu_le


def _milp_level_max(host, m, nontrivial):
    """Largest subfamily with nu <= m by HiGHS, or None when infeasible.

    x_i in {0, 1}; every (m+1)-matching has sum <= m; when `nontrivial`,
    every m-set T keeps an edge avoiding it (sum >= 1).
    """
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    index = {e: i for i, e in enumerate(host.edges)}
    rows, lo, hi = [], [], []
    for mt in enumerate_matchings(host, m + 1):
        rows.append([index[e] for e in mt.edges])
        lo.append(-float("inf"))
        hi.append(m)
    if nontrivial:
        for t_set in itertools.combinations(range(1, host.n + 1), m):
            rows.append(
                [
                    i
                    for i, e in enumerate(host.edges)
                    if set(e).isdisjoint(t_set)
                ]
            )
            lo.append(1)
            hi.append(float("inf"))
    num = len(host)
    if not rows:
        return num
    ptr = list(itertools.accumulate((len(r) for r in rows), initial=0))
    a = sparse.csr_array(
        ([1.0] * ptr[-1], [i for r in rows for i in r], ptr),
        shape=(len(rows), num),
    )
    res = optimize.milp(
        [-1.0] * num,
        constraints=optimize.LinearConstraint(a, lo, hi),
        integrality=[1] * num,
        bounds=optimize.Bounds(0, 1),
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return round(-res.fun)


class TestAgainstHiGHS:
    @pytest.mark.parametrize(
        "n, k, s, p, trial",
        [
            (11, 3, 2, 0.2, 1),
            (11, 3, 2, 0.3, 0),
            (11, 3, 2, 0.3, 5),
            (10, 3, 1, 0.35, 3),
            (9, 2, 3, 0.5, 3),
        ],
    )
    def test_verdict_and_nu_le_match_milp(self, n, k, s, p, trial):
        spec = SampleSpec(n=n, k=k, p=p, seed=0, trial_index=trial)
        host = sample_family(spec)
        assert 27 <= len(host) <= 54
        levels = [_milp_level_max(host, m, True) for m in range(1, s + 1)]
        want = max((x for x in levels if x is not None), default=None)
        assert extremal_verdict(host, s).max_nontrivial_size == want
        assert max_family_nu_le(host, s)[0] == _milp_level_max(host, s, False)
