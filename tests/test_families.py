import hashlib
import itertools
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matchlab import families
from matchlab.errors import OverlapError, SizeError
from matchlab.families import (
    Cover,
    Family,
    Matching,
    complete_family,
    covering_number,
    generated_contains,
    generated_count,
    generated_family,
    is_trivial,
    matching_number,
    read_edge_file,
    write_edge_file,
)
from matchlab.oracle import extremal_verdict
from matchlab.sampling import SampleSpec, sample_family

from oracles import (
    all_families,
    brute_covering_number,
    brute_is_trivial,
    brute_matching_number,
)


@st.composite
def family_args(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=min(n, 4)))
    pool = list(itertools.combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(pool), max_size=12))
    return n, k, edges


def check_matching(fam, m):
    assert isinstance(m, Matching)
    seen = set()
    for e in m.edges:
        assert e in fam.edges
        assert not seen & set(e)
        seen |= set(e)


def check_cover(fam, c):
    assert isinstance(c, Cover)
    cs = set(c.vertices)
    assert cs <= set(range(1, fam.n + 1))
    for e in fam.edges:
        assert cs & set(e)


class TestConstruction:
    def test_canonical_order_and_dedup(self):
        f = Family(5, 2, [(2, 1), (4, 5), (1, 2), (3, 1)])
        assert f.edges == ((1, 2), (1, 3), (4, 5))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Family(4, 2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            Family(4, 2, [(1, 1)])
        with pytest.raises(ValueError):
            Family(4, 2, [(0, 1)])
        with pytest.raises(ValueError):
            Family(4, 2, [(3, 5)])

    def test_immutable(self):
        f = Family(4, 2, [(1, 2)])
        with pytest.raises(AttributeError):
            f.n = 5

    def test_eq_hash(self):
        a = Family(4, 2, [(1, 2), (3, 4)])
        b = Family(4, 2, [(4, 3), (2, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Family(5, 2, [(1, 2), (3, 4)])

    def test_complete_sizes(self):
        assert len(complete_family(5, 2).edges) == 10
        assert len(complete_family(9, 3).edges) == 84

    def test_degrees(self):
        f = Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
        assert f.degree(1) == 2
        assert f.degrees() == {v: 2 for v in range(1, 7)}


class TestFilterLink:
    def test_filter_avoid(self):
        f = complete_family(4, 2)
        g = f.filter(avoid=(4,))
        assert g.edges == ((1, 2), (1, 3), (2, 3))
        assert g.n == 4

    def test_filter_avoid_and_meet(self):
        f = Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
        g = f.filter(avoid=(1,), meet=(6,))
        assert g.edges == ((2, 4, 6), (3, 5, 6))

    def test_filter_meet_empty_set_keeps_nothing(self):
        f = complete_family(4, 2)
        assert f.filter(meet=()).edges == ()

    def test_filter_overlap_raises(self):
        f = complete_family(4, 2)
        with pytest.raises(OverlapError):
            f.filter(avoid=(1,), meet=(1, 2))

    def test_link_vertex(self):
        f = complete_family(4, 2)
        g = f.link((1,))
        assert g.k == 1
        assert g.edges == ((2,), (3,), (4,))

    def test_link_full_edge(self):
        f = Family(4, 2, [(1, 2)])
        g = f.link((1, 2))
        assert g.k == 0
        assert g.edges == ((),)

    def test_link_absent_set_empty(self):
        f = Family(4, 2, [(1, 2)])
        assert f.link((3,)).edges == ()

    def test_link_too_big(self):
        f = Family(4, 2, [(1, 2)])
        with pytest.raises(SizeError):
            f.link((1, 2, 3))

    def test_delete_vertices(self):
        f = Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
        g = f.delete_vertices((1,))
        assert g.edges == ((2, 4, 6), (3, 5, 6))
        assert g.n == 6


class TestGenerated:
    def test_generated_star_pair(self):
        f = generated_family([(1,), (2,)], 4, 2)
        assert f.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))

    def test_generated_count_matches(self):
        assert generated_count([(1,), (2,)], 4, 2) == 5
        f = generated_family([(1, 2), (3,)], 6, 3)
        assert generated_count([(1, 2), (3,)], 6, 3) == len(f.edges)

    def test_generated_contains(self):
        f = generated_family([(1,), (2,)], 5, 3)
        assert generated_contains([(1,), (2,)], f)
        assert generated_contains([(1,), (2,), (3,)], f)
        assert not generated_contains([(1,)], complete_family(5, 3))

    def test_generated_oversized_member(self):
        with pytest.raises(SizeError):
            generated_family([(1, 2, 3)], 5, 2)


class TestSolvers:
    # values below were pinned with the brute-force oracles in oracles.py

    def test_four_triples(self):
        f = Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
        nu, m = matching_number(f)
        tau, c = covering_number(f)
        assert nu == 1
        assert tau == 2
        check_matching(f, m)
        check_cover(f, c)
        assert not is_trivial(f)

    def test_complete_graph_k4(self):
        f = complete_family(4, 2)
        assert matching_number(f)[0] == 2
        assert covering_number(f)[0] == 3
        assert not is_trivial(f)

    def test_star_is_trivial(self):
        f = Family(5, 2, [(1, 2), (1, 3), (1, 4), (1, 5)])
        assert matching_number(f)[0] == 1
        assert covering_number(f)[0] == 1
        assert is_trivial(f)

    def test_triangle(self):
        f = Family(3, 2, [(1, 2), (1, 3), (2, 3)])
        assert matching_number(f)[0] == 1
        assert covering_number(f)[0] == 2
        assert not is_trivial(f)

    def test_empty_family(self):
        f = Family(5, 3, [])
        assert matching_number(f) == (0, Matching(()))
        assert covering_number(f) == (0, Cover(()))
        assert is_trivial(f)

    def test_k0_family(self):
        f = Family(4, 2, [(1, 2)]).link((1, 2))
        assert matching_number(f)[0] == 1
        with pytest.raises(ValueError):
            covering_number(f)

    def test_complete_triples_nine(self):
        f = complete_family(9, 3)
        assert matching_number(f)[0] == 3
        assert covering_number(f)[0] == 7

    def test_perfect_matching_family(self):
        f = Family(9, 3, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
        assert matching_number(f)[0] == 3
        assert covering_number(f)[0] == 3
        assert is_trivial(f)

    def test_exhaustive_tiny(self):
        # every family on [4] with pairs: 2^6 = 64 cases
        for edges in all_families(4, 2):
            f = Family(4, 2, edges)
            nu, m = matching_number(f)
            tau, c = covering_number(f) if edges else (0, Cover(()))
            assert nu == brute_matching_number(edges)
            assert tau == brute_covering_number(edges, 4)
            check_matching(f, m)
            if edges:
                check_cover(f, c)


def _dense_in_eleven():
    """The 5-subsets of [15] with at least 4 vertices in [11]: 1782 edges.

    Three disjoint edges would need 12 vertices of [11], so nu = 2; an edge
    misses a cover only with 4 vertices left in [11], so tau = 8.
    """
    return [
        e
        for e in itertools.combinations(range(1, 16), 5)
        if sum(v <= 11 for v in e) >= 4
    ]


class TestPairScan:
    # n = 3k with 1782 edges: the one-pass pair scan on edge bitsets decides nu

    def test_no_third_edge(self):
        f = Family(15, 5, _dense_in_eleven())
        assert len(f) == 1782
        nu, m = matching_number(f)
        assert nu == 2
        check_matching(f, m)
        assert covering_number(f)[0] == 8
        assert not is_trivial(f)

    def test_finds_third_edge_past_greedy(self):
        f = Family(15, 5, _dense_in_eleven() + [(1, 12, 13, 14, 15)])
        every = (1 << len(f)) - 1
        assert len(families._greedy_matching(every, f.edges, f.through)) == 2
        nu, m = matching_number(f)
        assert nu == 3
        check_matching(f, m)

    def test_window_solves_build_no_masks(self):
        for f in (
            Family(15, 5, _dense_in_eleven()),
            sample_family(SampleSpec(30, 10, 8.7e-5, 3, 0)),
        ):
            matching_number(f)
            is_trivial(f)
            assert f._masks is None

    def test_cover_reads_degrees_once(self, monkeypatch):
        calls = []
        degrees = Family.degrees

        def counting(fam):
            calls.append(fam)
            return degrees(fam)

        monkeypatch.setattr(Family, "degrees", counting)
        f = Family(15, 5, _dense_in_eleven())
        # iterative deepening runs the bounded search at depths 2..8
        assert covering_number(f) == (8, Cover(tuple(range(1, 9))))
        assert calls == [f]
        assert not is_trivial(f)
        assert calls == [f, f]


class TestGoldenNu:
    # n // k >= 4, the general branch and bound: the host's edge count, nu,
    # and the SHA-256 of repr(witness.edges). p = 1 is complete_family(16, 4);
    # the next three branch on hundreds of candidates at a time.
    GOLDEN = [
        ((16, 4, 1.0, 0, 0), 1820, 4,
         "924ffe68bef624babc357df5c256936f842a9a3ac50c6f572e0f1edc259a6fcf"),
        ((20, 4, 0.3, 1, 0), 1492, 5,
         "7688e745295b1b0d9c77e0f606e2fd32a03b13499cf63e02e1d4f4f08d3837bb"),
        ((16, 4, 0.5, 0, 0), 871, 4,
         "463699b600be204046a4b519821dac094661a6fe680d8d1ce18de621c92dc9ca"),
        ((24, 3, 0.2, 1, 0), 427, 8,
         "75dd0a452f7ea4c1c493ae607353ad55d60acda29b8b3ed746dca870814a8bf8"),
        ((12, 2, 0.5, 0, 0), 27, 6,
         "76db2ef89609edab87c738587062ce6d506c92617a1c3d35c7e9ef70624a1998"),
        ((20, 2, 0.2, 1, 0), 40, 9,
         "4b460b0e3b0538b7d178e0526abcf00aa22a4acc070c1576cebdaa7425ee4748"),
        ((65, 2, 0.03, 0, 0), 50, 21,
         "cd2a74edfb2d5c31f6cd4b58ee6c6c0e188ee5388f7c8e7876632f224cffb641"),
        ((70, 2, 0.03, 2, 0), 59, 25,
         "b189451d14e166f009fee163dffa8be7677a8e35c570bc197c5fbee396f8e237"),
        ((65, 3, 0.002, 2, 0), 71, 18,
         "25846f1b44508538b286d2b5bb6c800bb97c2c960fc8cd7c806217132ce2a7bc"),
        ((70, 3, 0.001, 2, 0), 44, 14,
         "b9995ebab2d475ec5f79b75eea449b3682c496ab1bcd17454b6612ddb5eb18cf"),
        ((65, 4, 5e-05, 1, 0), 40, 11,
         "ae62ca5f9423cd57fbebaacfbb4568af0fb8ed1d1b47b1db5e2d40dec0d6ea27"),
        ((70, 4, 3e-05, 0, 0), 27, 9,
         "a61a244db482d3d03f58f2829c49a9ad226ee43358eb47a0c28c9a74b7720a0b"),
    ]

    @pytest.mark.parametrize(
        "spec,size,nu,digest",
        GOLDEN,
        ids=["-".join(map(str, g[0])) for g in GOLDEN],
    )
    def test_golden_witness(self, spec, size, nu, digest):
        f = sample_family(SampleSpec(*spec))
        assert len(f) == size and f.n // f.k >= 4
        got, m = matching_number(f)
        assert got == nu
        check_matching(f, m)
        assert hashlib.sha256(repr(m.edges).encode()).hexdigest() == digest


class TestPickle:
    def test_round_trip(self):
        f = Family(4, 2, [(1, 2), (3, 4)])
        matching_number(f)
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g is not f
        assert g.masks == f.masks
        assert g._nu is None
        assert matching_number(g) == matching_number(f)


@st.composite
def wide_family_args(draw):
    """(n, k, edges) around the 64-vertex uint64 mask limit."""
    n = draw(st.sampled_from([1, 2, 5, 9, 63, 64, 65, 200]))
    k = draw(st.integers(min_value=1, max_value=min(n, 4)))
    edge = st.sets(
        st.integers(min_value=1, max_value=n), min_size=k, max_size=k
    )
    return n, k, draw(st.lists(edge, max_size=12))


class TestArrayBacked:
    """A family built from the canonical vertex array (as `sample_family`
    builds it) is the family built from the same edges as tuples."""

    @settings(max_examples=60, deadline=None)
    @given(wide_family_args())
    @example((8, 0, [()]))
    @example((64, 3, []))
    @example((63, 2, [(1, 63), (62, 63), (2, 3)]))
    @example((64, 1, [(64,), (1,)]))
    @example((65, 2, [(64, 65), (1, 65), (1, 2)]))
    def test_same_family_either_form(self, args):
        n, k, edges = args
        canon = sorted({tuple(sorted(e)) for e in edges})
        rows = np.array(canon, dtype=np.int64).reshape(len(canon), k)

        def both():
            # fresh pair per check, so each view is derived from one form
            return Family(n, k, edges), Family._from_array(n, k, rows)

        masks = tuple(sum(1 << (v - 1) for v in e) for e in canon)
        deg = {v: sum(v in e for e in canon) for v in range(1, n + 1)}
        tup, arr = both()
        assert arr == tup and tup == arr and hash(arr) == hash(tup)
        tup, arr = both()
        assert len(tup) == len(arr) == len(canon)
        tup, arr = both()
        assert tup.edges == arr.edges == tuple(canon)
        tup, arr = both()
        assert tup.masks == arr.masks == masks
        tup, arr = both()
        assert tup.degrees() == arr.degrees() == deg
        tup, arr = both()
        assert np.array_equal(tup.vertex_array(), rows)
        for f in both():
            g = pickle.loads(pickle.dumps(f))
            assert g == f and g.edges == tuple(canon) and g.masks == masks

    def test_masks_of_numpy_vertices(self):
        # bits 63 and 69 are past a 64-bit integer's reach
        for n in (64, 70):
            f = Family(n, 2, [(np.int64(1), np.int64(n))])
            assert f.masks == (1 | 1 << (n - 1),)

    def test_vertex_array_is_read_only(self):
        for f in (
            Family(5, 2, [(1, 2), (3, 4)]),
            Family._from_array(5, 2, np.array([[1, 2], [3, 4]])),
        ):
            with pytest.raises(ValueError):
                f.vertex_array()[0, 0] = 5

    def test_differs_from_other_edges(self):
        f = Family._from_array(5, 2, np.array([[1, 2], [3, 4]]))
        assert f != Family(5, 2, [(1, 2), (3, 5)])
        assert f != Family._from_array(5, 2, np.array([[1, 2]]))
        assert f != Family._from_array(6, 2, np.array([[1, 2], [3, 4]]))


class TestMatchingCache:
    @pytest.fixture
    def solved(self, monkeypatch):
        """Families handed to the nu branch and bound, one per solve."""
        seen = []
        solve = families._solve_matching

        def counting(fam):
            seen.append(fam)
            return solve(fam)

        monkeypatch.setattr(families, "_solve_matching", counting)
        return seen

    def test_one_solve_per_family(self, solved):
        f = Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
        nu = matching_number(f)
        assert not is_trivial(f)
        assert covering_number(f)[0] == 2
        assert matching_number(f) is nu
        assert solved == [f]
        assert nu == families._solve_matching(Family(f.n, f.k, f.edges))

    def test_verdict_solves_opt_family_once(self, solved):
        host = complete_family(7, 3)
        v = extremal_verdict(host, 1)
        assert v.opt_family.edges
        assert sum(fam is v.opt_family for fam in solved) == 1
        fresh = Family(host.n, host.k, v.opt_family.edges)
        assert (v.opt_nu, matching_number(v.opt_family)[1]) == (
            families._solve_matching(fresh)
        )
        assert v.opt_tau == covering_number(fresh)[0]


class TestSolverProperties:
    @given(family_args())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, args):
        n, k, edges = args
        f = Family(n, k, edges)
        nu, m = matching_number(f)
        assert nu == brute_matching_number(f.edges)
        assert len(m) == nu
        check_matching(f, m)

    @given(family_args())
    @settings(max_examples=200, deadline=None)
    def test_cover_matches_oracle(self, args):
        n, k, edges = args
        f = Family(n, k, edges)
        if not f.edges:
            return
        tau, c = covering_number(f)
        assert tau == brute_covering_number(f.edges, n)
        check_cover(f, c)

    @given(family_args())
    @settings(max_examples=200, deadline=None)
    def test_nu_tau_sandwich(self, args):
        n, k, edges = args
        f = Family(n, k, edges)
        nu, _ = matching_number(f)
        if not f.edges:
            return
        tau, _ = covering_number(f)
        assert nu <= tau <= k * nu
        assert is_trivial(f) == (nu == tau)
        assert is_trivial(f) == brute_is_trivial(f.edges, n)

    @given(family_args())
    @settings(max_examples=100, deadline=None)
    def test_filter_partition(self, args):
        n, k, edges = args
        f = Family(n, k, edges)
        avoid = (1,) if n >= 1 else ()
        meet = (2,) if n >= 2 else ()
        if not meet:
            return
        hit = f.filter(avoid=avoid, meet=meet)
        miss = f.filter(avoid=tuple(set(avoid) | set(meet)))
        rest = f.filter(avoid=avoid)
        assert len(hit.edges) + len(miss.edges) == len(rest.edges)

    @given(family_args())
    @settings(max_examples=100, deadline=None)
    def test_deterministic_witnesses(self, args):
        n, k, edges = args
        f = Family(n, k, edges)
        g = Family(n, k, list(reversed(edges)))
        assert matching_number(f) == matching_number(g)
        if f.edges:
            assert covering_number(f) == covering_number(g)


class TestIO:
    def test_round_trip(self, tmp_path):
        f = Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
        path = tmp_path / "fam.txt"
        write_edge_file(f, path)
        assert read_edge_file(path) == f

    def test_round_trip_empty(self, tmp_path):
        f = Family(5, 2, [])
        path = tmp_path / "empty.txt"
        write_edge_file(f, path)
        assert read_edge_file(path) == f

    @given(family_args())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, args):
        n, k, edges = args
        f = Family(n, k, edges)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "f.txt")
            write_edge_file(f, path)
            assert read_edge_file(path) == f


def _planted(n, k, m, t, extra, seed):
    """m edges each meeting the planted set [t], plus `extra` edges drawn
    from all of [n]; tau <= t + extra keeps the cover search short."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        hub = int(rng.integers(1, t + 1))
        others = [v for v in range(1, n + 1) if v != hub]
        rest = rng.choice(others, size=k - 1, replace=False).tolist()
        edges.add(tuple(sorted([hub, *rest])))
    while len(edges) < m + extra:
        rest = rng.choice(n, size=k, replace=False) + 1
        edges.add(tuple(sorted(rest.tolist())))
    return Family(n, k, edges)


def _milp_optimum(rows, num, cover):
    """max sum x (every row sums to <= 1) or, with `cover`, min sum x
    (every row sums to >= 1), over x in {0, 1}^num, by HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    ptr = list(itertools.accumulate((len(r) for r in rows), initial=0))
    a = sparse.csr_array(
        ([1.0] * ptr[-1], [i for r in rows for i in r], ptr),
        shape=(len(rows), num),
    )
    bounds = (1, float("inf")) if cover else (-float("inf"), 1)
    res = optimize.milp(
        [1.0 if cover else -1.0] * num,
        constraints=optimize.LinearConstraint(a, *bounds),
        integrality=[1] * num,
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return round(abs(res.fun))


def _lex_first_witness(fam):
    """The first disjoint triple (i, j, t) in lex order, else the first
    disjoint pair, else None: edge indices by plain set intersection."""
    sets = [set(e) for e in fam.edges]
    later = [
        [j for j in range(i + 1, len(sets)) if not sets[i] & sets[j]]
        for i in range(len(sets))
    ]
    pair = None
    for i, js in enumerate(later):
        partners = set(js)
        for j in js:
            pair = pair or (i, j)
            third = [t for t in later[j] if t in partners]
            if third:
                return i, j, third[0]
    return pair


class TestAgainstHiGHS:
    # cap = n // k <= 3 with hundreds of edges, past the brute-force oracles
    @pytest.mark.parametrize(
        "n, k, m, t, extra, seed",
        [
            (15, 5, 300, 2, 0, 1),  # n = 3k: nu 2, tau 2
            (15, 5, 300, 3, 1, 2),  # nu 3, tau 4
            (20, 6, 400, 2, 0, 1),  # 3k < n < 4k, small complement
            (20, 6, 400, 3, 3, 1),  # nu 3 past a greedy 2, tau 4
            (38, 10, 500, 2, 1, 2),  # C(18, 10) k-sets in a complement
            (38, 10, 500, 3, 1, 1),
            (67, 22, 200, 3, 1, 2),  # n > 64: nu 2, tau 4
            (70, 22, 300, 2, 1, 1),  # nu 1, tau 2
        ],
    )
    def test_nu_and_tau_match_milp(self, n, k, m, t, extra, seed):
        f = _planted(n, k, m, t, extra, seed)
        assert n // k <= 3 and 200 <= len(f) <= 600
        index = range(len(f))
        by_vertex = [
            [i for i in index if v in f.edges[i]] for v in range(1, n + 1)
        ]
        nu, witness = matching_number(f)
        tau, cover = covering_number(f)
        assert nu == _milp_optimum(by_vertex, len(f), cover=False)
        assert tau == _milp_optimum(
            [[v - 1 for v in e] for e in f.edges], n, cover=True
        )
        check_matching(f, witness)
        check_cover(f, cover)
        assert is_trivial(f) == (nu == tau)
        want = _lex_first_witness(f)
        assert (want is None) == (nu == 1)
        if want is not None:
            assert witness.edges == tuple(f.edges[i] for i in want)
