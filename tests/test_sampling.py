import hashlib
import itertools
import math
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matchlab.errors import CapacityError, RangeError, ScaleError
from matchlab.families import Family, complete_family
from matchlab.sampling import (
    SampleSpec,
    _unrank_batch,
    max_trivial,
    rank_subset,
    sample_family,
    stream,
    trivial_count,
    unrank_subset,
)

from oracles import brute_max_trivial


def _slot0_boundaries(n, k):
    """Ranks on both sides of every slot-0 boundary S_0[v] inside [0, C(n,k))."""
    out = set()
    s0 = 0
    for v in range(1, n + 1):
        s0 += comb(n - v, k - 1)
        out.update(r for r in (s0 - 1, s0) if 0 <= r < comb(n, k))
    return sorted(out)


@st.composite
def _sorted_ranks(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=1, max_value=n))
    ranks = draw(
        st.sets(st.integers(min_value=0, max_value=comb(n, k) - 1), max_size=40)
    )
    return n, k, sorted(ranks)


class TestRanking:
    @pytest.mark.parametrize("n,k", [(1, 1), (5, 2), (6, 3), (8, 4), (9, 1), (7, 7)])
    def test_bijection_exhaustive(self, n, k):
        for r, e in enumerate(itertools.combinations(range(1, n + 1), k)):
            assert rank_subset(e, n, k) == r
            assert unrank_subset(r, n, k) == e

    def test_batch_matches_scalar(self):
        ranks = np.arange(comb(9, 4))
        batch = _unrank_batch(ranks, 9, 4)
        for r, row in zip(ranks.tolist(), batch.tolist()):
            assert tuple(row) == unrank_subset(r, 9, 4)

    @given(_sorted_ranks())
    @example((9, 4, []))
    @example((9, 4, [57]))
    @example((40, 20, [0, comb(40, 20) - 1]))
    @example((30, 3, _slot0_boundaries(30, 3)))
    @example((12, 5, _slot0_boundaries(12, 5)))
    @example((40, 2, _slot0_boundaries(40, 2)))
    @example((17, 1, list(range(17))))
    @example((17, 17, [0]))
    @example((40, 40, [0]))
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_scalar_on_sorted_ranks(self, case):
        n, k, ranks = case
        batch = _unrank_batch(np.array(ranks, dtype=np.int64), n, k)
        assert batch.shape == (len(ranks), k)
        assert batch.dtype == np.int64
        for r, row in zip(ranks, batch.tolist()):
            assert tuple(row) == unrank_subset(r, n, k)

    @given(st.integers(min_value=1, max_value=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bijection_random(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        r = data.draw(st.integers(min_value=0, max_value=comb(n, k) - 1))
        e = unrank_subset(r, n, k)
        assert len(e) == k and all(1 <= v <= n for v in e)
        assert rank_subset(e, n, k) == r


class TestSampleSpec:
    def test_validation(self):
        with pytest.raises(RangeError):
            SampleSpec(0, 1, 0.5, 1)
        with pytest.raises(RangeError):
            SampleSpec(5, 6, 0.5, 1)
        with pytest.raises(RangeError):
            SampleSpec(5, 2, 1.5, 1)
        with pytest.raises(RangeError):
            SampleSpec(5, 2, 0.5, 1, trial_index=-1)

    def test_to_dict(self):
        s = SampleSpec(5, 2, 0.25, 9, 3)
        assert s.to_dict() == {"n": 5, "k": 2, "p": 0.25, "seed": 9, "trial_index": 3}


class TestSampling:
    def test_p_one_gives_complete(self):
        assert sample_family(SampleSpec(6, 3, 1.0, 1)) == complete_family(6, 3)

    def test_p_zero_gives_empty(self):
        assert sample_family(SampleSpec(6, 3, 0.0, 1)).edges == ()

    def test_reproducible(self):
        a = sample_family(SampleSpec(10, 2, 0.5, 42, 0))
        b = sample_family(SampleSpec(10, 2, 0.5, 42, 0))
        assert a == b

    def test_golden_stream(self):
        # pinned from the reference stream on first run; any change to the
        # generator keying or the gap derivation must show up here
        a = sample_family(SampleSpec(10, 2, 0.5, 42, 0))
        assert len(a.edges) == 20
        assert a.edges[:4] == ((1, 4), (1, 5), (1, 8), (1, 9))
        assert 10 <= len(a.edges) <= 35
        c = sample_family(SampleSpec(10, 2, 0.5, 42, 1))
        assert len(c.edges) == 22
        assert c.edges[:4] == ((1, 2), (1, 5), (1, 7), (1, 8))
        d = sample_family(SampleSpec(8, 3, 0.3, 7, 5))
        assert len(d.edges) == 20
        assert d.edges[:3] == ((1, 2, 3), (1, 2, 8), (1, 3, 5))

    # SHA-256 of vertex_array().tobytes() and the edge count, per spec
    GOLDEN = [
        ((1000, 2, 0.6, 3, 0), 299740,
         "2f909cc6efd276f824576eb4cbaf598d405ed91800412f81094decb2b7834dfd"),
        ((1000, 2, 0.6, 2024, 5), 299294,
         "06fd09b48518b69c8bb81af80209d41da7a7c7efcccd62481bcb7abb66eb73b3"),
        ((60, 3, 0.3, 3, 0), 10393,
         "c0365f885a26f091f97b3c9a35869429d1ac8eea468594aa5284faa012b00d31"),
        ((60, 3, 0.3, 2024, 5), 10235,
         "6939f318cec65aacb9454c862731cfefdf79780141951d7b8b243c01a4e65aab"),
        ((30, 10, 8.7e-05, 3, 0), 2661,
         "f1ee1e5ebb2096f06f5196ce964688b8019fb22affac0037cd410918a4d31323"),
        ((30, 10, 8.7e-05, 2024, 5), 2630,
         "5622442407a837e84491902d5a46d4faeca59505572522f389d8e7ec177c2d77"),
        ((11, 3, 0.2, 3, 0), 27,
         "7f9150632338a082d3e0cb87e4827e3e8ca34498aa53add9f1bb32ea343c1b20"),
        ((11, 3, 0.2, 2024, 5), 26,
         "c80d7fb5b5b6ad1f414a9e92d95f5410d8d109bf7d038dad23a0164528542681"),
        ((200, 2, 0.005, 3, 0), 92,
         "cd25f049bd99f54359b7bf0923b6bf87e2ff4f4d4d8c4b8c4e2d12925d825f00"),
        ((200, 2, 0.005, 2024, 5), 90,
         "81aa036ae8600b83b446ec23a9cfa8cba111b523fd0756e9173e2fd2cc4b3f10"),
        ((7, 1, 0.5, 3, 0), 3,
         "3624a254c5ee8cf1553e2215003df032bed2e3b25b2c2f012e083e031dca7bbf"),
        ((7, 1, 0.5, 2024, 5), 3,
         "7f9ff4be5a96c18ac86fe372e23cf2a3263bfe0fd92c0187eece3b374ad3fb6a"),
        ((12, 4, 1.0, 1, 0), 495,
         "0cd97890264766a292549db0cd24f9f6f0d7092f10a9707ff7bb3c704e701dc3"),
        ((12, 4, 0.0, 1, 0), 0,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ]

    @pytest.mark.parametrize(
        "spec,size,digest", GOLDEN, ids=["-".join(map(str, g[0])) for g in GOLDEN]
    )
    def test_golden_hosts(self, spec, size, digest):
        # byte-identical hosts, not only equal edge counts: any change to the
        # stream, the gap derivation or the unranking shows up here
        f = sample_family(SampleSpec(*spec))
        arr = f.vertex_array()
        assert len(f) == size
        assert arr.shape == (size, spec[1])
        assert hashlib.sha256(arr.tobytes()).hexdigest() == digest

    def test_trials_differ(self):
        fams = {
            sample_family(SampleSpec(10, 2, 0.5, 42, t)).edges for t in range(8)
        }
        assert len(fams) == 8

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            sample_family(SampleSpec(70, 35, 0.5, 1))

    def test_tiny_p_mostly_empty(self):
        f = sample_family(SampleSpec(40, 5, 1e-12, 3))
        assert len(f.edges) <= 2

    def test_edges_valid(self):
        f = sample_family(SampleSpec(12, 4, 0.3, 5))
        for e in f.edges:
            assert len(e) == 4
            assert all(1 <= v <= 12 for v in e)
            assert list(e) == sorted(set(e))
        assert list(f.edges) == sorted(f.edges)

    def test_mean_frequency(self):
        # over 1000 draws at n=8, k=3, p=0.3 the mean kept fraction sits
        # within 3 standard errors of p
        trials = 1000
        total = sum(
            len(sample_family(SampleSpec(8, 3, 0.3, 99, t)).edges)
            for t in range(trials)
        )
        m = comb(8, 3)
        mean = total / (trials * m)
        se = math.sqrt(0.3 * 0.7 / (trials * m))
        assert abs(mean - 0.3) <= 3 * se

    def test_star_concentration(self):
        # degree of vertex 1 at n=40, k=2, p=0.5 has mean 19.5; the rate of
        # relative deviations beyond 1/2 stays under the 2e^{-eps^2 mu / 3}
        # envelope plus noise
        trials = 400
        mu = 0.5 * 39
        bound = 2 * math.exp(-0.25 * mu / 3)
        bad = 0
        for t in range(trials):
            f = sample_family(SampleSpec(40, 2, 0.5, 123, t))
            deg = f.degree(1)
            if abs(deg / mu - 1) > 0.5:
                bad += 1
        rate = bad / trials
        assert rate <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)

    def test_stream_keying(self):
        g1 = stream(5, 0)
        g2 = stream(5, 0)
        g3 = stream(5, 1)
        a, b, c = g1.random(4), g2.random(4), g3.random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTrivialCount:
    def test_examples(self):
        assert trivial_count(6, 3, 1) == 10
        assert trivial_count(5, 2, 2) == 7
        assert trivial_count(5, 2, 0) == 0

    def test_star_identity(self):
        for n in range(2, 12):
            for k in range(1, n):
                assert trivial_count(n, k, 1) == comb(n - 1, k - 1)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            trivial_count(5, 2, 6)


class TestMaxTrivial:
    def test_complete_graph_star(self):
        r = max_trivial(complete_family(5, 2), 1)
        assert r.size == 4

    def test_four_triples(self):
        r = max_trivial(Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]), 1)
        assert r.size == 2

    def test_complete_graph_pair(self):
        r = max_trivial(complete_family(5, 2), 2)
        assert r.size == 7
        assert r.size == trivial_count(5, 2, 2)

    def test_s_zero(self):
        assert max_trivial(complete_family(5, 2), 0).size == 0

    def test_beyond_enumeration_cap(self):
        # C(60, 10) vertex sets, far past the cap
        with pytest.raises(ScaleError):
            max_trivial(Family(60, 2, [(1, 2)]), 10)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_matches_brute(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        k = data.draw(st.integers(min_value=1, max_value=min(n, 3)))
        pool = list(itertools.combinations(range(1, n + 1), k))
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=10))
        s = data.draw(st.integers(min_value=0, max_value=n))
        f = Family(n, k, edges)
        ex = max_trivial(f, s)
        assert ex.size == brute_max_trivial(f.edges, n, s)
        smask = 0
        for v in ex.vertices:
            smask |= 1 << (v - 1)
        assert sum(1 for m in f.masks if m & smask) == ex.size
