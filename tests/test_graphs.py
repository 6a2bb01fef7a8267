import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchlab import families, graphs, sampling
from matchlab.errors import InvalidPartitionError, RangeError, ScaleError
from matchlab.families import Family, complete_family, matching_number
from matchlab.graphs import (
    SPartition,
    build_partition_graph,
    extremal_graphs,
    f_bound,
    max_nu_subgraph,
    partition_edge_count,
)
from matchlab.oracle import max_family_nu_le
from matchlab.sampling import SampleSpec, sample_family

K5_PART = SPartition((), ((1, 2, 3, 4, 5),))
STAR_PART = SPartition((1,), tuple((v,) for v in range(2, 7)))
MIXED_PART = SPartition((1,), ((2, 3, 4),) + tuple((v,) for v in range(5, 8)))


def odd_partitions(items):
    items = list(items)
    if not items:
        yield ()
        return
    first = items[0]
    rest = items[1:]
    for r in range(0, len(rest) + 1, 2):
        for combo in itertools.combinations(rest, r):
            part = (first,) + combo
            leftover = [v for v in rest if v not in set(combo)]
            for tail in odd_partitions(leftover):
                yield (part,) + tail


def random_spartition(rng, n):
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    b = rng.randrange(0, n + 1)
    b_set, rest = verts[:b], verts[b:]
    parts = []
    while rest:
        size = rng.choice([a for a in (1, 3, 5) if a <= len(rest)])
        if (len(rest) - size) % 2 == 1:
            size = 1
        parts.append(tuple(rest[:size]))
        rest = rest[size:]
    return SPartition(tuple(b_set), tuple(parts))


def random_graph(rng, n, p):
    pool = list(itertools.combinations(range(1, n + 1), 2))
    return Family(n, 2, [e for e in pool if rng.random() < p])


class TestSPartition:
    def test_canonical_order(self):
        p = SPartition((3, 1), ((7, 6, 5), (2,), (8, 9, 4)))
        assert p.b_set == (1, 3)
        assert p.parts == ((4, 8, 9), (5, 6, 7), (2,))

    def test_s_values(self):
        assert K5_PART.s == 2
        assert STAR_PART.s == 1
        assert MIXED_PART.s == 2
        assert SPartition((), ((1,),)).s == 0

    def test_even_part_rejected(self):
        with pytest.raises(InvalidPartitionError):
            SPartition((), ((1, 2),))

    def test_empty_part_rejected(self):
        with pytest.raises(InvalidPartitionError):
            SPartition((), ((),))

    def test_vertex_reuse_rejected(self):
        with pytest.raises(InvalidPartitionError):
            SPartition((1,), ((1, 2, 3),))
        with pytest.raises(InvalidPartitionError):
            SPartition((), ((1, 2, 3), (3,)))
        with pytest.raises(InvalidPartitionError):
            SPartition((2, 2), ((1,),))

    def test_bad_vertex_rejected(self):
        with pytest.raises(InvalidPartitionError):
            SPartition((0,), ((1,),))

    def test_validate_coverage(self):
        assert K5_PART.validate(5) == 2
        with pytest.raises(InvalidPartitionError):
            K5_PART.validate(6)
        with pytest.raises(InvalidPartitionError):
            K5_PART.validate(4)


class TestBuildGraph:
    def test_single_odd_clique(self):
        g = build_partition_graph(K5_PART, 5)
        assert g == complete_family(5, 2)
        assert partition_edge_count(K5_PART, 5) == 10
        assert matching_number(g)[0] == 2

    def test_star_partition(self):
        g = build_partition_graph(STAR_PART, 6)
        assert g.edges == tuple((1, v) for v in range(2, 7))
        assert partition_edge_count(STAR_PART, 6) == 5
        assert matching_number(g)[0] == 1

    def test_mixed_partition(self):
        g = build_partition_graph(MIXED_PART, 7)
        want = {(1, v) for v in range(2, 8)} | {(2, 3), (2, 4), (3, 4)}
        assert set(g.edges) == want
        assert partition_edge_count(MIXED_PART, 7) == 9
        assert matching_number(g)[0] == 2

    def test_count_matches_construction_random(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(1, 11)
            p = random_spartition(rng, n)
            assert partition_edge_count(p, n) == len(
                build_partition_graph(p, n)
            )

    def test_matching_number_exhaustive_small(self):
        # every valid partition with n >= 2s+2 yields nu exactly s
        for n in range(1, 11):
            verts = list(range(1, n + 1))
            for b in range(0, n + 1):
                for b_set in itertools.combinations(verts, b):
                    rest = [v for v in verts if v not in set(b_set)]
                    for parts in odd_partitions(rest):
                        p = SPartition(b_set, parts)
                        if n < 2 * p.s + 2:
                            continue
                        g = build_partition_graph(p, n)
                        assert matching_number(g)[0] == p.s


class TestFBound:
    def test_examples(self):
        assert f_bound(10, 2) == 17
        assert f_bound(4, 1) == 3
        assert f_bound(5, 2) == 10

    def test_negative_s(self):
        with pytest.raises(RangeError):
            f_bound(5, -1)

    def test_nondecreasing_in_n(self):
        for s in range(0, 4):
            vals = [f_bound(n, s) for n in range(2 * s + 2, 40)]
            assert vals == sorted(vals)


class TestMaxNuSubgraph:
    def test_complete_four(self):
        r = max_nu_subgraph(complete_family(4, 2), 1)
        assert r.size == 3
        assert r.partition.validate(4) == 1

    def test_complete_seven(self):
        assert max_nu_subgraph(complete_family(7, 2), 2).size == 11

    def test_empty_graph(self):
        r = max_nu_subgraph(Family(8, 2, []), 2)
        assert r.size == 0
        assert r.partition.validate(8) == 2

    def test_classical_bound_attained_on_complete(self):
        for s in (1, 2, 3):
            for n in range(2 * s + 2, 13):
                r = max_nu_subgraph(complete_family(n, 2), s)
                assert r.size == f_bound(n, s)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            max_nu_subgraph(complete_family(5, 3), 1)
        with pytest.raises(RangeError):
            max_nu_subgraph(complete_family(6, 2), -1)
        with pytest.raises(RangeError):
            max_nu_subgraph(complete_family(5, 2), 2)

    def test_force_oracle_below_threshold(self):
        r = max_nu_subgraph(complete_family(5, 2), 2, force_oracle=True)
        assert r.size == 10
        assert r.partition is None

    def test_scale_cap(self, monkeypatch):
        # past the old n <= 16 limit for s >= 3; only the node cap is left
        for n in range(17, 21):
            for s in (3, 4, 5):
                r = max_nu_subgraph(complete_family(n, 2), s)
                assert r.size == f_bound(n, s)
        host = sample_family(
            SampleSpec(n=40, k=2, p=0.05, seed=1, trial_index=1)
        )
        assert max_nu_subgraph(host, 3).size == 12
        monkeypatch.setattr(graphs, "_ASSIGN_NODE_CAP", 20)
        with pytest.raises(ScaleError):
            max_nu_subgraph(host, 3)

    def test_two_disjoint_cliques_need_empty_b(self):
        edges = list(itertools.combinations(range(1, 6), 2))
        edges += list(itertools.combinations(range(6, 11), 2))
        r = max_nu_subgraph(Family(30, 2, edges), 2)
        assert r.size == 10

    def test_interleaved_equal_parts(self):
        # all degrees tie, so the triangles interleave in the search order
        two = Family(8, 2, [(1, 3), (1, 5), (3, 5), (2, 4), (2, 6), (4, 6)])
        assert max_nu_subgraph(two, 2).size == 6
        three = Family(
            9, 2, [e for t in ((1, 4, 7), (2, 5, 8), (3, 6, 9))
                   for e in itertools.combinations(t, 2)]
        )
        assert max_nu_subgraph(three, 3).size == 9

    def test_large_star_plus_triangle_prefers_mixed(self):
        edges = [(1, v) for v in range(2, 52)]
        edges += [(53, 54), (53, 55), (54, 55)]
        r = max_nu_subgraph(Family(60, 2, edges), 2)
        assert r.size == 53

    def test_s1_large_n(self):
        tri = Family(20, 2, [(5, 6), (5, 7), (6, 7)])
        assert max_nu_subgraph(tri, 1).size == 3
        star = Family(20, 2, [(3, v) for v in range(10, 16)])
        assert max_nu_subgraph(star, 1).size == 6

    def test_matches_subfamily_solver(self):
        rng = random.Random(77)
        for _ in range(100):
            s = rng.choice([1, 2])
            n = rng.randrange(2 * s + 2, 13)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            r = max_nu_subgraph(g, s)
            assert r.size == max_family_nu_le(g, s)[0]
            built = build_partition_graph(r.partition, n)
            assert len(set(g.edges) & set(built.edges)) == r.size

    def test_fast_path_matches_solver(self):
        rng = random.Random(78)
        for _ in range(10)	:
            s = rng.choice([1, 2])
            n = rng.randrange(17, 22)
            g = random_graph(rng, n, 0.25)
            assert max_nu_subgraph(g, s).size == max_family_nu_le(g, s)[0]

    def test_search_skips_degree_map(self, monkeypatch):
        # the search reads degrees off the vertex array
        calls = []
        degrees = Family.degrees

        def counting(fam):
            calls.append(fam.n)
            return degrees(fam)

        monkeypatch.setattr(Family, "degrees", counting)
        g = random_graph(random.Random(80), 20, 0.3)
        assert max_nu_subgraph(g, 2).size == max_family_nu_le(g, 2)[0]
        max_nu_subgraph(g, 1)
        assert calls == []

    def test_sampled_host_needs_no_masks(self, monkeypatch):
        # the k = 2 search reads the sampler's vertex array; no per-edge
        # int mask or edge tuple is built for it
        calls = []
        edge_mask = families._edge_mask

        def counting(edge):
            calls.append(edge)
            return edge_mask(edge)

        for mod in (families, sampling):
            monkeypatch.setattr(mod, "_edge_mask", counting)
        g = sample_family(SampleSpec(n=200, k=2, p=0.3, seed=5))
        got = [max_nu_subgraph(g, s) for s in (1, 2)]
        assert calls == []
        assert g._edges is None
        again = Family(200, 2, g.edges)
        assert got == [max_nu_subgraph(again, s) for s in (1, 2)]

    @pytest.mark.parametrize(
        "host, s",
        [
            (complete_family(12, 2), 2),
            (SampleSpec(n=200, k=2, p=0.3, seed=5), 2),
            # reaches the part packing of level |B| = 0
            (SampleSpec(n=40, k=2, p=0.05, seed=1, trial_index=1), 2),
        ],
        ids=["K12", "n200", "n40-packing"],
    )
    def test_leaves_no_garbage_cycles(self, host, s):
        # a cycle through the search would keep each host's vertex array
        # alive until the next collection
        g = host if isinstance(host, Family) else sample_family(host)
        gc.collect()
        gc.disable()
        try:
            max_nu_subgraph(g, s)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_s3_matches_subfamily_solver(self):
        rng = random.Random(83)
        for _ in range(150):
            n = rng.randrange(8, 21)
            pool = list(itertools.combinations(range(1, n + 1), 2))
            g = Family(n, 2, rng.sample(pool, rng.randrange(0, 26)))
            r = max_nu_subgraph(g, 3)
            assert r.size == max_family_nu_le(g, 3)[0]
            built = build_partition_graph(r.partition, n)
            kept = Family(n, 2, sorted(set(g.edges) & set(built.edges)))
            assert len(kept) == r.size
            assert matching_number(kept)[0] <= 3

    def test_witness_checked_by_networkx(self):
        nx = pytest.importorskip("networkx")
        g = sample_family(SampleSpec(n=200, k=2, p=0.3, seed=7))
        for s in range(1, 6):
            r = max_nu_subgraph(g, s)
            built = build_partition_graph(r.partition, 200)
            kept = set(g.edges) & set(built.edges)
            assert len(kept) == r.size
            h = nx.Graph(kept)
            assert len(nx.max_weight_matching(h, maxcardinality=True)) <= s

    def test_deterministic(self):
        rng = random.Random(79)
        g = random_graph(rng, 12, 0.4)
        assert max_nu_subgraph(g, 2) == max_nu_subgraph(g, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_never_exceeds_classical_bound(self, data):
        n = data.draw(st.integers(min_value=6, max_value=11))
        s = data.draw(st.integers(min_value=1, max_value=(n - 2) // 2))
        pool = list(itertools.combinations(range(1, n + 1), 2))
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=30))
        g = Family(n, 2, edges)
        r = max_nu_subgraph(g, s)
        assert r.size <= f_bound(n, s)
        assert matching_number(build_partition_graph(r.partition, n))[0] == s


class TestExtremalContainment:
    def test_exhaustive_n6_s1(self):
        # every graph on [6] with nu <= 1 fits inside some structure graph
        pool = list(itertools.combinations(range(1, 7), 2))
        masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v in pool]
        for bits in range(1 << len(pool)):
            idxs = [i for i in range(len(pool)) if bits >> i & 1]
            nu_ge_2 = any(
                masks[i] & masks[j] == 0
                for a, i in enumerate(idxs)
                for j in idxs[a + 1 :]
            )
            if nu_ge_2:
                continue
            g = Family(6, 2, [pool[i] for i in idxs])
            assert max_nu_subgraph(g, 1).size == len(g)

    def test_sampled_n8_s2(self):
        rng = random.Random(41)
        checked = 0
        while checked < 30:
            host = build_partition_graph(random_spartition(rng, 8), 8)
            if matching_number(host)[0] > 2:
                continue
            edges = [e for e in host.edges if rng.random() < 0.7]
            g = Family(8, 2, edges)
            if matching_number(g)[0] > 2:
                continue
            assert max_nu_subgraph(g, 2).size == len(g)
            checked += 1


class TestExtremalGraphs:
    def test_sizes(self):
        g1, g2 = extremal_graphs(10, 2)
        assert len(g1) == 10
        assert len(g2) == 17

    def test_matching_numbers_at_threshold(self):
        for s in (1, 2, 3):
            g1, g2 = extremal_graphs(2 * s + 2, s)
            assert matching_number(g1)[0] == s
            assert matching_number(g2)[0] == s

    def test_zero_s(self):
        g1, g2 = extremal_graphs(5, 0)
        assert len(g1) == 0 and len(g2) == 0

    def test_range_error(self):
        with pytest.raises(RangeError):
            extremal_graphs(4, 2)

    def test_sizes_match_bound_formulas(self):
        from math import comb

        for n in range(8, 16):
            for s in (1, 2, 3):
                if n < 2 * s + 1:
                    continue
                g1, g2 = extremal_graphs(n, s)
                assert len(g1) == comb(2 * s + 1, 2)
                assert len(g2) == comb(s, 2) + s * (n - s)
                assert f_bound(n, s) == max(len(g1), len(g2))

    def test_contained_in_own_structure_graph(self):
        for s in (1, 2):
            n = 2 * s + 2
            g1, g2 = extremal_graphs(n, s)
            assert max_nu_subgraph(g1, s).size == len(g1)
            assert max_nu_subgraph(g2, s).size == len(g2)
