import itertools
import random
import typing

import pytest
from hypothesis import given, settings, strategies as st

from matchlab.covers import (
    CoverBasis,
    Part,
    PartitionCertificate,
    branching_cover,
    certify_decomposition,
    fan_cover,
    first_weak_set,
    greedy_decompose,
    is_t_resilient,
)
from matchlab.errors import (
    NotResilientError,
    RangeError,
    ScaleError,
    SizeError,
)
from matchlab.families import (
    Family,
    Matching,
    complete_family,
    generated_contains,
    matching_number,
)

from oracles import brute_resilient

TRIANGLE = Family(3, 2, [(1, 2), (1, 3), (2, 3)])
FOUR_EDGE = Family(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])


def sample_family(rng, ks, nmax=10, emax=16):
    k = rng.choice(ks)
    n = rng.randrange(max(2 * k, k + 2), nmax + 1)
    pool = list(itertools.combinations(range(1, n + 1), k))
    m = rng.randrange(3, min(emax, len(pool)) + 1)
    return Family(n, k, rng.sample(pool, m))


def resilient_corpus(count, ks, t, seed, nu_cap=None, nmax=10):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        fam = sample_family(rng, ks, nmax=nmax)
        nu = matching_number(fam)[0]
        if nu < 1 or (nu_cap is not None and nu > nu_cap):
            continue
        if is_t_resilient(fam, t):
            out.append(fam)
    return out


def dense_resilient_corpus(count, t, seed):
    rng = random.Random(seed)
    pool = list(itertools.combinations(range(1, 9), 3))
    out = []
    while len(out) < count:
        fam = Family(8, 3, rng.sample(pool, rng.randrange(30, 57)))
        if matching_number(fam)[0] >= 1 and is_t_resilient(fam, t):
            out.append(fam)
    return out


FAN_CORPUS = resilient_corpus(40, (2, 3), 1, seed=101, nu_cap=2)
BRANCH_CORPUS = resilient_corpus(12, (3,), 2, seed=202) + dense_resilient_corpus(
    12, 2, seed=203
)
CERT_CORPUS = resilient_corpus(40, (2, 3), 1, seed=404)


class TestResilience:
    def test_zero_always_holds(self):
        assert is_t_resilient(TRIANGLE, 0)
        assert is_t_resilient(Family(4, 2, [(1, 2)]), 0)

    def test_triangle_one_resilient(self):
        assert is_t_resilient(TRIANGLE, 1)

    def test_single_edge_not_resilient(self):
        assert not is_t_resilient(Family(6, 3, [(1, 2, 3)]), 1)

    def test_star_drops_at_center(self):
        star = Family(5, 2, [(1, 2), (1, 3), (1, 4)])
        assert not is_t_resilient(star, 1)
        assert first_weak_set(star, 1) == (1,)

    def test_k4_graph_not_resilient(self):
        k4 = complete_family(4, 2)
        assert not is_t_resilient(k4, 1)
        assert first_weak_set(k4, 1) == (1,)

    def test_complete_eight_two_resilient(self):
        assert is_t_resilient(complete_family(8, 3), 2)

    def test_empty_family_resilient(self):
        assert is_t_resilient(Family(5, 2, []), 1)

    def test_t_range_errors(self):
        with pytest.raises(RangeError):
            is_t_resilient(TRIANGLE, 2)
        with pytest.raises(RangeError):
            is_t_resilient(TRIANGLE, -1)
        with pytest.raises(RangeError):
            first_weak_set(TRIANGLE, 2)

    def test_scale_cap(self):
        fam = Family(1024, 4, [(1, 2, 3, 4), (5, 6, 7, 8)])
        with pytest.raises(ScaleError):
            is_t_resilient(fam, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute(self, data):
        n = data.draw(st.integers(min_value=4, max_value=7))
        k = data.draw(st.integers(min_value=2, max_value=3))
        pool = list(itertools.combinations(range(1, n + 1), k))
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=10))
        t = data.draw(st.integers(min_value=0, max_value=k - 1))
        fam = Family(n, k, edges)
        assert is_t_resilient(fam, t) == brute_resilient(n, fam.edges, t)


class TestFirstWeakSet:
    def test_none_when_resilient(self):
        assert first_weak_set(TRIANGLE, 1) is None
        assert first_weak_set(FOUR_EDGE, 1) is None

    def test_lex_smallest_single(self):
        assert first_weak_set(Family(2, 2, [(1, 2)]), 1) == (1,)

    def test_shared_vertex(self):
        assert first_weak_set(Family(3, 2, [(1, 3), (2, 3)]), 1) == (3,)

    def test_pair_found_after_singles(self):
        # 1-resilient, but deleting {1, 6} kills every edge
        assert first_weak_set(FOUR_EDGE, 2) == (1, 6)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_drop_is_exactly_one(self, data):
        n = data.draw(st.integers(min_value=4, max_value=7))
        pool = list(itertools.combinations(range(1, n + 1), 3))
        edges = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
        t = data.draw(st.integers(min_value=1, max_value=2))
        fam = Family(n, 3, edges)
        weak = first_weak_set(fam, t)
        nu = matching_number(fam)[0]
        if weak is None:
            assert brute_resilient(n, fam.edges, t)
            return
        assert 1 <= len(weak) <= t
        assert matching_number(fam.delete_vertices(weak))[0] == nu - 1
        # nothing smaller, and nothing lexicographically earlier of the
        # same size, lowers the matching number
        for size in range(1, len(weak) + 1):
            for cand in itertools.combinations(range(1, n + 1), size):
                if size == len(weak) and cand >= weak:
                    break
                assert matching_number(fam.delete_vertices(cand))[0] == nu


class TestGreedyDecompose:
    def test_resilient_input_is_fixed_point(self):
        d = greedy_decompose(TRIANGLE, 1)
        assert d.sets == ()
        assert d.residual == TRIANGLE

    def test_star_plus_triangle(self):
        fam = Family(6, 2, [(1, 2), (1, 3), (4, 5), (4, 6), (5, 6)])
        d = greedy_decompose(fam, 1)
        assert d.sets == ((1,),)
        assert d.residual == Family(6, 2, [(4, 5), (4, 6), (5, 6)])
        assert is_t_resilient(d.residual, 1)

    def test_single_edge(self):
        d = greedy_decompose(Family(6, 3, [(1, 2, 3)]), 2)
        assert d.sets == ((1,),)
        assert len(d.residual) == 0

    def test_empty_family(self):
        d = greedy_decompose(Family(5, 2, []), 1)
        assert d.sets == ()

    def test_deleted_accumulates(self):
        fam = Family(6, 2, [(1, 2), (1, 3), (4, 5), (4, 6), (5, 6)])
        assert greedy_decompose(fam, 1).deleted() == (1,)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_peeling_laws(self, data):
        n = data.draw(st.integers(min_value=4, max_value=8))
        k = data.draw(st.integers(min_value=2, max_value=3))
        pool = list(itertools.combinations(range(1, n + 1), k))
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        t = data.draw(st.integers(min_value=1, max_value=k - 1))
        fam = Family(n, k, edges)
        d = greedy_decompose(fam, t)
        nu = matching_number(fam)[0]
        assert len(d.sets) <= nu
        cur = fam
        for i, t_set in enumerate(d.sets):
            assert 1 <= len(t_set) <= t
            # the set peeled at step i is minimal, so the family seen
            # there withstands any smaller deletion
            assert is_t_resilient(cur, len(t_set) - 1)
            assert matching_number(cur)[0] == nu - i
            cur = cur.delete_vertices(t_set)
        assert cur == d.residual
        assert matching_number(cur)[0] == nu - len(d.sets)
        assert len(cur) == 0 or is_t_resilient(cur, t)
        again = greedy_decompose(cur, t)
        assert again.sets == ()


class TestFanCover:
    def test_triangle_trace(self):
        basis = fan_cover(TRIANGLE)
        assert basis.members == ((1, 2), (1, 3), (2, 3))
        assert basis.member_size == 2
        assert basis.declared_bound == 4

    def test_complete_five(self):
        fam = complete_family(5, 3)
        basis = fan_cover(fam)
        assert basis.declared_bound == 9
        assert len(basis) <= 9
        assert generated_contains(basis.members, fam)

    def test_rejects_empty(self):
        with pytest.raises(NotResilientError):
            fan_cover(Family(5, 2, []))

    def test_rejects_fragile(self):
        with pytest.raises(NotResilientError):
            fan_cover(Family(6, 3, [(1, 2, 3)]))

    def test_deterministic(self):
        fam = complete_family(7, 2)
        assert fan_cover(fam) == fan_cover(fam)

    @pytest.mark.parametrize("idx", range(len(FAN_CORPUS)))
    def test_corpus_laws(self, idx):
        fam = FAN_CORPUS[idx]
        nu = matching_number(fam)[0]
        basis = fan_cover(fam)
        assert basis.member_size == 2
        assert basis.declared_bound == (fam.k * nu) ** 2
        assert len(basis) <= basis.declared_bound
        verts = set(range(1, fam.n + 1))
        for a, b in basis.members:
            assert a != b and {a, b} <= verts
        assert generated_contains(basis.members, fam)


class TestBranchingCover:
    def test_triangle_depth_one(self):
        basis = branching_cover(TRIANGLE, 1)
        assert basis.members == ((1, 2), (1, 3), (2, 3))
        assert basis.declared_bound == 4

    def test_depth_zero_is_matching_support(self):
        basis = branching_cover(TRIANGLE, 0)
        assert basis.members == ((1,), (2,))
        assert basis.declared_bound == 2
        assert generated_contains(basis.members, TRIANGLE)

    def test_complete_eight_depth_two(self):
        fam = complete_family(8, 3)
        basis = branching_cover(fam, 2)
        assert basis.member_size == 3
        assert basis.declared_bound == 216
        assert len(basis) <= 216
        assert generated_contains(basis.members, fam)

    def test_meet_variant(self):
        fam = complete_family(8, 3)
        basis = branching_cover(fam, 2, meet=(1,))
        assert basis.declared_bound == 36
        assert len(basis) <= 36
        assert generated_contains(basis.members, fam.filter(meet=(1,)))

    def test_meet_too_large(self):
        fam = complete_family(8, 3)
        with pytest.raises(SizeError):
            branching_cover(fam, 2, meet=(1, 2, 3, 4, 5, 6))

    def test_empty_meet_is_vacuous(self):
        basis = branching_cover(complete_family(8, 3), 2, meet=())
        assert basis.members == ()
        assert basis.declared_bound == 0

    def test_rejects_fragile(self):
        with pytest.raises(NotResilientError):
            branching_cover(complete_family(6, 3), 1)
        with pytest.raises(NotResilientError):
            branching_cover(Family(5, 2, []), 1)

    @pytest.mark.parametrize("idx", range(len(BRANCH_CORPUS)))
    def test_corpus_laws(self, idx):
        fam = BRANCH_CORPUS[idx]
        nu = matching_number(fam)[0]
        ks = fam.k * nu
        basis = branching_cover(fam, 2)
        assert basis.member_size == 3
        assert basis.declared_bound == ks**3
        assert len(basis) <= basis.declared_bound
        assert generated_contains(basis.members, fam)
        meet = tuple(range(1, min(3, ks)))
        sub_basis = branching_cover(fam, 2, meet=meet)
        assert sub_basis.declared_bound == len(meet) * ks**2
        assert len(sub_basis) <= sub_basis.declared_bound
        assert generated_contains(sub_basis.members, fam.filter(meet=meet))


class TestCertifyDecomposition:
    def test_triangle_trace(self):
        cert = certify_decomposition(TRIANGLE)
        assert cert.q == 1
        assert cert.matching.edges == ((1, 2),)
        assert cert.x_set == (1, 2)
        assert cert.h0 == ((1, 2),)
        (part,) = cert.parts
        assert part.tag == "star"
        assert part.edges == ((1, 3), (2, 3))
        assert part.center == 3
        assert part.q_set == (1, 2)
        assert cert.star_count == 1
        assert cert.q_union == ()

    def test_four_edge_nontrivial(self):
        cert = certify_decomposition(FOUR_EDGE)
        assert cert.h0 == ((1, 2, 3),)
        (part,) = cert.parts
        assert part.tag == "nontrivial"
        assert part.center == 1
        assert part.prime == (1, 4, 5)
        assert part.second == (2, 4, 6)
        assert cert.q_union == (1, 2, 3, 4, 5, 6)
        assert cert.star_count == 0

    def test_type_hints_resolve(self):
        hints = typing.get_type_hints(PartitionCertificate)
        assert hints["matching"] is Matching

    def test_empty_part(self):
        cert = certify_decomposition(complete_family(4, 3))
        assert len(cert.h0) == 4
        (part,) = cert.parts
        assert part.tag == "empty"
        assert part.edges == ()

    def test_avoid_matches_prefiltering(self):
        host = Family(
            7, 3, list(FOUR_EDGE.edges) + [(1, 2, 7), (3, 4, 7)]
        )
        cert = certify_decomposition(host, avoid=(7,))
        plain = certify_decomposition(host.filter(avoid=(7,)))
        assert cert.avoid == (7,)
        assert cert.parts == plain.parts
        assert cert.h0 == plain.h0

    def test_rejects_fragile(self):
        with pytest.raises(NotResilientError):
            certify_decomposition(Family(6, 3, [(1, 2, 3)]))
        with pytest.raises(NotResilientError):
            certify_decomposition(Family(5, 2, []))

    @pytest.mark.parametrize("idx", range(len(CERT_CORPUS)))
    def test_corpus_laws(self, idx):
        fam = CERT_CORPUS[idx]
        cert = certify_decomposition(fam)
        k = fam.k
        x_set = set(cert.x_set)
        assert cert.q == matching_number(fam)[0]
        assert cert.q == len(cert.matching.edges)

        collected = list(cert.h0)
        for part in cert.parts:
            collected.extend(part.edges)
        assert tuple(sorted(collected)) == fam.edges

        for e in cert.h0:
            assert len(set(e) & x_set) >= 2

        blocks = set()
        for part, anchor in zip(cert.parts, cert.matching.edges):
            for e in part.edges:
                hit = set(e) & x_set
                assert len(hit) == 1
                assert hit <= set(anchor)
            if part.tag == "empty":
                assert part.edges == ()
                continue
            if part.tag == "star":
                q_set = set(part.q_set)
                assert part.center not in q_set
                for e in part.edges:
                    assert part.center in e
                    assert q_set & set(e)
                continue
            assert part.tag == "nontrivial"
            assert set(part.prime) & set(anchor) == {part.center}
            assert part.center not in part.second
            block = set(anchor) | set(part.prime) | set(part.second)
            assert len(block) < 3 * k
            blocks |= block
            for e in part.edges:
                assert len(set(e) & block) >= 2
        assert set(cert.q_union) == blocks
        nontrivial = sum(1 for p in cert.parts if p.tag == "nontrivial")
        if nontrivial:
            assert len(cert.q_union) < 3 * k * nontrivial
