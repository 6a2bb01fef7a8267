"""Resilience tests, greedy decomposition, and small cover bases.

A family is t-resilient when deleting any t or fewer vertices leaves the
matching number unchanged.  Under that hypothesis the constructions here
produce small vertex-set collections B with every edge containing some
member of B, with size bounds depending only on k, nu, and t.

Every "matching" used by a construction is a maximum matching taken from
the exact solver, never just a maximal one: the covering guarantees rest on
"an edge disjoint from the matching would extend it past nu", which is
only a contradiction when the matching already has nu edges.  The solver's
lexicographic tie-breaking keeps all outputs deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import (
    ClassificationError,
    NotResilientError,
    RangeError,
    ScaleError,
    SizeError,
)
from .families import Family, Matching, matching_number

_RESILIENCE_SUBSET_CAP = 1_000_000


@dataclass(frozen=True)
class CoverBasis:
    """Uniform vertex-subsets covering a family, with the promised bound."""

    members: tuple
    member_size: int
    declared_bound: int

    def __post_init__(self):
        assert len(self.members) <= self.declared_bound
        assert all(len(m) == self.member_size for m in self.members)

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class Decomposition:
    """Deletion sets T_1..T_l and the t-resilient (or empty) residual."""

    sets: tuple
    residual: Family
    t: int

    def __len__(self):
        return len(self.sets)

    def deleted(self):
        out = []
        for t_set in self.sets:
            out.extend(t_set)
        return tuple(sorted(out))


@dataclass(frozen=True)
class Part:
    """One block of the matching-anchored partition, with its witnesses.

    Star parts carry the common vertex and the vertex set q_set certifying
    every edge as {center} + something meeting q_set.  Non-trivial parts
    carry two edges: prime meets the anchor matching edge exactly in one
    vertex x, second avoids x; together with the anchor they pin every part
    edge in two vertices.
    """

    index: int
    edges: tuple
    tag: str
    center: int | None = None
    q_set: tuple | None = None
    prime: tuple | None = None
    second: tuple | None = None


@dataclass(frozen=True)
class PartitionCertificate:
    avoid: tuple
    q: int
    matching: Matching
    x_set: tuple
    h0: tuple
    parts: tuple
    q_union: tuple

    @property
    def star_count(self):
        return sum(1 for p in self.parts if p.tag == "star")


def _max_matching(fam):
    return matching_number(fam)[1]


def is_t_resilient(fam, t):
    """True iff deleting any set of at most t vertices preserves nu."""
    return first_weak_set(fam, t) is None


def first_weak_set(fam, t):
    """Smallest vertex set (size <= t, lex within a size) dropping nu.

    Returns None when the family is t-resilient.  A minimum-size weak set
    always drops nu by exactly one: removing one of its vertices must
    preserve nu, and deleting a single vertex lowers nu by at most one.
    """
    if t < 0:
        raise RangeError(f"t must be >= 0, got {t}")
    if fam.k == 0:
        return None
    if t >= fam.k:
        raise RangeError(f"t must be at most k-1 = {fam.k - 1}, got {t}")
    nu, witness = matching_number(fam)
    if nu == 0 or t == 0:
        return None
    if comb(fam.n, t) > _RESILIENCE_SUBSET_CAP:
        raise ScaleError(
            f"C({fam.n},{t}) candidate deletions exceeds the search cap"
        )
    support = witness.vertices()
    for size in range(1, t + 1):
        for t_set in itertools.combinations(range(1, fam.n + 1), size):
            if not set(t_set) & set(support):
                continue
            dropped = matching_number(fam.delete_vertices(t_set))[0]
            if dropped < nu:
                assert dropped == nu - 1
                return t_set
    return None


def greedy_decompose(fam, t):
    """Peel minimum weak sets until the residual is t-resilient or empty.

    Each round deletes a smallest vertex set that lowers nu (by exactly
    one), so there are at most nu(fam) rounds.
    """
    sets = []
    current = fam
    while True:
        weak = first_weak_set(current, t)
        if weak is None:
            return Decomposition(tuple(sets), current, t)
        sets.append(weak)
        current = current.delete_vertices(weak)


def fan_cover(fam):
    """Two-element cover basis for a 1-resilient family.

    Y is the vertex set of a maximum matching; every edge meets Y.  For
    y in Y, Z_y is the vertex set of a maximum matching of the family
    avoiding y, which any edge through y must meet: the matching has full
    size nu by 1-resilience, and an edge through y disjoint from it would
    extend it.  So the pairs {y, z} cover everything, and there are at most
    (k nu)^2 of them.
    """
    nu, witness = matching_number(fam)
    if nu < 1:
        raise NotResilientError("fan cover needs a family with nu >= 1")
    if not is_t_resilient(fam, 1):
        raise NotResilientError("fan cover needs a 1-resilient family")
    k = fam.k
    pairs = set()
    for y in witness.vertices():
        sub = fam.filter(avoid=(y,))
        z_set = _max_matching(sub).vertices()
        for z in z_set:
            assert z != y
            pairs.add(tuple(sorted((y, z))))
    basis = CoverBasis(tuple(sorted(pairs)), 2, (k * nu) ** 2)
    return basis


def branching_cover(fam, t, meet=None):
    """Cover basis of (t+1)-sets for a t-resilient family.

    Stage one seeds single vertices: the vertex set of a maximum matching,
    or the given `meet` set (then only edges meeting it are covered).  Each
    later stage extends every partial set S by each vertex of a maximum
    matching of the family avoiding S.  An edge containing S must meet that
    matching, so some extension stays inside the edge; after t extensions
    every covered edge contains a full member.
    """
    nu, witness = matching_number(fam)
    if nu < 1:
        raise NotResilientError("branching cover needs a family with nu >= 1")
    if not is_t_resilient(fam, t):
        raise NotResilientError(f"branching cover needs t-resilience, t={t}")
    k = fam.k
    if meet is not None:
        seeds = tuple(sorted(set(meet)))
        if len(seeds) >= k * nu:
            raise SizeError(
                f"seed set must have fewer than k*nu = {k * nu} vertices"
            )
        bound = len(seeds) * (k * nu) ** t
    else:
        seeds = witness.vertices()
        bound = (k * nu) ** (t + 1)

    level = {frozenset((v,)) for v in seeds}
    cache = {}
    for _ in range(t):
        nxt = set()
        for s_set in level:
            key = s_set
            if key not in cache:
                sub = fam.delete_vertices(s_set)
                cache[key] = _max_matching(sub).vertices()
            for v in cache[key]:
                nxt.add(s_set | {v})
        level = nxt
    members = tuple(sorted(tuple(sorted(s)) for s in level))
    return CoverBasis(members, t + 1, bound)


def certify_decomposition(host, avoid=()):
    """Partition the edges avoiding `avoid` around a maximum matching.

    H0 holds edges meeting the matching's vertex set X twice or more; part
    i holds edges whose single X-vertex lies in matching edge i.  Each part
    is intersecting (two disjoint part-i edges plus the other matching
    edges would beat nu).  Star parts are certified by a center and the
    vertex set of a maximum matching avoiding it; non-trivial parts by the
    prime/second witness pair.  q_union collects anchor + witnesses over
    the non-trivial parts, fewer than 3k vertices per part.
    """
    fam = host.filter(avoid=avoid) if avoid else host
    nu, witness = matching_number(fam)
    if nu < 1:
        raise NotResilientError("certificate needs a family with nu >= 1")
    if not is_t_resilient(fam, 1):
        raise NotResilientError("certificate needs a 1-resilient family")
    k = fam.k
    edges, through = fam.edges, fam.through

    def first(bits):
        return edges[(bits & -bits).bit_length() - 1]

    # the edges meeting X, and those meeting it at least twice
    once = twice = 0
    for v in witness.vertices():
        twice |= once & through[v]
        once |= through[v]
    missing = ((1 << len(fam)) - 1) & ~once
    if missing:
        raise ClassificationError(
            f"edge {first(missing)} misses the maximum matching's vertex set"
        )
    single = once & ~twice

    parts = []
    q_union = set()
    for i, anchor in enumerate(witness.edges):
        # the part's edges grouped by their one X-vertex, in vertex order;
        # the groups are disjoint, so their sum is their union
        by_hit = [(v, single & through[v]) for v in anchor]
        by_hit = [(v, bits) for v, bits in by_hit if bits]
        part = sum(bits for _, bits in by_hit)
        if not part:
            parts.append(Part(index=i + 1, edges=(), tag="empty"))
            continue
        sub = fam._take(part)
        if matching_number(sub)[0] > 1:
            raise ClassificationError(
                f"part {i + 1} is not intersecting; solver invariant broken"
            )
        # the smallest vertex common to every edge of the part, if any
        center = next(
            (v for v in first(part) if through[v] & part == part), None
        )
        if center is not None:
            q_set = _max_matching(fam.filter(avoid=(center,))).vertices()
            parts.append(
                Part(
                    index=i + 1,
                    edges=sub.edges,
                    tag="star",
                    center=center,
                    q_set=q_set,
                )
            )
            continue
        assert len(by_hit) >= 2
        x_i = by_hit[0][0]
        prime = first(by_hit[0][1])
        second = first(by_hit[1][1])
        parts.append(
            Part(
                index=i + 1,
                edges=sub.edges,
                tag="nontrivial",
                center=x_i,
                prime=prime,
                second=second,
            )
        )
        block = set(anchor) | set(prime) | set(second)
        assert len(block) < 3 * k
        q_union |= block

    return PartitionCertificate(
        avoid=tuple(sorted(set(avoid))),
        q=nu,
        matching=witness,
        x_set=witness.vertices(),
        h0=fam._take(twice).edges,
        parts=tuple(parts),
        q_union=tuple(sorted(q_union)),
    )
