"""Graph-case tools: s-partitions, structure graphs, and exact nu-bounded
subgraph maxima.

An s-partition (B, A_1..A_m) splits [n] into a set B and odd-size parts
with |B| + sum (a_i - 1)/2 = s.  Its structure graph joins everything to
B and fills each part; for n >= 2s + 2 the structure graph has matching
number exactly s, and every graph with matching number at most s sits
inside some structure graph.  The largest nu <= s subgraph of G therefore
has max_P |E(G) cap E(structure(P))| edges, which is what
max_nu_subgraph computes, by one exact branch-and-bound search over the
levels |B| = s, ..., 0 for every n and s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import InvalidPartitionError, RangeError, ScaleError
from .families import Family, matching_number

_ASSIGN_NODE_CAP = 5_000_000


@dataclass(frozen=True)
class SPartition:
    """Vertex set B plus odd-size parts; s = |B| + sum (a_i - 1)/2.

    Parts are stored largest first, ties by smallest vertex.  Structural
    rules (odd sizes, disjointness) are checked here; being a partition of
    a specific [n] is checked by validate(n).
    """

    b_set: tuple
    parts: tuple

    def __post_init__(self):
        b = tuple(sorted(self.b_set))
        parts = tuple(
            sorted(
                (tuple(sorted(p)) for p in self.parts),
                key=lambda p: (-len(p), p),
            )
        )
        object.__setattr__(self, "b_set", b)
        object.__setattr__(self, "parts", parts)
        seen = set(b)
        if len(seen) != len(b):
            raise InvalidPartitionError("B has repeated vertices")
        for p in parts:
            if not p:
                raise InvalidPartitionError("parts must be nonempty")
            if len(p) % 2 == 0:
                raise InvalidPartitionError(f"part {p} has even size")
            ps = set(p)
            if len(ps) != len(p) or ps & seen:
                raise InvalidPartitionError(f"part {p} reuses a vertex")
            seen |= ps
        for v in seen:
            if not isinstance(v, int) or v < 1:
                raise InvalidPartitionError(f"bad vertex {v!r}")

    @property
    def s(self):
        return len(self.b_set) + sum((len(p) - 1) // 2 for p in self.parts)

    def validate(self, n):
        """Check that B and the parts exactly partition [n]; returns s."""
        covered = set(self.b_set)
        for p in self.parts:
            covered |= set(p)
        if covered != set(range(1, n + 1)):
            raise InvalidPartitionError(
                f"partition does not cover [{n}] exactly"
            )
        return self.s


def build_partition_graph(part, n):
    """The structure graph: B joined to everything, each part a clique."""
    part.validate(n)
    b_set = set(part.b_set)
    edges = list(itertools.combinations(sorted(b_set), 2))
    rest = sorted(set(range(1, n + 1)) - b_set)
    for a in part.parts:
        edges.extend(itertools.combinations(a, 2))
    edges.extend((b, v) for b in sorted(b_set) for v in rest)
    return Family(n, 2, edges)


def partition_edge_count(part, n):
    """Closed-form size of the structure graph."""
    part.validate(n)
    b = len(part.b_set)
    return (
        comb(b, 2)
        + sum(comb(len(a), 2) for a in part.parts)
        + b * (n - b)
    )


def f_bound(n, s):
    """max{C(2s+1,2), C(s,2) + s(n-s)}: the extremal edge count among
    graphs on [n] with matching number at most s, valid once n >= 2s+2."""
    if s < 0:
        raise RangeError(f"s must be >= 0, got {s}")
    return max(comb(2 * s + 1, 2), comb(s, 2) + s * (n - s))


class SubgraphResult(NamedTuple):
    size: int
    partition: SPartition | None


def _part_sizes(rem, cap):
    """Sizes 2c + 1 of the odd parts, largest first, of every split of the
    budget rem into part budgets c <= cap."""
    if rem == 0:
        yield ()
        return
    for c in range(min(rem, cap), 0, -1):
        for tail in _part_sizes(rem - c, c):
            yield (2 * c + 1,) + tail


def _fill(x, d):
    """sum(min(i, d) for i in range(x)): the most edges x vertices of
    degree <= d add to a part when they join it one at a time."""
    c = min(x, d + 1)
    return c * (c - 1) // 2 + d * (x - c)


class _Search:
    """Degrees, neighbour masks and incumbent of one max_nu_subgraph call.

    The search itself is module-level functions, so nothing here refers
    back to this object and a finished search leaves no reference cycle.
    """

    __slots__ = ("g", "deg", "order", "prefix", "nbrs", "best", "witness",
                 "nodes")

    def __init__(self, g):
        counts = np.bincount(g.vertex_array().ravel(), minlength=g.n + 1)
        # B never needs an isolated vertex: swapped for budget in the parts,
        # it lets a level below reach the same edges
        order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
        self.g = g
        self.deg = counts.tolist()
        self.order = order.tolist()
        self.prefix = [0] + np.cumsum(counts[order]).tolist()
        self.nbrs = None
        self.best = -1
        self.witness = None
        self.nodes = 0

    def masks(self):
        """nbrs[v] has bit w set iff vw is an edge; built on first use."""
        if self.nbrs is None:
            n = self.g.n
            a = np.zeros((n + 1, n + 1), dtype=bool)
            idx = self.g.vertex_array()
            a[idx[:, 0], idx[:, 1]] = True
            a[idx[:, 1], idx[:, 0]] = True
            rows = np.packbits(a, axis=1, bitorder="little").tobytes()
            w = len(rows) // (n + 1)
            self.nbrs = [
                int.from_bytes(rows[i : i + w], "little")
                for i in range(0, len(rows), w)
            ]
        return self.nbrs

    def tick(self):
        self.nodes += 1
        if self.nodes > _ASSIGN_NODE_CAP:
            raise ScaleError("partition search exceeded its node cap")

    def offer(self, value, b_set, parts, sizes):
        if value > self.best:
            self.best = value
            self.witness = (b_set, parts, sizes)


def _choose_b(st, b, r, room, start, chosen, bmask, value):
    """Grow B = chosen, met by `value` edges, to b vertices from
    st.order[start:]; then pack odd parts of budget r, which hold at most
    `room` edges, into G - B."""
    if len(chosen) == b:
        if r:
            _pack(st, chosen, bmask, value, r)
        else:
            st.offer(value, chosen, (), ())
        return
    need = b - len(chosen)
    order, prefix, deg = st.order, st.prefix, st.deg
    for i in range(start, len(order) - need + 1):
        if value + prefix[i + need] - prefix[i] + room <= st.best:
            break
        st.tick()
        v = order[i]
        gain = deg[v]
        if chosen:
            gain -= (st.masks()[v] & bmask).bit_count()
        _choose_b(st, b, r, room, i + 1, chosen + (v,), bmask | 1 << v,
                  value + gain)


def _cap(z, d):
    """Most edges a part of z vertices, none of degree above d, holds."""
    return min(_fill(z, d), z * d // 2)


def _bound(sizes, degs):
    """Most edges odd parts of these sizes hold when the degrees open to
    them are at most degs, in descending order: part by part, and half
    the degree sum of the largest sum(sizes) vertices."""
    top = degs[0] if degs else 0
    return min(sum(_cap(z, top) for z in sizes), sum(degs[: sum(sizes)]) // 2)


class _Packing(NamedTuple):
    """One split of the budget: the part sizes, and tails[i], the most
    edges parts i, i + 1, ... can hold."""

    b_set: tuple
    sizes: tuple
    tails: tuple


def _pack(st, b_set, bmask, base, r):
    """Odd parts of total budget r in G - B, on top of the `base` edges
    meeting B.  Parts grow from the non-isolated vertices outside B in
    st.order; the rest of each part is filled from unused vertices when
    the witness is built."""
    degs = [
        st.deg[v] for v in st.order[: len(b_set) + 3 * r] if not bmask >> v & 1
    ]
    for sizes in _part_sizes(r, r):
        if sum(sizes) > st.g.n - len(b_set):
            continue
        tails = tuple(_bound(sizes[k:], degs) for k in range(len(sizes) + 1))
        if base + min(tails[0], len(st.g) - base) > st.best:
            pk = _Packing(b_set, sizes, tails)
            _grow(st, pk, 0, base, (), (), 0, 0, 0, 0, bmask, 0)


def _grow(st, pk, i, done, parts, part, pmask, reach, inside, degsum, used,
          start):
    """Part i holds the positions `part` of st.order: vertex mask pmask,
    neighbours `reach`, `inside` edges and degree sum degsum.  B and the
    earlier parts hold `done` edges, and `used` marks their vertices.
    Close part i, or add a vertex from positions start onward."""
    z = pk.sizes[i]
    if pmask & ~reach == 0:
        # close only parts whose members all have a neighbour in the part;
        # a member without one is a filler, reached from the part without it
        got = done + inside
        if i + 1 == len(pk.sizes):
            if got > st.best:
                st.offer(got, pk.b_set, tuple(
                    tuple(st.order[q] for q in p) for p in parts + (part,)
                ), pk.sizes)
        elif got + pk.tails[i + 1] > st.best:
            if pk.sizes[i + 1] < z:
                nxt = 0
            else:
                # equal sizes: parts in order of their first position
                nxt = part[0] + 1 if part else len(st.order)
            _grow(st, pk, i + 1, got, parts + (part,), (), 0, 0, 0, 0, used,
                  nxt)
    j = len(part)
    if j == z:
        return
    order, deg, nbrs = st.order, st.deg, st.masks()
    rest = done + pk.tails[i + 1]
    last = -1
    for q in range(start, len(order)):
        d = deg[order[q]]
        if d != last:
            # no vertex from q on has degree above d: each adds at most
            # min(size so far, d) edges, and the part holds at most half
            # its degree sum
            last = d
            more = _fill(z, d) - _fill(j + 1, d)
            if rest + min(inside + min(j, d) + more,
                          (degsum + (z - j) * d) // 2) <= st.best:
                break
        w = order[q]
        bit = 1 << w
        if used & bit:
            continue
        gain = (nbrs[w] & pmask).bit_count()
        if rest + inside + gain + more <= st.best:
            continue
        st.tick()
        _grow(st, pk, i, done, parts, part + (q,), pmask | bit,
              reach | nbrs[w], inside + gain, degsum + d, used | bit, q + 1)


def _witness(n, b_set, parts, sizes):
    """The s-partition of a search witness: each odd part is topped up to
    its size with unused vertices, lowest first; the rest are singletons.
    The search is exact, so no top-up vertex adds an edge."""
    used = set(b_set).union(*parts)
    spare = [v for v in range(1, n + 1) if v not in used]
    full = []
    for p, z in zip(parts, sizes):
        full.append(p + tuple(spare[: z - len(p)]))
        del spare[: z - len(p)]
    return SPartition(b_set, tuple(full) + tuple((v,) for v in spare))


def max_nu_subgraph(g, s, force_oracle=False):
    """Exact maximum edge count of a subgraph with matching number <= s.

    Needs n >= 2s + 2, where the maximum is a maximum over s-partitions
    (B, odd parts) of the overlap with the structure graph.  Below that
    threshold the structural guarantee fails; force_oracle=True falls back
    to the subfamily solver and returns no partition.

    One search serves every n and s.  It visits the levels |B| = s, ...,
    0.  On each, B is picked from the non-isolated vertices in descending
    degree order; a partial B is dropped once its edges plus the next
    degrees plus the most that odd parts of budget r = s - |B| can hold
    (C(2r + 1, 2), or less when degrees are small) cannot beat the
    incumbent.  For r > 0 the parts are packed into G - B, each grown one
    vertex at a time, pruned by the edges it has plus the most its open
    places and the later parts can add.  ScaleError is raised only when
    the search exceeds _ASSIGN_NODE_CAP nodes.
    """
    if g.k != 2:
        raise RangeError(f"k must be 2, got {g.k}")
    if s < 0:
        raise RangeError(f"s must be >= 0, got {s}")
    n = g.n
    if n < 2 * s + 2:
        if not force_oracle:
            raise RangeError(
                f"n={n} is below 2s+2={2 * s + 2}; pass force_oracle=True "
                f"to use the subfamily solver without a partition"
            )
        from .oracle import max_family_nu_le

        return SubgraphResult(max_family_nu_le(g, s)[0], None)
    st = _Search(g)
    degs = [st.deg[v] for v in st.order[: 3 * s]]
    for b in range(min(s, len(st.order)), -1, -1):
        room = max(_bound(sizes, degs) for sizes in _part_sizes(s - b, s - b))
        if min(st.prefix[b] + room, len(g)) > st.best:
            _choose_b(st, b, s - b, room, 0, (), 0, 0)
    return SubgraphResult(st.best, _witness(n, *st.witness))


def extremal_graphs(n, s):
    """The two classical nu <= s extremes: a (2s+1)-clique, and s vertices
    joined to everything."""
    if s < 0:
        raise RangeError(f"s must be >= 0, got {s}")
    if n < 2 * s + 1:
        raise RangeError(f"n={n} is below 2s+1={2 * s + 1}")
    g1 = Family(n, 2, itertools.combinations(range(1, 2 * s + 2), 2))
    edges2 = list(itertools.combinations(range(1, s + 1), 2))
    edges2.extend(
        (u, v) for u in range(1, s + 1) for v in range(s + 1, n + 1)
    )
    g2 = Family(n, 2, edges2)
    assert matching_number(g1)[0] <= s
    assert matching_number(g2)[0] <= s
    return g1, g2
