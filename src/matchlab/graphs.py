"""Graph-case tools: s-partitions, structure graphs, and exact nu-bounded
subgraph maxima.

An s-partition (B, A_1..A_m) splits [n] into a set B and odd-size parts
with |B| + sum (a_i - 1)/2 = s.  Its structure graph joins everything to
B and fills each part; for n >= 2s + 2 the structure graph has matching
number exactly s, and every graph with matching number at most s sits
inside some structure graph.  The largest nu <= s subgraph of G therefore
has max_P |E(G) cap E(structure(P))| edges, which is what
max_nu_subgraph computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import InvalidPartitionError, RangeError, ScaleError
from .families import Family, matching_number

_EXACT_N_CAP = 16
_ASSIGN_NODE_CAP = 5_000_000
_SUPPORT_ENUM_CAP = 500_000


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


def _adjacency(g):
    n = g.n
    a = np.zeros((n + 1, n + 1), dtype=bool)
    idx = g.vertex_array()
    a[idx[:, 0], idx[:, 1]] = True
    a[idx[:, 1], idx[:, 0]] = True
    return a


def _singleton_fill(n, b_set, parts):
    used = set(b_set)
    for p in parts:
        used |= set(p)
    full = tuple(parts) + tuple(
        (v,) for v in range(1, n + 1) if v not in used
    )
    return SPartition(tuple(b_set), full)


def _odd_part_budgets(r):
    """Descending positive tuples summing to r; sizes are 2c+1 each."""
    if r == 0:
        yield ()
        return
    def rec(rem, cap):
        if rem == 0:
            yield ()
            return
        for c in range(min(rem, cap), 0, -1):
            for tail in rec(rem - c, c):
                yield (c,) + tail
    yield from rec(r, r)


def _enum_exact(g, s):
    """Full search over s-partitions; only for small vertex counts."""
    n = g.n
    adj = [0] * (n + 1)
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    m = len(g.edges)
    masks = g.masks

    def inside(vmask):
        tot = 0
        v = vmask
        while v:
            low = v & -v
            tot += (adj[low.bit_length() - 1] & vmask).bit_count()
            v ^= low
        return tot // 2

    def avoid_count(bmask):
        return sum(1 for em in masks if em & bmask == 0)

    best = (-1, None)
    nodes = 0
    verts = range(1, n + 1)
    for b in range(s, -1, -1):
        sizes = [tuple(2 * c + 1 for c in cfg) for cfg in _odd_part_budgets(s - b)]
        for b_tuple in itertools.combinations(verts, b):
            nodes += 1
            if nodes > _ASSIGN_NODE_CAP:
                raise ScaleError("partition search exceeded its node cap")
            bmask = 0
            for v in b_tuple:
                bmask |= 1 << (v - 1)
            base = m - avoid_count(bmask)
            free = [v for v in verts if v not in b_tuple]
            for cfg in sizes:
                def assign(i, pool, acc, val):
                    nonlocal best, nodes
                    if i == len(cfg):
                        if val > best[0]:
                            best = (val, (b_tuple, tuple(acc)))
                        return
                    nodes += 1
                    if nodes > _ASSIGN_NODE_CAP:
                        raise ScaleError(
                            "partition search exceeded its node cap"
                        )
                    size = cfg[i]
                    for combo in itertools.combinations(pool, size):
                        if (
                            i > 0
                            and len(acc[-1]) == size
                            and combo < acc[-1]
                        ):
                            continue
                        cmask = 0
                        for v in combo:
                            cmask |= 1 << v
                        acc.append(combo)
                        assign(
                            i + 1,
                            [v for v in pool if not cmask >> v & 1],
                            acc,
                            val + inside(cmask),
                        )
                        acc.pop()
                if not cfg:
                    if base > best[0]:
                        best = (base, (b_tuple, ()))
                    continue
                assign(0, free, [], base)
    val, (b_tuple, parts) = best
    return SubgraphResult(val, _singleton_fill(n, b_tuple, parts))


def _pair_level(g, degs, a_int):
    """Best |B| = 2 with singleton parts: edges meeting the pair."""
    n = g.n
    vals = degs[1:, None] + degs[None, 1:] - a_int[1:, 1:]
    iu = np.triu_indices(n, k=1)
    flat = vals[iu]
    pos = int(np.argmax(flat))
    u = int(iu[0][pos]) + 1
    v = int(iu[1][pos]) + 1
    return int(flat[pos]), (u, v)


def _triple_values(g, degs, a_int):
    """For each u: best edge count among vertex triples avoiding u."""
    n = g.n
    m = len(g)
    a2 = a_int @ a_int
    tri_per_vertex = np.diag(a2 @ a_int) // 2
    total_tri = int(np.trace(a2 @ a_int)) // 6
    t3 = np.zeros(n + 1, dtype=np.int64)
    for u in range(1, n + 1):
        if total_tri - int(tri_per_vertex[u]) > 0:
            t3[u] = 3
            continue
        reduced = degs - a_int[u]
        reduced[u] = 0
        reduced[0] = 0
        if int(reduced.max()) >= 2:
            t3[u] = 2
        elif m - int(degs[u]) > 0:
            t3[u] = 1
    return t3


def _recover_triple(g, u, want):
    """A vertex triple avoiding u with `want` internal edges."""
    nbrs = {v: set() for v in range(1, g.n + 1)}
    for x, y in g.edges:
        nbrs[x].add(y)
        nbrs[y].add(x)
    if want == 3:
        for x, y in g.edges:
            if u in (x, y):
                continue
            common = (nbrs[x] & nbrs[y]) - {u}
            if common:
                return tuple(sorted((x, y, min(common))))
    if want == 2:
        for w in range(1, g.n + 1):
            if w == u:
                continue
            two = sorted(nbrs[w] - {u})[:2]
            if len(two) == 2:
                return tuple(sorted([w] + two))
    if want == 1:
        for x, y in g.edges:
            if u not in (x, y):
                z = min(v for v in range(1, g.n + 1) if v not in (u, x, y))
                return tuple(sorted((x, y, z)))
    return tuple(v for v in range(1, g.n + 1) if v != u)[:3]


def _support_sets(g, size, cap):
    """Candidate vertex sets for zero-B parts, confined to the support."""
    support = sorted({v for e in g.edges for v in e})
    fillers = [v for v in range(1, g.n + 1) if v not in set(support)]
    take = min(size, len(support))
    if comb(len(support), take) > cap:
        raise ScaleError(
            f"support of {len(support)} vertices is too large for the "
            f"zero-B partition search"
        )
    nbrs = {v: set() for v in support}
    for x, y in g.edges:
        nbrs[x].add(y)
        nbrs[y].add(x)
    out = []
    for combo in itertools.combinations(support, take):
        cs = set(combo)
        val = sum(len(nbrs[v] & cs) for v in combo) // 2
        full = combo + tuple(fillers[: size - take])
        if len(full) == size:
            out.append((val, full))
    return out


def _zero_level_s2(g, cap):
    """Best B = empty at s = 2: one 5-part, or two disjoint 3-parts."""
    best = (-1, None)
    if g.n >= 5:
        for val, vs in _support_sets(g, 5, cap):
            if val > best[0]:
                best = (val, (vs,))
    triples = sorted(_support_sets(g, 3, cap), reverse=True)
    for i, (v1, t1) in enumerate(triples):
        if 2 * v1 <= best[0]:
            break
        s1 = set(t1)
        for v2, t2 in triples[i:]:
            if v1 + v2 <= best[0]:
                break
            if not s1 & set(t2):
                best = (v1 + v2, (t1, t2))
                break
    return best


def max_nu_subgraph(g, s, force_oracle=False):
    """Exact maximum edge count of a subgraph with matching number <= s.

    Needs n >= 2s + 2, where the maximum is a maximum over s-partitions
    of the overlap with the structure graph.  Below that threshold the
    structural guarantee fails; force_oracle=True falls back to the
    subfamily solver and returns no partition.  Search strategy: level
    |B| = s is closed under a degree-sum scan, the remaining levels are
    either pruned by upper bounds or enumerated.
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
    if s == 0:
        return SubgraphResult(0, _singleton_fill(n, (), ()))
    if n <= _EXACT_N_CAP:
        return _enum_exact(g, s)

    if s == 1:
        degs_map = g.degrees()
        u = max(range(1, n + 1), key=lambda v: (degs_map[v], -v))
        best = (degs_map[u], ((u,), ()))
        if len(g) and best[0] < 3:
            a = _adjacency(g)
            a_int = a.astype(np.int64)
            degs = a_int.sum(axis=1)
            t3 = _triple_values(g, degs, a_int)
            tri_best = int(t3[1:].max())
            if tri_best > best[0]:
                u2 = int(np.argmax(t3[1:])) + 1
                triple = _recover_triple(g, u2, tri_best)
                best = (tri_best, ((), (triple,)))
        val, (b_tuple, parts) = best
        return SubgraphResult(val, _singleton_fill(n, b_tuple, parts))
    if s == 2:
        a = _adjacency(g)
        a_int = a.astype(np.int64)
        degs = a_int.sum(axis=1)
        val2, pair = _pair_level(g, degs, a_int)
        best = (val2, (pair, ()))
        max_deg = int(degs.max()) if n else 0
        if max_deg + 3 > best[0]:
            t3 = _triple_values(g, degs, a_int)
            lvl = degs + t3
            lvl[0] = -1
            u = int(np.argmax(lvl))
            if int(lvl[u]) > best[0]:
                triple = _recover_triple(g, u, int(t3[u]))
                best = (int(lvl[u]), ((u,), (triple,)))
        if 10 > best[0]:
            val0, parts0 = _zero_level_s2(g, _SUPPORT_ENUM_CAP)
            if val0 > best[0]:
                best = (val0, ((), parts0))
        val, (b_tuple, parts) = best
        return SubgraphResult(val, _singleton_fill(n, b_tuple, parts))
    raise ScaleError(
        f"exact search supports n <= {_EXACT_N_CAP} for s >= 3; "
        f"got n={n}, s={s}"
    )


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
