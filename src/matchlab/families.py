"""k-uniform set families on [n] with exact matching and covering solvers.

Vertices are 1-based integers.  Edges are stored canonically: sorted within
each edge, edges sorted lexicographically, duplicates removed.  A `Family`
holds one stored form, the (m, k) vertex array, and one index over it, the
vertex -> edge bitsets `Family.through` (bit i set for edge i): a set of
edges is one int, dropping the edges through a vertex is one big-int
operation, and a subfamily is a row selection of the array.  The solvers,
the oracle, the cover certificates, the sampler's star counts and the
size-condition audit all read `through`.  Besides this module, only the
k = 2 adjacency in `graphs` reads the stored array.

Conventions for degenerate inputs: the empty family has matching number 0
and covering number 0 and counts as trivial.  A 0-uniform family (which can
arise from a full-edge link) holds at most the single empty edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import OverlapError, SizeError

MAX_VERTICES = 1024
# cells of the boolean incidence `Family.through` packs at a time
_THROUGH_BLOCK_CELLS = 1 << 23


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, stored as sorted edge tuples."""

    edges: tuple

    def vertices(self):
        out = set()
        for e in self.edges:
            out.update(e)
        return tuple(sorted(out))

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class Cover:
    """A vertex set meeting every edge of some family."""

    vertices: tuple

    def __len__(self):
        return len(self.vertices)


def _edge_mask(edge):
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


class Family:
    """Immutable k-uniform family of subsets of [n].

    The edges are stored once, as the canonical (m, k) int64 vertex array
    (`vertex_array()`).  The edge tuples (`edges`) and the vertex -> edge
    index (`through`, the one index the package reads) are derived from it
    on first use and cached.  A subfamily is a row selection of the array.
    `masks`, per-edge int masks with bit v-1 set for vertex v, is an
    uncached view for callers outside the package; no module of it reads
    the masks.
    """

    __slots__ = ("n", "k", "_array", "_edges", "_through", "_nu")

    def __init__(self, n, k, edges):
        if not (0 <= n <= MAX_VERTICES):
            raise ValueError(f"n must be in [0, {MAX_VERTICES}], got {n}")
        if k < 0:
            raise ValueError("k must be >= 0")
        if k > n and any(True for _ in edges):
            raise ValueError(f"k={k} exceeds n={n} but edges were given")
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != k:
                raise ValueError(f"edge {t} is not {k}-uniform")
            if len(set(t)) != k:
                raise ValueError(f"edge {t} has repeated vertices")
            if t and (t[0] < 1 or t[-1] > n):
                raise ValueError(f"edge {t} leaves the vertex range [1, {n}]")
            canon.add(t)
        edges = tuple(sorted(canon))
        array = np.array(edges, dtype=np.int64).reshape(len(edges), k)
        array.flags.writeable = False
        self._set(n, k, array, edges)

    @classmethod
    def _from_array(cls, n, k, array):
        """Trusted constructor from the canonical (m, k) vertex array: rows
        sorted, in lexicographic order, distinct."""
        array = np.ascontiguousarray(array, dtype=np.int64)
        array.flags.writeable = False
        self = cls.__new__(cls)
        self._set(n, k, array, None)
        return self

    def _set(self, n, k, array, edges):
        for name, value in (
            ("n", n), ("k", k), ("_array", array), ("_edges", edges),
            ("_through", None), ("_nu", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Family is immutable")

    def __reduce__(self):
        # rebuilt through the trusted constructor; caches are not carried
        return Family._from_array, (self.n, self.k, self._array)

    def _rows(self, kept):
        """The edge bitset `kept` as a boolean row mask over the array."""
        m = len(self._array)
        raw = np.frombuffer(kept.to_bytes((m + 7) >> 3, "little"), np.uint8)
        return np.unpackbits(raw, count=m, bitorder="little").view(bool)

    def _take(self, kept):
        """The subfamily of the edges in the bitset `kept`, in order."""
        if kept == (1 << len(self)) - 1:
            return self
        return Family._from_array(
            self.n, self.k, self._array[self._rows(kept)]
        )

    def _meeting(self, v):
        """through[v] for any vertex v >= 1: a vertex above n lies in no
        edge.  A vertex below 1 is a ValueError."""
        if v < 1:
            raise ValueError(f"vertex {v} is below 1")
        return self.through[v] if v <= self.n else 0

    @property
    def edges(self):
        """The edges as a sorted tuple of sorted vertex tuples."""
        if self._edges is None:
            object.__setattr__(
                self, "_edges", tuple(map(tuple, self._array.tolist()))
            )
        return self._edges

    @property
    def masks(self):
        """Per-edge int masks, bit v-1 set for vertex v; built on each
        call."""
        # from the int64 array, so vertices given as numpy ints shift as
        # Python ints
        return tuple(map(_edge_mask, self._array.tolist()))

    def vertex_array(self):
        """The edges as a read-only (m, k) int64 array, one sorted row per
        edge, rows in lexicographic order."""
        return self._array

    def __len__(self):
        return len(self._array)

    def __iter__(self):
        return iter(self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, Family)
            and self.n == other.n
            and self.k == other.k
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.k, self.edges))

    def __repr__(self):
        return f"Family(n={self.n}, k={self.k}, m={len(self)})"

    @property
    def through(self):
        """through[v]: the int bitset of the edges containing v (bit i for
        edge i), for v = 0..n; through[0] is 0.

        Built from a boolean vertex x edge incidence, packed a row at a
        time, for a block of vertices at a time: the whole (n+1, m) matrix
        would be 8 times the index itself (300 MiB at n=1000, m=300k).
        """
        if self._through is None:
            arr = self._array
            m = len(arr)
            edge = np.broadcast_to(np.arange(m)[:, None], arr.shape)
            step = max(1, _THROUGH_BLOCK_CELLS // max(m, 1))
            rows = []
            for lo in range(0, self.n + 1, step):
                inc = np.zeros((min(step, self.n + 1 - lo), m), dtype=bool)
                sel = (arr >= lo) & (arr < lo + step)
                inc[arr[sel] - lo, edge[sel]] = True
                packed = np.packbits(inc, axis=1, bitorder="little")
                rows += (int.from_bytes(r.tobytes(), "little") for r in packed)
            object.__setattr__(self, "_through", tuple(rows))
        return self._through

    def degree(self, v):
        return int(np.count_nonzero(self.vertex_array() == v))

    def degrees(self):
        """Vertex -> number of edges through it, for all of [n]."""
        counts = np.bincount(self.vertex_array().ravel(), minlength=self.n + 1)
        return dict(zip(range(1, self.n + 1), counts[1:].tolist()))

    def filter(self, avoid=(), meet=None):
        """Edges disjoint from `avoid` that intersect `meet`.

        `meet=None` means no intersection constraint.  An explicit empty
        meet set keeps nothing (no edge intersects the empty set).  A vertex
        above n lies in no edge; one below 1 is a ValueError.
        """
        avoid_set = frozenset(avoid)
        hit = 0
        for v in avoid_set:
            hit |= self._meeting(v)
        kept = ((1 << len(self)) - 1) & ~hit
        if meet is not None:
            meet_set = frozenset(meet)
            if avoid_set & meet_set:
                raise OverlapError(
                    f"avoid and meet sets overlap: {sorted(avoid_set & meet_set)}"
                )
            met = 0
            for v in meet_set:
                met |= self._meeting(v)
            kept &= met
        return self._take(kept)

    def delete_vertices(self, vs):
        """Drop every edge meeting `vs`; the vertex range is left as-is."""
        return self.filter(avoid=vs)

    def link(self, q):
        """The family {E - Q : Q subset of E}; uniformity drops to k - |Q|.

        Removing Q from the edges that hold it keeps them distinct and in
        lex order, so the link is a row selection with Q's columns dropped.
        """
        q_set = frozenset(q)
        if len(q_set) > self.k:
            raise SizeError(f"link set size {len(q_set)} exceeds k={self.k}")
        kept = (1 << len(self)) - 1
        for v in q_set:
            kept &= self._meeting(v)
        rows = self._array[self._rows(kept)]
        k = self.k - len(q_set)
        return Family._from_array(
            self.n, k, rows[~np.isin(rows, list(q_set))].reshape(len(rows), k)
        )


def complete_family(n, k):
    """All k-subsets of [n]."""
    rows = list(itertools.combinations(range(1, n + 1), k))
    return Family._from_array(n, k, np.array(rows).reshape(len(rows), k))


def generated_family(members, n, k):
    """All k-subsets of [n] containing at least one of the given sets."""
    edges = set()
    pool = range(1, n + 1)
    for b in members:
        b_t = tuple(sorted(set(b)))
        if len(b_t) > k:
            raise SizeError(f"member {b_t} is larger than k={k}")
        rest = [v for v in pool if v not in b_t]
        for extra in itertools.combinations(rest, k - len(b_t)):
            edges.add(tuple(sorted(b_t + extra)))
    return Family(n, k, edges)


def generated_count(members, n, k):
    """|generated_family(members, n, k)| by inclusion-exclusion.

    Never materializes the family.  Capped at 20 members because the
    inclusion-exclusion sum walks every non-empty member subset.
    """
    mem = [frozenset(b) for b in members]
    for b in mem:
        if len(b) > k:
            raise SizeError(f"member {sorted(b)} is larger than k={k}")
    if len(mem) > 20:
        raise SizeError("count mode supports at most 20 members")
    total = 0
    for r in range(1, len(mem) + 1):
        for combo in itertools.combinations(mem, r):
            u = frozenset().union(*combo)
            if len(u) <= k:
                term = comb(n - len(u), k - len(u))
                total += term if r % 2 == 1 else -term
    return total


def generated_contains(members, fam):
    """True when every edge of `fam` contains at least one member set."""
    full = (1 << len(fam)) - 1
    covered = 0
    for b in members:
        inside = full
        for v in set(b):
            inside &= fam._meeting(v)
        covered |= inside
    return covered == full


def _avoiding(c, edge, through):
    """The edges of the bitset `c` disjoint from `edge`."""
    hit = 0
    for v in edge:
        hit |= through[v]
    return c & ~hit


def _greedy_matching(c, edges, through):
    """The lex greedy matching of the edge bitset `c`: take the lowest edge,
    drop every candidate meeting it, repeat."""
    picked = []
    while c:
        i = (c & -c).bit_length() - 1
        picked.append(i)
        c = _avoiding(c, edges[i], through)
    return picked


def matching_number(fam):
    """Exact maximum matching size with a witness.

    The answer is solved once per family and cached on it (families are
    immutable), so `is_trivial` and `covering_number` reuse it.
    """
    if fam._nu is None:
        object.__setattr__(fam, "_nu", _solve_matching(fam))
    return fam._nu


def _solve_matching(fam):
    """Branch and bound for `matching_number`, on edge bitsets.

    Candidates are one bitset over the edges.  Branch on the lexicographically
    smallest vertex still covered by a candidate edge (take each edge through
    it, or discard the vertex), seeded with a greedy lex matching.  Upper
    bounds: the vertices still covered over k, and a greedy cover of the
    candidates.  Edges are lex-sorted, so every vertex of a candidate lies
    at or above the first vertex of the lowest candidate; the bounds count
    only that range.
    """
    edges, through = fam.edges, fam.through
    m = len(edges)
    if m == 0:
        return 0, Matching(())
    if fam.k == 0:
        return 1, Matching(((),))
    k, n = fam.k, fam.n
    cap = n // k
    best = _greedy_matching((1 << m) - 1, edges, through)
    best_size = len(best)
    if best_size >= cap or cap == 1:
        return best_size, Matching(tuple(edges[i] for i in best))

    if cap <= 3:
        size, idxs = _matching_small_cap(fam, cap, best_size, best)
        return size, Matching(tuple(edges[i] for i in idxs))

    def cover_fits(c, verts, counts, room):
        """True when a greedy cover of the candidates `c` has at most `room`
        vertices; counts[i] is the number of candidates through verts[i]."""
        for _ in range(room):
            if not c:
                return True
            # most candidates, ties to the smaller vertex
            c &= ~through[verts[counts.index(max(counts))]]
            verts = [u for u, x in zip(verts, counts) if x]
            counts = [(through[u] & c).bit_count() for u in verts]
        return not c

    def dfs(c, cur):
        nonlocal best, best_size
        if not c:
            return
        # greedy completion keeps the incumbent fresh
        ext = _greedy_matching(c, edges, through)
        if len(cur) + len(ext) > best_size:
            best = cur + ext
            best_size = len(best)
        verts = range(edges[(c & -c).bit_length() - 1][0], n + 1)
        counts = [(through[u] & c).bit_count() for u in verts]
        room = best_size - len(cur)
        if (len(counts) - counts.count(0)) // k <= room:
            return
        if c.bit_count() >= 8 and cover_fits(c, verts, counts, room):
            return
        with_v = c & through[verts.start]
        rest = with_v
        while rest:
            low = rest & -rest
            rest ^= low
            e = low.bit_length() - 1
            dfs(_avoiding(c, edges[e], through), cur + [e])
        dfs(c & ~with_v, cur)

    dfs((1 << m) - 1, [])
    return best_size, Matching(tuple(edges[i] for i in sorted(best)))


def _matching_small_cap(fam, cap, best_size, best_idxs):
    """Exact nu when at most 3 disjoint edges fit in the vertex range.

    One scan over disjoint index pairs (i, j) in lex order, on the bitsets
    disj[i] of the edges disjoint from edge i.  The first pair is the
    witness for nu = 2; the first pair with a common disjoint edge above j
    gives nu = 3 with that edge's lowest index, since at the first such
    pair every third edge lies above j.  disj[j] is built when the scan
    first reaches j and dropped once row j is scanned, as no later row
    needs it.
    """
    edges, through = fam.edges, fam.through
    full = (1 << len(edges)) - 1
    disj = [None] * len(edges)

    def disjoint_from(i):
        return _avoiding(full, edges[i], through)

    pair = None
    for i in range(len(edges)):
        d = disj[i]
        disj[i] = None
        above = (disjoint_from(i) if d is None else d) >> (i + 1) << (i + 1)
        if not above:
            continue
        if pair is None:
            pair = [i, (above & -above).bit_length() - 1]
            if cap == 2:
                return 2, pair
        while above:
            low = above & -above
            above ^= low
            j = low.bit_length() - 1
            d = disj[j]
            if d is None:
                d = disj[j] = disjoint_from(j)
            third = above & d
            if third:
                return 3, [i, j, (third & -third).bit_length() - 1]
    if pair is not None:
        return 2, pair
    return best_size, best_idxs


def _bounded_cover(fam, limit, deg):
    """A cover of size <= limit, or None.  Depth-bounded DFS.

    The state is the bitset of uncovered edges.  Branches on the first
    uncovered edge; vertex order inside an edge is by global degree `deg`
    (descending, from `fam.degrees()`), ties to the smaller vertex.
    """
    edges, through = fam.edges, fam.through

    def order(e):
        return sorted(e, key=lambda v: (-deg[v], v))

    def rec(unc, depth, acc):
        if not unc:
            return acc
        if depth == 0:
            return None
        i = (unc & -unc).bit_length() - 1
        for v in order(edges[i]):
            r = rec(unc & ~through[v], depth - 1, acc + (v,))
            if r is not None:
                return r
        return None

    return rec((1 << len(fam)) - 1, limit, ())


def covering_number(fam):
    """Exact minimum vertex cover size with a witness.

    Iterative deepening from nu(F) upward; tau <= k * nu always holds, so
    the loop is capped there and failure past the cap is a solver bug.
    """
    if any(not e for e in fam.edges):
        raise ValueError("a family containing the empty edge has no cover")
    nu, _ = matching_number(fam)
    if nu == 0:
        return 0, Cover(())
    deg = fam.degrees()
    for d in range(nu, fam.k * nu + 1):
        found = _bounded_cover(fam, d, deg)
        if found is not None:
            return d, Cover(tuple(sorted(found)))
    raise RuntimeError("cover search exceeded k * nu; solver bug")


def is_trivial(fam):
    """True when nu(F) == tau(F); the empty family is trivial."""
    nu, _ = matching_number(fam)
    if nu == 0:
        return True
    return _bounded_cover(fam, nu, fam.degrees()) is not None


def write_edge_file(fam, path):
    """Canonical text form: header 'n k', one sorted edge per line."""
    if fam.k == 0:
        raise ValueError("0-uniform families have no text form")
    with open(path, "w") as fh:
        fh.write(f"{fam.n} {fam.k}\n")
        for e in fam.edges:
            fh.write(" ".join(str(v) for v in e) + "\n")


def read_edge_file(path):
    """Parse an edge-list file, canonicalizing unsorted input."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("first line must be 'n k'")
        n, k = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            edges.append(tuple(int(tok) for tok in line.split()))
    return Family(n, k, edges)
