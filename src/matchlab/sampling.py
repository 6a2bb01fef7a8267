"""Reproducible Bernoulli sampling of k-uniform families.

Each of the C(n, k) possible edges is kept independently with probability p.
Randomness comes from a counter-based Philox4x64 stream keyed by
(seed, trial_index), so any (spec, trial) pair regenerates its family exactly,
in any order, on any worker.  Kept edges are found by geometric gap skipping
over lexicographic edge ranks: cost is proportional to the output, not to
C(n, k).  Geometric gaps are derived from uniform doubles by explicit CDF
inversion so the stream consumption is fixed by this module, not by library
internals.  The kept ranks come out sorted, and the unranking relies on it:
the first vertex of every edge is read off one search of the n+1 slot-0
boundaries and the last vertex is arithmetic, so only the middle slots of
k >= 3 search per edge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, RangeError, ScaleError
from .families import Family, _edge_mask

_MASK64 = (1 << 64) - 1
_RANK_CAP = 1 << 63

# exact max_trivial enumerates C(n, s) vertex sets up to this limit
_EXACT_TRIVIAL_CAP = 2_000_000


@dataclass(frozen=True)
class SampleSpec:
    """Parameters of one random family draw."""

    n: int
    k: int
    p: float
    seed: int
    trial_index: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise RangeError("n must be >= 1")
        if not 1 <= self.k <= self.n:
            raise RangeError(f"k must be in [1, n], got k={self.k} n={self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise RangeError(f"p must be in [0, 1], got {self.p}")
        if self.trial_index < 0:
            raise RangeError("trial_index must be >= 0")

    def to_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "p": self.p,
            "seed": self.seed,
            "trial_index": self.trial_index,
        }


def stream(seed, trial_index):
    """Generator over the Philox stream keyed by (seed, trial_index)."""
    # the 128-bit key is the words (seed, trial_index), low word first
    key = (seed & _MASK64) | (trial_index & _MASK64) << 64
    return np.random.Generator(np.random.Philox(key=key))


def rank_subset(edge, n, k):
    """Lexicographic rank of a sorted k-subset of [n] (0-based rank)."""
    r = 0
    prev = 0
    for i, a in enumerate(edge):
        for v in range(prev + 1, a):
            r += comb(n - v, k - i - 1)
        prev = a
    return r


def unrank_subset(r, n, k):
    """Inverse of rank_subset."""
    out = []
    prev = 0
    for i in range(k):
        v = prev + 1
        while True:
            c = comb(n - v, k - i - 1)
            if r < c:
                break
            r -= c
            v += 1
        out.append(v)
        prev = v
    return tuple(out)


def _unrank_batch(ranks, n, k):
    """Vectorized unranking of nondecreasing ranks; returns an (m, k) int64
    array of vertices, row i the subset of lexicographic rank ranks[i].

    For slot j (0-based), S_j[v] = sum_{u<=v} C(n-u, k-j-1); the chosen
    vertex is the first v with S_j[v] > rem + S_j[prev], where prev is the
    vertex of slot j-1 (0 for slot 0) and rem what is left of the rank.
    The slots come in three kinds:

    - slot 0 (boundary search): the ranks are sorted, so one searchsorted of
      the n+1 boundaries S_0 into them counts the ranks per first vertex,
      and np.repeat of those counts gives every row its vertex and offset;
    - middle slots 1..k-2 (per-row search): prev differs per row, so each
      row is searched in S_j on its own;
    - the last slot (arithmetic): every weight C(n-u, 0) is 1, so the
      vertex is rem + prev + 1.

    Cumulative sums stay below C(n, k) < 2^63 so int64 arithmetic is exact.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(ranks), k), dtype=np.int64)
    rem, prev = ranks, 0
    if k > 1:
        s = _slot_sums(n, k - 1)
        counts = np.diff(np.searchsorted(ranks, s))
        prev = np.repeat(np.arange(1, n + 1, dtype=np.int64), counts)
        rem = np.repeat(s[:-1], counts)
        np.subtract(ranks, rem, out=rem)
        out[:, 0] = prev
    for j in range(1, k - 1):
        s = _slot_sums(n, k - j - 1)
        g = rem + s[prev]
        prev = np.searchsorted(s, g, side="right")
        rem = g - s[prev - 1]
        out[:, j] = prev
    # in place: no temporaries of m rows (about 300k at k=2)
    last = out[:, k - 1]
    np.add(rem, prev, out=last)
    last += 1
    return out


def _slot_sums(n, r):
    """S[v] = sum_{u<=v} C(n-u, r) for v = 0..n, as int64."""
    return np.cumsum(
        np.array([0] + [comb(n - u, r) for u in range(1, n + 1)], dtype=np.int64)
    )


def _geometric_ranks(universe, p, gen):
    """Sorted kept ranks in [0, universe) under Bernoulli(p) via gap skipping."""
    log_q = math.log1p(-p)
    chunks = []
    pos = -1
    chunk = 8192
    while True:
        u = gen.random(chunk)
        raw = np.floor(np.log1p(-u) / log_q)
        if float(np.max(raw)) >= 2.0**50:
            # gaps this large would risk int64 overflow in the cumsum;
            # finish the tail with exact scalar arithmetic
            tail = []
            for x in raw.tolist():
                pos += 1 + int(x)
                if pos >= universe:
                    break
                tail.append(pos)
            else:
                chunks.append(np.array(tail, dtype=np.int64))
                continue
            chunks.append(np.array(tail, dtype=np.int64))
            break
        ranks = pos + np.cumsum(raw.astype(np.int64) + 1)
        if int(ranks[-1]) >= universe:
            chunks.append(ranks[ranks < universe])
            break
        chunks.append(ranks)
        pos = int(ranks[-1])
    return np.concatenate(chunks)


def sample_family(spec):
    """Draw one family for the given spec.  Deterministic per (seed, trial)."""
    n, k, p = spec.n, spec.k, spec.p
    universe = comb(n, k)
    if universe >= _RANK_CAP:
        raise CapacityError(
            f"C({n},{k}) = {universe} exceeds the 63-bit rank space"
        )
    if p == 0.0:
        ranks = np.empty(0, dtype=np.int64)
    elif p == 1.0:
        ranks = np.arange(universe, dtype=np.int64)
    else:
        gen = stream(spec.seed, spec.trial_index)
        ranks = _geometric_ranks(universe, p, gen)
    return Family._from_array(n, k, _unrank_batch(ranks, n, k))


def trivial_count(n, k, s):
    """Number of k-subsets of [n] meeting a fixed s-set: C(n,k) - C(n-s,k)."""
    if s < 0 or s > n:
        raise RangeError(f"s must be in [0, n], got {s}")
    return comb(n, k) - comb(n - s, k)


class TrivialResult(NamedTuple):
    vertices: tuple
    size: int
    exact: bool


def max_trivial(fam, s, exact=None):
    """Largest number of edges meeting a single s-subset of the vertices.

    Exact mode enumerates all C(n, s) subsets; it is the default for small
    instances (few vertices or small s) while the subset count stays within
    the enumeration cap.  Greedy mode repeatedly grabs the highest-degree
    vertex of the residual family and is labeled inexact.
    """
    if s < 0 or s > fam.n:
        raise RangeError(f"s must be in [0, n], got {s}")
    if exact is None:
        exact = (fam.n <= 40 or s <= 3) and comb(fam.n, s) <= _EXACT_TRIVIAL_CAP
    if exact and comb(fam.n, s) > _EXACT_TRIVIAL_CAP:
        raise ScaleError(
            f"C({fam.n},{s}) vertex sets is beyond the exact enumeration cap"
        )
    if s == 0 or len(fam) == 0:
        return TrivialResult(tuple(range(1, s + 1)), 0, True)

    if exact:
        best_count = -1
        best_set = None
        for sub in itertools.combinations(range(1, fam.n + 1), s):
            smask = _edge_mask(sub)
            c = sum(1 for m in fam.masks if m & smask)
            if c > best_count:
                best_count = c
                best_set = sub
        return TrivialResult(best_set, best_count, True)

    chosen = []
    remaining = list(fam.masks)
    for _ in range(s):
        counts = [0] * (fam.n + 1)
        for m in remaining:
            mm = m
            while mm:
                low = mm & -mm
                counts[low.bit_length()] += 1
                mm ^= low
        v = max(range(1, fam.n + 1), key=lambda u: (counts[u], -u))
        chosen.append(v)
        bit = 1 << (v - 1)
        remaining = [m for m in remaining if not m & bit]
    size = len(fam.masks) - len(remaining)
    return TrivialResult(tuple(sorted(chosen)), size, False)
