"""Exact extremal subfamilies under a matching-number budget.

Everything rests on one equivalence: a family has matching number at most s
iff it contains no s+1 pairwise disjoint edges.  The largest subfamily of a
host with that property is therefore the host minus a minimum hitting set of
the host's (s+1)-matchings, solved here by branch and bound.

The non-trivial maximum is found the same way with side constraints: a
family F with nu(F) = m is non-trivial iff no m-vertex set covers it, so for
each level m <= s we minimize deletions subject to "every (m+1)-matching is
hit" plus "for every m-set T, at least one edge avoiding T survives", and
take the best level.  Any family satisfying the level-m constraints has
tau > m >= nu, hence is non-trivial, and conversely every non-trivial family
with nu <= s is feasible at level nu(F).  A trivial family with nu <= s is
covered by nu <= s vertices, so it lies in the star of some s-set; the
verdict's optimum is therefore the larger of the best star and the
non-trivial maximum, with no third solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import ExplosionError, RangeError
from .families import (
    Cover,
    Family,
    Matching,
    covering_number,
    matching_number,
    _edge_mask,
)
from .sampling import max_trivial

MATCHING_CAP = 10_000_000
NODE_CAP = 20_000_000
_STRUCT_SEED_CAP = 5000


@dataclass(frozen=True)
class Verdict:
    """Comparison of the best trivial and best non-trivial subfamilies."""

    host_size: int
    s: int
    opt_size: int
    opt_family: Family
    opt_nu: int
    opt_tau: int
    max_trivial_size: int
    best_trivial_set: tuple
    max_nontrivial_size: int | None
    nontrivial_witness: Family | None
    all_optima_trivial: bool
    conclusion_holds: bool

    def to_dict(self):
        return {
            "host_size": self.host_size,
            "s": self.s,
            "opt_size": self.opt_size,
            "opt_nu": self.opt_nu,
            "opt_tau": self.opt_tau,
            "max_trivial_size": self.max_trivial_size,
            "best_trivial_set": list(self.best_trivial_set),
            "max_nontrivial_size": self.max_nontrivial_size,
            "nontrivial_witness": (
                None
                if self.nontrivial_witness is None
                else [list(e) for e in self.nontrivial_witness.edges]
            ),
            "all_optima_trivial": self.all_optima_trivial,
            "conclusion_holds": self.conclusion_holds,
        }


def _enum_matching_indices(fam, size, cap):
    """Index tuples of all matchings of exactly `size` edges, lex order."""
    masks = fam.masks
    m = len(masks)
    out = []

    def rec(start, chosen, used):
        if len(chosen) == size:
            out.append(tuple(chosen))
            if len(out) > cap:
                raise ExplosionError(
                    f"more than {cap} matchings of size {size}"
                )
            return
        need = size - len(chosen)
        for i in range(start, m - need + 1):
            if masks[i] & used == 0:
                chosen.append(i)
                rec(i + 1, chosen, used | masks[i])
                chosen.pop()

    rec(0, [], 0)
    return out


def enumerate_matchings(fam, size, cap=MATCHING_CAP):
    """All matchings of exactly `size` edges, in lexicographic order."""
    if size < 1:
        raise RangeError(f"matching size must be >= 1, got {size}")
    idxs = _enum_matching_indices(fam, size, cap)
    edges = fam.edges
    return [Matching(tuple(edges[i] for i in t)) for t in idxs]


class _HitSolver:
    """Minimum hitting set over matching constraints, by branch and bound.

    Items are host edge indices.  A constraint is hit when one of its items
    is deleted.  Branching on a constraint's items in order, protecting the
    earlier ones, partitions the solution space.  The lower bound groups
    support items into pairwise-disjoint bundles (first fit); a bundle of g
    surviving edges is itself a matching, so any feasible completion deletes
    at least g - level of them.
    """

    def __init__(self, item_masks, constraints, level):
        self.num = len(item_masks)
        self.level = level
        self.cons = []
        support = set()
        for t in constraints:
            cm = 0
            for i in t:
                cm |= 1 << i
            self.cons.append(cm)
            support.update(t)
        groups = []
        for i in sorted(support):
            vm = item_masks[i]
            for g in groups:
                if g[0] & vm == 0:
                    g[0] |= vm
                    g[1] |= 1 << i
                    g[2] += 1
                    break
            else:
                groups.append([vm, 1 << i, 1])
        self.groups = [(g[1], g[2]) for g in groups if g[2] > level]

    def _lower_bound(self, deleted, protected, live):
        """Deletions still required, or None when provably infeasible.

        Two relaxations, best taken: per disjoint bundle, survivors beyond
        `level` must go; and pairwise item-disjoint unhit constraints each
        need their own deletion.
        """
        lb = 0
        for gmask, _ in self.groups:
            rem = (gmask & ~deleted).bit_count()
            need = rem - self.level
            if need > 0:
                if (gmask & ~deleted & ~protected).bit_count() < need:
                    return None
                lb += need
        used = 0
        pack = 0
        for cm in live:
            if cm & used == 0:
                used |= cm
                pack += 1
        return max(lb, pack)

    def minimize(self, keep_sets=(), seeds=(), node_cap=NODE_CAP):
        """Best (size, deleted_mask) hitting all constraints, or None.

        A solution may not contain any keep_set entirely (those edges would
        all be gone).  Seeds are known-feasible deletion masks used as the
        initial incumbent.
        """
        best_size = self.num + 1
        best_mask = None
        for seed in seeds:
            if any(ks & ~seed == 0 for ks in keep_sets):
                continue
            size = seed.bit_count()
            if size < best_size:
                best_size = size
                best_mask = seed
        nodes = 0

        def rec(unhit, deleted, protected, count):
            nonlocal best_size, best_mask, nodes
            nodes += 1
            if nodes > node_cap:
                raise ExplosionError("hitting-set search exceeded node cap")
            while True:
                if any(ks & ~deleted == 0 for ks in keep_sets):
                    return
                if count >= best_size:
                    return
                live = []
                forced = 0
                branch_avail = None
                branch_pc = 0
                for cm in unhit:
                    if cm & deleted:
                        continue
                    avail = cm & ~protected
                    pc = avail.bit_count()
                    if pc == 0:
                        return
                    if pc == 1:
                        forced |= avail
                        continue
                    live.append(cm)
                    if branch_avail is None or pc < branch_pc:
                        branch_avail = avail
                        branch_pc = pc
                if forced:
                    count += (forced & ~deleted).bit_count()
                    deleted |= forced
                    unhit = live
                    continue
                break
            if not live:
                if count < best_size:
                    best_size = count
                    best_mask = deleted
                return
            lb = self._lower_bound(deleted, protected, live)
            if lb is None or count + lb >= best_size:
                return
            prot = 0
            rest = branch_avail
            while rest:
                low = rest & -rest
                rest ^= low
                rec(live, deleted | low, protected | prot, count + 1)
                prot |= low
                if count + 1 >= best_size:
                    break

        rec(self.cons, 0, 0, 0)
        if best_mask is None:
            return None
        return best_size, best_mask


def _greedy_hitting(cons, num, tiebreak=None):
    """A feasible deletion mask: repeatedly hit the most unhit constraints."""
    deleted = 0
    unhit = list(cons)
    while unhit:
        counts = [0] * num
        for cm in unhit:
            rest = cm
            while rest:
                low = rest & -rest
                rest ^= low
                counts[low.bit_length() - 1] += 1
        if tiebreak is None:
            pick = max(range(num), key=lambda i: (counts[i], -i))
        else:
            pick = max(range(num), key=lambda i: (counts[i],) + tiebreak(i))
        bit = 1 << pick
        deleted |= bit
        unhit = [cm for cm in unhit if cm & bit == 0]
    return deleted


def _star_seeds(host, level):
    """Deletion masks keeping only the edges that meet a level-set T.

    Each residual family has tau <= level, the extremal shape at p=1.
    """
    masks = host.masks
    full = (1 << len(masks)) - 1
    seeds = []
    if comb(host.n, level) <= _STRUCT_SEED_CAP:
        for t_set in itertools.combinations(range(1, host.n + 1), level):
            tm = _edge_mask(t_set)
            keep = 0
            for i, em in enumerate(masks):
                if em & tm:
                    keep |= 1 << i
            seeds.append(full & ~keep)
    return seeds


def _window_seeds(host, level):
    """Deletion masks keeping only the edges inside a (k(level+1)-1)-set W.

    No residual family has room for level+1 disjoint edges; the other
    extremal shape at p=1.
    """
    n, k = host.n, host.k
    masks = host.masks
    full = (1 << len(masks)) - 1
    seeds = []
    w_size = k * (level + 1) - 1
    if 0 <= w_size <= n and comb(n, w_size) <= _STRUCT_SEED_CAP:
        for w_set in itertools.combinations(range(1, n + 1), w_size):
            wm = _edge_mask(w_set)
            keep = 0
            for i, em in enumerate(masks):
                if em & ~wm == 0:
                    keep |= 1 << i
            seeds.append(full & ~keep)
    return seeds


def _family_from_kept(host, deleted_mask):
    edges = [e for i, e in enumerate(host.edges) if not deleted_mask >> i & 1]
    masks = [m for i, m in enumerate(host.masks) if not deleted_mask >> i & 1]
    return Family._from_canonical(host.n, host.k, edges, masks)


def _k2_adjacency(host):
    adj = [0] * (host.n + 1)
    for u, v in host.edges:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    return adj


def _k2_first_triangle(host):
    """Lex-first triangle of a graph, as a 3-edge Family, or None."""
    adj = _k2_adjacency(host)
    for u, v in host.edges:
        common = adj[u] & adj[v]
        if common:
            w = (common & -common).bit_length()
            tri = sorted([u, v, w])
            edges = [
                (tri[0], tri[1]),
                (tri[0], tri[2]),
                (tri[1], tri[2]),
            ]
            return Family._from_canonical(host.n, 2, edges)
    return None


def _k2_s1_max(host):
    """(size, family) of the largest intersecting subgraph.

    An intersecting graph is a star or a triangle, so the optimum is the max
    degree unless a triangle beats it.
    """
    if not len(host):
        return 0, Family._from_canonical(host.n, 2, [])
    degs = host.degrees()
    center = max(degs, key=lambda v: (degs[v], -v))
    delta = degs[center]
    tri = _k2_first_triangle(host)
    if tri is not None and 3 > delta:
        return 3, tri
    return delta, host.filter(meet=(center,))


def max_family_nu_le(host, s, matching_cap=MATCHING_CAP, force_generic=False):
    """Exact largest subfamily with matching number at most s.

    Returns (size, family).  Generic path: minimum hitting set over all
    (s+1)-matchings of the host.
    """
    if s < 0:
        raise RangeError(f"s must be >= 0, got {s}")
    if host.k == 2 and s == 1 and not force_generic:
        return _k2_s1_max(host)
    cons_idx = _enum_matching_indices(host, s + 1, matching_cap)
    if not cons_idx:
        return len(host), host
    solver = _HitSolver(host.masks, cons_idx, s)
    edges = host.edges
    seeds = [
        _greedy_hitting(solver.cons, solver.num),
        _greedy_hitting(
            solver.cons, solver.num, tiebreak=lambda i: (edges[i][-1], -i)
        ),
    ]
    seeds.extend(_star_seeds(host, s))
    seeds.extend(_window_seeds(host, s))
    opt, mask = solver.minimize(seeds=seeds)
    return len(host) - opt, _family_from_kept(host, mask)


def _keep_sets(host, m):
    """For each m-set T: the mask of host edges avoiding T entirely."""
    out = []
    for t_set in itertools.combinations(range(1, host.n + 1), m):
        tm = _edge_mask(t_set)
        ks = 0
        for i, em in enumerate(host.masks):
            if em & tm == 0:
                ks |= 1 << i
        out.append(ks)
    return out


def _max_nontrivial(host, s, matching_cap, force_generic=False):
    """Exact largest non-trivial subfamily with nu <= s, or (None, None)."""
    if host.k == 2 and s == 1 and not force_generic:
        # a non-trivial intersecting graph is a triangle
        tri = _k2_first_triangle(host)
        return (None, None) if tri is None else (3, tri)
    best = None
    witness = None
    for m in range(1, s + 1):
        cons_idx = _enum_matching_indices(host, m + 1, matching_cap)
        solver = _HitSolver(host.masks, cons_idx, m)
        keeps = _keep_sets(host, m)
        if any(ks == 0 for ks in keeps):
            continue
        # a star seed deletes exactly the edges avoiding its T, a keep-set
        # (keeps[T]), so only window seeds can be feasible here
        seeds = [
            cand
            for cand in _window_seeds(host, m)
            if all(ks & ~cand for ks in keeps)
        ]
        r = solver.minimize(keep_sets=keeps, seeds=seeds)
        if r is None:
            continue
        opt, mask = r
        size = len(host) - opt
        if best is None or size > best:
            best = size
            witness = _family_from_kept(host, mask)
    return best, witness


def extremal_verdict(host, s, matching_cap=MATCHING_CAP, force_generic=False):
    """Compare the best trivial and non-trivial subfamilies with nu <= s.

    The optimum is the larger of the two, with ties going to the star of
    the best s-set.  conclusion_holds means no non-trivial subfamily
    reaches the size of the best edge set meeting a single s-set of
    vertices.
    """
    if s < 1:
        raise RangeError(f"s must be >= 1, got {s}")
    mt = max_trivial(host, s, exact=True)
    nt, witness = _max_nontrivial(host, s, matching_cap, force_generic)
    if nt is not None and nt > mt.size:
        opt_fam = witness
    else:
        opt_fam = host.filter(meet=mt.vertices)
    opt_size = len(opt_fam)
    opt_nu, _ = matching_number(opt_fam)
    opt_tau = covering_number(opt_fam)[0] if len(opt_fam) else 0
    return Verdict(
        host_size=len(host),
        s=s,
        opt_size=opt_size,
        opt_family=opt_fam,
        opt_nu=opt_nu,
        opt_tau=opt_tau,
        max_trivial_size=mt.size,
        best_trivial_set=mt.vertices,
        max_nontrivial_size=nt,
        nontrivial_witness=witness,
        all_optima_trivial=nt is None or nt < opt_size,
        conclusion_holds=nt is None or nt < mt.size,
    )
