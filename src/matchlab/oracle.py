"""Exact extremal subfamilies under a matching-number budget.

Everything rests on one equivalence: a family has matching number at most s
iff it contains no s+1 pairwise disjoint edges.  The largest subfamily of a
host with that property is therefore the host minus a minimum hitting set of
the host's (s+1)-matchings, solved here by branch and bound.

The non-trivial maximum is found the same way with side constraints: a
family F with nu(F) = m is non-trivial iff no m-vertex set covers it, so for
each level m <= s we minimize deletions subject to "every (m+1)-matching is
hit" plus "for every m-set T, at least one edge avoiding T survives", and
take the best level.  The levels are searched from m = s down to 1, each
starting from the best size found so far, so a lower level that cannot reach
it is usually cut at its root; on a tie the lower level's witness is kept.
Any family satisfying the level-m constraints has tau > m >= nu, hence is
non-trivial, and conversely every non-trivial family with nu <= s is
feasible at level nu(F).  A trivial family with nu <= s is
covered by nu <= s vertices, so it lies in the star of some s-set; the
verdict's optimum is therefore the larger of the best star and the
non-trivial maximum, with no third solve.

Which witness a search returns is fixed by its branching and item order
alone.  The lower bound only decides which subtrees are cut, and a sound
bound cuts only subtrees holding no solution strictly smaller than the
incumbent, so every bound visits the same sequence of improving solutions:
the packing bound takes constraints fewest conflicts first, in a second
numbering of the constraints, without changing any witness.
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


def _enum_matchings(fam, size, cap, label):
    """All matchings of exactly `size` edges, lex order, each as the tuple
    of `label[i]` over its edge indices i.

    Depth-first over `Family.through` bitsets: the candidates at a depth are
    the edges after the last pick that meet no pick, and the last depth
    emits every remaining candidate at once.
    """
    if size == 1:
        out = [(x,) for x in label]
    else:
        through = fam.through
        meet = []
        for e in fam.edges:
            b = 0
            for v in e:
                b |= through[v]
            meet.append(b)
        out = []
        chosen = []
        cands = [(1 << len(fam)) - 1]
        while cands:
            c = cands[-1]
            depth = len(chosen)
            if c.bit_count() < size - depth:
                cands.pop()
                if chosen:
                    chosen.pop()
                continue
            low = c & -c
            i = low.bit_length() - 1
            cands[-1] = c = c ^ low
            c ^= c & meet[i]
            if depth + 2 < size:
                chosen.append(label[i])
                cands.append(c)
                continue
            pre = (*chosen, label[i])
            while c:
                low = c & -c
                out.append((*pre, label[low.bit_length() - 1]))
                c ^= low
            if len(out) > cap:
                break
    if len(out) > cap:
        raise ExplosionError(f"more than {cap} matchings of size {size}")
    return out


def _enum_matching_indices(fam, size, cap):
    """Index tuples of all matchings of exactly `size` edges, lex order."""
    return _enum_matchings(fam, size, cap, list(range(len(fam))))


def enumerate_matchings(fam, size, cap=MATCHING_CAP):
    """All matchings of exactly `size` edges, in lexicographic order."""
    if size < 1:
        raise RangeError(f"matching size must be >= 1, got {size}")
    return list(map(Matching, _enum_matchings(fam, size, cap, fam.edges)))


def _bitset(indices, size):
    """The int with exactly the given bits set, all below `size`."""
    buf = bytearray((size + 7) >> 3)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class _HitSolver:
    """Minimum hitting set over matching constraints, by branch and bound.

    Items are host edge indices and constraints are (level+1)-matchings.  A
    constraint is hit when one of its items is deleted.  Branching on a
    constraint's items in order, protecting the earlier ones, partitions the
    solution space.  The lower bound groups support items into
    pairwise-disjoint bundles (first fit); a bundle of g surviving edges is
    itself a matching, so any feasible completion deletes at least g - level
    of them.

    The state is transposed: `hits[j]` is the bitset of the constraints that
    contain item j, so deleting j drops its constraints by one AND-NOT on the
    bitset of unhit constraints, written `x ^ (x & row)`: `x & ~row` goes
    through a negative int, several times slower on wide bitsets.  `buckets[t]` holds the constraints with
    exactly t protected items; among unhit ones, t = level + 1 is infeasible,
    t = level forces the last item, and branching takes the first constraint
    of the fullest bucket below that.  The search runs on an explicit stack,
    so its depth is not bounded by the interpreter's recursion limit.

    The packing bound reads a second numbering of the constraints, fewest
    conflicts first: a constraint's score is the sum over its items of the
    number of constraints through the item, ties in lex order.  `hits_p[j]`
    is item j's row in that order, and each node carries `unhit_p`, the
    unhit set renumbered, which deletions AND out with `unhit`.  The order
    runs from the top bit down, so the pack takes the highest bit of
    `unhit_p` (`bit_length`, no full-width lowest-bit extraction) and drops
    every constraint sharing an item with it, by one cached mask of the
    bits below; the cache holds at most `num` masks, and a constraint
    outside it drops its items' rows one by one, so no table is quadratic
    in the constraint count.  Taking the least
    conflicting constraints first packs more of them (Halldorsson and
    Radhakrishnan, "Greed is good", Algorithmica 18, 1997), so more
    subtrees are cut.  Branching, forcing and keep-set checks read only the
    lex numbering, and a sound bound cuts only subtrees without a strictly
    smaller solution, so the returned solution is the one any sound bound
    gives.
    """

    def __init__(self, item_masks, constraints, level):
        self.num = len(item_masks)
        self.level = level
        self.cons = constraints
        width = len(constraints)
        self.all = (1 << width) - 1
        self.nodes = 0
        rows = [[] for _ in range(self.num)]
        for c, t in enumerate(constraints):
            for i in t:
                rows[i].append(c)
        self.hits = [_bitset(r, width) for r in rows]
        # the pack order: fewest conflicts first, ties in lex order, where a
        # constraint's score is the number of constraints through each of
        # its items, summed; the first constraint takes the highest bit
        degree = list(map(len, rows))
        score = [sum(map(degree.__getitem__, t)) for t in constraints]
        order = sorted(range(width), key=score.__getitem__)
        order.reverse()
        self.pack_cons = list(map(constraints.__getitem__, order))
        bit = [0] * width
        for b, c in enumerate(order):
            bit[c] = b
        self.hits_p = [_bitset(map(bit.__getitem__, r), width) for r in rows]
        # pack bit -> the constraints below it sharing no item with it; at
        # most `num` entries
        self.pack_keep = {}
        groups = []
        for i in range(self.num):
            if not degree[i]:
                continue
            vm = item_masks[i]
            for g in groups:
                if g[0] & vm == 0:
                    g[0] |= vm
                    g[1] |= 1 << i
                    g[2] += 1
                    break
            else:
                groups.append([vm, 1 << i, 1])
        self.groups = [g[1] for g in groups if g[2] > level]

    def _bound_cuts(self, deleted, protected, unhit_p, room):
        """True when every completion deletes at least `room` more items.

        Two relaxations: pairwise item-disjoint unhit constraints (first fit
        in pack order, fewest conflicts first) each need their own deletion;
        and per disjoint bundle, survivors beyond `level` must go.  Also true
        when a bundle has too few unprotected survivors, i.e. no completion
        exists.
        """
        hits_p, cache = self.hits_p, self.pack_keep
        pack = 0
        while unhit_p:
            pack += 1
            if pack >= room:
                return True
            # the top bit, so each pick leaves a shorter int
            b = unhit_p.bit_length() - 1
            keep = cache.get(b)
            if keep is None:
                if len(cache) == self.num:
                    for j in self.pack_cons[b]:
                        unhit_p ^= unhit_p & hits_p[j]
                    continue
                below = (1 << b) - 1
                for j in self.pack_cons[b]:
                    below ^= below & hits_p[j]
                keep = cache[b] = below
            unhit_p &= keep
        alive = ~deleted
        free = alive & ~protected
        lb = 0
        for gmask in self.groups:
            need = (gmask & alive).bit_count() - self.level
            if need > 0:
                lb += need
                if lb >= room or (gmask & free).bit_count() < need:
                    return True
        return False

    def minimize(
        self, keep_sets=(), seeds=(), node_cap=NODE_CAP, incumbent=None
    ):
        """Best (size, deleted_mask) hitting all constraints, or None.

        A solution may not contain any keep_set entirely (those edges would
        all be gone), and must delete fewer than `incumbent` items (default:
        any number).  Seeds are candidate deletion masks; the first smallest
        feasible one below the incumbent starts the search.  Ties go to the
        first solution found, and `nodes` is left on the solver.
        """
        level = self.level
        hits, hits_p, cons = self.hits, self.hits_p, self.cons
        best_size = self.num + 1 if incumbent is None else incumbent
        best_mask = None
        for seed in sorted(seeds, key=int.bit_count):
            if seed.bit_count() >= best_size:
                break
            if all(ks & ~seed for ks in keep_sets):
                best_size, best_mask = seed.bit_count(), seed
                break
        self.nodes = 1
        if not all(keep_sets):
            return None
        keeps_of = [[] for _ in range(self.num)]
        for ks in keep_sets:
            rest = ks
            while rest:
                low = rest & -rest
                rest ^= low
                keeps_of[low.bit_length() - 1].append(ks)
        min_keep = min(map(int.bit_count, keep_sets), default=self.num + 1)

        # a node is (unhit, unhit_p, buckets, deleted, protected, count,
        # fresh): unhit_p is unhit in pack order, and fresh lists the items
        # deleted on entering the node; a frame on the stack is [unhit,
        # unhit_p, buckets, deleted, protected, count, branch items, next]
        node = (
            self.all, self.all, [self.all] + [0] * (level + 1), 0, 0, 0, ()
        )
        stack = []
        while True:
            if node is not None:
                (
                    unhit, unhit_p, buckets, deleted, protected, count, fresh
                ) = node
                node = None
                while True:
                    # a keep-set can only be gone once `count` reaches its
                    # size, and only one holding a fresh item can be gone now
                    if count >= min_keep and 0 in map(
                        (~deleted).__and__,
                        keeps_of[fresh[0]] if len(fresh) == 1 else keep_sets,
                    ):
                        break
                    if count >= best_size or unhit & buckets[level + 1]:
                        break
                    forced = unhit & buckets[level]
                    if forced:
                        fresh = []
                        while forced:
                            for j in cons[(forced & -forced).bit_length() - 1]:
                                if not protected >> j & 1:
                                    break
                            fresh.append(j)
                            deleted |= 1 << j
                            unhit ^= unhit & hits[j]
                            unhit_p ^= unhit_p & hits_p[j]
                            forced ^= forced & hits[j]
                        count += len(fresh)
                        continue
                    if not unhit:
                        best_size, best_mask = count, deleted
                        break
                    if self._bound_cuts(
                        deleted, protected, unhit_p, best_size - count
                    ):
                        break
                    for t in range(level - 1, -1, -1):
                        cand = unhit & buckets[t]
                        if cand:
                            break
                    first = cons[(cand & -cand).bit_length() - 1]
                    items = [j for j in first if not protected >> j & 1]
                    stack.append([
                        unhit, unhit_p, buckets, deleted, protected, count,
                        items, 0,
                    ])
                    break
            if not stack:
                break
            frame = stack[-1]
            (
                unhit, unhit_p, buckets, deleted, protected, count, items, pos
            ) = frame
            if pos == len(items) or pos and count + 1 >= best_size:
                stack.pop()
                continue
            if pos:
                # protect the previous branch item, on the frame's own copy
                # of the buckets (the first child shared the parent's)
                j = items[pos - 1]
                if pos == 1:
                    buckets = frame[2] = list(buckets)
                moved = hits[j] & unhit
                for t in range(level, -1, -1):
                    up = buckets[t] & moved
                    if up:
                        buckets[t] ^= up
                        buckets[t + 1] |= up
                protected = frame[4] = protected | 1 << j
            j = items[pos]
            frame[7] = pos + 1
            node = (
                unhit ^ (unhit & hits[j]), unhit_p ^ (unhit_p & hits_p[j]),
                buckets, deleted | 1 << j, protected, count + 1, (j,),
            )
            self.nodes += 1
            if self.nodes > node_cap:
                raise ExplosionError("hitting-set search exceeded node cap")
        if best_mask is None:
            return None
        return best_size, best_mask


def _keep_sets(host, m):
    """For each m-set T, in lex order: the mask of host edges avoiding T."""
    through = host.through
    full = (1 << len(host)) - 1
    out = []
    for t_set in itertools.combinations(range(1, host.n + 1), m):
        meet = 0
        for v in t_set:
            meet |= through[v]
        out.append(full & ~meet)
    return out


def _window_seeds(host, level):
    """Deletion masks keeping only the edges inside a (k(level+1)-1)-set W.

    No residual family has room for level+1 disjoint edges; the other
    extremal shape at p=1.  The deleted edges are those through a vertex
    outside W; the windows are taken in lex order.
    """
    n = host.n
    w_size = host.k * (level + 1) - 1
    if not 0 <= w_size <= n or comb(n, w_size) > _STRUCT_SEED_CAP:
        return []
    through = host.through
    seeds = []
    # the complements of the lex-ordered windows are the (n - w_size)-sets
    # in reverse lex order
    outs = list(itertools.combinations(range(1, n + 1), n - w_size))
    for out in reversed(outs):
        deleted = 0
        for v in out:
            deleted |= through[v]
        seeds.append(deleted)
    return seeds


def _family_from_kept(host, deleted_mask):
    edges = [e for i, e in enumerate(host.edges) if not deleted_mask >> i & 1]
    masks = [m for i, m in enumerate(host.masks) if not deleted_mask >> i & 1]
    return Family._from_canonical(host.n, host.k, edges, masks)


def _k2_first_triangle(host):
    """Lex-first triangle of a graph, as a 3-edge Family, or None."""
    adj = [0] * (host.n + 1)
    for u, v in host.edges:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
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


def max_family_nu_le(host, s, matching_cap=MATCHING_CAP, force_generic=False):
    """Exact largest subfamily with matching number at most s.

    Returns (size, family).  Generic path: minimum hitting set over all
    (s+1)-matchings of the host, seeded with the stars of the s-sets (when
    there are at most _STRUCT_SEED_CAP of them) and the windows.  For a
    non-empty graph at s=1 the answer is the verdict's: an intersecting
    graph is a star or a triangle, so the best star wins unless the
    lex-first triangle is larger.
    """
    if s < 0:
        raise RangeError(f"s must be >= 0, got {s}")
    if host.k == 2 and s == 1 and len(host) and not force_generic:
        star = max_trivial(host, 1, exact=True)
        tri = _k2_first_triangle(host)
        if tri is not None and 3 > star.size:
            return 3, tri
        return star.size, host.filter(meet=star.vertices)
    cons_idx = _enum_matching_indices(host, s + 1, matching_cap)
    if not cons_idx:
        return len(host), host
    # a star seed deletes the edges avoiding its s-set, a keep-set
    seeds = (
        _keep_sets(host, s) if comb(host.n, s) <= _STRUCT_SEED_CAP else []
    )
    seeds += _window_seeds(host, s)
    opt, mask = _HitSolver(host.masks, cons_idx, s).minimize(seeds=seeds)
    return len(host) - opt, _family_from_kept(host, mask)


def _max_nontrivial(host, s, matching_cap, force_generic=False):
    """Exact largest non-trivial subfamily with nu <= s, or (None, None).

    Levels run from s down to 1.  Each starts with the best size so far as
    its incumbent and takes over the witness when it reaches at least that
    size, so ties go to the lower level.
    """
    if host.k == 2 and s == 1 and not force_generic:
        # a non-trivial intersecting graph is a triangle
        tri = _k2_first_triangle(host)
        return (None, None) if tri is None else (3, tri)
    best = None
    witness = None
    for m in range(s, 0, -1):
        cons_idx = _enum_matching_indices(host, m + 1, matching_cap)
        keeps = _keep_sets(host, m)
        if not all(keeps):
            continue
        solver = _HitSolver(host.masks, cons_idx, m)
        # a star seed deletes exactly the edges avoiding its T, a keep-set
        # (keeps[T]), so only window seeds can be feasible here
        r = solver.minimize(
            keep_sets=keeps,
            seeds=_window_seeds(host, m),
            incumbent=len(host) + 1 if best is None else len(host) - best + 1,
        )
        if r is None:
            continue
        best = len(host) - r[0]
        witness = _family_from_kept(host, r[1])
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
