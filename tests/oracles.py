"""Brute-force reference implementations used to pin expected test values.

Everything here is exponential and only safe on tiny inputs.  The real
solvers are tested against these, never the other way around.
"""

import itertools
import random
from math import comb


def brute_matching_number(edges):
    """Max number of pairwise disjoint edges, by exhaustive extension."""
    sets = [frozenset(e) for e in edges]

    def extend(start, used):
        best = 0
        for i in range(start, len(sets)):
            if not sets[i] & used:
                best = max(best, 1 + extend(i + 1, used | sets[i]))
        return best

    return extend(0, frozenset())


def brute_covering_number(edges, n):
    """Min size of a vertex set meeting every edge, by exhaustive search."""
    if not edges:
        return 0
    sets = [frozenset(e) for e in edges]
    for size in range(0, n + 1):
        for sub in itertools.combinations(range(1, n + 1), size):
            sb = frozenset(sub)
            if all(s & sb for s in sets):
                return size
    raise AssertionError("unreachable")


def brute_is_trivial(edges, n):
    return brute_matching_number(edges) == brute_covering_number(edges, n)


def brute_max_trivial(edges, n, s):
    """Most edges meeting a single s-subset, by exhaustive enumeration."""
    best = 0
    for sub in itertools.combinations(range(1, n + 1), s):
        sb = frozenset(sub)
        best = max(best, sum(1 for e in edges if sb & frozenset(e)))
    return best


def brute_matchings(edges, size):
    """All matchings of the given size as sorted tuples of edges."""
    sets = [frozenset(e) for e in edges]
    out = []
    for idxs in itertools.combinations(range(len(edges)), size):
        union = frozenset()
        ok = True
        for i in idxs:
            if sets[i] & union:
                ok = False
                break
            union = union | sets[i]
        if ok:
            out.append(tuple(edges[i] for i in idxs))
    return out


def all_families(n, k):
    """Every family on [n] with edge size k (2^C(n,k) of them)."""
    pool = list(itertools.combinations(range(1, n + 1), k))
    for bits in range(1 << len(pool)):
        yield [pool[i] for i in range(len(pool)) if bits >> i & 1]


def count_meeting(n, k, s):
    return comb(n, k) - comb(n - s, k)


def brute_max_nu_le(edges, s):
    """Largest subfamily with matching number <= s, by trying all subsets."""
    best = 0
    for bits in range(1 << len(edges)):
        sub = [edges[i] for i in range(len(edges)) if bits >> i & 1]
        if len(sub) > best and brute_matching_number(sub) <= s:
            best = len(sub)
    return best


def brute_max_nontrivial(edges, n, s):
    """Largest non-trivial subfamily with nu <= s, or None."""
    best = None
    for bits in range(1 << len(edges)):
        sub = [edges[i] for i in range(len(edges)) if bits >> i & 1]
        if best is not None and len(sub) <= best:
            continue
        if not sub:
            continue
        nu = brute_matching_number(sub)
        if nu > s:
            continue
        if brute_covering_number(sub, n) > nu:
            best = len(sub)
    return best


def brute_min_hitting(edges, constraints):
    """Smallest set of edge indices meeting every constraint."""
    m = len(edges)
    for size in range(0, m + 1):
        for sub in itertools.combinations(range(m), size):
            ss = set(sub)
            if all(ss & set(c) for c in constraints):
                return size
    raise AssertionError("unreachable")


def brute_resilient(n, edges, t):
    """True iff deleting any <= t vertices keeps the matching number."""
    base = brute_matching_number(edges)
    for size in range(1, t + 1):
        for t_set in itertools.combinations(range(1, n + 1), size):
            ts = set(t_set)
            kept = [e for e in edges if not ts & set(e)]
            if brute_matching_number(kept) < base:
                return False
    return True


def brute_lemma_audit(fam, s, t, p, budget, seed):
    """`campaign.lemma_audit` with every count taken over Python sets.

    Draws from the RNG in the same order with the same arguments, so the
    record must equal the real audit's exactly.
    """
    from matchlab.campaign import AuditRecord

    n, k = fam.n, fam.k
    deg = comb(n - 1, k - 1)
    rng = random.Random(seed)
    verts = range(1, n + 1)
    edges = [frozenset(e) for e in fam.edges]
    checked = dict.fromkeys(
        (
            "avoid_meet_floor",
            "pair_cluster_cap",
            "fan_cap",
            "link_cap",
            "deep_link_cap",
        ),
        0,
    )
    violations = []

    def record(name, count, thr, bad, **witness):
        checked[name] += 1
        if bad:
            violations.append(
                {"condition": name, "count": count, "threshold": thr,
                 **witness}
            )

    for _ in range(budget):
        if n >= s:
            q = rng.randint(1, s)
            drawn = rng.sample(verts, s)
            q_set, r_set = sorted(drawn[:q]), sorted(drawn[q:])
            qs, rs = set(q_set), set(r_set)
            count = sum(1 for e in edges if e & qs and not e & rs)
            thr = 0.5 * p * q * deg
            record("avoid_meet_floor", count, thr, count <= thr,
                   q=q, R=r_set, Q=q_set)

        q = rng.randint(1, s)
        hi = min(3 * k * q - 1, n)
        if hi >= 2:
            size = rng.randint(2, hi)
            q_set = sorted(rng.sample(verts, size))
            qs = set(q_set)
            count = sum(1 for e in edges if len(e & qs) >= 2)
            thr = 0.25 * p * q * deg
            record("pair_cluster_cap", count, thr, count >= thr,
                   q=q, Q=q_set)

        q = rng.randint(1, s)
        if k * q + 1 <= n:
            x = rng.randint(1, n)
            pool = [v for v in verts if v != x]
            q_set = sorted(rng.sample(pool, k * q))
            qs = set(q_set)
            count = sum(1 for e in edges if x in e and e & qs)
            thr = 0.25 * p * deg
            record("fan_cap", count, thr, count >= thr, q=q, x=x, Q=q_set)

        if t >= 2 and n >= 2:
            r = rng.randint(2, min(t, n))
            r_set = sorted(rng.sample(verts, r))
            rs = set(r_set)
            count = sum(1 for e in edges if rs <= e)
            thr = p * deg / (4 * r * (k * s) ** (r - 1))
            record("link_cap", count, thr, count > thr, R=r_set)

        if t + 1 <= n:
            t_set = sorted(rng.sample(verts, t + 1))
            ts = set(t_set)
            count = sum(1 for e in edges if ts <= e)
            thr = p * deg / (4 * k ** (t + 1) * s**t)
            record("deep_link_cap", count, thr, count > thr, T=t_set)

    return AuditRecord(
        n=n, k=k, s=s, t=t, p=p, budget=budget, seed=seed,
        checked=checked, violations=tuple(violations),
    )
