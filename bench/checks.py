"""Correctness checks on campaign answers, made outside any timed region.

Two kinds of check:

- reference: for the default seed, each trial's answer tuple
  (cell_index, trial_index, host_edge_count, success, value, error) must
  equal the one recorded in reference/<workload>.json;
- witness: for any seed, the host is re-sampled and the record's claims are
  checked by small independent computations (brute force where it is cheap,
  bounds where it is not).

Each check returns a list of problem strings; an empty list means the trial
passed.
"""

from __future__ import annotations

import itertools
import json
from math import comb
from pathlib import Path

import numpy as np

from matchlab.sampling import SampleSpec, sample_family

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# k2 hosts have ~300k edges and take ~0.4 s to re-sample, so only trial 0
# of each cell in the first round is re-sampled; the rest get the
# record-level checks.
K2_RESAMPLED_TRIALS = 1


def answer(rec):
    return [
        rec["cell_index"],
        rec["trial_index"],
        rec["host_edge_count"],
        rec["success"],
        rec["value"],
        rec["error"],
    ]


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def strip_timing(rec):
    return {key: val for key, val in rec.items() if key != "wall_time_ms"}


def load_reference(name):
    """Recorded answers per round for the default seed, or None."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)["rounds"]


def reference_problems(records, expected):
    got = [answer(rec) for rec in records]
    if len(got) != len(expected):
        return [f"{len(got)} trials, reference has {len(expected)}"]
    return [
        f"answer {g} != reference {e}"
        for g, e in zip(got, expected)
        if g != e
    ]


def _mask(edge):
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


def _has_matching(masks, size, used=0, start=0):
    """True when `size` pairwise disjoint masks exist (plain ints)."""
    if size == 0:
        return True
    for i in range(start, len(masks) - size + 1):
        if not masks[i] & used and _has_matching(
            masks, size - 1, used | masks[i], i + 1
        ):
            return True
    return False


def _has_matching_np(masks, size):
    """`_has_matching` over a uint64 array, filtering with numpy."""
    if size == 0:
        return True
    if len(masks) < size:
        return False
    if size == 1:
        return True
    for i in range(len(masks) - size + 1):
        rest = masks[i + 1 :]
        if _has_matching_np(rest[(rest & masks[i]) == 0], size - 1):
            return True
    return False


def _coverable_np(masks, depth):
    """True when `depth` vertices meet every mask (bounded search)."""
    if len(masks) == 0:
        return True
    if depth == 0:
        return False
    first = int(masks[0])
    while first:
        bit = first & -first
        first ^= bit
        if _coverable_np(masks[(masks & np.uint64(bit)) == 0], depth - 1):
            return True
    return False


def _host(rec):
    host = sample_family(SampleSpec(**rec["spec"]))
    problems = []
    if len(host) != rec["host_edge_count"]:
        problems.append(
            f"host has {len(host)} edges, record says "
            f"{rec['host_edge_count']}"
        )
    return host, problems


def _verdict(cell, rec):
    host, problems = _host(rec)
    p = rec["payload"]
    s, n = cell.s, cell.n
    masks = [_mask(e) for e in host.edges]
    trivial_sizes = {
        sub: sum(1 for m in masks if m & _mask(sub))
        for sub in itertools.combinations(range(1, n + 1), s)
    }
    mt = max(trivial_sizes.values(), default=0)
    if p["max_trivial_size"] != mt:
        problems.append(f"max_trivial_size {p['max_trivial_size']} != {mt}")
    best = tuple(p["best_trivial_set"])
    if trivial_sizes.get(best) != p["max_trivial_size"]:
        problems.append(f"best_trivial_set {best} does not reach its size")
    nt = p["max_nontrivial_size"]
    wit = p["nontrivial_witness"]
    if (nt is None) != (wit is None):
        problems.append("max_nontrivial_size and witness disagree on None")
    elif wit is not None:
        hostset = set(host.edges)
        wmasks = [_mask(e) for e in wit]
        nu = max(m for m in range(s + 1) if _has_matching(wmasks, m))
        if len(wit) != nt or len(set(map(tuple, wit))) != nt:
            problems.append(f"witness has {len(wit)} edges, claims {nt}")
        if not all(tuple(e) in hostset for e in wit):
            problems.append("witness is not a subfamily of the host")
        if _has_matching(wmasks, s + 1):
            problems.append(f"witness has a matching of size {s + 1}")
        if any(
            all(m & _mask(sub) for m in wmasks)
            for sub in itertools.combinations(range(1, n + 1), nu)
        ):
            problems.append(f"witness is covered by {nu} vertices")
    if p["opt_size"] < max(p["max_trivial_size"], nt or 0):
        problems.append("opt_size below a feasible family")
    if not 0 <= p["opt_nu"] <= s:
        problems.append(f"opt_nu {p['opt_nu']} outside [0, {s}]")
    holds = nt is None or nt < p["max_trivial_size"]
    if p["conclusion_holds"] != holds or rec["success"] != holds:
        problems.append("conclusion_holds contradicts the sizes")
    if rec["value"] != float(p["opt_size"]):
        problems.append("value != opt_size")
    return problems


def _window(cell, rec):
    host, problems = _host(rec)
    p = rec["payload"]
    arr = np.array(host.masks, dtype=np.uint64)
    nu = p["nu"]
    if not (_has_matching_np(arr, nu) and not _has_matching_np(arr, nu + 1)):
        problems.append(f"nu is not {nu}")
    elif p["trivial"] != (nu == 0 or _coverable_np(arr, nu)):
        problems.append(f"trivial={p['trivial']} is wrong")
    if rec["value"] != float(nu):
        problems.append("value != nu")
    if rec["success"] != (nu <= cell.s and not p["trivial"]):
        problems.append("success contradicts nu and trivial")
    return problems


def _k2(cell, rec, resample):
    p = rec["payload"]
    problems = []
    s, n = cell.s, cell.n
    f = max(comb(2 * s + 1, 2), comb(s, 2) + s * (n - s))
    lo, hi = (1 - cell.eps) * cell.p * f, (1 + cell.eps) * cell.p * f
    if not (np.isclose(p["lo"], lo) and np.isclose(p["hi"], hi)):
        problems.append(f"envelope {p['lo']}..{p['hi']} != {lo}..{hi}")
    x = p["x_size"]
    if rec["value"] != float(x) or rec["success"] != (p["lo"] <= x <= p["hi"]):
        problems.append("value or success contradicts x_size")
    if resample:
        host, extra = _host(rec)
        problems += extra
        deg = np.bincount(np.array(host.edges).ravel(), minlength=n + 1)
        d1, d2 = sorted(deg.tolist())[-2:][::-1]
        # nu <= s graphs: s-vertex stars, or for s=2 also one vertex plus a
        # triangle, a 5-clique or two triangles; the best star pair (or
        # single star) is a lower bound.
        if s == 1 and d1 >= 3 and x != d1:
            problems.append(f"s=1 optimum {x} != max degree {d1}")
        if s == 2 and not d1 + d2 - 1 <= x <= max(d1 + d2, d1 + 3, 10):
            problems.append(f"s=2 optimum {x} outside star-pair bounds")
    return problems


def _audit(cell, rec, budget):
    host, problems = _host(rec)
    p = rec["payload"]
    n, k, s, t, prob = cell.n, cell.k, cell.s, cell.t, cell.p
    deg = comb(n - 1, k - 1)
    inc = np.zeros((len(host), n + 1), dtype=bool)
    if len(host):
        rows = np.repeat(np.arange(len(host)), k)
        inc[rows, np.array(host.edges).ravel()] = True

    def inside(vs):
        return inc[:, list(vs)].sum(axis=1)

    always = (
        n >= s
        and all(min(3 * k * q - 1, n) >= 2 and k * q + 1 <= n
                for q in range(1, s + 1))
        and t >= 2
        and t + 1 <= n
    )
    if always and set(p["checked"].values()) != {budget}:
        problems.append(f"checked {p['checked']} != {budget} each")
    for v in p["violations"]:
        cond = v["condition"]
        if cond == "avoid_meet_floor":
            count = int(((inside(v["Q"]) > 0) & (inside(v["R"]) == 0)).sum())
            thr, bad = 0.5 * prob * v["q"] * deg, count <= v["threshold"]
        elif cond == "pair_cluster_cap":
            count = int((inside(v["Q"]) >= 2).sum())
            thr, bad = 0.25 * prob * v["q"] * deg, count >= v["threshold"]
        elif cond == "fan_cap":
            count = int(((inside([v["x"]]) > 0) & (inside(v["Q"]) > 0)).sum())
            thr, bad = 0.25 * prob * deg, count >= v["threshold"]
        elif cond == "link_cap":
            r = len(v["R"])
            count = int((inside(v["R"]) == r).sum())
            thr = prob * deg / (4 * r * (k * s) ** (r - 1))
            bad = count > v["threshold"]
        elif cond == "deep_link_cap":
            count = int((inside(v["T"]) == t + 1).sum())
            thr = prob * deg / (4 * k ** (t + 1) * s**t)
            bad = count > v["threshold"]
        else:
            problems.append(f"unknown condition {cond}")
            continue
        if count != v["count"] or not np.isclose(thr, v["threshold"]) or not bad:
            problems.append(f"violation {v} does not hold on the host")
    if rec["value"] != float(len(p["violations"])):
        problems.append("value != number of violations")
    if rec["success"] != (not p["violations"]):
        problems.append("success contradicts violations")
    return problems


def witness_problems(kind, cell, rec, config, first_round):
    """Independent checks of one trial record; see the module docstring."""
    if rec["error"] is not None:
        return [f"trial error: {rec['error']}"]
    if kind == "verdict":
        return _verdict(cell, rec)
    if kind == "window":
        return _window(cell, rec)
    if kind == "k2":
        resample = first_round and rec["trial_index"] < K2_RESAMPLED_TRIALS
        return _k2(cell, rec, resample)
    return _audit(cell, rec, config["budget"])
