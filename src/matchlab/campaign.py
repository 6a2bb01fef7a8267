"""Seeded Monte Carlo campaigns and randomized size-condition audits.

A campaign expands a parameter grid into cells, runs `trials` seeded
draws per cell through the solver appropriate to its kind, and writes
one JSON line per trial plus a CSV summary per cell.  Output is a pure
function of the config: trial RNG streams are derived from (master
seed, cell index, trial index), workers never share state, and lines
are written in grid order regardless of which worker finished first.
Only the wall_time_ms fields vary between repeat runs.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from math import comb
from typing import NamedTuple

from .bounds import regime_report
from .errors import ConfigError, MatchlabError, RangeError
from .families import is_trivial, matching_number
from .graphs import f_bound, max_nu_subgraph
from .oracle import extremal_verdict
from .sampling import SampleSpec, sample_family

KINDS = ("verdict", "window", "k2", "audit")

_CONDITIONS = (
    "avoid_meet_floor",
    "pair_cluster_cap",
    "fan_cap",
    "link_cap",
    "deep_link_cap",
)


@dataclass(frozen=True)
class AuditRecord:
    """Spot-check results for the five size conditions behind the
    sampling thresholds, on one family.

    For parameters (s, t, p) with degree scale D = C(n-1,k-1):
      avoid_meet_floor: edges avoiding R (|R|=s-q) and meeting Q (|Q|=q)
        number more than (1/2)pqD;
      pair_cluster_cap: edges with two or more vertices in a set Q of
        size < 3kq number less than (1/4)pqD;
      fan_cap: edges through x meeting a kq-set Q number less than
        (1/4)pD;
      link_cap: edges containing a fixed r-set (2 <= r <= t) number at
        most pD / (4r(ks)^(r-1));
      deep_link_cap: edges containing a fixed (t+1)-set number at most
        pD / (4k^(t+1)s^t).
    checked counts instances actually drawn per condition; violations
    carry the drawn sets and both sides of the failed comparison.
    """

    n: int
    k: int
    s: int
    t: int
    p: float
    budget: int | None
    seed: int | None
    checked: dict
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        d = asdict(self)
        d["violations"] = [dict(v) for v in self.violations]
        d["ok"] = self.ok
        return d


class _Tally:
    """Per-condition check counts and the violations an audit finds."""

    def __init__(self):
        self.checked = {name: 0 for name in _CONDITIONS}
        self.violations = []

    def record(self, name, count, threshold, bad, **witness):
        self.checked[name] += 1
        if bad:
            self.violations.append(
                {
                    "condition": name,
                    "count": count,
                    "threshold": threshold,
                    **witness,
                }
            )


def _union(through, vs):
    """The edges meeting the vertex set `vs`, as one bitset."""
    met = 0
    for v in vs:
        met |= through[v]
    return met


def _common(through, vs):
    """The edges holding every vertex of the non-empty set `vs`, as one
    bitset."""
    kept = through[vs[0]]
    for v in vs[1:]:
        kept &= through[v]
    return kept


def lemma_audit(fam, s, t, p, budget, seed):
    """Randomized audit: draw `budget` instances of each condition
    family on an explicit sample and report every violation.

    Every count is the popcount of a few big-int operations on the
    vertex -> edge bitsets `fam.through`: avoid/meet is the union over Q
    less the union over R; pair cluster keeps a bit-sliced count of the
    vertices of Q in each edge, once and twice or more; fan is through[x]
    AND the union over Q; link and deep link are the AND over the drawn
    set.
    """
    if budget < 1:
        raise RangeError(f"budget must be >= 1, got {budget}")
    if s < 1 or t < 1:
        raise RangeError(f"need s >= 1 and t >= 1, got s={s}, t={t}")
    if not 0 <= p <= 1:
        raise RangeError(f"p must be in [0, 1], got {p}")
    if fam.k < 1:
        # the thresholds divide by k and C(n-1, k-1) needs k >= 1
        raise RangeError(f"need a k-uniform family with k >= 1, got k={fam.k}")
    if fam.n < 1:
        # C(n-1, k-1) needs n >= 1
        raise RangeError(f"need a family on n >= 1 vertices, got n={fam.n}")
    n, k = fam.n, fam.k
    deg = comb(n - 1, k - 1)
    rng = random.Random(seed)
    verts = range(1, n + 1)
    through = fam.through

    tally = _Tally()
    record = tally.record

    for _ in range(budget):
        if n >= s:
            q = rng.randint(1, s)
            drawn = rng.sample(verts, s)
            q_set, r_set = sorted(drawn[:q]), sorted(drawn[q:])
            met = _union(through, q_set) & ~_union(through, r_set)
            count = met.bit_count()
            thr = 0.5 * p * q * deg
            record(
                "avoid_meet_floor", count, thr, count <= thr,
                q=q, R=r_set, Q=q_set,
            )

        q = rng.randint(1, s)
        hi = min(3 * k * q - 1, n)
        if hi >= 2:
            size = rng.randint(2, hi)
            q_set = sorted(rng.sample(verts, size))
            once = twice = 0
            for v in q_set:
                twice |= once & through[v]
                once |= through[v]
            count = twice.bit_count()
            thr = 0.25 * p * q * deg
            record(
                "pair_cluster_cap", count, thr, count >= thr, q=q, Q=q_set
            )

        q = rng.randint(1, s)
        if k * q + 1 <= n:
            x = rng.randint(1, n)
            pool = [v for v in verts if v != x]
            q_set = sorted(rng.sample(pool, k * q))
            count = (through[x] & _union(through, q_set)).bit_count()
            thr = 0.25 * p * deg
            record("fan_cap", count, thr, count >= thr, q=q, x=x, Q=q_set)

        if t >= 2 and n >= 2:
            r = rng.randint(2, min(t, n))
            r_set = sorted(rng.sample(verts, r))
            count = _common(through, r_set).bit_count()
            thr = p * deg / (4 * r * (k * s) ** (r - 1))
            record("link_cap", count, thr, count > thr, R=r_set)

        if t + 1 <= n:
            t_set = sorted(rng.sample(verts, t + 1))
            count = _common(through, t_set).bit_count()
            thr = p * deg / (4 * k ** (t + 1) * s**t)
            record("deep_link_cap", count, thr, count > thr, T=t_set)

    return AuditRecord(
        n=n,
        k=k,
        s=s,
        t=t,
        p=p,
        budget=budget,
        seed=seed,
        checked=tally.checked,
        violations=tuple(tally.violations),
    )


def complete_audit(n, k, s, t):
    """Deterministic audit of the complete k-graph (p = 1).

    Every condition instance of a given size class has the same count
    on the complete host, so each class is checked once in closed form;
    nothing is enumerated or sampled.
    """
    if n < k or k < 1:
        raise RangeError(f"need n >= k >= 1, got n={n}, k={k}")
    if s < 1 or t < 1:
        raise RangeError(f"need s >= 1 and t >= 1, got s={s}, t={t}")
    deg = comb(n - 1, k - 1)
    tally = _Tally()
    record = tally.record

    for q in range(1, s + 1):
        if s <= n:
            count = comb(n - (s - q), k) - comb(n - s, k)
            thr = 0.5 * q * deg
            record("avoid_meet_floor", count, thr, count <= thr, q=q)
        for size in range(2, min(3 * k * q - 1, n) + 1):
            count = (
                comb(n, k)
                - comb(n - size, k)
                - size * comb(n - size, k - 1)
            )
            thr = 0.25 * q * deg
            record(
                "pair_cluster_cap", count, thr, count >= thr, q=q, size=size
            )
        if k * q + 1 <= n:
            count = deg - comb(n - 1 - k * q, k - 1)
            thr = 0.25 * deg
            record("fan_cap", count, thr, count >= thr, q=q)

    for r in range(2, min(t, n) + 1):
        count = comb(n - r, k - r) if r <= k else 0
        thr = deg / (4 * r * (k * s) ** (r - 1))
        record("link_cap", count, thr, count > thr, size=r)
    if t + 1 <= n:
        count = comb(n - t - 1, k - t - 1) if t + 1 <= k else 0
        thr = deg / (4 * k ** (t + 1) * s**t)
        record("deep_link_cap", count, thr, count > thr, size=t + 1)

    return AuditRecord(
        n=n,
        k=k,
        s=s,
        t=t,
        p=1.0,
        budget=None,
        seed=None,
        checked=tally.checked,
        violations=tuple(tally.violations),
    )


@dataclass(frozen=True)
class TrialReport:
    """One seeded draw and its evaluation; serializable, and identical
    across repeat runs except for wall_time_ms."""

    kind: str
    cell_index: int
    trial_index: int
    spec: SampleSpec
    host_edge_count: int
    success: bool
    value: float | None
    payload: dict
    error: str | None
    wall_time_ms: int

    def to_dict(self):
        return {
            "kind": self.kind,
            "cell_index": self.cell_index,
            "trial_index": self.trial_index,
            "spec": self.spec.to_dict(),
            "host_edge_count": self.host_edge_count,
            "success": self.success,
            "value": self.value,
            "payload": self.payload,
            "error": self.error,
            "wall_time_ms": self.wall_time_ms,
        }


@dataclass(frozen=True)
class Cell:
    index: int
    n: int
    k: int
    s: int
    t: int | None
    eps: float | None
    p: float


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_pos_ints(name, values):
    if (
        not isinstance(values, (list, tuple))
        or not values
        or not all(isinstance(v, int) and v >= 1 for v in values)
    ):
        raise ConfigError(f"{name} must be a non-empty list of ints >= 1")
    return tuple(values)


@dataclass(frozen=True)
class CampaignConfig:
    """Validated campaign description.

    kind: verdict (exact optimum vs best trivial), window (nu <= s and
    non-trivial), k2 (graph subgraph size envelope), audit (sampled
    size conditions).  p may be the string "auto": the window test
    point for window campaigns, the primary sampling threshold
    (clamped to 1) otherwise.
    """

    kind: str
    n: tuple
    k: tuple
    s: tuple
    trials: int
    seed: int
    out: str
    t: tuple | None = None
    eps: tuple | None = None
    p: tuple | str = "auto"
    threads: int | None = None
    floor: float | None = None
    strict: bool = False
    budget: int = 100

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "n", _check_pos_ints("n", self.n))
        object.__setattr__(self, "k", _check_pos_ints("k", self.k))
        object.__setattr__(self, "s", _check_pos_ints("s", self.s))
        if self.kind == "k2" and any(k != 2 for k in self.k):
            raise ConfigError("k2 campaigns require k = [2]")
        if self.kind == "k2" and not self.eps:
            raise ConfigError("k2 campaigns require eps")
        if self.kind == "audit" and not self.t:
            raise ConfigError("audit campaigns require t")
        if self.t is not None:
            object.__setattr__(self, "t", _check_pos_ints("t", self.t))
        if self.eps is not None:
            eps = self.eps
            if (
                not isinstance(eps, (list, tuple))
                or not eps
                or not all(0 < e < 1 for e in eps)
            ):
                raise ConfigError("eps must be a non-empty list in (0, 1)")
            object.__setattr__(self, "eps", tuple(float(e) for e in eps))
        if self.p != "auto":
            ps = self.p
            if (
                not isinstance(ps, (list, tuple))
                or not ps
                or not all(
                    isinstance(v, (int, float)) and 0 <= v <= 1 for v in ps
                )
            ):
                raise ConfigError("p must be \"auto\" or a list in [0, 1]")
            object.__setattr__(self, "p", tuple(float(v) for v in ps))
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(
                f"trials must be an int >= 1, got {self.trials!r}"
            )
        if self.threads is not None and (
            not _is_int(self.threads) or self.threads < 1
        ):
            raise ConfigError(
                f"threads must be null or an int >= 1, got {self.threads!r}"
            )
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an int, got {self.seed!r}")
        if self.floor is not None and not 0 <= self.floor <= 1:
            raise ConfigError(f"floor must be in [0, 1], got {self.floor}")
        if not _is_int(self.budget) or self.budget < 1:
            raise ConfigError(
                f"budget must be an int >= 1, got {self.budget!r}"
            )
        if not self.out:
            raise ConfigError("out path stem is required")

    @classmethod
    def from_dict(cls, blob):
        if not isinstance(blob, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "kind",
            "n",
            "k",
            "s",
            "t",
            "eps",
            "p",
            "trials",
            "seed",
            "out",
            "threads",
            "floor",
            "strict",
            "budget",
        }
        extra = set(blob) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        missing = {"kind", "n", "k", "s", "trials", "seed", "out"} - set(blob)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        try:
            return cls(**blob)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _auto_p(kind, n, k, s):
    rep = regime_report(n, k, s)
    if kind == "window":
        if not rep.window_nonempty:
            raise ConfigError(
                f"auto p: sampling window empty at n={n}, k={k}, s={s}"
            )
        return rep.window_test_point
    return min(1.0, rep.primary_p_min)


class Envelope(NamedTuple):
    """The k=2 window (1 - eps) p f(n, s) <= X <= (1 + eps) p f(n, s) for
    X, the size of the largest nu <= s subgraph of G(n, p)."""

    center: float
    lo: float
    hi: float

    def holds(self, x_size):
        return self.lo <= x_size <= self.hi


def k2_envelope(n, s, p, eps):
    center = p * f_bound(n, s)
    return Envelope(center, (1 - eps) * center, (1 + eps) * center)


def k2_sweep(n, s, p, seed, trials):
    """Yield (trial, edge count, X) for G(n, p) drawn at trial indices
    0..trials-1 of `seed`."""
    for trial in range(trials):
        spec = SampleSpec(n=n, k=2, p=p, seed=seed, trial_index=trial)
        g = sample_family(spec)
        yield trial, len(g), max_nu_subgraph(g, s).size


def build_cells(cfg):
    """Expand the grid in deterministic (n, k, s, t, eps, p) order."""
    t_axis = cfg.t if cfg.t else (None,)
    e_axis = cfg.eps if cfg.eps else (None,)
    p_axis = cfg.p if cfg.p != "auto" else ("auto",)
    cells = []
    for n, k, s, t, eps, p in itertools.product(
        cfg.n, cfg.k, cfg.s, t_axis, e_axis, p_axis
    ):
        if k > n:
            raise ConfigError(f"cell has k={k} > n={n}")
        p_val = _auto_p(cfg.kind, n, k, s) if p == "auto" else p
        cells.append(Cell(len(cells), n, k, s, t, eps, p_val))
    return cells


def _evaluate(kind, cell, fam, cfg, audit_seed):
    if kind == "verdict":
        v = extremal_verdict(fam, cell.s)
        return v.conclusion_holds, float(v.opt_size), v.to_dict()
    if kind == "window":
        nu = matching_number(fam)[0]
        trivial = is_trivial(fam)
        ok = nu <= cell.s and not trivial
        return ok, float(nu), {"nu": nu, "trivial": trivial}
    if kind == "k2":
        x_size = max_nu_subgraph(fam, cell.s).size
        env = k2_envelope(cell.n, cell.s, cell.p, cell.eps)
        return env.holds(x_size), float(x_size), {
            "x_size": x_size, "lo": env.lo, "hi": env.hi,
        }
    rec = lemma_audit(fam, cell.s, cell.t, cell.p, cfg.budget, audit_seed)
    return rec.ok, float(len(rec.violations)), {
        "checked": rec.checked,
        "violations": [dict(v) for v in rec.violations],
    }


def _run_trial(cfg, cell, trial):
    spec = SampleSpec(
        n=cell.n,
        k=cell.k,
        p=cell.p,
        seed=cfg.seed,
        trial_index=(cell.index << 32) | trial,
    )
    start = time.perf_counter()
    try:
        fam = sample_family(spec)
        audit_seed = cfg.seed * 1_000_003 + spec.trial_index
        ok, value, payload = _evaluate(cfg.kind, cell, fam, cfg, audit_seed)
        error = None
        edges = len(fam)
    except MatchlabError as exc:
        if cfg.strict:
            raise
        ok, value, payload, edges = False, None, {}, 0
        error = f"{type(exc).__name__}: {exc}"
    ms = int((time.perf_counter() - start) * 1000)
    return TrialReport(
        kind=cfg.kind,
        cell_index=cell.index,
        trial_index=trial,
        spec=spec,
        host_edge_count=edges,
        success=ok,
        value=value,
        payload=payload,
        error=error,
        wall_time_ms=ms,
    )


_SUMMARY_FIELDS = (
    "cell_index",
    "n",
    "k",
    "s",
    "t",
    "eps",
    "p",
    "trials",
    "successes",
    "fraction",
    "errors",
    "mean_edges",
    "mean_value",
    "floor_ok",
    "mean_ms",
)


def run_campaign(cfg):
    """Run every cell x trial, write <out>.jsonl and <out>.csv, and
    return the summary. summary["ok"] is False iff some cell's success
    fraction fell below the configured floor."""
    cells = build_cells(cfg)
    tasks = [(cell, t) for cell in cells for t in range(cfg.trials)]
    workers = min(cfg.threads or 1, len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(
                pool.map(lambda pair: _run_trial(cfg, *pair), tasks)
            )
    else:
        reports = [_run_trial(cfg, cell, t) for cell, t in tasks]

    out_dir = os.path.dirname(cfg.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    jsonl_path, csv_path = cfg.out + ".jsonl", cfg.out + ".csv"
    with open(jsonl_path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")

    rows = []
    for cell in cells:
        batch = [r for r in reports if r.cell_index == cell.index]
        succ = sum(r.success for r in batch)
        fraction = succ / len(batch)
        values = [r.value for r in batch if r.value is not None]
        rows.append(
            {
                "cell_index": cell.index,
                "n": cell.n,
                "k": cell.k,
                "s": cell.s,
                "t": cell.t,
                "eps": cell.eps,
                "p": cell.p,
                "trials": len(batch),
                "successes": succ,
                "fraction": fraction,
                "errors": sum(r.error is not None for r in batch),
                "mean_edges": sum(r.host_edge_count for r in batch)
                / len(batch),
                "mean_value": sum(values) / len(values) if values else None,
                "floor_ok": cfg.floor is None or fraction >= cfg.floor,
                "mean_ms": sum(r.wall_time_ms for r in batch) / len(batch),
            }
        )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)

    return {
        "cells": rows,
        "ok": all(row["floor_ok"] for row in rows),
        "jsonl": jsonl_path,
        "csv": csv_path,
    }
