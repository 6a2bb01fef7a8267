"""The benchmark's workloads: seeded campaign configs run as rounds.

A workload is one campaign config. A run executes it as a sequence of
rounds; round r is one `run_campaign` call whose master seed is derived from
the benchmark seed and r, so the benchmark seed fixes every input of every
round. Every config pins `threads`, so `MATCHLAB_THREADS` cannot change the
load. A workload may set up from a variant of its config (`setup`): its
processes build the cells of that variant before the first round, so the
variant's set-up cost counts in setup_s. Why each workload was chosen is
its `why` in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    config: dict
    trace_rounds: int
    setup: dict = field(default_factory=dict)

    @property
    def kind(self):
        return self.config["kind"]

    @property
    def workers(self):
        return self.config["threads"]


WORKLOADS = {
    "verdict-n11": Workload(
        config=dict(kind="verdict", n=[11], k=[3], s=[2], p=[0.2],
                    trials=48, threads=1),
        trace_rounds=5,
    ),
    "window-2w": Workload(
        config=dict(kind="window", n=[30], k=[10], s=[6], p=[5e-5],
                    trials=12, threads=2),
        trace_rounds=3,
        # set-up derives the cell's auto p (8.7e-5) by bounds.regime_report
        setup=dict(p="auto"),
    ),
    "k2-n1000": Workload(
        config=dict(kind="k2", n=[1000], k=[2], s=[1, 2], p=[0.6],
                    eps=[0.3], trials=2, threads=1),
        trace_rounds=4,
    ),
    "audit-n60": Workload(
        config=dict(kind="audit", n=[60], k=[3], s=[2], t=[2], p=[0.3],
                    budget=100, trials=6, threads=1),
        trace_rounds=5,
    ),
}


def round_blob(name, seed, r, out, threads=None):
    """Campaign config (a JSON-able dict) for round r of workload `name`,
    with master seed seed * 1_000_000 + r."""
    blob = dict(WORKLOADS[name].config, seed=seed * 1_000_000 + r, out=out)
    if threads is not None:
        blob["threads"] = threads
    return blob


def setup_blob(name, seed, out):
    """The config whose cells a process builds during set-up."""
    return dict(round_blob(name, seed, 0, out), **WORKLOADS[name].setup)
