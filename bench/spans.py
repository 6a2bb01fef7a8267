"""Spans around calls into matchlab's public functions, recorded from outside.

`Tracer.install()` replaces each function in TRACED with a timing wrapper in
every loaded matchlab module that holds a reference to it, so calls between
modules (oracle -> families.matching_number, families.is_trivial ->
matching_number) are recorded too. Spans are (name, start, end, parent,
trial) tuples kept in memory; a trial opens at each top-level
`sample_family` call. The tracer is single-threaded: install it only around
serial work.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = (
    ("sampling", "sample_family"),
    ("sampling", "max_trivial"),
    ("families", "matching_number"),
    ("families", "is_trivial"),
    ("families", "covering_number"),
    ("oracle", "extremal_verdict"),
    ("oracle", "max_family_nu_le"),
    ("graphs", "max_nu_subgraph"),
    ("campaign", "lemma_audit"),
)

TRIAL_START = "sampling.sample_family"


class Tracer:
    def __init__(self):
        self.spans = []
        self.edges = 0
        self.round = None
        self._trial = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None and name == TRIAL_START:
                self._trial = (self.round, args[0].trial_index)
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._trial)
            if name == TRIAL_START:
                self.edges += len(result)
            return result

        return traced

    def install(self):
        mods = {
            key: mod
            for key, mod in list(sys.modules.items())
            if key.startswith("matchlab.") and mod is not None
        }
        for mod_name, fn_name in TRACED:
            orig = getattr(mods["matchlab." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def summary(self):
        """Per-name calls and self seconds, and per-trial seconds.

        Self time is a span's duration minus its direct children's; a
        trial's time is the sum of its top-level spans.
        """
        calls = defaultdict(int)
        self_s = defaultdict(float)
        trials = defaultdict(float)
        for name, start, end, parent, trial in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent is None:
                trials[trial] += dur
            else:
                pspan = self.spans[parent]
                self_s[pspan[0]] -= dur
        return dict(calls), dict(self_s), trials
