"""In-memory spans around calls into shelfpick's layers.

Modules bind names at import, so each layer is wrapped at the site that
calls it (``shelfpick.sim.plan_grasps``, not ``shelfpick.planner.plan_grasps``).
A parent stack makes self time exact: a span's self time is its duration
minus the durations of its direct children. Spans stay in memory until
``write`` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter
from time import perf_counter

import numpy as np


def _count_inf(counts: Counter, name: str, result) -> None:
    if not math.isfinite(result):
        counts[f"{name}.inf"] += 1


def _count_false(counts: Counter, name: str, result) -> None:
    if not result:
        counts[f"{name}.false"] += 1


def _count_none(counts: Counter, name: str, result) -> None:
    if result is None:
        counts[f"{name}.none"] += 1


def _count_candidates(counts: Counter, name: str, result) -> None:
    counts[f"{name}.candidates"] += len(result)


def _count_qp(counts: Counter, name: str, result) -> None:
    counts[f"{name}.iterations"] += getattr(result, "iterations", 0)
    status = getattr(getattr(result, "status", None), "value", None)
    counts[f"{name}.status.{status}"] += 1


def _count_stage(counts: Counter, name: str, result) -> None:
    if not result.success:
        counts[f"{name}.failed.{result.stage}"] += 1


# (layer name, module that calls the layer, attribute, boundary counter)
SITES = (
    ("geometry.alpha_shape", "shelfpick.geometry", "alpha_shape", None),
    ("geometry.contact_from_chord", "shelfpick.geometry", "contact_from_chord", None),
    ("wrench.grasp_quality", "shelfpick.planner", "grasp_quality", _count_inf),
    ("planner.is_reachable", "shelfpick.planner", "is_reachable", _count_false),
    ("planner.plan_grasps", "shelfpick.sim", "plan_grasps", _count_candidates),
    ("planner.rank_plans", "shelfpick.sim", "rank_plans", None),
    ("declutter.assign_roles", "shelfpick.sim", "assign_roles", None),
    ("declutter.plan_declutter", "shelfpick.sim", "plan_declutter", _count_none),
    ("qp.solve_qp", "shelfpick.declutter", "solve_qp", _count_qp),
    ("sim.observe", "shelfpick.sim", "observe", None),
    ("sim.estimate_items", "shelfpick.sim", "estimate_items", None),
    ("sim.run_nudge", "shelfpick.sim", "run_nudge", None),
    ("sim.run_grasp", "shelfpick.sim", "run_grasp", _count_stage),
    ("sim.run_pick", "shelfpick.cli", "run_pick", None),
)
LAYERS = tuple(site[0] for site in SITES)
# the untraced run times only the trials and the observations that start
# their rounds: one wrapped call per trial and one per round of ~100 ms
TRIAL_SITES = tuple(site for site in SITES if site[0] in ("sim.observe", "sim.run_pick"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def install(self, sites=SITES) -> None:
        """Wrap each site; a site the program no longer has is recorded as
        absent instead of failing."""
        for name, module_name, attr, counter in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(name, original, counter))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn, counter):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, name, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += own[i]
        return {name: tuple(entry) for name, entry in out.items()}

    def write(self, path) -> None:
        """One line per span: name, start and end in microseconds, parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_us\tend_us\tparent\n")
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                out.write(f"{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{parent}\n")
