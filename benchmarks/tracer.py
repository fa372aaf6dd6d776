"""Span tracer that wraps fuzzyloc's public functions at runtime.

Nothing under src/ is edited: each target is swapped for a wrapper in every
fuzzyloc module namespace (or on its class) that binds it, and swapped back
on uninstall. A span records its name, start, end and the span that was open
when it began; spans stay in memory until the run ends. A function's self
time is its spans' duration minus the union of their children's intervals.

Counting-only targets (wrap_angle, tens of calls per tick) get a bare counter
instead of a span so that tracing does not swamp what it measures.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

#: (module, qualified name) of every traced function, grouped by layer.
SPAN_TARGETS = {
    "models": ["motion_step", "observe", "observation_jacobian",
               "motion_jacobian_state", "motion_jacobian_control"],
    "ekf": ["step", "predict", "predict_measurement", "gate", "update"],
    "anfis": ["AnfisNet.forward", "AnfisNet.train_step"],
    "adaptation": ["CovarianceAdapter.after_update", "adapt_r", "adapt_q",
                   "train_adapters", "leak_toward"],
    "simulator": ["run_once", "sense", "WaypointDriver.drive", "run_monte_carlo"],
    "metrics": ["nees", "build_report"],
    "cli": ["cmd_run"],
}
COUNT_TARGETS = {"models": ["wrap_angle"]}

#: Spans recorded when the runs happen in worker processes: the parent side
#: of the CLI only. Worker-side layers are not traced there.
PARENT_SIDE_TARGETS = {
    "simulator": ["run_monte_carlo"],
    "metrics": ["build_report"],
    "cli": ["cmd_run"],
}


def _measurements_arg(args, kwargs):
    return kwargs["measurements"] if "measurements" in kwargs else args[2]


def _count_step(counts, args, kwargs, result):
    n = len(_measurements_arg(args, kwargs))
    if n:
        counts["ekf.step.scans"] += 1
        counts["ekf.step.measurements"] += n


def _count_gate(counts, args, kwargs, result):
    if result:
        counts["ekf.gate.accepted"] += 1


def _count_after_update(counts, args, kwargs, result):
    if result[1].active:
        counts["adaptation.CovarianceAdapter.after_update.active"] += 1


#: Counters derived from a traced call's arguments or return value.
ON_RETURN = {
    "ekf.step": _count_step,
    "ekf.gate": _count_gate,
    "adaptation.CovarianceAdapter.after_update": _count_after_update,
}


def _resolve(module_name: str, qualname: str):
    """Return (owner, attribute, original) or None if the target is gone."""
    obj = importlib.import_module(f"fuzzyloc.{module_name}")
    owner = None
    for part in qualname.split("."):
        owner = obj
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return owner, qualname.split(".")[-1], obj


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counts.clear()
        self._stack[:] = [-1]

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts = self._stack, self.counts
        on_return = ON_RETURN.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS) -> None:
        for targets, make in ((span_targets, self._span_wrapper),
                              (count_targets, self._count_wrapper)):
            for module_name, qualnames in targets.items():
                for qualname in qualnames:
                    name = f"{module_name}.{qualname}"
                    found = _resolve(module_name, qualname)
                    if found is None:
                        self.missing.append(name)
                        continue
                    owner, attr, original = found
                    self._swap(owner, attr, original, make(name, original))

    def _swap(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function may be bound under its name in several
        # modules (``from .metrics import build_report``); rebind all of them.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fuzzyloc" and not mod_name.startswith("fuzzyloc."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def call_counts(self) -> dict[str, int]:
        """Spans per traced name plus every counter, zeros included."""
        out = {f"{name}.calls": 0 for name in self.names}
        for name_id in self.span_name:
            out[f"{self.names[name_id]}.calls"] += 1
        out.update(self.counts)
        return out

    def totals(self) -> dict[str, tuple[float, float]]:
        """Per traced name: (inclusive seconds, self seconds)."""
        spans = list(zip(self.span_start, self.span_end))
        return aggregate(self.names, self.span_name, self.span_parent, spans)


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def aggregate(names, span_name, span_parent, spans) -> dict[str, tuple[float, float]]:
    """Sum inclusive and self time per name; self = span minus union of children."""
    children: defaultdict[int, list] = defaultdict(list)
    for idx, parent in enumerate(span_parent):
        if parent >= 0:
            children[parent].append(spans[idx])
    inclusive = [0.0] * len(names)
    self_time = [0.0] * len(names)
    for idx, (start, end) in enumerate(spans):
        name_id = span_name[idx]
        inclusive[name_id] += end - start
        kids = children.get(idx)
        self_time[name_id] += end - start - (union_length(kids, start, end) if kids else 0.0)
    return {name: (inclusive[i], self_time[i]) for i, name in enumerate(names)}


def check_self_time_arithmetic() -> None:
    """Raise AssertionError unless self time is span minus the union of children.

    Parent [0, 10] has children [1, 3] and [2, 5] (overlapping), [8, 12]
    (running past the parent's end) and a grandchild [2.5, 4] under [2, 5].
    The children cover [1, 5] and [8, 10] of the parent: 6 s, so 4 s is self.
    """
    names = ["parent", "child", "grandchild"]
    span_name = [0, 1, 1, 1, 2]
    span_parent = [-1, 0, 0, 0, 2]
    spans = [(0.0, 10.0), (1.0, 3.0), (2.0, 5.0), (8.0, 12.0), (2.5, 4.0)]
    got = aggregate(names, span_name, span_parent, spans)
    expected = {"parent": (10.0, 4.0), "child": (9.0, 7.5), "grandchild": (1.5, 1.5)}
    if got != expected:
        raise AssertionError(f"self-time arithmetic: expected {expected}, got {got}")
