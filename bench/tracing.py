"""Spans around the public functions of every ``oceval`` module.

Installing a Tracer replaces each public function (a name in a module's
``__all__`` that the module defines) with a timing wrapper, at the module
attribute and at every other ``oceval`` namespace that imported the same
object, so ``oceval.occost.build_problem`` is traced as
``costs.build_problem``. Each call appends one span (name, start, end,
parent) to flat in-memory arrays; nothing is written until ``save``.
Calls made in forked pool workers are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (counter name, count taken from (args, result))
COUNTERS = {
    "coco_io.load_ground_truth": ("coco_io.records", lambda args, result: sum(map(len, result.ground_truths.values()))),
    "coco_io.load_detections": ("coco_io.records", lambda args, result: sum(map(len, result.detections.values()))),
    "geometry.pairwise_giou": ("geometry.giou_cells", lambda args, result: result.size),
    "geometry.pairwise_iou": ("geometry.iou_cells", lambda args, result: result.size),
    "costs.build_problem": ("costs.pair_cells", lambda args, result: len(args[0]) * len(args[1])),
    "nms.nms": ("nms.nms_boxes_in", lambda args, result: len(args[0])),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.counts: Counter[str] = Counter()
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def install(self) -> None:
        root = importlib.import_module("oceval")
        modules = [root] + [
            importlib.import_module(f"oceval.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
            if not info.name.startswith("_")
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        counter = COUNTERS.get(span_name)
        stack, starts, ends, parents, ids = self._stack, self.start, self.end, self.parent, self.name_id
        pid = self._pid
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            ids.append(name_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
            if counter is not None:
                try:
                    self.counts[counter[0]] += int(counter[1](args, result))
                except Exception:  # a changed signature must not fail the run
                    self.broken_counters.add(counter[0])
            return result

        return wrapper

    def metrics(self, wanted: list[str]) -> tuple[dict[str, float], list[str]]:
        """Per-layer values over every recorded span.

        ``<span>_s`` sums durations, ``<span>_self_s`` sums durations minus
        the time covered by child spans, ``<span>_calls`` counts spans, and
        any other name is a counter. A metric whose span or counter was
        never installed reads 0 and is returned in the skipped list.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        duration = end - start
        covered = np.zeros_like(duration)
        inside = parent >= 0
        np.add.at(covered, parent[inside], duration[inside])
        self_time = duration - covered
        index = {name: i for i, name in enumerate(self.names)}
        counters = {name for name, _ in COUNTERS.values()}

        values: dict[str, float] = {}
        skipped: list[str] = []
        for metric in wanted:
            for suffix, kind in (("_self_s", "self"), ("_calls", "calls"), ("_s", "total")):
                if metric.endswith(suffix):
                    span, chosen = metric[: -len(suffix)], kind
                    break
            else:
                span, chosen = metric, "counter"
            if chosen == "counter":
                if metric not in counters or metric in self.broken_counters:
                    skipped.append(metric)
                values[metric] = float(self.counts[metric])
                continue
            if span not in index:
                skipped.append(metric)
                values[metric] = 0.0
                continue
            mask = ids == index[span]
            if chosen == "calls":
                values[metric] = float(mask.sum())
            elif chosen == "self":
                values[metric] = float(self_time[mask].sum())
            else:
                values[metric] = float(duration[mask].sum())
        return values, skipped

    def save(self, path: str) -> None:
        """Write every span to one ``.npz`` file: start/end (perf_counter
        seconds), parent (row index, -1 for a root) and name (index into
        ``names``)."""
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name_id, dtype=np.int64),
        )
