import math

import numpy as np
import pytest

import oceval.occost
from oceval import BoundingBox, Detection, GroundTruthInstance
from oceval.transport import _checked_gains, _plans


def random_box(rng, size=100.0, min_side=1.0):
    x1 = rng.uniform(0.0, size)
    y1 = rng.uniform(0.0, size)
    w = rng.uniform(min_side, size / 2)
    h = rng.uniform(min_side, size / 2)
    return BoundingBox(x1, y1, x1 + w, y1 + h)


def transformed(box, factor=1.0, dx=0.0, dy=0.0):
    """``box`` scaled by ``factor`` about the origin, then moved by (dx, dy)."""
    x1, y1, x2, y2 = box.as_tuple()
    return BoundingBox(x1 * factor + dx, y1 * factor + dy, x2 * factor + dx, y2 * factor + dy)


def random_scene(rng, max_m=4, max_n=4, categories=3, size=100.0):
    m = int(rng.integers(0, max_m + 1))
    n = int(rng.integers(0, max_n + 1))
    dets = [
        Detection(random_box(rng, size), int(rng.integers(1, categories + 1)), float(rng.uniform()))
        for _ in range(m)
    ]
    gts = [
        GroundTruthInstance(random_box(rng, size), int(rng.integers(1, categories + 1)))
        for _ in range(n)
    ]
    return dets, gts


def kernel_step(entries, beta):
    """One problem through the pricing kernel's own steps: the checked
    gains of the m x n pair costs ``entries`` and dummy cost ``beta``, its
    plan from ``transport._plans`` as a block of one problem, and its cost
    by ``occost._problem_cost``. Returns (cost, rows, cols), the matched
    pairs ordered by row."""
    m, n = entries.shape
    cells, _ = _plans(_checked_gains(entries, beta).T.ravel(), np.array([m]), np.array([n]))
    cols, rows = np.divmod(cells, max(m, 1))
    return oceval.occost._problem_cost(entries[rows, cols].tolist(), beta, m, n), rows, cols


def plan_objective(entries, beta, rows, cols):
    """The transport objective of the plan that matches (rows, cols): the
    exact sum of its matched costs and of m + n - k units at ``beta``,
    the dummy-to-dummy corner's k included."""
    m, n = entries.shape
    return math.fsum(entries[rows, cols].tolist() + [beta] * (m + n - len(rows)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def count_pools(monkeypatch):
    """Counts the fan-outs ``oceval.occost.map_images`` makes, one fork
    context each; call it for the number made so far."""
    started = []
    get_context = oceval.occost.get_context

    def counting(method):
        started.append(method)
        return get_context(method)

    monkeypatch.setattr(oceval.occost, "get_context", counting)
    return lambda: len(started)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)`` wraps the function ``name`` of
    ``oceval.occost`` and returns the list that each call appends its
    arguments to."""

    def count(name):
        calls = []
        function = getattr(oceval.occost, name)

        def counting(*args):
            calls.append(args)
            return function(*args)

        monkeypatch.setattr(oceval.occost, name, counting)
        return calls

    return count
