import numpy as np
import pytest

import oceval.occost
from oceval import BoundingBox, Detection, GroundTruthInstance


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
