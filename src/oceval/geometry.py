"""Axis-aligned bounding boxes and the IoU / generalized IoU overlap measures.

All boxes live in corner form (x1, y1, x2, y2) with strictly positive
width and height, which keeps every denominator below nonzero and the
overlap measures exact without epsilon fudging.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import _is_real

__all__ = [
    "BoundingBox",
    "boxes_to_array",
]

# Box pairs per block of a batched IoU or GIoU computation: the pair
# kernel of NMS and mAP matching and the cells of the OC-cost pricing
# kernel are both computed a block of at most this many at a time.
_BLOCK_PAIRS = 1 << 12


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: (x1, y1) is the top-left corner, (x2, y2) the bottom-right.

    Coordinates are real-valued pixels. Zero- or negative-area boxes are
    rejected at construction; the correction costs downstream are undefined
    for degenerate geometry and silently patching them would hide bad data.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value)):
                raise ValueError(f"box coordinate {name} must be a finite real number, got {value!r}")
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(
                "box must have strictly positive width and height, got "
                f"({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def boxes_to_array(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """Stack boxes into an (N, 4) float64 array in corner form."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def _iou(a: np.ndarray, b: np.ndarray, generalized: bool = False) -> np.ndarray:
    """IoU, or with ``generalized`` GIoU, of corner-form boxes ``a[..., :4]``
    and ``b[..., :4]``, broadcast against each other: row i against row i
    for two (P, 4) arrays.

    Element order of operations matches the scalar ``iou`` and ``giou``
    test oracles (tests/oracles.py) exactly, so every value is bitwise
    equal to the scalar result.
    """
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(0.0, iw) * np.maximum(0.0, ih)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    if not generalized:
        return inter / union
    hull_w = np.maximum(a[..., 2], b[..., 2]) - np.minimum(a[..., 0], b[..., 0])
    hull_h = np.maximum(a[..., 3], b[..., 3]) - np.minimum(a[..., 1], b[..., 1])
    hull = hull_w * hull_h
    return inter / union - (hull - union) / hull
