"""Score filtering, class-wise non-maximum suppression, and grid tuning.

The tuner scores every point of a (score threshold, IoU threshold) grid
by the detections that survive it, either by mean image-level correction
cost (minimized) or by dataset mAP (maximized). Only higher-scored boxes
suppress, so NMS at ``(s, t)`` keeps exactly the ``score >= s`` prefix of
what NMS at ``(s0, t)`` keeps for any ``s0 <= s``. NMS therefore runs once
per image and IoU threshold, at the lowest score threshold of that
column, for both objectives; each grid point takes a prefix of that
pass, and so does the survivor count of the best point. Then:

- greedy mAP matching runs in score order, so one match table per IoU
  threshold, cut to each score threshold by
  :func:`~oceval.map_metric.filter_table`, serves the mAP objective;
- one task per image runs its NMS passes and prices its correction
  cost in :mod:`oceval.occost`, once per distinct set of survivors
  however many grid points share it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .costs import (
    Detection,
    DetectionArrays,
    ImageInput,
    OcCostParams,
    detection_arrays,
    image_arrays,
)
from .errors import ConfigError, ValidationError
from .geometry import pairwise_iou
from .map_metric import MapParams, build_match_table, filter_table, map_from_table
from .occost import _subset_costs, check_jobs, map_images

__all__ = [
    "DEFAULT_SCORE_THRESHOLDS",
    "DEFAULT_IOU_THRESHOLDS",
    "NmsParams",
    "TuneResult",
    "nms",
    "default_grid",
    "tune",
]

# 0.05..0.90 step 0.05 and 0.3..0.9 step 0.1
DEFAULT_SCORE_THRESHOLDS: tuple[float, ...] = tuple(i / 100.0 for i in range(5, 91, 5))
DEFAULT_IOU_THRESHOLDS: tuple[float, ...] = tuple(i / 10.0 for i in range(3, 10))


@dataclass(frozen=True)
class NmsParams:
    """Post-processing thresholds.

    Detections scoring below ``score_threshold`` are dropped; within each
    category, a detection overlapping an already-kept higher-scoring one
    with IoU strictly above ``iou_threshold`` is suppressed.
    """

    score_threshold: float = 0.0
    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ConfigError(f"score_threshold must be in [0, 1], got {self.score_threshold}")
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ConfigError(f"iou_threshold must be in [0, 1], got {self.iou_threshold}")


@dataclass(frozen=True)
class TuneResult:
    """Outcome of a grid sweep.

    ``grid`` maps each candidate to its objective value; ``objective_kind``
    is "minimize-oc-cost" or "maximize-map". Ties keep the earliest grid
    point. ``survivor_counts`` holds each image's detection count after
    NMS at the best point, in input order.
    """

    best_params: NmsParams
    objective_value: float
    grid: tuple[tuple[NmsParams, float], ...]
    objective_kind: str
    survivor_counts: tuple[int, ...]


def nms(dets: Sequence[Detection], params: NmsParams) -> Sequence[Detection]:
    """Filter and suppress one image's detections.

    Output is sorted by descending score (ties keep input order) and the
    operation is idempotent: feeding the result back returns it unchanged.
    A :class:`~oceval.costs.DetectionArrays` input gives its kept rows as
    one; any other sequence gives a list of its kept items.
    """
    kept = _nms_indices(detection_arrays(dets), params)
    if isinstance(dets, DetectionArrays):
        return dets.take(kept)
    return [dets[i] for i in kept.tolist()]


def _nms_indices(dets: DetectionArrays, params: NmsParams) -> np.ndarray:
    """Indices into ``dets`` of what :func:`nms` keeps, in its order."""
    candidates = np.flatnonzero(dets.scores >= params.score_threshold)
    order = candidates[np.argsort(-dets.scores[candidates], kind="stable")]
    labels = dets.labels[order]
    boxes = dets.boxes[order]
    # overlap[a, b]: box a would suppress box b, were a kept and ranked above b
    overlap = (pairwise_iou(boxes, boxes) > params.iou_threshold) & (
        labels[:, None] == labels[None, :]
    )
    suppressed = np.zeros(len(order), dtype=bool)
    for a in range(len(order)):
        if not suppressed[a]:
            suppressed[a + 1 :] |= overlap[a, a + 1 :]
    return order[~suppressed]


def default_grid(
    score_thresholds: Sequence[float] | None = None,
    iou_thresholds: Sequence[float] | None = None,
) -> list[NmsParams]:
    """Score thresholds crossed with IoU thresholds, in row-major order
    (score outer, IoU inner). A missing axis takes its default,
    ``DEFAULT_SCORE_THRESHOLDS`` or ``DEFAULT_IOU_THRESHOLDS``."""
    scores = DEFAULT_SCORE_THRESHOLDS if score_thresholds is None else score_thresholds
    ious = DEFAULT_IOU_THRESHOLDS if iou_thresholds is None else iou_thresholds
    return [NmsParams(s, t) for s in scores for t in ious]


def tune(
    per_image_inputs: Sequence[ImageInput],
    objective: str = "oc-cost",
    grid: Sequence[NmsParams] | None = None,
    oc_params: OcCostParams | None = None,
    map_params: MapParams | None = None,
    jobs: int = 1,
) -> TuneResult:
    """Exhaustively score every grid point and keep the best.

    ``objective`` is "oc-cost" (lower is better) or "map" (higher is
    better). Exact ties keep the first point in grid order, so results are
    reproducible for a fixed grid. Each point's value equals evaluating
    ``nms`` at that point on every image. ``jobs > 1`` splits the images of
    the oc-cost objective, NMS passes and correction costs alike, over one
    set of forked workers for the whole grid (the map objective runs in one
    process).
    """
    if objective not in ("oc-cost", "map"):
        raise ConfigError(f"objective must be 'oc-cost' or 'map', got {objective!r}")
    check_jobs(jobs)
    candidates = list(default_grid() if grid is None else grid)
    if not candidates:
        raise ConfigError("tuning grid is empty")
    inputs = [image_arrays(item) for item in per_image_inputs]
    if not inputs:
        raise ValidationError("cannot evaluate an empty image sequence")

    lowest: dict[float, float] = {}
    for point in candidates:
        t = point.iou_threshold
        lowest[t] = min(lowest.get(t, 1.0), point.score_threshold)
    pass_points = [NmsParams(s, t) for t, s in lowest.items()]

    if objective == "oc-cost":
        params = oc_params or OcCostParams()
        per_image = map_images(_grid_costs, inputs, jobs, candidates, pass_points, params)
        values = [math.fsum(column) / len(per_image) for column in zip(*(c for c, _ in per_image))]
        best_index = min(range(len(values)), key=lambda i: (values[i], i))
        survivor_counts = tuple(counts[best_index] for _, counts in per_image)
        kind = "minimize-oc-cost"
    else:
        passes = [_passes(dets, pass_points) for _, dets, _ in inputs]
        values = [0.0] * len(candidates)
        for t in lowest:
            kept = [(image_id, d.take(p[t]), g) for (image_id, d, g), p in zip(inputs, passes)]
            table = build_match_table(kept, map_params or MapParams())
            for i, point in enumerate(candidates):
                if point.iou_threshold == t:
                    survivors = filter_table(table, point.score_threshold)
                    values[i] = map_from_table(survivors, range(len(inputs))).mean_ap
        best_index = max(range(len(values)), key=lambda i: (values[i], -i))
        survivor_counts = tuple(
            len(_kept_rows(p, d, candidates[best_index])) for (_, d, _), p in zip(inputs, passes)
        )
        kind = "maximize-map"
    best_point = candidates[best_index]
    return TuneResult(
        best_params=best_point,
        objective_value=values[best_index],
        grid=tuple(zip(candidates, values)),
        objective_kind=kind,
        survivor_counts=survivor_counts,
    )


def _passes(dets: DetectionArrays, pass_points: Sequence[NmsParams]) -> dict[float, np.ndarray]:
    """What NMS keeps of one image at each of ``pass_points`` (one per IoU
    threshold of the grid, at its lowest score threshold there), by IoU
    threshold."""
    return {point.iou_threshold: _nms_indices(dets, point) for point in pass_points}


def _kept_rows(
    passes: dict[float, np.ndarray], dets: DetectionArrays, point: NmsParams
) -> np.ndarray:
    """What NMS at ``point`` keeps: the ``score >= s`` prefix of its pass."""
    rows = passes[point.iou_threshold]
    return rows[dets.scores[rows] >= point.score_threshold]


def _grid_costs(
    candidates: Sequence[NmsParams],
    pass_points: Sequence[NmsParams],
    params: OcCostParams,
    item: ImageInput,
) -> tuple[list[float], list[int]]:
    """One image's correction cost and survivor count at each grid point.

    Each distinct survivor set is one array, so it is solved once however
    many grid points share it.
    """
    _, dets, _ = item
    passes = _passes(dets, pass_points)
    distinct: dict[bytes, np.ndarray] = {}
    subsets = [_kept_rows(passes, dets, point) for point in candidates]
    subsets = [distinct.setdefault(rows.tobytes(), rows) for rows in subsets]
    return _subset_costs([params], (item, subsets)), [len(rows) for rows in subsets]
