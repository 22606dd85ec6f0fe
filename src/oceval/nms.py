"""Score filtering, class-wise non-maximum suppression, and grid tuning.

The tuner scores every point of a (score threshold, IoU threshold) grid
by the detections that survive it, either by mean image-level correction
cost (minimized) or by dataset mAP (maximized). Only higher-scored boxes
suppress, so NMS at ``(s, t)`` keeps exactly the ``score >= s`` prefix of
what NMS at ``(s0, t)`` keeps for any ``s0 <= s``. NMS therefore runs once
per image and IoU threshold, at the lowest score threshold of that
column, in the calling process and for both objectives; each grid point
takes a prefix of that pass, and so does the survivor count of the best
point. Then:

- greedy mAP matching runs in score order, so one match table per IoU
  threshold, cut to each score threshold by
  :func:`~oceval.map_metric.filter_table`, serves the mAP objective;
- the correction cost of an image is priced in :mod:`oceval.occost`,
  once per distinct set of survivors however many grid points share it.
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
    ``nms`` at that point on every image. NMS runs in the calling process;
    ``jobs > 1`` fans the correction costs of the oc-cost objective out over
    one process pool for the whole grid (the map objective runs in one
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
    # passes[t][i]: what NMS keeps of image i at IoU threshold t and the
    # lowest score threshold of the grid at t
    passes = {
        t: [_nms_indices(dets, NmsParams(s, t)) for _, dets, _ in inputs] for t, s in lowest.items()
    }

    def kept_rows(point: NmsParams, image: int) -> np.ndarray:
        rows = passes[point.iou_threshold][image]
        return rows[inputs[image][1].scores[rows] >= point.score_threshold]

    if objective == "oc-cost":
        tasks = []
        for i, item in enumerate(inputs):
            # one array per distinct survivor set: solved once, pickled once
            distinct: dict[bytes, np.ndarray] = {}
            subsets = [kept_rows(point, i) for point in candidates]
            tasks.append((item, [distinct.setdefault(rows.tobytes(), rows) for rows in subsets]))
        per_image = map_images(_subset_costs, tasks, jobs, [oc_params or OcCostParams()])
        values = [math.fsum(column) / len(per_image) for column in zip(*per_image)]
        best_index = min(range(len(values)), key=lambda i: (values[i], i))
        kind = "minimize-oc-cost"
    else:
        values = [0.0] * len(candidates)
        for t, column in passes.items():
            kept = [(image_id, d.take(rows), g) for (image_id, d, g), rows in zip(inputs, column)]
            table = build_match_table(kept, map_params or MapParams())
            for i, point in enumerate(candidates):
                if point.iou_threshold == t:
                    survivors = filter_table(table, point.score_threshold)
                    values[i] = map_from_table(survivors, range(len(inputs))).mean_ap
        best_index = max(range(len(values)), key=lambda i: (values[i], -i))
        kind = "maximize-map"
    best_point = candidates[best_index]
    return TuneResult(
        best_params=best_point,
        objective_value=values[best_index],
        grid=tuple(zip(candidates, values)),
        objective_kind=kind,
        survivor_counts=tuple(len(kept_rows(best_point, i)) for i in range(len(inputs))),
    )
