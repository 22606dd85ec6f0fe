"""Score filtering, class-wise non-maximum suppression, and grid tuning.

The tuner scores every point of a (score threshold, IoU threshold) grid
by the detections that survive it, either by mean image-level correction
cost (minimized) or by dataset mAP (maximized). Its work grows with the
number of distinct IoU thresholds, not with the number of grid points,
because the grid nests:

- only higher-scored boxes suppress, so NMS at ``(s, t)`` keeps exactly
  the ``score >= s`` prefix of what NMS at ``(s0, t)`` keeps for any
  ``s0 <= s``; one NMS pass per image and IoU threshold, at the lowest
  score threshold of that column, serves the whole column;
- greedy mAP matching runs in score order, so one match table per IoU
  threshold, cut to each score threshold by
  :func:`~oceval.map_metric.filter_table`, serves the mAP objective;
- the correction cost of an image is computed once per distinct set of
  survivors, however many grid points share it, on the rows of one cost
  matrix built per image from all its detections.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostMatrix,
    Detection,
    DetectionArrays,
    ImageInput,
    OcCostParams,
    build_problem,
    detection_arrays,
    image_arrays,
)
from .errors import ConfigError
from .geometry import pairwise_iou
from .map_metric import MapParams, build_match_table, filter_table, map_from_table
from .occost import _plan_cost, check_jobs, map_images

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


# One NMS pass and the grid points it serves, as (grid index, score threshold).
_Pass = tuple[NmsParams, list[tuple[int, float]]]


def _passes(grid: Sequence[NmsParams]) -> list[_Pass]:
    """One pass per distinct IoU threshold of the grid, run at the lowest
    score threshold among that threshold's points."""
    columns: dict[float, list[tuple[int, float]]] = {}
    for index, point in enumerate(grid):
        columns.setdefault(point.iou_threshold, []).append((index, point.score_threshold))
    return [
        (NmsParams(min(s for _, s in points), t), points) for t, points in columns.items()
    ]


def _image_costs(
    task: tuple[ImageInput, list[_Pass], OcCostParams]
) -> tuple[list[float], list[int]]:
    """One image's correction cost and survivor count at every grid point,
    in grid order."""
    (_, dets, gts), passes, params = task
    problem = build_problem(dets, gts, params)
    size = sum(len(points) for _, points in passes)
    costs, counts = [0.0] * size, [0] * size
    by_survivors: dict[bytes, float] = {}
    for base, points in passes:
        kept = _nms_indices(dets, base)
        for index, score_threshold in points:
            # the survivors' problem is their rows of the image's, in NMS order
            rows = kept[dets.scores[kept] >= score_threshold]
            key = rows.tobytes()
            if key not in by_survivors:
                subset = CostMatrix(problem.entries[rows], problem.dummy_cost)
                by_survivors[key] = _plan_cost(subset)[0]
            costs[index], counts[index] = by_survivors[key], len(rows)
    return costs, counts


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
    ``nms`` at that point on every image; ``jobs > 1`` fans the images of
    the oc-cost objective out over one process pool for the whole grid (the
    map objective runs in one process).
    """
    if objective not in ("oc-cost", "map"):
        raise ConfigError(f"objective must be 'oc-cost' or 'map', got {objective!r}")
    check_jobs(jobs)
    candidates = list(default_grid() if grid is None else grid)
    if not candidates:
        raise ConfigError("tuning grid is empty")
    inputs = [image_arrays(item) for item in per_image_inputs]
    passes = _passes(candidates)

    if objective == "oc-cost":
        params = oc_params or OcCostParams()
        per_image = map_images(_image_costs, [(item, passes, params) for item in inputs], jobs)
        values = [math.fsum(column) / len(per_image) for column in zip(*(c for c, _ in per_image))]
        counts = list(zip(*(n for _, n in per_image)))
    else:
        values, counts = [0.0] * len(candidates), [()] * len(candidates)
        for base, points in passes:
            kept = [(image_id, nms(dets, base), gts) for image_id, dets, gts in inputs]
            table = build_match_table(kept, map_params or MapParams())
            scores = np.concatenate([np.zeros(0), *(dets.scores for _, dets, _ in kept)])
            image = np.repeat(np.arange(len(kept)), [len(dets) for _, dets, _ in kept])
            for index, score_threshold in points:
                survivors = filter_table(table, score_threshold)
                values[index] = map_from_table(survivors, range(len(inputs))).mean_ap
                counts[index] = np.bincount(image[scores >= score_threshold], minlength=len(kept))
    scored = list(zip(candidates, values))

    if objective == "oc-cost":
        best_index = min(range(len(scored)), key=lambda i: (scored[i][1], i))
        kind = "minimize-oc-cost"
    else:
        best_index = max(range(len(scored)), key=lambda i: (scored[i][1], -i))
        kind = "maximize-map"
    best_point, best_value = scored[best_index]
    return TuneResult(
        best_params=best_point,
        objective_value=best_value,
        grid=tuple(scored),
        objective_kind=kind,
        survivor_counts=tuple(int(n) for n in counts[best_index]),
    )
