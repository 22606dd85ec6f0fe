"""Score filtering, class-wise non-maximum suppression, and grid tuning.

The tuner scores every point of a (score threshold, IoU threshold) grid
by the detections that survive it, either by mean image-level correction
cost (minimized) or by dataset mAP (maximized). Only higher-scored boxes
suppress, so NMS at ``(s, t)`` keeps exactly the ``score >= s`` prefix of
what NMS at ``(s0, t)`` keeps for any ``s0 <= s``. The tuner therefore
needs one pass per IoU threshold, at the lowest score threshold of that
column; each grid point takes a prefix of that pass. Each pass is in
rank order, so one call per pass of the count that the mAP floor scorer
also uses (:func:`~oceval.map_metric._floor_counts`) gives the length of
that prefix at every score threshold, for every image at once, and so
the survivor count of the best point as well.

One kernel computes every pass of every image in a single call, in the
calling process: :func:`tune` calls it once for the whole grid, before
either objective, and :func:`nms` with one image and one point. It
ranks each image once, computes the IoU of each pair of same-label rows
once, with the pair kernel that greedy mAP matching also uses, and
suppresses in lockstep over all groups and passes. Then:

- for the mAP objective, consecutive passes share one match table
  while their rows fit in a fixed budget, each (pass, image) an image of
  its own: the labels are coded and the greedy matching runs once per
  table, once for the whole grid on a small dataset, while a large one
  gets a table per pass and the memory of one. Matching runs in score
  order and pooling ranks each category by score, so the detections of
  a pass that survive a score threshold are a prefix of each category's
  pooled list: each pass pools its images once, the same count cuts
  every category's list at every score threshold of it, and one call of
  the AP kernel scores them all
  (:func:`~oceval.map_metric._floor_maps`);
- for the oc-cost objective, each process lists each grid point's
  prefix of each of its images' passes as the pricing kernel of
  :mod:`oceval.occost` takes them, block by block; the kernel solves
  each distinct set of survivors once however many grid points share
  it.
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
from .errors import ConfigError, ValidationError, _check_real
from .map_metric import (
    MapParams,
    _floor_counts,
    _floor_maps,
    _lockstep_steps,
    _pair_ious,
    _rank_groups,
    _ranges,
    build_match_table,
)
from .occost import _price, check_jobs, map_images

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

# the most detection and ground-truth rows one match table of the map
# objective holds, unless one NMS pass alone has more
_TABLE_ROWS = 1 << 16


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
        _check_real("score_threshold", self.score_threshold, 0, 1)
        _check_real("iou_threshold", self.iou_threshold, 0, 1)


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
    kept = _nms_passes([detection_arrays(dets)], [params])[0][0]
    if isinstance(dets, DetectionArrays):
        return dets.take(kept)
    return [dets[i] for i in kept.tolist()]


def _nms_passes(
    images: Sequence[DetectionArrays], points: Sequence[NmsParams]
) -> list[tuple[np.ndarray, ...]]:
    """What NMS at each of ``points`` keeps of each image: element [i][j]
    holds the rows of image i kept at point j, in rank order.

    Each image is ranked once, its rows scoring at least the lowest floor
    grouped by label, and the IoU of every pair of rows of a group is
    computed once (:func:`~oceval.map_metric._pair_ious` on each group's
    upper triangle), keeping the pairs above the lowest IoU threshold. At
    each point the rows below its score threshold start out suppressed;
    they rank below every other row of their group, so they suppress
    nothing that counts. Then step k lets the k-th row with pairs of every
    group, if still live, suppress the rows below it that it overlaps by
    more than the point's IoU threshold: groups share no row, so one step
    serves them all, at every point at once.
    """
    floors = np.array([p.score_threshold for p in points])[:, None]
    thresholds = np.array([p.iou_threshold for p in points])[:, None]
    sizes = [len(d) for d in images]
    image = np.repeat(np.arange(len(images)), sizes)
    scores = np.concatenate([np.zeros(0), *(d.scores for d in images)])
    rows = np.flatnonzero(scores >= floors.min())
    labels = np.concatenate([np.zeros(0, dtype=np.int64), *(d.labels for d in images)])
    categories, codes = np.unique(labels[rows], return_inverse=True)
    ranked, by_key, key = _rank_groups(image[rows], scores[rows], codes, max(len(categories), 1))
    ranked = rows[ranked]
    grouped = ranked[by_key]
    boxes = np.take(np.concatenate([np.zeros((0, 4)), *(d.boxes for d in images)]), grouped, axis=0)
    # row i against the rows after it in its group
    group_end = np.searchsorted(key, key, side="right")
    pair_row, pair_col, pair_iou = _pair_ious(
        boxes, boxes, np.arange(1, len(key) + 1), group_end, thresholds.min()
    )

    suppressed = scores[grouped] < floors
    flat = suppressed.reshape(-1)
    first, stop, steps = _lockstep_steps(pair_row, key)
    for a, b in zip(steps[:-1], steps[1:]):
        span = _ranges(first[a:b], stop[a:b])
        live = ~np.take(suppressed, pair_row[span], axis=1)
        point, at = np.nonzero(live & (pair_iou[span] > thresholds))
        flat[point * len(key) + pair_col[span[at]]] = True

    # each point's kept rows in rank order, cut by image
    kept = np.empty_like(suppressed)
    kept[:, by_key] = ~suppressed
    offsets = np.cumsum(sizes) - sizes
    per_point = []
    for keep in kept:
        found = ranked[keep]
        owner = image[found]
        found -= offsets[owner]
        cuts = np.searchsorted(owner, np.arange(len(images) + 1)).tolist()
        per_point.append([found[a:b] for a, b in zip(cuts[:-1], cuts[1:])])
    return list(zip(*per_point))


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
    ``nms`` at that point on every image. NMS runs in the calling process,
    one batched call for the whole grid; ``jobs > 1`` splits only the
    oc-cost pricing of the images over one set of forked workers (the map
    objective runs in one process).
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
    passes = _nms_passes([d for _, d, _ in inputs], [NmsParams(s, t) for t, s in lowest.items()])
    # each point's pass, and how many rows of it each image keeps there
    column = np.array([list(lowest).index(p.iou_threshold) for p in candidates])
    floors = np.array([p.score_threshold for p in candidates])
    lengths = _prefix_lengths([d.scores for _, d, _ in inputs], passes, column, floors)

    if objective == "oc-cost":
        params = oc_params or OcCostParams()
        tasks = list(zip(inputs, passes, lengths.tolist()))
        per_image = map_images(_grid_costs, tasks, jobs, column.tolist(), params)
        values = [math.fsum(oc for oc, _ in costs) / len(per_image) for costs in zip(*per_image)]
        best_index = min(range(len(values)), key=lambda i: (values[i], i))
        kind = "minimize-oc-cost"
    else:
        values = _grid_maps(inputs, passes, column, floors, map_params or MapParams())
        best_index = max(range(len(values)), key=lambda i: (values[i], -i))
        kind = "maximize-map"
    return TuneResult(
        best_params=candidates[best_index],
        objective_value=values[best_index],
        grid=tuple(zip(candidates, values)),
        objective_kind=kind,
        survivor_counts=tuple(lengths[:, best_index].tolist()),
    )


def _prefix_lengths(
    scores: Sequence[np.ndarray],
    passes: Sequence[tuple[np.ndarray, ...]],
    column: np.ndarray,
    floors: np.ndarray,
) -> np.ndarray:
    """How many detections of each image NMS keeps at each point, shape
    (images, points): the rows of the point's pass ``passes[i][column[j]]``
    of image i that score at least its floor ``floors[j]``. Each pass is in
    rank order, so they are a prefix of it. Per pass, one call of the
    shared count (:func:`~oceval.map_metric._floor_counts`) counts them
    at every floor of its points, for every image at once.
    """
    lengths = np.empty((len(scores), len(floors)), dtype=np.int64)
    for c in range(len(passes[0])):
        rows = [p[c] for p in passes]
        kept = np.concatenate([np.zeros(0), *(s[r] for s, r in zip(scores, rows))])
        owner = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        points = np.flatnonzero(column == c)
        lengths[:, points] = _floor_counts(kept, owner, len(rows), floors[points])
    return lengths


def _grid_maps(
    inputs: Sequence[ImageInput],
    passes: Sequence[tuple[np.ndarray, ...]],
    column: np.ndarray,
    floors: np.ndarray,
    params: MapParams,
) -> list[float]:
    """Each point's dataset mAP. Consecutive passes share one match table
    while their detection and ground-truth rows fit in ``_TABLE_ROWS``,
    each (pass, image) an image of its own, pass-major: the labels are
    coded and the matching runs once per table, one table after another.
    Each pass then pools its range of images once and scores every floor
    of its points (:func:`~oceval.map_metric._floor_maps`).
    """
    n = len(inputs)
    gts = sum(len(g) for _, _, g in inputs)
    groups: list[list[int]] = []
    total = 0
    for c in range(len(passes[0])):
        size = gts + sum(len(rows[c]) for rows in passes)
        if not groups or total + size > _TABLE_ROWS:
            groups.append([])
            total = 0
        groups[-1].append(c)
        total += size
    values = [0.0] * len(column)
    for group in groups:
        table = build_match_table(
            [
                (image_id, d.take(rows[c]), g)
                for c in group
                for (image_id, d, g), rows in zip(inputs, passes)
            ],
            params,
        )
        for k, c in enumerate(group):
            points = np.flatnonzero(column == c)
            maps = _floor_maps(table, range(k * n, k * n + n), floors[points])
            for i, value in zip(points.tolist(), maps):
                values[i] = value
    return values


def _grid_costs(
    column: Sequence[int],
    params: OcCostParams,
    tasks: Sequence[tuple[ImageInput, tuple[np.ndarray, ...], list[int]]],
) -> list[list[tuple[float, int]]]:
    """Each image's ``(cost, k)`` at each grid point, from its NMS passes
    and the length of each point's prefix of its pass.

    It only lists each point's prefix; the pricing kernel solves each
    distinct list once. The lists are made as the kernel takes the images,
    in the process that prices them, so only those of the block being
    priced are alive at a time.
    """
    return _price(
        [params],
        (
            (item, [rows[c][:n] for c, n in zip(column, lengths)])
            for item, rows, lengths in tasks
        ),
    )
