"""Classical mean average precision over pooled, ranked detections.

Detections are pooled per category across the whole dataset, ranked by
confidence, and greedily matched within each image against that
category's ground truths at a fixed IoU threshold. Average precision
samples the precision envelope at equally spaced recall points; the
defaults follow the COCO convention (101 recall points, IoU thresholds
0.50 to 0.95 in steps of 0.05). A single-threshold 11-point VOC mode is
available through the parameters.

A single-image variant treats one image as the whole dataset, scoring
the categories present in that image's detections or ground truths.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .costs import Detection, GroundTruthInstance, ImageInput
from .errors import ConfigError
from .geometry import boxes_to_array, pairwise_iou

__all__ = [
    "COCO_IOU_THRESHOLDS",
    "MapParams",
    "MapReport",
    "match_greedy",
    "average_precision",
    "dataset_map",
    "single_image_map",
    "MatchTable",
    "build_match_table",
    "map_from_table",
    "filter_table",
    "image_maps",
]

COCO_IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class MapParams:
    """Evaluation-protocol knobs.

    ``iou_thresholds`` must be sorted ascending, unique, inside (0, 1].
    ``max_detections`` optionally caps detections per image by score rank
    before matching (off by default). Detections are always ranked by
    descending score.
    """

    iou_thresholds: tuple[float, ...] = COCO_IOU_THRESHOLDS
    recall_points: int = 101
    max_detections: int | None = None

    def __post_init__(self) -> None:
        thrs = tuple(self.iou_thresholds)
        object.__setattr__(self, "iou_thresholds", thrs)
        if not thrs:
            raise ConfigError("at least one IoU threshold is required")
        if list(thrs) != sorted(set(thrs)):
            raise ConfigError(f"IoU thresholds must be sorted and unique, got {thrs}")
        if not all(0.0 < t <= 1.0 for t in thrs):
            raise ConfigError(f"IoU thresholds must lie in (0, 1], got {thrs}")
        if self.recall_points < 2:
            raise ConfigError(f"recall_points must be >= 2, got {self.recall_points}")
        if self.max_detections is not None and self.max_detections < 1:
            raise ConfigError(f"max_detections must be >= 1, got {self.max_detections}")

    @classmethod
    def voc(cls) -> "MapParams":
        """Single-threshold 11-point protocol."""
        return cls(iou_thresholds=(0.5,), recall_points=11)


@dataclass(frozen=True)
class MapReport:
    """Dataset mAP with its per-category breakdown (mean AP over thresholds)."""

    mean_ap: float
    per_category: Mapping[int, float]
    params: MapParams = field(default_factory=MapParams)


def _greedy_flags(iou_mat: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """True/false-positive flags, shape (rows, thresholds), for rows already
    ranked by descending score, matched at every IoU threshold in one pass.

    At each threshold, each row claims the unclaimed column of highest IoU;
    the claim counts as a true positive when that IoU is positive and
    reaches the threshold. Duplicates of an already-claimed ground truth
    fall through to worse columns or to false positive. IoU ties resolve
    to the lowest column index. A row whose best IoU is below every
    threshold can claim nothing and is skipped.
    """
    thrs = np.asarray(thresholds, dtype=np.float64)
    flags = np.zeros((iou_mat.shape[0], len(thrs)), dtype=bool)
    if iou_mat.size == 0:
        return flags
    free = np.ones((len(thrs), iou_mat.shape[1]), dtype=bool)
    levels = np.arange(len(thrs))
    for i in np.flatnonzero(iou_mat.max(axis=1) >= thrs.min()):
        state = np.where(free, iou_mat[i], -1.0)
        best_j = state.argmax(axis=1)
        best = state[levels, best_j]
        claim = (best > 0.0) & (best >= thrs)
        flags[i] = claim
        free[levels[claim], best_j[claim]] = False
    return flags


def _match_image(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthInstance],
    thresholds: Sequence[float],
    max_detections: int | None = None,
) -> dict[int, tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Greedy matching of one image, per category present in its (capped)
    detections or its ground truths: (gt count, detection indices ranked by
    descending score with ties in input order, their scores, their flags
    per threshold)."""
    scores = np.array([d.score for d in dets], dtype=np.float64)
    ranked = np.argsort(-scores, kind="stable")[:max_detections]
    labels = np.array([dets[i].label for i in ranked])
    gt_labels = np.array([g.label for g in gts])
    iou = pairwise_iou(
        boxes_to_array(dets[i].box for i in ranked), boxes_to_array(g.box for g in gts)
    )
    matched: dict[int, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}
    for cat in sorted(set(labels.tolist()) | set(gt_labels.tolist())):
        rows = np.flatnonzero(labels == cat)
        cols = np.flatnonzero(gt_labels == cat)
        flags = _greedy_flags(iou[np.ix_(rows, cols)], thresholds)
        matched[cat] = (len(cols), ranked[rows], scores[ranked[rows]], flags)
    return matched


def match_greedy(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthInstance],
    category: int,
    iou_threshold: float,
) -> list[tuple[int, bool]]:
    """Greedy TP/FP labeling of one category's detections within one image.

    Returns (index into ``dets``, is-true-positive) pairs ordered by
    descending score, score ties broken by input order.
    """
    entry = _match_image(dets, gts, (iou_threshold,)).get(category)
    if entry is None:
        return []
    _, det_ids, _, flags = entry
    return list(zip(det_ids.tolist(), flags[:, 0].tolist()))


def _envelope(flags: Sequence[bool] | np.ndarray, num_gt: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative recall and the running-max precision envelope, down the
    rows of a flag vector or of a (rows, thresholds) flag array."""
    tp = np.cumsum(np.asarray(flags, dtype=np.float64), axis=0)
    ranks = np.arange(1, len(tp) + 1, dtype=np.float64).reshape((-1,) + (1,) * (tp.ndim - 1))
    recall = tp / num_gt
    precision = tp / ranks
    envelope = np.maximum.accumulate(precision[::-1], axis=0)[::-1]
    return recall, envelope


@functools.lru_cache(maxsize=None)
def _recall_samples(recall_points: int) -> np.ndarray:
    samples = np.linspace(0.0, 1.0, recall_points)
    samples.flags.writeable = False
    return samples


def average_precision(
    flags: Sequence[bool],
    num_gt: int,
    recall_points: int = 101,
) -> float | None:
    """Interpolated AP from score-ordered TP/FP flags.

    Samples the precision envelope at ``recall_points`` equally spaced
    recall values and averages. With no ground truths the value is
    undefined (None) unless detections exist, in which case it is 0.
    """
    if num_gt < 0:
        raise ConfigError(f"num_gt must be >= 0, got {num_gt}")
    if num_gt == 0:
        return 0.0 if len(flags) else None
    if not len(flags):
        return 0.0
    recall, envelope = _envelope(flags, num_gt)
    idx = np.searchsorted(recall, _recall_samples(recall_points), side="left")
    sampled = np.where(idx < len(recall), envelope[np.minimum(idx, len(recall) - 1)], 0.0)
    return float(np.mean(sampled))


def _category_ap(flags: np.ndarray, num_gt: int, recall_points: int) -> list[float]:
    """Interpolated AP of every column of score-ordered (rows, thresholds)
    flags; column t equals ``average_precision(flags[:, t], num_gt,
    recall_points)`` for ``num_gt > 0``."""
    rows, levels = flags.shape
    if not rows:
        return [0.0] * levels
    recall, envelope = _envelope(flags, num_gt)
    samples = _recall_samples(recall_points)
    idx = np.stack([np.searchsorted(column, samples, side="left") for column in recall.T])
    sampled = np.where(idx < rows, envelope[np.minimum(idx, rows - 1), np.arange(levels)[:, None]], 0.0)
    return np.mean(sampled, axis=1).tolist()


@dataclass(frozen=True)
class MatchTable:
    """Precomputed per-image matching, reusable across resampled subsets.

    ``entries[image_index][category]`` holds (gt_count, scores, flags):
    the scores of that image's detections of the category in rank order
    (descending score, ties in input order) and their (rows, thresholds)
    true-positive flags. Matching happens within one image, so any
    multiset of images can be pooled later without re-running the
    geometry.
    """

    entries: tuple[dict[int, tuple[int, np.ndarray, np.ndarray]], ...]
    params: MapParams


def build_match_table(per_image_inputs: Sequence[ImageInput], params: MapParams) -> MatchTable:
    entries = []
    for _, dets, gts in per_image_inputs:
        matched = _match_image(dets, gts, params.iou_thresholds, params.max_detections)
        entries.append(
            {cat: (gt_count, scores, flags) for cat, (gt_count, _, scores, flags) in matched.items()}
        )
    return MatchTable(entries=tuple(entries), params=params)


def _mean_over_thresholds(flags: np.ndarray, gt_count: int, recall_points: int) -> float:
    aps = _category_ap(flags, gt_count, recall_points)
    return math.fsum(aps) / len(aps)


def filter_table(table: MatchTable, score_threshold: float) -> MatchTable:
    """The table of the same inputs with every detection scoring below
    ``score_threshold`` removed.

    Each entry ranks its detections by descending score and greedy matching
    reads only higher-ranked rows, so the kept detections are a prefix of
    every entry and keep their flags; a ``max_detections`` cap keeps the top
    ranks, so the prefix holds under it as well. Categories left with
    neither detections nor ground truths are dropped, as building the table
    from the filtered inputs would.
    """
    entries = []
    for entry in table.entries:
        kept = {}
        for cat, (gt_count, scores, flags) in entry.items():
            rows = int(np.count_nonzero(scores >= score_threshold))
            if rows or gt_count:
                kept[cat] = (gt_count, scores[:rows], flags[:rows])
        entries.append(kept)
    return MatchTable(entries=tuple(entries), params=table.params)


def map_from_table(table: MatchTable, image_indices: Sequence[int]) -> MapReport:
    """Pool a multiset of images from the table and compute mAP.

    Pooled detections sort by (-score, image index, in-image rank), which
    makes the value invariant to the order of ``image_indices``; repeated
    indices count with multiplicity. Only categories with at least one
    pooled ground truth participate.
    """
    params = table.params
    pooled: dict[int, list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    for idx in image_indices:
        for cat, (gt_count, scores, flags) in table.entries[idx].items():
            pooled.setdefault(cat, []).append((idx, gt_count, scores, flags))

    per_category: dict[int, float] = {}
    for cat in sorted(pooled):
        parts = pooled[cat]
        gt_count = sum(part[1] for part in parts)
        if gt_count == 0:
            continue
        sizes = np.array([len(part[2]) for part in parts])
        scores = np.concatenate([part[2] for part in parts])
        image = np.repeat([part[0] for part in parts], sizes)
        rank = np.arange(len(scores)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        order = np.lexsort((rank, image, -scores))
        flags = np.concatenate([part[3] for part in parts])[order]
        per_category[cat] = _mean_over_thresholds(flags, gt_count, params.recall_points)

    if not per_category:
        return MapReport(mean_ap=0.0, per_category={}, params=params)
    mean_ap = math.fsum(per_category.values()) / len(per_category)
    return MapReport(mean_ap=mean_ap, per_category=per_category, params=params)


def image_maps(table: MatchTable) -> list[float]:
    """mAP of every image of the table, each treated as a one-sample dataset.

    Scored over the categories present in the image's detections or ground
    truths; categories with detections but no ground truths contribute 0.
    An image with neither is vacuously perfect and scores 1 (callers may
    flag it in their output).
    """
    values = []
    for entry in table.entries:
        per_cat = [
            _mean_over_thresholds(flags, gt_count, table.params.recall_points) if gt_count else 0.0
            for gt_count, _, flags in entry.values()
        ]
        values.append(math.fsum(per_cat) / len(per_cat) if per_cat else 1.0)
    return values


def dataset_map(per_image_inputs: Sequence[ImageInput], params: MapParams | None = None) -> MapReport:
    """COCO-style dataset mAP: pool per category, average APs over thresholds
    then over categories that have ground truths."""
    params = params or MapParams()
    inputs = list(per_image_inputs)
    table = build_match_table(inputs, params)
    return map_from_table(table, range(len(inputs)))


def single_image_map(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthInstance],
    params: MapParams | None = None,
) -> float:
    """mAP of one image treated as a one-sample dataset (see :func:`image_maps`)."""
    return image_maps(build_match_table([(None, dets, gts)], params or MapParams()))[0]
