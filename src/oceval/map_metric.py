"""Classical mean average precision over pooled, ranked detections.

Detections are pooled per category across the whole dataset, ranked by
confidence, and greedily matched within each image against that
category's ground truths at a fixed IoU threshold. Average precision
samples the precision envelope at equally spaced recall points; the
defaults follow the COCO convention (101 recall points, IoU thresholds
0.50 to 0.95 in steps of 0.05). The single-threshold 11-point VOC
protocol is ``MapParams(iou_thresholds=(0.5,), recall_points=11)``.

Per-image mAP treats each image as the whole dataset, scoring the
categories present in that image's detections or ground truths.

Every kernel runs over all (image, category) segments at once: matching
builds one flat :class:`MatchTable` for the whole dataset, and one AP
kernel, run in blocks of segments of bounded size, scores the segments
of a table (per-image mAP) and the categories pooled from any multiset
of its images (dataset mAP).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .costs import ImageInput, image_arrays
from .errors import ConfigError, ValidationError, _check_integer, _check_real
from .geometry import _iou

__all__ = [
    "COCO_IOU_THRESHOLDS",
    "MapParams",
    "MapReport",
    "dataset_map",
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
        _check_integer("recall_points", self.recall_points, 2)
        if self.max_detections is not None:
            _check_integer("max_detections", self.max_detections, 1)
        thrs = tuple(self.iou_thresholds)
        object.__setattr__(self, "iou_thresholds", thrs)
        for i, t in enumerate(thrs):
            _check_real(f"iou_thresholds[{i}]", t, 0, 1, open_low=True)
        if not thrs:
            raise ConfigError("at least one IoU threshold is required")
        if list(thrs) != sorted(set(thrs)):
            raise ConfigError(f"IoU thresholds must be sorted and unique, got {thrs}")


@dataclass(frozen=True)
class MapReport:
    """Dataset mAP with its per-category breakdown (mean AP over thresholds)."""

    mean_ap: float
    per_category: Mapping[int, float]
    params: MapParams = field(default_factory=MapParams)


# Block sizes: rows per lockstep iteration, and (row, threshold) or
# (segment, threshold, recall point) cells per block of the AP kernel.
# The IoU computation takes ``geometry._BLOCK_PAIRS`` pairs per block.
_BLOCK_ROWS = 1 << 10
_BLOCK_CELLS = 1 << 14


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(start, stop)`` over paired bounds."""
    sizes = stops - starts
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + sizes, sizes)


def _pair_ious(
    a: np.ndarray, b: np.ndarray, starts: np.ndarray, stops: np.ndarray, least: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (i, j), j in ``starts[i]:stops[i]``, whose boxes ``a[i]``
    and ``b[j]`` overlap by an IoU above ``least``: i, j and that IoU,
    sorted by (i, j). The IoU is computed a block of at most
    ``geometry._BLOCK_PAIRS`` pairs (or of one row's pairs) at a time."""
    sizes = stops - starts
    through = np.cumsum(sizes)
    pairs = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    lo, budget = 0, geometry._BLOCK_PAIRS
    while lo < len(sizes):
        fit = int(np.searchsorted(through, through[lo] - sizes[lo] + budget, "right"))
        hi = max(fit, lo + 1)
        row = np.repeat(np.arange(lo, hi), sizes[lo:hi])
        col = _ranges(starts[lo:hi], stops[lo:hi])
        iou = _iou(np.take(a, row, axis=0), np.take(b, col, axis=0))
        over = iou > least
        pairs.append((row[over], col[over], iou[over]))
        lo = hi
    row, col, iou = map(np.concatenate, zip(*pairs))
    return row, col, iou


def _rank_groups(
    image: np.ndarray, scores: np.ndarray, codes: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ranked by descending score within each image, ties in input
    order (``image`` is nondecreasing, so every image keeps its place);
    the positions of that ranking grouped by (image, label code), rank
    order kept within each group; and the key ``image * width + code`` of
    each grouped row, nondecreasing."""
    ranked = np.lexsort((-scores, image))
    key = image[ranked] * width + codes[ranked]
    by_key = np.argsort(key, kind="stable")
    return ranked, by_key, key[by_key]


def _lockstep_steps(
    pair_row: np.ndarray, row_segment: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The pairs ``first[i]:stop[i]`` of each row with pairs, in step order,
    and the bounds that cut that order into blocks of one step and at most
    ``_BLOCK_ROWS`` rows. Pairs are sorted by row, rows grouped by
    ``row_segment`` (nondecreasing); step k holds the k-th row with pairs
    of every segment."""
    first = np.flatnonzero(np.diff(pair_row, prepend=-1))
    stop = np.r_[first[1:], len(pair_row)]
    segment = row_segment[pair_row[first]]
    k = np.arange(len(first)) - np.searchsorted(segment, segment)
    order = np.argsort(k, kind="stable")
    starts = np.append(np.flatnonzero(np.diff(k[order], prepend=-1)), len(first))
    steps = np.union1d(starts, np.arange(0, len(first), _BLOCK_ROWS))
    return first[order], stop[order], steps.tolist()


def _greedy_lockstep(
    row_segment: np.ndarray,
    pair_row: np.ndarray,
    pair_col: np.ndarray,
    pair_iou: np.ndarray,
    columns: int,
    thresholds: Sequence[float],
) -> np.ndarray:
    """True/false-positive flags, shape (rows, thresholds), of greedy
    matching in every segment at once, at every IoU threshold.

    Rows are ranked detections grouped by ``row_segment`` (nondecreasing),
    in rank order within a segment. Pair p holds the IoU of row
    ``pair_row[p]`` with ground-truth column ``pair_col[p]`` of the same
    segment; pairs are sorted by (row, column). At each threshold each row
    claims the unclaimed column of highest IoU; the claim counts as a true
    positive when that IoU is positive and reaches the threshold. IoU ties
    resolve to the lowest column. A pair below the lowest threshold may be
    left out: it is never claimed, and when it is a row's best unclaimed
    pair the row claims nothing either way. Iteration k lets the k-th
    row with pairs of every segment claim: segments share no column, so
    their claims never conflict.
    """
    thrs = np.asarray(thresholds, dtype=np.float64)[:, None]
    flags = np.zeros((len(row_segment), len(thrs)), dtype=bool)
    first, stop, steps = _lockstep_steps(pair_row, row_segment)
    free = np.ones((len(thrs), columns), dtype=bool)
    for a, b in zip(steps[:-1], steps[1:]):
        pairs = _ranges(first[a:b], stop[a:b])
        sizes = stop[a:b] - first[a:b]
        local = np.cumsum(sizes) - sizes
        cols = pair_col[pairs]
        value = np.where(free[:, cols], pair_iou[pairs], -1.0)
        best = np.maximum.reduceat(value, local, axis=1)
        hit = value == np.repeat(best, sizes, axis=1)
        at = np.minimum.reduceat(np.where(hit, np.arange(len(pairs)), len(pairs)), local, axis=1)
        level, row = np.nonzero((best > 0.0) & (best >= thrs))
        free[level, cols[at[level, row]]] = False
        flags[pair_row[first[a + row]], level] = True
    return flags


def _block_aps(
    flags: np.ndarray, starts: np.ndarray, gt_count: np.ndarray, recall_points: int
) -> np.ndarray:
    """Interpolated AP, shape (thresholds, segments), of every column of
    every segment of score-ordered (rows, thresholds) ``flags``. Segment s
    starts at row ``starts[s]`` and holds every true positive up to the
    next start; one without true positives scores 0.

    Row i of a segment has precision tp_i / (i + 1) and recall
    tp_i / gt_count, tp_i counting its true positives up to row i. AP
    averages, over ``recall_points`` equally spaced values r, the envelope
    (the highest precision from the first row of recall >= r to the end)
    or 0 when recall never reaches r. Precision peaks only at true
    positives, so only they are read: recall reaches r at the q-th true
    positive, q the fewest with q / gt_count >= r in floating point, and
    the envelope there is the highest precision of the q-th and later ones.
    """
    levels, segments = flags.shape[1], len(gt_count)
    level, row = np.nonzero(flags.T)
    segment = np.searchsorted(starts, row, side="right") - 1
    group = level * segments + segment
    count = np.bincount(group, minlength=levels * segments)
    start = np.cumsum(count) - count
    tp = np.arange(len(row)) - start[group] + 1
    precision = tp / (row - starts[segment] + 1)
    # a running max from the last true positive back, over keys that rank
    # earlier groups above later ones, so it never leaves a group
    by_value = np.argsort(precision)
    rank = np.empty_like(by_value)
    rank[by_value] = np.arange(len(row))
    key = (levels * segments - group) * len(row) + rank
    envelope = precision[by_value[np.maximum.accumulate(key[::-1])[::-1] % len(row)]]

    active = np.flatnonzero(count)
    gt, pick = np.unique(gt_count[active % segments], return_inverse=True)
    samples = np.linspace(0.0, 1.0, recall_points)
    gt = gt.astype(np.float64)[:, None]
    # ceil(r * gt) - 2 is at most 3 below the least q with q / gt >= r
    need = np.maximum(np.ceil(samples * gt) - 2.0, 0.0)
    for _ in range(3):
        need += need / gt < samples
    at = np.maximum(need, 1.0).astype(np.int64)[pick]
    short = at > count[active, None]
    at += start[active, None] - 1
    at[short] = len(row)
    aps = np.zeros(levels * segments)
    aps[active] = np.append(envelope, 0.0)[at].mean(axis=1)
    return aps.reshape(levels, segments)


def _segment_means(
    flags: np.ndarray, offsets: np.ndarray, gt_count: np.ndarray, recall_points: int
) -> np.ndarray:
    """Mean AP over thresholds (``math.fsum`` of the thresholds' APs over
    their count) of every segment, rows ``offsets[s]:offsets[s + 1]`` of
    ``flags``, and 0 for one without ground truths. :func:`_block_aps`
    scores the others in blocks of consecutive segments, each as large as
    ``_BLOCK_CELLS`` allows, which bounds every temporary but those of a
    single segment larger than that."""
    levels = flags.shape[1]
    scored = np.flatnonzero(gt_count)
    sizes = offsets[scored + 1] - offsets[scored]
    through = np.cumsum(sizes)
    most = max(1, _BLOCK_CELLS // (levels * recall_points))
    sums = np.zeros(len(gt_count))
    lo = 0
    while lo < len(scored):
        # at most _BLOCK_CELLS (row, threshold) cells and as many (segment,
        # threshold, recall point) ones, or a single segment
        fit = np.searchsorted(through, through[lo] - sizes[lo] + _BLOCK_CELLS // levels, "right")
        hi = min(max(fit, lo + 1), lo + most)
        block = scored[lo:hi]
        first, stop = offsets[block[0]], offsets[block[-1] + 1]
        aps = _block_aps(flags[first:stop], offsets[block] - first, gt_count[block], recall_points)
        sums[block] = list(map(math.fsum, aps.T.tolist()))
        lo = hi
    return sums / levels


@dataclass(frozen=True, eq=False)
class MatchTable:
    """Greedy matching of every image as one flat table, reusable across
    resampled subsets.

    Each row is one ranked detection: its score in ``scores`` and its
    true-positive flag at every IoU threshold in ``flags``, shape
    (rows, thresholds). Rows are grouped into segments, one per category
    present in an image's (capped) detections or ground truths, ordered by
    image, then category. Within a segment the rows are ranked by
    descending score, ties in input order. Segment s holds rows
    ``offsets[s]:offsets[s + 1]``, the image index ``image[s]``, the
    category ``categories[category[s]]`` (``categories`` is sorted) and
    the ground-truth count ``gt_count[s]``. ``images`` counts the inputs,
    those without any segment included. Matching happens within one image,
    so any multiset of images can be pooled later without re-running the
    geometry.
    """

    scores: np.ndarray
    flags: np.ndarray
    image: np.ndarray
    category: np.ndarray
    categories: np.ndarray
    gt_count: np.ndarray
    offsets: np.ndarray
    images: int
    params: MapParams


def build_match_table(per_image_inputs: Sequence[ImageInput], params: MapParams) -> MatchTable:
    """Rank, cap and greedily match the detections of every image at every
    IoU threshold of ``params``, as one :class:`MatchTable`."""
    thresholds = params.iou_thresholds
    images = [image_arrays(item) for item in per_image_inputs]
    dets = [d for _, d, _ in images]
    gts = [g for _, _, g in images]
    det_image = np.repeat(np.arange(len(images)), [len(d) for d in dets])
    gt_image = np.repeat(np.arange(len(images)), [len(g) for g in gts])
    boxes = np.concatenate([np.zeros((0, 4)), *(d.boxes for d in dets)])
    gt_boxes = np.concatenate([np.zeros((0, 4)), *(g.boxes for g in gts)])
    scores = np.concatenate([np.zeros(0), *(d.scores for d in dets)])
    labels = np.concatenate(
        [np.zeros(0, dtype=np.int64), *(d.labels for d in dets), *(g.labels for g in gts)]
    )
    categories, codes = np.unique(labels, return_inverse=True)
    width = max(len(categories), 1)

    # rows by (image, category), ranked within each, capped by rank in image
    ranked, by_key, row_key = _rank_groups(det_image, scores, codes[: len(scores)], width)
    ranked = ranked[by_key]
    if params.max_detections is not None:
        rank = np.arange(len(scores)) - np.searchsorted(det_image, det_image)
        capped = rank[by_key] < params.max_detections
        ranked, row_key = ranked[capped], row_key[capped]
    gt_key = gt_image * width + codes[len(scores):]
    gt_order = np.argsort(gt_key, kind="stable")

    segment_key = np.unique(np.concatenate([row_key, gt_key]))
    offsets = np.append(np.searchsorted(row_key, segment_key), len(row_key))
    gt_bounds = np.append(np.searchsorted(gt_key[gt_order], segment_key), len(gt_key))
    gt_count = np.diff(gt_bounds)
    row_segment = np.repeat(np.arange(len(segment_key)), np.diff(offsets))
    # each row's IoU with the ground truths of its segment, keeping the
    # pairs at or above the lowest threshold
    pair_row, pair_col, pair_iou = _pair_ious(
        boxes[ranked],
        gt_boxes[gt_order],
        gt_bounds[row_segment],
        gt_bounds[row_segment + 1],
        np.nextafter(min(thresholds), -np.inf),
    )
    return MatchTable(
        scores=scores[ranked],
        flags=_greedy_lockstep(row_segment, pair_row, pair_col, pair_iou, len(gt_key), thresholds),
        image=segment_key // width,
        category=segment_key % width,
        categories=categories,
        gt_count=gt_count,
        offsets=offsets,
        images=len(images),
        params=params,
    )


def filter_table(table: MatchTable, score_threshold: float) -> MatchTable:
    """The table of the same inputs with every detection scoring below
    ``score_threshold`` removed.

    Each segment ranks its detections by descending score and greedy
    matching reads only higher-ranked rows, so the kept detections are a
    prefix of every segment and keep their flags; a ``max_detections`` cap
    keeps the top ranks, so the prefix holds under it as well. Segments
    left with neither detections nor ground truths are dropped, as building
    the table from the filtered inputs would.
    """
    keep = table.scores >= score_threshold
    rows = np.diff(np.r_[0, np.cumsum(keep)][table.offsets])
    kept = (rows > 0) | (table.gt_count > 0)
    return MatchTable(
        scores=table.scores[keep],
        flags=table.flags[keep],
        image=table.image[kept],
        category=table.category[kept],
        categories=table.categories,
        gt_count=table.gt_count[kept],
        offsets=np.r_[0, np.cumsum(rows[kept])],
        images=table.images,
        params=table.params,
    )


def _pooled(
    table: MatchTable, image_indices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a multiset of the table's images pooled per category:
    the rows, category by category in (category, -score, row) order, the
    offsets of the categories in them, and the category codes and pooled
    ground-truth counts of those categories. Only categories with at least
    one pooled ground truth are listed. A row's place in the table orders
    it by (image index, in-image rank), so the order does not depend on
    the order of ``image_indices``; repeated indices count with
    multiplicity."""
    picked = np.arange(table.images)[np.asarray(image_indices, dtype=np.int64)]
    segments = _ranges(
        np.searchsorted(table.image, picked), np.searchsorted(table.image, picked, side="right")
    )
    category = table.category[segments]
    gt = np.bincount(category, table.gt_count[segments], minlength=len(table.categories))
    gt = gt.astype(np.int64)
    segments = segments[gt[category] > 0]
    lo, hi = table.offsets[segments], table.offsets[segments + 1]
    rows = _ranges(lo, hi)
    category = np.repeat(table.category[segments], hi - lo)
    order = np.lexsort((rows, -table.scores[rows], category))
    scored = np.flatnonzero(gt)
    offsets = np.r_[0, np.cumsum(np.bincount(category, minlength=len(gt))[scored])]
    return rows[order], offsets, scored, gt[scored]


def map_from_table(table: MatchTable, image_indices: Sequence[int]) -> MapReport:
    """Pool a multiset of images from the table and compute mAP.

    Pooled detections sort by (-score, image index, in-image rank), which
    makes the value invariant to the order of ``image_indices``; repeated
    indices count with multiplicity. Only categories with at least one
    pooled ground truth participate.
    """
    params = table.params
    rows, offsets, scored, gt = _pooled(table, image_indices)
    if not len(scored):
        return MapReport(mean_ap=0.0, per_category={}, params=params)
    means = _segment_means(table.flags[rows], offsets, gt, params.recall_points)
    per_category = dict(zip(table.categories[scored].tolist(), means.tolist()))
    mean_ap = math.fsum(per_category.values()) / len(per_category)
    return MapReport(mean_ap=mean_ap, per_category=per_category, params=params)


def _floor_maps(
    table: MatchTable, image_indices: Sequence[int], floors: Sequence[float]
) -> list[float]:
    """The dataset mAP of a multiset of the table's images at each score
    floor: ``map_from_table(filter_table(table, s), image_indices).mean_ap``
    for each ``s`` in ``floors``, from one pooling.

    Pooling ranks each category's rows by descending score, so the rows
    scoring at least ``s`` are a prefix of its pooled list (the prefix of
    :func:`filter_table`, taken after pooling), and the categories scored
    are the same at every floor. One ``searchsorted`` per category cuts
    its list at every floor, and one :func:`_segment_means` call scores
    every (floor, category) prefix.
    """
    rows, offsets, scored, gt = _pooled(table, image_indices)
    if not len(scored):
        return [0.0] * len(floors)
    negated = -table.scores[rows]
    bar = -np.asarray(floors, dtype=np.float64)
    starts = offsets[:-1]
    # stops[f, c]: the end of category c's rows scoring at least floors[f]
    stops = np.stack(
        [a + np.searchsorted(negated[a:b], bar, side="right") for a, b in zip(starts, offsets[1:])],
        axis=1,
    )
    starts = np.broadcast_to(starts, stops.shape).reshape(-1)
    stops = stops.reshape(-1)
    means = _segment_means(
        table.flags[rows[_ranges(starts, stops)]],
        np.r_[0, np.cumsum(stops - starts)],
        np.tile(gt, len(bar)),
        table.params.recall_points,
    )
    return [math.fsum(row) / len(scored) for row in means.reshape(len(bar), len(scored)).tolist()]


def image_maps(table: MatchTable) -> list[float]:
    """mAP of every image of the table, each treated as a one-sample dataset.

    Scored over the categories present in the image's detections or ground
    truths; categories with detections but no ground truths contribute 0.
    An image with neither is vacuously perfect and scores 1 (callers may
    flag it in their output).
    """
    means = _segment_means(table.flags, table.offsets, table.gt_count, table.params.recall_points)
    bounds = np.searchsorted(table.image, np.arange(table.images + 1))
    counts = np.diff(bounds)
    # math.fsum over each image's segments
    per_image = map(means.__getitem__, map(slice, bounds[:-1].tolist(), bounds[1:].tolist()))
    sums = np.fromiter(map(math.fsum, per_image), np.float64, table.images)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 1.0).tolist()


def dataset_map(per_image_inputs: Sequence[ImageInput], params: MapParams | None = None) -> MapReport:
    """COCO-style dataset mAP: pool per category, average APs over thresholds
    then over categories that have ground truths. An empty image sequence
    is a :class:`ValidationError`."""
    params = params or MapParams()
    inputs = list(per_image_inputs)
    if not inputs:
        raise ValidationError("cannot evaluate an empty image sequence")
    table = build_match_table(inputs, params)
    return map_from_table(table, range(len(inputs)))
