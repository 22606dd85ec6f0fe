import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oceval import (
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    MapParams,
    dataset_map,
)
from oceval import geometry, map_metric
from oceval.costs import DetectionArrays, GroundTruthArrays, detection_arrays, ground_truth_arrays
from oceval.geometry import boxes_to_array
from oceval.map_metric import (
    COCO_IOU_THRESHOLDS,
    MapReport,
    _block_aps,
    _greedy_lockstep,
    _segment_means,
    _floor_counts,
    build_match_table,
    image_maps,
    map_from_table,
)

from oracles import iou_matrix

B1 = BoundingBox(0, 0, 10, 10)
B2 = BoundingBox(100, 0, 110, 10)
B3 = BoundingBox(0, 100, 10, 110)


# Oracles: the per-image, per-category matching and AP this package used
# before its flat table, kept to check the table bit for bit.


def _greedy_flags(iou_mat, thresholds):
    """True/false-positive flags, shape (rows, thresholds), for rows already
    ranked by descending score, matched at every IoU threshold in one pass;
    IoU ties resolve to the lowest column."""
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


def _match_image(dets, gts, thresholds, max_detections=None):
    """Per category present in the (capped) detections or the ground truths
    of one image: (gt count, detection indices in rank order, their scores,
    their flags)."""
    dets, gts = detection_arrays(dets), ground_truth_arrays(gts)
    scores = dets.scores
    ranked = np.argsort(-scores, kind="stable")[:max_detections]
    labels = dets.labels[ranked]
    gt_labels = gts.labels
    iou = iou_matrix(dets.boxes[ranked], gts.boxes)
    matched = {}
    for cat in sorted(set(labels.tolist()) | set(gt_labels.tolist())):
        rows = np.flatnonzero(labels == cat)
        cols = np.flatnonzero(gt_labels == cat)
        flags = _greedy_flags(iou[np.ix_(rows, cols)], thresholds)
        matched[cat] = (len(cols), ranked[rows], scores[ranked[rows]], flags)
    return matched


def _envelope(flags, num_gt):
    tp = np.cumsum(np.asarray(flags, dtype=np.float64), axis=0)
    ranks = np.arange(1, len(tp) + 1, dtype=np.float64).reshape((-1,) + (1,) * (tp.ndim - 1))
    recall = tp / num_gt
    precision = tp / ranks
    envelope = np.maximum.accumulate(precision[::-1], axis=0)[::-1]
    return recall, envelope


def _category_ap(flags, num_gt, recall_points):
    """Interpolated AP of every column of score-ordered (rows, thresholds) flags."""
    rows, levels = flags.shape
    if not rows:
        return [0.0] * levels
    recall, envelope = _envelope(flags, num_gt)
    samples = np.linspace(0.0, 1.0, recall_points)
    idx = np.stack([np.searchsorted(column, samples, side="left") for column in recall.T])
    sampled = np.where(idx < rows, envelope[np.minimum(idx, rows - 1), np.arange(levels)[:, None]], 0.0)
    return np.mean(sampled, axis=1).tolist()


def _mean_over_thresholds(flags, gt_count, recall_points):
    aps = _category_ap(flags, gt_count, recall_points)
    return math.fsum(aps) / len(aps)


def oracle_table(inputs, params):
    """Per image, {category: (gt count, scores, flags)} in category order."""
    return [
        {cat: (n, scores, flags) for cat, (n, _, scores, flags) in
         _match_image(dets, gts, params.iou_thresholds, params.max_detections).items()}
        for _, dets, gts in inputs
    ]


def oracle_filter(entries, score_threshold):
    kept = []
    for entry in entries:
        image = {}
        for cat, (gt_count, scores, flags) in entry.items():
            rows = int(np.count_nonzero(scores >= score_threshold))
            if rows or gt_count:
                image[cat] = (gt_count, scores[:rows], flags[:rows])
        kept.append(image)
    return kept


def oracle_map(entries, params, image_indices):
    pooled = {}
    for idx in image_indices:
        for cat, (gt_count, scores, flags) in entries[idx].items():
            pooled.setdefault(cat, []).append((idx, gt_count, scores, flags))
    per_category = {}
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
    return MapReport(math.fsum(per_category.values()) / len(per_category), per_category, params)


def oracle_image_maps(entries, params):
    values = []
    for entry in entries:
        per_cat = [
            _mean_over_thresholds(flags, gt_count, params.recall_points) if gt_count else 0.0
            for gt_count, _, flags in entry.values()
        ]
        values.append(math.fsum(per_cat) / len(per_cat) if per_cat else 1.0)
    return values


def table_entries(table):
    """The flat table in the oracle's per-image form."""
    entries = [{} for _ in range(table.images)]
    labels = table.categories[table.category].tolist()
    for s, (image, cat) in enumerate(zip(table.image.tolist(), labels)):
        rows = slice(table.offsets[s], table.offsets[s + 1])
        entries[image][cat] = (int(table.gt_count[s]), table.scores[rows], table.flags[rows])
    return entries


def assert_same_entries(want, got):
    assert len(want) == len(got)
    for w, g in zip(want, got):
        assert list(w) == list(g)
        for (gt_w, scores_w, flags_w), (gt_g, scores_g, flags_g) in zip(w.values(), g.values()):
            assert gt_w == gt_g
            assert scores_w.tolist() == scores_g.tolist()
            assert flags_w.shape == flags_g.shape and (flags_w == flags_g).all()



def test_params_validation():
    with pytest.raises(ConfigError):
        MapParams(iou_thresholds=())
    with pytest.raises(ConfigError):
        MapParams(iou_thresholds=(0.9, 0.5))
    with pytest.raises(ConfigError):
        MapParams(iou_thresholds=(0.0, 0.5))
    with pytest.raises(ConfigError):
        MapParams(recall_points=1)
    with pytest.raises(ConfigError, match="max_detections must be >= 1, got 0"):
        MapParams(max_detections=0)
    # a fractional cap or sample count is an error, not a rounded value
    with pytest.raises(ConfigError, match="max_detections must be an integer, got 1.5"):
        MapParams(max_detections=1.5)
    with pytest.raises(ConfigError, match="recall_points must be an integer, got 2.0"):
        MapParams(recall_points=2.0)
    assert MapParams().iou_thresholds == COCO_IOU_THRESHOLDS


def average_precision(flags, num_gt, recall_points=101):
    """AP of score-ordered true-positive flags at one IoU threshold."""
    column = np.asarray(flags, dtype=bool).reshape(-1, 1)
    return float(_segment_means(column, np.array([0, len(column)]), np.array([num_gt]), recall_points)[0])


def test_average_precision_hand_values():
    # one gt; fp then tp: precision envelope is 0.5 everywhere
    assert average_precision([False, True], 1) == pytest.approx(0.5)
    # two gts; tp then fp: recall stops at 0.5 with precision 1
    assert average_precision([True, False], 2) == pytest.approx(51 / 101)
    assert average_precision([True], 1) == 1.0
    assert average_precision([], 3) == 0.0
    # a segment without ground truths scores 0
    assert average_precision([False], 0) == 0.0


def test_average_precision_recall_points():
    # coarser sampling changes the interpolation grid
    assert average_precision([True, False], 2, recall_points=11) == pytest.approx(6 / 11)


def greedy_matches(dets, gts, category, iou_threshold):
    """(score, true positive) of the ranked detections of ``category`` in one image."""
    table = build_match_table([(None, dets, gts)], MapParams(iou_thresholds=(iou_threshold,)))
    _, scores, flags = table_entries(table)[0][category]
    return list(zip(scores.tolist(), flags[:, 0].tolist()))


def test_match_greedy_prefers_higher_scores():
    dets = [Detection(B1, 1, 0.6), Detection(B1, 1, 0.9)]
    gts = [GroundTruthInstance(B1, 1)]
    matches = greedy_matches(dets, gts, category=1, iou_threshold=0.5)
    # higher-scored det matches; duplicate becomes a false positive
    assert matches == [(0.9, True), (0.6, False)]


def test_match_greedy_ignores_other_categories():
    dets = [Detection(B1, 2, 0.9)]
    gts = [GroundTruthInstance(B1, 1)]
    assert greedy_matches(dets, gts, category=1, iou_threshold=0.5) == []
    assert greedy_matches(dets, gts, category=2, iou_threshold=0.5) == [(0.9, False)]


def test_match_greedy_takes_best_iou():
    shifted = BoundingBox(2, 0, 12, 10)
    dets = [Detection(shifted, 1, 0.9)]
    gts = [GroundTruthInstance(B2, 1), GroundTruthInstance(B1, 1)]
    matches = greedy_matches(dets, gts, category=1, iou_threshold=0.5)
    assert matches == [(0.9, True)]


def test_match_greedy_iou_tie_claims_first_gt():
    # IoU 1/3 with both ground truths; claiming the first leaves the second
    # for the exact detection (COCOeval would claim the last, docs/reproducing.md)
    right = BoundingBox(10, 0, 20, 10)
    dets = [Detection(BoundingBox(5, 0, 15, 10), 1, 0.9), Detection(right, 1, 0.5)]
    gts = [GroundTruthInstance(B1, 1), GroundTruthInstance(right, 1)]
    assert greedy_matches(dets, gts, category=1, iou_threshold=0.3) == [(0.9, True), (0.5, True)]


def test_dataset_map_perfect_and_fp_append():
    gt1 = [GroundTruthInstance(B1, 1)]
    gt2 = [GroundTruthInstance(B2, 1)]
    gt3 = [GroundTruthInstance(B3, 2)]
    base = [
        (1, [Detection(B1, 1, 0.9)], gt1),
        (2, [Detection(B2, 1, 0.85)], gt2),
        (3, [Detection(B3, 2, 0.9)], gt3),
    ]
    report = dataset_map(base)
    assert report.mean_ap == pytest.approx(1.0)
    assert set(report.per_category) == {1, 2}

    # append a bottom-ranked false positive for category 1 on image 3
    appended = [
        base[0],
        base[1],
        (3, [Detection(B3, 2, 0.9), Detection(BoundingBox(50, 50, 60, 60), 1, 0.1)], gt3),
    ]
    report2 = dataset_map(appended)
    assert abs(report2.mean_ap - report.mean_ap) < 1e-12


def test_dataset_map_no_gt_categories_score_nothing():
    # detections of a category with no gts anywhere are ignored by mAP
    inputs = [(1, [Detection(B1, 9, 0.9)], [GroundTruthInstance(B1, 1)])]
    report = dataset_map(inputs)
    assert set(report.per_category) == {1}


def test_dataset_map_empty_detections():
    inputs = [(1, [], [GroundTruthInstance(B1, 1)])]
    assert dataset_map(inputs).mean_ap == 0.0


def test_dataset_map_image_order_invariance(rng):
    from conftest import random_scene

    inputs = []
    for image_id in range(10):
        dets, gts = random_scene(rng, max_m=5, max_n=5)
        inputs.append((image_id, dets, gts))
    base = dataset_map(inputs).mean_ap
    shuffled = [inputs[i] for i in rng.permutation(10)]
    assert dataset_map(shuffled).mean_ap == base


def one_image_map(dets, gts, params=MapParams()):
    """mAP of one image treated as a one-sample dataset."""
    return image_maps(build_match_table([(None, dets, gts)], params))[0]


def test_single_image_conventions():
    assert one_image_map([], []) == 1.0
    assert one_image_map([], [GroundTruthInstance(B1, 1)]) == 0.0
    assert one_image_map([Detection(B1, 1, 0.9)], []) == 0.0
    assert one_image_map([Detection(B1, 1, 0.9)], [GroundTruthInstance(B1, 1)]) == 1.0


def test_single_image_map_scores_only_kept_detections():
    # the capped-away category-2 detection has no ground truth and is not scored
    dets = [Detection(B1, 1, 0.9), Detection(B2, 2, 0.2)]
    gts = [GroundTruthInstance(B1, 1)]
    assert one_image_map(dets, gts, MapParams(max_detections=1)) == 1.0
    assert one_image_map(dets, gts) == 0.5


def test_pair_at_exactly_the_lowest_threshold_is_kept():
    # the wide detection overlaps A by exactly 1/2, the lowest threshold,
    # and B by 1/3, below it; a higher-scored rival takes B (the wide one
    # matches A) or A (the wide one matches nothing)
    a, b, wide = BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 3, 1), BoundingBox(0, 0, 2, 1)
    gts = [GroundTruthInstance(a, 1), GroundTruthInstance(b, 1)]
    params = MapParams(iou_thresholds=(0.5, 0.75))
    for rival, wide_flags in ((b, [True, False]), (a, [False, False])):
        inputs = [(0, [Detection(rival, 1, 0.9), Detection(wide, 1, 0.5)], gts)]
        table = build_match_table(inputs, params)
        assert_same_entries(oracle_table(inputs, params), table_entries(table))
        assert table.flags.tolist() == [[True, True], wide_flags]


def test_match_table_multiset_counting():
    inputs = [
        (1, [Detection(B1, 1, 0.9)], [GroundTruthInstance(B1, 1)]),
        (2, [], [GroundTruthInstance(B2, 1)]),
    ]
    table = build_match_table(inputs, MapParams())
    full = map_from_table(table, [0, 1])
    doubled = map_from_table(table, [0, 0, 1, 1])
    assert full.mean_ap == doubled.mean_ap
    # repeating only the perfect image raises recall coverage
    favored = map_from_table(table, [0, 0, 1])
    assert favored.mean_ap > full.mean_ap


def test_match_table_repeats_keep_in_image_rank():
    # equal scores: copies of an image pool as TP, TP, FP, FP, not TP, FP, TP, FP
    dets = [Detection(B1, 1, 0.9), Detection(B2, 1, 0.9)]
    table = build_match_table([(1, dets, [GroundTruthInstance(B1, 1)])], MapParams())
    assert map_from_table(table, [0]).mean_ap == 1.0
    assert map_from_table(table, [0, 0]).mean_ap == 1.0


def test_max_detections_cap():
    dets = [Detection(B1, 1, 0.9), Detection(BoundingBox(50, 50, 60, 60), 1, 0.2)]
    inputs = [(1, dets, [GroundTruthInstance(B1, 1)])]
    capped = dataset_map(inputs, MapParams(max_detections=1))
    assert capped.mean_ap == pytest.approx(1.0)


def _scalar_greedy_flags(iou_mat, iou_threshold):
    """Reference: the one-threshold greedy loop the vectorized kernel replaces."""
    taken = [False] * iou_mat.shape[1]
    flags = []
    for row in iou_mat:
        best_j = -1
        best = 0.0
        for j, value in enumerate(row):
            if not taken[j] and value > best:
                best = float(value)
                best_j = j
        if best_j >= 0 and best >= iou_threshold:
            taken[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


# IoU values and thresholds share points, so ties and exact-threshold hits occur
IOU_VALUES = (0.0, 0.0, 0.3, 0.5, 0.55, 0.75, 0.95, 1.0)
threshold_sets = st.lists(
    st.sampled_from((0.0, 0.3, 0.5, 0.55, 0.75, 0.9, 0.95, 1.0) + COCO_IOU_THRESHOLDS),
    min_size=1,
    max_size=10,
    unique=True,
).map(sorted)
iou_matrices = st.tuples(st.integers(0, 8), st.integers(0, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.sampled_from(IOU_VALUES))
)
# corners on a coarse grid: many duplicate and identical detection/gt boxes
grid_boxes = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2), st.integers(1, 2)),
    max_size=7,
).map(lambda boxes: boxes_to_array(BoundingBox(x, y, x + w, y + h) for x, y, w, h in boxes))


def lockstep_flags(matrices, thresholds):
    """The lockstep kernel on IoU matrices taken as consecutive segments,
    each with ground-truth columns of its own: one flag array per matrix."""
    parts = {"segment": [], "row": [], "col": [], "iou": []}
    rows = cols = 0
    for s, iou in enumerate(matrices):
        m, n = iou.shape
        parts["segment"].append(np.full(m, s))
        parts["row"].append(rows + np.repeat(np.arange(m), n))
        parts["col"].append(cols + np.tile(np.arange(n), m))
        parts["iou"].append(iou.ravel())
        rows, cols = rows + m, cols + n
    segment, row, col = (
        np.concatenate([np.zeros(0, np.int64), *parts[k]]) for k in ("segment", "row", "col")
    )
    iou = np.concatenate([np.zeros(0), *parts["iou"]])
    flags = _greedy_lockstep(segment, row, col, iou, cols, thresholds)
    bounds = np.cumsum([0] + [iou.shape[0] for iou in matrices])
    return [flags[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _check_against_scalar(matrices, thresholds):
    for iou, flags in zip(matrices, lockstep_flags(matrices, thresholds), strict=True):
        assert flags.shape == (iou.shape[0], len(thresholds))
        assert (flags == _greedy_flags(iou, thresholds)).all()
        for t, thr in enumerate(thresholds):
            assert flags[:, t].tolist() == _scalar_greedy_flags(iou, thr)


@settings(max_examples=300, deadline=None)
@given(iou=iou_matrices, thresholds=threshold_sets)
@example(iou=np.zeros((3, 2)), thresholds=[0.5])
@example(iou=np.full((3, 2), 1.0), thresholds=[0.5, 1.0])
@example(iou=np.array([[0.4, 0.2], [0.75, 0.75], [0.75, 0.75]]), thresholds=[0.5, 0.75, 0.8])
def test_greedy_flags_match_scalar_oracle(iou, thresholds):
    _check_against_scalar([iou], thresholds)


@settings(max_examples=200, deadline=None)
@given(matrices=st.lists(iou_matrices, max_size=5), thresholds=threshold_sets)
def test_lockstep_segments_match_scalar_oracle(matrices, thresholds):
    # every segment claims on its own, whatever the others hold
    _check_against_scalar(matrices, thresholds)


@settings(max_examples=200, deadline=None)
@given(dets=grid_boxes, gts=grid_boxes, thresholds=threshold_sets)
def test_greedy_flags_on_duplicate_boxes(dets, gts, thresholds):
    _check_against_scalar([iou_matrix(dets, gts)], thresholds)


@settings(max_examples=200, deadline=None)
@given(
    flags=st.tuples(st.integers(0, 12), st.integers(1, 10)).flatmap(lambda shape: arrays(bool, shape)),
    num_gt=st.integers(1, 12),
    recall_points=st.sampled_from((2, 11, 101)),
)
def test_category_ap_columns_match_average_precision(flags, num_gt, recall_points):
    expected = [
        average_precision(flags[:, t].tolist(), num_gt, recall_points) for t in range(flags.shape[1])
    ]
    assert _category_ap(flags, num_gt, recall_points) == expected
    assert _block_aps(flags, np.array([0]), np.array([num_gt]), recall_points)[:, 0].tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    segments=st.integers(1, 6).flatmap(
        lambda levels: st.lists(
            st.tuples(
                st.integers(0, 9).flatmap(lambda rows: arrays(bool, (rows, levels))),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=6,
        )
    ),
    recall_points=st.sampled_from((2, 11, 101)),
)
def test_block_aps_equal_oracle_per_segment(segments, recall_points):
    flags = np.concatenate([f for f, _ in segments])
    starts = np.cumsum([0] + [len(f) for f, _ in segments])[:-1]
    aps = _block_aps(flags, starts, np.array([n for _, n in segments]), recall_points)
    for s, (f, num_gt) in enumerate(segments):
        assert aps[:, s].tolist() == _category_ap(f, num_gt, recall_points)


def test_block_aps_equal_oracle_on_long_segments(rng):
    # thousands of rows and ground truths: large precision denominators and
    # recall quotients q / num_gt next to every sampled recall value
    sizes = [(3000, 1000), (2500, 37), (4000, 3999), (1, 1)]
    segments = [(rng.uniform(size=(rows, 3)) < 0.4, num_gt) for rows, num_gt in sizes]
    flags = np.concatenate([f for f, _ in segments])
    starts = np.cumsum([0] + [len(f) for f, _ in segments])[:-1]
    for recall_points in (11, 101, 1001):
        aps = _block_aps(flags, starts, np.array([n for _, n in segments]), recall_points)
        for s, (f, num_gt) in enumerate(segments):
            assert aps[:, s].tolist() == _category_ap(f, num_gt, recall_points)


# coarse boxes, two labels and a few shared scores: duplicate boxes, score
# ties and thresholds equal to a detection score all occur
SCORES = (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)
coarse_boxes = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.integers(0, 2), st.integers(0, 2), st.integers(1, 2), st.integers(1, 2),
)

# labels 2**64 + 1 and -1 make object label arrays (no int64 holds the first)
LABELS = (1, 2, 3, -1, 2**64 + 1)
labeled_dets = st.lists(
    st.builds(
        Detection, coarse_boxes, st.sampled_from(LABELS), st.sampled_from(SCORES) | st.floats(0.0, 1.0)
    ),
    max_size=8,
)
labeled_gts = st.lists(st.builds(GroundTruthInstance, coarse_boxes, st.sampled_from(LABELS)), max_size=5)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(
    images=st.lists(st.tuples(labeled_dets, labeled_gts, st.booleans()), max_size=5),
    max_detections=st.none() | st.integers(1, 4),
    thresholds=threshold_sets.filter(lambda thrs: thrs[0] > 0.0),
    recall_points=st.sampled_from((11, 101)),
    block=st.sampled_from((1, 2, 3, 7, 1 << 14)),
    data=st.data(),
)
def test_flat_table_equals_oracle(images, max_detections, thresholds, recall_points, block, data):
    """Multi-image inputs with score and IoU ties, object labels, empty
    images and categories with only ground truths, with the IoU of the
    listed pairs computed in blocks as small as one pair: the flat table
    and every kernel over it equal the per-image oracle bit for bit."""
    params = MapParams(
        iou_thresholds=tuple(thresholds), recall_points=recall_points, max_detections=max_detections
    )
    inputs = [
        (i, detection_arrays(dets) if columnar else dets, gts)
        for i, (dets, gts, columnar) in enumerate(images)
    ]
    multiset = data.draw(st.lists(st.integers(0, len(inputs) - 1), max_size=8)) if inputs else []

    entries = oracle_table(inputs, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_BLOCK_PAIRS", block)
        table = build_match_table(inputs, params)
    assert_same_entries(entries, table_entries(table))
    assert image_maps(table) == oracle_image_maps(entries, params)
    assert map_from_table(table, multiset) == oracle_map(entries, params, multiset)
    assert map_from_table(table, range(len(inputs))) == oracle_map(entries, params, range(len(inputs)))


# a floor above every score
ABOVE = float(np.nextafter(1.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(
    images=st.lists(st.tuples(labeled_dets, labeled_gts), min_size=1, max_size=4),
    max_detections=st.none() | st.integers(1, 4),
    thresholds=threshold_sets.filter(lambda thrs: thrs[0] > 0.0),
    recall_points=st.sampled_from((11, 101)),
    data=st.data(),
)
@example(
    # category 3 has only ground truths, -1 only detections, and 2**64 + 1
    # makes the labels an object array; floors repeat, out of order
    images=[
        ([Detection(B1, 2**64 + 1, 0.5), Detection(B1, -1, 0.75), Detection(B2, 1, 0.5)],
         [GroundTruthInstance(B1, 2**64 + 1), GroundTruthInstance(B3, 3)]),
        ([], [GroundTruthInstance(B2, 1)]),
    ],
    max_detections=2,
    thresholds=[0.5],
    recall_points=11,
    data=None,
)
def test_floor_maps_equal_the_map_of_each_filtered_table(
    images, max_detections, thresholds, recall_points, data
):
    """One pooling scores every floor: each floor's value equals, bit for
    bit, the mAP of the table built, matching and all, from the inputs
    filtered at that floor, and the oracle's.
    Floors above every score, 0, detection scores, unsorted and repeated;
    object labels, categories with only ground truths, a detection cap."""
    params = MapParams(
        iou_thresholds=tuple(thresholds), recall_points=recall_points, max_detections=max_detections
    )
    inputs = [(i, dets, gts) for i, (dets, gts) in enumerate(images)]
    scores = tuple(d.score for dets, _ in images for d in dets)
    if data is None:
        floors = [0.5, ABOVE, 0.0, 0.75, 0.5, 0.25]
    else:
        drawn = data.draw(st.lists(st.sampled_from(SCORES + scores) | st.floats(0.0, 1.0), max_size=5))
        floors = data.draw(st.permutations(drawn + [ABOVE, 0.0, *scores[:1]]))
    table = build_match_table(inputs, params)
    entries = oracle_table(inputs, params)
    everything = range(len(inputs))
    got = map_metric._floor_maps(table, everything, floors)
    filtered = [
        build_match_table([(i, [d for d in dets if d.score >= s], gts) for i, dets, gts in inputs], params)
        for s in floors
    ]
    assert got == [map_from_table(kept, everything).mean_ap for kept in filtered]
    assert got == [oracle_map(oracle_filter(entries, s), params, everything).mean_ap for s in floors]


@st.composite
def counted_rows(draw):
    """A group count, rows of (group, score) in any order, and floors:
    unsorted, repeated, equal to scores, -inf and above 1."""
    groups = draw(st.integers(0, 4))
    score = st.sampled_from(SCORES) | st.floats(0.0, 1.0)
    rows = draw(st.lists(st.tuples(st.integers(0, groups - 1), score), max_size=12)) if groups else []
    edges = SCORES + (-math.inf, ABOVE, 2.0) + tuple(s for _, s in rows)
    floors = draw(st.lists(st.sampled_from(edges) | st.floats(0.0, 1.0), max_size=6))
    return groups, rows, floors


@settings(max_examples=300, deadline=None)
@given(case=counted_rows())
@example(case=(3, [(2, 0.25), (0, 0.5), (2, 0.5), (0, 0.75)], [0.5, -math.inf, ABOVE, 0.25, 0.5, 2.0]))
@example(case=(2, [], [0.5, -math.inf]))
@example(case=(0, [], [0.5]))
@example(case=(2, [(1, 0.5)], []))
def test_floor_counts_equal_a_count_per_group_and_floor(case):
    """The count that cuts score-ranked lists at score floors, for the mAP
    floor scorer and the NMS tuner, equals counting ``score >= floor``
    row by row, groups without rows and no rows at all included."""
    groups, rows, floors = case
    got = _floor_counts(
        np.array([s for _, s in rows], dtype=np.float64),
        np.array([g for g, _ in rows], dtype=np.int64),
        groups,
        np.array(floors, dtype=np.float64),
    )
    assert got.shape == (groups, len(floors))
    assert got.tolist() == [
        [sum(g == group and s >= f for g, s in rows) for f in floors] for group in range(groups)
    ]


def test_map_from_table_rejects_an_index_of_no_image():
    """An image index is an integer (a bool is none) in [0, images). numpy
    would pool image 0 for 0.7, image 1 for 1.9 and True, and the last
    image for -1, and raise a bare IndexError for 2."""
    table = build_match_table(
        [(0, [Detection(B1, 1, 0.5)], [GroundTruthInstance(B1, 1)]), (1, [], [GroundTruthInstance(B2, 1)])],
        MapParams(),
    )
    cases = [
        ([0.7], "0.7"), ([1.9], "1.9"), ([True], "True"), ([-1], "-1"), ([2], "2"),
        ([0, True], "True"), (np.array([1.0]), "1.0"), (np.array([0, 2]), "2"),
    ]
    for bad, shown in cases:
        with pytest.raises(ConfigError, match=rf"^image index .* got {re.escape(shown)}$"):
            map_from_table(table, bad)
    assert map_from_table(table, []).mean_ap == 0.0
    sample = np.array([1, 0, 1], dtype=np.int64)
    assert map_from_table(table, sample) == map_from_table(table, [0, 1, 1])
    assert map_from_table(table, range(2)) == map_from_table(table, [np.int64(0), 1])


def coco_density_inputs(images, seed=0):
    """COCO's density: per 640-pixel image, 7 ground truths over 80
    categories, a detection near each and 93 low-scored ones elsewhere."""
    rng = np.random.default_rng(seed)
    inputs = []
    for image_id in range(images):
        corner = rng.uniform(0, 560, size=(100, 2))
        size = rng.uniform(20, 80, size=(100, 2))
        corner[:7] = rng.uniform(0, 560, size=(7, 2))
        boxes = np.hstack([corner, corner + size])
        gt_boxes = boxes[:7] + rng.uniform(-2, 2, size=(7, 4))
        gt_labels = rng.integers(1, 81, size=7)
        labels = np.concatenate([gt_labels, rng.integers(1, 81, size=93)])
        scores = np.concatenate([rng.uniform(0.5, 1.0, size=7), rng.uniform(0.0, 0.3, size=93)])
        inputs.append((
            image_id,
            DetectionArrays(boxes, labels, scores),
            GroundTruthArrays(gt_boxes, gt_labels, np.zeros(7, dtype=bool)),
        ))
    return inputs


def _peak_bytes(fn):
    """Peak of the memory ``fn`` allocates, numpy buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_map_kernels_work_in_bounded_blocks():
    """From 200 to 1000 COCO-density images, the peak memory of the AP
    kernels grows by a bounded amount per added table row: 32 bytes for
    ``image_maps``, which keeps a few values per segment, and 128 bytes
    for ``map_from_table``, which also gathers and sorts the pooled rows.
    The samples of an unblocked AP kernel cost well over 1000 bytes a row
    (10 thresholds x 101 recall points per scored segment)."""
    tables = {n: build_match_table(coco_density_inputs(n), MapParams()) for n in (200, 1000)}
    added = len(tables[1000].scores) - len(tables[200].scores)
    kernels = {
        "image_maps": (image_maps, 32),
        "map_from_table": (lambda table: map_from_table(table, range(table.images)), 128),
    }
    for name, (kernel, per_row) in kernels.items():
        peaks = {n: _peak_bytes(lambda: kernel(table)) for n, table in tables.items()}
        assert peaks[1000] - peaks[200] <= per_row * added, (name, peaks)
