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
    average_precision,
    dataset_map,
    match_greedy,
    single_image_map,
)
from oceval.geometry import boxes_to_array, pairwise_iou
from oceval.map_metric import (
    COCO_IOU_THRESHOLDS,
    _category_ap,
    _greedy_flags,
    build_match_table,
    filter_table,
    image_maps,
    map_from_table,
)

B1 = BoundingBox(0, 0, 10, 10)
B2 = BoundingBox(100, 0, 110, 10)
B3 = BoundingBox(0, 100, 10, 110)


def test_params_validation():
    with pytest.raises(ConfigError):
        MapParams(iou_thresholds=())
    with pytest.raises(ConfigError):
        MapParams(iou_thresholds=(0.9, 0.5))
    with pytest.raises(ConfigError):
        MapParams(iou_thresholds=(0.0, 0.5))
    with pytest.raises(ConfigError):
        MapParams(recall_points=1)
    assert MapParams().iou_thresholds == COCO_IOU_THRESHOLDS
    assert MapParams.voc().iou_thresholds == (0.5,)
    assert MapParams.voc().recall_points == 11


def test_average_precision_hand_values():
    # one gt; fp then tp: precision envelope is 0.5 everywhere
    assert average_precision([False, True], 1) == pytest.approx(0.5)
    # two gts; tp then fp: recall stops at 0.5 with precision 1
    assert average_precision([True, False], 2) == pytest.approx(51 / 101)
    assert average_precision([True], 1) == 1.0
    assert average_precision([], 3) == 0.0
    assert average_precision([], 0) is None
    assert average_precision([False], 0) == 0.0


def test_average_precision_recall_points():
    # coarser sampling changes the interpolation grid
    assert average_precision([True, False], 2, recall_points=11) == pytest.approx(6 / 11)


def test_match_greedy_prefers_higher_scores():
    dets = [Detection(B1, 1, 0.6), Detection(B1, 1, 0.9)]
    gts = [GroundTruthInstance(B1, 1)]
    matches = match_greedy(dets, gts, category=1, iou_threshold=0.5)
    # higher-scored det matches; duplicate becomes a false positive
    assert matches == [(1, True), (0, False)]


def test_match_greedy_ignores_other_categories():
    dets = [Detection(B1, 2, 0.9)]
    gts = [GroundTruthInstance(B1, 1)]
    assert match_greedy(dets, gts, category=1, iou_threshold=0.5) == []
    assert match_greedy(dets, gts, category=2, iou_threshold=0.5) == [(0, False)]


def test_match_greedy_takes_best_iou():
    shifted = BoundingBox(2, 0, 12, 10)
    dets = [Detection(shifted, 1, 0.9)]
    gts = [GroundTruthInstance(B2, 1), GroundTruthInstance(B1, 1)]
    matches = match_greedy(dets, gts, category=1, iou_threshold=0.5)
    assert matches == [(0, True)]


def test_match_greedy_iou_tie_claims_first_gt():
    # IoU 1/3 with both ground truths; claiming the first leaves the second
    # for the exact detection (COCOeval would claim the last, docs/reproducing.md)
    right = BoundingBox(10, 0, 20, 10)
    dets = [Detection(BoundingBox(5, 0, 15, 10), 1, 0.9), Detection(right, 1, 0.5)]
    gts = [GroundTruthInstance(B1, 1), GroundTruthInstance(right, 1)]
    assert match_greedy(dets, gts, category=1, iou_threshold=0.3) == [(0, True), (1, True)]


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


def test_single_image_conventions():
    assert single_image_map([], []) == 1.0
    assert single_image_map([], [GroundTruthInstance(B1, 1)]) == 0.0
    assert single_image_map([Detection(B1, 1, 0.9)], []) == 0.0
    assert single_image_map([Detection(B1, 1, 0.9)], [GroundTruthInstance(B1, 1)]) == 1.0


def test_single_image_map_scores_only_kept_detections():
    # the capped-away category-2 detection has no ground truth and is not scored
    dets = [Detection(B1, 1, 0.9), Detection(B2, 2, 0.2)]
    gts = [GroundTruthInstance(B1, 1)]
    assert single_image_map(dets, gts, MapParams(max_detections=1)) == 1.0
    assert single_image_map(dets, gts) == 0.5


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


def _check_against_scalar(iou, thresholds):
    flags = _greedy_flags(iou, thresholds)
    assert flags.shape == (iou.shape[0], len(thresholds))
    for t, thr in enumerate(thresholds):
        assert flags[:, t].tolist() == _scalar_greedy_flags(iou, thr)


@settings(max_examples=300, deadline=None)
@given(iou=iou_matrices, thresholds=threshold_sets)
@example(iou=np.zeros((3, 2)), thresholds=[0.5])
@example(iou=np.full((3, 2), 1.0), thresholds=[0.5, 1.0])
@example(iou=np.array([[0.4, 0.2], [0.75, 0.75], [0.75, 0.75]]), thresholds=[0.5, 0.75, 0.8])
def test_greedy_flags_match_scalar_oracle(iou, thresholds):
    _check_against_scalar(iou, thresholds)


@settings(max_examples=200, deadline=None)
@given(dets=grid_boxes, gts=grid_boxes, thresholds=threshold_sets)
def test_greedy_flags_on_duplicate_boxes(dets, gts, thresholds):
    _check_against_scalar(pairwise_iou(dets, gts), thresholds)


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


# coarse boxes, two labels and a few shared scores: duplicate boxes, score
# ties and thresholds equal to a detection score all occur
SCORES = (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)
coarse_boxes = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.integers(0, 2), st.integers(0, 2), st.integers(1, 2), st.integers(1, 2),
)
coarse_dets = st.lists(
    st.builds(Detection, coarse_boxes, st.integers(1, 2), st.sampled_from(SCORES) | st.floats(0.0, 1.0)),
    max_size=8,
)
coarse_gts = st.lists(st.builds(GroundTruthInstance, coarse_boxes, st.integers(1, 2)), max_size=5)


@settings(max_examples=200, deadline=None)
@given(
    images=st.lists(st.tuples(coarse_dets, coarse_gts), min_size=1, max_size=4),
    max_detections=st.none() | st.integers(1, 4),
    thresholds=threshold_sets.filter(lambda thrs: thrs[0] > 0.0),
    data=st.data(),
)
def test_filter_table_equals_table_of_filtered_inputs(images, max_detections, thresholds, data):
    scores = [d.score for dets, _ in images for d in dets]
    score_threshold = data.draw(st.sampled_from(SCORES + tuple(scores)) | st.floats(0.0, 1.0))
    params = MapParams(iou_thresholds=tuple(thresholds), max_detections=max_detections)
    inputs = [(i, dets, gts) for i, (dets, gts) in enumerate(images)]
    filtered = [(i, [d for d in dets if d.score >= score_threshold], gts) for i, dets, gts in inputs]

    expected = build_match_table(filtered, params)
    sliced = filter_table(build_match_table(inputs, params), score_threshold)
    for want, got in zip(expected.entries, sliced.entries, strict=True):
        assert list(want) == list(got)
        for (gt_w, scores_w, flags_w), (gt_g, scores_g, flags_g) in zip(want.values(), got.values()):
            assert gt_w == gt_g
            assert scores_w.tolist() == scores_g.tolist()
            assert flags_w.shape == flags_g.shape and (flags_w == flags_g).all()
    multiset = list(range(len(inputs))) + [0]
    assert map_from_table(sliced, multiset) == map_from_table(expected, multiset)
    assert image_maps(sliced) == image_maps(expected)
