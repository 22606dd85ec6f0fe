import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oceval import (
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    OcCostParams,
    build_problem,
    image_oc_cost,
    pairwise_giou,
)
from oceval.costs import _blend, _pair_terms
from oceval.geometry import boxes_to_array
from oceval.map_metric import _pair_ious

from oracles import classification_cost, giou, iou, localization_cost, unit_cost

BOX = BoundingBox(0, 0, 10, 10)


def test_detection_score_validation():
    with pytest.raises(ValueError):
        Detection(BOX, 1, 1.5)
    with pytest.raises(ValueError):
        Detection(BOX, 1, -0.1)


@pytest.mark.parametrize("label", ["1", " 7 ", 1.5, 1.0, True, None])
def test_a_label_that_is_no_integer_is_rejected(label):
    # a label is compared as it is, never parsed or truncated into a class id
    with pytest.raises(ValueError, match="^detection label must be an integer"):
        Detection(BOX, label, 1.0)
    with pytest.raises(ValueError, match="^ground truth label must be an integer"):
        GroundTruthInstance(BOX, label)


@pytest.mark.parametrize("label", [1, np.int64(1), 2**70])
def test_integer_labels_price_as_the_scalar_oracle(label):
    params = OcCostParams(0.5, 0.6)
    dets = [Detection(BOX, label, 0.9), Detection(BoundingBox(2, 2, 12, 12), 2, 0.8)]
    gts = [GroundTruthInstance(BOX, int(label)), GroundTruthInstance(BoundingBox(1, 0, 11, 10), 2)]
    cm = build_problem(dets, gts, params)
    for i, det in enumerate(dets):
        for j, gt in enumerate(gts):
            assert cm.entries[i, j] == unit_cost(det, gt, params)
    assert cm.entries[0, 0] == unit_cost(dets[0], gts[0], params) == (1.0 - 0.9) / 4


def test_params_validation():
    with pytest.raises(ConfigError):
        OcCostParams(loc_weight=1.5)
    with pytest.raises(ConfigError):
        OcCostParams(dummy_cost=-0.1)
    p = OcCostParams()
    assert p.loc_weight == 0.5
    assert p.dummy_cost == 0.6


def test_localization_cost_values():
    assert localization_cost(BOX, BOX) == 0.0
    # giou -1/3 for boxes separated by one width
    far = BoundingBox(20, 0, 30, 10)
    assert localization_cost(BOX, far) == pytest.approx((1 + 1 / 3) / 2)


def test_classification_cost_values():
    assert classification_cost(1.0, 1, 1) == 0.0
    assert classification_cost(1.0, 1, 2) == 1.0
    assert classification_cost(0.5, 1, 1) == 0.25
    assert classification_cost(0.5, 1, 2) == 0.75
    assert classification_cost(0.0, 1, 1) == 0.5
    assert classification_cost(0.0, 1, 2) == 0.5


def test_unit_cost_blends():
    det = Detection(BOX, 1, 1.0)
    gt_same = GroundTruthInstance(BOX, 1)
    gt_other = GroundTruthInstance(BOX, 2)
    assert unit_cost(det, gt_same, OcCostParams(0.5, 0.6)) == 0.0
    # perfect box, wrong label, score 1: cost = (1 - lam) * 1
    assert unit_cost(det, gt_other, OcCostParams(0.5, 0.6)) == 0.5
    assert unit_cost(det, gt_other, OcCostParams(0.0, 0.6)) == 1.0
    assert unit_cost(det, gt_other, OcCostParams(1.0, 0.6)) == 0.0


def test_build_problem_perfect_single():
    det = Detection(BOX, 1, 1.0)
    gt = GroundTruthInstance(BOX, 1)
    cm = build_problem([det], [gt], OcCostParams(0.5, 0.6))
    # one unit per detection and per ground truth: the capacities are (m, n)
    assert cm.entries.shape == (1, 1)
    np.testing.assert_array_equal(cm.entries, [[0.0]])
    assert cm.dummy_cost == 0.6


def test_build_problem_no_detections():
    gts = [GroundTruthInstance(BOX, 1), GroundTruthInstance(BoundingBox(20, 0, 30, 10), 2)]
    cm = build_problem([], gts, OcCostParams(0.5, 0.6))
    assert cm.entries.shape == (0, 2)
    assert cm.dummy_cost == 0.6


def test_build_problem_duplicate_detections():
    det = Detection(BOX, 1, 1.0)
    gt = GroundTruthInstance(BOX, 1)
    cm = build_problem([det, det], [gt], OcCostParams(0.5, 0.6))
    assert cm.entries.shape == (2, 1)
    np.testing.assert_array_equal(cm.entries, [[0.0], [0.0]])
    assert cm.dummy_cost == 0.6


def test_build_problem_matches_scalar_unit_cost(rng):
    from conftest import random_scene

    dets, gts = random_scene(rng, max_m=4, max_n=4)
    params = OcCostParams(0.25, 0.6)
    cm = build_problem(dets, gts, params)
    assert cm.entries.shape == (len(dets), len(gts))
    for i, det in enumerate(dets):
        for j, gt in enumerate(gts):
            assert cm.entries[i, j] == unit_cost(det, gt, params)


def test_build_problem_is_the_blend_of_one_precompute(rng):
    # the weight-independent terms blended under any weight, and any row
    # subset of the blend, equal building the problem directly, bit for bit
    from conftest import random_scene

    for _ in range(50):
        dets, gts = random_scene(rng, max_m=6, max_n=4)
        loc, cls = _pair_terms(dets, gts)
        for lam in (0.0, 0.3, 0.5, 1.0):
            params = OcCostParams(lam, 0.6)
            blended = _blend(loc, cls, params)
            direct = build_problem(dets, gts, params)
            np.testing.assert_array_equal(blended, direct.entries)
            assert direct.dummy_cost == params.dummy_cost
            rows = [i for i in range(len(dets)) if rng.uniform() < 0.5][::-1]
            subset = build_problem([dets[i] for i in rows], gts, params)
            np.testing.assert_array_equal(direct.entries[rows].reshape(subset.entries.shape), subset.entries)


def test_degenerate_flag():
    cm = build_problem([], [], OcCostParams())
    assert cm.entries.shape == (0, 0)
    assert build_problem([], [GroundTruthInstance(BOX, 1)], OcCostParams()).entries.shape == (0, 1)


def edge_box(origin, dx, dy, w, h):
    """A box at ``origin`` + (dx, dy) of sides w and h; a side whose end
    rounds back to its start is made one ulp wide."""
    x1, y1 = origin + dx, origin + dy
    x2, y2 = x1 + w, y1 + h
    x2, y2 = max(x2, math.nextafter(x1, math.inf)), max(y2, math.nextafter(y1, math.inf))
    return BoundingBox(x1, y1, x2, y2)


# corners near 0 and near +-1e9, sides from a few ulps (subpixel) to 1e9
edge_boxes = st.builds(
    edge_box,
    st.sampled_from((0.0, 0.5, 1e9, -1e9, 123456789.123)),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.floats(1e-9, 1e-3) | st.floats(1e-3, 1e9),
    st.floats(1e-9, 1e-3) | st.floats(1e-3, 1e9),
)
edge_scenes = st.tuples(
    st.lists(st.builds(Detection, edge_boxes, st.integers(1, 2), st.floats(0.0, 1.0)), max_size=5),
    st.lists(st.builds(GroundTruthInstance, edge_boxes, st.integers(1, 2)), max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(scene=edge_scenes, loc_weight=st.floats(0.0, 1.0), dummy_cost=st.floats(0.0, 1.0))
def test_costs_stay_in_range_on_huge_and_subpixel_boxes(scene, loc_weight, dummy_cost):
    """Coordinates of 1e9 and boxes a few ulps wide lose precision in GIoU,
    but IoU stays in [0, 1], GIoU in [-1, 1], every pair cost and the
    image's OC-cost in [0, 1]."""
    dets, gts = scene
    for det in dets:
        for gt in gts:
            assert 0.0 <= iou(det.box, gt.box) <= 1.0
            assert -1.0 <= giou(det.box, gt.box) <= 1.0
    a, b = boxes_to_array(d.box for d in dets), boxes_to_array(g.box for g in gts)
    listed = _pair_ious(a, b, np.zeros(len(a), int), np.full(len(a), len(b)), -1.0)[2]
    assert len(listed) == len(a) * len(b) and ((listed >= 0.0) & (listed <= 1.0)).all()
    assert ((pairwise_giou(a, b) >= -1.0) & (pairwise_giou(a, b) <= 1.0)).all()
    for terms in _pair_terms(dets, gts):
        assert ((terms >= 0.0) & (terms <= 1.0)).all()
    params = OcCostParams(loc_weight, dummy_cost)
    assert 0.0 <= image_oc_cost(dets, gts, params).oc_cost <= 1.0
