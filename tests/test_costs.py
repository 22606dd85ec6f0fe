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
    image_oc_cost,
)
from oceval.costs import _blend, _cell_terms, detection_arrays, ground_truth_arrays
from oceval.geometry import _iou, boxes_to_array
from oceval.map_metric import _pair_ious

from conftest import random_scene
from oracles import classification_cost, giou, iou, localization_cost, unit_cost, unit_cost_matrix

BOX = BoundingBox(0, 0, 10, 10)


def cell_terms(dets, gts, det_rows, gt_rows):
    """The kernel's terms of the cells (det_rows[c], gt_rows[c])."""
    return _cell_terms(detection_arrays(dets), ground_truth_arrays(gts), det_rows, gt_rows)


def every_cell(m, n):
    """The cells of an m x n problem, row by row."""
    return np.divmod(np.arange(m * n), max(n, 1))


def test_detection_score_validation():
    with pytest.raises(ValueError):
        Detection(BOX, 1, 1.5)
    with pytest.raises(ValueError):
        Detection(BOX, 1, -0.1)


@pytest.mark.parametrize("score", [True, False, np.bool_(True), "0.5", None, [0.5]])
def test_a_score_that_is_no_real_number_is_rejected(score):
    # a bool is no score, and a string is not parsed into one
    with pytest.raises(ValueError, match="^detection score must be a real number"):
        Detection(BOX, 1, score)


@pytest.mark.parametrize("score", [0, 1, 0.5, np.float32(0.25), np.float64(0.5), np.int64(1)])
def test_python_and_numpy_real_scores_are_accepted(score):
    assert Detection(BOX, 1, score).score == score


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
    entries = _blend(*cell_terms(dets, gts, *every_cell(2, 2)), params).reshape(2, 2)
    np.testing.assert_array_equal(entries, unit_cost_matrix(dets, gts, params))
    assert entries[0, 0] == unit_cost(dets[0], gts[0], params) == (1.0 - 0.9) / 4


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


def test_cell_terms_match_the_scalar_oracles(rng):
    # every cell's two terms and their blend under any weight are the
    # scalar localization, classification and unit costs, bit for bit
    for _ in range(50):
        dets, gts = random_scene(rng, max_m=6, max_n=4)
        rows, cols = every_cell(len(dets), len(gts))
        loc, cls = cell_terms(dets, gts, rows, cols)
        for c, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            det, gt = dets[i], gts[j]
            assert loc[c] == localization_cost(det.box, gt.box)
            assert cls[c] == classification_cost(det.score, det.label, gt.label)
        for lam in (0.0, 0.25, 0.3, 0.5, 1.0):
            params = OcCostParams(lam, 0.6)
            blended = _blend(loc, cls, params).reshape(len(dets), len(gts))
            np.testing.assert_array_equal(blended, unit_cost_matrix(dets, gts, params))


def test_cell_terms_are_the_same_bits_in_any_list(rng):
    # a cell's terms do not depend on the other cells listed with it: any
    # subset of the cells, in any order and with repeats, gives the same
    # bits as the whole m x n list
    for _ in range(50):
        dets, gts = random_scene(rng, max_m=6, max_n=4)
        m, n = len(dets), len(gts)
        whole = [t.reshape(m, n) for t in cell_terms(dets, gts, *every_cell(m, n))]
        rows = rng.integers(0, max(m, 1), size=7 if m and n else 0)
        cols = rng.integers(0, max(n, 1), size=len(rows))
        for listed, full in zip(cell_terms(dets, gts, rows, cols), whole):
            np.testing.assert_array_equal(listed, full[rows, cols])


def test_degenerate_flag():
    # a side with no boxes lists no cells, and its image pays beta per unit
    for m, n in ((0, 0), (0, 1), (2, 0)):
        dets, gts = [Detection(BOX, 1, 1.0)] * m, [GroundTruthInstance(BOX, 1)] * n
        loc, cls = cell_terms(dets, gts, *every_cell(m, n))
        assert loc.shape == cls.shape == (0,)
        plan = image_oc_cost(dets, gts, OcCostParams()).plan
        assert len(plan.costs) == 0
        assert plan.unmatched_detections.tolist() == list(range(m))
        assert plan.unmatched_ground_truths.tolist() == list(range(n))


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
    rows, cols = every_cell(len(a), len(b))
    gious = _iou(a[rows], b[cols], generalized=True)
    assert ((gious >= -1.0) & (gious <= 1.0)).all()
    for terms in cell_terms(dets, gts, rows, cols):
        assert ((terms >= 0.0) & (terms <= 1.0)).all()
    params = OcCostParams(loc_weight, dummy_cost)
    assert 0.0 <= image_oc_cost(dets, gts, params).oc_cost <= 1.0
