import numpy as np
import pytest

from oceval import (
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    OcCostParams,
    build_problem,
    classification_cost,
    localization_cost,
    unit_cost,
)
from oceval.costs import _blend, _pair_terms

BOX = BoundingBox(0, 0, 10, 10)


def test_detection_score_validation():
    with pytest.raises(ValueError):
        Detection(BOX, 1, 1.5)
    with pytest.raises(ValueError):
        Detection(BOX, 1, -0.1)


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
    assert (cm.m, cm.n) == (1, 1)
    np.testing.assert_array_equal(cm.entries, [[0.0]])
    assert cm.dummy_cost == 0.6


def test_build_problem_no_detections():
    gts = [GroundTruthInstance(BOX, 1), GroundTruthInstance(BoundingBox(20, 0, 30, 10), 2)]
    cm = build_problem([], gts, OcCostParams(0.5, 0.6))
    assert cm.entries.shape == (0, 2)
    assert (cm.m, cm.n) == (0, 2)
    assert cm.dummy_cost == 0.6


def test_build_problem_duplicate_detections():
    det = Detection(BOX, 1, 1.0)
    gt = GroundTruthInstance(BOX, 1)
    cm = build_problem([det, det], [gt], OcCostParams(0.5, 0.6))
    assert (cm.m, cm.n) == (2, 1)
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
            np.testing.assert_array_equal(blended.entries, direct.entries)
            assert blended.dummy_cost == direct.dummy_cost
            rows = [i for i in range(len(dets)) if rng.uniform() < 0.5][::-1]
            subset = build_problem([dets[i] for i in rows], gts, params)
            np.testing.assert_array_equal(direct.entries[rows].reshape(subset.entries.shape), subset.entries)


def test_degenerate_flag():
    cm = build_problem([], [], OcCostParams())
    assert cm.degenerate
    assert cm.entries.shape == (0, 0)
    assert not build_problem([], [GroundTruthInstance(BOX, 1)], OcCostParams()).degenerate
