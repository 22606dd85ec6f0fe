import math

import numpy as np
import pytest

from oceval import (
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    OcCostParams,
    ValidationError,
    dataset_oc_cost,
    image_oc_cost,
    lambda_sweep,
)

from conftest import random_scene, transformed

BOX = BoundingBox(0, 0, 10, 10)
FAR_BOX = BoundingBox(200, 200, 210, 210)


def test_perfect_detection_costs_zero():
    det = Detection(BOX, 1, 1.0)
    gt = GroundTruthInstance(BOX, 1)
    result = image_oc_cost([det], [gt], OcCostParams(0.5, 0.6))
    assert result.oc_cost == 0.0
    assert result.matched_pairs == 1


# A plain mean of N copies of beta is inexact from N = 3 for 0.05, 0.1
# and 0.7, and from N = 109 for 0.3 and 0.6.
ONE_SIDED_BETAS = (0.05, 0.1, 0.3, 0.6, 0.7, 1.0)
ONE_SIDED_COUNTS = (1, 2, 3, 109)


def test_empty_sides_cost_exactly_beta():
    gt = GroundTruthInstance(BOX, 1)
    det = Detection(BOX, 1, 1.0)
    for beta in ONE_SIDED_BETAS:
        params = OcCostParams(0.5, beta)
        for count in ONE_SIDED_COUNTS:
            assert image_oc_cost([], [gt] * count, params).oc_cost == beta
            assert image_oc_cost([det] * count, [], params).oc_cost == beta
            for inputs in ([(1, [], [gt] * count)], [(1, [det] * count, [])]):
                assert lambda_sweep(inputs, [0.0, 0.5, 1.0], beta) == [(0.0, beta), (0.5, beta), (1.0, beta)]
    assert image_oc_cost([], [], OcCostParams()).oc_cost == 0.0


def test_duplicate_perfect_detection():
    det = Detection(BOX, 1, 1.0)
    gt = GroundTruthInstance(BOX, 1)
    result = image_oc_cost([det, det], [gt], OcCostParams(0.5, 0.6))
    # one match at 0, one false positive at beta, mass 2
    assert result.oc_cost == pytest.approx(0.3, abs=1e-9)
    assert result.matched_pairs == 1


def test_dummy_cost_caps_matched_pair_cost():
    # perfectly localized but mislabeled, score 1: pair cost 0.5
    det = Detection(BOX, 2, 1.0)
    gt = GroundTruthInstance(BOX, 1)
    accepted = image_oc_cost([det], [gt], OcCostParams(0.5, 0.6), with_breakdown=True)
    assert accepted.oc_cost == pytest.approx(0.5, abs=1e-9)
    assert accepted.matched_pairs == 1
    matched = [p for p in accepted.per_pair_breakdown if p.det_index is not None and p.gt_index is not None]
    assert len(matched) == 1
    assert matched[0].cost == pytest.approx(0.5)

    rejected = image_oc_cost([det], [gt], OcCostParams(0.5, 0.3), with_breakdown=True)
    assert rejected.oc_cost == pytest.approx(0.3, abs=1e-9)
    assert rejected.matched_pairs == 0
    assert all(p.det_index is None or p.gt_index is None for p in rejected.per_pair_breakdown)


def test_breakdown_sums_to_cost(rng):
    for _ in range(50):
        dets, gts = random_scene(rng)
        if not dets and not gts:
            continue
        result = image_oc_cost(dets, gts, OcCostParams(), with_breakdown=True)
        mass = len(dets) + len(gts) - result.matched_pairs
        total = math.fsum(p.cost for p in result.per_pair_breakdown)
        assert result.oc_cost == pytest.approx(total / mass, abs=1e-12)


def test_breakdown_lists_every_unit_once_in_order(rng):
    # matched pairs by detection, then unmatched detections, then unmatched
    # ground truths: m + n - k entries naming each box once
    def group(p):
        if p.gt_index is None:
            return (1, p.det_index)
        if p.det_index is None:
            return (2, p.gt_index)
        return (0, p.det_index)

    for _ in range(200):
        dets, gts = random_scene(rng, max_m=6, max_n=6)
        result = image_oc_cost(dets, gts, OcCostParams(0.5, 0.6), with_breakdown=True)
        breakdown = list(result.per_pair_breakdown)
        k = result.matched_pairs
        assert len(breakdown) == len(dets) + len(gts) - k
        assert breakdown == sorted(breakdown, key=group)
        assert sum(group(p)[0] == 0 for p in breakdown) == k
        named_dets = sorted(p.det_index for p in breakdown if p.det_index is not None)
        named_gts = sorted(p.gt_index for p in breakdown if p.gt_index is not None)
        assert named_dets == list(range(len(dets)))
        assert named_gts == list(range(len(gts)))


def test_range_and_permutation_invariance(rng):
    for _ in range(200):
        dets, gts = random_scene(rng)
        result = image_oc_cost(dets, gts, OcCostParams()).oc_cost
        assert 0.0 <= result <= 1.0
        perm_d = [dets[i] for i in rng.permutation(len(dets))]
        perm_g = [gts[i] for i in rng.permutation(len(gts))]
        assert image_oc_cost(perm_d, perm_g, OcCostParams()).oc_cost == result


def test_scale_translation_invariance(rng):
    for _ in range(100):
        dets, gts = random_scene(rng)
        base = image_oc_cost(dets, gts, OcCostParams()).oc_cost
        factor = float(rng.uniform(0.2, 8.0))
        dx, dy = float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30))
        moved_d = [Detection(transformed(d.box, factor, dx, dy), d.label, d.score) for d in dets]
        moved_g = [GroundTruthInstance(transformed(g.box, factor, dx, dy), g.label) for g in gts]
        assert image_oc_cost(moved_d, moved_g, OcCostParams()).oc_cost == pytest.approx(
            base, abs=1e-9
        )


def test_dataset_mean_and_order_invariance(rng):
    inputs = []
    for image_id in range(12):
        dets, gts = random_scene(rng)
        inputs.append((image_id, dets, gts))
    report = dataset_oc_cost(inputs, OcCostParams())
    assert report.image_count == 12
    per_image = [r.oc_cost for r in report.per_image]
    assert report.mean_oc_cost == math.fsum(per_image) / 12
    assert [r.image_id for r in report.per_image] == list(range(12))

    shuffled = [inputs[i] for i in rng.permutation(12)]
    report2 = dataset_oc_cost(shuffled, OcCostParams())
    assert report2.mean_oc_cost == report.mean_oc_cost


def test_dataset_jobs_bit_identical(rng):
    inputs = []
    for image_id in range(30):
        dets, gts = random_scene(rng)
        inputs.append((image_id, dets, gts))
    serial = dataset_oc_cost(inputs, OcCostParams(), jobs=1)
    parallel = dataset_oc_cost(inputs, OcCostParams(), jobs=4)
    assert serial.mean_oc_cost == parallel.mean_oc_cost
    assert [r.oc_cost for r in serial.per_image] == [r.oc_cost for r in parallel.per_image]


def test_dataset_validation():
    with pytest.raises(ValidationError):
        dataset_oc_cost([], OcCostParams())
    with pytest.raises(ConfigError):
        dataset_oc_cost([(1, [], [])], OcCostParams(), jobs=0)


def test_lambda_sweep_on_mislabeled_scene():
    det = Detection(BOX, 2, 1.0)
    gt = GroundTruthInstance(BOX, 1)
    inputs = [(1, [det], [gt])]
    rows = lambda_sweep(inputs, [0.0, 0.5, 1.0], beta=1.0)
    values = [v for _, v in rows]
    assert values == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)


def test_lambda_sweep_jobs_bit_identical_with_one_pool(rng, count_pools):
    inputs = [(image_id, *random_scene(rng)) for image_id in range(20)]
    lambdas = [0.0, 0.3, 0.5, 1.0]
    serial = lambda_sweep(inputs, lambdas, beta=0.6, jobs=1)
    assert serial == [
        (lam, dataset_oc_cost(inputs, OcCostParams(lam, 0.6)).mean_oc_cost) for lam in lambdas
    ]
    assert count_pools() == 0
    assert lambda_sweep(inputs, lambdas, beta=0.6, jobs=2) == serial
    assert count_pools() == 1


def test_lambda_sweep_equals_per_lambda_image_cost(rng):
    # one precompute per image, blended per weight, gives the same value as
    # evaluating each image at each weight, including images with an empty side
    inputs = [(image_id, *random_scene(rng, max_m=6, max_n=5)) for image_id in range(60)]
    dets, gts = random_scene(rng, max_m=3, max_n=3)
    inputs += [(60, [], []), (61, [], gts or [GroundTruthInstance(BOX, 1)])]
    inputs += [(62, dets or [Detection(BOX, 1, 0.5)], [])]
    lambdas = [0.0, 0.2, 0.5, 0.9, 1.0]
    for beta in (0.0, 0.3, 0.6, 1.0):
        per_image = [
            [image_oc_cost(d, g, OcCostParams(lam, beta)).oc_cost for lam in lambdas]
            for _, d, g in inputs
        ]
        for item, expected in zip(inputs, per_image):
            assert [v for _, v in lambda_sweep([item], lambdas, beta)] == expected
        rows = lambda_sweep(inputs, lambdas, beta)
        assert rows == [
            (lam, math.fsum(column) / len(inputs)) for lam, column in zip(lambdas, zip(*per_image))
        ]


def test_lambda_sweep_repeated_lambda(rng):
    inputs = [(image_id, *random_scene(rng, max_m=6, max_n=5)) for image_id in range(20)]
    lambdas = [0.5, 0.5, 1.0]
    assert lambda_sweep(inputs, lambdas, beta=0.6) == [
        (lam, dataset_oc_cost(inputs, OcCostParams(lam, 0.6)).mean_oc_cost) for lam in lambdas
    ]


def test_lambda_sweep_validation():
    for bad in (1.5, -0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="loc_weight must lie in"):
            lambda_sweep([(1, [], [])], [0.5, bad], beta=0.6)
    with pytest.raises(ConfigError, match="lambda list is empty"):
        lambda_sweep([(1, [], [])], [], beta=0.6)


def test_mass_normalization_example():
    # two dets, one gt, only one pairing below beta: k = 1, mass = 2
    near = Detection(BoundingBox(1, 1, 11, 11), 1, 0.9)
    far = Detection(FAR_BOX, 1, 0.9)
    gt = GroundTruthInstance(BOX, 1)
    result = image_oc_cost([near, far], [gt], OcCostParams(0.5, 0.6), with_breakdown=True)
    assert result.matched_pairs == 1
    assert result.num_detections == 2
    assert result.num_ground_truths == 1
    matched_cost = [
        p.cost for p in result.per_pair_breakdown if p.det_index is not None and p.gt_index is not None
    ][0]
    assert result.oc_cost == pytest.approx((matched_cost + 0.6) / 2, abs=1e-12)
