import contextlib
import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oceval.occost
import oceval.transport
from oceval import geometry
from oceval import (
    BootstrapConfig,
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    OcCostParams,
    ValidationError,
    dataset_oc_cost,
    image_oc_cost,
    lambda_sweep,
    run_bootstrap,
    trial_sample,
)
from oceval.costs import image_arrays
from oceval.occost import map_images
from oceval.transport import _TIE_EPSILON, _checked_gains

from conftest import kernel_step, random_scene, transformed
from oracles import (
    brute_force_solve,
    classification_cost,
    localization_cost,
    ratio_optimum,
    unit_cost_matrix,
)

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
    accepted = image_oc_cost([det], [gt], OcCostParams(0.5, 0.6))
    assert accepted.oc_cost == pytest.approx(0.5, abs=1e-9)
    assert accepted.matched_pairs == 1
    assert len(accepted.plan.costs) == 1
    assert accepted.plan.costs[0] == pytest.approx(0.5)

    rejected = image_oc_cost([det], [gt], OcCostParams(0.5, 0.3))
    assert rejected.oc_cost == pytest.approx(0.3, abs=1e-9)
    assert rejected.matched_pairs == 0
    assert len(rejected.plan.det_indices) == len(rejected.plan.gt_indices) == 0
    assert rejected.plan.unmatched_detections.tolist() == [0]
    assert rejected.plan.unmatched_ground_truths.tolist() == [0]


def test_breakdown_sums_to_cost(rng):
    # the plan pays the image's cost: its pairs' costs plus beta per
    # unmatched unit over m + n - k, and the kernel's exact normalisation
    # of its pair costs bit for bit
    for _ in range(50):
        dets, gts = random_scene(rng)
        params = OcCostParams()
        result = image_oc_cost(dets, gts, params)
        plan, beta = result.plan, params.dummy_cost
        assert result.oc_cost == oceval.occost._problem_cost(
            plan.costs.tolist(), beta, len(dets), len(gts)
        )
        if not dets and not gts:
            continue
        mass = len(dets) + len(gts) - result.matched_pairs
        unmatched = len(plan.unmatched_detections) + len(plan.unmatched_ground_truths)
        total = math.fsum(plan.costs.tolist() + [beta] * unmatched)
        assert result.oc_cost == pytest.approx(total / mass, abs=1e-12)


def test_breakdown_lists_every_unit_once_in_order(rng):
    # the plan partitions the units: the matched detections (in ascending
    # order) and the unmatched ones (ascending) together name every
    # detection once, and the ground-truth side every ground truth once
    for _ in range(200):
        dets, gts = random_scene(rng, max_m=6, max_n=6)
        result = image_oc_cost(dets, gts, OcCostParams(0.5, 0.6))
        plan, k = result.plan, result.matched_pairs
        matched_dets, matched_gts = plan.det_indices.tolist(), plan.gt_indices.tolist()
        free_dets = plan.unmatched_detections.tolist()
        free_gts = plan.unmatched_ground_truths.tolist()
        assert len(matched_dets) == len(matched_gts) == k
        for field in (plan.costs, plan.loc_costs, plan.cls_costs):
            assert field.shape == (k,)
        assert matched_dets == sorted(matched_dets)
        assert free_dets == sorted(free_dets) and free_gts == sorted(free_gts)
        assert sorted(matched_dets + free_dets) == list(range(len(dets)))
        assert sorted(matched_gts + free_gts) == list(range(len(gts)))


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
    det, gt = Detection(BOX, 1, 0.5), GroundTruthInstance(FAR_BOX, 1)
    inputs += [(30, [], []), (31, [], [gt, gt]), (32, [det], []), (33, [det], [gt])]
    params = OcCostParams()
    serial = dataset_oc_cost(inputs, params, jobs=1)
    parallel = dataset_oc_cost(inputs, params, jobs=4)
    assert serial.mean_oc_cost == parallel.mean_oc_cost
    assert [r.oc_cost for r in serial.per_image] == [r.oc_cost for r in parallel.per_image]
    # every field of every image, as the single-image entry point gives
    # it, but for the plan, which only that entry point returns
    expected = tuple(
        dataclasses.replace(image_oc_cost(d, g, params, image_id=i), plan=None) for i, d, g in inputs
    )
    assert serial.per_image == expected
    assert parallel.per_image == expected


def test_pair_terms_and_solves_once_per_image(rng, count_calls):
    # the kernel computes the terms of each image's cells once however many
    # params price them, and settles each problem once per params, in any
    # cut of the images into blocks
    terms, plans = count_calls("_cell_terms"), count_calls("_plans")

    def counted():
        # _cell_terms(dets, gts, det_rows, gt_rows) gets one row per cell;
        # _plans(gains, heights, widths, extends) one height per problem
        found = sum(len(rows) for _, _, rows, _ in terms), sum(len(h) for _, h, *_ in plans)
        terms.clear()
        plans.clear()
        return found

    inputs = [(image_id, *random_scene(rng)) for image_id in range(12)]
    cells = sum(len(dets) * len(gts) for _, dets, gts in inputs)
    for block in (1, 7, 1 << 14):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_BLOCK_PAIRS", block)
            dataset_oc_cost(inputs, OcCostParams())
            assert counted() == (cells, 12)
            lambda_sweep(inputs, [0.0, 0.25, 0.5, 0.75, 1.0], beta=0.6)
            assert counted() == (cells, 60)
    dets, gts = random_scene(rng, max_m=6, max_n=6)
    result = image_oc_cost(dets, gts, OcCostParams())
    assert counted() == (len(dets) * len(gts), 1)
    assert len(result.plan.costs) == result.matched_pairs


# boxes that tie and overlap often, so that certificates collide
KERNEL_BOXES = (BOX, BOX, BoundingBox(1, 1, 11, 11), BoundingBox(5, 0, 15, 10), FAR_BOX)


@st.composite
def kernel_images(draw):
    """One image with int64 labels or labels past int64, its passes (ordered
    lists of its detection rows, some the whole image in file order, some
    identical, some sharing a prefix with another) and the problems to
    price, each a pass and a length: of any length from 0 to the whole
    pass, some repeated, in any order."""
    labels = st.sampled_from((1, 2**70) if draw(st.booleans()) else (1, 2))
    scores = st.sampled_from((0.3, 0.9)) | st.floats(0.0, 1.0)
    boxes = st.sampled_from(KERNEL_BOXES)
    dets = draw(st.lists(st.builds(Detection, boxes, labels, scores), max_size=6))
    gts = draw(st.lists(st.builds(GroundTruthInstance, boxes, labels), max_size=4))
    every = np.arange(len(dets))
    ordered = st.permutations(every.tolist()).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda size: np.array(order[:size], int))
    )
    passes = draw(st.lists(ordered | st.just(every), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        # the first rows of a pass, then others of the image
        rows = passes[draw(st.integers(0, len(passes) - 1))]
        shared = rows[: draw(st.integers(0, len(rows)))]
        rest = draw(st.permutations(np.setdiff1d(every, shared).tolist()))
        passes.append(np.concatenate([shared, rest[: draw(st.integers(0, len(rest)))]]).astype(int))
    passes += passes[: draw(st.integers(0, 1))]
    sizes = [len(rows) for rows in passes]
    ask = st.integers(0, len(passes) - 1).flatmap(
        lambda c: st.tuples(st.just(c), st.sampled_from((0, sizes[c])) | st.integers(0, sizes[c]))
    )
    asks = draw(st.lists(ask, min_size=1, max_size=6))
    asks += asks[: draw(st.integers(0, len(asks)))]
    column, lengths = zip(*asks)
    return dets, gts, passes, list(column), list(lengths)


kernel_params = st.lists(
    st.builds(OcCostParams, st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0),
              st.sampled_from((0.3, 0.6, 1.0)) | st.floats(0.0, 1.0)),
    min_size=1,
    max_size=3,
)


def check_kernel(images, param_list):
    """The kernel prices every (params, image, problem) of a multi-image
    call as its steps price that problem alone on the scalar
    ``unit_cost`` matrix (``kernel_step``): the same cost, the same k and,
    read from the solved block by ``occost._plan``, the same plan with
    the scalar costs and terms, whose pair costs the kernel's
    normalisation turns into that cost. A problem is the first ``length``
    rows of one pass of its image."""
    tasks = [
        (image_arrays((i, dets, gts)), passes, column, lengths)
        for i, (dets, gts, passes, column, lengths) in enumerate(images)
    ]
    alones = []
    for params in param_list:
        alone = oceval.occost._price([params], tasks)
        alones.append(alone)
        blocks = oceval.occost._solved_blocks([params], tasks)
        listed = [(block, problems) for block in blocks for problems in block.listed]
        assert len(listed) == len(images)
        for (dets, gts, passes, column, lengths), got, (block, problems) in zip(images, alone, listed):
            for c, n, (cost, k), problem in zip(column, lengths, got, problems, strict=True):
                rows = passes[c][:n]
                picked = [dets[r] for r in rows.tolist()]
                entries, beta = unit_cost_matrix(picked, gts, params), params.dummy_cost
                alone_cost, at, to = kernel_step(entries, beta)
                assert (cost, k) == (alone_cost, len(at))
                plan = oceval.occost._plan(block, 0, problem)
                assert plan.det_indices.tolist() == rows[at].tolist()
                assert plan.gt_indices.tolist() == to.tolist()
                assert plan.costs.tolist() == entries[at, to].tolist()
                at, to = at.tolist(), to.tolist()
                assert plan.loc_costs.tolist() == [
                    localization_cost(picked[i].box, gts[j].box) for i, j in zip(at, to)
                ]
                assert plan.cls_costs.tolist() == [
                    classification_cost(picked[i].score, picked[i].label, gts[j].label)
                    for i, j in zip(at, to)
                ]
                assert plan.unmatched_detections.tolist() == sorted(
                    r for i, r in enumerate(rows.tolist()) if i not in at
                )
                assert plan.unmatched_ground_truths.tolist() == [
                    j for j in range(len(gts)) if j not in to
                ]
                assert cost == oceval.occost._problem_cost(
                    plan.costs.tolist(), beta, len(rows), len(gts)
                )
    # all params in one call: each image's results, params-major
    joint = [[pair for alone in alones for pair in alone[i]] for i in range(len(images))]
    assert oceval.occost._price(param_list, tasks) == joint


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(images=st.lists(kernel_images(), min_size=1, max_size=5), param_list=kernel_params,
       block=st.sampled_from((1, 2, 3, 7, 1 << 14)))
def test_blocked_kernel_prices_every_problem_as_solve_does(images, param_list, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_BLOCK_PAIRS", block)
        check_kernel(images, param_list)


def test_blocked_kernel_reaches_the_assignment_and_splits_blocks(count_calls):
    # two ground truths pick one detection (the certificates collide), in
    # problems of one pass that extend each other too, at lambda 0 every
    # ground truth of a label is the same column, labels past int64 sit
    # next to int64 ones, and one image has more cells than a block holds
    duplicate = [Detection(BOX, 1, 0.9), Detection(BOX, 1, 0.5), Detection(FAR_BOX, 2, 0.7)]
    images = [
        (duplicate, [GroundTruthInstance(BOX, 1)] * 2, [np.arange(3), np.array([1, 0]), np.array([], int)],
         [0, 1, 2, 0, 1, 0], [3, 2, 0, 1, 1, 2]),
        ([], [], [np.arange(0)], [0], [0]),
        ([Detection(BOX, 2**70, 0.8)], [], [np.arange(1)], [0], [1]),
        ([], [GroundTruthInstance(BOX, 2**70)], [np.arange(0), np.arange(0)], [0, 1], [0, 0]),
        ([Detection(BOX, 2**70, 0.8), Detection(BOX, 1, 0.6)],
         [GroundTruthInstance(BOX, 2**70), GroundTruthInstance(BOX, 1)], [np.array([1, 0])], [0], [2]),
    ]
    params = [OcCostParams(0.0, 0.6), OcCostParams(0.5, 0.6)]
    augments = []
    augment = oceval.transport._augment
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_BLOCK_PAIRS", 4)
        patch.setattr(oceval.transport, "_augment", lambda gains: augments.append(1) or augment(gains))
        blocks = count_calls("_solve_block")
        check_kernel(images, params)
    assert augments and len(blocks) > 1


def test_a_tie_across_the_prefixes_of_a_pass_keeps_the_first_row(monkeypatch):
    # identical detections in two problems of one pass, the longer one
    # extending the shorter: at a tie its ground truth picks the first of
    # the tied rows, as it does in the longer problem's rows alone, at the
    # head of the pass or past the first prefix. Neither two problems that
    # pick the same row nor two columns that pick rows of different
    # problems of the chain collide: the certificates settle them all.
    augments = []
    augment = oceval.transport._augment
    monkeypatch.setattr(oceval.transport, "_augment", lambda gains: augments.append(1) or augment(gains))
    twin = Detection(BOX, 1, 0.9)
    other = Detection(BoundingBox(1, 1, 11, 11), 1, 0.9)
    gt = [GroundTruthInstance(BOX, 1)]
    for dets, gts, lengths in (
        ([twin, twin], gt, [1, 2]),
        ([other, twin, twin], gt, [1, 2, 3]),
        ([twin, Detection(FAR_BOX, 2, 0.9)], gt + [GroundTruthInstance(FAR_BOX, 2)], [1, 2]),
    ):
        pass_ = [np.arange(len(dets))]
        check_kernel([(dets, gts, pass_, [0] * len(lengths), lengths)], [OcCostParams()])
    assert augments == []


def test_dataset_jobs_one_fan_out(rng, count_pools):
    inputs = [(image_id, *random_scene(rng)) for image_id in range(10)]
    serial = dataset_oc_cost(inputs, OcCostParams(), jobs=1)
    assert count_pools() == 0
    assert dataset_oc_cost(inputs, OcCostParams(), jobs=2) == serial
    assert count_pools() == 1


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the calling (main) thread after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_map_images_leaves_no_worker_behind():
    with deadline(60):
        squares = map_images(lambda tasks: [t * t for t in tasks], list(range(7)), 3)
        assert squares == [i * i for i in range(7)]
    assert multiprocessing.active_children() == []


def test_worker_exception_reaches_the_caller():
    def check(tasks):
        if 3 in tasks:  # in the worker's range [2, 4)
            raise ValueError("image 3 is bad")
        return tasks

    with deadline(60), pytest.raises(ValueError, match=r"^image 3 is bad$"):
        map_images(check, list(range(4)), 2)
    assert multiprocessing.active_children() == []


def test_worker_that_dies_without_sending_fails_the_call():
    parent = os.getpid()

    def die_in_worker(tasks):
        if os.getpid() != parent:
            os._exit(1)
        return tasks

    message = r"^a worker exited with code 1 before sending its results$"
    with deadline(60), pytest.raises(RuntimeError, match=message):
        map_images(die_in_worker, list(range(4)), 2)
    assert multiprocessing.active_children() == []


def test_more_jobs_than_images(rng, count_pools):
    inputs = [(image_id, *random_scene(rng)) for image_id in range(3)]
    with deadline(60):
        serial = dataset_oc_cost(inputs, OcCostParams())
        assert dataset_oc_cost(inputs, OcCostParams(), jobs=8) == serial
        pids = map_images(lambda tasks: [os.getpid()] * len(tasks), inputs, 8)
    assert count_pools() == 2
    # the caller computes the first image, one worker each of the other two
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert multiprocessing.active_children() == []


def test_jobs_above_one_need_fork(monkeypatch):
    monkeypatch.setattr(oceval.occost, "get_all_start_methods", lambda: ["spawn"])
    inputs = [(1, [], []), (2, [], [])]
    assert dataset_oc_cost(inputs, OcCostParams()).mean_oc_cost == 0.0
    with pytest.raises(ConfigError, match=r"^jobs must be 1 on this platform, got 2: .*'fork'"):
        dataset_oc_cost(inputs, OcCostParams(), jobs=2)
    with pytest.raises(ConfigError, match="'fork'"):
        lambda_sweep(inputs, [0.5], beta=0.6, jobs=2)


def test_forking_writes_buffered_stdout_once(tmp_path):
    # stdout to a file is block-buffered (unless PYTHONUNBUFFERED is set): a
    # worker forked with "before" still in the buffer would write it again
    # when it exits
    script = (
        "from oceval import OcCostParams, dataset_oc_cost\n"
        "print('before')\n"
        "dataset_oc_cost([(i, [], []) for i in range(4)], OcCostParams(), jobs=2)\n"
        "print('after')\n"
    )
    out = tmp_path / "stdout.txt"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    with open(out, "w") as handle:
        subprocess.run(
            [sys.executable, "-c", script], stdout=handle, env=env, check=True, timeout=60
        )
    assert out.read_text() == "before\nafter\n"


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
        with pytest.raises(ConfigError, match=r"^loc_weight must be in \[0, 1\]"):
            lambda_sweep([(1, [], [])], [0.5, bad], beta=0.6)
    with pytest.raises(ConfigError, match="lambda list is empty"):
        lambda_sweep([(1, [], [])], [], beta=0.6)


def test_mass_normalization_example():
    # two dets, one gt, only one pairing below beta: k = 1, mass = 2
    near = Detection(BoundingBox(1, 1, 11, 11), 1, 0.9)
    far = Detection(FAR_BOX, 1, 0.9)
    gt = GroundTruthInstance(BOX, 1)
    result = image_oc_cost([near, far], [gt], OcCostParams(0.5, 0.6))
    assert result.matched_pairs == 1
    assert result.num_detections == 2
    assert result.num_ground_truths == 1
    [matched_cost] = result.plan.costs.tolist()
    assert result.oc_cost == pytest.approx((matched_cost + 0.6) / 2, abs=1e-12)


def plan_cost(entries, beta, rows, cols):
    """The kernel's normalisation of a plan: the paying units' cost sum
    over m + n - k, 0 for an empty image and beta for a one-sided one."""
    m, n = entries.shape
    k = len(rows)
    if not (m and n):
        return beta if m or n else 0.0
    return math.fsum(entries[rows, cols].tolist() + [beta] * (m + n - 2 * k)) / (m + n - k)


def both_costs(entries, beta):
    """The image's cost by the kernel's step and by the brute-force plan."""
    rows, cols = brute_force_solve(entries, beta)
    return kernel_step(entries, beta)[0], plan_cost(entries, beta, rows, cols)


betas = st.sampled_from((0.3, 0.6, 0.9)) | st.floats(0.0, 1.0)
# half the costs on a 0.1 grid, where pairs tie with each other and with beta
unit_costs = st.floats(0.0, 1.0) | st.integers(0, 10).map(lambda i: i / 10)


@st.composite
def problems(draw):
    """A 1-4 x 0-4 cost matrix or its transpose, and a dummy cost."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entries = np.array(draw(st.lists(unit_costs, min_size=m * n, max_size=m * n)), dtype=np.float64)
    entries = entries.reshape(m, n)
    return (entries.T.copy() if draw(st.booleans()) else entries), draw(betas)


def costly(beta):
    """Pair costs of at least beta + eps, which the credit does not make
    worth matching (up to the rounding of their gains)."""
    return st.floats(0.0, 1.0).map(lambda extra: beta + _TIE_EPSILON + extra)


@settings(max_examples=400, deadline=None)
@given(problem=problems())
def test_image_cost_never_exceeds_beta(problem):
    entries, beta = problem
    for cost in both_costs(entries, beta):
        assert cost <= beta + _TIE_EPSILON


def credit_matches_above_beta(entries, beta):
    """Whether the tie credit makes a pair costing more than beta worth
    matching: one costing less than beta + eps, up to the rounding of its
    gain."""
    gains = _checked_gains(entries, beta)
    return bool((entries[gains < 0] > beta).any())


@settings(max_examples=400, deadline=None)
@given(problem=problems(), data=st.data())
def test_a_costly_extra_detection_or_ground_truth_never_lowers_the_cost(problem, data):
    """Penalising false positives and negatives properly: an extra unit
    that costs at least beta + eps with everything it could pair with
    lowers the image's cost by at most the one ulp of the final division's
    rounding.

    Within the tie tolerance it may lower it by less than eps: where the
    credit makes pairs costing up to eps above beta worth matching, a cost
    may lie above beta (the extra unit, paid at beta, pulls it back), and
    plans whose credited objectives tie to rounding may differ in value.
    """
    entries, beta = problem
    m, n = entries.shape
    row = np.array(data.draw(st.lists(costly(beta), min_size=n, max_size=n)), dtype=np.float64)
    col = np.array(data.draw(st.lists(costly(beta), min_size=m, max_size=m)), dtype=np.float64)
    before = both_costs(entries, beta)
    for grown in (np.vstack([entries, row[None, :]]), np.hstack([entries, col[:, None]])):
        tolerant = credit_matches_above_beta(grown, beta)
        for old, new in zip(before, both_costs(grown, beta)):
            if tolerant:
                assert old - new < _TIE_EPSILON
            else:
                assert new >= math.nextafter(old, -math.inf)


# How far below beta an image's cost must lie for a costly extra unit to
# raise it strictly. Each cost is a correctly rounded sum divided by a mass
# of at most 9, so it lies within two ulps (under 5e-16) of its exact
# value, while the exact rise (beta - cost) / (mass + 1) is then at least
# 1e-9 / 9 = 1.1e-10.
BELOW_BETA = 1e-9


@settings(max_examples=400, deadline=None)
@given(problem=problems(), data=st.data())
def test_a_costly_extra_detection_or_ground_truth_raises_a_cost_below_beta(problem, data):
    """Penalising false positives and negatives properly, strictly: left
    unmatched, the extra unit takes a cost c over a mass M to
    (M * c + beta) / (M + 1), which exceeds c by (beta - c) / (M + 1)."""
    entries, beta = problem
    m, n = entries.shape
    row = np.array(data.draw(st.lists(costly(beta), min_size=n, max_size=n)), dtype=np.float64)
    col = np.array(data.draw(st.lists(costly(beta), min_size=m, max_size=m)), dtype=np.float64)
    before = both_costs(entries, beta)
    for grown in (np.vstack([entries, row[None, :]]), np.hstack([entries, col[:, None]])):
        if credit_matches_above_beta(grown, beta):
            continue
        for old, new in zip(before, both_costs(grown, beta)):
            if old < beta - BELOW_BETA:
                assert new > old


def test_a_detector_with_extra_costly_false_positives_costs_more_in_every_trial():
    # B is A plus, on every third image, a detection disjoint from every
    # ground truth with a label none of them has
    rng = np.random.default_rng(7)
    a = [(i, *random_scene(rng)) for i in range(30)]
    extra = Detection(BoundingBox(200, 200, 220, 220), 99, 0.5)
    modified = set(range(0, len(a), 3))
    b = [(i, dets + [extra] if i in modified else dets, gts) for i, dets, gts in a]
    params = OcCostParams()
    for i in modified:
        assert (unit_cost_matrix([extra], a[i][2], params) >= params.dummy_cost + _TIE_EPSILON).all()

    # a mean of copies of beta can round one ulp low (the test below); no
    # modified image here pays beta on every unit with a rounded mean
    report = dataset_oc_cost(a, params)
    assert dataset_oc_cost(b, params).mean_oc_cost > report.mean_oc_cost
    per_image = [r.oc_cost for r in report.per_image]
    cheap = {i for i in modified if per_image[i] < params.dummy_cost}
    assert cheap  # the strict case is exercised
    config = BootstrapConfig()
    report_a, report_b = run_bootstrap([("a", a), ("b", b)], config=config)
    strict = 0
    for trial, (value_a, value_b) in enumerate(zip(report_a.values, report_b.values)):
        assert value_b >= value_a
        if cheap & set(trial_sample(config, trial, len(a)).tolist()):
            assert value_b > value_a
            strict += 1
    assert strict > config.trials // 2


def test_a_costly_extra_detection_can_lower_the_cost_by_one_ulp():
    # a one-sided image costs beta exactly; with the extra detection, three
    # units at beta over a mass of 3 round one ulp below it
    beta = 0.8476605896133644
    grown = np.full((1, 2), beta + _TIE_EPSILON)
    assert both_costs(np.zeros((0, 2)), beta) == (beta, beta)
    assert both_costs(grown, beta) == (0.8476605896133643,) * 2
    assert 0.8476605896133643 == math.nextafter(beta, -math.inf)


def test_a_costly_extra_unit_pulls_a_cost_above_beta_toward_beta():
    # the credit matches a pair costing 5e-8 above beta, so the image costs
    # more than beta; an extra false positive at beta halves the excess
    beta = 0.6
    entries = np.array([[beta + 5e-8]])
    grown = np.vstack([entries, [[beta + _TIE_EPSILON]]])
    assert both_costs(entries, beta) == (0.60000005,) * 2
    assert both_costs(grown, beta) == (math.fsum([0.60000005, beta]) / 2,) * 2
    assert beta < math.fsum([0.60000005, beta]) / 2 < 0.60000005


def test_lowering_one_pair_cost_can_raise_the_image_cost():
    # the plan minimises the transport objective; the reported value then
    # divides by m + n - k, so a cheaper pair that wins with fewer matches
    # can leave more units at beta
    beta = 0.6
    entries = np.array([[0.3, 0.2], [0.5, 0.9]])
    lowered = entries.copy()
    lowered[0, 0] = 0.0
    for costs, plan, value in ((entries, [(0, 1), (1, 0)], 0.35), (lowered, [(0, 0)], 0.39999999999999997)):
        cost, rows, cols = kernel_step(costs, beta)
        assert list(zip(rows.tolist(), cols.tolist())) == plan
        assert cost == value
        rows, cols = brute_force_solve(costs, beta)
        assert list(zip(rows.tolist(), cols.tolist())) == plan
        assert plan_cost(costs, beta, rows, cols) == value


@pytest.mark.parametrize("loc_weight, beta", [(0.5, 0.6), (0.5, 0.3), (0.0, 0.6), (1.0, 0.6)])
def test_the_cost_is_never_below_the_ratio_optimum(rng, loc_weight, beta):
    # the kernel's plan is one of the plans the optimum ranges over, so the
    # cost is never below it. A plan's ratio is below beta exactly when its
    # gains, the sum of (cost - beta) over its pairs, are negative; the
    # kernel's plan has the least gains, so when its cost is beta no plan's
    # ratio is below beta (near-ties aside; see the next test)
    params = OcCostParams(loc_weight, beta)
    for _ in range(300):
        dets, gts = random_scene(rng, categories=2, size=60.0)
        cost = image_oc_cost(dets, gts, params).oc_cost
        optimum = ratio_optimum(unit_cost_matrix(dets, gts, params), beta)
        assert cost >= optimum
        if cost == beta:
            assert optimum == beta


def test_the_ratio_optimum_can_lie_below_the_cost():
    # the non-monotone scene above: matching (0, 1) and (1, 0) has the
    # least ratio, 0.35, but pays 0.1 more transport objective than (0, 0)
    entries, beta = np.array([[0.0, 0.2], [0.5, 0.9]]), 0.6
    assert kernel_step(entries, beta)[0] == 0.39999999999999997
    assert ratio_optimum(entries, beta) == 0.35
    # on a near-tie the per-pair credit prefers two pairs at beta to one
    # pair 5e-8 below it, so a cost of exactly beta can lie above the
    # ratio optimum: scenes, not raw costs, feed the property above
    beta = 0.3
    entries = np.array([[beta - 5e-8, beta], [beta, 1.0]])
    cost, rows, cols = kernel_step(entries, beta)
    assert cost == beta and list(zip(rows.tolist(), cols.tolist())) == [(0, 1), (1, 0)]
    assert ratio_optimum(entries, beta) == math.fsum([beta - 5e-8, beta, beta]) / 3 < beta
