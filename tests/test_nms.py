import importlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oceval import (
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    MapParams,
    NmsParams,
    OcCostParams,
    ValidationError,
    dataset_map,
    dataset_oc_cost,
    default_grid,
    nms,
    tune,
)
from oceval.costs import detection_arrays
from oceval.map_metric import build_match_table, map_from_table
from oceval.nms import DEFAULT_IOU_THRESHOLDS, DEFAULT_SCORE_THRESHOLDS

from oracles import scalar_nms

nms_module = importlib.import_module("oceval.nms")  # the package's ``nms`` is the function
geometry_module = importlib.import_module("oceval.geometry")

B1 = BoundingBox(0, 0, 10, 10)
B1_SHIFT = BoundingBox(1, 0, 11, 10)
B2 = BoundingBox(100, 0, 110, 10)


def test_params_validation():
    with pytest.raises(ConfigError):
        NmsParams(score_threshold=-0.1)
    with pytest.raises(ConfigError):
        NmsParams(iou_threshold=1.5)


def test_score_filter_drops_below_threshold():
    dets = [Detection(B1, 1, 0.3), Detection(B2, 1, 0.29)]
    kept = nms(dets, NmsParams(score_threshold=0.3, iou_threshold=0.9))
    assert [d.score for d in kept] == [0.3]


def test_suppression_keeps_highest_scored():
    dets = [Detection(B1_SHIFT, 1, 0.8), Detection(B1, 1, 0.9), Detection(B2, 1, 0.7)]
    kept = nms(dets, NmsParams(0.0, 0.5))
    assert [d.score for d in kept] == [0.9, 0.7]
    assert kept[0].box == B1


def test_suppression_is_classwise():
    dets = [Detection(B1, 1, 0.9), Detection(B1, 2, 0.8)]
    kept = nms(dets, NmsParams(0.0, 0.5))
    assert len(kept) == 2


def test_strictly_above_threshold_suppresses():
    # iou of the two boxes is 9/11
    dets = [Detection(B1, 1, 0.9), Detection(B1_SHIFT, 1, 0.8)]
    at = nms(dets, NmsParams(0.0, 9 / 11))
    assert len(at) == 2
    below = nms(dets, NmsParams(0.0, 9 / 11 - 1e-9))
    assert len(below) == 1


def test_idempotent_and_stable(rng):
    from conftest import random_scene

    for _ in range(100):
        dets, _ = random_scene(rng, max_m=8)
        params = NmsParams(float(rng.uniform(0, 0.5)), float(rng.uniform(0.3, 0.9)))
        once = nms(dets, params)
        assert nms(once, params) == once
        scores = [d.score for d in once]
        assert scores == sorted(scores, reverse=True)


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 18 * 7
    assert grid[0] == NmsParams(0.05, 0.3)
    assert grid[-1] == NmsParams(0.9, 0.9)
    # score is the outer loop
    assert grid[7] == NmsParams(0.1, 0.3)


def test_default_grid_fills_a_missing_axis():
    assert default_grid([0.5]) == [NmsParams(0.5, t) for t in DEFAULT_IOU_THRESHOLDS]
    assert default_grid(None, [0.6]) == [NmsParams(s, 0.6) for s in DEFAULT_SCORE_THRESHOLDS]
    assert default_grid([0.2, 0.1], [0.7, 0.4]) == [
        NmsParams(0.2, 0.7), NmsParams(0.2, 0.4), NmsParams(0.1, 0.7), NmsParams(0.1, 0.4)
    ]
    assert default_grid([], None) == []


def test_tune_single_point_echoes():
    inputs = [(1, [Detection(B1, 1, 0.9)], [GroundTruthInstance(B1, 1)])]
    point = NmsParams(0.5, 0.5)
    result = tune(inputs, "oc-cost", [point])
    assert result.best_params == point
    assert result.objective_kind == "minimize-oc-cost"
    assert len(result.grid) == 1


def test_tune_rejects_bad_inputs():
    inputs = [(1, [], [GroundTruthInstance(B1, 1)])]
    with pytest.raises(ConfigError):
        tune(inputs, "accuracy")
    with pytest.raises(ConfigError):
        tune(inputs, "oc-cost", [])


@pytest.mark.parametrize("objective", ["oc-cost", "map"])
def test_tune_rejects_an_empty_image_sequence(objective):
    with pytest.raises(ValidationError, match="cannot evaluate an empty image sequence"):
        tune([], objective)


def test_dataset_map_rejects_an_empty_image_sequence():
    with pytest.raises(ValidationError, match="cannot evaluate an empty image sequence"):
        dataset_map([])


def test_tune_point_that_suppresses_every_detection_costs_exactly_beta():
    # a plain mean of 109 copies of 0.6, or of 3 copies of 0.1, is not beta
    dets = [Detection(B2, 1, 0.5)]
    for beta, count in ((0.6, 109), (0.1, 3)):
        inputs = [(1, dets, [GroundTruthInstance(B1, 1)] * count)]
        grid = [NmsParams(0.4, 0.5), NmsParams(0.6, 0.5)]
        result = tune(inputs, "oc-cost", grid, oc_params=OcCostParams(0.5, beta))
        assert result.grid[1][1] == beta


def test_tune_picks_threshold_that_removes_noise():
    # perfect detections at 0.9 plus disjoint same-class noise at 0.1
    inputs = []
    for image_id in range(4):
        gts = [GroundTruthInstance(B1, 1), GroundTruthInstance(B2, 1)]
        dets = [
            Detection(B1, 1, 0.9),
            Detection(B2, 1, 0.9),
            Detection(BoundingBox(50, 50, 60, 60), 1, 0.1),
        ]
        inputs.append((image_id, dets, gts))
    result = tune(inputs, "oc-cost")
    assert result.best_params.score_threshold > 0.1
    assert result.objective_value == pytest.approx(0.025)

    map_result = tune(inputs, "map")
    # every grid point reaches map 1.0; the tie keeps the first, which
    # retains the noise
    assert map_result.objective_value == pytest.approx(1.0)
    assert map_result.best_params.score_threshold <= 0.1


def test_tune_tie_breaks_to_first_grid_point():
    inputs = [(1, [Detection(B1, 1, 0.9)], [GroundTruthInstance(B1, 1)])]
    grid = [NmsParams(0.2, 0.5), NmsParams(0.3, 0.5)]
    result = tune(inputs, "oc-cost", grid)
    assert result.best_params == grid[0]


# Overlapping boxes on a coarse grid, two labels and shared scores: exact
# duplicates, score ties and thresholds equal to a detection score all occur.
SCORES = (0.0, 0.2, 0.4, 0.4, 0.6, 0.8, 1.0)
coarse_dets = st.lists(
    st.builds(
        Detection,
        st.builds(
            lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
            st.integers(0, 3), st.integers(0, 3), st.integers(2, 4), st.integers(2, 4),
        ),
        st.integers(1, 2),
        st.sampled_from(SCORES) | st.floats(0.0, 1.0),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    dets=coarse_dets,
    iou_threshold=st.sampled_from((0.0, 0.25, 0.5, 1 / 3, 0.75, 1.0)) | st.floats(0.0, 1.0),
    data=st.data(),
)
def test_nms_nests_in_score_threshold(dets, iou_threshold, data):
    scores = tuple(d.score for d in dets)
    low = data.draw(st.sampled_from(SCORES + scores) | st.floats(0.0, 1.0))
    high = data.draw(st.sampled_from([s for s in SCORES + scores if s >= low]) | st.floats(low, 1.0))
    base = nms(dets, NmsParams(low, iou_threshold))
    kept = nms(dets, NmsParams(high, iou_threshold))
    assert [id(d) for d in kept] == [id(d) for d in base if d.score >= high]


@settings(max_examples=300, deadline=None)
@given(
    dets=coarse_dets,
    score_threshold=st.sampled_from(SCORES) | st.floats(0.0, 1.0),
    iou_threshold=st.sampled_from((0.0, 0.25, 0.5, 1 / 3, 0.75, 1.0)) | st.floats(0.0, 1.0),
)
def test_nms_matches_the_scalar_loop(dets, score_threshold, iou_threshold):
    params = NmsParams(score_threshold, iou_threshold)
    assert [id(d) for d in nms(dets, params)] == [id(d) for d in scalar_nms(dets, params)]


# Per image: up to 8 detections on the coarse grid, labels past int64 included.
raw_images = st.lists(
    st.lists(
        st.builds(
            Detection,
            st.builds(
                lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
                st.integers(0, 3), st.integers(0, 3), st.integers(2, 4), st.integers(2, 4),
            ),
            st.sampled_from((1, 2, 2**70)),
            st.sampled_from(SCORES) | st.floats(0.0, 1.0),
        ),
        max_size=8,
    ),
    min_size=1,
    max_size=5,
)
pass_points = st.lists(
    st.builds(
        NmsParams,
        st.sampled_from(SCORES) | st.floats(0.0, 1.0),
        st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=4,
)
B0 = BoundingBox(0, 0, 2, 2)


@settings(max_examples=150, deadline=None)
@given(images=raw_images, points=pass_points, block=st.sampled_from((1, 2, 3, 7, 1 << 14)))
@example(
    # an empty image, one with nothing above the floors, tied duplicates,
    # labels past int64, IoU 0 and 1, a floor per IoU threshold, and a
    # block of one pair, so that every group straddles blocks
    images=[
        [],
        [Detection(B0, 1, 0.1), Detection(B0, 1, 0.2)],
        [Detection(B0, 2**70, 0.5), Detection(B0, 2**70, 0.5), Detection(B0, 1, 0.5),
         Detection(BoundingBox(1, 1, 3, 3), 2**70, 0.5),
         Detection(BoundingBox(0, 1, 2, 3), 1, 0.9)],
    ],
    points=[NmsParams(0.3, 0.0), NmsParams(0.5, 1.0), NmsParams(0.6, 0.1), NmsParams(0.25, 0.5)],
    block=1,
)
def test_batched_passes_match_the_scalar_loop(images, points, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry_module, "_BLOCK_PAIRS", block)
        found = nms_module._nms_passes([detection_arrays(dets) for dets in images], points)
    assert len(found) == len(images)
    for dets, kept in zip(images, found):
        assert len(kept) == len(points)
        for point, rows in zip(points, kept):
            assert [id(dets[i]) for i in rows.tolist()] == [id(d) for d in scalar_nms(dets, point)]


def _tune_oracle(inputs, objective, grid, oc_params=None, map_params=None):
    """The per-point loop: NMS and a full evaluation at every grid point,
    then the first point of the best value."""
    scored = []
    for point in grid:
        filtered = [(image_id, scalar_nms(dets, point), gts) for image_id, dets, gts in inputs]
        if objective == "oc-cost":
            value = dataset_oc_cost(filtered, oc_params or OcCostParams()).mean_oc_cost
        else:
            value = dataset_map(filtered, map_params).mean_ap
        scored.append((point, value))
    values = [value for _, value in scored]
    best = min(values) if objective == "oc-cost" else max(values)
    return scored[values.index(best)][0], tuple(scored)


def _raw_dataset(rng, images=5):
    """Pre-NMS-like images: jittered copies of each object at tied,
    decaying scores, some exact duplicates, some wrong labels."""
    inputs = []
    for image_id in range(images):
        gts, dets = [], []
        for _ in range(int(rng.integers(0, 4))):
            x, y = rng.uniform(0, 60, size=2)
            w, h = rng.uniform(8, 30, size=2)
            label = int(rng.integers(1, 3))
            gts.append(GroundTruthInstance(BoundingBox(x, y, x + w, y + h), label))
            for copy in range(int(rng.integers(0, 5))):
                dx, dy = (0.0, 0.0) if copy == 1 else rng.normal(0, 3, size=2)
                score = float(rng.choice([0.9, 0.7, 0.5, 0.3, 0.1]))
                other = rng.uniform() < 0.15
                dets.append(Detection(BoundingBox(x + dx, y + dy, x + dx + w, y + dy + h),
                                      3 - label if other else label, score))
        inputs.append((image_id, dets, gts))
    return inputs


GRIDS = {
    "unsorted scores": [NmsParams(s, t) for s in (0.5, 0.1, 0.3, 0.0) for t in (0.5, 0.3)],
    "non-adjacent IoU": [NmsParams(0.3, 0.5), NmsParams(0.2, 0.7), NmsParams(0.1, 0.5), NmsParams(0.4, 0.7)],
    "duplicates": [NmsParams(0.3, 0.5), NmsParams(0.1, 0.5), NmsParams(0.3, 0.5), NmsParams(0.1, 0.5)],
    # no score threshold removes anything and IoU 1 suppresses nothing: all tie
    "ties": [NmsParams(0.05, 1.0), NmsParams(0.0, 1.0), NmsParams(0.1, 1.0), NmsParams(0.0, 1.0)],
    "scores equal to detection scores": [NmsParams(s, t) for t in (0.6, 0.2) for s in (0.9, 0.3, 0.7, 0.1)],
}


@pytest.mark.parametrize("objective", ["oc-cost", "map"])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_tune_matches_per_point_oracle(rng, objective, grid_name):
    grid = GRIDS[grid_name]
    oc_params = OcCostParams(loc_weight=0.7, dummy_cost=0.5)
    map_params = MapParams(iou_thresholds=(0.3, 0.5, 0.7), max_detections=6)
    for _ in range(15):
        inputs = _raw_dataset(rng)
        result = tune(inputs, objective, grid, oc_params=oc_params, map_params=map_params)
        best, scored = _tune_oracle(inputs, objective, grid, oc_params, map_params)
        assert result.grid == scored
        assert result.best_params == best
        assert result.objective_value == dict(scored)[best]
        assert result.survivor_counts == tuple(
            len(scalar_nms(dets, result.best_params)) for _, dets, _ in inputs
        )
    if grid_name == "ties":
        assert result.best_params == grid[0]


@pytest.mark.parametrize("tables", ["one per pass", "two passes, then one", "one for every pass"])
def test_passes_sharing_a_table_score_as_a_table_per_pass(rng, monkeypatch, tables):
    # the map objective matches consecutive passes in one table while their
    # rows fit in _TABLE_ROWS; here each point gets a table of its own,
    # built from its pass's detections at or above its floor, matching
    # and all. Category 3's detections all score under the floor of the
    # pass at IoU 0.7, so they die there while its ground truths stay
    # scored, and label 4, with detections only, is in the tables of the
    # first two passes and not in the last one's.
    grid = [
        NmsParams(s, t)
        for t, floors in ((0.3, (0.1, 0.6)), (0.5, (0.2,)), (0.7, (0.4, 0.5)))
        for s in floors
    ]
    map_params = MapParams(iou_thresholds=(0.3, 0.5, 0.7), max_detections=6)
    doomed = [
        Detection(B1, 3, 0.3), Detection(B1_SHIFT, 3, 0.2), Detection(B2, 4, 0.35),
        Detection(B1, 1, 0.9),
    ]
    ground_truths = [GroundTruthInstance(B1, 3), GroundTruthInstance(B1, 1)]
    built = []

    def counting(items, params):
        built.append(len(items))
        return build_match_table(items, params)

    monkeypatch.setattr(nms_module, "build_match_table", counting)
    for _ in range(10):
        inputs = _raw_dataset(rng) + [("doomed", doomed, ground_truths)]
        n = len(inputs)
        per_table, sizes = [], {}
        for point in grid:
            t = point.iou_threshold
            lowest = min(p.score_threshold for p in grid if p.iou_threshold == t)
            kept = [(i, nms(dets, NmsParams(lowest, t)), gts) for i, dets, gts in inputs]
            sizes[t] = sum(len(dets) + len(gts) for _, dets, gts in kept)
            table = build_match_table(kept, map_params)
            survivors = [
                (i, [d for d in dets if d.score >= point.score_threshold], gts) for i, dets, gts in kept
            ]
            per_table.append(map_from_table(build_match_table(survivors, map_params), range(n)).mean_ap)
        budget, expected = {
            "one per pass": (0, [n, n, n]),
            "two passes, then one": (sizes[0.3] + sizes[0.5], [2 * n, n]),
            "one for every pass": (sum(sizes.values()), [3 * n]),
        }[tables]
        monkeypatch.setattr(nms_module, "_TABLE_ROWS", budget)
        built.clear()
        result = tune(inputs, "map", grid, map_params=map_params)
        assert [value for _, value in result.grid] == per_table
        assert built == expected
        # the last table is the pass at IoU 0.7: category 3 is scored there
        # by its ground truths alone, and label 4 is absent
        report = map_from_table(table, range(n))
        assert 3 in report.per_category and 4 not in table.categories


def test_tune_jobs_bit_identical_with_one_pool(rng, count_pools):
    inputs = _raw_dataset(rng, images=12)
    grid = GRIDS["unsorted scores"]
    serial = tune(inputs, "oc-cost", grid, jobs=1)
    assert count_pools() == 0
    assert tune(inputs, "oc-cost", grid, jobs=2) == serial
    assert count_pools() == 1
    assert tune(inputs, "map", grid, jobs=2) == tune(inputs, "map", grid, jobs=1)


def test_tune_solves_each_distinct_survivor_set_once(rng, count_calls):
    # the pricing kernel keys survivor sets by content: an image is solved
    # once per distinct set the grid keeps, however many points share it
    plans = count_calls("_plans")
    grid = [NmsParams(s, t) for s in (0.0, 0.2, 0.4, 0.6, 0.8) for t in (0.3, 0.5, 0.7, 1.0)]
    shared = 0
    for _ in range(5):
        inputs = _raw_dataset(rng, images=8)
        plans.clear()
        tune(inputs, "oc-cost", grid, jobs=1)
        distinct = [
            len({frozenset(map(id, scalar_nms(dets, point))) for point in grid})
            for _, dets, _ in inputs
        ]
        # _plans(gains, heights, widths) settles one problem per height
        assert sum(len(heights) for _, heights, _ in plans) == sum(distinct)
        shared += len(grid) * len(inputs) - sum(distinct)
    assert shared > 0
