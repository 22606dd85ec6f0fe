import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oceval import (
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    OcCostParams,
    ValidationError,
    image_oc_cost,
)
from oceval.transport import _TIE_EPSILON, _checked_gains

from conftest import kernel_step, plan_objective, random_scene
from oracles import (
    brute_force_solve,
    classification_cost,
    localization_cost,
    unit_cost_matrix,
)

BOX = BoundingBox(0, 0, 10, 10)
EPS = _TIE_EPSILON


def problem(entries, beta=0.6):
    return np.asarray(entries, dtype=np.float64), beta


class Plan(NamedTuple):
    """A plan of one problem: detection ``rows[p]`` matched to ground
    truth ``cols[p]``, ordered by row, and its transport objective."""

    rows: np.ndarray
    cols: np.ndarray
    objective: float

    @property
    def matched_pairs(self):
        return len(self.rows)


def kernel_plan(entries, beta):
    """The plan the kernel's steps find for one problem."""
    _, rows, cols = kernel_step(entries, beta)
    return Plan(rows, cols, plan_objective(entries, beta, rows, cols))


def oracle_plan(entries, beta):
    """The plan the enumeration finds for one problem."""
    rows, cols = brute_force_solve(entries, beta)
    return Plan(rows, cols, plan_objective(entries, beta, rows, cols))


def flows_of(plan, m, n):
    """The plan as the (m+1) x (n+1) flows of the dummy-augmented transport
    problem: unit flows for matched pairs and dummy legs, k units in the
    dummy-to-dummy corner."""
    flows = np.zeros((m + 1, n + 1), dtype=np.int64)
    flows[plan.rows, plan.cols] = 1
    flows[:m, n] = 1 - flows[:m, :n].sum(axis=1)
    flows[m, :n] = 1 - flows[:m, :n].sum(axis=0)
    flows[m, n] = plan.matched_pairs
    return flows


def square_solve(entries, beta):
    """The former (m+n) x (m+n) reduction, kept as a second oracle.

    Splits the dummy supplier into n unit rows and the dummy demander into
    m unit columns, solves the square assignment with real-pair costs
    nudged down by the tie epsilon, and folds the dummy copies back.
    Returns the matched pairs and the exact cost of every paying unit.
    """
    m, n = entries.shape
    augmented = np.full((m + 1, n + 1), beta)
    augmented[:m, :n] = entries
    flows = np.zeros((m + 1, n + 1), dtype=np.int64)
    if m or n:
        size = m + n
        stacked = np.empty((size, size), dtype=np.float64)
        stacked[:m, :n] = augmented[:m, :n] - EPS
        stacked[:m, n:] = augmented[:m, n][:, None]
        stacked[m:, :n] = augmented[m, :n][None, :]
        stacked[m:, n:] = augmented[m, n]
        rows, cols = linear_sum_assignment(stacked)
        for r, c in zip(rows.tolist(), cols.tolist()):
            flows[r if r < m else m, c if c < n else n] += 1
    np.testing.assert_array_equal(flows.sum(axis=1), [1] * m + [n])
    np.testing.assert_array_equal(flows.sum(axis=0), [1] * n + [m])
    pairs = [tuple(p) for p in np.argwhere(flows[:m, :n]).tolist()]
    nonzero = np.nonzero(flows)
    objective = math.fsum(np.repeat(augmented[nonzero], flows[nonzero]).tolist())
    return pairs, objective


def exact_optimum(entries, beta):
    """Least unperturbed objective over every partial matching, and the
    largest match count that attains it."""
    m, n = entries.shape
    best = None
    for k in range(min(m, n) + 1):
        for dets in itertools.combinations(range(m), k):
            for gts in itertools.permutations(range(n), k):
                terms = [entries[i, j] for i, j in zip(dets, gts)]
                obj = math.fsum(terms + [beta] * (m + n - k))
                if best is None or (obj, -k) < best:
                    best = (obj, -k)
    return best[0], -best[1]


def assert_same_plan(plan, pairs, objective, entries, beta):
    """``plan`` and the plan of ``pairs`` are both optimal under the tie
    rule, and the same plan unless the rule leaves them tied.

    Both minimise the credited objective (the sum of the gains
    (c - EPS) - beta of their pairs) to rounding. With the same matched
    costs the objectives are equal bit for bit. Otherwise the credited
    objectives tie, which puts the objectives exactly EPS per extra match
    apart (to rounding), and only then may the match counts differ.
    """
    gains = (entries - EPS) - beta
    mine = list(zip(plan.rows.tolist(), plan.cols.tolist()))
    credited = [math.fsum(gains[i, j] for i, j in match) for match in (mine, pairs)]
    assert credited[0] == pytest.approx(credited[1], rel=0, abs=1e-12)
    if sorted(entries[i, j] for i, j in mine) == sorted(entries[i, j] for i, j in pairs):
        assert plan.objective == objective
    else:
        extra = plan.matched_pairs - len(pairs)
        assert plan.objective - objective == pytest.approx(EPS * extra, rel=0, abs=1e-12)


def test_perfect_single_plan():
    entries = unit_cost_matrix([Detection(BOX, 1, 1.0)], [GroundTruthInstance(BOX, 1)], OcCostParams())
    np.testing.assert_array_equal(entries, [[0.0]])
    plan = kernel_plan(entries, 0.6)
    # real match plus the dummy-dummy unit
    assert plan.objective == pytest.approx(0.6)
    assert plan.matched_pairs == 1
    np.testing.assert_array_equal(flows_of(plan, 1, 1), [[1, 0], [0, 1]])


def test_no_detections_plan():
    gts = [GroundTruthInstance(BOX, 1), GroundTruthInstance(BoundingBox(20, 0, 30, 10), 2)]
    entries = unit_cost_matrix([], gts, OcCostParams())
    assert entries.shape == (0, 2)
    plan = kernel_plan(entries, 0.6)
    assert plan.objective == pytest.approx(1.2)
    assert plan.matched_pairs == 0
    np.testing.assert_array_equal(flows_of(plan, 0, 2), [[1, 1, 0]])


def test_empty_problem():
    plan = kernel_plan(unit_cost_matrix([], [], OcCostParams()), 0.6)
    assert plan.objective == 0.0
    assert plan.matched_pairs == 0


def test_tie_prefers_more_matches():
    # matching det->gt costs exactly beta, same objective as leaving both
    # unmatched; the plan must take the match
    cost = problem([[0.6]], 0.6)
    plan = kernel_plan(*cost)
    assert plan.matched_pairs == 1
    oracle = oracle_plan(*cost)
    assert oracle.matched_pairs == 1
    assert plan.objective == pytest.approx(oracle.objective)


def test_oracle_enumerates_exactly():
    # 2x2 real block with a clear best assignment
    plan = oracle_plan(*problem([[0.1, 0.9], [0.9, 0.2]], 0.6))
    # match both: 0.1 + 0.2 + 2 dummy-dummy units at 0.6
    assert plan.objective == pytest.approx(0.1 + 0.2 + 1.2)
    assert plan.matched_pairs == 2


def test_oracle_size_limit():
    with pytest.raises(ConfigError):
        brute_force_solve(*problem(np.full((7, 7), 0.5), 0.5))


def test_validation_rejects_nan_and_negative():
    entries, _ = problem([[0.1]], 0.6)
    for value in (np.nan, -0.2, np.inf):
        bad = entries.copy()
        bad[0, 0] = value
        with pytest.raises(ValidationError):
            kernel_step(bad, 0.6)
    for beta in (np.nan, -0.1):
        with pytest.raises(ValidationError):
            kernel_step(entries, beta)
        with pytest.raises(ValidationError):
            brute_force_solve(entries, beta)


def test_validation_rejects_malformed():
    # the oracle's cost block must be m x n: there are no capacities to
    # balance, each detection and each ground truth is one unit
    for entries in (np.array([0.1, 0.2]), np.zeros((1, 1, 1))):
        with pytest.raises(ConfigError):
            brute_force_solve(entries, 0.6)


def test_solver_matches_oracle_on_random_scenes(rng):
    for _ in range(200):
        dets, gts = random_scene(rng)
        for params in (OcCostParams(0.5, 0.6), OcCostParams(1.0, 0.3)):
            entries, beta = unit_cost_matrix(dets, gts, params), params.dummy_cost
            plan = kernel_plan(entries, beta)
            oracle = oracle_plan(entries, beta)
            assert plan.objective == pytest.approx(oracle.objective, abs=1e-9)
            assert plan.matched_pairs == oracle.matched_pairs
            pairs, objective = square_solve(entries, beta)
            assert plan.matched_pairs == len(pairs)
            assert_same_plan(plan, pairs, objective, entries, beta)


def test_flows_are_a_valid_transport_plan(rng):
    # a partial injective matching with m + n - k paying units, whose
    # dummy-augmented flows balance every supply and demand
    for _ in range(100):
        dets, gts = random_scene(rng)
        m, n = len(dets), len(gts)
        entries = unit_cost_matrix(dets, gts, OcCostParams())
        plan = kernel_plan(entries, 0.6)
        k = plan.matched_pairs
        rows, cols = plan.rows.tolist(), plan.cols.tolist()
        assert len(cols) == k <= min(m, n)
        assert rows == sorted(set(rows))
        assert len(set(cols)) == k
        assert all(0 <= i < m for i in rows) and all(0 <= j < n for j in cols)
        flows = flows_of(plan, m, n)
        np.testing.assert_array_equal(flows.sum(axis=1), [1] * m + [n])
        np.testing.assert_array_equal(flows.sum(axis=0), [1] * n + [m])
        assert (flows >= 0).all()
        paying = [0.6] * (m + n - k)
        assert plan.objective == math.fsum(entries[rows, cols].tolist() + paying)


SCENE_BOXES = (BOX, BoundingBox(1, 1, 11, 11), BoundingBox(5, 0, 15, 10), BoundingBox(30, 30, 40, 45))


@st.composite
def breakdown_scenes(draw):
    """A scene of at most 4 detections and 4 ground truths whose boxes
    repeat and overlap, so that pair costs tie, and its params."""
    boxes = st.sampled_from(SCENE_BOXES)
    labels = st.integers(1, 2)
    scores = st.sampled_from((0.3, 0.9)) | st.floats(0.0, 1.0)
    dets = draw(st.lists(st.builds(Detection, boxes, labels, scores), max_size=4))
    gts = draw(st.lists(st.builds(GroundTruthInstance, boxes, labels), max_size=4))
    params = draw(st.builds(
        OcCostParams,
        st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0),
        st.sampled_from((0.3, 0.6, 1.0)) | st.floats(0.0, 1.0),
    ))
    return dets, gts, params


@settings(max_examples=300, deadline=None)
@given(breakdown_scenes())
def test_breakdown_is_the_plan_of_the_oracle(scene):
    # the plan is the one public record of an image's plan: its pairs are
    # an optimal plan of the scalar costs under the tie rule, its costs and
    # terms are the scalar ones bit for bit, and it pays the image's cost
    dets, gts, params = scene
    beta = params.dummy_cost
    result = image_oc_cost(dets, gts, params)
    plan = result.plan
    entries = unit_cost_matrix(dets, gts, params)
    rows, cols = plan.det_indices, plan.gt_indices
    assert result.matched_pairs == len(rows) == len(cols)
    unmatched = len(plan.unmatched_detections) + len(plan.unmatched_ground_truths)
    assert unmatched == len(dets) + len(gts) - 2 * len(rows)
    for i, j, cost, loc, cls in zip(rows.tolist(), cols.tolist(), plan.costs.tolist(),
                                    plan.loc_costs.tolist(), plan.cls_costs.tolist()):
        det, gt = dets[i], gts[j]
        assert cost == entries[i, j]
        assert loc == localization_cost(det.box, gt.box)
        assert cls == classification_cost(det.score, det.label, gt.label)
    oracle = oracle_plan(entries, beta)
    pairs = list(zip(oracle.rows.tolist(), oracle.cols.tolist()))
    assert_same_plan(Plan(rows, cols, plan_objective(entries, beta, rows, cols)), pairs,
                     oracle.objective, entries, beta)
    if dets and gts:
        paying = plan.costs.tolist() + [beta] * unmatched
        assert result.oc_cost == math.fsum(paying) / len(paying)
    else:
        # exactly beta (0 for an empty image), which the mean of N copies
        # of beta can miss by an ulp
        assert result.oc_cost == (beta if unmatched else 0.0)


# Pair costs snapped to beta + delta, for delta around the tie epsilon.
_DELTAS = (0.0, EPS / 2, -EPS / 2, EPS, -EPS, 2 * EPS, -2 * EPS, "up", "down")


def _snap(beta, delta):
    if delta == "up":
        return float(np.nextafter(beta, np.inf))
    if delta == "down":
        return float(np.nextafter(beta, -np.inf))
    return max(0.0, beta + delta)


@st.composite
def near_tie_problems(draw):
    beta = draw(st.sampled_from([0.3, 0.6, 1.0]) | st.floats(0.05, 1.0))
    cell = st.floats(0.0, 1.0) | st.sampled_from(_DELTAS).map(lambda d: _snap(beta, d))
    m0, n0 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = np.array(draw(st.lists(cell, min_size=m0 * n0, max_size=m0 * n0))).reshape(m0, n0)
    # rows and columns drawn from a few templates repeat each other
    rows = draw(st.lists(st.integers(0, m0 - 1), max_size=5))
    cols = draw(st.lists(st.integers(0, n0 - 1), max_size=5))
    return base[np.ix_(rows, cols)].reshape(len(rows), len(cols)), beta


@settings(max_examples=400, deadline=None)
@given(near_tie_problems())
def test_near_ties_agree_with_both_oracles(cost):
    plan = kernel_plan(*cost)
    oracle = oracle_plan(*cost)
    oracle_pairs = list(zip(oracle.rows.tolist(), oracle.cols.tolist()))
    assert_same_plan(plan, oracle_pairs, oracle.objective, *cost)
    assert_same_plan(plan, *square_solve(*cost), *cost)


@settings(max_examples=400, deadline=None)
@given(near_tie_problems())
def test_tie_epsilon_contract(cost):
    # the documented tolerance: at most EPS of excess objective per matched
    # pair, never fewer matches than an exact optimum with the most, and
    # no pair matched at EPS or more above the dummy cost
    entries, beta = cost
    plan = kernel_plan(entries, beta)
    optimum, most_matches = exact_optimum(entries, beta)
    k = plan.matched_pairs
    assert optimum <= plan.objective <= optimum + EPS * (k - most_matches) + 1e-12
    assert k >= most_matches
    matched = entries[plan.rows, plan.cols]
    assert (matched < beta + EPS + 1e-12).all()


def lsa_plan(entries, beta):
    """The former solver, kept as the oracle of the in-tree one: scipy's
    rectangular assignment on the gains clipped at 0, keeping the pairs of
    negative gain."""
    gains = np.minimum((entries - EPS) - beta, 0.0)
    rows, cols = linear_sum_assignment(gains)
    keep = gains[rows, cols] < 0
    return rows[keep], cols[keep]


def credited(entries, beta, rows, cols):
    gains = (entries - EPS) - beta
    return math.fsum(gains[rows, cols].tolist())


def is_unique_optimum(entries, beta, rows, cols):
    """Whether no other plan reaches the credited optimum of ``(rows, cols)``
    to within 1e-9. Another optimum would lack one of its pairs (one that
    kept them all and added more would beat it, every kept pair having a
    negative gain), so it suffices that forbidding any one pair costs more
    than that."""
    best = credited(entries, beta, rows, cols)
    for i, j in zip(rows.tolist(), cols.tolist()):
        forbidden = entries.copy()
        forbidden[i, j] = beta + 1.0
        if credited(forbidden, beta, *lsa_plan(forbidden, beta)) <= best + 1e-9:
            return False
    return True


@st.composite
def assignment_problems(draw):
    """Tall, wide and square problems; half of them with costs rounded to
    0.1, so that exact ties between plans are common."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=m * n, max_size=m * n))
    entries = np.array(cells).reshape(m, n)
    if draw(st.booleans()):
        entries = np.round(entries, 1)
    beta = draw(st.sampled_from([0.3, 0.6, 1.0]) | st.floats(0.05, 1.0))
    return entries, beta


@settings(max_examples=400, deadline=None)
@given(assignment_problems())
def test_solver_matches_the_assignment_oracle(cost):
    plan = kernel_plan(*cost)
    rows, cols = lsa_plan(*cost)
    mine = credited(*cost, plan.rows, plan.cols)
    assert mine == pytest.approx(credited(*cost, rows, cols), rel=0, abs=1e-12)
    if is_unique_optimum(*cost, rows, cols):
        order = np.argsort(rows)
        np.testing.assert_array_equal(plan.rows, rows[order])
        np.testing.assert_array_equal(plan.cols, cols[order])


def picks(gains):
    """Every column holding a negative gain picks its least-gain row (the
    first on a tie): returns (rows, cols), cols ascending."""
    rows = gains.argmin(axis=0)
    negative = gains[rows, np.arange(gains.shape[1])] < 0
    return rows[negative], negative.nonzero()[0]


def distinct(indices):
    return len(set(indices.tolist())) == len(indices)


def tier_of(cost):
    """Which way the kernel settles ``cost``: the certificate from the
    ground-truth side, or the assignment."""
    if distinct(picks(_checked_gains(*cost))[0]):
        return "ground truths"
    return "assignment"


def test_ground_truth_certificate():
    # each ground truth's least-cost detection is its own: (0, 0) and (2, 1)
    cost = problem([[0.1, 0.9], [0.9, 0.5], [0.8, 0.2]])
    assert tier_of(cost) == "ground truths"
    plan = kernel_plan(*cost)
    assert plan.rows.tolist() == [0, 2] and plan.cols.tolist() == [0, 1]


def test_detection_certificate():
    # m < n: both ground truths 0 and 1 pick detection 0, but each
    # detection picks a different ground truth, so the assignment's start
    # is the plan
    cost = problem([[0.1, 0.2, 0.9], [0.9, 0.3, 0.9]])
    assert tier_of(cost) == "assignment"
    assert [p.tolist() for p in picks(_checked_gains(*cost).T)] == [[0, 1], [0, 1]]
    plan = kernel_plan(*cost)
    assert plan.rows.tolist() == [0, 1] and plan.cols.tolist() == [0, 1]


@settings(max_examples=400, deadline=None)
@given(assignment_problems())
def test_distinct_detection_picks_are_the_plan(cost):
    # whenever no two detections pick the same least-gain ground truth,
    # those pairs are optimal and the assignment's start returns them as is
    cols, rows = picks(_checked_gains(*cost).T)
    if distinct(cols):
        plan = kernel_plan(*cost)
        np.testing.assert_array_equal(plan.rows, rows)
        np.testing.assert_array_equal(plan.cols, cols)
        assert plan.rows.dtype == plan.cols.dtype == np.intp


def test_assignment_beats_greedy():
    # both sides pick (0, 0); greedy then takes (1, 1) for a gain of -0.65,
    # but the cross plan gains -1.0
    cost = problem([[0.0, 0.1], [0.1, 0.55]], 0.6)
    assert tier_of(cost) == "assignment"
    plan = kernel_plan(*cost)
    assert plan.rows.tolist() == [0, 1] and plan.cols.tolist() == [1, 0]
    assert plan.objective == math.fsum([0.1, 0.1, 0.6, 0.6])
    assert plan.objective == oracle_plan(*cost).objective


def test_no_candidates():
    # every pair costs at least beta + EPS: nothing is worth matching
    cost = problem([[0.7, 0.9], [0.6 + 2 * EPS, 1.0], [0.8, 0.8]], 0.6)
    plan = kernel_plan(*cost)
    assert plan.matched_pairs == 0
    assert plan.objective == math.fsum([0.6] * 5)
