import numpy as np
import pytest

from oceval import BoundingBox
from oceval.geometry import _iou, boxes_to_array
from oceval.map_metric import _pair_ious

from conftest import random_box, transformed
from oracles import area, giou, iou


def test_box_validation():
    with pytest.raises(ValueError):
        BoundingBox(5, 0, 5, 10)
    with pytest.raises(ValueError):
        BoundingBox(0, 10, 10, 10)
    with pytest.raises(ValueError):
        BoundingBox(10, 0, 0, 10)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, float("nan"), 10)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, float("inf"), 10)


@pytest.mark.parametrize("value", [True, False, np.bool_(False), "1", None])
@pytest.mark.parametrize("at", range(4))
def test_a_coordinate_that_is_no_real_number_is_rejected(value, at):
    corners = [0, 0, 10, 10]
    corners[at] = value
    name = ("x1", "y1", "x2", "y2")[at]
    with pytest.raises(ValueError, match=f"^box coordinate {name} must be a finite real number"):
        BoundingBox(*corners)


@pytest.mark.parametrize("kind", [int, float, np.int64, np.float32, np.float64])
def test_python_and_numpy_real_coordinates_are_accepted(kind):
    box = BoundingBox(kind(0), kind(1), kind(10), kind(12))
    assert box.as_tuple() == (0, 1, 10, 12)


def test_box_accessors():
    b = BoundingBox(1, 2, 4, 8)
    assert b.as_tuple() == (1, 2, 4, 8)
    assert area(b) == 18


def test_iou_hand_values():
    a = BoundingBox(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, BoundingBox(20, 20, 30, 30)) == 0.0
    # half overlap: inter 50, union 150
    b = BoundingBox(5, 0, 15, 10)
    assert iou(a, b) == pytest.approx(50 / 150)
    # touching edges count as no overlap
    assert iou(a, BoundingBox(10, 0, 20, 10)) == 0.0


def test_giou_hand_values():
    a = BoundingBox(0, 0, 10, 10)
    assert giou(a, a) == 1.0
    # side by side, hull 200, union 200: giou == iou == 0
    assert giou(a, BoundingBox(10, 0, 20, 10)) == 0.0
    # separated: iou 0, hull 300, union 200 -> -1/3
    c = BoundingBox(20, 0, 30, 10)
    assert giou(a, c) == pytest.approx(-1 / 3)
    # overlap case: inter 25, union 175, hull 225
    d = BoundingBox(5, 5, 15, 15)
    assert giou(a, d) == pytest.approx(25 / 175 - 50 / 225)


def test_giou_property_suite(rng):
    for _ in range(1000):
        a = random_box(rng)
        b = random_box(rng)
        g = giou(a, b)
        assert -1.0 < g <= 1.0
        assert g == giou(b, a)
        assert g <= iou(a, b)
        assert giou(a, a) == 1.0


def test_giou_approaches_minus_one_for_distant_boxes():
    a = BoundingBox(0, 0, 1, 1)
    b = BoundingBox(1e6, 1e6, 1e6 + 1, 1e6 + 1)
    assert giou(a, b) < -0.999


def test_giou_scale_translation_invariance(rng):
    for _ in range(1000):
        a = random_box(rng)
        b = random_box(rng)
        factor = float(rng.uniform(0.1, 10.0))
        dx = float(rng.uniform(-50, 50))
        dy = float(rng.uniform(-50, 50))
        g0 = giou(a, b)
        g1 = giou(transformed(a, factor), transformed(b, factor))
        g2 = giou(transformed(a, dx=dx, dy=dy), transformed(b, dx=dx, dy=dy))
        assert g1 == pytest.approx(g0, abs=1e-9)
        assert g2 == pytest.approx(g0, abs=1e-9)


def test_pairwise_matches_scalar_bitwise(rng):
    boxes_a = [random_box(rng) for _ in range(7)]
    boxes_b = [random_box(rng) for _ in range(5)]
    arr_a = boxes_to_array(boxes_a)
    arr_b = boxes_to_array(boxes_b)
    # the row-against-row form the pair kernels use, and the NMS and mAP
    # pair kernel keeping every pair (no IoU is below -1)
    rows, cols = np.divmod(np.arange(35), 5)
    paired = _iou(arr_a[rows], arr_b[cols])
    paired_giou = _iou(arr_a[rows], arr_b[cols], generalized=True)
    pair_row, pair_col, listed = _pair_ious(arr_a, arr_b, np.zeros(7, int), np.full(7, 5), -1.0)
    assert pair_row.tolist() == rows.tolist() and pair_col.tolist() == cols.tolist()
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert paired_giou[5 * i + j] == giou(a, b)
            assert paired[5 * i + j] == iou(a, b)
            assert listed[5 * i + j] == iou(a, b)


def test_boxes_to_array_shape_and_empty():
    arr = boxes_to_array([BoundingBox(0, 0, 1, 1), BoundingBox(1, 1, 3, 3)])
    assert arr.shape == (2, 4)
    assert arr.dtype == np.float64
    empty = boxes_to_array([])
    assert empty.shape == (0, 4)
