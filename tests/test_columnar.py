"""The columnar per-image inputs against sequences of Detection and
GroundTruthInstance objects: the same results either way, columns that
turn back into no objects, and no per-box object on a CLI job."""

import dataclasses
from collections.abc import Sequence

import numpy as np
import pytest

from oceval import (
    BoundingBox,
    Detection,
    DetectionArrays,
    GroundTruthArrays,
    MapParams,
    NmsParams,
    OcCostParams,
    dataset_map,
    image_oc_cost,
    image_maps,
    nms,
)
from oceval.cli import main
from oceval.costs import detection_arrays, ground_truth_arrays
from oceval.geometry import boxes_to_array
from oceval.map_metric import build_match_table

from oracles import localization_cost


def test_every_entry_point_gives_the_same_on_both_forms(rng):
    from conftest import random_scene

    params = OcCostParams(0.3, 0.5)
    map_params = MapParams(iou_thresholds=(0.1, 0.5), max_detections=5)
    for _ in range(100):
        dets, gts = random_scene(rng, max_m=7, max_n=5)
        cols, gt_cols = detection_arrays(dets), ground_truth_arrays(gts)
        assert isinstance(cols, DetectionArrays) and isinstance(gt_cols, GroundTruthArrays)
        for columns, objects in ((cols, dets), (gt_cols, gts)):
            assert columns.boxes.dtype == np.float64 and columns.boxes.shape == (len(objects), 4)
            assert columns.boxes.tolist() == [[o.box.x1, o.box.y1, o.box.x2, o.box.y2] for o in objects]
            assert columns.labels.tolist() == [o.label for o in objects]
        assert cols.scores.tolist() == [d.score for d in dets]
        assert gt_cols.crowd.dtype == bool and not gt_cols.crowd.any()

        from_objects = image_oc_cost(dets, gts, params, image_id=7)
        from_columns = image_oc_cost(cols, gt_cols, params, image_id=7)
        for field in dataclasses.fields(from_objects):
            if field.name != "plan":
                assert getattr(from_columns, field.name) == getattr(from_objects, field.name)
        for field in dataclasses.fields(from_objects.plan):
            got, expected = (getattr(r.plan, field.name) for r in (from_columns, from_objects))
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        plan = from_objects.plan
        for i, j, loc in zip(plan.det_indices.tolist(), plan.gt_indices.tolist(), plan.loc_costs.tolist()):
            assert loc == localization_cost(dets[i].box, gts[j].box)

        point = NmsParams(float(rng.uniform(0, 0.5)), float(rng.uniform(0.1, 0.9)))
        kept = nms(dets, point)
        # the caller's own objects, each once
        assert type(kept) is list and len({id(d) for d in kept}) == len(kept)
        assert {id(d) for d in kept} <= {id(d) for d in dets}
        kept_cols = nms(cols, point)
        assert isinstance(kept_cols, DetectionArrays)
        for field in ("boxes", "labels", "scores"):
            got, expected = getattr(kept_cols, field), getattr(detection_arrays(kept), field)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

        tables = [build_match_table([(7, d, g)], MapParams(iou_thresholds=(0.1, 0.3, 0.5)))
                  for d, g in ((cols, gt_cols), (dets, gts))]
        for field in ("scores", "flags", "image", "category", "categories", "gt_count", "offsets"):
            np.testing.assert_array_equal(getattr(tables[0], field), getattr(tables[1], field))
        assert image_maps(build_match_table([(7, cols, gt_cols)], map_params)) == image_maps(
            build_match_table([(7, dets, gts)], map_params)
        )
        inputs = [(1, dets, gts), (2, kept, gts)]
        columnar = [(1, cols, gt_cols), (2, detection_arrays(kept), gt_cols)]
        assert dataset_map(columnar, map_params) == dataset_map(inputs, map_params)


def test_rows_read_back_as_objects():
    """They do not: the columnar forms are no sequences, and ``take`` is
    their one row selector."""
    cols = detection_arrays([Detection(BoundingBox(1, 2, 3, 4), 5, 0.25)])
    gt_cols = GroundTruthArrays(boxes_to_array([BoundingBox(1, 2, 3, 4)]), np.array([5]), np.array([True]))
    for columns in (cols, gt_cols, detection_arrays([]), ground_truth_arrays([])):
        assert not isinstance(columns, Sequence)
        with pytest.raises(TypeError):
            iter(columns)
        with pytest.raises(TypeError):
            columns[0]
    assert len(cols) == 1 and len(gt_cols) == 1
    assert cols.take(np.array([0])).boxes.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert gt_cols.take(np.array([False])).crowd.shape == (0,)
    assert cols.take(np.array([], dtype=np.intp)).boxes.shape == (0, 4)
    empty = ground_truth_arrays([]).take(np.array([], dtype=np.intp))
    assert len(empty) == 0 and empty.boxes.shape == (0, 4)
    assert len(detection_arrays([])) == 0 and len(ground_truth_arrays([])) == 0


@pytest.fixture
def count_box_objects(monkeypatch):
    """Counts the BoundingBox and Detection objects built from here on."""
    built = []
    for cls in (BoundingBox, Detection):
        check = cls.__post_init__

        def counting(self, check=check):
            built.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


def test_cli_jobs_build_no_per_box_object(tmp_path, capsys, count_box_objects):
    gt, dt = str(tmp_path / "gt.json"), str(tmp_path / "dt.json")
    assert main(["gen-fixture", "--images", "6", "--noise-per-image", "5", "--gt-out", gt, "--dt-out", dt]) == 0
    data = ["--gt", gt, "--dt", dt, "--out", str(tmp_path / "out.json")]
    assert main(["evaluate", *data, "--with-map"]) == 0
    for objective in ("oc-cost", "map"):
        argv = ["tune-nms", *data, "--objective", objective, "--score-thresholds", "0.05,0.5",
                "--emit-count-histogram", str(tmp_path / "counts.json")]
        assert main(argv) == 0
    assert count_box_objects == []
    # the counter does count
    Detection(BoundingBox(0, 0, 1, 1), 1, 0.5)
    assert count_box_objects == ["BoundingBox", "Detection"]
