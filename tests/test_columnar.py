"""The columnar per-image inputs against the Detection/GroundTruthInstance
façade: the same results either way, and no per-box object on a CLI job."""

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
    build_problem,
    dataset_map,
    image_oc_cost,
    image_maps,
    nms,
)
from oceval.cli import main
from oceval.costs import detection_arrays, ground_truth_arrays
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
        assert list(cols) == dets and list(gt_cols) == gts

        from_objects = image_oc_cost(dets, gts, params, image_id=7, with_breakdown=True)
        assert image_oc_cost(cols, gt_cols, params, image_id=7, with_breakdown=True) == from_objects
        for pair in from_objects.per_pair_breakdown:
            if pair.det_index is not None and pair.gt_index is not None:
                det, gt = dets[pair.det_index], gts[pair.gt_index]
                assert pair.loc_cost == localization_cost(det.box, gt.box)
        np.testing.assert_array_equal(
            build_problem(cols, gt_cols, params).entries, build_problem(dets, gts, params).entries
        )

        point = NmsParams(float(rng.uniform(0, 0.5)), float(rng.uniform(0.1, 0.9)))
        kept = nms(dets, point)
        assert list(nms(cols, point)) == kept
        assert isinstance(nms(cols, point), DetectionArrays)

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
    cols = detection_arrays([Detection(BoundingBox(1, 2, 3, 4), 5, 0.25)])
    assert len(cols) == 1
    assert cols[0] == Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 5, 0.25)
    assert cols.take(np.array([], dtype=np.intp)).boxes.shape == (0, 4)
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
