import json
import re

import pytest

from oceval import (
    BootstrapConfig,
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    OcCostParams,
    ParseError,
    SkippedRecordWarning,
    ValidationError,
    dataset_oc_cost,
    detection_inputs,
    lambda_sweep,
    load_detections,
    load_ground_truth,
    read_report,
    run_bootstrap,
    tune,
    write_report,
)
from oceval.coco_io import (
    bootstrap_payload,
    histogram_payload,
    report_payload,
    sweep_payload,
    tune_payload,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def minimal_gt(tmp_path, annotations=None, images=None, categories=None):
    doc = {
        "images": images
        if images is not None
        else [{"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"}],
        "annotations": annotations
        if annotations is not None
        else [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 20, 30, 40], "iscrowd": 0}],
        "categories": categories if categories is not None else [{"id": 1, "name": "thing"}],
    }
    return write_json(tmp_path / "gt.json", doc)


def test_bbox_corner_conversion(tmp_path):
    index = load_ground_truth(minimal_gt(tmp_path))
    gts = index.ground_truths[1]
    assert len(gts) == 1
    assert gts[0].box == BoundingBox(10, 20, 40, 60)
    assert gts[0].label == 1
    assert index.images[1] == (640, 480)
    assert index.categories == {1: "thing"}


def test_unknown_image_reference(tmp_path):
    path = minimal_gt(
        tmp_path,
        annotations=[{"id": 1, "image_id": 7, "category_id": 1, "bbox": [0, 0, 5, 5]}],
    )
    with pytest.raises(ValidationError):
        load_ground_truth(path)
    with pytest.warns(SkippedRecordWarning):
        index = load_ground_truth(path, strict=False)
    assert index.ground_truths[1] == ()


def test_crowd_annotations_flagged_and_excluded(tmp_path):
    path = minimal_gt(
        tmp_path,
        annotations=[
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "iscrowd": 1},
            {"id": 2, "image_id": 1, "category_id": 1, "bbox": [10, 10, 5, 5], "iscrowd": 0},
        ],
    )
    index = load_ground_truth(path)
    assert index.crowd_flags[1] == (True, False)
    assert len(index.instances()[1]) == 1
    assert len(index.instances(include_crowd=True)[1]) == 2


def test_nonpositive_box_sides(tmp_path):
    path = minimal_gt(
        tmp_path,
        annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 0, 5]}],
    )
    with pytest.raises(ValidationError):
        load_ground_truth(path)
    with pytest.warns(SkippedRecordWarning):
        index = load_ground_truth(path, strict=False)
    assert index.ground_truths[1] == ()


@pytest.mark.parametrize("bbox", [[1e308, 0, 1e308, 5], [1e9, 0, 1e-8, 5], [0, 1e9, 5, 1e-8]])
@pytest.mark.parametrize("which", ["ground truth", "detections"])
def test_box_corners_that_overflow_or_vanish(tmp_path, bbox, which):
    # every side is finite and positive, but x + w overflows or rounds back to x
    good = [0, 0, 5, 5]
    if which == "ground truth":
        path = minimal_gt(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": good},
                {"id": 2, "image_id": 1, "category_id": 1, "bbox": bbox},
            ],
        )
        load, record = load_ground_truth, "annotations[1] (id 2)"
    else:
        index = load_ground_truth(minimal_gt(tmp_path))
        path = write_json(
            tmp_path / "dt.json",
            [{"image_id": 1, "category_id": 1, "bbox": b, "score": 0.5} for b in (good, bbox)],
        )
        load, record = (lambda p, **kw: load_detections(p, index, **kw)), "[1]"
    with pytest.raises(ValidationError, match=rf"1 invalid record\(s\): {re.escape(record)}: box corners"):
        load(path)
    with pytest.warns(SkippedRecordWarning, match=re.escape(f"skipped {record}: box corners")):
        loaded = load(path, strict=False)
    kept = loaded.ground_truths[1] if which == "ground truth" else loaded.detections[1]
    assert [item.box for item in kept] == [BoundingBox(0, 0, 5, 5)]


def test_structural_problems_are_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_ground_truth(str(bad))
    with pytest.raises(ParseError):
        load_ground_truth(write_json(tmp_path / "l.json", []))
    with pytest.raises(ParseError):
        load_ground_truth(write_json(tmp_path / "m.json", {"images": [], "annotations": []}))
    # string ids are rejected
    with pytest.raises(ParseError):
        load_ground_truth(
            minimal_gt(
                tmp_path, images=[{"id": "a", "width": 10, "height": 10}]
            )
        )


def test_annotation_order_preserved(tmp_path):
    path = minimal_gt(
        tmp_path,
        annotations=[
            {"id": 5, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]},
            {"id": 2, "image_id": 1, "category_id": 1, "bbox": [10, 0, 5, 5]},
            {"id": 9, "image_id": 1, "category_id": 1, "bbox": [20, 0, 5, 5]},
        ],
    )
    index = load_ground_truth(path)
    xs = [g.box.x1 for g in index.ground_truths[1]]
    assert xs == [0, 10, 20]


def test_load_detections_grouping(tmp_path):
    gt_path = minimal_gt(
        tmp_path,
        images=[
            {"id": 1, "width": 100, "height": 100},
            {"id": 2, "width": 100, "height": 100},
            {"id": 3, "width": 100, "height": 100},
        ],
    )
    index = load_ground_truth(gt_path)
    dt_path = write_json(
        tmp_path / "dt.json",
        [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.9},
            {"image_id": 2, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.8},
            {"image_id": 1, "category_id": 1, "bbox": [9, 0, 5, 5], "score": 0.7},
        ],
    )
    dets = load_detections(dt_path, index)
    assert len(dets.detections[1]) == 2
    assert len(dets.detections[2]) == 1
    assert dets.detections[3] == ()


def test_empty_detections_file(tmp_path):
    index = load_ground_truth(minimal_gt(tmp_path))
    dets = load_detections(write_json(tmp_path / "dt.json", []), index)
    assert dets.detections[1] == ()


def test_detection_score_out_of_range(tmp_path):
    index = load_ground_truth(minimal_gt(tmp_path))
    dt_path = write_json(
        tmp_path / "dt.json",
        [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 1.3}],
    )
    with pytest.raises(ValidationError):
        load_detections(dt_path, index)
    with pytest.warns(SkippedRecordWarning):
        dets = load_detections(dt_path, index, strict=False)
    assert dets.detections[1] == ()


def test_detection_unknown_image(tmp_path):
    index = load_ground_truth(minimal_gt(tmp_path))
    dt_path = write_json(
        tmp_path / "dt.json",
        [{"image_id": 42, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}],
    )
    with pytest.raises(ValidationError):
        load_detections(dt_path, index)
    with pytest.warns(SkippedRecordWarning):
        load_detections(dt_path, index, strict=False)


def test_report_json_round_trip(tmp_path):
    box = BoundingBox(0, 0, 10, 10)
    inputs = [
        (2, [Detection(box, 1, 0.7)], [GroundTruthInstance(box, 1)]),
        (1, [], [GroundTruthInstance(box, 1)]),
    ]
    report = dataset_oc_cost(inputs, OcCostParams())
    out = tmp_path / "report.json"
    write_report(report_payload(report), str(out), "json")
    doc = read_report(str(out))
    assert doc["schema_version"] == 1
    assert doc["kind"] == "evaluate"
    assert doc["mean_oc_cost"] == report.mean_oc_cost
    # rows come back sorted by image id with exact float round-trip
    assert [row["image_id"] for row in doc["per_image"]] == [1, 2]
    by_id = {r.image_id: r.oc_cost for r in report.per_image}
    for row in doc["per_image"]:
        assert row["oc_cost"] == by_id[row["image_id"]]


def test_report_csv_layout(tmp_path):
    box = BoundingBox(0, 0, 10, 10)
    inputs = [
        (2, [Detection(box, 1, 0.7)], [GroundTruthInstance(box, 1)]),
        (1, [], [GroundTruthInstance(box, 1)]),
    ]
    report = dataset_oc_cost(inputs, OcCostParams())
    out = tmp_path / "report.csv"
    write_report(report_payload(report), str(out), "csv")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "image_id,oc_cost,matched_pairs,num_detections,num_ground_truths"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")
    # six significant digits
    assert "0.0750000" not in lines[2]
    assert "0.075" in lines[2]


def test_sweep_csv(tmp_path):
    payload = sweep_payload([(0.0, 0.123456789), (1.0, 0.5)], beta=0.6)
    out = tmp_path / "sweep.csv"
    write_report(payload, str(out), "csv")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,mean_oc_cost"
    assert lines[1] == "0,0.123457"
    assert lines[2] == "1,0.5"


def test_bootstrap_reports_are_written_as_a_list(tmp_path):
    box = BoundingBox(0, 0, 10, 10)
    inputs = [(i, [Detection(box, 1, 0.7)], [GroundTruthInstance(box, 1)]) for i in range(4)]
    reports = run_bootstrap([("a", inputs)], config=BootstrapConfig(trials=3, seed=1))
    out = tmp_path / "boot.json"
    write_report(bootstrap_payload(reports), str(out), "json")
    doc = read_report(str(out))
    assert doc["kind"] == "bootstrap"
    assert [d["detector"] for d in doc["detectors"]] == ["a"]
    with pytest.raises(ConfigError):
        write_report(reports[0], str(out), "json")


def test_write_report_takes_only_a_payload(tmp_path):
    box = BoundingBox(0, 0, 10, 10)
    inputs = [(i, [Detection(box, 1, 0.7)], [GroundTruthInstance(box, 1)]) for i in range(2)]
    results = [
        lambda_sweep(inputs, [0.0, 1.0], beta=0.6),
        [],
        dataset_oc_cost(inputs, OcCostParams()),
        run_bootstrap([("a", inputs)], config=BootstrapConfig(trials=2))[0],
    ]
    out = tmp_path / "report.json"
    for result in results:
        with pytest.raises(ConfigError, match="cannot serialize report of type"):
            write_report(result, str(out), "json")
    assert not out.exists()


def test_csv_report_is_the_json_row_table(tmp_path):
    box = BoundingBox(0, 0, 10, 10)
    inputs = [(i, [Detection(box, 1, 0.7)], [GroundTruthInstance(box, 1)]) for i in (2, 1)]
    boot = run_bootstrap([("a", inputs), ("b", inputs)], config=BootstrapConfig(trials=3))
    payloads = [
        (report_payload(dataset_oc_cost(inputs, OcCostParams()), {1: 1.0}, 1.0),
         "image_id,oc_cost,matched_pairs,num_detections,num_ground_truths,map", 2),
        (tune_payload(tune(inputs)), "score_threshold,iou_threshold,value", 18 * 7),
        (bootstrap_payload(boot), "detector,trial,value", 6),
        (histogram_payload([1, 1], [1, 2], [1, 1]), "count,gt,before,after", 3),
    ]
    for payload, header, rows in payloads:
        out = tmp_path / f"{payload['kind']}.csv"
        write_report(payload, str(out), "csv")
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
    assert lines[1:] == ["0,0,0,0", "1,2,1,2", "2,0,1,0"]
    # a table with no rows has no header to write
    with pytest.raises(ValidationError):
        write_report(sweep_payload([], beta=0.6), str(tmp_path / "empty.csv"), "csv")


def test_unknown_format_rejected(tmp_path):
    payload = sweep_payload([(0.0, 0.1)], beta=0.6)
    with pytest.raises(ConfigError):
        write_report(payload, str(tmp_path / "x.yaml"), "yaml")


def test_detection_inputs_sorted_and_joined(tmp_path):
    gt_path = minimal_gt(
        tmp_path,
        images=[
            {"id": 3, "width": 100, "height": 100},
            {"id": 1, "width": 100, "height": 100},
        ],
        annotations=[
            {"id": 1, "image_id": 3, "category_id": 1, "bbox": [0, 0, 5, 5]},
        ],
    )
    index = load_ground_truth(gt_path)
    dets = load_detections(write_json(tmp_path / "dt.json", []), index)
    inputs = detection_inputs(index, dets)
    assert [image_id for image_id, _, _ in inputs] == [1, 3]
    assert len(inputs[1][2]) == 1


def test_report_payload_includes_map_column():
    box = BoundingBox(0, 0, 10, 10)
    report = dataset_oc_cost([(1, [Detection(box, 1, 0.9)], [GroundTruthInstance(box, 1)])], OcCostParams())
    payload = report_payload(report, {1: 1.0})
    assert payload["per_image"][0]["map"] == 1.0
