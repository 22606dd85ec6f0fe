import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from oceval.geometry import boxes_to_array
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


@pytest.mark.parametrize("field", ["width", "height"])
@pytest.mark.parametrize("size", [0.5, 640.5])
def test_a_fractional_image_size_is_a_parse_error(tmp_path, field, size):
    # not truncated: 0.5 would load as a zero-pixel image, 640.5 as 640
    images = [{"id": 1, "width": 640, "height": 480, field: size}]
    with pytest.raises(ParseError, match=re.escape("images[0] needs positive width and height")):
        load_ground_truth(minimal_gt(tmp_path, images=images))


def test_a_whole_float_image_size_loads_as_an_integer(tmp_path):
    index = load_ground_truth(minimal_gt(tmp_path, images=[{"id": 1, "width": 640.0, "height": 480}]))
    assert index.images[1] == (640, 480)
    assert all(type(side) is int for side in index.images[1])


def test_unknown_image_reference(tmp_path):
    path = minimal_gt(
        tmp_path,
        annotations=[{"id": 1, "image_id": 7, "category_id": 1, "bbox": [0, 0, 5, 5]}],
    )
    with pytest.raises(ValidationError):
        load_ground_truth(path)
    with pytest.warns(SkippedRecordWarning):
        index = load_ground_truth(path, strict=False)
    assert len(index.ground_truths[1]) == 0


def test_crowd_annotations_flagged_and_excluded(tmp_path):
    path = minimal_gt(
        tmp_path,
        annotations=[
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "iscrowd": 1},
            {"id": 2, "image_id": 1, "category_id": 1, "bbox": [10, 10, 5, 5], "iscrowd": 0},
        ],
    )
    index = load_ground_truth(path)
    assert index.ground_truths[1].crowd.tolist() == [True, False]
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
    assert len(index.ground_truths[1]) == 0


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
    assert len(dets.detections[3]) == 0


def test_empty_detections_file(tmp_path):
    index = load_ground_truth(minimal_gt(tmp_path))
    dets = load_detections(write_json(tmp_path / "dt.json", []), index)
    assert len(dets.detections[1]) == 0


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
    assert len(dets.detections[1]) == 0


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


def test_write_report_names_a_value_json_cannot_write(tmp_path):
    box = BoundingBox(0, 0, 10, 10)
    inputs = [(1, [Detection(box, 1, 0.7)], [GroundTruthInstance(box, 1)])]
    payload = report_payload(dataset_oc_cost(inputs, OcCostParams()), None, None)
    out = tmp_path / "report.json"
    for value, name in (({1, 2}, "set"), (object(), "object"), (np.zeros(1), "ndarray")):
        with pytest.raises(ConfigError, match=f"^cannot serialize report value of type {name}$"):
            write_report({**payload, "extra": value}, str(out), "json")
        assert not out.exists()
    # a numpy scalar is written as its Python number
    write_report({**payload, "extra": np.float32(0.5)}, str(out), "json")
    assert read_report(str(out))["extra"] == 0.5


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
    # ConfigError: exit code 2
    with pytest.raises(ConfigError, match="no CSV layout for report kind 'mystery'"):
        write_report({**payload, "kind": "mystery"}, str(tmp_path / "x.csv"), "csv")


def test_read_report_rejects_a_file_without_schema_version(tmp_path):
    path = write_json(tmp_path / "gt.json", {"kind": "evaluate"})
    # ParseError: exit code 3
    with pytest.raises(ParseError, match=re.escape(f"{path}: not a report file (missing schema_version)")):
        read_report(path)


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


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "which, field, value, message",
    [
        ("detections", "bbox", [0, 0, 10**400, 5], "[1]: bbox must be a list of 4 numbers"),
        ("detections", "score", 10**400, "[1].score must be a number"),
        ("ground truth", "bbox", [0, 0, 5, 10**400], "annotations[1] (id 2): bbox must be a list of 4 numbers"),
        ("ground truth", "width", 10**400, "images[0] needs positive width and height"),
    ],
    ids=["detection-bbox", "detection-score", "annotation-bbox", "image-width"],
)
def test_integers_beyond_the_float_range_are_parse_errors(tmp_path, strict, which, field, value, message):
    # as 1e999 already is, on every path: not an OverflowError from float()
    good = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}
    bad = {**good, field: value}
    if field == "width":
        images = [{"id": 1, "width": value, "height": 480}]
        load = lambda: load_ground_truth(minimal_gt(tmp_path, images=images), strict=strict)
    elif which == "ground truth":
        records = [{"id": k + 1, **{key: rec[key] for key in ("image_id", "category_id", "bbox")}}
                   for k, rec in enumerate((good, bad))]
        load = lambda: load_ground_truth(minimal_gt(tmp_path, annotations=records), strict=strict)
    else:
        index = load_ground_truth(minimal_gt(tmp_path))
        path = write_json(tmp_path / "dt.json", [good, bad])
        load = lambda: load_detections(path, index, strict=strict)
    with pytest.raises(ParseError, match=re.escape(message)):
        load()


# The record-by-record loaders as they were before the columnar loader,
# with integers beyond the float range read as non-numbers: the oracle for
# every value, error and warning of the loader.

def _oracle_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _oracle_int(value, what, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: {what} must be an integer, got {value!r}")
    return value


def _oracle_box(bbox, record, path):
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise ParseError(f"{path}: {record}: bbox must be a list of 4 numbers, got {bbox!r}")
    nums = [_oracle_number(v) for v in bbox]
    if any(v is None for v in nums):
        raise ParseError(f"{path}: {record}: bbox must be a list of 4 numbers, got {bbox!r}")
    x, y, w, h = nums
    if w <= 0 or h <= 0:
        return None, f"{record}: box width/height must be positive, got w={w:g} h={h:g}"
    x2, y2 = x + w, y + h
    if not (x < x2 < math.inf and y < y2 < math.inf):
        return None, (
            f"{record}: box corners x + w, y + h must be finite and exceed x, y, "
            f"got x={x:g} y={y:g} w={w:g} h={h:g}"
        )
    return BoundingBox(x, y, x2, y2), None


def _oracle_problems(problems, path, strict):
    if not problems:
        return
    if strict:
        shown = "; ".join(problems[:20])
        more = f" (and {len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValidationError(f"{path}: {len(problems)} invalid record(s): {shown}{more}")
    for problem in problems:
        warnings.warn(f"{path}: skipped {problem}", SkippedRecordWarning)


def _oracle_annotations(path, images, categories, strict):
    """Per image: the kept annotations as (box, label, crowd) in file order."""
    annotations = json.loads(Path(path).read_text())["annotations"]
    grouped = {i: [] for i in images}
    problems = []
    for i, rec in enumerate(annotations):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: annotations[{i}] must be an object")
        label = f"annotations[{i}]" + (f" (id {rec['id']})" if "id" in rec else "")
        image_id = _oracle_int(rec.get("image_id"), f"{label}.image_id", path)
        cat_id = _oracle_int(rec.get("category_id"), f"{label}.category_id", path)
        box, problem = _oracle_box(rec.get("bbox"), label, path)
        if problem is None and image_id not in images:
            problem = f"{label}: unknown image_id {image_id}"
        if problem is None and cat_id not in categories:
            problem = f"{label}: unknown category_id {cat_id}"
        if problem is not None:
            problems.append(problem)
            continue
        crowd = rec.get("iscrowd", 0)
        if crowd not in (0, 1, True, False):
            raise ParseError(f"{path}: {label}.iscrowd must be 0 or 1")
        grouped[image_id].append((box, cat_id, bool(crowd)))
    _oracle_problems(problems, path, strict)
    return grouped


def _oracle_detections(path, index, strict):
    """Per image: the kept detections in file order."""
    doc = json.loads(Path(path).read_text())
    grouped = {i: [] for i in index.images}
    problems = []
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: [{i}] must be an object")
        label = f"[{i}]"
        image_id = _oracle_int(rec.get("image_id"), f"{label}.image_id", path)
        cat_id = _oracle_int(rec.get("category_id"), f"{label}.category_id", path)
        score = _oracle_number(rec.get("score"))
        if score is None:
            raise ParseError(f"{path}: {label}.score must be a number")
        box, problem = _oracle_box(rec.get("bbox"), label, path)
        if problem is None and not 0.0 <= score <= 1.0:
            problem = f"{label}: score must be in [0, 1], got {score:g}"
        if problem is None and image_id not in index.images:
            problem = f"{label}: unknown image_id {image_id}"
        if problem is None and cat_id not in index.categories:
            problem = f"{label}: unknown category_id {cat_id}"
        if problem is not None:
            problems.append(problem)
            continue
        grouped[image_id].append(Detection(box=box, label=cat_id, score=score))
    _oracle_problems(problems, path, strict)
    return grouped


MISSING = object()
ORACLE_IMAGES = [{"id": i, "width": 100, "height": 100} for i in (3, 1, 2)]
# one category id beyond int64, so labels of that category cannot be int64
ORACLE_CATEGORIES = [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}, {"id": 2**70, "name": "huge"}]

good_ids = st.sampled_from([1, 2, 3])
value_ids = good_ids | st.sampled_from([0, 7, -1, 2**63, 2**70])  # unknown or beyond int64
bad_ids = st.sampled_from([True, False, "1", 1.0, None, [1], MISSING])
good_coord = st.integers(0, 60) | st.floats(0, 60, allow_nan=False)
good_bbox = st.tuples(good_coord, good_coord, st.floats(0.5, 40), st.integers(1, 40)).map(list)
value_bbox = good_bbox | st.sampled_from([
    [0, 0, 0, 5], [1, 2, -3, 4], [0, 0, 5, -0.0],  # non-positive sides
    [1e308, 0, 1e308, 5], [0, 1e308, 5, 1e308],  # corners that overflow
    [1e9, 0, 1e-8, 5], [0, 1e9, 5, 1e-8],  # corners that round back
])
bad_bbox = st.sampled_from([
    [0, 0, 5], [0, 0, 5, 5, 5], [], "0,0,5,5", None, {"x": 0}, MISSING,
    [0, 0, True, 5], [0, "0", 5, 5], [0, 0, None, 5], [float("nan"), 0, 5, 5],
    [0, 0, float("inf"), 5], [0, 0, 10**400, 5], [-(10**400), 0, 5, 5],
])
good_score = st.floats(0, 1) | st.sampled_from([0, 1])
value_score = good_score | st.sampled_from([1.5, -0.1, 2, -1e-300])
bad_score = st.sampled_from([float("nan"), float("inf"), 10**400, "0.5", True, None, MISSING])
value_crowd = st.sampled_from([0, 1, True, False, 0.0, 1.0, MISSING])
bad_crowd = st.sampled_from([2, -1, 0.5, "1", None, [0], float("nan")])


def _records(structural, fields, draw):
    """A list of records: mostly well-formed, with value problems, and when
    ``structural`` also with malformed records or fields."""
    records = []
    for _ in range(draw(st.integers(0, 12))):
        if structural and draw(st.integers(0, 9)) == 0:
            records.append(draw(st.sampled_from([[], "record", 3, None])))
            continue
        rec = {}
        for key, good, value, bad in fields:
            kind = draw(st.integers(0, 9))
            strategy = bad if structural and kind == 0 else value if kind < 4 else good
            item = draw(strategy)
            if item is not MISSING:
                rec[key] = item
        records.append(rec)
    return records


def _assert_same_outcome(oracle, load, compare):
    """Strict and lenient: the same arrays, or the same exception type and
    message; lenient also the same warning texts in the same order."""
    outcomes = []
    for fn in (oracle, load):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = ("ok", fn())
            except (ParseError, ValidationError) as exc:
                result = (type(exc), str(exc))
        outcomes.append((result, [str(w.message) for w in caught if w.category is SkippedRecordWarning]))
    (expected, expected_warnings), (got, got_warnings) = outcomes
    assert got_warnings == expected_warnings
    assert got[0] == expected[0]
    if got[0] == "ok":
        compare(expected[1], got[1])
    else:
        assert got[1] == expected[1]


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(structural=st.booleans(), strict=st.booleans(), data=st.data())
def test_detection_loader_matches_the_record_by_record_oracle(oracle_dir, structural, strict, data):
    gt_path = write_json(oracle_dir / "gt.json", {
        "images": ORACLE_IMAGES, "annotations": [], "categories": ORACLE_CATEGORIES})
    index = load_ground_truth(gt_path)
    fields = [
        ("image_id", good_ids, value_ids, bad_ids),
        ("category_id", st.sampled_from([1, 2, 2**70]), value_ids, bad_ids),
        ("bbox", good_bbox, value_bbox, bad_bbox),
        ("score", good_score, value_score, bad_score),
    ]
    path = write_json(oracle_dir / "dt.json", _records(structural, fields, data.draw))

    def compare(expected, got):
        assert list(got.detections) == list(expected)
        for image_id, dets in expected.items():
            cols = got.detections[image_id]
            np.testing.assert_array_equal(cols.boxes.reshape(-1, 4), boxes_to_array(d.box for d in dets))
            assert cols.labels.tolist() == [d.label for d in dets]
            assert cols.scores.tolist() == [d.score for d in dets]

    _assert_same_outcome(
        lambda: _oracle_detections(path, index, strict),
        lambda: load_detections(path, index, strict=strict),
        compare,
    )


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(structural=st.booleans(), strict=st.booleans(), data=st.data())
def test_ground_truth_loader_matches_the_record_by_record_oracle(oracle_dir, structural, strict, data):
    fields = [
        ("id", st.integers(1, 9), st.integers(1, 9), st.sampled_from([MISSING, "x", None])),
        ("image_id", good_ids, value_ids, bad_ids),
        ("category_id", st.sampled_from([1, 2, 2**70]), value_ids, bad_ids),
        ("bbox", good_bbox, value_bbox, bad_bbox),
        ("iscrowd", st.sampled_from([0, 1]), value_crowd, bad_crowd),
    ]
    annotations = _records(structural, fields, data.draw)
    path = write_json(oracle_dir / "gt.json", {
        "images": ORACLE_IMAGES, "annotations": annotations, "categories": ORACLE_CATEGORIES})
    images = {rec["id"]: None for rec in ORACLE_IMAGES}
    categories = {rec["id"]: None for rec in ORACLE_CATEGORIES}

    def compare(expected, got):
        assert list(got.ground_truths) == list(expected)
        for image_id, rows in expected.items():
            cols = got.ground_truths[image_id]
            np.testing.assert_array_equal(cols.boxes.reshape(-1, 4), boxes_to_array(box for box, _, _ in rows))
            assert cols.labels.tolist() == [label for _, label, _ in rows]
            assert cols.crowd.tolist() == [crowd for _, _, crowd in rows]

    _assert_same_outcome(
        lambda: _oracle_annotations(path, images, categories, strict),
        lambda: load_ground_truth(path, strict=strict),
        compare,
    )
