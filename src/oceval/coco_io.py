"""COCO-format ingestion and report serialization.

Ground truth follows the COCO instances layout (``images``,
``annotations``, ``categories``); detections follow the COCO results
layout (a flat list of image_id/category_id/bbox/score records). Boxes
arrive as [x, y, w, h] and are converted to corner form on load.

Structural problems (wrong types, missing keys) raise ParseError naming
the file. Value problems (non-positive box sides, scores outside [0, 1],
references to unknown ids) raise ValidationError listing the offending
records in strict mode, or skip those records with a warning in lenient
mode. Strict is the default: silently dropping records would corrupt
metric comparisons.

Report writing emits versioned JSON (raw doubles) or CSV (header row,
values at 6 significant digits, per-image rows sorted by image id).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from .costs import Detection, GroundTruthInstance
from .errors import ConfigError, ParseError, ValidationError
from .geometry import BoundingBox
from .nms import TuneResult
from .occost import DatasetReport

__all__ = [
    "SkippedRecordWarning",
    "DatasetIndex",
    "DetectionSet",
    "load_ground_truth",
    "load_detections",
    "sweep_payload",
    "histogram_payload",
    "report_payload",
    "write_report",
    "read_report",
    "detection_inputs",
]

SCHEMA_VERSION = 1


class SkippedRecordWarning(UserWarning):
    """A record was dropped during lenient loading."""


@dataclass(frozen=True)
class DatasetIndex:
    """Parsed ground truth: image sizes, per-image instances in file order,
    category names, and the crowd flag of every annotation."""

    images: Mapping[int, tuple[int, int]]
    ground_truths: Mapping[int, tuple[GroundTruthInstance, ...]]
    crowd_flags: Mapping[int, tuple[bool, ...]]
    categories: Mapping[int, str]

    def instances(self, include_crowd: bool = False) -> dict[int, list[GroundTruthInstance]]:
        """Per-image ground truths, excluding crowd regions unless asked."""
        out: dict[int, list[GroundTruthInstance]] = {}
        for image_id in self.images:
            gts = self.ground_truths.get(image_id, ())
            flags = self.crowd_flags.get(image_id, ())
            if include_crowd:
                out[image_id] = list(gts)
            else:
                out[image_id] = [g for g, crowd in zip(gts, flags) if not crowd]
        return out


@dataclass(frozen=True)
class DetectionSet:
    """Per-image detections in file order; every indexed image has an entry."""

    detections: Mapping[int, tuple[Detection, ...]]


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _require_int(value: Any, what: str, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: {what} must be an integer, got {value!r}")
    return value


def _number(value: Any) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _corner_box(bbox: Any, record: str, path: str) -> tuple[BoundingBox | None, str | None]:
    """Convert [x, y, w, h] to a corner-form box, or explain why not.

    Malformed shape is structural (raises); non-positive sides are a value
    problem reported to the caller for strict/lenient handling.
    """
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise ParseError(f"{path}: {record}: bbox must be a list of 4 numbers, got {bbox!r}")
    nums = [_number(v) for v in bbox]
    if any(v is None for v in nums):
        raise ParseError(f"{path}: {record}: bbox must be a list of 4 numbers, got {bbox!r}")
    x, y, w, h = nums
    if w <= 0 or h <= 0:
        return None, f"{record}: box width/height must be positive, got w={w:g} h={h:g}"
    return BoundingBox(x, y, x + w, y + h), None


def _handle_bad_records(problems: list[str], path: str, strict: bool) -> None:
    if not problems:
        return
    if strict:
        shown = "; ".join(problems[:20])
        more = f" (and {len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValidationError(f"{path}: {len(problems)} invalid record(s): {shown}{more}")
    for problem in problems:
        warnings.warn(f"{path}: skipped {problem}", SkippedRecordWarning, stacklevel=3)


def load_ground_truth(path: str, strict: bool = True) -> DatasetIndex:
    """Parse a COCO instances file into an immutable index.

    Images need integer ``id`` plus positive ``width``/``height``
    (``file_name`` is optional); annotations need ``image_id``,
    ``category_id``, and ``bbox``. Annotation order in the file is
    preserved per image.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("images", "annotations", "categories"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"{path}: missing or non-list top-level key {key!r}")

    images: dict[int, tuple[int, int]] = {}
    for i, rec in enumerate(doc["images"]):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: images[{i}] must be an object")
        image_id = _require_int(rec.get("id"), f"images[{i}].id", path)
        width = rec.get("width")
        height = rec.get("height")
        if _number(width) is None or _number(height) is None or width <= 0 or height <= 0:
            raise ParseError(f"{path}: images[{i}] needs positive width and height")
        if image_id in images:
            raise ValidationError(f"{path}: duplicate image id {image_id}")
        images[image_id] = (int(width), int(height))

    categories: dict[int, str] = {}
    for i, rec in enumerate(doc["categories"]):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: categories[{i}] must be an object")
        cat_id = _require_int(rec.get("id"), f"categories[{i}].id", path)
        name = rec.get("name")
        if not isinstance(name, str):
            raise ParseError(f"{path}: categories[{i}].name must be a string")
        if cat_id in categories:
            raise ValidationError(f"{path}: duplicate category id {cat_id}")
        categories[cat_id] = name

    ground_truths: dict[int, list[GroundTruthInstance]] = {i: [] for i in images}
    crowd_flags: dict[int, list[bool]] = {i: [] for i in images}
    problems: list[str] = []
    for i, rec in enumerate(doc["annotations"]):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: annotations[{i}] must be an object")
        label = f"annotations[{i}]" + (f" (id {rec['id']})" if "id" in rec else "")
        image_id = _require_int(rec.get("image_id"), f"{label}.image_id", path)
        cat_id = _require_int(rec.get("category_id"), f"{label}.category_id", path)
        box, problem = _corner_box(rec.get("bbox"), label, path)
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
        ground_truths[image_id].append(GroundTruthInstance(box=box, label=cat_id))
        crowd_flags[image_id].append(bool(crowd))
    _handle_bad_records(problems, path, strict)

    return DatasetIndex(
        images=images,
        ground_truths={i: tuple(v) for i, v in ground_truths.items()},
        crowd_flags={i: tuple(v) for i, v in crowd_flags.items()},
        categories=categories,
    )


def load_detections(path: str, index: DatasetIndex, strict: bool = True) -> DetectionSet:
    """Parse a COCO results file and group detections by image."""
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: top level must be a list of detection records")

    grouped: dict[int, list[Detection]] = {i: [] for i in index.images}
    problems: list[str] = []
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: [{i}] must be an object")
        label = f"[{i}]"
        image_id = _require_int(rec.get("image_id"), f"{label}.image_id", path)
        cat_id = _require_int(rec.get("category_id"), f"{label}.category_id", path)
        score = _number(rec.get("score"))
        if score is None:
            raise ParseError(f"{path}: {label}.score must be a number")
        box, problem = _corner_box(rec.get("bbox"), label, path)
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
    _handle_bad_records(problems, path, strict)

    return DetectionSet(detections={i: tuple(v) for i, v in grouped.items()})


def report_payload(report: DatasetReport, per_image_map: Mapping[Any, float] | None = None) -> dict:
    """Canonical dict form of an evaluation report."""
    rows = []
    for item in sorted(report.per_image, key=lambda r: r.image_id):
        row: dict[str, Any] = {
            "image_id": item.image_id,
            "oc_cost": item.oc_cost,
            "matched_pairs": item.matched_pairs,
            "num_detections": item.num_detections,
            "num_ground_truths": item.num_ground_truths,
        }
        if per_image_map is not None:
            row["map"] = per_image_map.get(item.image_id)
        rows.append(row)
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "evaluate",
        "params": {"lambda": report.params.loc_weight, "beta": report.params.dummy_cost},
        "image_count": report.image_count,
        "mean_oc_cost": report.mean_oc_cost,
        "per_image": rows,
    }
    return payload


def sweep_payload(rows: Sequence[tuple[float, float]], beta: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep-lambda",
        "beta": beta,
        "rows": [{"lambda": lam, "mean_oc_cost": value} for lam, value in rows],
    }


def histogram_payload(
    gt_counts: Sequence[int], before_counts: Sequence[int], after_counts: Sequence[int]
) -> dict:
    """Detection-count histograms per image: ground truth, raw, and tuned."""
    top = max([0, *gt_counts, *before_counts, *after_counts])
    bins = []
    for count in range(top + 1):
        bins.append(
            {
                "count": count,
                "gt": sum(1 for c in gt_counts if c == count),
                "before": sum(1 for c in before_counts if c == count),
                "after": sum(1 for c in after_counts if c == count),
            }
        )
    gt_mean = math.fsum(gt_counts) / len(gt_counts) if gt_counts else 0.0
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "count-histogram",
        "gt_mean": gt_mean,
        "bins": bins,
    }


def _tune_payload(result: TuneResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tune-nms",
        "objective": result.objective_kind,
        "best": {
            "score_threshold": result.best_params.score_threshold,
            "iou_threshold": result.best_params.iou_threshold,
        },
        "objective_value": result.objective_value,
        "grid": [
            {
                "score_threshold": p.score_threshold,
                "iou_threshold": p.iou_threshold,
                "value": v,
            }
            for p, v in result.grid
        ],
    }


def _bootstrap_payload(reports: Sequence[Any]) -> dict:
    detectors = []
    for rep in reports:
        detectors.append(
            {
                "detector": rep.detector,
                "metric": rep.metric,
                "config": {
                    "trials": rep.config.trials,
                    "sample_fraction": rep.config.sample_fraction,
                    "with_replacement": rep.config.with_replacement,
                    "seed": rep.config.seed,
                },
                "values": list(rep.values),
                "mean": rep.mean,
                "std": rep.std,
                "percentiles": {str(k): v for k, v in rep.percentiles.items()},
            }
        )
    return {"schema_version": SCHEMA_VERSION, "kind": "bootstrap", "detectors": detectors}


def _payload_for(report: Any) -> dict:
    if isinstance(report, dict):
        return report
    if isinstance(report, DatasetReport):
        return report_payload(report)
    if isinstance(report, TuneResult):
        return _tune_payload(report)
    if isinstance(report, (list, tuple)):
        return _bootstrap_payload(report)
    raise ConfigError(f"cannot serialize report of type {type(report).__name__}")


def _csv_rows(payload: dict) -> tuple[list[str], list[list[Any]]]:
    kind = payload.get("kind")
    if kind == "evaluate":
        header = ["image_id", "oc_cost", "matched_pairs", "num_detections", "num_ground_truths"]
        rows = payload["per_image"]
        if rows and "map" in rows[0]:
            header.append("map")
        return header, [[row.get(col) for col in header] for row in rows]
    if kind == "sweep-lambda":
        return ["lambda", "mean_oc_cost"], [
            [row["lambda"], row["mean_oc_cost"]] for row in payload["rows"]
        ]
    if kind == "tune-nms":
        return ["score_threshold", "iou_threshold", "value"], [
            [row["score_threshold"], row["iou_threshold"], row["value"]]
            for row in payload["grid"]
        ]
    if kind == "bootstrap":
        rows = []
        for det in payload["detectors"]:
            for trial, value in enumerate(det["values"]):
                rows.append([det["detector"], trial, value])
        return ["detector", "trial", "value"], rows
    if kind == "count-histogram":
        return ["count", "gt", "before", "after"], [
            [b["count"], b["gt"], b["before"], b["after"]] for b in payload["bins"]
        ]
    raise ConfigError(f"no CSV layout for report kind {kind!r}")


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return ""
    return str(value)


def write_report(report: Any, path: str, format: str = "json") -> None:
    """Serialize a report to ``path`` as versioned JSON or CSV."""
    if format not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {format!r}")
    payload = _payload_for(report)
    try:
        if format == "json":
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        else:
            header, rows = _csv_rows(payload)
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_csv_cell(v) for v in row])
    except OSError as exc:
        raise ParseError(f"{path}: cannot write report: {exc}") from exc


def read_report(path: str) -> dict:
    """Parse a JSON report written by write_report."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ParseError(f"{path}: not a report file (missing schema_version)")
    return doc


def detection_inputs(
    index: DatasetIndex, dets: DetectionSet, include_crowd: bool = False
) -> list[tuple[int, tuple[Detection, ...], list[GroundTruthInstance]]]:
    """Join an index with detections into per-image evaluation inputs,
    sorted by image id."""
    instances = index.instances(include_crowd=include_crowd)
    return [
        (image_id, dets.detections.get(image_id, ()), instances[image_id])
        for image_id in sorted(index.images)
    ]
