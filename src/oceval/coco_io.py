"""COCO-format ingestion and report serialization.

Ground truth follows the COCO instances layout (``images``,
``annotations``, ``categories``); detections follow the COCO results
layout (a flat list of image_id/category_id/bbox/score records). Boxes
arrive as [x, y, w, h] and are converted to corner form on load.

Each image's detections and ground truths load as columns
(:class:`~oceval.costs.DetectionArrays`,
:class:`~oceval.costs.GroundTruthArrays`) in file order, without a
per-box object: the loader reads each field of every record into one
list, checks the types of a whole list at once and the values with array
masks. Both record lists share one set of value rules.

Structural problems (wrong types, missing keys, an ``iscrowd`` other than
0 or 1) raise ParseError naming the file and the first malformed record.
Value problems (non-positive box sides, corners that overflow or vanish,
scores outside [0, 1], references to unknown ids) raise
ValidationError listing the offending records in strict mode, or skip
those records with a warning in lenient mode. Strict is the default:
silently dropping records would corrupt metric comparisons.

Each report kind has one payload builder; write_report emits a payload as
versioned JSON (raw doubles) or CSV (its row table, 6 significant digits).
"""

from __future__ import annotations

import csv
import gc
import json
import math
import warnings
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from itertools import chain, compress, repeat
from typing import Any

import numpy as np

from .bootstrap import BootstrapReport
from .costs import DetectionArrays, GroundTruthArrays, detection_arrays, id_array
from .errors import ConfigError, ParseError, ValidationError
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
    "tune_payload",
    "bootstrap_payload",
    "write_report",
    "read_report",
    "detection_inputs",
]

SCHEMA_VERSION = 1


class SkippedRecordWarning(UserWarning):
    """A record was dropped during lenient loading."""


@dataclass(frozen=True)
class DatasetIndex:
    """Parsed ground truth: image sizes, category names, and every image's
    instances in file order as one :class:`~oceval.costs.GroundTruthArrays`
    whose ``crowd`` column flags the crowd regions."""

    images: Mapping[int, tuple[int, int]]
    ground_truths: Mapping[int, GroundTruthArrays]
    categories: Mapping[int, str]


@dataclass(frozen=True)
class DetectionSet:
    """Per-image detections in file order, one
    :class:`~oceval.costs.DetectionArrays` per image; every indexed image
    has an entry."""

    detections: Mapping[int, DetectionArrays]


def _load_json(path: str) -> Any:
    """The document of the UTF-8 JSON file ``path``. The cyclic garbage
    collector is paused while it is parsed: parsing makes many containers
    and no cycles, and each collection would walk every one made so far."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from exc
    finally:
        if enabled:
            gc.enable()


def _require_int(value: Any, what: str, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: {what} must be an integer, got {value!r}")
    return value


def _number(value: Any) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


def _typed(values: Iterable[Any], types: set[type]) -> bool:
    """Whether every value's exact type is in ``types`` (a bool is no int)."""
    return set(map(type, values)) <= types


def _finite(values: Any) -> np.ndarray | None:
    """Numbers, or lists of numbers, as a float64 array; None when one is
    infinite, NaN or an integer beyond the float range."""
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        return None
    return array if np.isfinite(array).all() else None


def _columns(
    records: list[Any], numbers: Sequence[str], flags: Sequence[str]
) -> tuple[Any, ...] | None:
    """Every record's ``image_id`` and ``category_id`` (lists of ints), its
    ``bbox`` (a (k, 4) array of [x, y, w, h]), the finite array of each key
    of ``numbers`` and the list of each key of ``flags`` (0 or 1, 0 when
    absent). None when a record is not an object or one of these values
    does not have its type."""
    if not _typed(records, {dict}):
        return None
    image_ids, cat_ids, bboxes, *values = (
        [rec.get(key) for rec in records] for key in ("image_id", "category_id", "bbox", *numbers)
    )
    if not (_typed(image_ids, {int}) and _typed(cat_ids, {int}) and _typed(bboxes, {list})):
        return None
    coords = list(chain.from_iterable(bboxes))
    if not (set(map(len, bboxes)) <= {4} and _typed(chain(coords, *values), {int, float})):
        return None
    arrays = [_finite(coords), *map(_finite, values)]
    flagged = [[rec.get(key, 0) for rec in records] for key in flags]
    if any(array is None for array in arrays) or not all(v in (0, 1) for v in chain(*flagged)):
        return None
    return image_ids, cat_ids, arrays[0].reshape(-1, 4), arrays[1:], flagged


def _raise_malformed(
    records: list[Any], path: str, label: Callable[[int, Any], str],
    numbers: Sequence[str], flags: Sequence[str],
) -> None:
    """Raise ParseError for the first record that :func:`_columns` cannot
    read, naming its first malformed field in the order object,
    ``image_id``, ``category_id``, ``numbers``, ``bbox``, ``flags``."""
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: {label(i, rec)} must be an object")
        name = label(i, rec)
        for key in ("image_id", "category_id"):
            _require_int(rec.get(key), f"{name}.{key}", path)
        for key in numbers:
            if _number(rec.get(key)) is None:
                raise ParseError(f"{path}: {name}.{key} must be a number")
        bbox = rec.get("bbox")
        if not (isinstance(bbox, list) and len(bbox) == 4 and None not in map(_number, bbox)):
            raise ParseError(f"{path}: {name}: bbox must be a list of 4 numbers, got {bbox!r}")
        for key in flags:
            if rec.get(key, 0) not in (0, 1):
                raise ParseError(f"{path}: {name}.{key} must be 0 or 1")


def _slots(ids: Sequence[int], table: Mapping[int, Any]) -> np.ndarray:
    """The position of each id among the keys of ``table``, -1 if absent."""
    position = {key: k for k, key in enumerate(table)}
    return np.fromiter(map(position.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))


def _per_image(
    slots: np.ndarray, images: Mapping[int, Any], *columns: np.ndarray
) -> dict[int, list[np.ndarray]]:
    """The rows of ``columns`` of each of ``images``, in file order
    (``slots`` holds each row's image position)."""
    order = np.argsort(slots, kind="stable")
    ends = np.cumsum(np.bincount(slots, minlength=len(images))).tolist()
    columns = tuple(column[order] for column in columns)
    return {
        image_id: [column[start:end] for column in columns]
        for image_id, start, end in zip(images, [0, *ends], ends)
    }


def _kept(values: list[Any], keep: np.ndarray) -> list[Any]:
    return values if keep.all() else list(compress(values, keep.tolist()))


def _load_records(
    records: list[Any],
    path: str,
    strict: bool,
    images: Mapping[int, Any],
    categories: Mapping[int, str],
    label: Callable[[int, Any], str],
    numbers: Sequence[str] = (),
    flags: Sequence[str] = (),
) -> dict[int, list[np.ndarray]]:
    """The valid records of ``records`` as columns, per image of ``images``
    in file order: corner-form boxes, labels, then each key of ``numbers``
    (float64, in [0, 1]) and of ``flags`` (bool).

    A malformed record raises ParseError. A record that breaks a value
    rule gets one message, ``label(i, record)`` and the first rule it
    breaks; strict mode raises ValidationError listing them, lenient mode
    skips each record with a warning.
    """
    columns = _columns(records, numbers, flags)
    if columns is None:
        _raise_malformed(records, path, label, numbers, flags)
    image_ids, cat_ids, xywh, values, flagged = columns
    x, y, w, h = xywh.T
    with np.errstate(over="ignore"):  # an overflowing corner is a problem reported here
        x2, y2 = x + w, y + h
    slots = _slots(image_ids, images)
    # each value rule once, in the order of precedence: the mask of the rows
    # it rejects, then its message and the columns that fill it in
    rules = [
        ((w <= 0) | (h <= 0), "box width/height must be positive, got w={:g} h={:g}", w, h),
        (~((x < x2) & (x2 < math.inf) & (y < y2) & (y2 < math.inf)),
         "box corners x + w, y + h must be finite and exceed x, y, "
         "got x={:g} y={:g} w={:g} h={:g}", x, y, w, h),
        *(((v < 0) | (v > 1), f"{key} must be in [0, 1], got {{:g}}", v)
          for key, v in zip(numbers, values)),
        (slots < 0, "unknown image_id {}", image_ids),
        (_slots(cat_ids, categories) < 0, "unknown category_id {}", cat_ids),
    ]
    failed = np.array([mask for mask, *_ in rules])
    keep = ~failed.any(axis=0)
    problems = []
    for i in np.flatnonzero(~keep).tolist():
        _, message, *fields = rules[failed[:, i].argmax()]
        problems.append(f"{label(i, records[i])}: " + message.format(*(c[i] for c in fields)))
    if problems and strict:
        shown = "; ".join(problems[:20])
        more = f" (and {len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValidationError(f"{path}: {len(problems)} invalid record(s): {shown}{more}")
    for problem in problems:
        warnings.warn(f"{path}: skipped {problem}", SkippedRecordWarning, stacklevel=3)

    return _per_image(
        slots[keep], images, np.column_stack([x, y, x2, y2])[keep], id_array(_kept(cat_ids, keep)),
        *(v[keep] for v in values), *(np.array(_kept(f, keep), dtype=bool) for f in flagged),
    )


def load_ground_truth(path: str, strict: bool = True) -> DatasetIndex:
    """Parse a COCO instances file into an immutable index.

    Images need integer ``id`` plus positive whole ``width``/``height``
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
        sides = (_number(width), _number(height))
        if not all(side is not None and side > 0 and side.is_integer() for side in sides):
            raise ParseError(f"{path}: images[{i}] needs positive width and height in whole pixels")
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

    per_image = _load_records(
        doc["annotations"], path, strict, images, categories,
        lambda i, rec: f"annotations[{i}]" + (
            f" (id {rec['id']})" if isinstance(rec, dict) and "id" in rec else ""),
        flags=("iscrowd",),
    )
    return DatasetIndex(
        images=images,
        ground_truths={i: GroundTruthArrays(*columns) for i, columns in per_image.items()},
        categories=categories,
    )


def load_detections(path: str, index: DatasetIndex, strict: bool = True) -> DetectionSet:
    """Parse a COCO results file and group detections by image."""
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: top level must be a list of detection records")
    per_image = _load_records(
        doc, path, strict, index.images, index.categories, lambda i, _: f"[{i}]", numbers=("score",)
    )
    return DetectionSet({i: DetectionArrays(*columns) for i, columns in per_image.items()})


def report_payload(
    report: DatasetReport,
    per_image_map: Mapping[Any, float] | None = None,
    mean_ap: float | None = None,
) -> dict:
    """Canonical dict form of an evaluation report; ``per_image_map`` adds
    a per-image ``map`` column and ``mean_ap`` the dataset mAP."""
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
    if mean_ap is not None:
        payload["mean_ap"] = mean_ap
    return payload


def sweep_payload(rows: Sequence[tuple[float, float]], beta: float) -> dict:
    """Dict form of a ``lambda_sweep`` result run at dummy cost ``beta``."""
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
    gt, before, after = Counter(gt_counts), Counter(before_counts), Counter(after_counts)
    bins = [
        {"count": count, "gt": gt[count], "before": before[count], "after": after[count]}
        for count in range(top + 1)
    ]
    gt_mean = math.fsum(gt_counts) / len(gt_counts) if gt_counts else 0.0
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "count-histogram",
        "gt_mean": gt_mean,
        "bins": bins,
    }


def tune_payload(result: TuneResult) -> dict:
    """Dict form of an NMS tuning result."""
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


def bootstrap_payload(reports: Sequence[BootstrapReport]) -> dict:
    """Dict form of the per-detector reports of one bootstrap run."""
    detectors = [
        {
            "detector": rep.detector,
            "metric": rep.metric,
            "config": asdict(rep.config),
            "values": list(rep.values),
            "mean": rep.mean,
            "std": rep.std,
            "percentiles": {str(k): v for k, v in rep.percentiles.items()},
        }
        for rep in reports
    ]
    return {"schema_version": SCHEMA_VERSION, "kind": "bootstrap", "detectors": detectors}


# The row table of each report kind, which is its CSV form under a header
# of its first row's keys. A bootstrap report's table is derived: one row
# per detector and trial.
_TABLES = {"evaluate": "per_image", "sweep-lambda": "rows", "tune-nms": "grid",
           "count-histogram": "bins"}


def _csv_table(payload: dict) -> list[dict[str, Any]]:
    kind = payload.get("kind")
    if kind == "bootstrap":
        table = [
            {"detector": det["detector"], "trial": trial, "value": value}
            for det in payload["detectors"]
            for trial, value in enumerate(det["values"])
        ]
    elif kind in _TABLES:
        table = payload[_TABLES[kind]]
    else:
        raise ConfigError(f"no CSV layout for report kind {kind!r}")
    if not table:
        raise ValidationError(f"{kind} report has no rows to write as CSV")
    return table


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return ""
    return str(value)


def _json_number(value: Any) -> Any:
    """A numpy scalar, which a setting may be, as the Python number json
    writes; any other value json cannot write is a usage error."""
    if isinstance(value, np.generic):
        return value.item()
    raise ConfigError(f"cannot serialize report value of type {type(value).__name__}")


def write_report(payload: dict, path: str, format: str = "json") -> None:
    """Serialize a report payload, as built by ``report_payload``,
    ``sweep_payload``, ``histogram_payload``, ``tune_payload`` or
    ``bootstrap_payload``, to ``path`` as versioned JSON or CSV."""
    if format not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {format!r}")
    if not isinstance(payload, dict):
        raise ConfigError(f"cannot serialize report of type {type(payload).__name__}")
    try:
        if format == "json":
            text = json.dumps(payload, indent=2, default=_json_number)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            table = _csv_table(payload)
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(table[0])
                for row in table:
                    writer.writerow([_csv_cell(row.get(col)) for col in table[0]])
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
) -> list[tuple[int, DetectionArrays, GroundTruthArrays]]:
    """Join an index with detections into per-image evaluation inputs,
    sorted by image id; crowd regions are dropped unless asked for."""
    out = []
    for image_id in sorted(index.images):
        gts = index.ground_truths[image_id]
        if not include_crowd and gts.crowd.any():
            gts = gts.take(~gts.crowd)
        out.append((image_id, detection_arrays(dets.detections.get(image_id, ())), gts))
    return out
