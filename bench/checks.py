"""Output checks against computations made apart from the program.

The references here read the COCO files themselves and use the paper's
definitions: the OC-cost transport problem is solved as a linear program
with ``scipy.optimize.linprog`` (HiGHS), which the program does not use,
and mAP is a COCO-style computation written from the protocol. Each
check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

TIE_EPSILON = 1e-7  # the solver's documented bias toward more matched pairs
ROUNDING = 1e-9
MAP_TOLERANCE = 1e-9
IOU_THRESHOLDS = np.linspace(0.5, 0.95, 10)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass
class Scene:
    """One image as read from the files: boxes in corner form, detections
    in file order."""

    gt_boxes: np.ndarray
    gt_labels: np.ndarray
    det_boxes: np.ndarray
    det_labels: np.ndarray
    det_scores: np.ndarray

    def only(self, keep: np.ndarray) -> "Scene":
        return Scene(self.gt_boxes, self.gt_labels, self.det_boxes[keep],
                     self.det_labels[keep], self.det_scores[keep])


def _corners(bboxes: list) -> np.ndarray:
    out = np.array(bboxes, dtype=np.float64).reshape(-1, 4)
    out[:, 2] += out[:, 0]
    out[:, 3] += out[:, 1]
    return out


def load_scenes(gt_path: str, dt_path: str) -> dict[int, Scene]:
    """Scenes keyed by image id in ascending order; crowd regions dropped."""
    with open(gt_path, encoding="utf-8") as handle:
        gt_doc = json.load(handle)
    with open(dt_path, encoding="utf-8") as handle:
        records = json.load(handle)
    gts: dict[int, list] = {image["id"]: [] for image in gt_doc["images"]}
    for ann in gt_doc["annotations"]:
        if not ann.get("iscrowd", 0):
            gts[ann["image_id"]].append(ann)
    dets: dict[int, list] = {image_id: [] for image_id in gts}
    for rec in records:
        dets[rec["image_id"]].append(rec)
    return {
        image_id: Scene(
            _corners([a["bbox"] for a in gts[image_id]]),
            np.array([a["category_id"] for a in gts[image_id]], dtype=np.int64),
            _corners([r["bbox"] for r in dets[image_id]]),
            np.array([r["category_id"] for r in dets[image_id]], dtype=np.int64),
            np.array([r["score"] for r in dets[image_id]], dtype=np.float64),
        )
        for image_id in sorted(gts)
    }


def overlaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and generalized IoU between corner-form boxes, shape (len(a), len(b))."""
    ax1, ay1, ax2, ay2 = (a[:, k, None] for k in range(4))
    bx1, by1, bx2, by2 = (b[None, :, k] for k in range(4))
    inter = np.clip(np.minimum(ax2, bx2) - np.maximum(ax1, bx1), 0, None) * np.clip(
        np.minimum(ay2, by2) - np.maximum(ay1, by1), 0, None
    )
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    hull = (np.maximum(ax2, bx2) - np.minimum(ax1, bx1)) * (np.maximum(ay2, by2) - np.minimum(ay1, by1))
    iou = inter / union
    return iou, iou - (hull - union) / hull


def lp_optimum(scene: Scene, lam: float, beta: float) -> float:
    """Optimal transport cost with dummy legs and the dummy corner at beta."""
    m, n = len(scene.det_labels), len(scene.gt_labels)
    cost = np.full((m + 1, n + 1), beta)
    if m and n:
        _, giou = overlaps(scene.det_boxes, scene.gt_boxes)
        s = scene.det_scores[:, None]
        same = scene.det_labels[:, None] == scene.gt_labels[None, :]
        cost[:m, :n] = lam * (1 - giou) / 2 + (1 - lam) * np.where(same, (1 - s) / 2, (1 + s) / 2)
    cells = np.arange((m + 1) * (n + 1))
    rows = np.concatenate([cells // (n + 1), m + 1 + cells % (n + 1)])
    constraints = coo_matrix((np.ones(2 * cells.size), (rows, np.tile(cells, 2))))
    supply_demand = np.array([1.0] * m + [n] + [1.0] * n + [m])
    result = linprog(
        cost.ravel(), A_eq=constraints.tocsr(), b_eq=supply_demand, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if result.status != 0:
        raise RuntimeError(f"linprog failed: {result.message}")
    return float(result.fun)


def check_evaluate(report: dict, scenes: dict[int, Scene], lam: float, beta: float,
                   sample: list[int]) -> list[str]:
    """Per-image range, the fsum mean, and the plan cost of sampled images
    against the linear-programming optimum."""
    problems = []
    rows = report["per_image"]
    if [row["image_id"] for row in rows] != list(scenes) or report["image_count"] != len(scenes):
        return ["report does not list every image once, in id order"]
    values = [row["oc_cost"] for row in rows]
    outside = [row["image_id"] for row in rows if not 0.0 <= row["oc_cost"] <= 1.0]
    if outside:
        problems.append(f"oc_cost outside [0, 1] on images {outside[:5]}")
    if report["mean_oc_cost"] != math.fsum(values) / len(values):
        problems.append(f"mean_oc_cost {report['mean_oc_cost']!r} != fsum/N {math.fsum(values) / len(values)!r}")
    by_id = {row["image_id"]: row for row in rows}
    for image_id in sample:
        row, scene = by_id[image_id], scenes[image_id]
        m, n, k = len(scene.det_labels), len(scene.gt_labels), row["matched_pairs"]
        if (row["num_detections"], row["num_ground_truths"]) != (m, n) or not 0 <= k <= min(m, n):
            problems.append(f"image {image_id}: counts {row} do not fit m={m} n={n}")
            continue
        if m + n == 0:
            continue
        plan = row["oc_cost"] * (m + n - k) + k * beta
        optimum = lp_optimum(scene, lam, beta)
        if not -ROUNDING <= plan - optimum <= k * TIE_EPSILON + ROUNDING:
            problems.append(f"image {image_id}: plan cost {plan!r} vs LP optimum {optimum!r}")
    return problems


def lp_sample(scenes: dict[int, Scene], seed: int, size: int = 40) -> list[int]:
    ids = list(scenes)
    return sorted(random.Random(seed).sample(ids, min(size, len(ids))))


def _greedy_tp(iou: list[list[float]], threshold: float) -> list[bool]:
    """COCO matching for score-ordered rows: each detection takes the
    unmatched ground truth of highest IoU among those at or above the
    threshold, the first one on a tie (the program's documented rule)."""
    matched = [False] * (len(iou[0]) if iou else 0)
    flags = []
    for row in iou:
        best, best_j = threshold, -1
        for j, value in enumerate(row):
            if not matched[j] and (value > best or (best_j < 0 and value == best)):
                best, best_j = value, j
        if best_j >= 0:
            matched[best_j] = True
        flags.append(best_j >= 0)
    return flags


def _image_rows(scene: Scene) -> dict[int, list[tuple[float, int, tuple[bool, ...]]]]:
    """Per category: (-score, rank in score order, true-positive flag per
    IoU threshold) of the image's detections, greedily matched."""
    gt_labels = scene.gt_labels.tolist()
    if not len(scene.det_labels):
        return {}
    iou = overlaps(scene.det_boxes, scene.gt_boxes)[0].tolist()
    scores = scene.det_scores.tolist()
    labels = scene.det_labels.tolist()
    out = {}
    for cat in set(labels):
        det_ids = sorted((i for i, label in enumerate(labels) if label == cat), key=lambda i: -scores[i])
        gt_ids = [j for j, label in enumerate(gt_labels) if label == cat]
        sub = [[iou[i][j] for j in gt_ids] for i in det_ids]
        flags = list(zip(*(_greedy_tp(sub, t) for t in IOU_THRESHOLDS.tolist())))
        out[cat] = [(-scores[i], rank, flags[rank]) for rank, i in enumerate(det_ids)]
    return out


def reference_map(scenes: dict[int, Scene], sample: list[int] | None = None) -> float:
    """COCO-style mAP: per-image greedy matching in score order, detections
    pooled per category in (score desc, image position, in-image rank)
    order, 101 recall points, IoU 0.50:0.95, only categories with ground
    truth. ``sample`` lists image positions (id order) with multiplicity,
    as a bootstrap trial draws them; the copies of a repeated image tie
    with each other and carry the same flags."""
    images = list(scenes.values())
    rows_of: dict[int, dict] = {}
    gt_count: Counter[int] = Counter()
    pooled: dict[int, list] = {}
    for position in range(len(images)) if sample is None else sample:
        if position not in rows_of:
            rows_of[position] = _image_rows(images[position])
        gt_count.update(images[position].gt_labels.tolist())
        for cat, rows in rows_of[position].items():
            pooled.setdefault(cat, []).extend((score, position, rank, flags) for score, rank, flags in rows)
    aps = []
    for cat in sorted(c for c, count in gt_count.items() if count):
        rows = sorted(pooled.get(cat, []), key=lambda r: r[:3])
        if not rows:
            aps.extend([0.0] * len(IOU_THRESHOLDS))
            continue
        tp = np.cumsum(np.array([r[3] for r in rows], dtype=np.float64), axis=0)
        recall = tp / gt_count[cat]
        precision = tp / np.arange(1, len(rows) + 1)[:, None]
        for t in range(len(IOU_THRESHOLDS)):
            envelope = np.maximum.accumulate(precision[::-1, t])[::-1]
            at = np.searchsorted(recall[:, t], RECALL_POINTS, side="left")
            sampled = [envelope[i] if i < len(rows) else 0.0 for i in at]
            aps.append(sum(sampled) / len(sampled))
    return float(sum(aps) / len(aps)) if aps else 0.0


def check_map(value: float, expected: float) -> list[str]:
    if not abs(value - expected) <= MAP_TOLERANCE:
        return [f"mAP {value!r} != reference {expected!r}"]
    return []


def check_nms(scenes: dict[int, Scene], kept: dict[int, np.ndarray], score: float, iou: float) -> list[str]:
    """Greedy NMS by its defining properties, per image and label: no two
    kept boxes overlap above ``iou``, nothing kept scores below ``score``,
    and every removed box scores below ``score`` or overlaps a kept box
    ranked before it (score desc, file order) above ``iou``."""
    problems = []
    slack = 1e-12
    for image_id, scene in scenes.items():
        keep = kept[image_id]
        m = len(keep)
        order = sorted(range(m), key=lambda i: (-scene.det_scores[i], i))
        rank = np.empty(m, dtype=np.int64)
        rank[order] = np.arange(m)
        mat, _ = overlaps(scene.det_boxes, scene.det_boxes)
        same = scene.det_labels[:, None] == scene.det_labels[None, :]
        np.fill_diagonal(same, False)
        if (mat[np.ix_(keep, keep)][same[np.ix_(keep, keep)]] > iou + slack).any():
            problems.append(f"image {image_id}: two kept boxes of one label overlap above {iou}")
        if (scene.det_scores[keep] < score).any():
            problems.append(f"image {image_id}: a kept box scores below {score}")
        for i in np.flatnonzero(~keep & (scene.det_scores >= score)):
            suppressors = keep & same[i] & (rank < rank[i]) & (mat[i] > iou - slack)
            if not suppressors.any():
                problems.append(f"image {image_id}: removed box {i} has no suppressor")
    return problems


def check_counts(histogram: dict, scenes: dict[int, Scene], kept: dict[int, np.ndarray]) -> list[str]:
    expected = {
        "gt": Counter(len(s.gt_labels) for s in scenes.values()),
        "before": Counter(len(s.det_labels) for s in scenes.values()),
        "after": Counter(int(k.sum()) for k in kept.values()),
    }
    for column, counts in expected.items():
        got = Counter({b["count"]: b[column] for b in histogram["bins"] if b[column]})
        if got != counts:
            return [f"count histogram column {column} does not match the kept boxes"]
    return []


def check_tune_choice(report: dict, scores: list[float], ious: list[float], minimize: bool) -> list[str]:
    """The grid is the requested one in order, and the best point is its
    optimum with the earliest point winning ties."""
    grid = report["grid"]
    if [(p["score_threshold"], p["iou_threshold"]) for p in grid] != [(s, t) for s in scores for t in ious]:
        return ["tune grid differs from the requested grid"]
    values = [p["value"] for p in grid]
    best = min(range(len(values)), key=lambda i: (values[i] if minimize else -values[i], i))
    point = grid[best]
    if report["best"] != {"score_threshold": point["score_threshold"], "iou_threshold": point["iou_threshold"]}:
        return [f"best point {report['best']} is not the grid optimum {point}"]
    if report["objective_value"] != point["value"]:
        return ["objective_value differs from the grid value at the best point"]
    return []


def check_sweep(report: dict, lambdas: list[float], evaluate_mean: float) -> list[str]:
    rows = report["rows"]
    if [row["lambda"] for row in rows] != lambdas:
        return ["sweep rows differ from the requested lambdas"]
    if any(not 0.0 <= row["mean_oc_cost"] <= 1.0 for row in rows):
        return ["sweep value outside [0, 1]"]
    at_half = [row["mean_oc_cost"] for row in rows if row["lambda"] == 0.5]
    if at_half != [evaluate_mean]:
        return [f"sweep at lambda 0.5 {at_half} != evaluate mean {evaluate_mean!r}"]
    return []
