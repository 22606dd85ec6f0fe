"""Scalar and exhaustive references that tests check the kernels against.

None of them is used by the package: the pair IoU and GIoU kernel must
equal :func:`iou`/:func:`giou` bit for bit, the pricing kernel's cells
must equal :func:`unit_cost` (and its two terms) cell by cell, its plans
(``transport._plans``) must reach the objective of
:func:`brute_force_solve` on the :func:`unit_cost_matrix` of a scene,
``nms`` must keep what :func:`scalar_nms` keeps, and
``generate_fixture`` must build what :func:`scalar_fixture` builds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from oceval import (
    BoundingBox,
    Detection,
    FixtureSpec,
    GroundTruthInstance,
    NmsParams,
    OcCostParams,
)
from oceval.errors import ConfigError
from oceval.transport import _checked_gains

MAX_BRUTE_FORCE_SIDE = 6


def area(b: BoundingBox) -> float:
    """Box area, strictly positive by the construction invariant."""
    return (b.x2 - b.x1) * (b.y2 - b.y1)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint boxes, 1 iff identical."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = area(a) + area(b) - inter
    return inter / union


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU: IoU minus the fraction of the enclosing hull not covered.

    Equals IoU(a, b) - (|hull| - |union|) / |hull| where hull is the smallest
    enclosing box of both inputs. Lies in (-1, 1]; equals 1 iff the boxes are
    identical, and unlike plain IoU it keeps discriminating between disjoint
    boxes as they move apart.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = area(a) + area(b) - inter
    hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    return inter / union - (hull - union) / hull


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou` of every row of the (N, 4) corner-form array ``a`` with
    every row of ``b``, shape (N, M)."""
    rows, cols = ([BoundingBox(*box) for box in boxes.tolist()] for boxes in (a, b))
    return np.array([[iou(p, q) for q in cols] for p in rows]).reshape(len(rows), len(cols))


def localization_cost(a: BoundingBox, b: BoundingBox) -> float:
    """(1 - GIoU) / 2, in [0, 1): zero iff the boxes coincide."""
    return (1.0 - giou(a, b)) / 2.0


def classification_cost(score: float, det_label: int, gt_label: int) -> float:
    """Cost of fixing the label given the confidence placed on it.

    A correct label costs (1 - score) / 2, so confident correct labels are
    nearly free; a wrong label costs (1 + score) / 2, so confident mistakes
    are penalized hardest. Either branch maps score 0 to 0.5.
    """
    if det_label == gt_label:
        return (1.0 - score) / 2.0
    return (1.0 + score) / 2.0


def unit_cost(det: Detection, gt: GroundTruthInstance, params: OcCostParams) -> float:
    """Convex blend of localization and classification costs, in [0, 1]."""
    w = params.loc_weight
    return w * localization_cost(det.box, gt.box) + (1.0 - w) * classification_cost(
        det.score, det.label, gt.label
    )


def unit_cost_matrix(
    dets: list[Detection], gts: list[GroundTruthInstance], params: OcCostParams
) -> np.ndarray:
    """The m x n matrix of :func:`unit_cost`: row i for detection i,
    column j for ground truth j."""
    costs = [[unit_cost(det, gt, params) for gt in gts] for det in dets]
    return np.array(costs, dtype=np.float64).reshape(len(dets), len(gts))


def brute_force_solve(entries: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustively enumerate every partial matching of the m x n pair
    costs ``entries`` with dummy cost ``beta``; verification oracle for the
    kernel's plans.

    Selects the plan with the least exact sum of credited gains among those
    matching only pairs of negative gain, preferring more matches on ties,
    and returns its pairs (rows, cols) ordered by row. Enumeration is
    bounded to small instances by design.
    """
    if entries.ndim != 2:
        raise ConfigError(f"cost matrix must be 2-D (m x n), got shape {entries.shape}")
    gains = _checked_gains(entries, beta)
    m, n = entries.shape
    if m > MAX_BRUTE_FORCE_SIDE or n > MAX_BRUTE_FORCE_SIDE:
        raise ConfigError(
            f"brute-force enumeration is limited to {MAX_BRUTE_FORCE_SIDE} boxes per side, "
            f"got m={m}, n={n}"
        )

    best_key: tuple[float, int] | None = None
    best_match: tuple[tuple[int, int], ...] = ()
    for k in range(min(m, n) + 1):
        for det_sel in itertools.combinations(range(m), k):
            for gt_sel in itertools.permutations(range(n), k):
                match = tuple(zip(det_sel, gt_sel))
                pair_gains = [gains[i, j] for i, j in match]
                if any(g >= 0 for g in pair_gains):
                    continue
                key = (math.fsum(pair_gains), -k)
                if best_key is None or key < best_key:
                    best_key = key
                    best_match = match

    rows = np.array([i for i, _ in best_match], dtype=np.intp)
    cols = np.array([j for _, j in best_match], dtype=np.intp)
    return rows, cols


def scalar_nms(dets: list[Detection], params: NmsParams) -> list[Detection]:
    """NMS as a scalar loop over the boxes, in rank order."""
    order = sorted(
        (i for i, d in enumerate(dets) if d.score >= params.score_threshold),
        key=lambda i: (-dets[i].score, i),
    )
    suppressed = [False] * len(order)
    for a in range(len(order)):
        if suppressed[a]:
            continue
        for b in range(a + 1, len(order)):
            da, db = dets[order[a]], dets[order[b]]
            if not suppressed[b] and da.label == db.label and iou(da.box, db.box) > params.iou_threshold:
                suppressed[b] = True
    return [dets[i] for a, i in enumerate(order) if not suppressed[a]]


def scalar_fixture(spec: FixtureSpec) -> tuple[dict, list[dict]]:
    """``generate_fixture`` with one scalar draw per number, slot by slot:
    each image's Philox stream gives w, h, x1, y1 of every slot, followed
    for a jittered ground truth by its dx, dy, sw, sh."""
    per_image = spec.gts_per_image + spec.noise_per_image
    cols = max(1, math.ceil(math.sqrt(per_image)))
    cell = spec.image_size / cols
    images, annotations, detections = [], [], []
    ann_id = 1
    for img_index in range(spec.images):
        image_id = img_index + 1
        images.append(
            {
                "id": image_id,
                "width": spec.image_size,
                "height": spec.image_size,
                "file_name": f"synthetic_{image_id:06d}.jpg",
            }
        )
        rng = np.random.Generator(np.random.Philox(key=spec.seed, counter=[img_index, 0, 0, 0]))
        for slot in range(per_image):
            w = cell * rng.uniform(0.4, 0.6)
            h = cell * rng.uniform(0.4, 0.6)
            x1 = (slot % cols) * cell + cell * rng.uniform(0.15, 0.25)
            y1 = (slot // cols) * cell + cell * rng.uniform(0.15, 0.25)
            box = (x1, y1, w, h)
            if slot >= spec.gts_per_image:
                detections.append(
                    {
                        "image_id": image_id,
                        "category_id": 1 + (slot - spec.gts_per_image) % spec.categories,
                        "bbox": [round(v, 4) for v in box],
                        "score": spec.noise_score,
                    }
                )
                continue
            category = 1 + slot % spec.categories
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": image_id,
                    "category_id": category,
                    "bbox": [round(v, 4) for v in box],
                    "iscrowd": 0,
                    "area": round(w * h, 4),
                }
            )
            ann_id += 1
            if spec.jitter > 0:
                dx = w * rng.uniform(-spec.jitter, spec.jitter)
                dy = h * rng.uniform(-spec.jitter, spec.jitter)
                sw = 1.0 + rng.uniform(-spec.jitter, spec.jitter)
                sh = 1.0 + rng.uniform(-spec.jitter, spec.jitter)
                box = (x1 + dx, y1 + dy, w * sw, h * sh)
            detections.append(
                {
                    "image_id": image_id,
                    "category_id": category,
                    "bbox": [round(v, 4) for v in box],
                    "score": spec.det_score,
                }
            )
    categories = [{"id": cat, "name": f"category_{cat}"} for cat in range(1, spec.categories + 1)]
    return {"images": images, "annotations": annotations, "categories": categories}, detections
