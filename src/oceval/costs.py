"""Pairwise correction costs between detections and ground truths.

A unit cost says how much work it takes to turn one detection into one
ground-truth instance. It blends a localization term (driven by
generalized IoU) and a classification term (driven by the label match
and the confidence score), weighted by ``loc_weight``: the cost of
detection i against ground truth j is λ (1 - GIoU_ij) / 2 + (1 - λ) cls_ij,
with λ = ``loc_weight`` and cls_ij = (1 - s_i) / 2 when the labels agree
and (1 + s_i) / 2 when they differ, s_i the detection's score. A problem
is the m x n block of these costs for one image's m detections and n
ground truths, plus ``dummy_cost``: the price of leaving a detection
unmatched (a false positive) or a ground truth unmatched (a false
negative).

Every cell depends on its own detection and ground truth only, so the
terms are computed cell by cell (:func:`_cell_terms`) over any list of
(detection, ground truth) pairs: the one pricing kernel, ``_price`` in
:mod:`oceval.occost`, lists the cells of many passes at once. The two
terms do not depend on ``loc_weight``, so the kernel computes them once
per cell and blends them once per weight (:func:`_blend`; the lambda
sweep). A cell's terms, blend and gain are the same bits whichever list
it is computed in. ``image_oc_cost(...).plan`` reports the cost and
both terms of every matched pair (``costs``, ``loc_costs`` and
``cls_costs``).

Every kernel reads one image's detections and ground truths as columns
(:class:`DetectionArrays`, :class:`GroundTruthArrays`): the COCO loader
builds them directly, and sequences of :class:`Detection` and
:class:`GroundTruthInstance` are converted once where they enter.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from .errors import _check_real, _is_integer, _is_real
from .geometry import BoundingBox, _iou, boxes_to_array

__all__ = [
    "Detection",
    "GroundTruthInstance",
    "DetectionArrays",
    "GroundTruthArrays",
    "ImageInput",
    "OcCostParams",
]


@dataclass(frozen=True)
class Detection:
    """A labeled box with a confidence score in [0, 1]."""

    box: BoundingBox
    label: int
    score: float

    def __post_init__(self) -> None:
        if not (_is_real(self.score) and math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score must be a real number in [0, 1], got {self.score!r}")
        if not _is_integer(self.label):
            raise ValueError(f"detection label must be an integer, got {self.label!r}")


@dataclass(frozen=True)
class GroundTruthInstance:
    """A labeled reference box."""

    box: BoundingBox
    label: int

    def __post_init__(self) -> None:
        if not _is_integer(self.label):
            raise ValueError(f"ground truth label must be an integer, got {self.label!r}")


def id_array(ids: Sequence[Any]) -> np.ndarray:
    """Labels as an int64 array, or an object array when one is no int64."""
    try:
        return np.array(ids, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return np.array(ids, dtype=object)


@dataclass(frozen=True, eq=False)
class DetectionArrays:
    """One image's detections as columns: row i of ``boxes`` (corner form,
    float64), ``labels`` and ``scores`` is detection i.

    Rows obey the rules of :class:`Detection` and
    :class:`~oceval.geometry.BoundingBox`: the loader checks them and
    :func:`detection_arrays` copies checked objects, but the constructor
    checks nothing.
    """

    boxes: np.ndarray
    labels: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def take(self, rows: np.ndarray) -> "DetectionArrays":
        """The detections at ``rows`` (indices or a mask), in that order."""
        return DetectionArrays(self.boxes[rows], self.labels[rows], self.scores[rows])


@dataclass(frozen=True, eq=False)
class GroundTruthArrays:
    """One image's ground truths as columns: ``boxes`` (corner form,
    float64), ``labels`` and the COCO ``crowd`` flag of each row.

    Kernels read boxes and labels only; which rows reach them, crowd ones
    included or not, is the caller's choice.
    """

    boxes: np.ndarray
    labels: np.ndarray
    crowd: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows: np.ndarray) -> "GroundTruthArrays":
        """The ground truths at ``rows`` (indices or a mask), in that order."""
        return GroundTruthArrays(self.boxes[rows], self.labels[rows], self.crowd[rows])


# One image's detections or ground truths, as objects or as columns.
Detections = Sequence[Detection] | DetectionArrays
GroundTruths = Sequence[GroundTruthInstance] | GroundTruthArrays


def detection_arrays(dets: Detections) -> DetectionArrays:
    """The columnar form of ``dets``, which is returned as is when it
    already is one."""
    if isinstance(dets, DetectionArrays):
        return dets
    return DetectionArrays(
        boxes_to_array(d.box for d in dets),
        id_array([d.label for d in dets]),
        np.array([d.score for d in dets], dtype=np.float64),
    )


def ground_truth_arrays(gts: GroundTruths) -> GroundTruthArrays:
    """The columnar form of ``gts`` (no crowd rows), which is returned as
    is when it already is one."""
    if isinstance(gts, GroundTruthArrays):
        return gts
    return GroundTruthArrays(
        boxes_to_array(g.box for g in gts),
        id_array([g.label for g in gts]),
        np.zeros(len(gts), dtype=bool),
    )


# One image of a dataset: (image id, its detections, its ground truths).
ImageInput = tuple[Hashable, Detections, GroundTruths]


def image_arrays(item: ImageInput) -> tuple[Hashable, DetectionArrays, GroundTruthArrays]:
    """One image's input with both sides in columnar form."""
    image_id, dets, gts = item
    return image_id, detection_arrays(dets), ground_truth_arrays(gts)


@dataclass(frozen=True)
class OcCostParams:
    """Knobs of the correction cost.

    loc_weight:
        Weight of the localization term; the classification term gets the
        complement. Exposed as ``--lambda`` on the command line. 0 scores
        labels only, 1 scores geometry only.
    dummy_cost:
        Unit cost of routing a detection or a ground truth to the dummy,
        i.e. of declaring it a false positive / false negative. Exposed as
        ``--beta``. It caps the cost a matched pair may incur: pairs whose
        unit cost exceeds it are cheaper to reject than to match.

    Both must be in [0, 1]; that keeps the final per-image cost in [0, 1].
    """

    loc_weight: float = 0.5
    dummy_cost: float = 0.6

    def __post_init__(self) -> None:
        _check_real("loc_weight", self.loc_weight, 0, 1)
        _check_real("dummy_cost", self.dummy_cost, 0, 1)


def _cell_terms(
    dets: DetectionArrays, gts: GroundTruthArrays, det_rows: np.ndarray, gt_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The weight-independent localization and classification costs of
    each cell c: detection ``det_rows[c]`` against ground truth
    ``gt_rows[c]``."""
    boxes = np.take(dets.boxes, det_rows, axis=0)
    loc = (1.0 - _iou(boxes, np.take(gts.boxes, gt_rows, axis=0), generalized=True)) / 2.0
    scores = dets.scores.take(det_rows)
    same = dets.labels.take(det_rows) == gts.labels.take(gt_rows)
    cls = np.where(same, (1.0 - scores) / 2.0, (1.0 + scores) / 2.0)
    return loc, cls


def _blend(loc: np.ndarray, cls: np.ndarray, params: OcCostParams) -> np.ndarray:
    """The unit costs of cells (or pairs) with terms ``loc`` and ``cls``
    under ``params``."""
    w = params.loc_weight
    return w * loc + (1.0 - w) * cls
