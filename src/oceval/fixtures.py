"""Synthetic COCO-format scenes for tests and benchmarks.

Instances are laid out on a per-image grid of disjoint cells, one
instance per cell, so ground truths never overlap each other and
jittered detections never cross cells. That keeps the matching
structure of generated scenes analyzable: each real detection can only
pair with its own ground truth, and noise detections (low-score boxes
in otherwise empty cells) can only go unmatched or displace nothing.

Randomness uses a counter-based generator keyed by the seed, so a
fixture is a pure function of its arguments. Image i's stream starts at
counter i, and Philox counts its 4-number blocks in the counter's lowest
word, so the streams of neighbouring images overlap: image i + 1 draws
image i's numbers from the fifth on. With four noise boxes per image and
no ground truths (seed 1), image 2's first three boxes are image 1's
last three, each moved one cell back. Disjoint streams would change
every generated dataset, so the layout stays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import _check_integer, _check_real

__all__ = ["FixtureSpec", "generate_fixture"]


@dataclass(frozen=True)
class FixtureSpec:
    """Shape of a generated dataset.

    Each image gets ``gts_per_image`` ground truths with one detection
    apiece (box perturbed by up to ``jitter`` of its size, scored
    ``det_score``) plus ``noise_per_image`` spurious detections scored
    ``noise_score`` in cells of their own. Categories cycle over
    ``categories`` ids starting at 1.
    """

    images: int = 10
    gts_per_image: int = 7
    categories: int = 3
    image_size: int = 640
    det_score: float = 0.9
    jitter: float = 0.05
    noise_per_image: int = 0
    noise_score: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("images", self.images, 1)
        _check_integer("gts_per_image", self.gts_per_image, 0)
        _check_integer("noise_per_image", self.noise_per_image, 0)
        _check_integer("categories", self.categories, 1)
        _check_integer("image_size", self.image_size, 64)
        _check_real("jitter", self.jitter, 0, 0.1)
        _check_real("det_score", self.det_score, 0, 1)
        _check_real("noise_score", self.noise_score, 0, 1)
        _check_integer("seed", self.seed, 0, bits=128)


def _draw_bounds(spec: FixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (low, high) of every number an image draws, in draw order: the
    w, h, x1 and y1 of each slot, each jittered ground truth's followed by
    its dx, dy, sw and sh. Ground-truth slots come before noise slots."""
    box = [(0.4, 0.6), (0.4, 0.6), (0.15, 0.25), (0.15, 0.25)]
    jitter = [(-spec.jitter, spec.jitter)] * 4 if spec.jitter > 0 else []
    bounds = (box + jitter) * spec.gts_per_image + box * spec.noise_per_image
    lows, highs = np.array(bounds, dtype=np.float64).reshape(-1, 2).T
    return lows, highs


def _rounded(values: np.ndarray) -> list[float]:
    """``values`` in C order, each rounded to 4 places by Python's
    ``round``, which rounds correctly where ``np.round`` may not. A
    memoryview hands them over as Python floats one at a time."""
    return list(map(round, memoryview(values.ravel()), itertools.repeat(4)))


def _rows(values: np.ndarray) -> list[list[float]]:
    """The rows of a (..., 4) array of boxes, rounded as :func:`_rounded`."""
    flat = _rounded(values)
    return [flat[i : i + 4] for i in range(0, len(flat), 4)]


def _boxes(spec: FixtureSpec) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """The rounded ``[x, y, w, h]`` of every ground truth, their rounded
    areas and the rounded boxes of every detection, image by image.

    Each image draws all its numbers with one ``uniform`` call on its own
    stream; the boxes of all images are then computed at once, by the
    float64 operations of one box at a time. The arrays are freed on
    return, before the caller builds its records.
    """
    gts, per_image = spec.gts_per_image, spec.gts_per_image + spec.noise_per_image
    cols = max(1, math.ceil(math.sqrt(per_image)))
    cell = spec.image_size / cols

    lows, highs = _draw_bounds(spec)
    streams = (np.random.Philox(key=spec.seed, counter=[i, 0, 0, 0]) for i in range(spec.images))
    draws = np.array([np.random.Generator(stream).uniform(lows, highs) for stream in streams])
    width = 8 if spec.jitter > 0 else 4
    truth = draws[:, : gts * width].reshape(spec.images, gts, width)
    noise = draws[:, gts * width :].reshape(spec.images, spec.noise_per_image, 4)
    u = np.concatenate([truth[..., :4], noise], axis=1)
    slot = np.arange(per_image)
    w = cell * u[..., 0]
    h = cell * u[..., 1]
    x1 = (slot % cols) * cell + cell * u[..., 2]
    y1 = (slot // cols) * cell + cell * u[..., 3]
    boxes = np.stack([x1, y1, w, h], axis=-1)
    truth_boxes = _rows(boxes[:, :gts])
    areas = _rounded(w[:, :gts] * h[:, :gts])
    if spec.jitter > 0:
        w, h, jitter = w[:, :gts], h[:, :gts], truth[..., 4:]
        boxes[:, :gts] = np.stack(
            [
                x1[:, :gts] + w * jitter[..., 0],
                y1[:, :gts] + h * jitter[..., 1],
                w * (1.0 + jitter[..., 2]),
                h * (1.0 + jitter[..., 3]),
            ],
            axis=-1,
        )
    return truth_boxes, areas, _rows(boxes)


def generate_fixture(spec: FixtureSpec) -> tuple[dict, list[dict]]:
    """Build (ground-truth document, detection records) as COCO dicts."""
    gts, per_image = spec.gts_per_image, spec.gts_per_image + spec.noise_per_image
    truth_boxes, areas, det_boxes = _boxes(spec)
    # (category, score) of each slot: a ground truth's detection, then noise
    slots = [(1 + s % spec.categories, spec.det_score) for s in range(gts)] + [
        (1 + s % spec.categories, spec.noise_score) for s in range(spec.noise_per_image)
    ]
    images: list[dict] = []
    annotations: list[dict] = []
    detections: list[dict] = []
    for image_id in range(1, spec.images + 1):
        images.append(
            {
                "id": image_id,
                "width": spec.image_size,
                "height": spec.image_size,
                "file_name": f"synthetic_{image_id:06d}.jpg",
            }
        )
        first = (image_id - 1) * gts
        annotations += [
            {
                "id": first + slot + 1,
                "image_id": image_id,
                "category_id": category,
                "bbox": bbox,
                "iscrowd": 0,
                "area": area,
            }
            for slot, ((category, _), bbox, area) in enumerate(
                zip(slots, truth_boxes[first : first + gts], areas[first : first + gts])
            )
        ]
        first = (image_id - 1) * per_image
        detections += [
            {"image_id": image_id, "category_id": category, "bbox": bbox, "score": score}
            for (category, score), bbox in zip(slots, det_boxes[first : first + per_image])
        ]

    gt_doc = {
        "images": images,
        "annotations": annotations,
        "categories": [
            {"id": cat, "name": f"category_{cat}"} for cat in range(1, spec.categories + 1)
        ],
    }
    return gt_doc, detections
