"""Synthetic COCO-format scenes for tests and benchmarks.

Instances are laid out on a per-image grid of disjoint cells, one
instance per cell, so ground truths never overlap each other and
jittered detections never cross cells. That keeps the matching
structure of generated scenes analyzable: each real detection can only
pair with its own ground truth, and noise detections (low-score boxes
in otherwise empty cells) can only go unmatched or displace nothing.

Randomness uses a counter-based generator keyed by the seed, so a
fixture is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

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
        if self.images < 1:
            raise ConfigError(f"images must be >= 1, got {self.images}")
        if self.gts_per_image < 0 or self.noise_per_image < 0:
            raise ConfigError("instance counts must be >= 0")
        if self.categories < 1:
            raise ConfigError(f"categories must be >= 1, got {self.categories}")
        if self.image_size < 64:
            raise ConfigError(f"image_size must be >= 64, got {self.image_size}")
        if not 0.0 <= self.jitter <= 0.1:
            raise ConfigError(f"jitter must be in [0, 0.1], got {self.jitter}")
        for name in ("det_score", "noise_score"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if not 0 <= self.seed < 2**128:
            raise ConfigError(f"seed must be in [0, 2**128), got {self.seed}")


def _cell_box(rng: np.random.Generator, cell_x: float, cell_y: float, cell: float) -> tuple:
    """A box well inside one grid cell, with margin for jitter."""
    w = cell * rng.uniform(0.4, 0.6)
    h = cell * rng.uniform(0.4, 0.6)
    x1 = cell_x + cell * rng.uniform(0.15, 0.25)
    y1 = cell_y + cell * rng.uniform(0.15, 0.25)
    return x1, y1, w, h


def _jittered(rng: np.random.Generator, box: tuple, jitter: float) -> tuple:
    x1, y1, w, h = box
    dx = w * rng.uniform(-jitter, jitter)
    dy = h * rng.uniform(-jitter, jitter)
    sw = 1.0 + rng.uniform(-jitter, jitter)
    sh = 1.0 + rng.uniform(-jitter, jitter)
    return x1 + dx, y1 + dy, w * sw, h * sh


def generate_fixture(spec: FixtureSpec) -> tuple[dict, list[dict]]:
    """Build (ground-truth document, detection records) as COCO dicts."""
    per_image = spec.gts_per_image + spec.noise_per_image
    cols = max(1, math.ceil(math.sqrt(per_image)))
    cell = spec.image_size / cols

    images = []
    annotations = []
    detections = []
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
            cell_x = (slot % cols) * cell
            cell_y = (slot // cols) * cell
            box = _cell_box(rng, cell_x, cell_y, cell)
            if slot < spec.gts_per_image:
                category = 1 + slot % spec.categories
                annotations.append(
                    {
                        "id": ann_id,
                        "image_id": image_id,
                        "category_id": category,
                        "bbox": [round(v, 4) for v in box],
                        "iscrowd": 0,
                        "area": round(box[2] * box[3], 4),
                    }
                )
                ann_id += 1
                det_box = _jittered(rng, box, spec.jitter) if spec.jitter > 0 else box
                detections.append(
                    {
                        "image_id": image_id,
                        "category_id": category,
                        "bbox": [round(v, 4) for v in det_box],
                        "score": spec.det_score,
                    }
                )
            else:
                noise_index = slot - spec.gts_per_image
                detections.append(
                    {
                        "image_id": image_id,
                        "category_id": 1 + noise_index % spec.categories,
                        "bbox": [round(v, 4) for v in box],
                        "score": spec.noise_score,
                    }
                )

    gt_doc = {
        "images": images,
        "annotations": annotations,
        "categories": [
            {"id": cat, "name": f"category_{cat}"} for cat in range(1, spec.categories + 1)
        ],
    }
    return gt_doc, detections
