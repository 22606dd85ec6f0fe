"""Per-image optimal correction cost and its dataset aggregation.

The per-image value is the average unit cost actually paid by the optimal
plan, after discarding the dummy-to-dummy corner: that corner moves slack
between the two artificial nodes and says nothing about detection quality.
With k matched pairs out of m detections and n ground truths, the plan
keeps m + n - k paying units (the k pairs, the m - k unmatched detections
and the n - k unmatched ground truths), so the final cost is their cost
sum divided by m + n - k. It lies in [0, 1] whenever the dummy cost
does, is 0 exactly for a perfect result, and equals the dummy cost exactly
when one side of the image is empty.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Hashable, TypeVar

import numpy as np

from .costs import (
    Detection,
    GroundTruthInstance,
    ImageInput,
    OcCostParams,
    _blend,
    _pair_terms,
    detection_arrays,
    ground_truth_arrays,
    image_arrays,
)
from .errors import ConfigError, ValidationError
from .transport import _checked_gains, _match

__all__ = [
    "PairCost",
    "ImageEvalResult",
    "DatasetReport",
    "image_oc_cost",
    "dataset_oc_cost",
    "lambda_sweep",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class PairCost:
    """One paying flow of the optimal plan.

    ``det_index`` is None when a ground truth went undetected (a false
    negative); ``gt_index`` is None when a detection matched nothing (a
    false positive). The localization/classification split is only defined
    for real pairs.
    """

    det_index: int | None
    gt_index: int | None
    cost: float
    loc_cost: float | None = None
    cls_cost: float | None = None


@dataclass(frozen=True)
class ImageEvalResult:
    """Evaluation of a single image."""

    image_id: Hashable
    oc_cost: float
    matched_pairs: int
    num_detections: int
    num_ground_truths: int
    per_pair_breakdown: tuple[PairCost, ...] | None = None


@dataclass(frozen=True)
class DatasetReport:
    """Per-image results plus their unweighted arithmetic mean."""

    mean_oc_cost: float
    per_image: tuple[ImageEvalResult, ...]
    params: OcCostParams
    image_count: int


def image_oc_cost(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthInstance],
    params: OcCostParams,
    *,
    image_id: Hashable = None,
    with_breakdown: bool = False,
) -> ImageEvalResult:
    """Evaluate one image.

    Builds the m x n problem, solves it exactly, and averages the cost of
    the m + n - k paying units of the plan: the k matched pairs and the
    unmatched detections and ground truths. Empty images (no detections,
    no ground truths) cost 0; images empty on one side only cost exactly
    the dummy cost, since every unit then rides a dummy leg. The breakdown
    lists the matched pairs by detection, then the unmatched detections,
    then the unmatched ground truths.
    """
    dets, gts = detection_arrays(dets), ground_truth_arrays(gts)
    m, n = len(dets), len(gts)
    loc, cls = _pair_terms(dets, gts)
    cost = _blend(loc, cls, params)
    oc, rows, cols = _plan_cost(cost.entries, _checked_gains(cost), params.dummy_cost)
    breakdown: tuple[PairCost, ...] | None = None
    if with_breakdown:
        rows, cols = rows.tolist(), cols.tolist()
        beta = params.dummy_cost
        pairs = [
            PairCost(
                det_index=i,
                gt_index=j,
                cost=float(cost.entries[i, j]),
                loc_cost=float(loc[i, j]),
                cls_cost=float(cls[i, j]),
            )
            for i, j in zip(rows, cols)
        ]
        pairs += [PairCost(i, None, beta) for i in _unmatched(m, rows)]
        pairs += [PairCost(None, j, beta) for j in _unmatched(n, cols)]
        breakdown = tuple(pairs)
    return ImageEvalResult(
        image_id=image_id,
        oc_cost=oc,
        matched_pairs=len(rows),
        num_detections=m,
        num_ground_truths=n,
        per_pair_breakdown=breakdown,
    )


def _unmatched(size: int, matched: list[int]) -> list[int]:
    taken = set(matched)
    return [i for i in range(size) if i not in taken]


def _plan_cost(
    entries: np.ndarray, gains: np.ndarray, dummy_cost: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """The correction cost of one image's problem, given its checked
    credited gains, and the pairs (rows, cols) of its optimal plan."""
    rows, cols = _match(gains)
    m, n = entries.shape
    k = len(rows)
    if m == 0 or n == 0:
        return (dummy_cost if m or n else 0.0), rows, cols
    terms = entries[rows, cols].tolist()
    return math.fsum(terms + [dummy_cost] * (m + n - 2 * k)) / (m + n - k), rows, cols


def check_jobs(jobs: int) -> None:
    """Reject a worker process count below 1."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")


def map_images(fn: Callable[..., R], tasks: Sequence[T], jobs: int, *shared: Any) -> list[R]:
    """``fn(*shared, task)`` for one task per image, in input order.

    The arguments every image shares are bound to ``fn`` once, so no task
    carries them. Images are independent, so ``jobs > 1`` fans the tasks
    out over one process pool (``fn`` must be a module-level function and
    the tasks and shared arguments picklable); the results are merged back
    in input order, so they are identical for any job count.
    """
    if not tasks:
        raise ValidationError("cannot evaluate an empty image sequence")
    check_jobs(jobs)
    fn = functools.partial(fn, *shared)
    if jobs == 1 or len(tasks) < 2:
        return [fn(task) for task in tasks]
    chunk = max(1, len(tasks) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _eval_image(params: OcCostParams, item: ImageInput) -> ImageEvalResult:
    image_id, dets, gts = item
    return image_oc_cost(dets, gts, params, image_id=image_id)


def _subset_costs(
    param_list: Sequence[OcCostParams], task: tuple[ImageInput, Sequence[np.ndarray | slice]]
) -> list[float]:
    """One image's correction cost under each params at each subset of its
    detection rows, params-major.

    The pair terms are computed once, blended, checked and turned into
    gains once per params, and solved once per subset object, so a caller
    passes one object for equal subsets: a subset's problem and gains are
    its rows of the whole image's, bit for bit.
    """
    (_, dets, gts), subsets = task
    loc, cls = _pair_terms(dets, gts)
    costs = []
    for params in param_list:
        cost = _blend(loc, cls, params)
        gains = _checked_gains(cost)
        by_subset: dict[int, float] = {}
        for rows in subsets:
            if id(rows) not in by_subset:
                by_subset[id(rows)] = _plan_cost(cost.entries[rows], gains[rows], cost.dummy_cost)[0]
            costs.append(by_subset[id(rows)])
    return costs


def dataset_oc_cost(
    per_image_inputs: Sequence[ImageInput],
    params: OcCostParams,
    *,
    jobs: int = 1,
) -> DatasetReport:
    """Evaluate every image and average the per-image costs.

    ``jobs > 1`` fans the images out over a process pool (see
    :func:`map_images`); the mean uses exact compensated summation, so the
    report is byte-identical for any job count. Images that are empty on
    both sides still count, contributing 0.
    """
    inputs = [image_arrays(item) for item in per_image_inputs]
    results = map_images(_eval_image, inputs, jobs, params)
    mean = math.fsum(r.oc_cost for r in results) / len(results)
    return DatasetReport(
        mean_oc_cost=mean,
        per_image=tuple(results),
        params=params,
        image_count=len(results),
    )


def lambda_sweep(
    per_image_inputs: Sequence[ImageInput],
    lambdas: Sequence[float],
    beta: float,
    *,
    jobs: int = 1,
) -> list[tuple[float, float]]:
    """Dataset mean cost for each localization weight.

    Each image is evaluated at every weight in one task, from one
    computation of its weight-independent cost terms, so ``jobs > 1``
    starts one process pool for the whole sweep.
    """
    if len(lambdas) == 0:
        raise ConfigError("lambda list is empty")
    param_list = [OcCostParams(loc_weight=lam, dummy_cost=beta) for lam in lambdas]
    tasks = [(image_arrays(item), [slice(None)]) for item in per_image_inputs]
    rows = map_images(_subset_costs, tasks, jobs, param_list)
    return [(lam, math.fsum(column) / len(rows)) for lam, column in zip(lambdas, zip(*rows))]
