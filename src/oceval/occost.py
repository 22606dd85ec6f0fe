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

import math
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Hashable, TypeVar

from .costs import (
    CostMatrix,
    Detection,
    GroundTruthInstance,
    ImageInput,
    OcCostParams,
    _blend,
    _pair_terms,
    build_problem,
    classification_cost,
    localization_cost,
)
from .errors import ConfigError, ValidationError
from .transport import TransportPlan, solve

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
    m, n = len(dets), len(gts)
    cost = build_problem(dets, gts, params)
    oc, plan = _plan_cost(cost)
    breakdown: tuple[PairCost, ...] | None = None
    if with_breakdown:
        rows, cols = plan.det_indices.tolist(), plan.gt_indices.tolist()
        beta = params.dummy_cost
        pairs = [
            PairCost(
                det_index=i,
                gt_index=j,
                cost=float(cost.entries[i, j]),
                loc_cost=localization_cost(dets[i].box, gts[j].box),
                cls_cost=classification_cost(dets[i].score, dets[i].label, gts[j].label),
            )
            for i, j in zip(rows, cols)
        ]
        pairs += [PairCost(i, None, beta) for i in _unmatched(m, rows)]
        pairs += [PairCost(None, j, beta) for j in _unmatched(n, cols)]
        breakdown = tuple(pairs)
    return ImageEvalResult(
        image_id=image_id,
        oc_cost=oc,
        matched_pairs=plan.matched_pairs,
        num_detections=m,
        num_ground_truths=n,
        per_pair_breakdown=breakdown,
    )


def _unmatched(size: int, matched: list[int]) -> list[int]:
    taken = set(matched)
    return [i for i in range(size) if i not in taken]


def _plan_cost(cost: CostMatrix) -> tuple[float, TransportPlan]:
    """The correction cost of one image's problem, and its optimal plan."""
    plan = solve(cost)
    m, n, k = cost.m, cost.n, plan.matched_pairs
    if m == 0 or n == 0:
        return (cost.dummy_cost if m or n else 0.0), plan
    terms = cost.entries[plan.det_indices, plan.gt_indices].tolist()
    return math.fsum(terms + [cost.dummy_cost] * (m + n - 2 * k)) / (m + n - k), plan


def check_jobs(jobs: int) -> None:
    """Reject a worker process count below 1."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")


def map_images(fn: Callable[[T], R], tasks: Sequence[T], jobs: int) -> list[R]:
    """``fn`` applied to one task per image, in input order.

    Images are independent, so ``jobs > 1`` fans the tasks out over one
    process pool (``fn`` must be a module-level function and the tasks
    picklable); the results are merged back in input order, so they are
    identical for any job count.
    """
    if not tasks:
        raise ValidationError("cannot evaluate an empty image sequence")
    check_jobs(jobs)
    if jobs == 1 or len(tasks) < 2:
        return [fn(task) for task in tasks]
    chunk = max(1, len(tasks) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _eval_image(task: tuple[ImageInput, OcCostParams, bool]) -> ImageEvalResult:
    (image_id, dets, gts), params, with_breakdown = task
    return image_oc_cost(dets, gts, params, image_id=image_id, with_breakdown=with_breakdown)


def dataset_oc_cost(
    per_image_inputs: Sequence[ImageInput],
    params: OcCostParams,
    *,
    jobs: int = 1,
    with_breakdown: bool = False,
) -> DatasetReport:
    """Evaluate every image and average the per-image costs.

    ``jobs > 1`` fans the images out over a process pool (see
    :func:`map_images`); the mean uses exact compensated summation, so the
    report is byte-identical for any job count. Images that are empty on
    both sides still count, contributing 0.
    """
    tasks = [(item, params, with_breakdown) for item in per_image_inputs]
    results = map_images(_eval_image, tasks, jobs)
    mean = math.fsum(r.oc_cost for r in results) / len(results)
    return DatasetReport(
        mean_oc_cost=mean,
        per_image=tuple(results),
        params=params,
        image_count=len(results),
    )


def _sweep_image(task: tuple[ImageInput, list[OcCostParams]]) -> list[float]:
    (_, dets, gts), param_list = task
    loc, cls = _pair_terms(dets, gts)
    return [_plan_cost(_blend(loc, cls, params))[0] for params in param_list]


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
    for lam in lambdas:
        if not (math.isfinite(lam) and 0.0 <= lam <= 1.0):
            raise ConfigError(f"localization weight must lie in [0, 1], got {lam!r}")
    param_list = [OcCostParams(loc_weight=lam, dummy_cost=beta) for lam in lambdas]
    rows = map_images(_sweep_image, [(item, param_list) for item in per_image_inputs], jobs)
    return [(lam, math.fsum(column) / len(rows)) for lam, column in zip(lambdas, zip(*rows))]
