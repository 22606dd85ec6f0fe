"""Per-image optimal correction cost and its dataset aggregation.

The per-image value is the average unit cost actually paid by the optimal
plan, after discarding the dummy-to-dummy corner: that corner moves slack
between the two artificial nodes and says nothing about detection quality.
With k matched pairs out of m detections and n ground truths, the plan
keeps m + n - k paying flows, each of one unit, so the final cost is their
cost sum divided by m + n - k. It lies in [0, 1] whenever the dummy cost
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
    Detection,
    GroundTruthInstance,
    ImageInput,
    OcCostParams,
    build_problem,
    classification_cost,
    localization_cost,
)
from .errors import ConfigError, ValidationError
from .transport import solve

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
    map_score: float | None = None


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

    Builds the dummy-augmented problem, solves it exactly, zeroes the
    dummy-to-dummy corner, and averages the remaining flow costs. Empty
    images (no detections, no ground truths) cost 0; images empty on one
    side only cost exactly the dummy cost, since every unit then rides a
    dummy leg.
    """
    m, n = len(dets), len(gts)
    if m == 0 and n == 0:
        return ImageEvalResult(
            image_id=image_id,
            oc_cost=0.0,
            matched_pairs=0,
            num_detections=0,
            num_ground_truths=0,
            per_pair_breakdown=() if with_breakdown else None,
        )
    if m == 0 or n == 0:
        breakdown: tuple[PairCost, ...] | None = None
        if with_breakdown:
            beta = params.dummy_cost
            if n == 0:
                breakdown = tuple(PairCost(i, None, beta) for i in range(m))
            else:
                breakdown = tuple(PairCost(None, j, beta) for j in range(n))
        return ImageEvalResult(
            image_id=image_id,
            oc_cost=params.dummy_cost,
            matched_pairs=0,
            num_detections=m,
            num_ground_truths=n,
            per_pair_breakdown=breakdown,
        )

    cost, sd = build_problem(dets, gts, params)
    plan = solve(cost, sd)
    k = plan.matched_pairs
    mass = m + n - k

    entries = cost.entries
    flows = plan.flows
    terms: list[float] = []
    pairs: list[PairCost] = []
    for i in range(m):
        for j in range(n):
            if flows[i, j]:
                terms.append(entries[i, j])
                if with_breakdown:
                    pairs.append(
                        PairCost(
                            det_index=i,
                            gt_index=j,
                            cost=float(entries[i, j]),
                            loc_cost=localization_cost(dets[i].box, gts[j].box),
                            cls_cost=classification_cost(
                                dets[i].score, dets[i].label, gts[j].label
                            ),
                        )
                    )
    for i in range(m):
        if flows[i, n]:
            terms.append(entries[i, n])
            if with_breakdown:
                pairs.append(PairCost(det_index=i, gt_index=None, cost=float(entries[i, n])))
    for j in range(n):
        if flows[m, j]:
            terms.append(entries[m, j])
            if with_breakdown:
                pairs.append(PairCost(det_index=None, gt_index=j, cost=float(entries[m, j])))

    oc = math.fsum(terms) / mass
    return ImageEvalResult(
        image_id=image_id,
        oc_cost=oc,
        matched_pairs=k,
        num_detections=m,
        num_ground_truths=n,
        per_pair_breakdown=tuple(pairs) if with_breakdown else None,
    )


def map_images(fn: Callable[[T], R], tasks: Sequence[T], jobs: int) -> list[R]:
    """``fn`` applied to one task per image, in input order.

    Images are independent, so ``jobs > 1`` fans the tasks out over one
    process pool (``fn`` must be a module-level function and the tasks
    picklable); the results are merged back in input order, so they are
    identical for any job count.
    """
    if not tasks:
        raise ValidationError("cannot evaluate an empty image sequence")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
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
    return [image_oc_cost(dets, gts, params).oc_cost for params in param_list]


def lambda_sweep(
    per_image_inputs: Sequence[ImageInput],
    lambdas: Sequence[float],
    beta: float,
    *,
    jobs: int = 1,
) -> list[tuple[float, float]]:
    """Dataset mean cost for each localization weight.

    Each image is evaluated at every weight in one task, so ``jobs > 1``
    starts one process pool for the whole sweep.
    """
    for lam in lambdas:
        if not (math.isfinite(lam) and 0.0 <= lam <= 1.0):
            raise ConfigError(f"localization weight must lie in [0, 1], got {lam!r}")
    param_list = [OcCostParams(loc_weight=lam, dummy_cost=beta) for lam in lambdas]
    rows = map_images(_sweep_image, [(item, param_list) for item in per_image_inputs], jobs)
    return [(lam, math.fsum(column) / len(rows)) for lam, column in zip(lambdas, zip(*rows))]
