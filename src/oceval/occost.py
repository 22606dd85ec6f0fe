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

One kernel, :func:`_image_costs`, prices every image of every entry
point: :func:`image_oc_cost`, :func:`dataset_oc_cost`,
:func:`lambda_sweep` and the NMS tuner. It takes one image with a list
of params and a list of subsets of its detection rows, computes the
pair terms once, and solves each distinct subset, keyed by its content,
once per params; no caller deduplicates. The drivers fan its tasks out
with :func:`map_images`, whose workers send back plain ``(cost, k)``
pairs.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import TYPE_CHECKING, Any, Hashable, TypeVar

import numpy as np

from .costs import (
    CostMatrix,
    Detection,
    GroundTruthInstance,
    ImageInput,
    OcCostParams,
    _blend,
    _pair_terms,
    image_arrays,
)
from .errors import ConfigError, ValidationError
from .transport import _checked_gains, _match

if TYPE_CHECKING:  # imported by the first fan-out, not by every start-up
    from multiprocessing.connection import Connection

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
    breakdowns: list[tuple[PairCost, ...]] | None = [] if with_breakdown else None
    [(oc, k)] = _image_costs([params], _whole_image((image_id, dets, gts)), breakdowns)
    return ImageEvalResult(
        image_id=image_id,
        oc_cost=oc,
        matched_pairs=k,
        num_detections=len(dets),
        num_ground_truths=len(gts),
        per_pair_breakdown=breakdowns[0] if breakdowns else None,
    )


def _whole_image(item: ImageInput) -> tuple[ImageInput, list[slice]]:
    """The kernel task of one whole image: its input in columns, with all
    of its detection rows as the one subset."""
    return image_arrays(item), [slice(None)]


def _image_costs(
    param_list: Sequence[OcCostParams],
    task: tuple[ImageInput, Sequence[np.ndarray | slice]],
    breakdowns: list[tuple[PairCost, ...]] | None = None,
) -> list[tuple[float, int]]:
    """The pricing kernel: one image's correction cost and matched-pair
    count ``(cost, k)`` under each params at each subset of its detection
    rows (an index array or a slice), params-major.

    Every OC-cost entry point prices its images here. Subsets that select
    the same rows in the same order are one problem, solved once per
    params however many times it is listed. The pair terms are computed
    once, and blended, checked and turned into gains once per params: a
    subset's problem and gains are its rows of the whole image's, bit for
    bit. Given a list ``breakdowns``, it appends the paying units of each
    problem it solves, ordered as :func:`image_oc_cost` describes.
    """
    (_, dets, gts), subsets = task
    every = np.arange(len(dets))
    keys = [every[rows].tobytes() for rows in subsets]
    loc, cls = _pair_terms(dets, gts)
    priced = []
    for params in param_list:
        cost = _blend(loc, cls, params)
        gains = _checked_gains(cost)
        solved: dict[bytes, tuple[float, int]] = {}
        for key, rows in zip(keys, subsets):
            if key not in solved:
                oc, at, to = _plan_cost(cost.entries[rows], gains[rows], params.dummy_cost)
                solved[key] = oc, len(at)
                if breakdowns is not None:
                    breakdowns.append(_paying_units(cost, loc, cls, every[rows], at, to))
            priced.append(solved[key])
    return priced


def _paying_units(
    cost: CostMatrix,
    loc: np.ndarray,
    cls: np.ndarray,
    rows: np.ndarray,
    at: np.ndarray,
    to: np.ndarray,
) -> tuple[PairCost, ...]:
    """The paying units of the plan (``at``, ``to``) of the problem at
    detection ``rows`` of ``cost``: its matched pairs, then its unmatched
    detections and ground truths, indexed in the whole image."""
    det_rows, gt_cols = rows[at].tolist(), to.tolist()
    beta = cost.dummy_cost
    pairs = [
        PairCost(
            det_index=i,
            gt_index=j,
            cost=float(cost.entries[i, j]),
            loc_cost=float(loc[i, j]),
            cls_cost=float(cls[i, j]),
        )
        for i, j in zip(det_rows, gt_cols)
    ]
    pairs += [PairCost(i, None, beta) for i in _unmatched(rows.tolist(), det_rows)]
    pairs += [PairCost(None, j, beta) for j in _unmatched(range(cost.entries.shape[1]), gt_cols)]
    return tuple(pairs)


def _unmatched(units: Sequence[int], matched: list[int]) -> list[int]:
    taken = set(matched)
    return [i for i in units if i not in taken]


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
    """Reject a worker process count below 1, and above 1 where processes
    cannot be forked."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and "fork" not in get_all_start_methods():
        raise ConfigError(
            f"jobs must be 1 on this platform, got {jobs}: worker processes are "
            "forked, and it has no 'fork' start method"
        )


def map_images(fn: Callable[..., R], tasks: Sequence[T], jobs: int, *shared: Any) -> list[R]:
    """``fn(*shared, task)`` for one task per image, in input order.

    The arguments every image shares are bound to ``fn`` once, so no task
    carries them. Images are independent, so ``jobs > 1`` cuts the tasks
    into ``min(jobs, len(tasks))`` contiguous ranges: the calling process
    computes the first, and one forked worker each of the others. A worker
    inherits ``fn``, the shared arguments and the tasks, so none of them
    is pickled; it sends its range's results back once (they must be
    picklable), or the exception it raised. The results are joined in input
    order, so they are identical for any job count.
    """
    if not tasks:
        raise ValidationError("cannot evaluate an empty image sequence")
    check_jobs(jobs)
    fn = functools.partial(fn, *shared)
    ranges = min(jobs, len(tasks))
    if ranges == 1:
        return [fn(task) for task in tasks]
    bounds = [len(tasks) * r // ranges for r in range(ranges + 1)]
    context = get_context("fork")
    workers = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_send_range, args=(fn, tasks, start, stop, sender))
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        results = [fn(task) for task in tasks[: bounds[1]]]
        for worker, receiver in workers:
            try:
                failed, value = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"a worker exited with code {worker.exitcode} before sending its results"
                ) from None
            if failed:
                raise value
            results += value
        return results
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.join()


def _send_range(
    fn: Callable[[T], R], tasks: Sequence[T], start: int, stop: int, sender: Connection
) -> None:
    """A worker's body: send ``(False, results)`` for ``tasks[start:stop]``,
    or ``(True, exception)`` if one of them raised."""
    try:
        reply = (False, [fn(task) for task in tasks[start:stop]])
    except BaseException as exc:  # the parent re-raises it
        reply = (True, exc)
    sender.send(reply)


def dataset_oc_cost(
    per_image_inputs: Sequence[ImageInput],
    params: OcCostParams,
    *,
    jobs: int = 1,
) -> DatasetReport:
    """Evaluate every image and average the per-image costs.

    ``jobs > 1`` splits the images over forked workers (see
    :func:`map_images`); the mean uses exact compensated summation, so the
    report is byte-identical for any job count. Images that are empty on
    both sides still count, contributing 0.
    """
    tasks = [_whole_image(item) for item in per_image_inputs]
    priced = map_images(_image_costs, tasks, jobs, [params])
    results = [
        ImageEvalResult(
            image_id=image_id,
            oc_cost=oc,
            matched_pairs=k,
            num_detections=len(dets),
            num_ground_truths=len(gts),
        )
        for ((image_id, dets, gts), _), [(oc, k)] in zip(tasks, priced)
    ]
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
    forks one set of workers for the whole sweep.
    """
    if len(lambdas) == 0:
        raise ConfigError("lambda list is empty")
    param_list = [OcCostParams(loc_weight=lam, dummy_cost=beta) for lam in lambdas]
    tasks = [_whole_image(item) for item in per_image_inputs]
    priced = map_images(_image_costs, tasks, jobs, param_list)
    return [
        (lam, math.fsum(oc for oc, _ in column) / len(priced))
        for lam, column in zip(lambdas, zip(*priced))
    ]
