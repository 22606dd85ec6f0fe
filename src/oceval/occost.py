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

One kernel, :func:`_price`, prices every image of every entry point:
:func:`image_oc_cost`, :func:`dataset_oc_cost`, :func:`lambda_sweep`
and the NMS tuner. It takes a list of params and a sequence of images,
each with a list of subsets of its detection rows. A problem is one
image with one distinct subset; no caller deduplicates. The kernel
prices the problems of contiguous images in blocks: it computes the
pair terms of every cell of a block in one pass, blends and checks them
once per params, and settles every problem's plan at once
(:func:`~oceval.transport._plans`). The drivers cut their images into
contiguous ranges with :func:`map_images`, one per process, and each
process prices its range block by block; workers send back plain
``(cost, k)`` pairs.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, TypeVar

import numpy as np

from . import geometry
from .costs import (
    Detection,
    DetectionArrays,
    GroundTruthArrays,
    GroundTruthInstance,
    ImageInput,
    OcCostParams,
    _blend,
    _cell_terms,
    image_arrays,
)
from .errors import ConfigError, ValidationError, _check_integer
from .transport import _checked_gains, _plans

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
    [[(oc, k)]] = _price([params], [_whole_image((image_id, dets, gts))], breakdowns)
    return ImageEvalResult(
        image_id=image_id,
        oc_cost=oc,
        matched_pairs=k,
        num_detections=len(dets),
        num_ground_truths=len(gts),
        per_pair_breakdown=breakdowns[0] if breakdowns else None,
    )


# A kernel task: one image's input in columns and the subsets of its
# detection rows (index arrays or slices) to price.
_Task = tuple[tuple[Hashable, DetectionArrays, GroundTruthArrays], Sequence[np.ndarray | slice]]
# An image of a block: its detections and ground truths, its distinct
# problems (detection row arrays) and the problem of each of its subsets.
_Listed = tuple[DetectionArrays, GroundTruthArrays, list[np.ndarray], list[int]]


def _whole_image(item: ImageInput) -> _Task:
    """The kernel task of one whole image: its input in columns, with all
    of its detection rows as the one subset."""
    return image_arrays(item), [slice(None)]


def _price(
    param_list: Sequence[OcCostParams],
    tasks: Iterable[_Task],
    breakdowns: list[tuple[PairCost, ...]] | None = None,
) -> list[list[tuple[float, int]]]:
    """The pricing kernel: for each task, the correction cost and
    matched-pair count ``(cost, k)`` of its image under each params at
    each subset of its detection rows, params-major.

    Every OC-cost entry point prices its images here. A problem is an
    image with one subset of its rows; subsets that select the same rows
    in the same order are one problem, solved once per params however
    many times they are listed. The tasks are taken in order and priced
    in blocks of contiguous images whose problems hold at most
    ``geometry._BLOCK_PAIRS`` cells together (an image with more is a
    block of its own), so an iterable that lists subsets lazily keeps
    one block's lists alive at a time. Given a list ``breakdowns``, it
    appends the paying units of each problem it solves, ordered as
    :func:`image_oc_cost` describes: for each block, params by params,
    problem by problem.
    """
    priced: list[list[tuple[float, int]]] = []
    block: list[_Listed] = []
    cells = 0
    for (_, dets, gts), subsets in tasks:
        every = np.arange(len(dets))
        distinct: dict[bytes, int] = {}
        problems, listed = [], []
        for subset in subsets:
            rows = every[subset]
            listed.append(distinct.setdefault(rows.tobytes(), len(problems)))
            if listed[-1] == len(problems):
                problems.append(rows)
        size = sum(map(len, problems)) * len(gts)
        if block and cells + size > geometry._BLOCK_PAIRS:
            priced += _price_block(param_list, block, breakdowns)
            block, cells = [], 0
        block.append((dets, gts, problems, listed))
        cells += size
    if block:
        priced += _price_block(param_list, block, breakdowns)
    return priced


def _price_block(
    param_list: Sequence[OcCostParams],
    block: Sequence[_Listed],
    breakdowns: list[tuple[PairCost, ...]] | None,
) -> list[list[tuple[float, int]]]:
    """:func:`_price` of one block of images."""
    det_sides = [dets for dets, _, _, _ in block]
    gt_sides = [gts for _, gts, _, _ in block]
    problems = [rows for _, _, distinct, _ in block for rows in distinct]
    per_image = [len(distinct) for _, _, distinct, _ in block]
    owner = np.repeat(np.arange(len(block)), per_image)
    det_base = _starts(np.array([len(dets) for dets in det_sides], dtype=np.int64))[owner]
    gt_sizes = np.array([len(gts) for gts in gt_sides], dtype=np.int64)
    heights = np.array([len(rows) for rows in problems], dtype=np.int64)
    widths = gt_sizes[owner]
    # the rows of every problem among the block's detections, and every
    # cell, problem by problem and column by column within one: a column
    # is one ground truth against the rows of its problem
    rows = np.concatenate([np.zeros(0, dtype=np.int64), *problems])
    rows += np.repeat(det_base, heights)
    columns = np.where(heights > 0, widths, 0)
    height = np.repeat(heights, columns)
    gt = np.arange(len(height)) - np.repeat(_starts(columns) - _starts(gt_sizes)[owner], columns)
    row_of_cell = np.arange(height.sum())
    row_of_cell -= np.repeat(_starts(height) - np.repeat(_starts(heights), columns), height)
    dets = DetectionArrays(
        np.concatenate([d.boxes for d in det_sides]),
        np.concatenate([d.labels for d in det_sides]),
        np.concatenate([d.scores for d in det_sides]),
    )
    gts = GroundTruthArrays(
        np.concatenate([g.boxes for g in gt_sides]),
        np.concatenate([g.labels for g in gt_sides]),
        np.concatenate([g.crowd for g in gt_sides]),
    )
    loc, cls = _cell_terms(dets, gts, rows[row_of_cell], np.repeat(gt, height))

    solved = []
    for params in param_list:
        beta = params.dummy_cost
        entries = _blend(loc, cls, params)
        matched, counts = _plans(_checked_gains(entries, beta), heights, widths)
        values = entries[matched].tolist()
        costs, done = [], 0
        for m, n, k in zip(heights.tolist(), widths.tolist(), counts.tolist()):
            costs.append((_problem_cost(values[done : done + k], beta, m, n), k))
            done += k
        solved.append(costs)
        if breakdowns is not None:
            ends = np.cumsum(counts)
            first = _starts(heights * widths)
            for p, problem in enumerate(problems):
                cells = matched[ends[p] - counts[p] : ends[p]]
                terms = (t[cells] for t in (entries, loc, cls))
                breakdowns.append(
                    _paying_units(problem, int(widths[p]), beta, cells - first[p], *terms)
                )
    firsts = _starts(np.array(per_image)).tolist()
    return [
        [costs[offset + i] for costs in solved for i in listed]
        for offset, (_, _, _, listed) in zip(firsts, block)
    ]


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``sizes`` starts."""
    return np.cumsum(sizes) - sizes


def _problem_cost(paid: list[float], beta: float, m: int, n: int) -> float:
    """The correction cost of an m x n problem whose plan matches pairs
    costing ``paid``: the exact (``math.fsum``) sum of its m + n - k
    paying units over their count, 0 for an empty problem and ``beta``
    for a one-sided one."""
    if not (m and n):
        return beta if m or n else 0.0
    k = len(paid)
    return math.fsum(paid + [beta] * (m + n - 2 * k)) / (m + n - k)


def _paying_units(
    rows: np.ndarray,
    n: int,
    beta: float,
    cells: np.ndarray,
    cost: np.ndarray,
    loc: np.ndarray,
    cls: np.ndarray,
) -> tuple[PairCost, ...]:
    """The paying units of the problem of detection ``rows`` (indexed in
    the whole image) and ``n`` ground truths whose plan matches ``cells``
    (its cells counted column by column, ordered by row), with their cost
    and terms: the matched pairs, then the unmatched detections and
    ground truths."""
    to, at = np.divmod(cells, max(len(rows), 1))
    det_rows, gt_cols = rows[at].tolist(), to.tolist()
    pairs = [
        PairCost(det_index=i, gt_index=j, cost=c, loc_cost=lc, cls_cost=cc)
        for i, j, c, lc, cc in zip(det_rows, gt_cols, cost.tolist(), loc.tolist(), cls.tolist())
    ]
    pairs += [PairCost(i, None, beta) for i in _unmatched(rows.tolist(), det_rows)]
    pairs += [PairCost(None, j, beta) for j in _unmatched(range(n), gt_cols)]
    return tuple(pairs)


def _unmatched(units: Sequence[int], matched: list[int]) -> list[int]:
    taken = set(matched)
    return [i for i in units if i not in taken]


def get_all_start_methods() -> list[str]:
    """``multiprocessing.get_all_start_methods()``. Each of these two
    wrappers imports multiprocessing when called, so a process that never
    fans out never loads it."""
    import multiprocessing

    return multiprocessing.get_all_start_methods()


def get_context(method: str) -> Any:
    """``multiprocessing.get_context(method)``."""
    import multiprocessing

    return multiprocessing.get_context(method)


def check_jobs(jobs: int) -> None:
    """Reject a worker process count below 1, and above 1 where processes
    cannot be forked."""
    _check_integer("jobs", jobs, 1)
    if jobs > 1 and "fork" not in get_all_start_methods():
        raise ConfigError(
            f"jobs must be 1 on this platform, got {jobs}: worker processes are "
            "forked, and it has no 'fork' start method"
        )


def map_images(
    fn: Callable[..., list[R]], tasks: Sequence[T], jobs: int, *shared: Any
) -> list[R]:
    """The results of one task per image, in input order, where
    ``fn(*shared, tasks[a:b])`` returns those of a contiguous range.

    The arguments every image shares are bound to ``fn`` once, so no task
    carries them. Images are independent, so ``jobs > 1`` cuts the tasks
    into ``min(jobs, len(tasks))`` contiguous ranges: the calling process
    computes the first, and one forked worker each of the others. A worker
    inherits ``fn``, the shared arguments and the tasks, so none of them
    is pickled; it sends its range's results back once (they must be
    picklable), or the exception it raised. The results are joined in input
    order; ``fn`` must return the same results for a task in any range
    that holds it, and then they are identical for any job count.
    """
    if not tasks:
        raise ValidationError("cannot evaluate an empty image sequence")
    fn = functools.partial(fn, *shared)
    ranges = min(jobs, len(tasks))
    if ranges == 1:
        return fn(tasks)
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
        results = fn(tasks[: bounds[1]])
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
    fn: Callable[[Sequence[T]], list[R]],
    tasks: Sequence[T],
    start: int,
    stop: int,
    sender: Connection,
) -> None:
    """A worker's body: send ``(False, results)`` for ``tasks[start:stop]``,
    or ``(True, exception)`` if ``fn`` raised."""
    try:
        reply = (False, fn(tasks[start:stop]))
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
    check_jobs(jobs)
    tasks = [_whole_image(item) for item in per_image_inputs]
    priced = map_images(_price, tasks, jobs, [params])
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

    Each image is evaluated at every weight in one pass of the pricing
    kernel, from one computation of its weight-independent cost terms, so
    ``jobs > 1`` forks one set of workers for the whole sweep.
    """
    check_jobs(jobs)
    if len(lambdas) == 0:
        raise ConfigError("lambda list is empty")
    param_list = [OcCostParams(loc_weight=lam, dummy_cost=beta) for lam in lambdas]
    tasks = [_whole_image(item) for item in per_image_inputs]
    priced = map_images(_price, tasks, jobs, param_list)
    return [
        (lam, math.fsum(oc for oc, _ in column) / len(priced))
        for lam, column in zip(lambdas, zip(*priced))
    ]
