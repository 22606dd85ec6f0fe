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
each with its passes and the problems asked of them. A pass is one
ordered list of an image's detection rows, and a problem is the first
rows of a pass: the whole-image entry points give each image one pass,
all of its rows in file order, and ask for all of it; the tuner gives
each image its NMS passes and asks for the prefix that each grid point
keeps. No caller deduplicates. The kernel solves each distinct problem
once, and prices each pass once, up to its longest problem: the
problems of a pass, shortest first, each extend the one before with
the rows past it, and are settled together from that one pricing
(:func:`~oceval.transport._plans`). It prices the passes of contiguous
images in blocks (:func:`_solved_blocks`): it computes the pair terms
of every cell of a block at once, blends and checks them once per
params, and settles every problem's plan at once. The drivers cut their
images into contiguous ranges with :func:`map_images`, one per process,
and each process prices its range block by block; workers send back
plain ``(cost, k)`` pairs.

The kernel is also the only way to an image's plan: :func:`_plan` reads
it from the solved block as an :class:`ImagePlan`, which
``image_oc_cost(...).plan`` returns: the matched pairs with their costs
and terms, and the unmatched detections and ground truths.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, NamedTuple, TypeVar

import numpy as np

from . import geometry
from .costs import (
    DetectionArrays,
    Detections,
    GroundTruthArrays,
    GroundTruths,
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
    "ImagePlan",
    "ImageEvalResult",
    "DatasetReport",
    "image_oc_cost",
    "dataset_oc_cost",
    "lambda_sweep",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True, eq=False)
class ImagePlan:
    """The optimal correction plan of one image, as arrays: matched pair p,
    ordered by detection, is detection ``det_indices[p]`` and ground truth
    ``gt_indices[p]`` at unit cost ``costs[p]``, with localization and
    classification terms ``loc_costs[p]`` and ``cls_costs[p]``. Every other
    detection (a false positive) and ground truth (a false negative) pays
    the dummy cost, listed in ascending order in ``unmatched_detections``
    and ``unmatched_ground_truths``."""

    det_indices: np.ndarray
    gt_indices: np.ndarray
    costs: np.ndarray
    loc_costs: np.ndarray
    cls_costs: np.ndarray
    unmatched_detections: np.ndarray
    unmatched_ground_truths: np.ndarray


@dataclass(frozen=True)
class ImageEvalResult:
    """Evaluation of a single image; only :func:`image_oc_cost` sets ``plan``."""

    image_id: Hashable
    oc_cost: float
    matched_pairs: int
    num_detections: int
    num_ground_truths: int
    plan: ImagePlan | None = None


@dataclass(frozen=True)
class DatasetReport:
    """Per-image results plus their unweighted arithmetic mean."""

    mean_oc_cost: float
    per_image: tuple[ImageEvalResult, ...]
    params: OcCostParams
    image_count: int


def image_oc_cost(
    dets: Detections,
    gts: GroundTruths,
    params: OcCostParams,
    *,
    image_id: Hashable = None,
) -> ImageEvalResult:
    """Evaluate one image, with its plan.

    Prices and solves the image's m x n problem exactly in the pricing
    kernel, and averages the cost of the m + n - k paying units of the
    plan: the k matched pairs and the unmatched detections and ground
    truths. Empty images (no detections, no ground truths) cost 0; images
    empty on one side only cost exactly the dummy cost, since every unit
    then rides a dummy leg.
    """
    [block] = _solved_blocks([params], [_whole_image((image_id, dets, gts))])
    plan = _plan(block, 0, 0)
    return ImageEvalResult(
        image_id=image_id,
        oc_cost=_problem_cost(plan.costs.tolist(), params.dummy_cost, len(dets), len(gts)),
        matched_pairs=len(plan.costs),
        num_detections=len(dets),
        num_ground_truths=len(gts),
        plan=plan,
    )


# A kernel task: one image's input in columns, its passes (ordered lists
# of its detection rows, as int64 index arrays) and the problems to price,
# the first ``lengths[i]`` rows of pass ``column[i]`` each.
_Task = tuple[
    tuple[Hashable, DetectionArrays, GroundTruthArrays], Sequence[np.ndarray], Sequence[int], Sequence[int]
]
# An image of a block: its detections and ground truths, and of each of
# its distinct problems, ordered by pass and then by length, its rows,
# its own rows (those past the problem of its pass it extends) and
# whether it extends one; then the problem of each one asked.
_Listed = tuple[DetectionArrays, GroundTruthArrays, list[np.ndarray], list[np.ndarray], list[bool], list[int]]


class _Block(NamedTuple):
    """A block of images solved under each params of a call: the detection
    rows of each distinct problem, the problem of each one asked of each
    image, each problem's count of own rows, its ground truths and whether
    it extends the problem before it, the terms of every cell (problem by
    problem, column by column, own rows only) and, per params, every
    cell's unit cost and its :func:`~oceval.transport._plans` (matched
    cells, count per problem)."""

    problems: list[np.ndarray]
    listed: list[list[int]]
    heights: np.ndarray
    widths: np.ndarray
    extends: np.ndarray
    loc: np.ndarray
    cls: np.ndarray
    plans: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _whole_image(item: ImageInput) -> _Task:
    """The kernel task of one whole image: its input in columns, with all
    of its detection rows in file order as the one pass and the one
    problem."""
    arrays = image_arrays(item)
    m = len(arrays[1])
    return arrays, (np.arange(m),), (0,), (m,)


def _price(
    param_list: Sequence[OcCostParams], tasks: Iterable[_Task]
) -> list[list[tuple[float, int]]]:
    """The pricing kernel: for each task, the correction cost and
    matched-pair count ``(cost, k)`` of its image under each params at
    each problem it asks, params-major. Every OC-cost entry point prices
    its images here, a solved block at a time."""
    priced: list[list[tuple[float, int]]] = []
    for block in _solved_blocks(param_list, tasks):
        lengths, widths = list(map(len, block.problems)), block.widths.tolist()
        solved = []
        for params, (entries, matched, counts) in zip(param_list, block.plans):
            values = entries[matched].tolist()
            costs, done = [], 0
            for m, n, k in zip(lengths, widths, counts.tolist()):
                costs.append((_problem_cost(values[done : done + k], params.dummy_cost, m, n), k))
                done += k
            solved.append(costs)
        priced += [[costs[p] for costs in solved for p in listed] for listed in block.listed]
    return priced


def _solved_blocks(param_list: Sequence[OcCostParams], tasks: Iterable[_Task]) -> Iterator[_Block]:
    """The problems of ``tasks`` priced and solved under each of
    ``param_list``, block by block.

    A problem is the first rows of one pass of an image. Problems that
    hold the same rows in the same order, of one pass or of two, are one
    problem, solved once per params however many times they are asked;
    so passes that hold the same rows are one pass. The problems asked
    are taken by pass and then by length, and each distinct one extends
    the one before it of its pass with the rows past it
    (:func:`~oceval.transport._plans`): each pass is priced once, up to
    its longest problem. The tasks are taken in order and priced in blocks
    of contiguous images whose passes hold at most ``geometry._BLOCK_PAIRS``
    priced cells together (an image with more is a block of its own), so
    an iterable that lists passes lazily keeps one block's lists alive at
    a time.
    """
    block: list[_Listed] = []
    cells = 0
    for (_, dets, gts), passes, column, lengths in tasks:
        distinct: dict[bytes, int] = {}
        problems: list[np.ndarray] = []
        own: list[np.ndarray] = []
        extends: list[bool] = []
        listed = [0] * len(column)
        last, done = -1, 0
        for c, n, i in sorted(zip(column, lengths, range(len(column)))):
            rows = passes[c][:n]
            listed[i] = distinct.setdefault(rows.tobytes(), len(problems))
            if listed[i] == len(problems):
                done = done if c == last else 0
                problems.append(rows)
                own.append(rows[done:])
                extends.append(c == last and done > 0)
                last, done = c, n
        size = sum(map(len, own)) * len(gts)
        if block and cells + size > geometry._BLOCK_PAIRS:
            yield _solve_block(param_list, block)
            block, cells = [], 0
        block.append((dets, gts, problems, own, extends, listed))
        cells += size
    if block:
        yield _solve_block(param_list, block)


def _solve_block(param_list: Sequence[OcCostParams], block: Sequence[_Listed]) -> _Block:
    """One block of :func:`_solved_blocks`."""
    det_sides, gt_sides, distinct, own, chained, listed = zip(*block)
    problems = [rows for image in distinct for rows in image]
    per_image = [len(image) for image in distinct]
    owner = np.repeat(np.arange(len(block)), per_image)
    det_base = _starts(np.array([len(dets) for dets in det_sides], dtype=np.int64))[owner]
    gt_sizes = np.array([len(gts) for gts in gt_sides], dtype=np.int64)
    heights = np.array([len(rows) for image in own for rows in image], dtype=np.int64)
    widths = gt_sizes[owner]
    # the own rows of every problem among the block's detections, and
    # every cell, problem by problem and column by column within one: a
    # column is one ground truth against the own rows of its problem
    rows = np.concatenate([np.zeros(0, dtype=np.int64), *(rows for image in own for rows in image)])
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
    extends = np.array([flag for image in chained for flag in image], dtype=bool)
    plans = []
    for params in param_list:
        entries = _blend(loc, cls, params)
        gains = _checked_gains(entries, params.dummy_cost)
        plans.append((entries, *_plans(gains, heights, widths, extends)))
    firsts = _starts(np.array(per_image)).tolist()
    listed = [[first + p for p in image] for first, image in zip(firsts, listed)]
    return _Block(problems, listed, heights, widths, extends, loc, cls, plans)


def _plan(block: _Block, q: int, p: int) -> ImagePlan:
    """The plan of problem ``p`` of a solved block under the ``q``-th
    params of its call, with detection indices in the problem's image."""
    entries, matched, counts = block.plans[q]
    done = int(counts[:p].sum())
    cells = matched[done : done + counts[p]]
    # p and the problems it extends, and the one whose own rows hold each cell
    links = np.arange(p - int(np.argmin(block.extends[p::-1])), p + 1)
    firsts = _starts(block.heights * block.widths)[links]
    link = np.searchsorted(firsts, cells, side="right") - 1
    gt_indices, at = np.divmod(cells - firsts[link], block.heights[links][link])
    rows = block.problems[p]
    det_indices = rows[at + _starts(block.heights[links])[link]]
    terms = (entries[cells], block.loc[cells], block.cls[cells])
    unmatched = np.setdiff1d(rows, det_indices), np.setdiff1d(np.arange(block.widths[p]), gt_indices)
    return ImagePlan(det_indices, gt_indices, *terms, *unmatched)


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
        for ((image_id, dets, gts), _, _, _), [(oc, k)] in zip(tasks, priced)
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
