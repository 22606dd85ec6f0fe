"""Exact solver for detection-correction problems, one image's each.

Every detection and every ground truth is one unit. A unit is either
matched to one unit of the other side at the pair's cost c_ij, or left
unmatched at the dummy cost β (a deletion or an insertion). With k
matched pairs out of m detections and n ground truths, the transport
objective with a dummy row and column (the dummy-to-dummy corner priced
at β and carrying k units) is

    (m + n) * β + Σ_matched (c_ij - β),

so an optimal plan is a partial injective matching that minimises the
sum of the gains c_ij - β of its pairs. Only a pair of negative gain is
worth matching; call it a candidate. :func:`_plans` finds an optimum in
one of two ways, cheapest first, and both are exact:

1. Certificate from the ground-truth side. Every ground truth with a
   candidate picks its least-gain detection (the first on a tie). No plan
   beats Σ_j min(0, min_i g_ij), so when no two ground truths pick the
   same detection these pairs reach that bound and are optimal.
2. Otherwise a shortest-augmenting-path assignment (D. F. Crouse, "On
   implementing 2D rectangular assignment algorithms", IEEE TAES 2016,
   the algorithm of ``scipy.optimize.linear_sum_assignment``), in pure
   Python, on the candidate block only: the rows and columns that hold a
   candidate, with gains clipped at 0 and the shorter side assigned. A
   pair outside the block is never worth matching, and a clipped cell
   only pads the assignment, so the pairs of negative gain are kept.

One code path, ``_plans``, settles a block of many problems at once:
the pricing kernel of :mod:`oceval.occost` (``_price``) hands it the
cells of many images, each pass of an image once. The problems of a
pass are its prefixes, shortest first, and each one lists only the
cells of its rows past the one before it. ``_plans`` finds every
problem's certificate with segment reductions over the block's cells
and a running minimum along the prefixes of each pass, and runs the
assignment only on the problems whose certificates fail. The plan of
one image is public only through that kernel:
``image_oc_cost(...).plan`` lists its matched pairs (``det_indices``,
``gt_indices``) and its unmatched units (``unmatched_detections``,
``unmatched_ground_truths``).

On detector output the certificate settles most images. The assignment
takes O(r^2 c) time on an r x c block (r <= c), and a start that gives
each row its least column while that column is free leaves only the
conflicting rows to search. When no two detections pick the same least
ground truth, the detections are the rows and that start is the whole
plan. The plan is an integral optimum, not an approximation.

Tie rule and its tolerance (the contract the tests fuzz with pair costs
at β + δ for δ near ε). Among optimal plans the normalization mass
m + n - k depends on k, so the solver prefers more matches. It credits
every matched pair with ``_TIE_EPSILON`` = ε = 1e-7: it minimises the
credited objective, the sum of the gains (c_ij - ε) - β of the matched
pairs computed in float64, and keeps a pair only if its gain is negative.
Hence:

- among plans of equal objective it returns one with the most matches,
  and a pair costing exactly β is matched unless a better pair competes
  for its detection or ground truth;
- a pair costing less than β + ε may be matched, so the reported
  objective may exceed the exact minimum by ε per match beyond those of
  an exact optimum, never by more than ε per matched pair;
- it never matches fewer pairs than an exact optimum with the most
  matches, and never a pair costing ε or more above β (up to the
  rounding of its gain);
- plans whose credited objectives tie to rounding (their objectives then
  differ by exactly ε per extra match, which takes costs placed within a
  few ε of β) are all acceptable, and which one is returned depends on
  the rounding of the assignment; an exhaustive enumeration may pick
  another;
- among plans of exactly equal credited objective (interchangeable
  duplicates, or at λ = 0 ground truths of one label) the choice is the
  solver's: the first least index in the certificate or in the
  assignment's start, and the assignment's search order otherwise. The
  costs do not depend on it.

The tests check ``_plans`` against an enumeration of every partial
matching under the same rule (``brute_force_solve`` in tests/oracles.py).
The kernel reports the exactly rounded (``math.fsum``) cost of the plan
under the unperturbed costs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__: list[str] = []

# Credit per matched pair: far smaller than any meaningful cost gap, far
# larger than accumulated rounding.
_TIE_EPSILON = 1e-7


def _checked_gains(entries: np.ndarray, beta: float) -> np.ndarray:
    """Validate pair costs ``entries`` (of any shape) and dummy cost
    ``beta``, and return the credited gain (c_ij - ε) - β of every pair;
    only negative gains are worth matching. Every gain depends on its own
    cost only, so the gains of any list of cells are the same bits."""
    # one min and one max reject NaN, infinities and negatives alike
    if (entries.size and not 0.0 <= entries.min() <= entries.max() < math.inf) or not (
        0.0 <= beta < math.inf
    ):
        if not (np.isfinite(entries).all() and math.isfinite(beta)):
            raise ValidationError("cost matrix contains NaN or infinite entries")
        raise ValidationError("cost matrix contains negative entries")
    return (entries - _TIE_EPSILON) - beta


def _shortest_augmenting_paths(cost: list[list[float]]) -> list[int]:
    """The column of each row in a least-cost assignment of every row of a
    finite cost matrix with no more rows than columns.

    D. F. Crouse, "On implementing 2D rectangular assignment algorithms",
    IEEE TAES 52(4), 2016: each unassigned row in turn joins the
    assignment along a shortest augmenting path in reduced costs (a
    Dijkstra search over the columns), and the duals u, v keep every
    reduced cost non-negative and every assigned pair's zero. The start
    reduces each row by its minimum and gives each row its first least
    column while that column is free, so only the conflicting rows search.
    """
    n_cols = len(cost[0])
    u = [min(row) for row in cost]
    v = [0.0] * n_cols
    col4row = [-1] * len(cost)
    row4col = [-1] * n_cols
    for i, row in enumerate(cost):
        j = row.index(u[i])
        if row4col[j] < 0:
            row4col[j], col4row[i] = i, j
    for start in range(len(cost)):
        if col4row[start] >= 0:
            continue
        path = [-1] * n_cols
        dist = [math.inf] * n_cols
        # scanned from the back, so a constant matrix gets the identity
        todo = list(range(n_cols - 1, -1, -1))
        rows, cols = [start], []
        i, reach, sink = start, 0.0, -1
        while sink < 0:
            row, ui = cost[i], u[i]
            lowest, index = math.inf, -1
            for pos, j in enumerate(todo):
                d = reach + row[j] - ui - v[j]
                if d < dist[j]:
                    path[j] = i
                    dist[j] = d
                else:
                    d = dist[j]
                # among the nearest columns, prefer a free one: it ends the path
                if d < lowest or (d == lowest and row4col[j] < 0):
                    lowest, index = d, pos
            reach = lowest
            j = todo[index]
            todo[index] = todo[-1]
            todo.pop()
            cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
                rows.append(i)
        u[start] += reach
        for i in rows[1:]:
            u[i] += reach - dist[col4row[i]]
        for j in cols:
            v[j] -= reach - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def _augment(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An optimal plan from a shortest-augmenting-path assignment of the
    candidate block: the rows and columns that hold a negative gain, at
    least one, clipped at 0, with the shorter side assigned. Cells outside
    the block are never worth matching, and a clipped cell only pads the
    assignment."""
    negative = gains < 0
    rows, cols = negative.any(axis=1).nonzero()[0], negative.any(axis=0).nonzero()[0]
    block = np.minimum(gains.take(rows, axis=0).take(cols, axis=1), 0.0)
    tall = len(rows) > len(cols)
    lines = (block.T if tall else block).tolist()
    pairs = [(i, j) for i, j in enumerate(_shortest_augmenting_paths(lines)) if lines[i][j] < 0]
    if tall:
        pairs = sorted((j, i) for i, j in pairs)
    at_rows, at_cols = zip(*pairs)
    return rows.take(at_rows), cols.take(at_cols)


def _plans(
    gains: np.ndarray, heights: np.ndarray, widths: np.ndarray, extends: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The optimal plans of a block of problems under the credited gains.

    Problem q has ``heights[q]`` rows of its own against ``widths[q]``
    columns; ``gains`` lists the cells of those rows column by column
    (column j holds the gains of its rows 0, 1, ... against column j)
    after those of problem q - 1. Where ``extends[q]`` is true (by default
    nowhere), problems q - 1 and q both have rows of their own and the
    same columns, and the rows of problem q are those of problem q - 1
    followed by its own: the problems of a chain are longer and longer
    prefixes of one list of rows, whose cells are listed once. Returns the
    cell, an index into ``gains``, of every matched pair, grouped by
    problem and ordered by row within one, and each problem's count of
    pairs.

    The certificate of every problem is settled at once: each column's
    least gain over the problem's own rows and the first of them that
    reaches it (``argmin``'s tie rule), then, along a chain, the least gain
    so far in each column and the first of the chain's rows that reaches
    it, which lies in the first problem that does. A problem whose columns
    with a negative least gain pick distinct rows takes those pairs; every
    other one is handed to :func:`_augment` with the gains of all of its
    rows.
    """
    columns = np.where(heights > 0, widths, 0)
    height = np.repeat(heights, columns)
    start = np.cumsum(height) - height
    if len(start):
        # each column's least gain and the first of its cells that holds it
        least = np.minimum.reduceat(gains, start)
        holds = np.where(gains == np.repeat(least, height), np.arange(len(gains)), len(gains))
        pick = np.minimum.reduceat(holds, start)
    else:
        least = pick = start
    # an entry is one column of one problem; a pick's row is counted over
    # the own rows of every problem of the block
    problem = np.repeat(np.arange(len(heights)), columns)
    before = np.cumsum(heights) - heights
    head = np.arange(len(heights))
    if extends is not None and extends.any():
        # a lane is one column of a chain, and a step one problem of it:
        # along each lane, the least gain so far and the entry of the
        # latest step that lowered it (entries grow step by step), whose
        # pick is the first of the chain's rows to reach it
        head = np.maximum.accumulate(np.where(extends, 0, head))
        lanes = np.where(extends, 0, columns)
        lane = np.arange(len(problem)) - np.repeat(
            np.cumsum(columns) - columns - (np.cumsum(lanes) - lanes)[head], columns
        )
        step = (np.arange(len(heights)) - head)[problem]
        shape = (int(lanes.sum()), int(step.max(initial=0)) + 1)
        lows = np.full(shape, np.inf)
        lows[lane, step] = least
        running = np.minimum.accumulate(lows, axis=1)
        lowers = np.ones(shape, dtype=bool)
        lowers[:, 1:] = lows[:, 1:] < running[:, :-1]
        entry = np.full(shape, -1)
        entry[lane, step] = np.arange(len(problem))
        entry = np.maximum.accumulate(np.where(lowers, entry, -1), axis=1)[lane, step]
        # a pick in an earlier problem of the chain: its start is shifted
        # so that the key below gives its row, and set apart by problem,
        # since the problems of a chain share rows
        start = start[entry] - before[problem[entry]]
        start += before[problem] - problem * int(heights.sum())
        least, pick = running[lane, step], pick[entry]
    negative = least < 0
    cells, problem = pick[negative], problem[negative]
    # the picks by problem, then row: a repeated row is a collision
    key = cells - start[negative] + before[problem]
    order = np.argsort(key, kind="stable")
    cells, problem, key = cells.take(order), problem.take(order), key.take(order)
    clash = key[1:] == key[:-1]
    if clash.any():
        clashing = np.zeros(len(heights), dtype=bool)
        clashing[problem[1:][clash]] = True
        settled = ~clashing[problem]
        found, whose = [cells[settled]], problem[settled]
        # the cell of each own row in column 0, and the step to the next column
        firsts = np.cumsum(heights * widths) - heights * widths
        row_cell = np.repeat(firsts - before, heights) + np.arange(heights.sum())
        row_step = np.repeat(heights, heights)
        problems = np.flatnonzero(clashing)
        starts, stops = before[head[problems]].tolist(), (before + heights)[problems].tolist()
        for a, b, n in zip(starts, stops, widths[problems].tolist()):
            grid = row_cell[a:b, None] + row_step[a:b, None] * np.arange(n)
            rows, cols = _augment(gains[grid])
            found.append(grid[rows, cols])
        whose = np.concatenate([whose, np.repeat(problems, [len(pairs) for pairs in found[1:]])])
        order = np.argsort(whose, kind="stable")
        cells, problem = np.concatenate(found).take(order), whose.take(order)
    return cells, np.bincount(problem, minlength=len(heights))
