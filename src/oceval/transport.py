"""Exact solver for one image's detection-correction problem.

Every detection and every ground truth is one unit. A unit is either
matched to one unit of the other side at the pair's cost c_ij, or left
unmatched at the dummy cost β (a deletion or an insertion). With k
matched pairs out of m detections and n ground truths, the transport
objective with a dummy row and column (the dummy-to-dummy corner priced
at β and carrying k units) is

    (m + n) * β + Σ_matched (c_ij - β),

so an optimal plan is a partial injective matching that minimises the
sum of the gains c_ij - β of its pairs. ``solve`` finds it with one
rectangular assignment (``scipy.optimize.linear_sum_assignment``) on the
m x n block of gains clipped at 0, then drops the pairs whose gain is not
negative: a clipped cell only pads the assignment to min(m, n) pairs and
changes nothing. The plan is an integral optimum, not an approximation.

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
  the rounding of the assignment; the enumeration below may pick another.

``brute_force_solve`` enumerates every partial matching under the same
rule and is the oracle for ``solve``. The reported objective is always the
exactly rounded (``math.fsum``) cost of the plan under the unperturbed
costs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .costs import CostMatrix
from .errors import ConfigError, ValidationError

__all__ = ["TransportPlan", "solve", "brute_force_solve", "MAX_BRUTE_FORCE_SIDE"]

# Credit per matched pair: far smaller than any meaningful cost gap, far
# larger than accumulated rounding.
_TIE_EPSILON = 1e-7

MAX_BRUTE_FORCE_SIDE = 6


@dataclass(frozen=True)
class TransportPlan:
    """An optimal partial matching: detection ``det_indices[p]`` is matched
    to ground truth ``gt_indices[p]``, ordered by detection index; every
    other detection and ground truth is unmatched. ``objective`` is the
    plan's total cost under the unperturbed costs, the dummy-to-dummy
    corner included: the matched costs plus (m + n - k) * dummy cost.
    """

    det_indices: np.ndarray
    gt_indices: np.ndarray
    objective: float

    @property
    def matched_pairs(self) -> int:
        """Number of matched detection / ground-truth pairs."""
        return len(self.det_indices)


def _validate_problem(cost: CostMatrix) -> None:
    entries = cost.entries
    if entries.ndim != 2:
        raise ConfigError(f"cost matrix must be 2-D (m x n), got shape {entries.shape}")
    if not (np.isfinite(entries).all() and math.isfinite(cost.dummy_cost)):
        raise ValidationError("cost matrix contains NaN or infinite entries")
    if (entries < 0).any() or cost.dummy_cost < 0:
        raise ValidationError("cost matrix contains negative entries")


def _gains(cost: CostMatrix) -> np.ndarray:
    """Credited gain of every pair; only negative gains are worth matching."""
    return (cost.entries - _TIE_EPSILON) - cost.dummy_cost


def _plan(cost: CostMatrix, rows: np.ndarray, cols: np.ndarray) -> TransportPlan:
    m, n = cost.entries.shape
    paying = [cost.dummy_cost] * (m + n - len(rows))
    objective = math.fsum(cost.entries[rows, cols].tolist() + paying)
    return TransportPlan(det_indices=rows, gt_indices=cols, objective=objective)


def solve(cost: CostMatrix) -> TransportPlan:
    """Solve the correction problem exactly.

    Returns a partial matching that minimises the credited objective of
    the module docstring, so among plans of equal objective one with the
    most matched pairs.
    """
    _validate_problem(cost)
    if cost.m == 0 or cost.n == 0:
        none = np.zeros(0, dtype=np.intp)
        return _plan(cost, none, none)
    gains = np.minimum(_gains(cost), 0.0)
    rows, cols = linear_sum_assignment(gains)
    keep = gains[rows, cols] < 0
    return _plan(cost, rows[keep], cols[keep])


def brute_force_solve(cost: CostMatrix) -> TransportPlan:
    """Exhaustively enumerate every partial matching; verification oracle for ``solve``.

    Selects the plan with the least exact sum of credited gains among those
    matching only pairs of negative gain, preferring more matches on ties.
    Enumeration is bounded to small instances by design.
    """
    _validate_problem(cost)
    m, n = cost.m, cost.n
    if m > MAX_BRUTE_FORCE_SIDE or n > MAX_BRUTE_FORCE_SIDE:
        raise ConfigError(
            f"brute-force enumeration is limited to {MAX_BRUTE_FORCE_SIDE} boxes per side, "
            f"got m={m}, n={n}"
        )
    gains = _gains(cost)

    best_key: tuple[float, int] | None = None
    best_match: tuple[tuple[int, int], ...] = ()
    for k in range(min(m, n) + 1):
        for det_sel in itertools.combinations(range(m), k):
            for gt_sel in itertools.permutations(range(n), k):
                match = tuple(zip(det_sel, gt_sel))
                pair_gains = [gains[i, j] for i, j in match]
                if any(g >= 0 for g in pair_gains):
                    continue
                key = (math.fsum(pair_gains), -k)
                if best_key is None or key < best_key:
                    best_key = key
                    best_match = match

    rows = np.array([i for i, _ in best_match], dtype=np.intp)
    cols = np.array([j for _, j in best_match], dtype=np.intp)
    return _plan(cost, rows, cols)
