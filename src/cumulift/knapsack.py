"""Exact 0/1 maximization under multiple knapsack rows, by Pareto frontiers.

This is the workhorse behind every lifting coefficient: maximize a
positive integer objective over binary variables subject to per-row demand
budgets, where the optimum is known to be at most a small cap.

:class:`IncrementalLiftSolver` keeps, for every objective value v up to the
cap, the Pareto-minimal total demand vectors of subsets worth exactly v
(the Pareto-frontier knapsack of Nemhauser & Ullmann, 1969).  All queries
of one lift share the growing variable set and differ only in the reduced
rhs vector.  Whether a vector's optimum reaches the cap is one dominance
test against the top frontier (``at_cap``, many vectors at once);
``max_value`` gives one vector's exact optimum.  Integer arithmetic only.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np


_BLOCK = 1024  # rows per block in ``at_cap``, bounding its boolean temporary


def covered(front: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``rows`` that some row of ``front`` is <= everywhere."""
    return (front[:, None, :] <= rows[None, :, :]).all(axis=2).any(axis=0)


def _merge(front: np.ndarray, new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pareto-minimal union of two Pareto-minimal sets of integer rows.

    Each side is minimal on its own, so only old-against-new comparisons
    matter: a new row goes if some old row is <= it everywhere (duplicates
    included), then an old row goes if some surviving new row is <= it.
    Returns (union, the new rows that entered it).
    """
    if not len(front):
        return new, new
    new = new[~covered(front, new)]
    if not len(new):
        return front, new
    return np.vstack([front[~covered(new, front)], new]), new


class IncrementalLiftSolver:
    """Value-only subproblem solver for one lifting run.

    Contract: every queried optimum is at most ``value_cap``, and every
    queried rhs vector is at most ``rhs`` componentwise.  The lifting loop
    guarantees both: the subproblem objective is the left-hand side of an
    inequality that is valid with right-hand side ``value_cap`` over a
    superset of the subproblem's feasible points, and a reduced rhs is the
    original rhs minus a nonnegative column.

    A query returns the largest v whose frontier fits under the queried
    vector.  Adding a variable updates the frontiers like a 0/1 knapsack
    DP; vectors exceeding the original rhs are unusable for every query and
    are dropped.
    """

    def __init__(self, rhs: Sequence[int], value_cap: int):
        self.value_cap = value_cap
        self._rhs = np.asarray([int(r) for r in rhs], dtype=np.int64)
        self._memo: Dict[Tuple[int, ...], Optional[int]] = {}
        m = len(self._rhs)
        self._empty = np.zeros((0, m), dtype=np.int64)
        self._fronts = [
            np.zeros((1, m), dtype=np.int64) if v == 0 else self._empty
            for v in range(value_cap + 1)
        ]

    def add_variable(self, weight: int, column: Sequence[int]) -> np.ndarray:
        """Grow the support by one variable; returns the new ``value_cap`` frontier rows."""
        if not 0 < weight <= self.value_cap:
            raise ValueError("support weights must lie in 1..value_cap")
        self._memo.clear()
        vec = np.asarray([int(c) for c in column], dtype=np.int64)
        entered = self._empty
        # A column exceeding the rhs somewhere can never be packed and
        # leaves the frontiers unchanged.
        if not (vec <= self._rhs).all():
            return entered
        for v in range(self.value_cap, weight - 1, -1):
            base = self._fronts[v - weight]
            if not len(base):
                continue
            candidates = base + vec
            candidates = candidates[(candidates <= self._rhs).all(axis=1)]
            if len(candidates):
                self._fronts[v], added = _merge(self._fronts[v], candidates)
                if v == self.value_cap:
                    entered = added
        return entered

    def at_cap(self, reduced: np.ndarray) -> np.ndarray:
        """Mask of the reduced rhs rows under which the optimum is ``value_cap``."""
        top = self._fronts[self.value_cap]
        mask = np.zeros(len(reduced), dtype=bool)
        for start in range(0, len(reduced), _BLOCK):
            mask[start:start + _BLOCK] = covered(top, reduced[start:start + _BLOCK])
        return mask

    def max_value(self, reduced: Sequence[int]) -> Tuple[Optional[int], bool]:
        """Exact optimum under the reduced rhs vector, memoized.

        Returns (value, fresh): value None means infeasible (some reduced
        rhs < 0); fresh is False on a memo hit.
        """
        key = tuple(int(r) for r in reduced)
        if key in self._memo:
            return self._memo[key], False
        value = self._compute(key)
        self._memo[key] = value
        return value, True

    def _compute(self, reduced: Tuple[int, ...]) -> Optional[int]:
        if any(r < 0 for r in reduced):
            return None
        red = np.asarray([reduced], dtype=np.int64)
        for v in range(self.value_cap, 0, -1):
            front = self._fronts[v]
            if len(front) and covered(front, red)[0]:
                return v
        return 0
