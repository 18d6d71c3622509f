"""Exact 0/1 maximization under multiple knapsack rows.

This is the workhorse behind every lifting coefficient: maximize a
nonnegative linear objective over binary variables subject to per-row
demand budgets.  Solved by depth-first branch and bound, branching on
variables in descending weight/max-demand ratio, with an upper bound from
the fractional single-row relaxation (minimum over rows).  Exact by
exhaustion; optimal values here are tiny in practice, which is what makes
the bound-first search fast.

Everything is integer arithmetic.  Ratio comparisons use 64-bit-shifted
integer division, which orders distinct rationals w/a exactly for any
w, a below 2**32; fractional bounds are floored, which keeps them valid
upper bounds on an integer optimum.  The search is iterative (explicit
stack): subproblems embedded in large instances can have four-digit
variable counts, past the default recursion limit.

:class:`IncrementalLiftSolver` is the engine-facing entry point: it keeps
the growing variable set of one lifting run and answers a value query per
reduced rhs vector from Pareto frontiers of demand vectors, one per
objective value.  Should a frontier outgrow its limit, queries go to
:func:`solve` over the current variable set instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np


class _InfeasibleType:
    """Singleton marker: the subproblem admits no point, not even 0."""

    def __repr__(self) -> str:
        return "INFEASIBLE"

    def __bool__(self) -> bool:
        return False


INFEASIBLE = _InfeasibleType()


@dataclass(frozen=True)
class LiftingSubproblem:
    """max sum(weights[c] * x[c]) s.t. sum(rows[j][c] * x[c]) <= reduced_rhs[j] per row.

    ``reduced_rhs`` entries may be negative, in which case not even the
    empty assignment is feasible.
    """

    weights: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]
    reduced_rhs: Tuple[int, ...]

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValueError("objective weights must be nonnegative")
        for row in self.rows:
            if len(row) != len(self.weights):
                raise ValueError("row length does not match weight count")
            if any(a < 0 for a in row):
                raise ValueError("demands must be nonnegative")
        if len(self.reduced_rhs) != len(self.rows):
            raise ValueError("one rhs per row required")


@dataclass(frozen=True)
class SubproblemSolution:
    value: int
    witness: Tuple[int, ...]


def _ratio_rank(weight: int, demand: int) -> int:
    """Exact descending-ratio sort key for weight/demand (demand >= 1)."""
    return -((weight << 64) // demand)


def _floor_bound(
    order: Sequence[int],
    rank: Sequence[int],
    level: int,
    weights: Sequence[int],
    demands: Sequence[int],
    capacity: int,
) -> int:
    """Floor of the fractional knapsack value over one row's undecided variables.

    ``order`` lists variable positions by this row's ratio, row-free items
    first; positions whose ``rank`` is below ``level`` are already decided
    and skipped.  The floor of the relaxation still caps every integer
    completion.
    """
    total = 0
    for pos in order:
        if rank[pos] < level:
            continue
        a = demands[pos]
        if a == 0:
            total += weights[pos]
            continue
        if capacity <= 0:
            break
        if a <= capacity:
            total += weights[pos]
            capacity -= a
        else:
            total += weights[pos] * capacity // a
            break
    return total


def _descend(
    weights: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    var_at: Sequence[int],
    rank: Sequence[int],
    suffix: Sequence[int],
    node_bound: Callable[[int, List[int], Sequence[int], int], int],
    target: Optional[int],
    stop_value: Optional[int],
) -> Tuple[int, Tuple[int, ...]]:
    """Include-first iterative DFS over decision levels.

    ``var_at[level]`` maps a level to a position in the working arrays;
    ``suffix[level]`` is the total undecided weight (the cheap cap);
    ``node_bound`` prices a branch when the cheap cap leaves it alive.  In
    optimization mode (``stop_value`` is None) returns the best value found,
    stopping early once ``target`` is met; in reconstruction mode returns
    the first assignment worth exactly ``stop_value``.
    """
    m = len(rows)
    p = len(weights)
    remaining = list(rhs)
    chosen: List[int] = []
    best_value = 0
    best_chosen: Tuple[int, ...] = ()
    # Frame: [level, value, undo position or None, phase]
    frames = [[0, 0, None, 0]]
    while frames:
        frame = frames[-1]
        level, value, _, phase = frame
        if phase == 0:
            frame[3] = 1
            if stop_value is None:
                if value > best_value:
                    best_value = value
                    best_chosen = tuple(chosen)
                    if target is not None and best_value >= target:
                        break
                # Cheap suffix cap first; price the real bound only when the
                # branch still looks alive.
                prune = level == p or value + suffix[level] <= best_value
                if not prune:
                    full = node_bound(level, remaining, rank, suffix[level])
                    prune = value + full <= best_value
                    if level == 0:
                        # The root relaxation caps the whole search; an
                        # incumbent matching it is optimal.
                        if target is None or value + full < target:
                            target = value + full
                        if best_value >= target:
                            break
            else:
                if value == stop_value:
                    best_value = value
                    best_chosen = tuple(chosen)
                    break
                prune = level == p or value + suffix[level] < stop_value
                if not prune:
                    full = node_bound(level, remaining, rank, suffix[level])
                    prune = value + full < stop_value
            if prune:
                frame[3] = 3
                continue
        if frame[3] == 1:
            frame[3] = 2
            pos = var_at[level]
            fits = True
            for j in range(m):
                if rows[j][pos] > remaining[j]:
                    fits = False
                    break
            if fits:
                for j in range(m):
                    remaining[j] -= rows[j][pos]
                chosen.append(pos)
                frames.append([level + 1, value + weights[pos], pos, 0])
                continue
        if frame[3] == 2:
            frame[3] = 3
            frames.append([level + 1, value, None, 0])
            continue
        frames.pop()
        undo = frame[2]
        if undo is not None:
            chosen.pop()
            for j in range(m):
                remaining[j] += rows[j][undo]
    return best_value, best_chosen


class _FractionalBounder:
    """Min-over-rows floored fractional knapsack bound, built lazily.

    Searches cut short before any pricing never pay for the ratio sorts.
    """

    def __init__(self, weights: List[int], rows: List[List[int]]):
        self.w = weights
        self.a = rows
        self.p = len(weights)
        self._orders: Optional[List[List[int]]] = None

    def _row_orders(self) -> List[List[int]]:
        if self._orders is None:
            self._orders = []
            for row in self.a:
                self._orders.append(
                    sorted(
                        range(self.p),
                        key=lambda pos: (
                            (0, 0, pos)
                            if row[pos] == 0
                            else (1, _ratio_rank(self.w[pos], row[pos]), pos)
                        ),
                    )
                )
        return self._orders

    def __call__(self, level: int, remaining: List[int], rank: Sequence[int], cheap: int) -> int:
        out = cheap
        for j, order in enumerate(self._row_orders()):
            value = _floor_bound(order, rank, level, self.w, self.a[j], remaining[j])
            if value < out:
                out = value
        return out


def _solve_filtered(
    weights: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    stop_at: Optional[int],
    lexmin_witness: bool,
) -> Union[SubproblemSolution, _InfeasibleType]:
    """Core solver over plain integer sequences (see :func:`solve`)."""
    rhs = [int(r) for r in rhs]
    if any(r < 0 for r in rhs):
        return INFEASIBLE
    m = len(rows)
    n = len(weights)

    # Variables that can ever sit at 1: positive weight, fits every row alone.
    usable = []
    for c in range(n):
        if weights[c] <= 0:
            continue
        if all(rows[j][c] <= rhs[j] for j in range(m)):
            usable.append(c)
    # Row-free variables belong to every optimum; take them upfront.
    free = [c for c in usable if all(rows[j][c] == 0 for j in range(m))]
    rest = [c for c in usable if any(rows[j][c] > 0 for j in range(m))]
    base_value = sum(int(weights[c]) for c in free)
    if not rest or (stop_at is not None and stop_at <= base_value):
        return SubproblemSolution(value=base_value, witness=tuple(sorted(free)))

    rest.sort(
        key=lambda c: (
            _ratio_rank(int(weights[c]), max(rows[j][c] for j in range(m))),
            c,
        )
    )
    p = len(rest)
    w_arr = [int(weights[c]) for c in rest]
    a_arr = [[int(rows[j][c]) for c in rest] for j in range(m)]
    bounder = _FractionalBounder(w_arr, a_arr)

    identity = list(range(p))
    suffix = [0] * (p + 1)
    for pos in range(p - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + w_arr[pos]

    # Nothing beats the root relaxation; matching it ends the search, which
    # keeps plateaus of equally good assignments from being enumerated.
    root_cap = bounder(0, rhs, identity, suffix[0])
    target = root_cap if stop_at is None else min(stop_at - base_value, root_cap)
    if target <= 0:
        best_value, best_chosen = 0, ()
    else:
        best_value, best_chosen = _descend(
            w_arr, a_arr, rhs, identity, identity, suffix, bounder, target, None
        )
    value = base_value + best_value

    if not lexmin_witness:
        witness = sorted(free + [rest[pos] for pos in best_chosen])
        return SubproblemSolution(value=value, witness=tuple(witness))

    # Second pass: rebuild the witness as the lexicographically smallest
    # optimum.  Scan variables in index order, include-first; cut any prefix
    # that can no longer reach the proven optimum.
    scan_order = sorted(range(p), key=lambda pos: rest[pos])
    scan_rank = [0] * p
    for scan_level, pos in enumerate(scan_order):
        scan_rank[pos] = scan_level
    scan_suffix = [0] * (p + 1)
    for lvl in range(p - 1, -1, -1):
        scan_suffix[lvl] = scan_suffix[lvl + 1] + w_arr[scan_order[lvl]]

    reached, rebuilt = _descend(
        w_arr, a_arr, rhs, scan_order, scan_rank, scan_suffix, bounder,
        None, best_value,
    )
    assert reached == best_value, "witness reconstruction must reach the optimum"
    witness = sorted(free + [rest[pos] for pos in rebuilt])
    return SubproblemSolution(value=value, witness=tuple(witness))


def solve(
    sub: LiftingSubproblem,
    stop_at: Optional[int] = None,
    lexmin_witness: bool = True,
) -> Union[SubproblemSolution, _InfeasibleType]:
    """Solve the subproblem exactly.

    Returns :data:`INFEASIBLE` iff some reduced rhs is negative.  Otherwise
    the returned value is the true maximum and the witness attains it.  With
    ``lexmin_witness`` the witness is the optimum whose sorted index tuple is
    lexicographically smallest, zero-weight variables excluded (they can
    never change the value).  ``stop_at`` is a caller-supplied upper bound on
    the optimum, used to cut the search short; when it fires, the witness is
    whatever assignment reached it first.
    """
    return _solve_filtered(sub.weights, sub.rows, sub.reduced_rhs, stop_at, lexmin_witness)


def _pareto_min(vectors: np.ndarray) -> np.ndarray:
    """Keep the componentwise-minimal rows of an integer matrix."""
    vectors = np.unique(vectors, axis=0)
    k = len(vectors)
    if k <= 1:
        return vectors
    # le[j, i]: row j <= row i everywhere; rows are unique, so any such
    # j != i strictly dominates i.
    le = np.all(vectors[:, None, :] <= vectors[None, :, :], axis=2)
    np.fill_diagonal(le, False)
    return vectors[~le.any(axis=0)]


class IncrementalLiftSolver:
    """Value-only subproblem solver for one lifting run.

    Contract: every queried optimum is at most ``value_cap``.  The lifting
    loop guarantees this, because the subproblem objective is the left-hand
    side of an inequality that is valid with right-hand side ``value_cap``
    over a superset of the subproblem's feasible points.

    All queries of a lift share one growing variable set and differ only in
    the reduced rhs vector, so the solver maintains, for every objective
    value v up to ``value_cap``, the Pareto-minimal total demand vectors of
    subsets worth exactly v.  A query is then a frontier scan: the optimum
    is the largest v whose frontier fits under the queried vector.  Adding
    a variable updates the frontiers like a 0/1 knapsack DP; vectors
    exceeding the original rhs are unusable for every query and are
    dropped.

    Should a frontier outgrow ``pareto_limit``, the frontiers are dropped
    and every later query is answered by :func:`solve` over the support.
    """

    def __init__(self, rhs: Sequence[int], value_cap: int, pareto_limit: int = 3000):
        self.rhs = [int(r) for r in rhs]
        self.m = len(self.rhs)
        self.value_cap = value_cap
        self.weights: List[int] = []
        self.rows: List[List[int]] = [[] for _ in range(self.m)]
        self._memo: Dict[Tuple[int, ...], Optional[int]] = {}
        self._rhs_np = np.asarray(self.rhs, dtype=np.int64)
        self._pareto_limit = pareto_limit
        empty = np.zeros((0, self.m), dtype=np.int64)
        self._fronts: Optional[List[np.ndarray]] = [
            np.zeros((1, self.m), dtype=np.int64) if v == 0 else empty
            for v in range(value_cap + 1)
        ]

    def add_variable(self, weight: int, column: Sequence[int]) -> None:
        """Grow the support by one variable with the given per-row demands."""
        if not 0 < weight <= self.value_cap:
            raise ValueError("support weights must lie in 1..value_cap")
        self.weights.append(weight)
        for row, a in zip(self.rows, column):
            row.append(int(a))
        self._memo.clear()

        if self._fronts is not None:
            vec = np.asarray([int(c) for c in column], dtype=np.int64)
            if np.all(vec <= self._rhs_np):
                for v in range(self.value_cap, weight - 1, -1):
                    base = self._fronts[v - weight]
                    if not len(base):
                        continue
                    candidates = base + vec
                    candidates = candidates[
                        np.all(candidates <= self._rhs_np, axis=1)
                    ]
                    if not len(candidates):
                        continue
                    merged = _pareto_min(
                        np.vstack([self._fronts[v], candidates])
                    )
                    if len(merged) > self._pareto_limit:
                        self._fronts = None
                        break
                    self._fronts[v] = merged
            # A column exceeding the rhs somewhere can never be packed and
            # leaves the frontiers unchanged.

    def max_value(self, reduced: Sequence[int], stop_at: int) -> Tuple[Optional[int], bool]:
        """Exact optimum under the reduced rhs vector, memoized.

        Returns (value, fresh): value None means infeasible (some reduced
        rhs < 0); fresh is False on a memo hit.
        """
        key = tuple(int(r) for r in reduced)
        if key in self._memo:
            return self._memo[key], False
        value = self._compute(key, stop_at)
        self._memo[key] = value
        return value, True

    def _compute(self, reduced: Tuple[int, ...], stop_at: int) -> Optional[int]:
        if any(r < 0 for r in reduced):
            return None
        if not self.weights:
            return 0
        if self._fronts is not None:
            red = np.asarray(reduced, dtype=np.int64)
            for v in range(min(stop_at, self.value_cap), 0, -1):
                front = self._fronts[v]
                if len(front) and bool(np.all(front <= red, axis=1).any()):
                    return v
            return 0
        sub = LiftingSubproblem(tuple(self.weights), tuple(map(tuple, self.rows)), reduced)
        return solve(sub, stop_at=min(stop_at, self.value_cap), lexmin_witness=False).value
