"""Inequalities over 0/1 demand polyhedra and the small-scale oracles.

The central objects are inequalities ``pi . x <= pi0`` with nonnegative
integer coefficients, interpreted against point sets
``{x in {0,1}^n : A x <= b}``.  Everything here is exact: capacity ratios
are ``fractions.Fraction``, validity is decided by enumerating subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptySupport, TooLarge, ZeroCapacity

BRUTEFORCE_LIMIT_DEFAULT = 20
_LOW_TABLE_BITS = 16


@dataclass(frozen=True)
class LiftedInequality:
    """A valid inequality ``sum(coeffs[i] * x[i]) <= rhs`` over 0/1 points.

    Interchangeable with a cumulative constraint whose usages are ``coeffs``
    and whose capacity is ``rhs``.
    """

    coeffs: Tuple[int, ...]
    rhs: int

    def __post_init__(self):
        if self.rhs < 0:
            raise ValueError("rhs must be nonnegative")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")
        if any(c > self.rhs for c in self.coeffs):
            raise ValueError("coefficients may not exceed the right-hand side")

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c > 0)


@dataclass(frozen=True)
class Cover:
    """An index set whose summed demands exceed a row's capacity.

    ``rule`` records which generation rule produced the cover (see
    :mod:`cumulift.covers`); it is provenance only.
    """

    members: Tuple[int, ...]
    source_row: int
    rule: Optional[str] = None

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a cover needs at least two members")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be strictly increasing")

    def inequality(self, n: int) -> LiftedInequality:
        """The cover inequality: at most ``len(members) - 1`` of them at once."""
        coeffs = [0] * n
        for i in self.members:
            coeffs[i] = 1
        return LiftedInequality(tuple(coeffs), len(self.members) - 1)


@dataclass(frozen=True)
class Schedule:
    """An assignment of start times, aligned with the constrained task set."""

    starts: Tuple[int, ...]


def is_cover(members: Iterable[int], demands: Sequence[int], rhs: int) -> bool:
    """True iff the members' demands sum past the row capacity."""
    return sum(demands[i] for i in members) > rhs


def capacity_bound(ineq: LiftedInequality, durations: Sequence[int]) -> Fraction:
    """Total usage-time over capacity, ``sum(d_i * pi_i) / pi0``, exactly.

    This is the per-constraint quality metric: a constraint packing a lot of
    work into little capacity forces a long span.
    """
    if ineq.rhs == 0:
        raise ZeroCapacity("capacity bound undefined for rhs 0")
    total = sum(int(d) * int(c) for d, c in zip(durations, ineq.coeffs))
    return Fraction(total, ineq.rhs)


def capacity_lb(ineq: LiftedInequality, durations: Sequence[int]) -> int:
    """Ceiling of the capacity bound: a valid integer lower bound on the span
    of the constraint's tasks in any satisfying schedule."""
    return ceil(capacity_bound(ineq, durations))


def is_dominated(ineq: LiftedInequality, system) -> bool:
    """True iff some original row implies ``ineq`` coefficientwise.

    A row ``(a_r; b_r)`` dominates when ``pi <= a_r`` everywhere and
    ``pi0 >= b_r``: anything the new inequality forbids, the row already did.
    """
    pi = np.asarray(ineq.coeffs, dtype=np.int64)
    matrix = np.asarray(system.matrix, dtype=np.int64)
    rhs = np.asarray(system.rhs, dtype=np.int64)
    if matrix.shape[1] != pi.shape[0]:
        raise ValueError("dimension mismatch")
    for r in range(matrix.shape[0]):
        if np.all(pi <= matrix[r]) and ineq.rhs >= rhs[r]:
            return True
    return False


def _subset_sums(columns: np.ndarray) -> np.ndarray:
    """Row c holds the sum of ``columns[i]`` over the bits i set in c."""
    sums = np.zeros((1, columns.shape[1]), dtype=np.int64)
    for column in columns:
        sums = np.concatenate([sums, sums + column])
    return sums


def check_validity_bruteforce(
    ineq: LiftedInequality,
    system,
    limit: int = BRUTEFORCE_LIMIT_DEFAULT,
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Decide validity by enumerating every subset of the support of ``pi``.

    Returns ``(True, None)`` if every feasible point satisfies the
    inequality, else ``(False, y)`` for the violating point of smallest
    binary code (bit i encodes x_i).  ``limit`` bounds the number of system
    columns.  Since ``A >= 0`` and ``pi >= 0``, clearing a bit outside the
    support keeps a violating point feasible and violating and lowers its
    code, so the smallest witness lies on the support.
    """
    matrix = np.asarray(system.matrix, dtype=np.int64)
    rhs = np.asarray(system.rhs, dtype=np.int64)
    n = matrix.shape[1]
    if n != len(ineq.coeffs):
        raise ValueError("dimension mismatch")
    if (matrix < 0).any():
        raise ValueError("matrix must be nonnegative")
    if n > limit:
        raise TooLarge(f"{n} columns exceed brute-force limit {limit}")
    support = ineq.support
    # Row i holds (pi_c, A[:, c]) of the i-th support column c: bit i of a code is x_c.
    pi = np.asarray(ineq.coeffs, dtype=np.int64)
    columns = np.column_stack([pi, matrix.T])[list(support)]
    low_bits = min(len(support), _LOW_TABLE_BITS)
    low = _subset_sums(columns[:low_bits])
    for high_code, offset in enumerate(_subset_sums(columns[low_bits:])):
        violating = (low[:, 0] + offset[0] > ineq.rhs) & np.all(
            low[:, 1:] <= rhs - offset[1:], axis=1
        )
        hits = np.flatnonzero(violating)
        if hits.size:
            code = (high_code << low_bits) | int(hits[0])
            point = [0] * n
            for bit, col in enumerate(support):
                point[col] = (code >> bit) & 1
            return False, tuple(point)
    return True, None


def check_cumulative(
    schedule: Schedule,
    ineq: LiftedInequality,
    durations: Sequence[int],
) -> Tuple[bool, Optional[int]]:
    """Check the cumulative condition of ``ineq`` against concrete starts.

    Usage is piecewise constant and only increases at task starts, so it
    suffices to scan those.  Returns ``(True, None)`` or ``(False, tau)``
    for the earliest overloaded time point.
    """
    if len(schedule.starts) != len(ineq.coeffs):
        raise ValueError("schedule length does not match the inequality")
    active = [
        (s, s + int(durations[i]), int(ineq.coeffs[i]))
        for i, s in enumerate(schedule.starts)
        if ineq.coeffs[i] > 0 and durations[i] > 0
    ]
    for tau in sorted({s for s, _, _ in active}):
        usage = sum(c for s, e, c in active if s <= tau < e)
        if usage > ineq.rhs:
            return False, tau
    return True, None


def span(schedule: Schedule, durations: Sequence[int], support: Iterable[int]) -> int:
    """Latest finish minus earliest start over the support set."""
    support = list(support)
    if not support:
        raise EmptySupport("span over an empty task set")
    start = min(schedule.starts[i] for i in support)
    finish = max(schedule.starts[i] + int(durations[i]) for i in support)
    return finish - start
