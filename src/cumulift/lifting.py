"""Sequential lifting of seed covers into full cumulative inequalities.

A cover inequality says "not all of these tasks at once"; lifting extends
it over every remaining column with the largest coefficient that keeps it
valid, one exact maximization subproblem per column.  Columns whose
subproblem already reaches the right-hand side (coefficient 0) are settled
in bulk, so the solver is queried only where a coefficient is positive.
The engine runs the selected covers in order, maintains a skip structure
of already-discovered unit-coefficient sets (re-lifting a cover inside one
would only rediscover the same constraint), drops results dominated by
original rows, and keeps the best few by capacity bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .covers import seed_covers, select_top_covers
from .errors import VerificationFailed
from .instance import DemandSystem, SchedulingInstance, to_demand_system
from .knapsack import IncrementalLiftSolver, covered
from .polyhedral import (
    BRUTEFORCE_LIMIT_DEFAULT,
    Cover,
    LiftedInequality,
    capacity_bound,
    capacity_lb,
    check_validity_bruteforce,
    is_dominated,
)
from .report import (
    InferenceReport,
    ReportConstraint,
    compute_searchless_lb,
    precedence_path_lb,
)


@dataclass(frozen=True)
class LiftingConfig:
    n_cover: int = 100
    n_out: int = 5
    max_cover_cardinality: Optional[int] = None
    bruteforce_verify: bool = True

    def __post_init__(self):
        if self.n_cover < 1:
            raise ValueError("n_cover must be at least 1")
        if self.n_out < 1:
            raise ValueError("n_out must be at least 1")
        if self.max_cover_cardinality is not None and self.max_cover_cardinality < 2:
            raise ValueError("max_cover_cardinality must be at least 2")

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_cover": self.n_cover,
            "n_out": self.n_out,
            "max_cover_cardinality": self.max_cover_cardinality,
            "bruteforce_verify": self.bruteforce_verify,
        }


@dataclass
class SkipSet:
    """Sets known to pairwise-conflict at a given cardinality.

    An entry (members, k) means: every subset of ``members`` with at least
    k elements is a cover whose lifting would rediscover the constraint
    that produced the entry.
    """

    entries: List[Tuple[FrozenSet[int], int]] = field(default_factory=list)

    def add(self, members: FrozenSet[int], threshold: int) -> None:
        self.entries.append((members, threshold))

    def already_covered(self, cover_members: Sequence[int]) -> bool:
        size = len(cover_members)
        members = frozenset(cover_members)
        return any(k <= size and members <= big for big, k in self.entries)


@dataclass
class InferenceStats:
    covers_generated: Dict[str, int] = field(default_factory=dict)
    covers_selected: int = 0
    covers_skipped: int = 0
    covers_dominated: int = 0
    constraints_lifted: int = 0
    subproblem_calls: int = 0
    infeasible_columns: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "covers_generated": dict(self.covers_generated),
            "covers_selected": self.covers_selected,
            "covers_skipped": self.covers_skipped,
            "covers_dominated": self.covers_dominated,
            "constraints_lifted": self.constraints_lifted,
            "subproblem_calls": self.subproblem_calls,
            "infeasible_columns": list(self.infeasible_columns),
        }


@dataclass
class InferredConstraint:
    inequality: LiftedInequality
    cover: Cover
    verified: Optional[bool] = None


class _Columns:
    """What every lift over one system shares, computed once per system."""

    def __init__(self, system: DemandSystem):
        columns = np.ascontiguousarray(system.matrix.T, dtype=np.int64)
        rhs = np.asarray(system.rhs, dtype=np.int64)
        self.columns: List[List[int]] = columns.tolist()
        self.rhs: List[int] = rhs.tolist()
        self.reduced = rhs - columns  # (n, m): rhs minus each column
        # Lifting order: shortest duration first, ties by index.
        self.order = np.argsort(system.durations, kind="stable")
        # Equal columns, and so equal reduced vectors, share an id.
        self.ids = np.unique(columns, axis=0, return_inverse=True)[1].reshape(-1)


def _lift(
    cover: Cover,
    cols: _Columns,
    on_step: Optional[Callable[[LiftedInequality, int], None]] = None,
) -> Tuple[LiftedInequality, int, List[int]]:
    """Lift one cover; returns (inequality, subproblem calls, flagged columns).

    Columns are lifted shortest-duration first (ties by index).  A column
    whose inclusion is infeasible on its own gets the full coefficient
    pi0 - the strongest value that is trivially valid - and is flagged.

    A lifting value never falls as the support grows and never exceeds
    pi0, so a column whose reduced rhs already fits a subset worth pi0
    keeps coefficient 0.  Such columns are settled against the top
    frontier and each addition's new top rows; only the others are
    queried, each when every column before it is settled.
    """
    n = len(cols.columns)
    pi0 = len(cover.members) - 1
    coeffs = [0] * n
    # Only positive-coefficient columns can raise the subproblem objective,
    # so the solver tracks exactly those.
    solver = IncrementalLiftSolver(cols.rhs, value_cap=pi0)
    for i in sorted(cover.members):
        coeffs[i] = 1
        solver.add_variable(1, cols.columns[i])
    rest = cols.order[~np.isin(cols.order, cover.members)]
    reduced = cols.reduced[rest]
    pending = np.flatnonzero(~solver.at_cap(reduced))
    lifted: List[int] = []
    flagged: List[int] = []
    while len(pending):
        p, pending = pending[0], pending[1:]
        i = int(rest[p])
        value, _ = solver.max_value(reduced[p].tolist())
        if value is None:
            coeffs[i] = pi0
            flagged.append(i)
        else:
            assert value <= pi0, "lifting value exceeded the right-hand side"
            coeffs[i] = pi0 - value
        lifted.append(p)
        if len(pending):
            entered = solver.add_variable(coeffs[i], cols.columns[i])
            if len(entered):
                pending = pending[~covered(entered, reduced[pending])]
    # A subproblem is one distinct reduced vector between two consecutive
    # positive-coefficient columns (the support is fixed in between).
    segment = np.searchsorted(np.asarray(lifted, dtype=np.int64), np.arange(len(rest)))
    calls = len(np.unique(segment * n + cols.ids[rest]))
    if on_step is not None:
        partial = list(cover.inequality(n).coeffs)
        for i in rest.tolist():
            partial[i] = coeffs[i]
            on_step(LiftedInequality(tuple(partial), pi0), i)
    return LiftedInequality(tuple(coeffs), pi0), calls, flagged


def lift_cover(
    cover: Cover,
    system: DemandSystem,
    on_step: Optional[Callable[[LiftedInequality, int], None]] = None,
) -> LiftedInequality:
    """Sequentially lift a cover inequality over all columns of the system.

    ``on_step`` gets the partial inequality after each non-member column.
    """
    inequality, _, _ = _lift(cover, _Columns(system), on_step=on_step)
    return inequality


def infer_constraints(
    system: DemandSystem,
    covers: Sequence[Cover],
    config: LiftingConfig,
) -> Tuple[List[InferredConstraint], InferenceStats]:
    """Run the lifting loop over an ordered cover list.

    Covers subsumed by an earlier lifted result are skipped without any
    subproblem call; dominated results are discarded after recording their
    skip entry; the ``n_out`` best by capacity bound survive.
    """
    stats = InferenceStats(covers_selected=len(covers))
    skip = SkipSet()
    kept: List[InferredConstraint] = []
    flagged: List[int] = []
    cols = _Columns(system)
    for cover in covers:
        if skip.already_covered(cover.members):
            stats.covers_skipped += 1
            continue
        inequality, calls, cover_flagged = _lift(cover, cols)
        stats.subproblem_calls += calls
        stats.constraints_lifted += 1
        flagged.extend(c for c in cover_flagged if c not in flagged)
        skip.add(
            frozenset(i for i, c in enumerate(inequality.coeffs) if c == 1),
            len(cover.members),
        )
        if is_dominated(inequality, system):
            stats.covers_dominated += 1
            continue
        kept.append(InferredConstraint(inequality=inequality, cover=cover))
    stats.infeasible_columns = tuple(sorted(flagged))
    kept.sort(
        key=lambda c: capacity_bound(c.inequality, system.durations), reverse=True
    )
    return kept[: config.n_out], stats


def run_pipeline(
    instance: SchedulingInstance, config: LiftingConfig = LiftingConfig()
) -> InferenceReport:
    """Project, enumerate, lift, verify, and assemble the report."""
    system = to_demand_system(instance)
    covers = seed_covers(system, max_cardinality=config.max_cover_cardinality)
    selected = select_top_covers(covers, system.durations, config.n_cover)
    constraints, stats = infer_constraints(system, selected, config)
    stats.covers_generated = covers.rule_counts()

    if config.bruteforce_verify and system.n_cols <= BRUTEFORCE_LIMIT_DEFAULT:
        for c in constraints:
            ok, point = check_validity_bruteforce(c.inequality, system)
            c.verified = ok
            if not ok:
                raise VerificationFailed(
                    f"inferred inequality {c.inequality} violated at {point}"
                )

    lb, certificate = compute_searchless_lb(
        system, [c.inequality for c in constraints]
    )
    report_constraints = []
    for c in constraints:
        usages = tuple(
            (system.task_map[col], int(coeff))
            for col, coeff in enumerate(c.inequality.coeffs)
            if coeff > 0
        )
        report_constraints.append(
            ReportConstraint(
                usages=usages,
                capacity=c.inequality.rhs,
                bound=capacity_bound(c.inequality, system.durations),
                bound_int=capacity_lb(c.inequality, system.durations),
                source_cover=tuple(system.task_map[i] for i in c.cover.members),
                rule=c.cover.rule or "unknown",
                verified=c.verified,
            )
        )
    return InferenceReport(
        instance_name=instance.name,
        config=config.to_dict(),
        task_map=system.task_map,
        constraints=report_constraints,
        searchless_lb=lb,
        certificate=certificate,
        precedence_lb=precedence_path_lb(instance),
        row_lb=compute_searchless_lb(system, ())[0],
        infeasible_tasks=tuple(system.task_map[c] for c in stats.infeasible_columns),
        stats=stats.to_dict(),
    )
