"""Correctness checks on pipeline output, run outside the timed region.

The checks re-derive what a report claims from the instance itself rather
than from the pipeline's own bookkeeping:

- the demand system is rebuilt here from the instance's tasks;
- every emitted constraint is valid over ``{x in {0,1}^n : Ax <= b}``.
  Since ``A >= 0`` and ``pi >= 0``, only the support of ``pi`` matters.  Up
  to 14 support columns the check is full enumeration
  (``check_validity_bruteforce``); above that it is a dense 0/1 knapsack
  DP over the capacity vectors of the rows that bind on the support, whose
  optimum is compared with ``pi0``; past 14 columns the DP is the cheaper
  of the two.  (One ``knapsack.solve`` call would
  also decide it, but its branch and bound can take minutes on cover-scan
  constraints with over a hundred support columns, where the DP takes
  milliseconds.);
- ``searchless_lb`` equals the bound recomputed from its certificate;
- the JSON report survives ``parse_report`` then ``emit_report`` byte for
  byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from cumulift import (
    DemandSystem,
    LiftedInequality,
    SchedulingInstance,
    check_validity_bruteforce,
    emit_report,
    parse_report,
)

BRUTEFORCE_COLUMNS = 14
DP_CELLS = 1 << 22


def demand_system(instance: SchedulingInstance) -> DemandSystem:
    """Columns are the tasks with positive duration and some positive demand."""
    kept = [t for t in instance.tasks if t.duration > 0 and any(t.demands)]
    m = instance.n_resources
    return DemandSystem(
        matrix=np.array([[t.demands[r] for t in kept] for r in range(m)],
                        dtype=np.int64).reshape(m, len(kept)),
        rhs=np.array([r.capacity for r in instance.resources], dtype=np.int64),
        durations=np.array([t.duration for t in kept], dtype=np.int64),
        task_map=tuple(t.id for t in kept),
    )


def max_value_dp(weights: Sequence[int], matrix: np.ndarray, rhs: np.ndarray) -> int:
    """max ``weights . x`` over 0/1 ``x`` with ``matrix @ x <= rhs``, by dense DP.

    ``best[c]`` is the optimum under the capacity vector ``c``; adding a
    column updates every ``c >= a`` from the previous table at ``c - a``.
    Only rows the columns can overfill are kept as table dimensions.
    """
    cols = [i for i, w in enumerate(weights) if w > 0 and np.all(matrix[:, i] <= rhs)]
    sub = matrix[:, cols]
    rows = [j for j in range(len(rhs)) if sub[j].sum() > rhs[j]]
    if not rows:
        return int(sum(weights[i] for i in cols))
    caps = [int(rhs[j]) for j in rows]
    cells = int(np.prod([c + 1 for c in caps]))
    if cells > DP_CELLS:
        raise ValueError(f"validity DP needs {cells} cells, more than {DP_CELLS}")
    dtype = np.int32 if sum(weights) < 2**31 else np.int64
    best = np.zeros([c + 1 for c in caps], dtype=dtype)
    for k, i in enumerate(cols):
        a = [int(sub[j, k]) for j in rows]
        dst = tuple(slice(x, None) for x in a)
        src = tuple(slice(0, c + 1 - x) for x, c in zip(a, caps))
        np.maximum(best[dst], best[src] + int(weights[i]), out=best[dst])
    return int(best[tuple(caps)])


def violation(coeffs: Sequence[int], rhs: int, system: DemandSystem) -> Optional[str]:
    """None if ``coeffs . x <= rhs`` holds on every feasible 0/1 point."""
    try:
        inequality = LiftedInequality(tuple(coeffs), rhs)
    except ValueError as exc:
        return str(exc)
    support = list(inequality.support)
    matrix = np.asarray(system.matrix, dtype=np.int64)[:, support]
    if len(support) <= BRUTEFORCE_COLUMNS:
        restricted = DemandSystem(matrix=matrix, rhs=system.rhs,
                                  durations=system.durations[support])
        ok, point = check_validity_bruteforce(
            LiftedInequality(tuple(coeffs[i] for i in support), rhs), restricted,
            limit=BRUTEFORCE_COLUMNS)
        return None if ok else f"violated at support point {point}"
    best = max_value_dp([coeffs[i] for i in support], matrix, system.rhs)
    return None if best <= rhs else f"a feasible point reaches {best} > {rhs}"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def certified_lb(report, instance: SchedulingInstance) -> int:
    """The search-less bound recomputed from the report's certificate alone."""
    if report.certificate is None:
        return 0
    kind, index = report.certificate
    durations = {t.id: t.duration for t in instance.tasks}
    if kind == "inferred":
        c = report.constraints[index]
        return _ceil_div(sum(durations[t] * u for t, u in c.usages), c.capacity)
    if kind == "row":
        total = sum(t.duration * t.demands[index] for t in instance.tasks)
        return _ceil_div(total, instance.resources[index].capacity)
    raise ValueError(f"unknown certificate kind {kind!r}")


def constraint_problems(report, system: DemandSystem) -> List[str]:
    """One line per emitted constraint that is not valid for ``system``."""
    column_of: Dict[int, int] = {t: c for c, t in enumerate(system.task_map)}
    problems = []
    for idx, c in enumerate(report.constraints):
        coeffs = [0] * system.n_cols
        unknown = [t for t, _ in c.usages if t not in column_of]
        if unknown:
            problems.append(f"constraint {idx} uses tasks {unknown} outside the system")
            continue
        for t, u in c.usages:
            coeffs[column_of[t]] = u
        why = violation(coeffs, c.capacity, system)
        if why is not None:
            problems.append(f"constraint {idx} invalid: {why}")
    return problems


def check_report(text: str, instance: SchedulingInstance) -> List[str]:
    """Every problem found in one JSON report; empty means correct."""
    report = parse_report(text)
    problems = []
    if emit_report(report) != text:
        problems.append("report does not survive parse_report -> emit_report")
    system = demand_system(instance)
    if tuple(report.task_map) != system.task_map:
        problems.append("task_map differs from the instance's demand system")
    problems += constraint_problems(report, system)
    try:
        expected = certified_lb(report, instance)
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"bad certificate {report.certificate}: {exc}")
    else:
        if expected != report.searchless_lb:
            problems.append(
                f"searchless_lb {report.searchless_lb} but certificate gives {expected}"
            )
    return problems
