"""Shared fixtures and generators for the test suite."""

from itertools import combinations

import numpy as np
import pytest

from cumulift.covers import enumerate_long_covers
from cumulift.instance import (
    DemandSystem,
    InstanceKind,
    PrecedenceArc,
    Resource,
    SchedulingInstance,
    Task,
)
from cumulift.knapsack import IncrementalLiftSolver
from cumulift.polyhedral import Cover, LiftedInequality, capacity_bound


@pytest.fixture
def knapsack_system():
    """The 4-task, capacity-7 system with demands 5, 3, 2, 4."""
    return DemandSystem(
        matrix=np.array([[5, 3, 2, 4]], dtype=np.int64),
        rhs=np.array([7], dtype=np.int64),
        durations=np.array([1, 1, 1, 2], dtype=np.int64),
        task_map=(1, 2, 3, 4),
    )


def make_system(matrix, rhs, durations, task_map=None):
    matrix = np.asarray(matrix, dtype=np.int64)
    if task_map is None:
        task_map = tuple(range(matrix.shape[1]))
    return DemandSystem(
        matrix=matrix,
        rhs=np.asarray(rhs, dtype=np.int64),
        durations=np.asarray(durations, dtype=np.int64),
        task_map=task_map,
    )


def frontier_max(weights, rows, rhs):
    """max sum(weights[c] x[c]) s.t. sum(rows[j][c] x[c]) <= rhs[j], by the frontier solver.

    None means infeasible (some rhs < 0).  Zero-weight variables never
    change the optimum and are left out, as the lifting loop does.
    """
    solver = IncrementalLiftSolver(rhs, value_cap=max(1, sum(weights)))
    for c, w in enumerate(weights):
        if w > 0:
            solver.add_variable(w, [row[c] for row in rows])
    return solver.max_value(rhs)[0]


def reference_lift(cover, system, on_step=None):
    """Sequential lifting by one frontier query per non-member column.

    The loop the lifting engine must reproduce: columns shortest-duration
    first (ties by index), each queried under its reduced rhs; a fresh
    (non-memoized) query is one subproblem call; an infeasible column gets
    pi0 and is flagged; every positive coefficient joins the support.
    Returns (inequality, subproblem calls, flagged columns).
    """
    n = system.n_cols
    columns = system.matrix.T.tolist()
    rhs = [int(r) for r in system.rhs]
    pi0 = len(cover.members) - 1
    coeffs = [0] * n
    solver = IncrementalLiftSolver(rhs, value_cap=pi0)
    for i in cover.members:
        coeffs[i] = 1
        solver.add_variable(1, columns[i])
    order = sorted(
        (i for i in range(n) if i not in cover.members),
        key=lambda i: (int(system.durations[i]), i),
    )
    calls = 0
    flagged = []
    for i in order:
        value, fresh = solver.max_value([r - c for r, c in zip(rhs, columns[i])])
        calls += fresh
        if value is None:
            coeffs[i] = pi0
            flagged.append(i)
        else:
            coeffs[i] = pi0 - value
        if coeffs[i] > 0:
            solver.add_variable(coeffs[i], columns[i])
        if on_step is not None:
            on_step(LiftedInequality(tuple(coeffs), pi0), i)
    return LiftedInequality(tuple(coeffs), pi0), calls, flagged


def random_system(rng, max_cols=8, max_rows=3, max_rhs=9, max_duration=6):
    """A random DemandSystem honoring all of the type's invariants."""
    n = int(rng.integers(1, max_cols + 1))
    m = int(rng.integers(1, max_rows + 1))
    rhs = np.array([int(rng.integers(1, max_rhs + 1)) for _ in range(m)], dtype=np.int64)
    matrix = np.zeros((m, n), dtype=np.int64)
    for j in range(m):
        matrix[j] = rng.integers(0, rhs[j] + 1, size=n)
    for c in range(n):
        if not matrix[:, c].any():
            j = int(rng.integers(0, m))
            matrix[j, c] = int(rng.integers(1, rhs[j] + 1))
    durations = np.array(
        [int(rng.integers(1, max_duration + 1)) for _ in range(n)], dtype=np.int64
    )
    return DemandSystem(matrix=matrix, rhs=rhs, durations=durations,
                        task_map=tuple(range(n)))


def reference_short_covers(system, include_ternary=True):
    """Every short cover as its own ``Cover``, in generation order, repeats included.

    The plain-Python reference for :mod:`cumulift.covers`: per row, every
    pair in ``triu`` order is a binary cover if it overloads the row, else
    it is completed by the longest other task (lowest index on ties) whose
    demand exceeds the pair's slack, when there is one.
    """
    d = [int(x) for x in system.durations]
    covers = []
    for row in range(system.n_rows):
        a = [int(x) for x in system.matrix[row]]
        b = int(system.rhs[row])
        for i, j in combinations(range(system.n_cols), 2):
            if a[i] + a[j] > b:
                covers.append(Cover((i, j), row, "binary"))
            elif include_ternary:
                slack = b - a[i] - a[j]
                eligible = [k for k in range(system.n_cols) if k not in (i, j) and a[k] > slack]
                if eligible:
                    k = min(eligible, key=lambda c: (-d[c], c))
                    covers.append(Cover(tuple(sorted((i, j, k))), row, "ternary"))
    return covers


def first_per_member_set(covers):
    """Drop every cover whose member set an earlier cover already has."""
    unique = {}
    for cover in covers:
        unique.setdefault(cover.members, cover)
    return list(unique.values())


def reference_seed_covers(system, max_cardinality=None):
    """The seed cover list the array code must reproduce, in order."""
    if max_cardinality is not None and max_cardinality < 3:
        return first_per_member_set(reference_short_covers(system, include_ternary=False))
    longs = enumerate_long_covers(system, max_cardinality=max_cardinality)
    return first_per_member_set(reference_short_covers(system) + longs)


def reference_select(covers, durations, limit):
    """Stable sort of the short covers by exact capacity bound; long covers after the cut."""
    n = len(durations)
    shorts = [c for c in covers if c.rule in ("binary", "ternary")]
    longs = [c for c in covers if c.rule not in ("binary", "ternary")]
    shorts.sort(key=lambda c: capacity_bound(c.inequality(n), durations), reverse=True)
    return shorts[:limit] + longs


def random_instance(rng, max_tasks=6, max_resources=2, max_rhs=6, max_duration=4,
                    with_dummies=False, chain_probability=0.4):
    """A random feasible RCPSP instance (demands never exceed capacities)."""
    n = int(rng.integers(1, max_tasks + 1))
    m = int(rng.integers(1, max_resources + 1))
    caps = [int(rng.integers(1, max_rhs + 1)) for _ in range(m)]
    tasks = []
    for i in range(n):
        demands = tuple(int(rng.integers(0, caps[r] + 1)) for r in range(m))
        duration = int(rng.integers(0, max_duration + 1))
        tasks.append(Task(id=i, duration=duration, demands=demands))
    arcs = []
    for i in range(1, n):
        if rng.random() < chain_probability:
            j = int(rng.integers(0, i))
            arcs.append(PrecedenceArc(j, i, tasks[j].duration))
    if with_dummies:
        shifted = [
            Task(id=t.id + 1, duration=t.duration, demands=t.demands) for t in tasks
        ]
        zero = tuple(0 for _ in range(m))
        tasks = [Task(id=0, duration=0, demands=zero)] + shifted + [
            Task(id=n + 1, duration=0, demands=zero)
        ]
        arcs = [PrecedenceArc(a.from_task + 1, a.to_task + 1, a.offset) for a in arcs]
        arcs += [PrecedenceArc(0, i, 0) for i in range(1, n + 1)]
        arcs += [
            PrecedenceArc(i, n + 1, tasks[i].duration) for i in range(1, n + 1)
        ]
        n += 2
    return SchedulingInstance(
        name=f"random-{n}",
        kind=InstanceKind.RCPSP,
        tasks=tuple(tasks),
        resources=tuple(Resource(r, caps[r]) for r in range(m)),
        precedences=tuple(arcs),
    )


def synthetic_project(n, m=5, seed=0):
    """RCPSP-style instance used by the performance criteria."""
    rng = np.random.default_rng(seed)
    caps = rng.integers(10, 16, size=m)
    tasks = []
    for i in range(n):
        duration = int(rng.integers(1, 11))
        demands = [0] * m
        for r in rng.choice(m, size=int(rng.integers(1, 3)), replace=False):
            demands[r] = int(rng.integers(1, caps[r] + 1))
        tasks.append(Task(id=i, duration=duration, demands=tuple(demands)))
    arcs = []
    for i in range(1, n):
        if rng.random() < 0.5:
            j = int(rng.integers(0, i))
            arcs.append(PrecedenceArc(j, i, tasks[j].duration))
    return SchedulingInstance(
        name=f"synthetic-{n}",
        kind=InstanceKind.RCPSP,
        tasks=tuple(tasks),
        resources=tuple(Resource(r, int(caps[r])) for r in range(m)),
        precedences=tuple(arcs),
    )


def enumerate_feasible_starts(system, horizon):
    """All start vectors in [0, horizon]^n whose usage fits every row everywhere."""
    n = system.n_cols
    durations = np.asarray(system.durations)
    grids = np.indices((horizon + 1,) * n).reshape(n, -1).T
    feasible = np.ones(len(grids), dtype=bool)
    top = horizon + int(durations.max(initial=0)) + 1
    for r in range(system.n_rows):
        a = system.matrix[r]
        b = int(system.rhs[r])
        for tau in range(top):
            active = (grids <= tau) & (tau < grids + durations)
            feasible &= active @ a <= b
    return grids[feasible]


def schedule_satisfies(starts, coeffs, rhs, durations, horizon):
    """Vectorized cumulative check of one inequality over many schedules."""
    starts = np.asarray(starts)
    durations = np.asarray(durations)
    pi = np.asarray(coeffs)
    ok = np.ones(len(starts), dtype=bool)
    top = horizon + int(durations.max(initial=0)) + 1
    for tau in range(top):
        active = (starts <= tau) & (tau < starts + durations)
        ok &= active @ pi <= rhs
    return ok
