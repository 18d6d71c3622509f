"""Seeded instance generators and text writers for the benchmark.

The benchmark owns its inputs: nothing here imports the test suite, so the
test fixtures can change without moving the benchmark's numbers.

Two families:

- :func:`synthetic_project` is the ROADMAP's performance family (a copy of
  the test-suite generator): random durations, each task on one or two of
  ``m`` resources with demands up to the full capacity, random chain arcs.
- :func:`progen_instance` follows the ProGen parameters of PSPLIB
  (Kolisch, Sprecher & Drexl, Management Science 1995): the resource factor
  RF is the share of resources each task uses, and the resource strength RS
  places each capacity between K_min (the largest single demand) and K_max
  (the peak usage of the earliest-start schedule) as
  ``K = K_min + round(RS * (K_max - K_min))``.  With ``max_lags`` the
  instance is RCPSP/max: maximal time lags become negative arcs that close
  no positive cycle.

:func:`write_sm` and :func:`write_sch` render instances as PSPLIB ``.sm``
and ProGen/max ``.sch`` text that ``cumulift.parse_instance`` reads back
into an equal instance.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from cumulift import (
    InstanceKind,
    PrecedenceArc,
    Resource,
    SchedulingInstance,
    Task,
)


def synthetic_project(n: int, m: int = 5, seed: int = 0) -> SchedulingInstance:
    """RCPSP-style instance of the ROADMAP performance family."""
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
        name=f"synthetic-{n}-s{seed}",
        kind=InstanceKind.RCPSP,
        tasks=tuple(tasks),
        resources=tuple(Resource(r, int(caps[r])) for r in range(m)),
        precedences=tuple(arcs),
    )


def earliest_starts(n_jobs: int, arcs: Sequence[PrecedenceArc]) -> List[int]:
    """Longest offset path from job 0; arcs must run from lower to higher ids."""
    starts = [0] * n_jobs
    for arc in sorted(arcs, key=lambda a: a.from_task):
        starts[arc.to_task] = max(starts[arc.to_task], starts[arc.from_task] + arc.offset)
    return starts


def peak_usage(durations: Sequence[int], demands: np.ndarray, starts: Sequence[int]) -> np.ndarray:
    """Per-resource peak usage of the schedule with the given start times."""
    horizon = max((s + d for s, d in zip(starts, durations)), default=0)
    usage = np.zeros((horizon + 1, demands.shape[1]), dtype=np.int64)
    for i, (s, d) in enumerate(zip(starts, durations)):
        usage[s:s + d] += demands[i]
    return usage.max(axis=0)


def progen_instance(
    n: int,
    m: int,
    rf: float,
    rs: float,
    seed: int,
    max_demand: int = 10,
    max_duration: int = 10,
    max_lags: bool = False,
    name: str = "",
) -> SchedulingInstance:
    """ProGen-style instance: ``n`` real jobs between dummy jobs 0 and n+1.

    Every real job uses ``max(1, round(rf * m))`` resources.  Each real job
    gets one to three successors among later jobs; jobs left without a
    predecessor hang off the source, jobs without a successor feed the sink.
    With ``max_lags``, forward arcs carry a random nonnegative lag instead of
    the source duration, and some pairs joined by a forward path get a
    maximal lag ``j -> i`` with offset ``-(ES_j - ES_i + slack)``.  Every arc
    then satisfies ``ES_to >= ES_from + offset`` for the forward earliest
    starts ES, so no cycle has positive length.
    """
    rng = np.random.default_rng(seed)
    n_jobs = n + 2
    durations = [0] + [int(rng.integers(1, max_duration + 1)) for _ in range(n)] + [0]
    demands = np.zeros((n_jobs, m), dtype=np.int64)
    used = max(1, min(m, round(rf * m)))
    for i in range(1, n + 1):
        for r in rng.choice(m, size=used, replace=False):
            demands[i, r] = int(rng.integers(1, max_demand + 1))

    succ: List[set] = [set() for _ in range(n_jobs)]
    for i in range(1, n):
        for j in rng.choice(np.arange(i + 1, n + 1), size=min(n - i, int(rng.integers(1, 4))),
                            replace=False):
            succ[i].add(int(j))
    has_pred = {j for s in succ for j in s}
    succ[0] = {i for i in range(1, n + 1) if i not in has_pred}
    for i in range(1, n + 1):
        if not succ[i]:
            succ[i].add(n + 1)

    def offset(i: int) -> int:
        return int(rng.integers(0, durations[i] + 1)) if max_lags and i else durations[i]

    forward = [PrecedenceArc(i, j, offset(i)) for i in range(n_jobs) for j in sorted(succ[i])]
    starts = earliest_starts(n_jobs, forward)
    arcs = list(forward)
    if max_lags:
        for arc in forward:
            i, j = arc.from_task, arc.to_task
            if 0 < i and j <= n and rng.random() < 0.3:
                slack = int(rng.integers(0, 6))
                arcs.append(PrecedenceArc(j, i, -(starts[j] - starts[i] + slack)))
    arcs.sort(key=lambda a: a.from_task)

    k_min = demands.max(axis=0)
    k_max = peak_usage(durations, demands, starts)
    caps = [int(lo + round(rs * (hi - lo))) for lo, hi in zip(k_min, k_max)]
    tasks = tuple(
        Task(id=i, duration=durations[i], demands=tuple(int(d) for d in demands[i]))
        for i in range(n_jobs)
    )
    return SchedulingInstance(
        name=name or f"progen-{n}-s{seed}",
        kind=InstanceKind.RCPSP_MAX if max_lags else InstanceKind.RCPSP,
        tasks=tasks,
        resources=tuple(Resource(r, caps[r]) for r in range(m)),
        precedences=tuple(arcs),
        horizon=None if max_lags else sum(durations),
    )


def write_sm(instance: SchedulingInstance) -> str:
    """PSPLIB single-mode ``.sm`` text; arcs must carry source durations."""
    n_jobs = instance.n_tasks
    m = instance.n_resources
    successors: List[List[int]] = [[] for _ in range(n_jobs)]
    for arc in instance.precedences:
        successors[arc.from_task].append(arc.to_task)
    rule = "*" * 72
    lines = [
        rule,
        f"file with basedata            : {instance.name}.bas",
        rule,
        "projects                      :  1",
        f"jobs (incl. supersource/sink ):  {n_jobs}",
        f"horizon                       :  {instance.horizon or 0}",
        "RESOURCES",
        f"  - renewable                 :  {m}   R",
        "  - nonrenewable              :  0   N",
        "  - doubly constrained        :  0   D",
        rule,
        "PRECEDENCE RELATIONS:",
        "jobnr.    #modes  #successors   successors",
    ]
    for i, succ in enumerate(successors):
        lines.append(f"  {i + 1:>3}        1  {len(succ):>5}     "
                     + " ".join(f"{j + 1:>3}" for j in succ))
    lines += [
        rule,
        "REQUESTS/DURATIONS:",
        "jobnr. mode duration  " + "  ".join(f"R {r + 1}" for r in range(m)),
        "-" * 72,
    ]
    for task in instance.tasks:
        lines.append(f"  {task.id + 1:>3}    1  {task.duration:>3}    "
                     + " ".join(f"{d:>4}" for d in task.demands))
    lines += [
        rule,
        "RESOURCEAVAILABILITIES:",
        "  " + "  ".join(f"R {r + 1}" for r in range(m)),
        "  " + " ".join(f"{res.capacity:>4}" for res in instance.resources),
        rule,
    ]
    return "\n".join(lines) + "\n"


def write_sch(instance: SchedulingInstance) -> str:
    """ProGen/max ``.sch`` text: jobs 0 and n+1 are the dummies."""
    n_jobs = instance.n_tasks
    m = instance.n_resources
    out_arcs: List[List[PrecedenceArc]] = [[] for _ in range(n_jobs)]
    for arc in instance.precedences:
        out_arcs[arc.from_task].append(arc)
    lines = [f"{n_jobs - 2} {m} 0 0"]
    for i, arcs in enumerate(out_arcs):
        lines.append(" ".join(
            [str(i), "1", str(len(arcs))]
            + [str(a.to_task) for a in arcs]
            + [f"[{a.offset}]" for a in arcs]
        ))
    for task in instance.tasks:
        lines.append(" ".join([str(task.id), "1", str(task.duration)]
                              + [str(d) for d in task.demands]))
    lines.append(" ".join(str(res.capacity) for res in instance.resources))
    return "\n".join(lines) + "\n"
