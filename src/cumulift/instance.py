"""Canonical in-memory model of scheduling instances and their linearization.

A :class:`SchedulingInstance` keeps everything a benchmark file says,
including dummy source/sink tasks.  :func:`to_demand_system` projects it
onto the matrix form ``A x <= b`` over the tasks that can actually occupy
a resource (duration > 0, some demand > 0); that is the only view the
cover/lifting machinery ever sees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import InfeasibleTask, MalformedInput, NegativeValue

# Durations, demands, capacities and offsets must stay below this in
# magnitude: the demand system is int64 and sums pairs of values.
VALUE_LIMIT = 2**31


class InstanceKind(str, Enum):
    RCPSP = "RCPSP"
    RCPSP_MAX = "RCPSP_MAX"


@dataclass(frozen=True)
class Task:
    id: int
    duration: int
    demands: Tuple[int, ...]


@dataclass(frozen=True)
class Resource:
    id: int
    capacity: int


@dataclass(frozen=True)
class PrecedenceArc:
    """Difference constraint ``start[to] - start[from] >= offset``.

    For plain RCPSP the offset is the source task's duration; RCPSP/max
    allows arbitrary (also negative) offsets.
    """

    from_task: int
    to_task: int
    offset: int


@dataclass(frozen=True)
class SchedulingInstance:
    name: str
    kind: InstanceKind
    tasks: Tuple[Task, ...]
    resources: Tuple[Resource, ...]
    precedences: Tuple[PrecedenceArc, ...]
    horizon: Optional[int] = None

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    def validate(self) -> None:
        """Raise if the structural invariants do not hold."""
        n_res = self.n_resources
        for task in self.tasks:
            if task.duration < 0:
                raise NegativeValue(f"task {task.id}: negative duration")
            if any(d < 0 for d in task.demands):
                raise NegativeValue(f"task {task.id}: negative demand")
            if len(task.demands) != n_res:
                raise MalformedInput(
                    f"task {task.id}: {len(task.demands)} demands for {n_res} resources"
                )
        for res in self.resources:
            if res.capacity < 0:
                raise NegativeValue(f"resource {res.id}: negative capacity")
        durations = [t.duration for t in self.tasks]
        for arc in self.precedences:
            if arc.from_task == arc.to_task:
                raise MalformedInput(f"self-loop on task {arc.from_task}")
            for t in (arc.from_task, arc.to_task):
                if not 0 <= t < self.n_tasks:
                    raise MalformedInput(f"precedence references unknown task {t}")
            if self.kind is InstanceKind.RCPSP and arc.offset != durations[arc.from_task]:
                raise MalformedInput(
                    f"RCPSP arc {arc.from_task}->{arc.to_task} has offset "
                    f"{arc.offset}, expected the source duration "
                    f"{durations[arc.from_task]}"
                )
        if self.horizon is not None and self.horizon < 0:
            raise NegativeValue("negative horizon")
        values = [v for t in self.tasks for v in (t.duration, *t.demands)]
        values += [r.capacity for r in self.resources] + [a.offset for a in self.precedences]
        for value in values:
            if abs(value) >= VALUE_LIMIT:
                raise MalformedInput(f"value {value} is out of range (magnitude 2**31 or more)")


@dataclass
class DemandSystem:
    """The linearized view ``A x <= b`` shared by all resources.

    Column ``c`` stands for the occupancy indicator of task
    ``task_map[c]`` at an arbitrary time point; one row per resource.
    """

    matrix: np.ndarray  # (m, n) nonnegative ints
    rhs: np.ndarray  # (m,) nonnegative ints
    durations: np.ndarray  # (n,) positive ints
    task_map: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.matrix.shape[1])


def to_demand_system(instance: SchedulingInstance) -> DemandSystem:
    """Project an instance onto its demand system.

    Tasks with zero duration or all-zero demands are dropped: their
    occupancy contribution is identically zero, so they can never join a
    cover and lifting would give them coefficient 0 anyway.  Raises
    :class:`InfeasibleTask` if a retained task alone overloads a resource.
    """
    instance.validate()
    kept = [
        t for t in instance.tasks
        if t.duration > 0 and any(d > 0 for d in t.demands)
    ]
    caps = [r.capacity for r in instance.resources]
    for t in kept:
        for r, demand in enumerate(t.demands):
            if demand > caps[r]:
                raise InfeasibleTask(
                    f"task {t.id} demands {demand} of resource {r} "
                    f"with capacity {caps[r]}"
                )
    matrix = np.array(
        [[t.demands[r] for t in kept] for r in range(instance.n_resources)],
        dtype=np.int64,
    ).reshape(instance.n_resources, len(kept))
    durations = np.array([t.duration for t in kept], dtype=np.int64)
    return DemandSystem(
        matrix=matrix,
        rhs=np.array(caps, dtype=np.int64),
        durations=durations,
        task_map=tuple(t.id for t in kept),
    )


# --- canonical JSON -------------------------------------------------------
#
# The interchange schema of record.  Top-level keys, in order: "name",
# "kind", "horizon", "tasks", "resources", "precedences".  Integers only.

def encode_canonical(instance: SchedulingInstance) -> str:
    """Serialize to the canonical JSON document (UTF-8 text)."""
    doc = {
        "name": instance.name,
        "kind": instance.kind.value,
        "horizon": instance.horizon,
        "tasks": [
            {"duration": t.duration, "demands": list(t.demands)}
            for t in instance.tasks
        ],
        "resources": [{"capacity": r.capacity} for r in instance.resources],
        "precedences": [
            {"from": a.from_task, "to": a.to_task, "offset": a.offset}
            for a in instance.precedences
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(f"{what} must be an integer, got {value!r}")
    return value


def _require_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedInput(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _objects(doc: dict, key: str, what: str) -> list:
    """The array under ``key`` (empty if absent); every entry must be an object."""
    entries = _require_array(doc.get(key, []), repr(key))
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MalformedInput(f"{what} {i} must be a JSON object, got {type(entry).__name__}")
    return entries


def parse_canonical(text: str, name: str = "") -> SchedulingInstance:
    """Parse the canonical JSON document back into an instance."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integer literals over 4300 digits
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("top-level JSON value must be an object")
    try:
        kind = InstanceKind(doc.get("kind", "RCPSP"))
    except ValueError:
        raise MalformedInput(f"unknown kind {doc.get('kind')!r}") from None

    tasks = []
    for i, entry in enumerate(_objects(doc, "tasks", "task")):
        demands = tuple(
            _require_int(d, f"task {i} demand")
            for d in _require_array(entry.get("demands", []), f"task {i} demands")
        )
        tasks.append(
            Task(id=i, duration=_require_int(entry.get("duration"), f"task {i} duration"),
                 demands=demands)
        )
    resources = [
        Resource(id=r, capacity=_require_int(entry.get("capacity"), f"resource {r} capacity"))
        for r, entry in enumerate(_objects(doc, "resources", "resource"))
    ]
    precedences = [
        PrecedenceArc(
            from_task=_require_int(entry.get("from"), "precedence 'from'"),
            to_task=_require_int(entry.get("to"), "precedence 'to'"),
            offset=_require_int(entry.get("offset"), "precedence offset"),
        )
        for entry in _objects(doc, "precedences", "precedence")
    ]
    doc_name = doc.get("name", name)
    if not isinstance(doc_name, str):
        raise MalformedInput(f"'name' must be a string, got {doc_name!r}")
    horizon = doc.get("horizon")
    if horizon is not None:
        horizon = _require_int(horizon, "horizon")
    instance = SchedulingInstance(
        name=doc_name or name,
        kind=kind,
        tasks=tuple(tasks),
        resources=tuple(resources),
        precedences=tuple(precedences),
        horizon=horizon,
    )
    instance.validate()
    return instance
