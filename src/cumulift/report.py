"""Inference reports: lower bounds, serialization, model fragments, graphs.

The JSON form is the schema of record and is deterministic: no floats, no
timestamps, fixed key order.  Wall-clock timing therefore never enters a
report; the CLI prints it to stderr instead.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import MalformedInput, PositiveCycle
from .instance import VALUE_LIMIT, DemandSystem, SchedulingInstance
from .polyhedral import LiftedInequality, capacity_lb

REPORT_SCHEMA = "cumulift-report/1"


class ReportFormat(str, Enum):
    JSON = "json"
    TEXT = "text"


@dataclass
class ReportConstraint:
    """One inferred inequality, mapped back to original task ids."""

    usages: Tuple[Tuple[int, int], ...]  # (task id, usage), sparse, ascending
    capacity: int
    bound: Fraction
    bound_int: int
    source_cover: Tuple[int, ...]  # original task ids
    rule: str
    verified: Optional[bool] = None


@dataclass
class InferenceReport:
    instance_name: str
    config: Dict[str, object]
    task_map: Tuple[int, ...]
    constraints: List[ReportConstraint]
    searchless_lb: int
    certificate: Optional[Tuple[str, int]]  # ("inferred"|"row", index)
    precedence_lb: int
    row_lb: int
    infeasible_tasks: Tuple[int, ...]
    stats: Dict[str, object] = field(default_factory=dict)


def compute_searchless_lb(
    system: DemandSystem, inferred: Sequence[LiftedInequality]
) -> Tuple[int, Optional[Tuple[str, int]]]:
    """Best capacity lower bound over inferred constraints and original rows.

    Ties go to the inferred side; the certificate names the maximizer so the
    bound can be recomputed from it.  Returns (0, None) when there is
    nothing to take a maximum over.
    """
    durations = system.durations
    best: Optional[int] = None
    certificate: Optional[Tuple[str, int]] = None
    for idx, ineq in enumerate(inferred):
        if ineq.rhs == 0:
            continue
        value = capacity_lb(ineq, durations)
        if best is None or value > best:
            best, certificate = value, ("inferred", idx)
    for r in range(system.n_rows):
        rhs = int(system.rhs[r])
        if rhs == 0:
            continue
        row = LiftedInequality(tuple(int(a) for a in system.matrix[r]), rhs)
        value = capacity_lb(row, durations)
        if best is None or value > best:
            best, certificate = value, ("row", r)
    if best is None:
        return 0, None
    return best, certificate


def precedence_path_lb(instance: SchedulingInstance) -> int:
    """Longest accumulated offset reachable in the precedence digraph.

    All start times are nonnegative, so the largest offset-path value is a
    lower bound on some start time; with the usual dummy-sink convention it
    is the classical critical-path bound.  Bellman-Ford over negated
    offsets; a relaxation still possible after n rounds means a positive
    cycle, i.e. temporal infeasibility.
    """
    n = instance.n_tasks
    edges = [(a.from_task, a.to_task, a.offset) for a in instance.precedences]
    dist = [0] * n
    for round_no in range(n + 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w > dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
        if round_no == n:
            raise PositiveCycle("precedence cycle with positive total offset")
    return max(dist, default=0)


# --- serialization ----------------------------------------------------------

def _constraint_to_obj(c: ReportConstraint) -> Dict[str, object]:
    return {
        "usages": [[t, u] for t, u in c.usages],
        "capacity": c.capacity,
        "capacity_bound": str(c.bound),
        "capacity_lb": c.bound_int,
        "source_cover": list(c.source_cover),
        "rule": c.rule,
        "verified": c.verified,
    }


def emit_report(report: InferenceReport, fmt: ReportFormat = ReportFormat.JSON) -> str:
    if fmt is ReportFormat.JSON:
        doc = {
            "schema": REPORT_SCHEMA,
            "instance": report.instance_name,
            "config": report.config,
            "task_map": list(report.task_map),
            "constraints": [_constraint_to_obj(c) for c in report.constraints],
            "searchless_lb": report.searchless_lb,
            "searchless_certificate": (
                None
                if report.certificate is None
                else {"kind": report.certificate[0], "index": report.certificate[1]}
            ),
            "precedence_lb": report.precedence_lb,
            "row_lb": report.row_lb,
            "infeasible_tasks": list(report.infeasible_tasks),
            "stats": report.stats,
        }
        return json.dumps(doc, indent=2) + "\n"
    return _emit_text(report)


def _instance_number(name: str) -> str:
    match = re.search(r"(\d+)\D*$", name)
    return match.group(1) if match else "-"


def _emit_text(report: InferenceReport) -> str:
    ref_bound = max(report.precedence_lb, report.row_lb)
    new_bound = max(ref_bound, report.searchless_lb)
    if report.certificate and report.certificate[0] == "inferred":
        cert_capacity = str(report.constraints[report.certificate[1]].capacity)
    else:
        cert_capacity = "-"
    lines = [
        f"instance: {report.instance_name}",
        "",
        f"{'Collection':<20} {'#':>4}  {'Ref. bound':>10}  {'New bound':>9}  {'Capacity':>8}",
        f"{report.instance_name or '-':<20} {_instance_number(report.instance_name):>4}  "
        f"{ref_bound:>10}  {new_bound:>9}  {cert_capacity:>8}",
        "",
        f"search-less lower bound: {report.searchless_lb}"
        + (
            f"  (certificate: {report.certificate[0]} #{report.certificate[1]})"
            if report.certificate
            else ""
        ),
        f"precedence-path lower bound: {report.precedence_lb}",
        f"original-row lower bound: {report.row_lb}",
        "",
        f"inferred constraints ({len(report.constraints)}):",
    ]
    for idx, c in enumerate(report.constraints):
        usage_text = " ".join(f"{u}@t{t}" for t, u in c.usages)
        verified = {True: "yes", False: "NO", None: "skipped"}[c.verified]
        lines.append(
            f"  [{idx}] capacity {c.capacity}  bound {c.bound} -> {c.bound_int}  "
            f"rule {c.rule}  cover {list(c.source_cover)}  verified {verified}"
        )
        lines.append(f"      {usage_text}")
    if report.infeasible_tasks:
        lines.append(f"tasks that can never run: {list(report.infeasible_tasks)}")
    lines.append("")
    lines.append("stats: " + json.dumps(report.stats))
    return "\n".join(lines) + "\n"


def _report_value(value) -> int:
    """A usage or capacity read back from a report: an integer in 0..2**31-1."""
    value = int(value)
    if not 0 <= value < VALUE_LIMIT:
        raise MalformedInput(f"report usage or capacity {value} is outside 0..2**31-1")
    return value


def parse_report(text: str) -> InferenceReport:
    """Parse a JSON report back; inverse of emit_report(..., JSON)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integer literals over 4300 digits
        raise MalformedInput(f"invalid report JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("a report must be a JSON object")
    if doc.get("schema") != REPORT_SCHEMA:
        raise MalformedInput(f"unknown report schema {doc.get('schema')!r}")
    try:
        constraints = [
            ReportConstraint(
                usages=tuple((int(t), _report_value(u)) for t, u in entry["usages"]),
                capacity=_report_value(entry["capacity"]),
                bound=Fraction(entry["capacity_bound"]),
                bound_int=int(entry["capacity_lb"]),
                source_cover=tuple(int(t) for t in entry["source_cover"]),
                rule=str(entry["rule"]),
                verified=entry.get("verified"),
            )
            for entry in doc.get("constraints", [])
        ]
        cert = doc.get("searchless_certificate")
        return InferenceReport(
            instance_name=doc.get("instance", ""),
            config=doc.get("config", {}),
            task_map=tuple(int(t) for t in doc.get("task_map", [])),
            constraints=constraints,
            searchless_lb=int(doc["searchless_lb"]),
            certificate=None if cert is None else (str(cert["kind"]), int(cert["index"])),
            precedence_lb=int(doc.get("precedence_lb", 0)),
            row_lb=int(doc.get("row_lb", 0)),
            infeasible_tasks=tuple(int(t) for t in doc.get("infeasible_tasks", [])),
            stats=doc.get("stats", {}),
        )
    except KeyError as exc:
        raise MalformedInput(f"report field {exc} is missing") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedInput(f"malformed report: {exc}") from exc


# --- model fragments and graphs ---------------------------------------------

def _fragment_line(durations: Sequence[int], usages: Sequence[int], capacity: int) -> str:
    dur = ", ".join(str(int(d)) for d in durations)
    usage = ", ".join(str(int(u)) for u in usages)
    return f"constraint cumulative(start, [{dur}], [{usage}], {capacity});"


def fragment_from_report(instance: SchedulingInstance, report: InferenceReport) -> str:
    """Rebuild the model fragment from a parsed report's sparse usages."""
    durations = [t.duration for t in instance.tasks]
    lines = []
    for c in report.constraints:
        usages = [0] * instance.n_tasks
        for task_id, usage in c.usages:
            if not 0 <= task_id < instance.n_tasks:
                raise MalformedInput(f"report references unknown task {task_id}")
            usages[task_id] = usage
        lines.append(_fragment_line(durations, usages, c.capacity))
    return "\n".join(lines) + ("\n" if lines else "")


def export_parallelism_graph(system: DemandSystem) -> str:
    """DOT graph of task pairs that may overlap in time.

    An edge joins two columns iff their joint demand fits within every
    row's capacity; the complement would be the pairwise-disjointness
    graph.  Vertex labels carry the task duration.
    """
    n = system.n_cols
    lines = ["graph parallelism {"]
    for col in range(n):
        task = system.task_map[col]
        lines.append(f'  t{task} [label="t{task} d={int(system.durations[col])}"];')
    if n >= 2:
        joint_ok = np.ones((n, n), dtype=bool)
        for r in range(system.n_rows):
            a = system.matrix[r]
            joint_ok &= (a[:, None] + a[None, :]) <= int(system.rhs[r])
        for i in range(n):
            for j in range(i + 1, n):
                if joint_ok[i, j]:
                    lines.append(f"  t{system.task_map[i]} -- t{system.task_map[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
