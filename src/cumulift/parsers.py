"""Import parsers for the supported benchmark text formats.

All three benchmark formats are import-only; the canonical JSON schema in
:mod:`cumulift.instance` is the interchange format of record.  Dummy
source/sink tasks are kept in the parsed instance (the projection drops
them later).
"""

from __future__ import annotations

import re
import warnings
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .errors import InconsistentCounts, MalformedInput, NegativeValue
from .instance import (
    InstanceKind,
    PrecedenceArc,
    Resource,
    SchedulingInstance,
    Task,
    parse_canonical,
)


class InstanceFormat(str, Enum):
    PSPLIB_SM = "psplib-sm"
    PROGEN_MAX_SCH = "progen-sch"
    PATTERSON_RCP = "patterson-rcp"
    CANONICAL_JSON = "canonical-json"


_EXTENSIONS = {
    ".sm": InstanceFormat.PSPLIB_SM,
    ".sch": InstanceFormat.PROGEN_MAX_SCH,
    ".rcp": InstanceFormat.PATTERSON_RCP,
    ".json": InstanceFormat.CANONICAL_JSON,
}


def detect_format(filename: str) -> Optional[InstanceFormat]:
    """Guess the format from a file name extension, or None."""
    name = filename.lower()
    for ext, fmt in _EXTENSIONS.items():
        if name.endswith(ext):
            return fmt
    return None


def parse_instance(text: str, fmt: InstanceFormat, name: str = "") -> SchedulingInstance:
    """Parse a complete instance document in the named format."""
    if fmt is InstanceFormat.CANONICAL_JSON:
        return parse_canonical(text, name=name)
    if fmt is InstanceFormat.PSPLIB_SM:
        return _parse_psplib_sm(text, name)
    if fmt is InstanceFormat.PROGEN_MAX_SCH:
        return _parse_progen_sch(text, name)
    if fmt is InstanceFormat.PATTERSON_RCP:
        return _parse_patterson_rcp(text, name)
    raise ValueError(f"unknown format {fmt!r}")


def _int(raw: str, what: str, line: Optional[int] = None) -> int:
    """int(raw), with Python's 4300-digit conversion limit mapped to MalformedInput."""
    try:
        return int(raw)
    except ValueError:
        raise MalformedInput(f"unreadable {what} {raw[:20]!r}", line=line) from None


def _nonneg(value: int, what: str, line: Optional[int] = None) -> int:
    if value < 0:
        raise NegativeValue(f"{what} is negative ({value})", line=line)
    return value


# --- PSPLIB single-mode .sm -------------------------------------------------

def _header_int(lines: Sequence[str], keyword: str) -> Tuple[int, int]:
    """Last integer on the first header line containing ``keyword`` and a colon."""
    for idx, line in enumerate(lines):
        if keyword in line.lower() and ":" in line:
            numbers = re.findall(r"-?\d+", line.split(":", 1)[1])
            if numbers:
                return _int(numbers[0], keyword, idx + 1), idx
    raise MalformedInput(f"missing header field {keyword!r}")


def _section_start(lines: Sequence[str], keyword: str) -> int:
    for idx, line in enumerate(lines):
        if keyword in line.upper():
            return idx
    raise MalformedInput(f"missing section {keyword!r}")


def _parse_psplib_sm(text: str, name: str) -> SchedulingInstance:
    lines = text.splitlines()
    n_jobs, _ = _header_int(lines, "jobs")
    horizon, _ = _header_int(lines, "horizon")
    n_res, _ = _header_int(lines, "renewable")
    if n_jobs <= 0:
        raise MalformedInput("job count must be positive")
    if n_jobs > len(lines):
        raise InconsistentCounts(f"{n_jobs} jobs declared in a file of {len(lines)} lines")
    _nonneg(horizon, "horizon")
    _nonneg(n_res, "renewable resource count")

    successors: List[List[int]] = [[] for _ in range(n_jobs)]
    seen_prec = 0
    idx = _section_start(lines, "PRECEDENCE RELATIONS") + 2  # header + column row
    while idx < len(lines):
        stripped = lines[idx].strip()
        if stripped.startswith("*"):
            break
        if stripped:
            parts = stripped.split()
            try:
                job = int(parts[0]) - 1
                n_modes = int(parts[1])
                n_succ = int(parts[2])
                succ = [int(p) - 1 for p in parts[3:3 + n_succ]]
            except (ValueError, IndexError):
                raise MalformedInput("unreadable precedence row", line=idx + 1) from None
            if n_modes != 1:
                raise MalformedInput("multi-mode instances are not supported", line=idx + 1)
            if len(succ) != n_succ:
                raise InconsistentCounts(
                    f"job {job + 1} declares {n_succ} successors, row has {len(succ)}",
                    line=idx + 1,
                )
            if not 0 <= job < n_jobs:
                raise InconsistentCounts(f"job number {job + 1} out of range", line=idx + 1)
            successors[job] = succ
            seen_prec += 1
        idx += 1
    if seen_prec != n_jobs:
        raise InconsistentCounts(
            f"{seen_prec} precedence rows for {n_jobs} declared jobs"
        )

    durations = [0] * n_jobs
    demands: List[Tuple[int, ...]] = [()] * n_jobs
    seen_req = 0
    idx = _section_start(lines, "REQUESTS/DURATIONS") + 2  # header + column row
    while idx < len(lines):
        stripped = lines[idx].strip()
        if stripped.startswith("*"):
            break
        if stripped and not stripped.startswith("-"):
            parts = stripped.split()
            try:
                job = int(parts[0]) - 1
                duration = int(parts[2])
                job_demands = tuple(int(p) for p in parts[3:3 + n_res])
            except (ValueError, IndexError):
                raise MalformedInput("unreadable request row", line=idx + 1) from None
            if len(job_demands) != n_res:
                raise InconsistentCounts(
                    f"job {job + 1} lists {len(job_demands)} demands for {n_res} resources",
                    line=idx + 1,
                )
            if not 0 <= job < n_jobs:
                raise InconsistentCounts(f"job number {job + 1} out of range", line=idx + 1)
            durations[job] = _nonneg(duration, f"job {job + 1} duration", idx + 1)
            for d in job_demands:
                _nonneg(d, f"job {job + 1} demand", idx + 1)
            demands[job] = job_demands
            seen_req += 1
        idx += 1
    if seen_req != n_jobs:
        raise InconsistentCounts(f"{seen_req} request rows for {n_jobs} declared jobs")

    idx = _section_start(lines, "RESOURCEAVAILABILITIES") + 1
    capacities: List[int] = []
    while idx < len(lines):
        stripped = lines[idx].strip()
        idx += 1
        if not stripped or stripped.startswith("*"):
            continue
        parts = stripped.split()
        if all(re.fullmatch(r"-?\d+", p) for p in parts):
            capacities = [_int(p, "capacity", idx) for p in parts]
            break
    if len(capacities) != n_res:
        raise InconsistentCounts(
            f"{len(capacities)} capacities for {n_res} renewable resources"
        )
    for c in capacities:
        _nonneg(c, "capacity")

    trailing = [l for l in lines[idx:] if l.strip() and not l.strip().startswith("*")]
    if trailing:
        warnings.warn(
            f"ignoring {len(trailing)} trailing line(s) after RESOURCEAVAILABILITIES",
            stacklevel=3,
        )

    tasks = tuple(
        Task(id=i, duration=durations[i], demands=demands[i]) for i in range(n_jobs)
    )
    arcs = tuple(
        PrecedenceArc(from_task=i, to_task=j, offset=durations[i])
        for i in range(n_jobs)
        for j in successors[i]
    )
    instance = SchedulingInstance(
        name=name,
        kind=InstanceKind.RCPSP,
        tasks=tasks,
        resources=tuple(Resource(id=r, capacity=capacities[r]) for r in range(n_res)),
        precedences=arcs,
        horizon=horizon,
    )
    instance.validate()
    return instance


# --- ProGen/max .sch (RCPSP/max) ---------------------------------------------
#
# Whitespace-separated integers; arc weights may be wrapped in brackets.
# Layout: "n R 0 0", then n+2 precedence rows (id, mode, #succ, successor
# ids, one offset per successor), then n+2 request rows (id, mode,
# duration, R demands), then the R capacities.  Jobs 0 and n+1 are dummies.

class _Tokens:
    def __init__(self, text: str):
        self.items: List[Tuple[int, int]] = []  # (value, line number)
        for lineno, line in enumerate(text.splitlines(), start=1):
            for raw in line.replace("[", " ").replace("]", " ").split():
                try:
                    self.items.append((int(raw), lineno))
                except ValueError:
                    raise MalformedInput(f"expected an integer, got {raw!r}", line=lineno) from None
        self.pos = 0

    def take(self, what: str) -> Tuple[int, int]:
        if self.pos >= len(self.items):
            last = self.items[-1][1] if self.items else None
            raise MalformedInput(f"unexpected end of file while reading {what}", line=last)
        value = self.items[self.pos]
        self.pos += 1
        return value

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _parse_progen_sch(text: str, name: str) -> SchedulingInstance:
    tokens = _Tokens(text)
    n_real, _ = tokens.take("job count")
    n_res, _ = tokens.take("resource count")
    n_nonrenew, line = tokens.take("non-renewable count")
    n_doubly, line2 = tokens.take("doubly-constrained count")
    if n_real < 0 or n_res < 0:
        raise NegativeValue("negative count in header")
    if n_nonrenew or n_doubly:
        raise MalformedInput("non-renewable resources are not supported", line=line)
    n_jobs = n_real + 2

    arcs_raw: List[Tuple[int, int, int]] = []
    for expected in range(n_jobs):
        job, line = tokens.take("job id")
        if job != expected:
            raise InconsistentCounts(
                f"precedence rows out of order: expected job {expected}, got {job}",
                line=line,
            )
        mode, line = tokens.take("mode count")
        if mode != 1:
            raise MalformedInput("multi-mode instances are not supported", line=line)
        n_succ, _ = tokens.take("successor count")
        succ = [tokens.take("successor id")[0] for _ in range(n_succ)]
        for s in succ:
            if not 0 <= s < n_jobs:
                raise InconsistentCounts(f"successor {s} out of range", line=line)
        offsets = [tokens.take("arc offset")[0] for _ in range(n_succ)]
        arcs_raw.extend((job, s, w) for s, w in zip(succ, offsets))

    durations = [0] * n_jobs
    demands: List[Tuple[int, ...]] = [()] * n_jobs
    for expected in range(n_jobs):
        job, line = tokens.take("job id")
        if job != expected:
            raise InconsistentCounts(
                f"request rows out of order: expected job {expected}, got {job}",
                line=line,
            )
        mode, line = tokens.take("mode id")
        if mode != 1:
            raise MalformedInput("multi-mode instances are not supported", line=line)
        duration, line = tokens.take("duration")
        durations[job] = _nonneg(duration, f"job {job} duration", line)
        row = []
        for r in range(n_res):
            demand, line = tokens.take("demand")
            row.append(_nonneg(demand, f"job {job} demand on resource {r}", line))
        demands[job] = tuple(row)

    capacities = []
    for r in range(n_res):
        cap, line = tokens.take("capacity")
        capacities.append(_nonneg(cap, f"resource {r} capacity", line))
    if not tokens.exhausted:
        value, line = tokens.take("trailing data")
        warnings.warn(f"ignoring trailing data starting at line {line}", stacklevel=3)

    instance = SchedulingInstance(
        name=name,
        kind=InstanceKind.RCPSP_MAX,
        tasks=tuple(Task(id=i, duration=durations[i], demands=demands[i]) for i in range(n_jobs)),
        resources=tuple(Resource(id=r, capacity=capacities[r]) for r in range(n_res)),
        precedences=tuple(PrecedenceArc(f, t, w) for f, t, w in arcs_raw),
        horizon=None,
    )
    instance.validate()
    return instance


# --- Patterson .rcp -----------------------------------------------------------
#
# "n R", the R capacities, then one row per job: duration, R demands,
# successor count, 1-based successor ids.  First and last jobs are dummies.

def _parse_patterson_rcp(text: str, name: str) -> SchedulingInstance:
    tokens = _Tokens(text)
    n_jobs, _ = tokens.take("job count")
    n_res, _ = tokens.take("resource count")
    if n_jobs <= 0 or n_res < 0:
        raise MalformedInput("bad job/resource counts in header")
    if n_jobs > len(tokens.items):
        raise InconsistentCounts(f"{n_jobs} jobs declared in a file of {len(tokens.items)} numbers")
    capacities = []
    for r in range(n_res):
        cap, line = tokens.take("capacity")
        capacities.append(_nonneg(cap, f"resource {r} capacity", line))

    durations = [0] * n_jobs
    demands: List[Tuple[int, ...]] = [()] * n_jobs
    successors: List[List[int]] = [[] for _ in range(n_jobs)]
    for job in range(n_jobs):
        duration, line = tokens.take("duration")
        durations[job] = _nonneg(duration, f"job {job + 1} duration", line)
        row = []
        for r in range(n_res):
            demand, line = tokens.take("demand")
            row.append(_nonneg(demand, f"job {job + 1} demand on resource {r}", line))
        demands[job] = tuple(row)
        n_succ, line = tokens.take("successor count")
        if n_succ < 0:
            raise NegativeValue("negative successor count", line=line)
        for _ in range(n_succ):
            succ, line = tokens.take("successor id")
            if not 1 <= succ <= n_jobs:
                raise InconsistentCounts(f"successor {succ} out of range", line=line)
            successors[job].append(succ - 1)
    if not tokens.exhausted:
        _, line = tokens.take("trailing data")
        warnings.warn(f"ignoring trailing data starting at line {line}", stacklevel=3)

    instance = SchedulingInstance(
        name=name,
        kind=InstanceKind.RCPSP,
        tasks=tuple(Task(id=i, duration=durations[i], demands=demands[i]) for i in range(n_jobs)),
        resources=tuple(Resource(id=r, capacity=capacities[r]) for r in range(n_res)),
        precedences=tuple(
            PrecedenceArc(from_task=i, to_task=j, offset=durations[i])
            for i in range(n_jobs)
            for j in successors[i]
        ),
        horizon=None,
    )
    instance.validate()
    return instance
