"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` replaces public functions of the ``cumulift`` modules with
wrappers that record one span per call: name, start, end, the index of the
enclosing span and the id of the instance being processed.  Spans stay in
memory until the run ends.  Counters are taken at the same boundaries from
the arguments and results.  The wrappers change no argument and no result,
so traced and untraced runs must emit the same report bytes.

Self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

import cumulift.instance as instance_mod
import cumulift.knapsack as knapsack_mod
import cumulift.lifting as lifting_mod
import cumulift.parsers as parsers_mod
import cumulift.polyhedral as polyhedral_mod
import cumulift.report as report_mod

CountFn = Callable[[Counter, tuple, object], None]


def _count_covers(key: str) -> CountFn:
    def count(counts, args, result):
        counts[key] += len(result)
    return count


def _count_inference(counts, args, result):
    stats = result[1]
    counts["lifting.lifted"] += stats.constraints_lifted
    counts["lifting.skipped"] += stats.covers_skipped
    counts["lifting.dominated"] += stats.covers_dominated
    counts["lifting.selected"] += stats.covers_selected
    counts["lifting.subproblem_calls"] += stats.subproblem_calls


def _count_query(counts, args, result):
    counts["knapsack.memo_hits"] += not result[1]


def _count_points(counts, args, result):
    counts["polyhedral.points_checked"] += 1 << len(args[0].coeffs)


# (module or class, attribute, span name, counter).  The same function is
# wrapped where the pipeline looks it up and where the benchmark does.
BOUNDARIES = [
    (parsers_mod, "parse_instance", "parsers.parse", None),
    (lifting_mod, "run_pipeline", "pipeline", None),
    (lifting_mod, "to_demand_system", "instance.project", None),
    (instance_mod, "to_demand_system", "instance.project", None),
    (lifting_mod, "seed_covers", "covers.seed", _count_covers("covers.generated")),
    (lifting_mod, "select_top_covers", "covers.select", _count_covers("covers.selected")),
    (lifting_mod, "infer_constraints", "lifting.infer", _count_inference),
    (knapsack_mod.IncrementalLiftSolver, "add_variable", "knapsack.add_variable", None),
    (knapsack_mod.IncrementalLiftSolver, "max_value", "knapsack.max_value", _count_query),
    (lifting_mod, "check_validity_bruteforce", "polyhedral.verify", _count_points),
    (polyhedral_mod, "check_validity_bruteforce", "polyhedral.verify", _count_points),
    (lifting_mod, "compute_searchless_lb", "report.bounds", None),
    (lifting_mod, "precedence_path_lb", "report.bounds", None),
    (lifting_mod, "row_capacity_lb", "report.bounds", None),
    (report_mod, "emit_report", "report.emit", None),
    (report_mod, "parse_report", "report.parse", None),
]


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, instance id]
        self.counts: Counter = Counter()
        self.instance: Optional[int] = None
        self._open: List[int] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, 0.0, 0.0, parent, self.instance])
        self._open.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def _wrap(self, original, name: str, count: Optional[CountFn]):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(index)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, count in BOUNDARIES:
            original = owner.__dict__.get(attr)
            if original is None:
                continue  # the function is gone: its span reads as missing
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[index]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
