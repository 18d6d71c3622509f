"""cumulift benchmark: seeded workloads through the public pipeline.

Usage (from the repository root)::

    python3 bench/run.py --workload cover-scan --seed 1 --seconds 25 --trace 0

One process with no extra threads handles one instance after another (a
closed loop with a single client).  The benchmark generates its inputs from
``--seed``; the program sees only the generated instances.  Generation and
the correctness checks run outside the timed region.  The loop runs until
the timed work reaches ``--seconds`` and the workload's quality set (its
first instances) is done; the bound sums are taken over the quality set, so
they repeat exactly for a seed.

Times in the result are normalized to a fixed host speed.  On a shared
2-vCPU virtual machine the same code ran up to 1.5x faster or slower from
one minute to the next, which moved wall-clock figures of one seed by up to
45% between runs.  So right before and right after every timed
section the benchmark times a fixed pure-Python reference loop, and reports
``wall seconds * REF_S / median reference seconds of the run``: seconds on a
host where the reference loop takes ``REF_S``.  (One run-wide median, not a
factor per instance: the host also jitters within a second, so two 10 ms
samples misjudge the speed during a 4 s instance.)  Wall-clock figures are
printed beside them.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
processes the quality set once untraced and once traced, checks that both
emit the same report bytes, and prints per-layer metrics from spans recorded
around the calls into each module (see ``spans.py``); the spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.  Every report is checked
(see ``oracle.py``); a failed check is counted and the run goes on.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Optional

_IMPORT_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _exit_without_result(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "cumulift" / "__init__.py").is_file():
        _exit_without_result(f"{SRC / 'cumulift'} not found; run from a cumulift checkout")
    sys.path.insert(0, str(SRC))
    try:
        import cumulift
    except ImportError as exc:
        _exit_without_result(f"cannot import cumulift from {SRC}: {exc}")
    if Path(cumulift.__file__).resolve().parent != SRC / "cumulift":
        _exit_without_result(f"imported cumulift from {cumulift.__file__}, not from {SRC}")


_import_program()

import numpy as np  # noqa: E402

import cumulift.instance as instance_mod  # noqa: E402
import cumulift.lifting as lifting_mod  # noqa: E402
import cumulift.parsers as parsers_mod  # noqa: E402
import cumulift.polyhedral as polyhedral_mod  # noqa: E402
import cumulift.report as report_mod  # noqa: E402
from cumulift import (  # noqa: E402
    InstanceFormat,
    LiftedInequality,
    LiftingConfig,
    SchedulingInstance,
    VerificationFailed,
)

import instances  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

IMPORT_S = perf_counter() - _IMPORT_START
SETUP_REPEATS = 3
REF_LOOP = 100_000
REF_S = 0.01  # nominal seconds of the reference loop; sets the scale of normalized times
WARMUP = 2**32 - 1  # instance index of the warm-up input


@dataclass
class Item:
    """One benchmark input: the generated instance and, for parsed inputs, its text."""

    instance: SchedulingInstance
    text: Optional[str] = None
    fmt: Optional[InstanceFormat] = None


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop: the current host speed."""
    started = perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return perf_counter() - started


class HostClock:
    """Times a section; takes a reference-loop sample right before and after it."""

    def __enter__(self):
        self.refs = [reference_s()]
        self.started = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self.started
        self.refs.append(reference_s())
        return False


def instance_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class CoverScan:
    """Large ROADMAP ``synthetic_project`` instances, covers of at most 3 tasks.

    Why: about 200 k pair and triple covers per instance, so seeding and
    ranking covers (and their memory) dominate.  It stands in for the 1000-
    and 2000-task cases, which are too long for a run.  The cardinality cap
    (``--max-cover-card 3``) leaves out the long covers, whose lifts took
    0.1 s to 9 s each on these instances (2-vCPU VM) and would swamp the
    covers layer; those lifts are what lift-frontier measures.
    """

    quality_size = 7
    cycle = 1
    config = LiftingConfig(max_cover_cardinality=3)

    def make(self, seed: int, k: int) -> Item:
        s = instance_seed(seed, k)
        return Item(instances.synthetic_project(400, m=5, seed=s))

    def warmup(self, seed: int) -> Item:
        return Item(instances.synthetic_project(60, m=5, seed=instance_seed(seed, WARMUP)))

    def process(self, item: Item) -> str:
        return report_mod.emit_report(lifting_mod.run_pipeline(item.instance, self.config))


class LiftFrontier(CoverScan):
    """ProGen-style instances, RF = 1 and RS = 0.3: few covers, heavy lifts.

    Why: every task uses all four resources and capacities leave room for
    several tasks at once, so an instance has only about two hundred covers
    while its lifts build 4-dimensional Pareto frontiers of hundreds of
    vectors; the lifting and knapsack layers do over 90% of the work.
    """

    quality_size = 100
    config = LiftingConfig()

    def make(self, seed: int, k: int) -> Item:
        return Item(instances.progen_instance(40, 4, rf=1.0, rs=0.3, seed=instance_seed(seed, k)))

    def warmup(self, seed: int) -> Item:
        return Item(instances.progen_instance(20, 4, rf=1.0, rs=0.3, seed=instance_seed(seed, WARMUP)))


SMALL_GRID = [(rf, rs) for rf in (0.25, 0.5, 0.75, 1.0) for rs in (0.2, 0.5, 0.7)]


class SmallBatch:
    """18-task ProGen-style instances over the RF x RS grid, as ``.sm`` and ``.sch`` text.

    Why: each instance is parsed, run with brute-force verification,
    emitted, read back and re-verified (the work of ``cumulift check``), so
    the polyhedral oracle, the parsers, both instance kinds and the report
    write and read paths run on every instance.  The formats alternate and a
    run stops after a whole pair.  All instances have 18 tasks: with mixed
    task counts the 2^n enumeration splits instance times into far-apart
    groups, and the median time jumps with the few instances of one group.
    """

    quality_size = 24
    cycle = 2

    def _item(self, n: int, cell: int, sch: bool, seed: int) -> Item:
        rf, rs = SMALL_GRID[cell % len(SMALL_GRID)]
        name = f"small-{n}-{'sch' if sch else 'sm'}-{seed}"
        inst = instances.progen_instance(n, 4, rf=rf, rs=rs, seed=seed, max_lags=sch, name=name)
        if sch:
            return Item(inst, instances.write_sch(inst), InstanceFormat.PROGEN_MAX_SCH)
        return Item(inst, instances.write_sm(inst), InstanceFormat.PSPLIB_SM)

    def make(self, seed: int, k: int) -> Item:
        return self._item(18, k, k % 2 == 1, instance_seed(seed, k))

    def warmup(self, seed: int) -> Item:
        return self._item(10, 0, seed % 2 == 1, instance_seed(seed, WARMUP))

    def process(self, item: Item) -> str:
        inst = parsers_mod.parse_instance(item.text, item.fmt, name=item.instance.name)
        text = report_mod.emit_report(lifting_mod.run_pipeline(inst, LiftingConfig()))
        recheck(report_mod.parse_report(text), inst)
        return text


def recheck(report, inst) -> None:
    """Re-verify a parsed report against its instance, as ``cumulift check`` does."""
    system = instance_mod.to_demand_system(inst)
    column_of = {task_id: col for col, task_id in enumerate(system.task_map)}
    for idx, constraint in enumerate(report.constraints):
        coeffs = [0] * system.n_cols
        for task_id, usage in constraint.usages:
            coeffs[column_of[task_id]] = usage
        ok, point = polyhedral_mod.check_validity_bruteforce(
            LiftedInequality(tuple(coeffs), constraint.capacity), system)
        if not ok:
            raise VerificationFailed(f"constraint {idx} violated at {point}")


WORKLOADS = {"cover-scan": CoverScan, "lift-frontier": LiftFrontier, "small-batch": SmallBatch}


@dataclass
class Outcome:
    """What one processed instance left behind."""

    seconds: float
    refs: List[float]
    text: Optional[str]
    problems: List[str]


def attempt(process, item: Item, check: bool) -> Outcome:
    """Process one instance (timed), then check its report (untimed)."""
    text = None
    problems = []
    with HostClock() as clock:
        try:
            text = process(item)
        except Exception:  # a failing instance is counted; the run goes on
            problems.append(traceback.format_exc())
    if check and text is not None:
        try:
            problems = oracle.check_report(text, item.instance)
        except Exception:
            problems = [traceback.format_exc()]
    return Outcome(clock.seconds, clock.refs, text, problems)


def report_problems(name: str, outcome: Outcome) -> None:
    for problem in outcome.problems:
        print(f"FAILED {name}: {problem}", file=sys.stderr)


def set_up(workload, seed: int):
    """Generate the quality set and warm up.

    Returns the items, the median wall seconds of a set-up and the
    reference-loop samples taken around each set-up.
    """
    times = []
    refs = []
    for _ in range(SETUP_REPEATS):
        with HostClock() as clock:
            items = [workload.make(seed, k) for k in range(workload.quality_size)]
            workload.process(workload.warmup(seed))
        times.append(clock.seconds)
        refs += clock.refs
    return items, statistics.median(times), refs


def bound_sums(outcomes):
    """searchless_lb, lb gain and best inferred bound, summed over the reports."""
    lb = gain = inferred = 0
    for outcome in outcomes:
        if outcome.problems or outcome.text is None:
            continue
        doc = json.loads(outcome.text)
        lb += doc["searchless_lb"]
        gain += max(0, doc["searchless_lb"] - max(doc["precedence_lb"], doc["row_lb"]))
        inferred += max((c["capacity_lb"] for c in doc["constraints"]), default=0)
    return lb, gain, inferred


def percentile_line(times):
    """The highest of p90/p99/p999 with at least ten samples beyond it, if any."""
    best = None
    for p in (90, 99, 99.9):
        if len(times) * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    cut = statistics.quantiles(times, n=1000, method="inclusive")[int(best * 10) - 1]
    return f"p{best:g}", cut


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(workload, items, seed: int, seconds: float, setup_s: float, refs: List[float]):
    """The timed loop; ``setup_s`` is in wall seconds, ``refs`` holds the set-up's samples."""
    outcomes = []
    timed = 0.0
    k = 0
    while k < len(items) or timed < seconds or k % workload.cycle:
        item = items[k] if k < len(items) else workload.make(seed, k)
        outcome = attempt(workload.process, item, check=True)
        report_problems(item.instance.name, outcome)
        outcomes.append(outcome)
        timed += outcome.seconds
        k += 1
    failed = sum(1 for o in outcomes if o.problems)
    lb, gain, inferred = bound_sums(outcomes[: len(items)])
    wall = [o.seconds for o in outcomes]
    refs = refs + [r for o in outcomes for r in o.refs]
    scale = REF_S / statistics.median(refs)
    times = [t * scale for t in wall]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "instances_per_s": metric((len(outcomes) - failed) / sum(times), "1/s"),
        "instance_s.p50": metric(statistics.median(times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup_s * scale, "s"),
        "searchless_lb_sum": metric(lb, "time"),
        "inferred_lb_sum": metric(inferred, "time"),
    }
    shown = dict(metrics)
    shown["failed_frac"] = metric(failed / len(outcomes), "frac")
    shown["lb_gain_sum"] = metric(gain, "time")
    tail = percentile_line(times)
    if tail:
        shown[f"instance_s.{tail[0]}"] = metric(tail[1], "s")
    shown["wall.instances_per_s"] = metric((len(outcomes) - failed) / timed, "1/s")
    shown["wall.instance_s.p50"] = metric(statistics.median(wall), "s")
    shown["wall.setup_s"] = metric(setup_s, "s")
    print(f"{len(outcomes)} instances in {timed:.3f} s of timed work; times scaled by "
          f"{scale:.4f} to a {REF_S} s reference loop; bound sums over the first {len(items)}")
    for name, entry in shown.items():
        print(f"  {name:<22} {entry['value']:>14.6g} {entry['unit']}")
    return len(outcomes), failed, metrics


# Per-layer metric -> the span whose total seconds (or number of calls) it reports.
SPAN_SECONDS = {
    "parsers.parse_s": "parsers.parse",
    "instance.project_s": "instance.project",
    "covers.seed_s": "covers.seed",
    "covers.select_s": "covers.select",
    "lifting.infer_s": "lifting.infer",
    "knapsack.add_variable_s": "knapsack.add_variable",
    "knapsack.max_value_s": "knapsack.max_value",
    "polyhedral.verify_s": "polyhedral.verify",
    "report.bounds_s": "report.bounds",
    "report.emit_s": "report.emit",
    "report.parse_s": "report.parse",
}
SPAN_CALLS = {
    "parsers.calls": "parsers.parse",
    "knapsack.add_variable_calls": "knapsack.add_variable",
    "knapsack.queries": "knapsack.max_value",
    "polyhedral.verify_calls": "polyhedral.verify",
}
COUNTS = [
    "covers.generated", "covers.selected", "lifting.lifted", "lifting.skipped",
    "lifting.dominated", "lifting.subproblem_calls", "knapsack.memo_hits",
    "polyhedral.points_checked",
]


def layer_metrics(tracer: Tracer, overhead: float):
    """Per-layer metrics, plus the names of spans that recorded no call."""
    totals = tracer.totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    missing = set()
    metrics = {}
    for name, span in SPAN_SECONDS.items():
        entry = totals.get(span, empty)
        if not entry["calls"]:
            missing.add(name)
        metrics[name] = metric(entry["total_s"], "s")
    metrics["lifting.self_s"] = metric(totals.get("lifting.infer", empty)["self_s"], "s")
    if "lifting.infer_s" in missing:
        missing.add("lifting.self_s")
    for name, span in SPAN_CALLS.items():
        metrics[name] = metric(totals.get(span, empty)["calls"], "count")
    for name in COUNTS:
        metrics[name] = metric(tracer.counts[name], "count")
    selected = tracer.counts["lifting.selected"]
    queries = metrics["knapsack.queries"]["value"]
    metrics["lifting.skip_ratio"] = metric(
        tracer.counts["lifting.skipped"] / selected if selected else 0.0, "ratio")
    metrics["knapsack.memo_hit_ratio"] = metric(
        tracer.counts["knapsack.memo_hits"] / queries if queries else 0.0, "ratio")
    metrics["trace.overhead_frac"] = metric(overhead, "frac")
    return metrics, missing, totals.get("instance", empty)["total_s"]


def run_traced(workload, items, spans_path: Path):
    """Each instance once untraced (and checked), then once traced."""
    tracer = Tracer()

    def traced_process(item):
        with tracer.span("instance"):
            return workload.process(item)

    untraced_s = traced_s = 0.0
    failed = 0
    for k, item in enumerate(items):
        plain = attempt(workload.process, item, check=True)
        tracer.instance = k
        tracer.install()
        try:
            traced = attempt(traced_process, item, check=False)
        finally:
            tracer.uninstall()
        if plain.text != traced.text and not traced.problems:
            traced.problems.append("traced run emitted different report bytes")
        report_problems(item.instance.name, plain)
        report_problems(item.instance.name, traced)
        failed += bool(plain.problems or traced.problems)
        untraced_s += plain.seconds
        traced_s += traced.seconds
    overhead = traced_s / untraced_s - 1
    metrics, missing, instance_s = layer_metrics(tracer, overhead)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    print(f"{len(items)} instances, untraced {untraced_s:.3f} s, traced {instance_s:.3f} s; "
          f"share = layer seconds / traced instance seconds")
    for name, entry in metrics.items():
        if name in missing:
            print(f"  {name:<28} {'missing':>14}")
        elif entry["unit"] == "s":
            print(f"  {name:<28} {entry['value']:>14.6g} s   share {entry['value'] / instance_s:6.1%}")
        else:
            print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    return len(items), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    workload = WORKLOADS[args.workload]()
    items, setup_reps_s, refs = set_up(workload, args.seed)
    setup_s = IMPORT_S + setup_reps_s
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  wall setup {setup_s:.3f} s (import {IMPORT_S:.3f} s)")
    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        attempted, failed, metrics = run_traced(workload, items, spans_path)
    else:
        attempted, failed, metrics = run_plain(workload, items, args.seed, args.seconds,
                                               setup_s, refs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
