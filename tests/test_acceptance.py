"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen.  Criterion 6 needs the public UBO200 benchmark file for
instance #4 and is skipped when it is not available (see README).
"""

import glob
import hashlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cumulift.cli import cli_main
from cumulift.covers import seed_covers, select_top_covers
from cumulift.fixtures import FIXTURE_SM
from cumulift.lifting import LiftingConfig, infer_constraints, lift_cover, run_pipeline
from cumulift.parsers import InstanceFormat, parse_instance
from cumulift.polyhedral import Cover, capacity_lb, check_validity_bruteforce
from cumulift.report import emit_report

from conftest import (
    enumerate_feasible_starts,
    frontier_max,
    make_system,
    random_system,
    schedule_satisfies,
    synthetic_project,
)


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    else:
        print(f"[PASS] {label}")


def test_criterion_1_running_example_reproduction(knapsack_system):
    with verdict("criterion 1: lifting cover {2,3,4} on (5,3,2,4;7) gives (1,1,1,1;2)"):
        cover = Cover(members=(1, 2, 3), source_row=0)
        lift_cover(cover, knapsack_system)  # warm-up
        started = time.perf_counter()
        inequality = lift_cover(cover, knapsack_system)
        elapsed = time.perf_counter() - started
        assert inequality.coeffs == (1, 1, 1, 1)
        assert inequality.rhs == 2
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def _oracle_max(weights, rows, rhs):
    if any(r < 0 for r in rhs):
        return None
    p = len(weights)
    codes = np.arange(1 << p, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(p, dtype=np.uint32)) & 1).astype(np.int64)
    feasible = np.ones(len(codes), dtype=bool)
    for j, row in enumerate(rows):
        feasible &= bits @ np.asarray(row, dtype=np.int64) <= rhs[j]
    values = bits @ np.asarray(weights, dtype=np.int64)
    return int(values[feasible].max())


def test_criterion_2_subproblem_oracle_equivalence():
    with verdict("criterion 2: 1000 random subproblems match full enumeration"):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for _ in range(1000):
            p = int(rng.integers(1, 19))
            m = int(rng.integers(1, 5))
            weights = tuple(int(rng.integers(0, 11)) for _ in range(p))
            rows = tuple(
                tuple(int(rng.integers(0, 51)) for _ in range(p)) for _ in range(m)
            )
            rhs = tuple(int(rng.integers(-5, 76)) for _ in range(m))
            expected = _oracle_max(weights, rows, rhs)
            assert frontier_max(weights, rows, rhs) == expected, (weights, rows, rhs)
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_criterion_3_validity_property_suite():
    with verdict("criterion 3: inferred constraints on 1000 random systems all pass "
                 "the brute-force oracle"):
        rng = np.random.default_rng(3030)
        config = LiftingConfig(bruteforce_verify=False)
        for _ in range(1000):
            system = random_system(rng, max_cols=14, max_rows=3, max_rhs=9)
            selected = select_top_covers(seed_covers(system), system.durations, 100)
            kept, _ = infer_constraints(system, selected, config)
            for constraint in kept:
                ok, point = check_validity_bruteforce(constraint.inequality, system)
                assert ok, (constraint.inequality, point, system.matrix, system.rhs)


def test_criterion_4_schedule_level_guarantees():
    with verdict("criterion 4: on enumerated schedules every inferred constraint "
                 "holds and its support spans at least its capacity bound"):
        rng = np.random.default_rng(4040)
        horizon = 8
        instances = 0
        while instances < 40:
            system = random_system(rng, max_cols=5, max_rows=2, max_rhs=6,
                                   max_duration=4)
            selected = select_top_covers(seed_covers(system), system.durations, 100)
            kept, _ = infer_constraints(
                system, selected, LiftingConfig(bruteforce_verify=False)
            )
            if not kept:
                continue
            feasible = enumerate_feasible_starts(system, horizon)
            if not len(feasible):
                # Tight instances may admit no schedule inside the start
                # grid; the guarantees are vacuous there.
                continue
            instances += 1
            durations = np.asarray(system.durations)
            for constraint in kept:
                coeffs = np.asarray(constraint.inequality.coeffs)
                rhs = constraint.inequality.rhs
                holds = schedule_satisfies(feasible, coeffs, rhs, durations, horizon)
                assert holds.all(), "a feasible schedule violates an inferred constraint"
                support = np.flatnonzero(coeffs)
                bound = capacity_lb(constraint.inequality, system.durations)
                starts = feasible[:, support]
                finishes = starts + durations[support]
                spans = finishes.max(axis=1) - starts.min(axis=1)
                assert (spans >= bound).all(), "support span below the capacity bound"


def test_criterion_5_skip_structure_saves_all_calls():
    with verdict("criterion 5: after one disjunctive lift over 10 columns, the other "
                 "44 pair covers cost zero subproblem calls"):
        system = make_system([[1] * 10], [1], [3] * 10)
        selected = select_top_covers(seed_covers(system), system.durations, 100)
        assert len(selected) == 45  # all pairs
        kept, stats = infer_constraints(system, selected, LiftingConfig())
        assert stats.constraints_lifted == 1
        assert stats.subproblem_calls == 8  # lifting the first pair only
        assert stats.covers_skipped == 44


def _find_ubo200_4():
    explicit = os.environ.get("CUMULIFT_UBO200_4")
    if explicit and os.path.exists(explicit):
        return explicit
    roots = [
        os.environ.get("CUMULIFT_DATA"),
        os.path.join(os.path.dirname(__file__), "data"),
    ]
    for root in roots:
        if not root or not os.path.isdir(root):
            continue
        for pattern in ("**/psp4.sch", "**/PSP4.SCH", "**/*ubo200*4.sch",
                        "**/UBO200*4.SCH"):
            for hit in glob.glob(os.path.join(root, pattern), recursive=True):
                if "ubo200" in hit.lower() or os.path.basename(hit).lower() == "psp4.sch":
                    return hit
    return None


def test_criterion_6_ubo200_4_searchless_bound():
    path = _find_ubo200_4()
    if path is None:
        pytest.skip(
            "UBO200 instance #4 benchmark file not available; set "
            "CUMULIFT_UBO200_4 or place it under tests/data/ (see README)"
        )
    with verdict("criterion 6: UBO200 #4 search-less bound exceeds 514 and is "
                 "certified below the known makespan 838"):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        instance = parse_instance(text, InstanceFormat.PROGEN_MAX_SCH, name="ubo200-4")
        started = time.perf_counter()
        report = run_pipeline(instance, LiftingConfig())
        elapsed = time.perf_counter() - started
        assert elapsed <= 60, f"preprocessing took {elapsed:.1f} s"
        assert report.searchless_lb > 514
        assert report.searchless_lb <= 838
        kind, index = report.certificate
        capacity = (
            report.constraints[index].capacity if kind == "inferred" else None
        )
        print(
            f"  UBO200 #4: search-less lb {report.searchless_lb} "
            f"(soft target 583), certificate {kind} capacity {capacity}"
        )


def test_criterion_7_disjunctive_only_mode():
    with verdict("criterion 7: cardinality cap 2 generates no ternary or long covers"):
        instance = parse_instance(FIXTURE_SM, InstanceFormat.PSPLIB_SM, name="fixture")
        report = run_pipeline(instance, LiftingConfig(max_cover_cardinality=2))
        generated = report.stats["covers_generated"]
        assert generated["ternary"] == 0
        assert generated["long_max"] == 0
        assert generated["long_min"] == 0
        assert all(c.rule == "binary" for c in report.constraints)
        assert report.constraints, "binary covers must still be lifted and emitted"

        big = synthetic_project(60, seed=7)
        report = run_pipeline(big, LiftingConfig(max_cover_cardinality=2))
        generated = report.stats["covers_generated"]
        assert generated["ternary"] == 0
        assert generated["long_max"] == 0 and generated["long_min"] == 0


# sha256 of the JSON report of ``synthetic_project(n, seed=0)`` under the
# default config.  A change to these is a change to the reports.
GOLDEN_REPORT_SHA256 = {
    200: "9c55b189e9944ef0934f4be0569698f3fc0107d50d260aa8bd3ba4114090ebe7",
    1000: "9d5ba92d843599595f862a9dd71345dadf653f78beb8f61538c32a703d3e14bd",
}


def test_criterion_8_performance_envelope():
    with verdict("criterion 8: preprocessing fits 60 s at 200 tasks and 10 min at "
                 "1000 tasks, with golden reports"):
        elapsed = {}
        for n, limit in ((200, 60), (1000, 600)):
            instance = synthetic_project(n, seed=0)
            started = time.perf_counter()
            report = run_pipeline(instance, LiftingConfig())
            elapsed[n] = time.perf_counter() - started
            assert elapsed[n] < limit, f"{n} tasks took {elapsed[n]:.1f} s"
            digest = hashlib.sha256(emit_report(report).encode()).hexdigest()
            assert digest == GOLDEN_REPORT_SHA256[n], f"{n}-task report changed"
        print(f"  200 tasks: {elapsed[200]:.1f} s; 1000 tasks: {elapsed[1000]:.1f} s")


# The same instance under the cover-cardinality caps that cover-scan uses.
GOLDEN_CAPPED_REPORT_SHA256 = {
    2: "bac7fee9e8db3517da4b328f0736af83794275a48abea40ca2b5d7f9fe070b94",
    3: "bd22c155896050b44df72453ae67272569d18cf374448141dfebdc990467a300",
}


@pytest.mark.parametrize("cap", sorted(GOLDEN_CAPPED_REPORT_SHA256))
def test_golden_reports_with_capped_covers(cap):
    report = run_pipeline(synthetic_project(200, seed=0), LiftingConfig(max_cover_cardinality=cap))
    digest = hashlib.sha256(emit_report(report).encode()).hexdigest()
    assert digest == GOLDEN_CAPPED_REPORT_SHA256[cap]


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    with verdict("criterion 9: consecutive infer runs emit byte-identical reports"):
        path = tmp_path / "fixture.sm"
        path.write_text(FIXTURE_SM)
        outputs = []
        for _ in range(2):
            assert cli_main(["infer", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # and it is valid JSON
