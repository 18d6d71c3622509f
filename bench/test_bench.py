"""Tests of the benchmark's own generators, checks and tracing.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
"""

import json

import numpy as np
import pytest

import instances
import oracle
import run
from cumulift import (
    InstanceFormat,
    emit_report,
    parse_instance,
    precedence_path_lb,
    run_pipeline,
)
from spans import Tracer

GRID = [(rf, rs) for rf in (0.25, 1.0) for rs in (0.2, 0.7)]


@pytest.mark.parametrize("rf,rs", GRID)
@pytest.mark.parametrize("n", [5, 17])
def test_sm_text_is_seeded_and_parses_back(n, rf, rs):
    inst = instances.progen_instance(n, 4, rf=rf, rs=rs, seed=11, name="x")
    text = instances.write_sm(inst)
    assert text == instances.write_sm(instances.progen_instance(n, 4, rf=rf, rs=rs, seed=11,
                                                                name="x"))
    assert text != instances.write_sm(instances.progen_instance(n, 4, rf=rf, rs=rs, seed=12,
                                                                name="x"))
    assert parse_instance(text, InstanceFormat.PSPLIB_SM, name="x") == inst


@pytest.mark.parametrize("rf,rs", GRID)
@pytest.mark.parametrize("n", [5, 17])
def test_sch_text_is_seeded_and_parses_back(n, rf, rs):
    def make(seed):
        return instances.progen_instance(n, 4, rf=rf, rs=rs, seed=seed, max_lags=True, name="y")
    inst = make(11)
    text = instances.write_sch(inst)
    assert text == instances.write_sch(make(11))
    assert text != instances.write_sch(make(12))
    assert parse_instance(text, InstanceFormat.PROGEN_MAX_SCH, name="y") == inst


def test_max_lags_are_negative_and_close_no_positive_cycle():
    for seed in range(10):
        inst = instances.progen_instance(20, 4, rf=0.5, rs=0.5, seed=seed, max_lags=True)
        assert any(arc.offset < 0 for arc in inst.precedences)
        precedence_path_lb(inst)  # raises PositiveCycle otherwise


def test_capacities_follow_the_resource_strength_rule():
    inst = instances.progen_instance(30, 3, rf=1.0, rs=0.0, seed=4)
    demands = np.array([t.demands for t in inst.tasks])
    assert [r.capacity for r in inst.resources] == list(demands.max(axis=0))
    full = instances.progen_instance(30, 3, rf=1.0, rs=1.0, seed=4)
    starts = instances.earliest_starts(full.n_tasks, full.precedences)
    peak = instances.peak_usage([t.duration for t in full.tasks], demands, starts)
    assert [r.capacity for r in full.resources] == list(peak)


def test_dp_maximum_agrees_with_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        matrix = rng.integers(0, 6, size=(m, n))
        rhs = rng.integers(0, 9, size=m)
        weights = rng.integers(0, 4, size=n)
        best = 0
        for code in range(1 << n):
            x = np.array([(code >> i) & 1 for i in range(n)])
            if np.all(matrix @ x <= rhs):
                best = max(best, int(weights @ x))
        assert oracle.max_value_dp(list(weights), matrix, rhs) == best


def _lowered(text, index):
    doc = json.loads(text)
    doc["constraints"][index]["capacity"] -= 1
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("workload", ["small-batch", "lift-frontier", "cover-scan"])
def test_constraint_with_lowered_rhs_is_flagged(workload):
    item = run.WORKLOADS[workload]().make(5, 0)
    text = run.WORKLOADS[workload]().process(item)
    assert oracle.check_report(text, item.instance) == []
    n_constraints = len(json.loads(text)["constraints"])
    assert n_constraints
    for idx in range(n_constraints):
        problems = oracle.check_report(_lowered(text, idx), item.instance)
        assert any(p.startswith(f"constraint {idx} invalid") for p in problems)


@pytest.mark.parametrize("n", [10, 30])
def test_enumeration_and_dp_paths_decide_validity(n):
    # n = 10 is decided by enumeration, n = 30 by the DP.
    system = oracle.demand_system(instances.progen_instance(n, 2, rf=1.0, rs=1.0, seed=1))
    ones = [1] * system.n_cols
    assert oracle.violation(ones, 1, system) is not None  # two tasks fit together
    assert oracle.violation(ones, system.n_cols, system) is None


def test_searchless_certificate_mismatch_is_flagged():
    item = run.WORKLOADS["small-batch"]().make(2, 1)
    doc = json.loads(emit_report(run_pipeline(item.instance)))
    doc["searchless_lb"] += 1
    problems = oracle.check_report(json.dumps(doc, indent=2) + "\n", item.instance)
    assert any("certificate gives" in p for p in problems)


class _Tampered(run.LiftFrontier):
    def process(self, item):
        return _lowered(super().process(item), 0)


def test_failed_checks_are_counted_and_the_run_goes_on(capsys):
    workload = _Tampered()
    items = [workload.make(0, k) for k in range(2)]
    attempted, failed, metrics = run.run_plain(workload, items, 0, 0.0, 0.0, [])
    assert (attempted, failed) == (2, 2)
    assert "failed_frac" in capsys.readouterr().out


def test_metric_names_match_benchmark_json(tmp_path, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workload = run.LiftFrontier()
    items = [workload.make(0, 0)]
    _, failed, plain = run.run_plain(workload, items, 0, 0.0, 0.0, [])
    assert failed == 0
    assert set(plain) == {m["name"] for m in spec["end_to_end"]}
    assert all(plain[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    _, failed, layers = run.run_traced(workload, items, tmp_path / "spans.jsonl")
    assert failed == 0
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert all(layers[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])


def test_traced_run_matches_untraced_and_prints_missing_spans(tmp_path, capsys):
    workload = run.LiftFrontier()
    items = [workload.make(3, k) for k in range(2)]
    _, failed, metrics = run.run_traced(workload, items, tmp_path / "spans.jsonl")
    assert failed == 0
    out = capsys.readouterr().out
    for name in ("parsers.parse_s", "polyhedral.verify_s", "report.parse_s"):
        assert f"{name:<28} {'missing':>14}" in out
    assert metrics["polyhedral.verify_calls"]["value"] == 0
    assert metrics["lifting.infer_s"]["value"] > metrics["lifting.self_s"]["value"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s[4] for s in spans} == {0, 1}
    roots = [s for s in spans if s[0] == "instance"]
    assert len(roots) == 2 and all(s[3] is None for s in roots)


def test_tracer_restores_every_patched_function():
    import cumulift.knapsack as knapsack_mod
    import cumulift.lifting as lifting_mod
    before = (lifting_mod.seed_covers, knapsack_mod.IncrementalLiftSolver.max_value)
    tracer = Tracer()
    tracer.install()
    assert lifting_mod.seed_covers is not before[0]
    tracer.uninstall()
    assert (lifting_mod.seed_covers, knapsack_mod.IncrementalLiftSolver.max_value) == before


def test_report_round_trip_failure_is_flagged():
    item = run.WORKLOADS["small-batch"]().make(1, 0)
    text = emit_report(run_pipeline(item.instance))
    problems = oracle.check_report(text.replace("\n", "\n ", 1), item.instance)
    assert any("parse_report -> emit_report" in p for p in problems)
