import json
from fractions import Fraction

import pytest

from cumulift.errors import PositiveCycle
from cumulift.instance import (
    InstanceKind,
    PrecedenceArc,
    Resource,
    SchedulingInstance,
    Task,
)
from cumulift.lifting import LiftingConfig, run_pipeline
from cumulift.polyhedral import LiftedInequality
from cumulift.report import (
    InferenceReport,
    ReportConstraint,
    ReportFormat,
    compute_searchless_lb,
    emit_report,
    export_parallelism_graph,
    fragment_from_report,
    parse_report,
    precedence_path_lb,
)


def fixture_instance():
    return SchedulingInstance(
        name="fixture",
        kind=InstanceKind.RCPSP,
        tasks=(
            Task(0, 0, (0,)),
            Task(1, 1, (5,)),
            Task(2, 1, (3,)),
            Task(3, 1, (2,)),
            Task(4, 2, (4,)),
            Task(5, 0, (0,)),
        ),
        resources=(Resource(0, 7),),
        precedences=(
            PrecedenceArc(0, 1, 0),
            PrecedenceArc(0, 2, 0),
            PrecedenceArc(0, 3, 0),
            PrecedenceArc(0, 4, 0),
            PrecedenceArc(1, 5, 1),
            PrecedenceArc(2, 5, 1),
            PrecedenceArc(3, 5, 1),
            PrecedenceArc(4, 5, 2),
        ),
    )


class TestSearchlessLb:
    def test_tie_prefers_inferred(self, knapsack_system):
        # Lifted bound ceil(5/2) = 3 equals the row bound ceil(18/7) = 3.
        bound, certificate = compute_searchless_lb(
            knapsack_system, [LiftedInequality((1, 1, 1, 1), 2)]
        )
        assert bound == 3
        assert certificate == ("inferred", 0)

    def test_empty_everything(self):
        from conftest import make_system

        system = make_system([[]], [4], [])
        bound, certificate = compute_searchless_lb(system, [])
        assert bound == 0 and certificate == ("row", 0)

    def test_no_rows_no_constraints(self):
        from conftest import make_system
        import numpy as np

        system = make_system(np.zeros((0, 0), dtype=int).reshape(0, 0), [], [])
        assert compute_searchless_lb(system, []) == (0, None)

    def test_row_certificate_when_rows_win(self, knapsack_system):
        bound, certificate = compute_searchless_lb(knapsack_system, [])
        assert bound == 3  # ceil(18/7)
        assert certificate == ("row", 0)


class TestPrecedencePathLb:
    def test_serial_chain(self):
        # Two real tasks of durations 2 and 3 in the usual parsed form with
        # dummy source and sink; the path to the sink is the full 5 units.
        instance = SchedulingInstance(
            name="chain",
            kind=InstanceKind.RCPSP,
            tasks=(Task(0, 0, (0,)), Task(1, 2, (1,)), Task(2, 3, (1,)),
                   Task(3, 0, (0,))),
            resources=(Resource(0, 2),),
            precedences=(PrecedenceArc(0, 1, 0), PrecedenceArc(1, 2, 2),
                         PrecedenceArc(2, 3, 3)),
        )
        assert precedence_path_lb(instance) == 5

    def test_fixture_longest_path(self):
        assert precedence_path_lb(fixture_instance()) == 2  # via task 4's arc

    def test_empty_precedences(self):
        instance = SchedulingInstance(
            name="free",
            kind=InstanceKind.RCPSP,
            tasks=(Task(0, 2, (1,)),),
            resources=(Resource(0, 1),),
            precedences=(),
        )
        assert precedence_path_lb(instance) == 0

    def test_positive_cycle_detected(self):
        instance = SchedulingInstance(
            name="cycle",
            kind=InstanceKind.RCPSP_MAX,
            tasks=(Task(0, 2, (1,)), Task(1, 2, (1,))),
            resources=(Resource(0, 2),),
            precedences=(PrecedenceArc(0, 1, 4), PrecedenceArc(1, 0, -1)),
        )
        with pytest.raises(PositiveCycle):
            precedence_path_lb(instance)

    def test_negative_cycle_is_fine(self):
        instance = SchedulingInstance(
            name="slack",
            kind=InstanceKind.RCPSP_MAX,
            tasks=(Task(0, 2, (1,)), Task(1, 2, (1,))),
            resources=(Resource(0, 2),),
            precedences=(PrecedenceArc(0, 1, 4), PrecedenceArc(1, 0, -6)),
        )
        assert precedence_path_lb(instance) == 4


class TestEmitReport:
    def test_json_fields(self):
        report = run_pipeline(fixture_instance(), LiftingConfig())
        text = emit_report(report, ReportFormat.JSON)
        assert '"searchless_lb": 3' in text
        doc = json.loads(text)
        assert doc["schema"] == "cumulift-report/1"
        assert doc["instance"] == "fixture"
        assert doc["stats"]["subproblem_calls"] == 5

    def test_json_roundtrip(self):
        report = run_pipeline(fixture_instance(), LiftingConfig())
        again = parse_report(emit_report(report, ReportFormat.JSON))
        assert again == report

    def test_empty_report_is_valid_json(self):
        instance = SchedulingInstance(
            name="single",
            kind=InstanceKind.RCPSP,
            tasks=(Task(0, 4, (2,)),),
            resources=(Resource(0, 3),),
            precedences=(),
        )
        report = run_pipeline(instance, LiftingConfig())
        doc = json.loads(emit_report(report, ReportFormat.JSON))
        assert doc["constraints"] == []

    def test_text_table_headers(self):
        report = run_pipeline(fixture_instance(), LiftingConfig())
        text = emit_report(report, ReportFormat.TEXT)
        assert "New bound" in text
        assert "Capacity" in text
        assert "Ref. bound" in text

    def test_certificate_recomputable(self, knapsack_system):
        report = run_pipeline(fixture_instance(), LiftingConfig())
        kind, index = report.certificate
        assert kind == "inferred"
        constraint = report.constraints[index]
        total = sum(
            usage * fixture_instance().tasks[task].duration
            for task, usage in constraint.usages
        )
        assert -(-total // constraint.capacity) == report.searchless_lb


def fragment_of(*constraints):
    """Model fragment of a fixture report holding ``(usages, capacity)`` pairs.

    A fragment reads only usages and capacities; the other fields are filler.
    """
    report = InferenceReport(
        instance_name="fixture",
        config={},
        task_map=(1, 2, 3, 4),
        constraints=[
            ReportConstraint(usages=usages, capacity=capacity, bound=Fraction(0),
                             bound_int=0, source_cover=(), rule="binary")
            for usages, capacity in constraints
        ],
        searchless_lb=0,
        certificate=None,
        precedence_lb=0,
        row_lb=0,
        infeasible_tasks=(),
    )
    return fragment_from_report(fixture_instance(), report)


class TestModelFragment:
    def test_fixture_projection_back_to_task_ids(self):
        fragment = fragment_of((((1, 1), (2, 1), (3, 1), (4, 1)), 2))
        assert fragment == (
            "constraint cumulative(start, [0, 1, 1, 1, 2, 0], "
            "[0, 1, 1, 1, 1, 0], 2);\n"
        )

    def test_empty_list(self):
        assert fragment_of() == ""

    def test_disjunctive_capacity_literal(self):
        fragment = fragment_of((((1, 1), (4, 1)), 1))
        assert fragment.rstrip().endswith(" 1);")


class TestParallelismGraph:
    def test_fixture_edges(self, knapsack_system):
        dot = export_parallelism_graph(knapsack_system)
        for edge in ("t1 -- t3", "t2 -- t3", "t2 -- t4", "t3 -- t4"):
            assert edge in dot
        for non_edge in ("t1 -- t2", "t1 -- t4"):
            assert non_edge not in dot

    def test_single_task(self):
        from conftest import make_system

        dot = export_parallelism_graph(make_system([[2]], [3], [4], task_map=(0,)))
        assert "t0" in dot and "--" not in dot

    def test_disjunctive_pair_has_no_edge(self):
        from conftest import make_system

        dot = export_parallelism_graph(make_system([[1, 1]], [1], [1, 1]))
        assert "--" not in dot

    def test_vertex_labels_carry_durations(self, knapsack_system):
        dot = export_parallelism_graph(knapsack_system)
        assert 't4 [label="t4 d=2"];' in dot
