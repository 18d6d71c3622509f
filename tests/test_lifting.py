from collections import Counter

import numpy as np
import pytest

from cumulift.covers import seed_covers, select_top_covers
from cumulift.instance import (
    InstanceKind,
    Resource,
    SchedulingInstance,
    Task,
    to_demand_system,
)
import cumulift.lifting as lifting_mod
from cumulift.knapsack import IncrementalLiftSolver
from cumulift.lifting import (
    LiftingConfig,
    SkipSet,
    _Columns,
    _lift,
    infer_constraints,
    lift_cover,
    run_pipeline,
)
from cumulift.polyhedral import Cover, check_validity_bruteforce
from cumulift.report import emit_report

from conftest import make_system, random_system, reference_lift, synthetic_project


class TestLiftCover:
    def test_running_example(self, knapsack_system):
        ineq = lift_cover(Cover(members=(1, 2, 3), source_row=0), knapsack_system)
        assert ineq.coeffs == (1, 1, 1, 1)
        assert ineq.rhs == 2

    def test_full_cover_needs_no_lifting(self, knapsack_system):
        steps = []
        ineq = lift_cover(
            Cover(members=(0, 1, 2, 3), source_row=0),
            knapsack_system,
            on_step=lambda partial, i: steps.append(i),
        )
        assert ineq.coeffs == (1, 1, 1, 1) and ineq.rhs == 3
        assert steps == []

    def test_two_row_disjunctive_lift(self):
        system = make_system([[2, 2, 2], [1, 1, 1]], [3, 5], [1, 1, 1])
        ineq = lift_cover(Cover(members=(0, 1), source_row=0), system)
        assert ineq.coeffs == (1, 1, 1) and ineq.rhs == 1

    def test_cover_members_keep_coefficient_one(self):
        rng = np.random.default_rng(41)
        for _ in range(80):
            system = random_system(rng, max_cols=9, max_rows=3)
            for cover in list(seed_covers(system))[:4]:
                ineq = lift_cover(cover, system)
                for i in cover.members:
                    assert ineq.coeffs[i] == 1
                assert all(0 <= c <= ineq.rhs for c in ineq.coeffs)

    def test_every_intermediate_step_is_valid(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            system = random_system(rng, max_cols=8, max_rows=3)
            for cover in list(seed_covers(system))[:3]:
                partials = []
                lift_cover(cover, system, on_step=lambda q, i: partials.append(q))
                for partial in partials:
                    ok, point = check_validity_bruteforce(partial, system)
                    assert ok, (cover, partial, point, system.matrix, system.rhs)

    def test_infeasible_column_gets_full_coefficient(self):
        # Raw system violating the projection invariant: column 2 exceeds
        # the row capacity, so setting it to 1 is infeasible on its own.
        system = make_system([[2, 2, 9]], [3], [1, 1, 1])
        ineq = lift_cover(Cover(members=(0, 1), source_row=0), system)
        assert ineq.coeffs[2] == ineq.rhs == 1


def random_covers(rng, system, count):
    """Up to ``count`` random covers of 2-6 members, each overloading some row."""
    covers = []
    for _ in range(8 * count):
        if len(covers) == count or system.n_cols < 2:
            break
        k = int(rng.integers(2, min(6, system.n_cols) + 1))
        members = tuple(sorted(int(c) for c in rng.choice(system.n_cols, k, replace=False)))
        if (system.matrix[:, members].sum(axis=1) > system.rhs).any():
            covers.append(Cover(members, 0))
    return covers


class TestAgainstReferenceLift:
    def test_matches_one_query_per_column(self):
        rng = np.random.default_rng(44)
        seen = Counter()
        for _ in range(300):
            system = random_system(rng, max_cols=14, max_rows=4)
            if rng.random() < 0.3:
                # One column over a capacity: infeasible on its own.
                matrix = system.matrix.copy()
                j = int(rng.integers(0, system.n_rows))
                matrix[j, int(rng.integers(0, system.n_cols))] = system.rhs[j] + 1
                system = make_system(matrix, system.rhs, system.durations)
            cols = _Columns(system)
            for cover in random_covers(rng, system, 3):
                expected_steps, steps = [], []
                expected = reference_lift(
                    cover, system, on_step=lambda q, i: expected_steps.append((q, i))
                )
                got = _lift(cover, cols, on_step=lambda q, i: steps.append((q, i)))
                assert got == expected, (cover, system.matrix, system.rhs)
                assert steps == expected_steps
                seen["lifts"] += 1

                inequality, calls, flagged = expected
                pi0 = inequality.rhs
                rest = [i for i in range(system.n_cols) if i not in cover.members]
                seen["repeated reduced vectors"] += len(rest) - calls
                seen["infeasible columns"] += len(flagged)
                start = IncrementalLiftSolver(cols.rhs, value_cap=pi0)
                for i in cover.members:
                    start.add_variable(1, cols.columns[i])
                seen["empty top frontier"] += start.max_value(cols.rhs)[0] < pi0
                seen["settled after an addition"] += sum(
                    inequality.coeffs[i] == 0
                    and start.max_value(cols.reduced[i].tolist())[0] != pi0
                    for i in rest
                )
        assert seen["lifts"] >= 300
        assert all(v > 0 for v in seen.values()), seen

    def test_queries_only_positive_coefficients(self, monkeypatch):
        queries = []
        lifts = []
        max_value = IncrementalLiftSolver.max_value
        lift = lifting_mod._lift

        def counting_max_value(self, reduced):
            queries.append(reduced)
            return max_value(self, reduced)

        def recording_lift(cover, cols, on_step=None):
            result = lift(cover, cols, on_step)
            lifts.append((cover, result[0]))
            return result

        monkeypatch.setattr(IncrementalLiftSolver, "max_value", counting_max_value)
        monkeypatch.setattr(lifting_mod, "_lift", recording_lift)
        report = run_pipeline(synthetic_project(200, seed=0))
        positive = sum(
            sum(c > 0 for c in inequality.coeffs) - len(cover.members)
            for cover, inequality in lifts
        )
        assert len(lifts) == report.stats["constraints_lifted"]
        assert len(queries) == positive
        assert len(queries) < report.stats["subproblem_calls"]


class TestInferConstraints:
    def test_fixture_inference(self, knapsack_system):
        selected = select_top_covers(
            seed_covers(knapsack_system), knapsack_system.durations, 100
        )
        kept, stats = infer_constraints(knapsack_system, selected, LiftingConfig())
        inequalities = [(c.inequality.coeffs, c.inequality.rhs) for c in kept]
        assert ((1, 1, 1, 1), 2) in inequalities
        # Ranked by capacity bound: 3 (disjunctive pair), 5/2, 2.
        assert inequalities[0] == ((1, 0, 0, 1), 1)
        assert inequalities[1] == ((1, 1, 1, 1), 2)
        assert stats.covers_skipped == 2
        assert stats.subproblem_calls == 5

    def test_empty_cover_list(self, knapsack_system):
        kept, stats = infer_constraints(knapsack_system, [], LiftingConfig())
        assert kept == []
        assert stats.subproblem_calls == 0

    def test_skip_structure_blocks_contained_covers(self):
        # Ten unit tasks on a unit-capacity resource: the first lifted pair
        # becomes a disjunctive constraint over all ten columns, so every
        # other pair is skipped without a single subproblem call.
        system = make_system([[1] * 10], [1], [3] * 10)
        selected = select_top_covers(seed_covers(system), system.durations, 100)
        assert len(selected) == 45
        kept, stats = infer_constraints(system, selected, LiftingConfig())
        assert stats.subproblem_calls == 8  # the first lift only
        assert stats.covers_skipped == 44
        assert stats.constraints_lifted == 1

    def test_dominated_results_are_dropped(self):
        system = make_system([[1] * 4], [1], [2] * 4)
        selected = select_top_covers(seed_covers(system), system.durations, 100)
        kept, stats = infer_constraints(system, selected, LiftingConfig())
        # The lifted (1,1,1,1) <= 1 equals the original row: dominated.
        assert kept == []
        assert stats.covers_dominated == 1

    def test_n_out_truncation(self, knapsack_system):
        selected = select_top_covers(
            seed_covers(knapsack_system), knapsack_system.durations, 100
        )
        kept, _ = infer_constraints(
            knapsack_system, selected, LiftingConfig(n_out=1)
        )
        assert len(kept) == 1
        assert kept[0].inequality.coeffs == (1, 0, 0, 1)


class TestSkipSet:
    def test_subset_with_large_enough_cardinality_is_skipped(self):
        skip = SkipSet()
        skip.add(frozenset(range(10)), 2)
        assert skip.already_covered((3, 7))
        assert skip.already_covered((0, 1, 2))
        assert not skip.already_covered((3, 11))

    def test_threshold_respected(self):
        skip = SkipSet()
        skip.add(frozenset(range(6)), 3)
        assert not skip.already_covered((0, 1))  # below the recorded cardinality
        assert skip.already_covered((0, 1, 2))


class TestRunPipeline:
    def fixture_instance(self):
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
            precedences=(),
        )

    def test_fixture_report(self):
        report = run_pipeline(self.fixture_instance(), LiftingConfig())
        assert report.searchless_lb == 3
        assert len(report.constraints) >= 1
        assert all(c.verified for c in report.constraints)

    def test_single_task_instance(self):
        instance = SchedulingInstance(
            name="single",
            kind=InstanceKind.RCPSP,
            tasks=(Task(0, 4, (2,)),),
            resources=(Resource(0, 3),),
            precedences=(),
        )
        report = run_pipeline(instance, LiftingConfig())
        assert report.constraints == []
        # LB comes from the original row: ceil(4 * 2 / 3) = 3.
        assert report.searchless_lb == 3
        assert report.certificate == ("row", 0)

    def test_disjunctive_only_mode(self):
        report = run_pipeline(
            self.fixture_instance(), LiftingConfig(max_cover_cardinality=2)
        )
        generated = report.stats["covers_generated"]
        assert generated["ternary"] == 0
        assert generated["long_max"] == 0 and generated["long_min"] == 0
        assert all(c.rule == "binary" for c in report.constraints)

    def test_reports_are_deterministic(self):
        a = emit_report(run_pipeline(self.fixture_instance(), LiftingConfig()))
        b = emit_report(run_pipeline(self.fixture_instance(), LiftingConfig()))
        assert a == b

    def test_inferred_constraints_pass_oracle_on_random_systems(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            system = random_system(rng, max_cols=10, max_rows=3)
            selected = select_top_covers(seed_covers(system), system.durations, 100)
            kept, _ = infer_constraints(system, selected, LiftingConfig())
            for constraint in kept:
                ok, point = check_validity_bruteforce(constraint.inequality, system)
                assert ok, (constraint, point, system.matrix, system.rhs)


class TestLiftingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LiftingConfig(n_cover=0)
        with pytest.raises(ValueError):
            LiftingConfig(n_out=0)
        with pytest.raises(ValueError):
            LiftingConfig(max_cover_cardinality=1)
