from itertools import combinations

import numpy as np
import pytest

from cumulift.knapsack import (
    INFEASIBLE,
    IncrementalLiftSolver,
    LiftingSubproblem,
    SubproblemSolution,
    solve,
)


def oracle(weights, rows, rhs):
    """Full-enumeration reference: (value, lexmin witness) or None if infeasible.

    Witnesses range over positive-weight variables only, matching solve().
    """
    if any(r < 0 for r in rhs):
        return None
    positive = [c for c in range(len(weights)) if weights[c] > 0]
    best, best_witness = 0, ()
    for k in range(len(positive) + 1):
        for sel in combinations(positive, k):
            if all(sum(rows[j][c] for c in sel) <= rhs[j] for j in range(len(rows))):
                value = sum(weights[c] for c in sel)
                if value > best:
                    best, best_witness = value, sel
                elif value == best and sel < best_witness:
                    best_witness = sel
    return best, best_witness


class TestExamples:
    def test_lifting_subproblem_from_the_running_example(self):
        # max x2 + x3 + x4  s.t.  3 x2 + 2 x3 + 4 x4 <= 2
        result = solve(LiftingSubproblem((1, 1, 1), ((3, 2, 4),), (2,)))
        assert result == SubproblemSolution(value=1, witness=(1,))

    def test_empty_subproblem(self):
        result = solve(LiftingSubproblem((), ((),), (5,)))
        assert result == SubproblemSolution(value=0, witness=())

    def test_two_rows_forbid_the_pair(self):
        result = solve(LiftingSubproblem((1, 1), ((2, 2), (1, 3)), (3, 3)))
        assert result.value == 1
        assert result.witness == (0,)  # lexicographically smallest optimum

    def test_infeasible_reduced_rhs(self):
        assert solve(LiftingSubproblem((1,), ((2,),), (-1,))) is INFEASIBLE


class TestContracts:
    def test_input_validation(self):
        with pytest.raises(ValueError):
            LiftingSubproblem((-1,), ((1,),), (1,))
        with pytest.raises(ValueError):
            LiftingSubproblem((1,), ((1, 2),), (1,))
        with pytest.raises(ValueError):
            LiftingSubproblem((1,), ((1,),), (1, 2))

    def test_zero_weight_variables_never_in_witness(self):
        result = solve(LiftingSubproblem((0, 3, 0), ((1, 1, 1),), (3,)))
        assert result.value == 3
        assert result.witness == (1,)

    def test_stop_at_returns_exact_value_when_tight(self):
        sub = LiftingSubproblem((1, 1, 1), ((1, 1, 1),), (3,))
        assert solve(sub, stop_at=3).value == 3
        assert solve(sub).value == 3


class TestOracleEquivalence:
    def test_random_subproblems(self):
        rng = np.random.default_rng(31)
        for _ in range(250):
            p = int(rng.integers(0, 12))
            m = int(rng.integers(1, 5))
            weights = tuple(int(rng.integers(0, 9)) for _ in range(p))
            rows = tuple(
                tuple(int(rng.integers(0, 20)) for _ in range(p)) for _ in range(m)
            )
            rhs = tuple(int(rng.integers(-2, 30)) for _ in range(m))
            got = solve(LiftingSubproblem(weights, rows, rhs))
            expected = oracle(weights, rows, rhs)
            if expected is None:
                assert got is INFEASIBLE
            else:
                assert (got.value, got.witness) == expected

    def test_witness_always_feasible_and_tight(self):
        rng = np.random.default_rng(32)
        for _ in range(250):
            p = int(rng.integers(1, 14))
            m = int(rng.integers(1, 4))
            weights = tuple(int(rng.integers(0, 7)) for _ in range(p))
            rows = tuple(
                tuple(int(rng.integers(0, 12)) for _ in range(p)) for _ in range(m)
            )
            rhs = tuple(int(rng.integers(0, 18)) for _ in range(m))
            result = solve(LiftingSubproblem(weights, rows, rhs))
            for j in range(m):
                assert sum(rows[j][c] for c in result.witness) <= rhs[j]
            assert sum(weights[c] for c in result.witness) == result.value

    def test_monotone_in_rhs(self):
        rng = np.random.default_rng(33)
        for _ in range(150):
            p = int(rng.integers(1, 10))
            m = int(rng.integers(1, 4))
            weights = tuple(int(rng.integers(0, 7)) for _ in range(p))
            rows = tuple(
                tuple(int(rng.integers(0, 10)) for _ in range(p)) for _ in range(m)
            )
            rhs = [int(rng.integers(0, 15)) for _ in range(m)]
            base = solve(LiftingSubproblem(weights, rows, tuple(rhs))).value
            j = int(rng.integers(0, m))
            rhs[j] += int(rng.integers(1, 5))
            assert solve(LiftingSubproblem(weights, rows, tuple(rhs))).value >= base


class TestIncrementalSolver:
    def test_matches_bruteforce_under_value_cap(self):
        rng = np.random.default_rng(34)
        checked = fallback_checked = 0
        for _ in range(150):
            m = int(rng.integers(1, 4))
            rhs = [int(rng.integers(0, 14)) for _ in range(m)]
            value_cap = int(rng.integers(1, 8))
            # A pareto_limit of 1 makes multi-row frontiers overflow, so
            # later queries go to solve().
            limit = int(rng.choice([1, 3000]))
            solver = IncrementalLiftSolver(rhs, value_cap=value_cap, pareto_limit=limit)
            weights, cols = [], []
            for _ in range(int(rng.integers(1, 11))):
                w = int(rng.integers(1, value_cap + 1))
                col = [int(rng.integers(0, 8)) for _ in range(m)]
                solver.add_variable(w, col)
                weights.append(w)
                cols.append(col)
                reduced = [int(rng.integers(-1, rhs[j] + 1)) for j in range(m)]
                rows = [[cols[c][j] for c in range(len(cols))] for j in range(m)]
                expected = oracle(tuple(weights), rows, reduced)
                if expected is not None and expected[0] > value_cap:
                    continue  # outside the solver's contract
                got, _ = solver.max_value(reduced, stop_at=value_cap)
                checked += 1
                fallback_checked += solver._fronts is None
                assert got == (None if expected is None else expected[0])
        assert checked > 300
        assert fallback_checked > 20

    def test_memo_reports_cache_hits(self):
        solver = IncrementalLiftSolver([5], value_cap=2)
        solver.add_variable(1, [2])
        value, fresh = solver.max_value([3], stop_at=2)
        assert (value, fresh) == (1, True)
        value, fresh = solver.max_value([3], stop_at=2)
        assert (value, fresh) == (1, False)
        solver.add_variable(1, [1])
        value, fresh = solver.max_value([3], stop_at=2)
        assert (value, fresh) == (2, True)  # support growth invalidates the memo
