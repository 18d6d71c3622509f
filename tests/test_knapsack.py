from itertools import combinations

import numpy as np
import pytest

from cumulift.knapsack import _BLOCK, IncrementalLiftSolver, _merge

from conftest import frontier_max


def oracle(weights, rows, rhs):
    """Full-enumeration reference: the optimum, or None if infeasible."""
    if any(r < 0 for r in rhs):
        return None
    best = 0
    for k in range(len(weights) + 1):
        for sel in combinations(range(len(weights)), k):
            if all(sum(rows[j][c] for c in sel) <= rhs[j] for j in range(len(rows))):
                best = max(best, sum(weights[c] for c in sel))
    return best


def pareto_minimal(vectors):
    """Brute-force reference: the distinct rows no other row is <= everywhere."""
    distinct = set(map(tuple, vectors))
    return {
        a for a in distinct
        if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in distinct)
    }


def random_front(rng, m):
    rows = rng.integers(0, 6, size=(int(rng.integers(0, 12)), m)).tolist()
    return np.array(sorted(pareto_minimal(rows)), dtype=np.int64).reshape(-1, m)


class TestExamples:
    def test_lifting_subproblem_from_the_running_example(self):
        # max x2 + x3 + x4  s.t.  3 x2 + 2 x3 + 4 x4 <= 2
        assert frontier_max((1, 1, 1), ((3, 2, 4),), (2,)) == 1

    def test_empty_subproblem(self):
        assert frontier_max((), ((),), (5,)) == 0

    def test_two_rows_forbid_the_pair(self):
        assert frontier_max((1, 1), ((2, 2), (1, 3)), (3, 3)) == 1

    def test_infeasible_reduced_rhs(self):
        assert frontier_max((1,), ((2,),), (-1,)) is None


class TestContracts:
    def test_input_validation(self):
        solver = IncrementalLiftSolver([5], value_cap=2)
        with pytest.raises(ValueError):
            solver.add_variable(0, [1])
        with pytest.raises(ValueError):
            solver.add_variable(3, [1])


class TestMerge:
    def test_merge_keeps_exactly_the_pareto_minimal_rows(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            old, new = random_front(rng, m), random_front(rng, m)
            merged, added = _merge(old, new)
            assert len(merged) == len(set(map(tuple, merged.tolist())))
            assert set(map(tuple, merged.tolist())) == pareto_minimal(
                old.tolist() + new.tolist()
            )
            # Added: exactly the new rows that no old row is <= everywhere.
            uncovered = {
                tuple(b) for b in new.tolist()
                if not any(all(x <= y for x, y in zip(a, b)) for a in old.tolist())
            }
            assert sorted(map(tuple, added.tolist())) == sorted(uncovered)


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
            assert frontier_max(weights, rows, rhs) == oracle(weights, rows, rhs)

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
            base = frontier_max(weights, rows, tuple(rhs))
            j = int(rng.integers(0, m))
            rhs[j] += int(rng.integers(1, 5))
            assert frontier_max(weights, rows, tuple(rhs)) >= base


class TestIncrementalSolver:
    def test_matches_bruteforce_under_value_cap(self):
        rng = np.random.default_rng(34)
        checked = 0
        for _ in range(150):
            m = int(rng.integers(1, 4))
            rhs = [int(rng.integers(0, 14)) for _ in range(m)]
            value_cap = int(rng.integers(1, 8))
            solver = IncrementalLiftSolver(rhs, value_cap=value_cap)
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
                if expected is not None and expected > value_cap:
                    continue  # outside the solver's contract
                got, _ = solver.max_value(reduced)
                checked += 1
                assert got == expected
        assert checked > 300

    def test_add_variable_returns_rows_new_to_the_top_frontier(self):
        rng = np.random.default_rng(35)
        returned = over = 0
        for _ in range(150):
            m = int(rng.integers(1, 4))
            rhs = [int(rng.integers(0, 14)) for _ in range(m)]
            value_cap = int(rng.integers(1, 6))
            solver = IncrementalLiftSolver(rhs, value_cap=value_cap)
            for _ in range(int(rng.integers(1, 9))):
                before = set(map(tuple, solver._fronts[value_cap].tolist()))
                w = int(rng.integers(1, value_cap + 1))
                # Up to rhs + 2, so some columns exceed the rhs and never fit.
                col = [int(rng.integers(0, rhs[j] + 3)) for j in range(m)]
                entered = solver.add_variable(w, col)
                after = set(map(tuple, solver._fronts[value_cap].tolist()))
                assert entered.shape[1] == m
                assert sorted(map(tuple, entered.tolist())) == sorted(after - before)
                if any(c > r for c, r in zip(col, rhs)):
                    assert len(entered) == 0
                    over += 1
                returned += len(entered)
        assert returned > 50 and over > 50

    def test_at_cap_matches_max_value(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            m = int(rng.integers(1, 4))
            rhs = [int(rng.integers(0, 14)) for _ in range(m)]
            value_cap = int(rng.integers(1, 5))
            solver = IncrementalLiftSolver(rhs, value_cap=value_cap)
            for _ in range(int(rng.integers(0, 8))):
                w = int(rng.integers(1, value_cap + 1))
                solver.add_variable(w, [int(rng.integers(0, 6)) for _ in range(m)])
            # More rows than one block, some of them infeasible.
            reduced = np.array(
                [[int(rng.integers(-1, r + 1)) for r in rhs] for _ in range(_BLOCK + 37)],
                dtype=np.int64,
            ).reshape(-1, m)
            expected = [solver.max_value(r)[0] == value_cap for r in reduced.tolist()]
            assert solver.at_cap(reduced).tolist() == expected

    def test_memo_reports_cache_hits(self):
        solver = IncrementalLiftSolver([5], value_cap=2)
        solver.add_variable(1, [2])
        value, fresh = solver.max_value([3])
        assert (value, fresh) == (1, True)
        value, fresh = solver.max_value([3])
        assert (value, fresh) == (1, False)
        solver.add_variable(1, [1])
        value, fresh = solver.max_value([3])
        assert (value, fresh) == (2, True)  # support growth invalidates the memo
