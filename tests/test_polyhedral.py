import itertools

import numpy as np
import pytest
from fractions import Fraction

from cumulift.errors import EmptySupport, TooLarge, ZeroCapacity
from cumulift.polyhedral import (
    Cover,
    LiftedInequality,
    Schedule,
    capacity_bound,
    capacity_lb,
    check_cumulative,
    check_validity_bruteforce,
    is_cover,
    is_dominated,
    span,
)

from conftest import make_system, random_system


class TestIsCover:
    def test_ternary_cover(self):
        assert is_cover({1, 2, 3}, [5, 3, 2, 4], 7)  # 3+2+4 = 9 > 7

    def test_boundary_equality_is_not_a_cover(self):
        assert not is_cover({0, 2}, [5, 3, 2, 4], 7)  # 5+2 = 7

    def test_binary_cover(self):
        assert is_cover({0, 1}, [5, 3, 2, 4], 7)  # 8 > 7


class TestCapacityBound:
    def test_exact_rational(self):
        ineq = LiftedInequality((1, 1, 1, 1), 2)
        assert capacity_bound(ineq, [1, 1, 1, 2]) == Fraction(5, 2)
        assert capacity_lb(ineq, [1, 1, 1, 2]) == 3

    def test_unit_capacity_sums_durations(self):
        ineq = LiftedInequality((1, 1), 1)
        assert capacity_bound(ineq, [3, 3]) == 6
        assert capacity_lb(ineq, [3, 3]) == 6

    def test_zero_usage(self):
        assert capacity_bound(LiftedInequality((0, 0), 5), [9, 9]) == 0

    def test_zero_capacity_raises(self):
        with pytest.raises(ZeroCapacity):
            capacity_bound(LiftedInequality((0,), 0), [1])


class TestDominance:
    def test_lifted_not_dominated(self, knapsack_system):
        assert not is_dominated(LiftedInequality((1, 1, 1, 1), 2), knapsack_system)

    def test_weak_inequality_dominated(self, knapsack_system):
        assert is_dominated(LiftedInequality((1, 1, 0, 0), 7), knapsack_system)

    def test_row_dominates_itself(self, knapsack_system):
        assert is_dominated(LiftedInequality((5, 3, 2, 4), 7), knapsack_system)


class TestBruteforceValidity:
    def test_lifted_inequality_valid(self, knapsack_system):
        ok, point = check_validity_bruteforce(
            LiftedInequality((1, 1, 1, 1), 2), knapsack_system
        )
        assert ok and point is None

    def test_zero_inequality_valid(self, knapsack_system):
        ok, _ = check_validity_bruteforce(LiftedInequality((0, 0, 0, 0), 0), knapsack_system)
        assert ok

    def test_too_strong_inequality_has_counterexample(self, knapsack_system):
        ok, point = check_validity_bruteforce(
            LiftedInequality((1, 1, 1, 1), 1), knapsack_system
        )
        assert not ok
        # Any returned point must itself be feasible and violating.
        y = np.array(point)
        assert (knapsack_system.matrix @ y <= knapsack_system.rhs).all()
        assert y.sum() > 1
        # The point (0, 1, 1, 0) is one such witness: 3+2 fits, count 2 > 1.
        w = np.array([0, 1, 1, 0])
        assert (knapsack_system.matrix @ w <= knapsack_system.rhs).all() and w.sum() > 1

    def test_limit_enforced(self):
        system = make_system([[1] * 21], [5], [1] * 21)
        with pytest.raises(TooLarge):
            check_validity_bruteforce(LiftedInequality((1,) * 21, 5), system)

    def test_negative_matrix_entry_rejected(self):
        system = make_system([[1, -1]], [1], [1, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            check_validity_bruteforce(LiftedInequality((1, 1), 1), system)

    def test_violation_found_only_through_high_support_columns(self):
        # pi = 1 on columns 0..15 and 16 on 16..19: the low columns alone sum
        # to at most pi0 = 16, so every violation sets a bit above 15.  The
        # second row forbids x_0 together with x_16.
        system = make_system(
            [[1] * 20, [1] + [0] * 15 + [1, 0, 0, 0]], [20, 1], [1] * 20
        )
        coeffs = (1,) * 16 + (16,) * 4
        expected = (0, 1) + (0,) * 14 + (1, 0, 0, 0)
        assert check_validity_bruteforce(LiftedInequality(coeffs, 16), system) == (
            False, expected,
        )
        assert check_validity_bruteforce(LiftedInequality(coeffs, 80), system) == (True, None)

    def test_huge_demand_outside_support_changes_nothing(self, knapsack_system):
        wide = make_system([[5, 10**12, 3, 2, 4]], [7], [1] * 5)
        for rhs in (1, 2):
            ok, point = check_validity_bruteforce(
                LiftedInequality((1, 1, 1, 1), rhs), knapsack_system
            )
            expected = (ok, None if ok else point[:1] + (0,) + point[1:])
            assert check_validity_bruteforce(
                LiftedInequality((1, 0, 1, 1, 1), rhs), wide
            ) == expected


def enumerate_validity(ineq, system):
    """``(ok, point)`` from all 2**n points, first violation in binary-code order."""
    n = system.n_cols
    for bits in itertools.product((0, 1), repeat=n):
        x = bits[::-1]  # product varies the last item fastest; bit i is x_i
        feasible = all(
            sum(int(a) * v for a, v in zip(row, x)) <= b
            for row, b in zip(system.matrix, system.rhs)
        )
        if feasible and sum(c * v for c, v in zip(ineq.coeffs, x)) > ineq.rhs:
            return False, x
    return True, None


def test_bruteforce_matches_full_enumeration():
    """Random and deliberately over-tight inequalities: same verdict, same witness."""
    rng = np.random.default_rng(17)
    violated = 0
    for trial in range(300):
        system = random_system(rng, max_cols=10, max_rows=3)
        n = system.n_cols
        coeffs = [int(c) for c in rng.integers(0, 4, size=n) * (rng.random(n) < 0.6)]
        top = max(coeffs)
        if trial % 2:  # over-tight: the rhs sits at the largest coefficient
            rhs = top
        else:
            rhs = int(rng.integers(top, sum(coeffs) + 2))
        ineq = LiftedInequality(tuple(coeffs), rhs)
        expected = enumerate_validity(ineq, system)
        assert check_validity_bruteforce(ineq, system) == expected, (
            system.matrix, system.rhs, coeffs, rhs,
        )
        violated += not expected[0]
    assert violated > 50  # the sample exercised the witness, not only validity


class TestCheckCumulative:
    def test_capacity_equals_peak(self):
        ok, tau = check_cumulative(Schedule((0, 0)), LiftedInequality((1, 1), 2), [2, 2])
        assert ok and tau is None

    def test_overload_at_zero(self):
        ok, tau = check_cumulative(Schedule((0, 0)), LiftedInequality((1, 1), 1), [2, 2])
        assert not ok and tau == 0

    def test_staggered_schedule_fits(self):
        ok, _ = check_cumulative(
            Schedule((0, 2, 2, 4)), LiftedInequality((5, 3, 2, 4), 7), [2, 2, 2, 2]
        )
        assert ok


class TestSpan:
    def test_two_intervals(self):
        assert span(Schedule((0, 3)), [2, 2], [0, 1]) == 5

    def test_single_interval(self):
        assert span(Schedule((7,)), [4], [0]) == 4

    def test_coincident_intervals(self):
        assert span(Schedule((1, 1)), [2, 2], [0, 1]) == 2

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            span(Schedule((0,)), [1], [])


class TestCoverType:
    def test_requires_two_members(self):
        with pytest.raises(ValueError):
            Cover(members=(1,), source_row=0)

    def test_members_sorted(self):
        with pytest.raises(ValueError):
            Cover(members=(2, 1), source_row=0)

    def test_cover_inequality(self):
        ineq = Cover(members=(1, 2, 3), source_row=0).inequality(4)
        assert ineq.coeffs == (0, 1, 1, 1) and ineq.rhs == 2


def test_cover_inequalities_always_valid():
    """Any cover's indicator inequality holds over the single row it covers."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        system = random_system(rng, max_cols=8, max_rows=1)
        n = system.n_cols
        demands = system.matrix[0]
        rhs = int(system.rhs[0])
        for _ in range(5):
            size = int(rng.integers(2, n + 1)) if n >= 2 else 2
            if size > n:
                break
            members = tuple(sorted(rng.choice(n, size=size, replace=False)))
            if not is_cover(members, demands, rhs):
                continue
            cover = Cover(members=members, source_row=0)
            ok, point = check_validity_bruteforce(cover.inequality(n), system)
            assert ok, (members, demands, rhs, point)


def test_dominated_implies_valid():
    """A dominated inequality is implied by its dominating row, hence valid."""
    rng = np.random.default_rng(13)
    found = 0
    for _ in range(300):
        system = random_system(rng, max_cols=7, max_rows=2)
        n = system.n_cols
        rhs = int(rng.integers(0, 12))
        coeffs = tuple(int(rng.integers(0, min(5, rhs) + 1)) for _ in range(n))
        ineq = LiftedInequality(coeffs, rhs)
        if is_dominated(ineq, system):
            found += 1
            ok, point = check_validity_bruteforce(ineq, system)
            assert ok, (coeffs, rhs, system.matrix, system.rhs, point)
    assert found > 10  # the sample actually exercised the property
