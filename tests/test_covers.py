from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cumulift.covers import (
    RULES,
    enumerate_long_covers,
    enumerate_short_covers,
    seed_covers,
    select_top_covers,
)
from cumulift.instance import to_demand_system
from cumulift.lifting import LiftingConfig, run_pipeline
from cumulift.polyhedral import Cover, capacity_bound, is_cover

from conftest import (
    make_system,
    random_system,
    reference_seed_covers,
    reference_select,
    reference_short_covers,
    synthetic_project,
)


def tagged(covers):
    return [(c.members, c.rule) for c in covers]


class TestShortCovers:
    def test_fixture_enumeration(self, knapsack_system):
        covers = enumerate_short_covers(knapsack_system)
        assert tagged(covers) == [
            ((0, 1), "binary"),
            ((0, 2, 3), "ternary"),   # pair (0,2) completed by the longest task 3
            ((0, 3), "binary"),
            ((1, 2, 3), "ternary"),   # pair (1,2), K = {0, 3}, task 3 longer
            ((0, 1, 3), "ternary"),   # pair (1,3), tie on duration -> lowest index 0
        ]

    def test_no_covers_when_demands_zero(self):
        # Raw system bypassing projection invariants on purpose.
        system = make_system([[0, 0, 0]], [3], [1, 1, 1])
        assert len(enumerate_short_covers(system)) == 0
        covers = seed_covers(system)
        assert len(covers) == 0 and list(covers) == []
        assert covers.rule_counts() == dict.fromkeys(RULES, 0)
        assert select_top_covers(covers, system.durations, 100) == []

    def test_no_covers_below_two_columns(self):
        system = make_system([[3], [1]], [3, 2], [4])
        for cap in (None, 2, 3):
            covers = seed_covers(system, max_cardinality=cap)
            assert len(covers) == 0 and list(covers) == []
            assert covers.rule_counts() == dict.fromkeys(RULES, 0)
            assert select_top_covers(covers, system.durations, 5) == []

    def test_all_pairs_cover(self):
        system = make_system([[2, 2, 2]], [3], [4, 5, 6])
        covers = enumerate_short_covers(system)
        assert tagged(covers) == [
            ((0, 1), "binary"),
            ((0, 2), "binary"),
            ((1, 2), "binary"),
        ]

    def test_every_cover_covers_its_row(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            system = random_system(rng, max_cols=9, max_rows=3)
            for cover in enumerate_short_covers(system):
                row = cover.source_row
                assert is_cover(cover.members, system.matrix[row], int(system.rhs[row]))

    def test_binary_completeness_against_bruteforce(self):
        rng = np.random.default_rng(22)
        for _ in range(120):
            system = random_system(rng, max_cols=12, max_rows=2)
            got = {
                (c.members, c.source_row)
                for c in enumerate_short_covers(system, include_ternary=False)
            }
            expected = set()
            seen = set()
            for r in range(system.n_rows):
                a = system.matrix[r]
                b = int(system.rhs[r])
                for i, j in combinations(range(system.n_cols), 2):
                    if a[i] + a[j] > b and (i, j) not in seen:
                        seen.add((i, j))
                        expected.add(((i, j), r))
            assert got == expected

    def test_ternary_rule_picks_longest_eligible(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            system = random_system(rng, max_cols=9, max_rows=2)
            seen = set()
            for cover in enumerate_short_covers(system):
                seen.add(cover.members)
                if cover.rule != "ternary":
                    continue
                r = cover.source_row
                a = system.matrix[r]
                b = int(system.rhs[r])
                d = system.durations
                # Recover the generating pair: the two members that do not cover.
                pairs = [
                    p for p in combinations(cover.members, 2)
                    if a[p[0]] + a[p[1]] <= b
                ]
                assert pairs
                valid_third = False
                for i, j in pairs:
                    (k,) = set(cover.members) - {i, j}
                    eligible = [
                        c for c in range(system.n_cols)
                        if c not in (i, j) and a[c] > b - a[i] - a[j]
                    ]
                    if not eligible:
                        continue
                    best = min(eligible, key=lambda c: (-int(d[c]), c))
                    if k == best:
                        valid_third = True
                assert valid_third, (cover, system.matrix, system.rhs)

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            system = random_system(rng, max_cols=10, max_rows=3)
            assert tagged(enumerate_short_covers(system)) == tagged(
                enumerate_short_covers(system)
            )


class TestLongCovers:
    def test_uniform_group(self):
        system = make_system([[2, 2, 2, 2]], [3], [5, 1, 2, 3])
        covers = enumerate_long_covers(system)
        assert tagged(covers) == [
            ((0, 3), "long_max"),  # two longest: durations 5 and 3
            ((1, 2), "long_min"),  # two shortest: durations 1 and 2
        ]

    def test_singleton_groups_produce_nothing(self, knapsack_system):
        assert len(enumerate_long_covers(knapsack_system)) == 0

    def test_degenerate_group_emitted_once(self):
        system = make_system([[2, 2]], [3], [4, 4])
        covers = enumerate_long_covers(system)
        assert tagged(covers) == [((0, 1), "long_max")]

    def test_cardinality_cap(self):
        system = make_system([[1, 1, 1, 1, 1]], [3], [1, 2, 3, 4, 5])
        covers = enumerate_long_covers(system)  # k = 4 out of a group of 5
        assert tagged(covers) == [
            ((1, 2, 3, 4), "long_max"),
            ((0, 1, 2, 3), "long_min"),
        ]
        assert len(enumerate_long_covers(system, max_cardinality=3)) == 0


class TestSelectTop:
    def test_fixture_ranking(self, knapsack_system):
        covers = seed_covers(knapsack_system)
        selected = select_top_covers(covers, knapsack_system.durations, 100)
        assert [c.members for c in selected] == [
            (0, 3),       # capacity bound 3
            (0, 1),       # the bound-2 group keeps generation order
            (0, 2, 3),
            (1, 2, 3),
            (0, 1, 3),
        ]
        n = knapsack_system.n_cols
        bounds = [capacity_bound(c.inequality(n), knapsack_system.durations) for c in selected]
        assert bounds == [Fraction(3), 2, 2, 2, 2]

    def test_integer_rank_matches_capacity_bound_sort(self):
        # Reference: a stable sort of the short covers by their exact
        # (Fraction) capacity bound.
        rng = np.random.default_rng(25)
        for _ in range(60):
            system = random_system(rng, max_cols=10, max_rows=3)
            covers = seed_covers(system)
            shorts = [c for c in covers if c.rule in ("binary", "ternary")]
            n = system.n_cols
            expected = sorted(
                shorts,
                key=lambda c: capacity_bound(c.inequality(n), system.durations),
                reverse=True,
            )
            top = select_top_covers(covers, system.durations, len(shorts))
            assert top[: len(shorts)] == expected

    def test_limit_zero_keeps_only_long(self):
        # Demands 2 against capacity 5: pairs never cover, k = 3, and the
        # three shortest tasks are not any ternary completion, so a genuine
        # long cover survives the cut.
        system = make_system([[2, 2, 2, 2]], [5], [5, 1, 2, 3])
        covers = seed_covers(system)
        selected = select_top_covers(covers, system.durations, 0)
        assert [(c.members, c.rule) for c in selected] == [((1, 2, 3), "long_min")]

    def test_limit_one(self, knapsack_system):
        covers = seed_covers(knapsack_system)
        selected = select_top_covers(covers, knapsack_system.durations, 1)
        assert [c.members for c in selected] == [(0, 3)]

    def test_negative_limit_rejected(self, knapsack_system):
        covers = seed_covers(knapsack_system)
        with pytest.raises(ValueError):
            select_top_covers(covers, knapsack_system.durations, -1)

    def test_long_covers_not_truncated(self):
        system = make_system([[2, 2, 2, 2]], [5], [5, 1, 2, 3])
        covers = seed_covers(system)
        selected = select_top_covers(covers, system.durations, 1)
        rules = [c.rule for c in selected]
        assert rules.count("binary") + rules.count("ternary") == 1
        assert "long_min" in rules


class TestDedup:
    def test_long_duplicate_of_short_keeps_short_tag(self):
        # All pairs are binary covers; the long rule rediscovers (0, 1).
        system = make_system([[1, 1]], [1], [2, 2])
        covers = seed_covers(system)
        assert tagged(covers) == [((0, 1), "binary")]

    def test_cross_row_duplicate_keeps_first_row(self):
        system = make_system([[3, 3], [2, 2]], [4, 3], [1, 1])
        covers = enumerate_short_covers(system)
        assert [(c.members, c.source_row) for c in covers] == [((0, 1), 0)]


def members_rows_rules(covers):
    return [(c.members, c.source_row, c.rule) for c in covers]


class TestAgainstListReference:
    def test_seed_select_and_counts_match_reference(self):
        rng = np.random.default_rng(27)
        cross_row = same_row_triples = long_repeats = 0
        for _ in range(240):
            system = random_system(rng, max_cols=12, max_rows=3)
            d = system.durations
            raw = reference_short_covers(system)
            rows_of = defaultdict(set)
            for c in raw:
                rows_of[c.members].add(c.source_row)
            cross_row += sum(len(rows) > 1 for rows in rows_of.values())
            per_row = Counter((c.members, c.source_row) for c in raw if c.rule == "ternary")
            same_row_triples += sum(count > 1 for count in per_row.values())
            long_repeats += sum(c.members in rows_of for c in enumerate_long_covers(system))
            for cap in (None, 2, 3):
                expected = reference_seed_covers(system, cap)
                covers = seed_covers(system, max_cardinality=cap)
                assert members_rows_rules(covers) == members_rows_rules(expected)
                assert len(covers) == len(expected)
                counts = Counter(c.rule for c in expected)
                assert covers.rule_counts() == {rule: counts[rule] for rule in RULES}
                shorts = counts["binary"] + counts["ternary"]
                for limit in sorted({0, 1, shorts // 2, shorts}):
                    got = select_top_covers(covers, d, limit)
                    assert members_rows_rules(got) == members_rows_rules(
                        reference_select(expected, d, limit)
                    ), (cap, limit, system.matrix, system.rhs, d)
        # The corpus exercises every way a member set can repeat.
        assert cross_row > 0
        assert same_row_triples > 0
        assert long_repeats > 0


def test_pipeline_builds_covers_only_for_survivors(monkeypatch):
    # Short covers stay arrays until selection; only the n_cover survivors
    # and the long covers become objects (lifting builds none).
    instance = synthetic_project(200, seed=0)
    n_long = len(enumerate_long_covers(to_demand_system(instance)))
    built = []
    original = Cover.__post_init__

    def counting(self):
        built.append(self.members)
        original(self)

    monkeypatch.setattr(Cover, "__post_init__", counting)
    config = LiftingConfig()
    run_pipeline(instance, config)
    assert 0 < len(built) <= config.n_cover + n_long
