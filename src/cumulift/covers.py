"""Seed-cover enumeration: short covers per pair scan, long uniform covers.

Short covers have cardinality two or three.  Every covering pair is kept;
each non-covering pair {i, j} is completed to a ternary cover by the
longest task k outside the pair whose demand exceeds the slack
``b - a_i - a_j``, when one exists.  Long covers group tasks by equal
demand v and take the k longest / k shortest of a group, with k the
smallest count for which k*v exceeds the capacity.

Every function returns a plain list holding the first cover found for each
member set, in generation order; ``Cover.rule`` names the rule that found
it.  Only short covers compete for the ``n_cover`` budget; long covers are
appended after the cut.  All tie-breaks are by lowest column index so the
output is reproducible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .instance import DemandSystem
from .polyhedral import Cover

# Generation rules in the order the stats list them; the first two are short.
RULES = ("binary", "ternary", "long_max", "long_min")
SHORT_RULES = RULES[:2]


def _first_per_member_set(covers: Iterable[Cover]) -> List[Cover]:
    """Drop every cover whose member set an earlier cover already has."""
    unique: Dict[Tuple[int, ...], Cover] = {}
    for cover in covers:
        unique.setdefault(cover.members, cover)
    return list(unique.values())


def _prefix_top3(order: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """For each prefix of ``order``, the top-3 columns by (duration desc, index asc).

    Row L of the result describes the prefix of length L; unused slots are -1.
    """
    n = order.size
    top3 = np.full((n + 1, 3), -1, dtype=np.int64)
    best: List[int] = []
    for length in range(1, n + 1):
        col = int(order[length - 1])
        best.append(col)
        best.sort(key=lambda c: (-int(durations[c]), c))
        del best[3:]
        top3[length, : len(best)] = best
    return top3


def enumerate_short_covers(system: DemandSystem, include_ternary: bool = True) -> List[Cover]:
    """All binary covers plus the completed ternary covers, row by row."""
    durations = system.durations
    n = system.n_cols
    if n < 2:
        return []
    i_idx, j_idx = np.triu_indices(n, 1)
    covers: List[Cover] = []
    for row in range(system.n_rows):
        a = system.matrix[row]
        b = int(system.rhs[row])
        pair_sums = a[i_idx] + a[j_idx]
        covering = pair_sums > b
        # The task completing each pair to a ternary cover, or -1 for none.
        third = np.full(i_idx.size, -1, dtype=np.int64)

        if include_ternary:
            # Demand-descending order; the eligible set for a slack t is a
            # prefix of it, so the completing task comes from a prefix top-3
            # (two slots may be burned by i and j themselves).
            order = np.lexsort((np.arange(n), -a))
            a_desc = a[order]
            top3 = _prefix_top3(order, durations)
            non_pos = np.flatnonzero(~covering)
            if non_pos.size:
                slack = b - pair_sums[non_pos]
                prefix_len = np.searchsorted(-a_desc, -slack, side="left")
                cand = top3[prefix_len]
                ii = i_idx[non_pos]
                jj = j_idx[non_pos]
                valid = (cand >= 0) & (cand != ii[:, None]) & (cand != jj[:, None])
                has = valid.any(axis=1)
                first = np.argmax(valid, axis=1)
                third[non_pos[has]] = cand[has, first[has]]

        kept = np.flatnonzero(covering | (third >= 0))
        for i, j, k in zip(i_idx[kept].tolist(), j_idx[kept].tolist(), third[kept].tolist()):
            if k < 0:
                covers.append(Cover((i, j), row, "binary"))
            else:
                covers.append(Cover(tuple(sorted((i, j, k))), row, "ternary"))
    return _first_per_member_set(covers)


def enumerate_long_covers(
    system: DemandSystem, max_cardinality: Optional[int] = None
) -> List[Cover]:
    """Uniform-demand covers: per demand value v, the k longest and k shortest."""
    durations = system.durations
    covers: List[Cover] = []
    for row in range(system.n_rows):
        a = system.matrix[row]
        b = int(system.rhs[row])
        for v in np.unique(a[a > 0]):
            k = b // int(v) + 1
            if max_cardinality is not None and k > max_cardinality:
                continue
            group = np.flatnonzero(a == v)
            if group.size < k:
                continue
            dgrp = durations[group]
            longest = group[np.lexsort((group, -dgrp))[:k]]
            shortest = group[np.lexsort((group, dgrp))[:k]]
            covers.append(Cover(tuple(sorted(longest.tolist())), row, "long_max"))
            covers.append(Cover(tuple(sorted(shortest.tolist())), row, "long_min"))
    return _first_per_member_set(covers)


def select_top_covers(
    covers: Sequence[Cover], durations: Sequence[int], limit: int
) -> List[Cover]:
    """Rank short covers by capacity bound, keep ``limit``, append long covers.

    The capacity bound of a cover inequality is ``sum(d) / (|C| - 1)``.  A
    short cover has two or three members, so twice the bound is the integer
    ``2 * sum(d) // (|C| - 1)`` and ranks them exactly.  Sorting is stable,
    so equal bounds keep generation order.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    d = np.asarray(durations).tolist()
    shorts = [c for c in covers if c.rule in SHORT_RULES]
    longs = [c for c in covers if c.rule not in SHORT_RULES]
    shorts.sort(
        key=lambda c: 2 * sum(d[i] for i in c.members) // (len(c.members) - 1),
        reverse=True,
    )
    return shorts[:limit] + longs


def seed_covers(
    system: DemandSystem, max_cardinality: Optional[int] = None
) -> List[Cover]:
    """Run both enumeration rules, honoring a cardinality cap.

    A cap of 2 is disjunctive-only mode: no ternary completion and no long
    covers at all.
    """
    if max_cardinality is not None and max_cardinality < 3:
        return enumerate_short_covers(system, include_ternary=False)
    longs = enumerate_long_covers(system, max_cardinality=max_cardinality)
    return _first_per_member_set(enumerate_short_covers(system) + longs)
