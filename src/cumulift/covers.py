"""Seed-cover enumeration: short covers as arrays, long uniform covers as objects.

Short covers have cardinality two or three.  Every covering pair is kept;
each non-covering pair {i, j} is completed to a ternary cover by the
longest task k outside the pair whose demand exceeds the slack
``b - a_i - a_j``, when one exists.  Long covers group tasks by equal
demand v and take the k longest / k shortest of a group, with k the
smallest count for which k*v exceeds the capacity.

A short cover is never an object while it is enumerated, deduplicated and
ranked.  It is one int64 key: its sorted members as three digits in base
n + 1, where the digit n stands for the missing third member of a pair.
Covers are generated row by row, pairs in ``triu`` order within a row, and
only the first key of each member set is kept, so a cover keeps the row
and rule that found it first.  ``Cover`` objects are built only for the
long covers, for the short covers :func:`select_top_covers` keeps, and
when a :class:`SeedCovers` is iterated.  Only short covers compete for the
``n_cover`` budget; long covers are appended after the cut.  All
tie-breaks are by lowest column index so the output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .instance import DemandSystem
from .polyhedral import Cover

# Generation rules in the order the stats list them; the first two are short.
RULES = ("binary", "ternary", "long_max", "long_min")
# Short covers ranked per block, so ranking needs little memory beyond the ranks.
_CHUNK = 1 << 20


def _encode(low, mid, high, n: int):
    """Member-set key of the sorted members ``low < mid < high``; ``high = n`` marks a pair.

    Three digits below n + 1 <= 2**20 stay below 2**60, so for n < 2**20 the
    key fits int64.  No column is numbered n, so a pair and a triple never
    share a key.
    """
    base = n + 1
    return (np.asarray(low, dtype=np.int64) * base + mid) * base + high


def _decode(keys: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rest, high = np.divmod(keys, n + 1)
    low, mid = np.divmod(rest, n + 1)
    return low, mid, high


@dataclass(frozen=True, eq=False)
class SeedCovers:
    """The seed covers of a demand system.

    ``keys[row_starts[r]:row_starts[r + 1]]`` are the member-set keys of
    the short covers first found in row r, in generation order.  ``long``
    holds the long covers that repeat no short one.  ``len()`` counts every
    cover; iterating yields them all as ``Cover`` objects, short ones first.
    """

    n_cols: int
    keys: np.ndarray
    row_starts: np.ndarray
    long: Tuple[Cover, ...]

    def __len__(self) -> int:
        return self.keys.size + len(self.long)

    def __iter__(self) -> Iterator[Cover]:
        yield from self.short_covers(np.arange(self.keys.size))
        yield from self.long

    def short_covers(self, index: np.ndarray) -> List[Cover]:
        """``Cover`` objects for the short covers at ``index``, in that order."""
        n = self.n_cols
        rows = np.searchsorted(self.row_starts, index, side="right") - 1
        low, mid, high = (x.tolist() for x in _decode(self.keys[index], n))
        return [
            Cover((i, j), row, "binary") if k == n else Cover((i, j, k), row, "ternary")
            for i, j, k, row in zip(low, mid, high, rows.tolist())
        ]

    def rule_counts(self) -> Dict[str, int]:
        """How many covers each generation rule contributed."""
        counts = dict.fromkeys(RULES, 0)
        pairs = int(np.count_nonzero(self.keys % (self.n_cols + 1) == self.n_cols))
        counts["binary"] = pairs
        counts["ternary"] = self.keys.size - pairs
        for cover in self.long:
            counts[cover.rule] += 1
        return counts


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


def _row_keys(
    system: DemandSystem, row: int, i_idx: np.ndarray, j_idx: np.ndarray, include_ternary: bool
) -> np.ndarray:
    """Keys of the short covers one row generates, in pair order, repeats included."""
    n = system.n_cols
    a = system.matrix[row]
    b = int(system.rhs[row])
    pair_sums = a[i_idx] + a[j_idx]
    # The third member of each pair's cover: n for a binary cover, -1 for none.
    third = np.where(pair_sums > b, np.int32(n), np.int32(-1))

    if include_ternary:
        # Demand-descending order; the eligible set for a slack t is a
        # prefix of it, so the completing task comes from a prefix top-3.
        # i and j may burn two slots; a -1 slot ends the list, so the first
        # slot that is neither i nor j is the answer, -1 included.
        order = np.lexsort((np.arange(n), -a))
        top3 = _prefix_top3(order, system.durations).T.astype(np.int32)
        open_pairs = np.flatnonzero(third < 0)
        prefix_len = np.searchsorted(-a[order], pair_sums[open_pairs] - b, side="left")
        ii = i_idx[open_pairs]
        jj = j_idx[open_pairs]
        found = top3[0][prefix_len]
        for slot in (1, 2):
            burned = np.flatnonzero((found == ii) | (found == jj))
            found[burned] = top3[slot][prefix_len[burned]]
        third[open_pairs] = found

    kept = np.flatnonzero(third >= 0)
    i, j, k = i_idx[kept], j_idx[kept], third[kept]
    low = np.minimum(i, k)
    high = np.maximum(j, k)
    return _encode(low, i + j + k - low - high, high, n)


def _collect(
    system: DemandSystem, include_ternary: bool, long_covers: Sequence[Cover]
) -> SeedCovers:
    """Short covers row by row, first key per member set, then the new long covers."""
    n = system.n_cols
    i_idx, j_idx = (idx.astype(np.int32) for idx in np.triu_indices(n, 1))
    # Sorted keys of the short covers found so far, and a sentinel above every key.
    seen = np.array([np.iinfo(np.int64).max])
    parts = []
    for row in range(system.n_rows):
        keys = _row_keys(system, row, i_idx, j_idx, include_ternary)
        unique, first = np.unique(keys, return_index=True)
        fresh = seen[np.searchsorted(seen, unique)] != unique
        parts.append(keys[np.sort(first[fresh])])
        seen = np.insert(seen, np.searchsorted(seen, unique[fresh]), unique[fresh])
    # A long cover of two or three members may repeat a short one, which stays.
    longs = []
    for cover in long_covers:
        if len(cover.members) <= 3:
            key = _encode(*(cover.members + (n,))[:3], n)
            if seen[np.searchsorted(seen, key)] == key:
                continue
        longs.append(cover)
    row_starts = np.cumsum([0] + [part.size for part in parts])
    keys = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return SeedCovers(n, keys, row_starts, tuple(longs))


def enumerate_short_covers(system: DemandSystem, include_ternary: bool = True) -> SeedCovers:
    """All binary covers plus the completed ternary covers, row by row."""
    return _collect(system, include_ternary, ())


def enumerate_long_covers(
    system: DemandSystem, max_cardinality: Optional[int] = None
) -> List[Cover]:
    """Uniform-demand covers: per demand value v, the k longest and k shortest.

    Each member set is listed once, with the first row and rule that found it.
    """
    durations = system.durations
    covers: Dict[Tuple[int, ...], Cover] = {}
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
            for rule, members in (("long_max", longest), ("long_min", shortest)):
                key = tuple(sorted(members.tolist()))
                if key not in covers:
                    covers[key] = Cover(key, row, rule)
    return list(covers.values())


def select_top_covers(covers: SeedCovers, durations: Sequence[int], limit: int) -> List[Cover]:
    """Rank short covers by capacity bound, keep ``limit``, append long covers.

    The capacity bound of a cover inequality is ``sum(d) / (|C| - 1)``.  A
    short cover has two or three members, so twice the bound is the integer
    ``2 * sum(d) // (|C| - 1)`` and ranks them exactly.  Sorting is stable,
    so equal bounds keep generation order.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    n = covers.n_cols
    d = np.append(np.asarray(durations, dtype=np.int64), 0)
    rank = np.empty(covers.keys.size, dtype=np.int64)
    for start in range(0, rank.size, _CHUNK):
        low, mid, high = _decode(covers.keys[start : start + _CHUNK], n)
        rank[start : start + _CHUNK] = (d[low] + d[mid] + d[high]) << (high == n)
    if 0 < limit < rank.size:
        # Only ranks at least the limit-th largest can make the cut.
        cut = np.partition(rank, rank.size - limit)[rank.size - limit]
        candidates = np.flatnonzero(rank >= cut)
    else:
        candidates = np.arange(rank.size)
    top = candidates[np.argsort(-rank[candidates], kind="stable")[:limit]]
    return covers.short_covers(top) + list(covers.long)


def seed_covers(system: DemandSystem, max_cardinality: Optional[int] = None) -> SeedCovers:
    """Run both enumeration rules, honoring a cardinality cap.

    A cap of 2 is disjunctive-only mode: no ternary completion and no long
    covers at all.
    """
    if max_cardinality is not None and max_cardinality < 3:
        return enumerate_short_covers(system, include_ternary=False)
    return _collect(system, True, enumerate_long_covers(system, max_cardinality))
