"""Show how the skip structure avoids redundant lifting work.

Ten tasks, each needing the whole of a unit-capacity resource: every pair
of tasks is a cover, so there are 45 seed covers.  Lifting the first pair
discovers that all ten tasks are pairwise disjoint, and the bookkeeping
set records that every pair inside those ten columns would just rediscover
the same constraint.  The remaining 44 covers are then skipped without a
single subproblem call.
"""

import numpy as np

from cumulift import DemandSystem, LiftingConfig, infer_constraints, seed_covers, select_top_covers

system = DemandSystem(
    matrix=np.ones((1, 10), dtype=np.int64),
    rhs=np.array([1]),
    durations=np.full(10, 3, dtype=np.int64),
    task_map=tuple(range(10)),
)

covers = seed_covers(system)
selected = select_top_covers(covers, system.durations, 100)
print(f"seed covers: {len(covers)} (all pairs of 10 tasks)")

kept, stats = infer_constraints(system, selected, LiftingConfig())

print(f"covers lifted:        {stats.constraints_lifted}")
print(f"covers skipped:       {stats.covers_skipped}")
print(f"subproblem calls:     {stats.subproblem_calls} "
      "(8 = one per column outside the first pair)")
print(f"dominated and dropped: {stats.covers_dominated} "
      "(the lifted constraint equals the original row)")
print()
print("without the skip structure this would have cost "
      f"{45 * 8} subproblem calls instead of {stats.subproblem_calls}.")
