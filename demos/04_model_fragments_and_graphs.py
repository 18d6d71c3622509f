"""Export artifacts for downstream tools: model fragments and DOT graphs.

The inferred inequalities translate one-to-one into cumulative constraints
over the original task ids, ready to paste into a MiniZinc model; the
parallelism graph shows which task pairs may overlap at all, the
complement of pairwise disjointness.
"""

from cumulift import (
    InstanceFormat,
    LiftingConfig,
    export_parallelism_graph,
    parse_instance,
    run_pipeline,
    to_demand_system,
)
from cumulift.fixtures import FIXTURE_RCP
from cumulift.report import fragment_from_report

instance = parse_instance(FIXTURE_RCP, InstanceFormat.PATTERSON_RCP, name="fixture")
report = run_pipeline(instance, LiftingConfig())

print("MiniZinc fragment (arrays in original task order, dummies get usage 0):")
print(fragment_from_report(instance, report))

print("parallelism graph (edge = the pair fits together on every resource):")
print(export_parallelism_graph(to_demand_system(instance)))
