"""Infer redundant cumulative constraints for scheduling models.

The pipeline: parse an instance, rewrite its resource constraints as one
linear inequality per resource over task occupancy indicators, enumerate
covers (task sets that cannot all run at once), lift each cover inequality
exactly, and report the strongest results together with the search-less
makespan lower bounds they certify.
"""

from .covers import (
    SeedCovers,
    enumerate_long_covers,
    enumerate_short_covers,
    seed_covers,
    select_top_covers,
)
from .errors import (
    CumuliftError,
    EmptySupport,
    InconsistentCounts,
    InfeasibleTask,
    MalformedInput,
    NegativeValue,
    PositiveCycle,
    TooLarge,
    VerificationFailed,
    ZeroCapacity,
)
from .instance import (
    DemandSystem,
    InstanceKind,
    PrecedenceArc,
    Resource,
    SchedulingInstance,
    Task,
    encode_canonical,
    parse_canonical,
    to_demand_system,
)
from .lifting import (
    InferenceStats,
    InferredConstraint,
    LiftingConfig,
    SkipSet,
    infer_constraints,
    lift_cover,
    run_pipeline,
)
from .parsers import InstanceFormat, detect_format, parse_instance
from .polyhedral import (
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
from .report import (
    InferenceReport,
    ReportConstraint,
    ReportFormat,
    compute_searchless_lb,
    emit_report,
    export_parallelism_graph,
    parse_report,
    precedence_path_lb,
)

__version__ = "0.1.0"
