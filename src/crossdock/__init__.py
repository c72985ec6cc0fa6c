"""Crossdock truck-to-dock assignment toolkit.

Implements the CROSS-DOCK MILP formulation and its rectified R-CROSS-DOCK
variant as executable evaluators, exact and heuristic solvers, an
infeasibility diagnoser, and an LP-format exporter for external
cross-validation.
"""

from .model import (
    EPS,
    UNASSIGNED,
    Instance,
    InvalidInstanceError,
    ObjectiveBreakdown,
    Solution,
    ValidationIssue,
    compute_xhat,
    event_times,
    instance_flags,
    total_penalty_constant,
    validate_instance,
    validation_issues,
)
from .formulations import (
    ConstraintFamily,
    ConstraintId,
    Formulation,
    Violation,
    ViolationReport,
    check_solution,
    objective_value,
)

__version__ = "0.1.0"
