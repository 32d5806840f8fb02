"""Exact arithmetic for alternating floor-function sums.

Evaluation (definitional and closed form), mirror/difference symmetry
operators, exhaustive extremal search, known and conjectured bounds,
and the exact rational sequence behind the conjectured extremal values.
"""

__version__ = "0.1.0"

from .cache import CacheWarning, ResultCache, cached_extremes, sequence_table
from .conjecture import (
    Bound,
    BoundSpec,
    BoundsReport,
    ConjectureReport,
    PredictedSite,
    SiteCheck,
    f_sequence,
    f_value,
    known_bounds,
    predicted_extremes,
    recurrence_residual,
    verify_bounds,
    verify_conjecture,
)
from .core import (
    Instance,
    eval_closed,
    eval_closed_all_k,
    eval_direct,
    inner_term,
)
from .exceptions import (
    DivisibilityError,
    DomainError,
    FloorSumError,
    InstanceTooLargeError,
    TableViolationError,
)
from .search import ExtremeRecord, SearchSpace, extremes
from .symmetry import (
    CASE_VALUES,
    BoxRecord,
    CaseBConditions,
    DeltaCase,
    DeltaRecord,
    box,
    case_b_conditions,
    delta,
    mirror,
)

__all__ = [
    "__version__",
    "Bound",
    "BoundSpec",
    "BoundsReport",
    "BoxRecord",
    "CASE_VALUES",
    "CacheWarning",
    "CaseBConditions",
    "ConjectureReport",
    "DeltaCase",
    "DeltaRecord",
    "DivisibilityError",
    "DomainError",
    "ExtremeRecord",
    "FloorSumError",
    "Instance",
    "InstanceTooLargeError",
    "PredictedSite",
    "ResultCache",
    "SearchSpace",
    "SiteCheck",
    "TableViolationError",
    "box",
    "cached_extremes",
    "case_b_conditions",
    "delta",
    "eval_closed",
    "eval_closed_all_k",
    "eval_direct",
    "extremes",
    "f_sequence",
    "f_value",
    "inner_term",
    "known_bounds",
    "mirror",
    "predicted_extremes",
    "recurrence_residual",
    "sequence_table",
    "verify_bounds",
    "verify_conjecture",
]
