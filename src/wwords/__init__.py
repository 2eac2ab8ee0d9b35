"""Exact engine for coloured-partition systems built from weighted words.

The package models systems of coloured integer partitions with gap
conditions, expands their generating functions by two independent methods
(direct enumeration and a part-by-part recurrence, whose largest-part
tables also answer the G/E lookups of equation checks), expands
infinite products exactly, and checks the resulting identities coefficient
by coefficient to a configurable truncation order.
"""

from .algebra import (
    AlgebraError,
    FactorizationError,
    Monomial,
    Polynomial,
    ProductFactor,
    ProductSpec,
    ProductSpecError,
    SubstitutionError,
    SubstitutionMap,
    TruncatedSeries,
    TruncationMismatch,
    euler_factorize,
    product_expand,
    substitute,
)
from .enumeration import (
    EnumerationLimitError,
    count_partitions,
    enumerate_series,
    list_partitions,
    partition_weight,
)
from .recurrence import (
    EqTerm,
    EquationRangeError,
    EquationSpec,
    RecurrenceError,
    RecurrenceState,
    builtin_equation,
    builtin_equations,
    check_equation,
    dp_series,
)
from .systems import (
    ColourDef,
    ColouredPart,
    ColouredSystem,
    DilationSpec,
    MatrixGap,
    RankRule,
    SizeDomain,
    SystemSpecError,
    build_preset,
    dilate_system,
    preset_names,
    relabel_colours,
    statistic_substitution,
)
from .discovery import (
    DiscoveryError,
    recognize_periodic_product,
    search_relations,
)
from .verify import (
    IdentityCase,
    VerificationError,
    check_statistics,
    coefficient_table,
    format_coefficient_table,
    identity_case,
    identity_cases,
    identity_names,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "FactorizationError",
    "Monomial",
    "Polynomial",
    "ProductFactor",
    "ProductSpec",
    "ProductSpecError",
    "SubstitutionError",
    "SubstitutionMap",
    "TruncatedSeries",
    "TruncationMismatch",
    "euler_factorize",
    "product_expand",
    "substitute",
    "EnumerationLimitError",
    "count_partitions",
    "enumerate_series",
    "list_partitions",
    "partition_weight",
    "EqTerm",
    "EquationRangeError",
    "EquationSpec",
    "RecurrenceError",
    "RecurrenceState",
    "builtin_equation",
    "builtin_equations",
    "check_equation",
    "dp_series",
    "ColourDef",
    "ColouredPart",
    "ColouredSystem",
    "DilationSpec",
    "MatrixGap",
    "RankRule",
    "SizeDomain",
    "SystemSpecError",
    "build_preset",
    "dilate_system",
    "preset_names",
    "relabel_colours",
    "statistic_substitution",
    "IdentityCase",
    "VerificationError",
    "check_statistics",
    "coefficient_table",
    "format_coefficient_table",
    "identity_case",
    "identity_cases",
    "identity_names",
    "verify_identity",
    "DiscoveryError",
    "recognize_periodic_product",
    "search_relations",
    "__version__",
]
