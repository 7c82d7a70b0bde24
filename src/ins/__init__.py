"""Interval neutrosophic set algebra.

Sets whose elements carry three independent interval-valued membership
degrees (truth, indeterminacy, falsity). The package provides the full
set-theoretic operator algebra with seeded law checking, sampled convexity
checking for sets over Euclidean space, a text format plus expression
language, and the ``ins`` command-line tool.
"""

from .convexity import (
    Box,
    ConvexityReport,
    FunctionalINS,
    NO_VIOLATION,
    VIOLATED,
    Witness,
    check_convex,
    check_strongly_convex,
    intersect_functional,
)
from .core import (
    DiscreteINS,
    EMPTY_VALUE,
    NeutrosophicValue,
    PairedINS,
    UNIVERSAL_VALUE,
    UnitInterval,
    add,
    cartesian_product,
    complement,
    difference,
    empty_set,
    equals,
    false_favorite,
    intersect,
    is_contained,
    is_empty,
    nv,
    pointwise_product,
    scalar_div,
    scalar_mul,
    truth_favorite,
    union,
    universal_set,
)
from .dsl import (
    Environment,
    Expr,
    evaluate,
    format_expr,
    format_set,
    parse_expr,
    parse_sets,
    set_to_json,
)
from .errors import (
    DimensionMismatch,
    InsError,
    InvalidDomain,
    InvalidInterval,
    InvalidParameter,
    NonPositiveScalar,
    SourceError,
    UniverseMismatch,
    UnknownFamily,
    UnknownLaw,
)
from .families import bimodal, gaussian, parse_family, triangular
from .laws import ALL_CHECKS, CLI_LAWS, LawResult, run_all_laws, run_law
from .sampling import (
    random_set,
    random_subset,
    random_superset,
    random_universe,
    rng_from_seed,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # value types and operators
    "UnitInterval",
    "NeutrosophicValue",
    "DiscreteINS",
    "PairedINS",
    "EMPTY_VALUE",
    "UNIVERSAL_VALUE",
    "nv",
    "empty_set",
    "universal_set",
    "complement",
    "is_contained",
    "equals",
    "is_empty",
    "union",
    "intersect",
    "difference",
    "add",
    "pointwise_product",
    "cartesian_product",
    "scalar_mul",
    "scalar_div",
    "truth_favorite",
    "false_favorite",
    # sampling
    "rng_from_seed",
    "random_universe",
    "random_set",
    "random_superset",
    "random_subset",
    # laws
    "LawResult",
    "CLI_LAWS",
    "ALL_CHECKS",
    "run_law",
    "run_all_laws",
    # convexity
    "Box",
    "FunctionalINS",
    "Witness",
    "ConvexityReport",
    "NO_VIOLATION",
    "VIOLATED",
    "check_convex",
    "check_strongly_convex",
    "intersect_functional",
    "triangular",
    "gaussian",
    "bimodal",
    "parse_family",
    # text formats
    "Environment",
    "Expr",
    "parse_expr",
    "parse_sets",
    "evaluate",
    "format_set",
    "format_expr",
    "set_to_json",
    # errors
    "InsError",
    "InvalidInterval",
    "InvalidParameter",
    "UniverseMismatch",
    "NonPositiveScalar",
    "DimensionMismatch",
    "InvalidDomain",
    "UnknownLaw",
    "UnknownFamily",
    "SourceError",
]
