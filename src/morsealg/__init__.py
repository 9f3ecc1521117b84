"""Exact ladder-operator algebra for the Morse oscillator.

A scalar is a rational times one radical unit i^m * sqrt(r), functions
live in the closed family exp(-y/2) * y^s * P(y) with Laurent P, and
operators act on that family exactly; eigenvalues and ladder relations are
therefore verified by identity, not numerically.
"""

from .functions import Comparison, LaurentPoly, WeightedFunction
from .model import (
    MorseState,
    NonBoundError,
    PhysicalParams,
    laguerre,
    make_state,
    normalization,
    physical_map,
    weight_exponent,
)
from .operators import (
    DiffOp,
    OpClass,
    UndefinedOperatorError,
    commutator,
    k0_diff,
    k0_prime_composed,
    k0_prime_simplified,
    k_minus,
    k_plus,
    naive_commutator,
    naive_commutator_coefficient,
    schrodinger_diff,
)
from .plot import render_plot
from .scalars import (
    NotRationalError,
    RadicalScalar,
    sqrt_of_rational,
)
from .scan import (
    CSV_HEADER,
    CellRecord,
    InvariantResult,
    ScanReport,
    SignClass,
    Summary,
    compute_cell,
    read_report,
    run_invariant_suite,
    scan,
    summarize,
    write_report,
)
from .spectral import (
    EigenResult,
    EigenStatus,
    LadderOutcome,
    ZeroStateError,
    eigenvalue_composed,
    eigenvalue_three,
    extract_eigenvalue,
    verify_lowering,
    verify_raising,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CellRecord",
    "Comparison",
    "DiffOp",
    "EigenResult",
    "EigenStatus",
    "InvariantResult",
    "LadderOutcome",
    "LaurentPoly",
    "MorseState",
    "NonBoundError",
    "NotRationalError",
    "OpClass",
    "PhysicalParams",
    "RadicalScalar",
    "ScanReport",
    "SignClass",
    "Summary",
    "UndefinedOperatorError",
    "WeightedFunction",
    "ZeroStateError",
    "commutator",
    "compute_cell",
    "eigenvalue_composed",
    "eigenvalue_three",
    "extract_eigenvalue",
    "k0_diff",
    "k0_prime_composed",
    "k0_prime_simplified",
    "k_minus",
    "k_plus",
    "laguerre",
    "make_state",
    "naive_commutator",
    "naive_commutator_coefficient",
    "normalization",
    "physical_map",
    "read_report",
    "render_plot",
    "run_invariant_suite",
    "scan",
    "schrodinger_diff",
    "sqrt_of_rational",
    "summarize",
    "verify_lowering",
    "verify_raising",
    "weight_exponent",
    "write_report",
]
