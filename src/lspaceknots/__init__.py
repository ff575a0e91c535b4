"""Exact invariants of L-space knots.

Sparse integer Alexander polynomials, iterated-torus knot expressions, the
gap-set complements ("formal semigroups") read off the Alexander polynomial,
exact piecewise-linear upsilon functions, and the obstructions that separate
L-space iterated torus knots from algebraic knots.
"""

from .errors import (
    ConstraintError,
    DomainError,
    InfiniteComplement,
    NotDivisible,
    NotIteratedTorus,
    NotLSpace,
    NotLSpaceShape,
    OutOfDomain,
    ParseError,
    Undefined,
)
from .intpoly import (
    IntPolynomial,
    cable_alexander,
    parse_polynomial,
    poly_exact_div,
    substitute_power,
    torus_alexander,
)
from .knotexpr import (
    Algebraicity,
    Cable,
    ExplicitAlexander,
    KnotCombination,
    KnotExpr,
    LSpaceStatus,
    PRETZEL_P237,
    UNKNOT,
    alexander,
    cable,
    certify_lspace,
    classify_algebraic,
    combination,
    explicit_alexander,
    genus,
    iterated_torus_generators,
    jfamily,
    parse,
    torus,
    tower,
)
from .obstruct import (
    Decomposition,
    JumpComparison,
    ObstructionReport,
    Verdict,
    algebraicity_report,
    decompose_into_consecutive_torus,
    independence_matrix,
    jump_equality,
    lambda_invariant,
)
from .semigroup import (
    FormalSemigroup,
    cable_semigroup,
    closure_witness,
    from_alexander,
    from_generators,
    from_members,
    min_nonzero,
    to_alexander,
)
from .upsilon import (
    PiecewiseLinear,
    envelope,
    jump_spectrum,
    pl_combine,
    torus_consecutive_upsilon,
    upsilon_from_semigroup,
    upsilon_of_combination,
    upsilon_of_knot,
)
