"""Obstructions to algebraicity and concordance-independence certificates.

Four independent checks are combined here.  Closure: the gap set of an
algebraic knot is closed under addition.  Jump equality: any integer
combination of upsilon functions of consecutive torus knots T(n, n+1) has
equal derivative jumps at 2/p and 4/p for every odd p >= 3, so an unequal
pair rules out such an expansion up to concordance.  Decomposition: the
upsilon function of an algebraic knot is a nonnegative integer sum of
consecutive-torus upsilons; greedy peeling at the least singularity recovers
the expansion whenever one exists (the basis element with the largest n is
the only one reaching the least breakpoint, which makes the coefficients
unique and a failure a genuine certificate).  Index criterion: an iterated
torus knot is algebraic exactly when q_{i+1} > p_i q_i p_{i+1} holds at
every cabling stage.

The normalized jump difference lambda(k) = (jump at 2/(2k-1) - jump at
4/(2k-1)) / (2k-1) vanishes on every combination of consecutive-torus
upsilons; evaluated on the J(k) family it yields a lower-triangular matrix
with unit diagonal, certifying independence at any finite truncation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import knotexpr, semigroup, upsilon
from ._record import frozen
from .errors import ConstraintError, DomainError
from .knotexpr import Algebraicity, Certificate, KnotExpr
from .upsilon import PiecewiseLinear, jump_spectrum, pl_combine, torus_consecutive_upsilon

TWO = Fraction(2)


class DecompositionFailure(Enum):
    NON_DYADIC_LOCATION = "non-dyadic-location"
    RESIDUAL_NONZERO = "residual-nonzero"


@frozen
class Decomposition:
    """Outcome of expanding a function in the consecutive-torus upsilon basis.

    On success ``coefficients`` maps n to the (possibly rational, possibly
    negative) coefficient of the T(n, n+1) upsilon and recombining them
    reproduces the input exactly; on failure they are None and the location
    of the unpeelable singularity is recorded.
    """

    coefficients: tuple[tuple[int, Fraction], ...] | None
    all_integer: bool
    all_nonnegative: bool
    failure_location: Fraction | None = None
    failure_reason: DecompositionFailure | None = None

    @property
    def succeeded(self) -> bool:
        return self.coefficients is not None

    def coefficient_dict(self) -> dict[int, Fraction]:
        return dict(self.coefficients or ())


def decompose_into_consecutive_torus(f: PiecewiseLinear) -> Decomposition:
    """Greedy expansion of f in the upsilon functions of T(n, n+1).

    Repeatedly looks at the least breakpoint t1 of the residual: unless
    t1 = 2/n for an integer n >= 2 the expansion fails, otherwise the
    coefficient jump(t1)/n is peeled off.  The least breakpoint strictly
    increases, so n strictly decreases and the loop terminates.
    """
    if f(0) != 0:
        raise DomainError("decomposition needs f(0) = 0")
    if f.mirrored() != f:
        raise DomainError("decomposition needs the symmetry f(t) = f(2 - t)")
    coeffs: dict[int, Fraction] = {}
    residual = f
    previous_n = None
    while not residual.is_zero:
        if len(residual.breakpoints) == 2:
            return Decomposition(
                None, False, False, residual.breakpoints[1], DecompositionFailure.RESIDUAL_NONZERO
            )
        t1 = residual.breakpoints[1]
        n_exact = TWO / t1
        if n_exact.denominator != 1 or n_exact < 2:
            return Decomposition(
                None, False, False, t1, DecompositionFailure.NON_DYADIC_LOCATION
            )
        n = int(n_exact)
        if previous_n is not None and n >= previous_n:
            return Decomposition(
                None, False, False, t1, DecompositionFailure.RESIDUAL_NONZERO
            )
        previous_n = n
        c = jump_spectrum(residual)[t1] / n
        coeffs[n] = c
        residual = pl_combine([(1, residual), (-c, torus_consecutive_upsilon(n))])
    ordered = tuple(sorted(coeffs.items()))
    return Decomposition(
        ordered,
        all(c.denominator == 1 for _, c in ordered),
        all(c >= 0 for _, c in ordered),
    )


@frozen
class JumpComparison:
    """Derivative jumps of a function at 2/p and 4/p for an odd p >= 3."""

    p: int
    jump_at_2_over_p: Fraction
    jump_at_4_over_p: Fraction

    @property
    def equal(self) -> bool:
        return self.jump_at_2_over_p == self.jump_at_4_over_p


def jump_equality(f: PiecewiseLinear, p: int) -> JumpComparison:
    """Compare the derivative jumps of f at 2/p and 4/p (absent jumps count as 0)."""
    if p < 3 or p % 2 == 0:
        raise ConstraintError(f"jump comparison needs an odd p >= 3, got {p}")
    spectrum = jump_spectrum(f)
    return JumpComparison(
        p,
        spectrum.get(Fraction(2, p), Fraction(0)),
        spectrum.get(Fraction(4, p), Fraction(0)),
    )


def lambda_invariant(k: int, f: PiecewiseLinear) -> Fraction:
    """Normalized jump difference (jump at 2/(2k-1) - jump at 4/(2k-1)) / (2k-1).

    Vanishes on every integer combination of consecutive-torus upsilons, so a
    nonzero value certifies that no such expansion exists up to concordance.
    """
    if k < 2:
        raise ConstraintError(f"the jump-difference functional needs k >= 2, got {k}")
    cmp = jump_equality(f, 2 * k - 1)
    return (cmp.jump_at_2_over_p - cmp.jump_at_4_over_p) / (2 * k - 1)


def independence_matrix(kmin: int, kmax: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of lambda_i applied to the upsilon of J(k), rows k and columns i.

    Lower triangular with unit diagonal, which certifies the independence of
    the J(k) family over the given range.
    """
    if not 3 <= kmin <= kmax:
        raise ConstraintError(f"need 3 <= kmin <= kmax, got {kmin}..{kmax}")
    rows = []
    for k in range(kmin, kmax + 1):
        f = upsilon.upsilon_of_knot(knotexpr.jfamily(k))
        rows.append(tuple(lambda_invariant(i, f) for i in range(kmin, kmax + 1)))
    return tuple(rows)


class Verdict(Enum):
    ALGEBRAIC = "algebraic"
    NOT_ALGEBRAIC = "not-algebraic"
    NO_OBSTRUCTION_FOUND = "no-obstruction-found"


@frozen
class ObstructionReport:
    """Aggregated algebraicity obstructions for a single knot expression."""

    knot: KnotExpr
    certificate: Certificate
    closed: bool
    closure_witness: tuple[int, int] | None
    jump_equality_failures: tuple[JumpComparison, ...]
    decomposition: Decomposition
    index_criterion: Algebraicity
    verdict: Verdict
    reasons: tuple[str, ...]


def _candidate_odd_ps(spectrum: dict[Fraction, Fraction]) -> list[int]:
    # only p with 2/p or 4/p among the singularities can fail the comparison
    out = set()
    for t0 in spectrum:
        for numerator in (2, 4):
            ratio = numerator / t0
            if ratio.denominator == 1 and ratio >= 3 and ratio % 2 == 1:
                out.add(int(ratio))
    return sorted(out)


def algebraicity_report(knot: KnotExpr) -> ObstructionReport:
    """Run all four obstructions; only the index criterion can affirm algebraicity."""
    cert = knotexpr.require_lspace(knot)
    sg = semigroup.from_alexander(knotexpr.alexander(knot))
    witness = semigroup.closure_witness(sg)
    f = upsilon.upsilon_of_knot(knot)
    spectrum = jump_spectrum(f)
    failures = tuple(
        cmp
        for p in _candidate_odd_ps(spectrum)
        if not (cmp := jump_equality(f, p)).equal
    )
    dec = decompose_into_consecutive_torus(f)
    index = knotexpr.classify_algebraic(knot)
    reasons = []
    if witness is not None:
        reasons.append("semigroup-not-closed")
    if failures:
        reasons.append("jump-inequality")
    if not (dec.succeeded and dec.all_integer):
        reasons.append("no-consecutive-torus-expansion")
    if index is Algebraicity.NOT_ALGEBRAIC:
        reasons.append("index-criterion")
    if index is Algebraicity.ALGEBRAIC:
        if reasons:
            raise AssertionError(
                f"index criterion affirms {knot} but obstructions fired: {reasons}"
            )
        verdict = Verdict.ALGEBRAIC
    elif reasons:
        verdict = Verdict.NOT_ALGEBRAIC
    else:
        verdict = Verdict.NO_OBSTRUCTION_FOUND
    return ObstructionReport(
        knot=knot,
        certificate=cert,
        closed=witness is None,
        closure_witness=witness,
        jump_equality_failures=failures,
        decomposition=dec,
        index_criterion=index,
        verdict=verdict,
        reasons=tuple(reasons),
    )
