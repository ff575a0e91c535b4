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

``OBSTRUCTIONS`` is the one table of the four: per row, in report order,
the key of the CLI report, the reason string, the criterion and the test
that fires it.  An ``ObstructionReport`` stores only the results of the
checks; its reasons come from the table, and its verdict from them: ALGEBRAIC
when the index criterion affirms the knot, NOT_ALGEBRAIC when a reason
fires, NO_OBSTRUCTION_FOUND otherwise.

The normalized jump difference lambda(k) = (jump at 2/(2k-1) - jump at
4/(2k-1)) / (2k-1) vanishes on every combination of consecutive-torus
upsilons; evaluated on the J(k) family it yields a lower-triangular matrix
with unit diagonal, certifying independence at any finite truncation.  The
report and the matrix build the jump spectrum of each function once and
read every p from it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import knotexpr, semigroup, upsilon
from ._record import frozen
from .errors import ConstraintError, DomainError
from .knotexpr import Algebraicity, KnotExpr, LSpaceStatus
from .upsilon import PiecewiseLinear, jump_spectrum, pl_combine, torus_consecutive_upsilon

TWO = Fraction(2)


@frozen
class Decomposition:
    """Outcome of expanding a function in the consecutive-torus upsilon basis.

    On success ``coefficients`` maps n to the (possibly rational, possibly
    negative) coefficient of the T(n, n+1) upsilon and recombining them
    reproduces the input exactly; on failure they are None and
    ``failure_location`` is the least breakpoint t1, where 2/t1 is not an
    integer.
    """

    coefficients: tuple[tuple[int, Fraction], ...] | None
    failure_location: Fraction | None = None

    @property
    def succeeded(self) -> bool:
        return self.coefficients is not None

    @property
    def all_integer(self) -> bool:
        return self.succeeded and all(c.denominator == 1 for _, c in self.coefficients)

    @property
    def all_nonnegative(self) -> bool:
        return self.succeeded and all(c >= 0 for _, c in self.coefficients)

    @property
    def failure_reason(self) -> str | None:
        return None if self.failure_location is None else "non-dyadic-location"


def decompose_into_consecutive_torus(f: PiecewiseLinear) -> Decomposition:
    """Greedy expansion of f in the upsilon functions of T(n, n+1).

    Repeatedly looks at the least breakpoint t1 of the residual: unless
    t1 = 2/n for an integer n the expansion fails, otherwise the coefficient
    jump(t1)/n is peeled off.  Every upsilon of T(n, n+1) has value 0 at 0,
    is symmetric about 1 and has its jumps at 2i/n, so the residual keeps the
    two properties checked on entry.  A nonzero residual therefore has an
    interior breakpoint t1 <= 1, which gives n >= 2, and the peel leaves only
    breakpoints beyond t1, so n strictly decreases and the loop terminates.
    """
    if f(0) != 0:
        raise DomainError("decomposition needs f(0) = 0")
    if f.mirrored() != f:
        raise DomainError("decomposition needs the symmetry f(t) = f(2 - t)")
    coeffs: dict[int, Fraction] = {}
    residual = f
    while not residual.is_zero:
        t1 = residual.breakpoints[1]
        n_exact = TWO / t1
        if n_exact.denominator != 1:
            return Decomposition(None, t1)
        n = int(n_exact)
        c = (residual.slopes[1] - residual.slopes[0]) / n
        coeffs[n] = c
        residual = pl_combine([(1, residual), (-c, torus_consecutive_upsilon(n))])
    return Decomposition(tuple(sorted(coeffs.items())))


@frozen
class JumpComparison:
    """Derivative jumps of a function at 2/p and 4/p for an odd p >= 3."""

    p: int
    jump_at_2_over_p: Fraction
    jump_at_4_over_p: Fraction

    @classmethod
    def read(cls, spectrum: dict[Fraction, Fraction], p: int) -> JumpComparison:
        """The jumps at 2/p and 4/p of a built jump spectrum (absent jumps count as 0)."""
        if p < 3 or p % 2 == 0:
            raise ConstraintError(f"jump comparison needs an odd p >= 3, got {p}")
        return cls(p, spectrum.get(Fraction(2, p), Fraction(0)), spectrum.get(Fraction(4, p), Fraction(0)))

    @property
    def equal(self) -> bool:
        return self.jump_at_2_over_p == self.jump_at_4_over_p

    @property
    def normalized_difference(self) -> Fraction:
        """(jump at 2/p - jump at 4/p) / p, the lambda functional at p = 2k - 1."""
        return (self.jump_at_2_over_p - self.jump_at_4_over_p) / self.p


def jump_equality(f: PiecewiseLinear, p: int) -> JumpComparison:
    """Compare the derivative jumps of f at 2/p and 4/p (absent jumps count as 0)."""
    return JumpComparison.read(jump_spectrum(f), p)


def lambda_invariant(k: int, f: PiecewiseLinear) -> Fraction:
    """Normalized jump difference (jump at 2/(2k-1) - jump at 4/(2k-1)) / (2k-1).

    Vanishes on every integer combination of consecutive-torus upsilons, so a
    nonzero value certifies that no such expansion exists up to concordance.
    """
    if k < 2:
        raise ConstraintError(f"the jump-difference functional needs k >= 2, got {k}")
    return jump_equality(f, 2 * k - 1).normalized_difference


def independence_matrix(kmin: int, kmax: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of lambda_i applied to the upsilon of J(k), rows k and columns i.

    Lower triangular with unit diagonal, which certifies the independence of
    the J(k) family over the given range.
    """
    if not 3 <= kmin <= kmax:
        raise ConstraintError(f"need 3 <= kmin <= kmax, got {kmin}..{kmax}")
    ps = range(2 * kmin - 1, 2 * kmax, 2)
    rows = []
    for k in range(kmin, kmax + 1):
        spectrum = jump_spectrum(upsilon.upsilon_of_knot(knotexpr.jfamily(k)))
        rows.append(tuple(JumpComparison.read(spectrum, p).normalized_difference for p in ps))
    return tuple(rows)


class Verdict(Enum):
    ALGEBRAIC = "algebraic"
    NOT_ALGEBRAIC = "not-algebraic"
    NO_OBSTRUCTION_FOUND = "no-obstruction-found"


OBSTRUCTIONS = (
    ("semigroup_closure", "semigroup-not-closed",
     "the gap-set complement of an algebraic knot is closed under addition",
     lambda report: not report.closed),
    ("jump_equality", "jump-inequality",
     "an algebraic knot has equal derivative jumps at 2/p and 4/p for every odd p >= 3",
     lambda report: bool(report.jump_equality_failures)),
    ("decomposition", "no-consecutive-torus-expansion",
     "the upsilon of an algebraic knot is a nonnegative integer sum of consecutive-torus upsilons",
     lambda report: not report.decomposition.all_integer),
    ("index_criterion", "index-criterion",
     "an iterated torus knot is algebraic exactly when q_{i+1} > p_i*q_i*p_{i+1} at every stage",
     lambda report: report.index_criterion is Algebraicity.NOT_ALGEBRAIC),
)


@frozen
class ObstructionReport:
    """The results of the four obstructions for one knot; the verdict is derived from them."""

    knot: KnotExpr
    certificate: LSpaceStatus
    closure_witness: tuple[int, int] | None
    jump_equality_failures: tuple[JumpComparison, ...]
    decomposition: Decomposition
    index_criterion: Algebraicity

    @property
    def closed(self) -> bool:
        return self.closure_witness is None

    @property
    def reasons(self) -> tuple[str, ...]:
        return tuple(reason for _, reason, _, fires in OBSTRUCTIONS if fires(self))

    @property
    def verdict(self) -> Verdict:
        if self.index_criterion is Algebraicity.ALGEBRAIC:
            return Verdict.ALGEBRAIC
        return Verdict.NOT_ALGEBRAIC if self.reasons else Verdict.NO_OBSTRUCTION_FOUND


def algebraicity_report(knot: KnotExpr) -> ObstructionReport:
    """Run all four obstructions; only the index criterion can affirm algebraicity."""
    status = knotexpr.certify_lspace(knot)
    sg = knotexpr.semigroup_of(knot)
    witness = semigroup.closure_witness(sg)
    f = upsilon.upsilon_from_semigroup(sg)
    spectrum = jump_spectrum(f)
    # only p with 2/p or 4/p among the singularities can fail the comparison
    ps = {int(r) for t in spectrum for r in (2 / t, 4 / t) if r.denominator == 1 and r >= 3 and r % 2 == 1}
    report = ObstructionReport(
        knot=knot,
        certificate=status,
        closure_witness=witness,
        jump_equality_failures=tuple(
            cmp for p in sorted(ps) if not (cmp := JumpComparison.read(spectrum, p)).equal
        ),
        decomposition=decompose_into_consecutive_torus(f),
        index_criterion=knotexpr.classify_algebraic(knot),
    )
    if report.index_criterion is Algebraicity.ALGEBRAIC and report.reasons:
        raise AssertionError(f"index criterion affirms {knot} but obstructions fired: {list(report.reasons)}")
    return report
