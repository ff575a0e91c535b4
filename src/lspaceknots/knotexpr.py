"""Iterated-torus knot descriptions and their basic invariants.

A knot is an immutable value: a core, or ``Cable(core, stages)``, the core
cabled by the (p, q) pairs in ``stages``, innermost first.  Every core is an
``ExplicitAlexander``, an Alexander polynomial with an optional name: the
unknot ``U`` and the (-2,3,7) pretzel knot ``P237`` (whose gap set is not
closed under addition) are named, an ``alex[...]`` candidate is not.  As
Delta_{C(K;p,q)}(t) = Delta_K(t^p) * Delta_{T(p,q)}(t) and Delta_U = 1, the
torus knot T(p, q), 2 <= p < q, is the first stage over the unknot.
``cable()`` alone normalises, so equality is equality of canonical forms: a
stage over the unknot has sorted indices, a (1, q)-cable collapses to its
companion, and cabling a cable appends a stage.  Genus is half the core's
degree, then ``semigroup.cable_genus`` per stage, so ``certify_lspace``, the
one L-space gate, checks Hedden's bound q >= p(2g - 1) stage by stage without
any polynomial and raises NotLSpace at the first stage below it.  A core is
checked in full when it is built: a polynomial without the L-space shape, or
whose gap set fails duality or growth, raises NotLSpaceShape there.

Knots and their integer linear combinations are read by ``parse`` from a
small text grammar (whitespace-insensitive):

    input       := combination | polynomial
    combination := term (('+'|'-') term)*
    term        := (integer '*')? atom
    atom        := 'T(' p ',' q ')' | 'C(' atom ';' p ',' q ')'
                 | 'J(' k ')' | 'P237' | 'U'
                 | 'alex[' c0 ',' c1 ',' ... ']'

``J(k)`` abbreviates the (k, 2k-1)-cable of the trefoil T(2,3) and needs
k >= 3; ``alex[...]`` lists dense low-to-high coefficients of a candidate
Alexander polynomial; ``U`` is the unknot.  A leading '-' is allowed.
``polynomial`` is ``intpoly``'s polynomial text, such as ``1 - t + t^3``, and
gives one candidate with multiplicity 1.  The combination is tried first; when
neither reading succeeds, the ParseError is the one that read further, the
combination's on a tie.
``C(`` may nest at most MAX_CABLE_DEPTH deep; a deeper ``C`` raises
ParseError at its offset.  The cap costs nothing real: every cabling stage
that survives normalization at least doubles the genus.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd

from . import semigroup
from ._record import frozen
from .errors import ConstraintError, NotIteratedTorus, NotLSpace, ParseError
from .intpoly import ONE, IntPolynomial, Scanner, cable_alexander, check_torus_indices, parse_polynomial, signed_sum


class KnotExpr:
    """Marker base class for knot expressions: a core (``ExplicitAlexander``) or a ``Cable`` of one."""

    __slots__ = ()


@frozen
class ExplicitAlexander(KnotExpr):
    """A core: its Alexander polynomial, and a name for the certified ones (``U``, ``P237``)."""

    poly: IntPolynomial
    name: str | None = None

    def __post_init__(self):
        # checks shape, duality and growth; semigroup_of reads the set kept here
        object.__setattr__(self, "_semigroup", semigroup.from_alexander(self.poly))

    def __str__(self):
        return self.name or "alex[" + ",".join(str(c) for c in self.poly.coefficients()) + "]"


# Alexander polynomial of P(-2,3,7); its gap-set complement is
# {0,3,5,7,8} together with everything from 10 on.
PRETZEL_ALEXANDER = IntPolynomial.from_coeffs([1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1])

UNKNOT = ExplicitAlexander(ONE, "U")
PRETZEL_P237 = ExplicitAlexander(PRETZEL_ALEXANDER, "P237")


def _check_stage(p: int, q: int) -> None:
    # the index checks of one stage, run by Cable and by cable() before it normalises
    if p < 1:
        raise ConstraintError(f"cable index p must be positive, got {p}")
    if q < 1:
        raise ConstraintError(f"cable index q must be positive, got {q}")
    if gcd(p, q) != 1:
        raise ConstraintError(f"cable indices ({p}, {q}) must be coprime")


@frozen
class Cable(KnotExpr):
    core: ExplicitAlexander
    stages: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for p, q in self.stages:
            _check_stage(p, q)
            if p == 1:
                raise ConstraintError("cable nodes need p >= 2, got 1; use cable() to normalize")
        if not self.stages or not isinstance(self.core, ExplicitAlexander):
            raise ConstraintError("a cable needs stages above a core that is not a cable; use cable()")
        p, q = self.stages[0]
        if p > q and self.core == UNKNOT:
            raise ConstraintError(f"a stage over the unknot needs p < q, got ({p}, {q}); use cable()")

    def __str__(self):
        text, stages = str(self.core), self.stages
        if self.core == UNKNOT:
            text, stages = "T({},{})".format(*stages[0]), stages[1:]
        return "C(" * len(stages) + text + "".join(f";{p},{q})" for p, q in stages)


def torus(p: int, q: int) -> KnotExpr:
    """The torus knot T(p, q), the (p, q)-cable of the unknot."""
    check_torus_indices(p, q)
    return cable(UNKNOT, p, q)


def cable(inner: KnotExpr, p: int, q: int) -> KnotExpr:
    """(p, q)-cable of ``inner``; the one place that normalises a cabling."""
    _check_stage(p, q)
    if p > q and inner == UNKNOT:
        p, q = q, p  # T(p, q) = T(q, p)
    if p == 1:
        return inner  # a (1, q)-cable is the same knot
    core, stages = _core_and_stages(inner)
    return Cable(core, stages + ((p, q),))


def _core_and_stages(knot: KnotExpr) -> tuple[ExplicitAlexander, tuple[tuple[int, int], ...]]:
    """The core at the bottom of ``knot``, and the stages above it."""
    return (knot.core, knot.stages) if isinstance(knot, Cable) else (knot, ())


def jfamily(k: int) -> KnotExpr:
    """The (k, 2k-1)-cable of the trefoil, defined for k >= 3."""
    if k < 3:
        raise ConstraintError(f"J(k) needs k >= 3, got {k}")
    return cable(torus(2, 3), k, 2 * k - 1)


def explicit_alexander(poly: IntPolynomial) -> ExplicitAlexander:
    return ExplicitAlexander(poly)


@frozen
class KnotCombination:
    """Canonical integer linear combination: merged terms, no zero multiplicities."""

    terms: tuple[tuple[KnotExpr, int], ...]

    def __post_init__(self):
        seen = set()
        for expr, mult in self.terms:
            if not isinstance(expr, KnotExpr):
                raise ConstraintError("combination entries must be knot expressions")
            if mult == 0:
                raise ConstraintError("zero multiplicities must be dropped")
            if expr in seen:
                raise ConstraintError("duplicate expressions must be merged")
            seen.add(expr)
        ordered = tuple(sorted(self.terms, key=lambda km: str(km[0])))
        object.__setattr__(self, "terms", ordered)

    def items(self) -> tuple[tuple[KnotExpr, int], ...]:
        return self.terms

    def __len__(self):
        return len(self.terms)

    def __str__(self):
        return signed_sum((mult, str(expr)) for expr, mult in self.terms)


def combination(pairs) -> KnotCombination:
    """Merge (expression, multiplicity) pairs into canonical form."""
    acc: dict[KnotExpr, int] = {}
    for expr, mult in pairs:
        acc[expr] = acc.get(expr, 0) + int(mult)
    return KnotCombination(tuple((k, m) for k, m in acc.items() if m != 0))


MAX_CABLE_DEPTH = 100


class _Parser(Scanner):
    depth = 0  # open 'C(' atoms

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.take(token):
            self.error(f"expected '{token}'")

    def signed_integer(self) -> int:
        self.skip_ws()
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        elif self.peek() == "+":
            self.pos += 1
        return sign * self.integer()

    def atom(self) -> KnotExpr:
        self.skip_ws()
        if self.take("T"):
            self.expect("(")
            p = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(")")
            return torus(p, q)
        if self.take("C"):
            if self.depth == MAX_CABLE_DEPTH:
                raise ParseError(f"cables nest more than {MAX_CABLE_DEPTH} deep", self.pos - 1)
            self.expect("(")
            self.depth += 1
            inner = self.atom()
            self.depth -= 1
            self.expect(";")
            p = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(")")
            return cable(inner, p, q)
        if self.take("J"):
            self.expect("(")
            k = self.integer()
            self.expect(")")
            return jfamily(k)
        if self.take("P237"):
            return PRETZEL_P237
        if self.take("U"):
            return UNKNOT
        if self.take("alex"):
            self.expect("[")
            coeffs = [self.signed_integer()]
            while self.take(","):
                coeffs.append(self.signed_integer())
            self.expect("]")
            return explicit_alexander(IntPolynomial.from_coeffs(coeffs))
        self.error("expected a knot atom (T, C, J, P237, U or alex[...])")

    def combination(self) -> KnotCombination:
        pairs = []
        sign = -1 if self.take("-") else 1
        while True:
            self.skip_ws()
            mult = 1
            if "0" <= self.peek() <= "9":
                mult = self.integer()
                self.expect("*")
            pairs.append((self.atom(), sign * mult))
            if self.take("+"):
                sign = 1
            elif self.take("-"):
                sign = -1
            else:
                break
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing text")
        return combination(pairs)


def parse(text: str) -> KnotCombination:
    """Parse ``input`` (see the module docstring): a combination, or else one candidate."""
    try:
        return _Parser(text).combination()
    except ParseError as knot_error:
        try:
            poly = parse_polynomial(text)
        except ParseError as poly_error:
            raise (poly_error if poly_error.position > knot_error.position else knot_error) from None
    return combination([(ExplicitAlexander(poly), 1)])


@lru_cache(maxsize=None)
def alexander(knot: KnotExpr) -> IntPolynomial:
    """Unsymmetrized Alexander polynomial with constant term 1."""
    core, stages = _core_and_stages(knot)
    poly = core.poly
    for p, q in stages:
        poly = cable_alexander(poly, p, q)
    return poly


def semigroup_of(knot: KnotExpr) -> semigroup.FormalSemigroup:
    """Gap-set complement S of a knot; a bare core returns the one it built when it was checked."""
    core, stages = _core_and_stages(knot)
    return semigroup.from_alexander(alexander(knot)) if stages else core._semigroup


def genus(knot: KnotExpr) -> int:
    """Half the core's Alexander degree, then the closed form of each cabling stage."""
    core, stages = _core_and_stages(knot)
    g = core.poly.degree // 2
    for p, q in stages:
        g = semigroup.cable_genus(g, p, q)
    return g


def tower(knot: KnotExpr) -> list[tuple[int, int]]:
    """Cabling indices over the unknot, innermost first; the first pair is the torus knot."""
    core, stages = _core_and_stages(knot)
    if core != UNKNOT:
        raise NotIteratedTorus(f"{core} is not an iterated torus expression")
    return list(stages)


class LSpaceStatus(Enum):
    CERTIFIED = "certified"
    CANDIDATE = "candidate"


class Algebraicity(Enum):
    ALGEBRAIC = "algebraic"
    NOT_ALGEBRAIC = "not-algebraic"
    UNKNOWN = "unknown"


def certify_lspace(knot: KnotExpr) -> LSpaceStatus:
    """The gate in front of every invariant that assumes an L-space knot.

    The named cores, U and P237, are CERTIFIED outright.  A cable is an
    L-space knot exactly when its core is and each stage (p, q) has
    q >= p(2g - 1), g the closed-form genus below it (Hedden), so every
    torus knot passes; the first stage below that bound raises NotLSpace.
    An unnamed core passed the necessary checks of the gap-set constructor
    (duality and growth) when it was built, so it is CANDIDATE, never
    CERTIFIED: the L-space property is not decidable from the polynomial
    alone.  This is the only place that checks the bound.
    """
    core, stages = _core_and_stages(knot)
    g = core.poly.degree // 2
    for p, q in stages:
        bound = p * (2 * g - 1)
        if q < bound:
            raise NotLSpace(f"cable index q={q} is below p*(2g-1)={bound}")
        g = semigroup.cable_genus(g, p, q)
    return LSpaceStatus.CERTIFIED if core.name else LSpaceStatus.CANDIDATE


def classify_algebraic(knot: KnotExpr) -> Algebraicity:
    """Decide algebraicity of an iterated-torus expression by its cabling indices.

    A tower is algebraic exactly when every consecutive stage satisfies
    q_{i+1} > p_i * q_i * p_{i+1}; expressions that are not towers return
    UNKNOWN (use the obstruction module for those).
    """
    try:
        stages = tower(knot)
    except NotIteratedTorus:
        return Algebraicity.UNKNOWN
    for (p_in, q_in), (p_out, q_out) in zip(stages, stages[1:]):
        if q_out <= p_in * q_in * p_out:
            return Algebraicity.NOT_ALGEBRAIC
    return Algebraicity.ALGEBRAIC


def iterated_torus_generators(knot: KnotExpr) -> set[int]:
    """Generators of the gap-set complement of an iterated-torus L-space knot.

    Raises NotIteratedTorus for a core other than the unknot, then certifies
    the tower, so a stage below Hedden's bound raises NotLSpace.  For stages
    (p_1, q_1), ..., (p_m, q_m) over the unknot, T(p_1, q_1) the first, the
    generators are p_1*p_2*...*p_m, q_1*p_2*...*p_m, ..., q_{m-1}*p_m, q_m.
    """
    stages = tower(knot)
    certify_lspace(knot)
    out, suffix = set(), 1
    for p, q in reversed(stages):
        out.add(q * suffix)
        suffix *= p
    out.add(suffix)
    return out
