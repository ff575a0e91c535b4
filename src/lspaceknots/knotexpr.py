"""Iterated-torus knot descriptions and their basic invariants.

Knots are immutable expression trees: ``Torus(p, q)``, ``Cable(inner, p, q)``
with p >= 2, an explicit Alexander-polynomial candidate, and the (-2,3,7)
pretzel knot as a built-in example whose gap set is not closed under
addition.  The factories normalize degenerate cases so that structural
equality is equality of canonical forms: torus indices are sorted and any
index 1 collapses to the unknot, (1, q)-cables collapse to the inner knot,
and cables of the unknot become torus knots.

Integer linear combinations of knots are described by a small text grammar
(whitespace-insensitive):

    combination := term (('+'|'-') term)*
    term        := (integer '*')? atom
    atom        := 'T(' p ',' q ')' | 'C(' atom ';' p ',' q ')'
                 | 'J(' k ')' | 'P237' | 'U'
                 | 'alex[' c0 ',' c1 ',' ... ']'

``J(k)`` abbreviates the (k, 2k-1)-cable of the trefoil T(2,3) and needs
k >= 3; ``alex[...]`` lists dense low-to-high coefficients of a candidate
Alexander polynomial; ``U`` is the unknot.  A leading '-' is allowed.
``C(`` may nest at most MAX_CABLE_DEPTH deep; a deeper ``C`` raises
ParseError at its offset.  The cap costs nothing real: every cabling stage
that survives normalization at least doubles the genus.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd

from . import intpoly, semigroup
from ._record import frozen
from .errors import (
    ConstraintError,
    InvalidShape,
    NotIteratedTorus,
    NotLSpace,
    NotLSpaceShape,
    ParseError,
)
from .intpoly import IntPolynomial, cable_alexander, torus_alexander


class KnotExpr:
    """Marker base class for knot expression nodes."""

    __slots__ = ()


@frozen
class Torus(KnotExpr):
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ConstraintError(f"torus indices must be positive, got ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise ConstraintError(f"torus indices ({self.p}, {self.q}) must be coprime")
        p, q = self.p, self.q
        if p == 1 or q == 1:
            p = q = 1  # every T(1, q) is the unknot
        elif p > q:
            p, q = q, p  # T(p, q) = T(q, p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self):
        return "U" if self.p == 1 else f"T({self.p},{self.q})"


@frozen
class Cable(KnotExpr):
    inner: KnotExpr
    p: int
    q: int

    def __post_init__(self):
        if not isinstance(self.inner, KnotExpr):
            raise ConstraintError("cable companion must be a knot expression")
        if self.p < 2:
            raise ConstraintError(
                f"cable nodes need p >= 2, got {self.p}; use cable() to normalize"
            )
        if self.q < 1:
            raise ConstraintError(f"cable index q must be positive, got {self.q}")
        if gcd(self.p, self.q) != 1:
            raise ConstraintError(f"cable indices ({self.p}, {self.q}) must be coprime")
        if self.inner == UNKNOT:
            raise ConstraintError("a cable of the unknot is a torus knot; use cable()")

    def __str__(self):
        return f"C({self.inner};{self.p},{self.q})"


@frozen
class ExplicitAlexander(KnotExpr):
    poly: IntPolynomial

    def __post_init__(self):
        intpoly.validate_lspace_shape(self.poly)

    def __str__(self):
        return "alex[" + ",".join(str(c) for c in self.poly.coefficients()) + "]"


@frozen
class Pretzel237(KnotExpr):
    """The (-2, 3, 7) pretzel knot, carried as a fixed example."""

    def __str__(self):
        return "P237"


UNKNOT = Torus(1, 1)
PRETZEL_P237 = Pretzel237()

# Alexander polynomial of P(-2,3,7); its gap-set complement is
# {0,3,5,7,8} together with everything from 10 on.
PRETZEL_ALEXANDER = IntPolynomial.from_coeffs([1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1])


def torus(p: int, q: int) -> Torus:
    return Torus(p, q)


def cable(inner: KnotExpr, p: int, q: int) -> KnotExpr:
    """(p, q)-cable of ``inner``, collapsing the degenerate cases."""
    if p < 1:
        raise ConstraintError(f"cable index p must be positive, got {p}")
    if q < 1:
        raise ConstraintError(f"cable index q must be positive, got {q}")
    if gcd(p, q) != 1:
        raise ConstraintError(f"cable indices ({p}, {q}) must be coprime")
    if p == 1:
        return inner  # a (1, q)-cable is the same knot
    if inner == UNKNOT:
        return Torus(p, q)
    return Cable(inner, p, q)


def jfamily(k: int) -> KnotExpr:
    """The (k, 2k-1)-cable of the trefoil, defined for k >= 3."""
    if k < 3:
        raise ConstraintError(f"J(k) needs k >= 3, got {k}")
    return cable(Torus(2, 3), k, 2 * k - 1)


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
        if not self.terms:
            return "0"
        parts = []
        for expr, mult in self.terms:
            body = str(expr) if abs(mult) == 1 else f"{abs(mult)}*{expr}"
            if not parts:
                parts.append(body if mult > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if mult > 0 else f"- {body}")
        return " ".join(parts)


def combination(pairs) -> KnotCombination:
    """Merge (expression, multiplicity) pairs into canonical form."""
    acc: dict[KnotExpr, int] = {}
    for expr, mult in pairs:
        acc[expr] = acc.get(expr, 0) + int(mult)
    return KnotCombination(tuple((k, m) for k, m in acc.items() if m != 0))


MAX_CABLE_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # open 'C(' atoms

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.take(token):
            self.error(f"expected '{token}'")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

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
            if self.peek().isdigit():
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
    """Parse a knot-combination expression; see the module docstring for the grammar."""
    return _Parser(text).combination()


@lru_cache(maxsize=None)
def alexander(knot: KnotExpr) -> IntPolynomial:
    """Unsymmetrized Alexander polynomial with constant term 1."""
    if isinstance(knot, Torus):
        return torus_alexander(knot.p, knot.q)
    if isinstance(knot, Cable):
        return cable_alexander(alexander(knot.inner), knot.p, knot.q)
    if isinstance(knot, ExplicitAlexander):
        return knot.poly
    if isinstance(knot, Pretzel237):
        return PRETZEL_ALEXANDER
    raise TypeError(f"unknown knot expression {knot!r}")


def genus(knot: KnotExpr) -> int:
    """Half the Alexander degree."""
    deg = alexander(knot).degree
    if deg % 2:
        raise InvalidShape(f"Alexander degree {deg} is odd")
    return deg // 2


def tower(knot: KnotExpr) -> list[tuple[int, int]]:
    """Cabling indices innermost-first; the first pair is the core torus knot."""
    if isinstance(knot, Torus):
        return [(knot.p, knot.q)]
    if isinstance(knot, Cable):
        return tower(knot.inner) + [(knot.p, knot.q)]
    raise NotIteratedTorus(f"{knot} is not an iterated torus expression")


class LSpaceStatus(Enum):
    CERTIFIED = "certified"
    CANDIDATE = "candidate"
    NOT_LSPACE = "not-lspace"


@frozen
class Certificate:
    status: LSpaceStatus
    reason: str | None = None


class Algebraicity(Enum):
    ALGEBRAIC = "algebraic"
    NOT_ALGEBRAIC = "not-algebraic"
    UNKNOWN = "unknown"


def certify_lspace(knot: KnotExpr) -> Certificate:
    """Decide whether the expression describes an L-space knot.

    Torus knots and the pretzel example are certified outright.  A cable is
    certified exactly when the companion is and q >= p(2g - 1); the violated
    bound is reported otherwise.  Explicit Alexander candidates get only
    the necessary checks of the gap-set constructor (duality and growth) and
    are at best CANDIDATE, never CERTIFIED: the L-space property is not
    decidable from the polynomial alone.
    """
    if isinstance(knot, (Torus, Pretzel237)):
        return Certificate(LSpaceStatus.CERTIFIED)
    if isinstance(knot, Cable):
        inner_cert = certify_lspace(knot.inner)
        if inner_cert.status is LSpaceStatus.NOT_LSPACE:
            return inner_cert
        bound = knot.p * (2 * genus(knot.inner) - 1)
        if knot.q < bound:
            return Certificate(
                LSpaceStatus.NOT_LSPACE,
                f"cable index q={knot.q} is below p*(2g-1)={bound}",
            )
        return inner_cert
    if isinstance(knot, ExplicitAlexander):
        try:
            semigroup.from_alexander(knot.poly)
        except NotLSpaceShape as exc:
            return Certificate(LSpaceStatus.NOT_LSPACE, str(exc))
        return Certificate(LSpaceStatus.CANDIDATE)
    raise TypeError(f"unknown knot expression {knot!r}")


def require_lspace(knot: KnotExpr) -> Certificate:
    """The certificate of ``knot``; raises NotLSpace when it is NOT_LSPACE.

    The one gate in front of every invariant that assumes an L-space knot.
    """
    cert = certify_lspace(knot)
    if cert.status is LSpaceStatus.NOT_LSPACE:
        raise NotLSpace(cert.reason or f"{knot} is not an L-space knot")
    return cert


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
    """Generators of the gap-set complement of a certified iterated-torus knot.

    For a tower with stages (p_1, q_1), ..., (p_m, q_m) the generators are
    p_1*p_2*...*p_m, q_1*p_2*...*p_m, q_2*p_3*...*p_m, ..., q_{m-1}*p_m, q_m.
    """
    stages = tower(knot)
    cert = certify_lspace(knot)
    if cert.status is not LSpaceStatus.CERTIFIED:
        raise NotLSpace(cert.reason or "expression is not a certified L-space tower")
    out = {stages[-1][1]}
    suffix = 1
    for i in range(len(stages) - 1, 0, -1):
        suffix *= stages[i][0]
        out.add(stages[i - 1][1] * suffix)
    out.add(stages[0][0] * suffix)
    return out
