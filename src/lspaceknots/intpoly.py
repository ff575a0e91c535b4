"""Exact arithmetic for sparse integer polynomials in one variable t.

A polynomial is stored as a tuple of (exponent, coefficient) pairs sorted by
exponent, with nonnegative exponents and nonzero arbitrary-precision integer
coefficients; the zero polynomial is the empty tuple.  The representation is
sparse because the Alexander polynomials handled here have few terms relative
to their degree, and coefficients are plain Python ints because iterated
cabling pushes degrees well past machine-word comfort.

Besides multiplication and exact division, this module builds the
unsymmetrized torus-knot Alexander polynomial
(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) and the cable product rule
``inner(t^p) * torus(p, q)``.  The L-space shape (coefficients alternating
+1/-1 from a constant term 1) is checked, and the gap set read off the
exponents, by ``semigroup.from_alexander``.

Knot text is read here too.  ``Scanner`` holds the offset, skips whitespace
and reads unsigned integers; its ``polynomial`` method is the polynomial
grammar (``parse_polynomial``), and ``knotexpr`` extends it with the knot
grammar.  ``signed_sum`` writes both polynomials and knot combinations.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from ._record import frozen
from .errors import ConstraintError, NotDivisible, ParseError


@frozen
class IntPolynomial:
    """Sparse polynomial over Z: sorted (exponent, coefficient) pairs, no zeros."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = -1
        for e, c in self.terms:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e <= last:
                raise ValueError("exponents must be strictly increasing")
            if c == 0:
                raise ValueError("zero coefficients may not be stored")
            last = e

    @classmethod
    def from_terms(cls, pairs) -> IntPolynomial:
        """Build from (exponent, coefficient) pairs, merging duplicates and dropping zeros."""
        acc: dict[int, int] = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        return cls(tuple(sorted((e, c) for e, c in acc.items() if c != 0)))

    @classmethod
    def from_coeffs(cls, coeffs) -> IntPolynomial:
        """Build from a dense low-to-high coefficient list."""
        return cls.from_terms(enumerate(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Largest exponent; the zero polynomial has no degree."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return self.terms[-1][0]

    @property
    def leading_coefficient(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.terms[-1][1]

    def coefficients(self) -> list[int]:
        """Dense low-to-high coefficient list (empty for the zero polynomial)."""
        if not self.terms:
            return []
        out = [0] * (self.degree + 1)
        for e, c in self.terms:
            out[e] = c
        return out

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
        return IntPolynomial(tuple(sorted((e, c) for e, c in acc.items() if c != 0)))

    def __str__(self):
        return signed_sum((c, "" if e == 0 else "t" if e == 1 else f"t^{e}") for e, c in self.terms)


def signed_sum(terms) -> str:
    """Write (coefficient, unit) pairs as ``a - 2*b + c``.

    A coefficient of magnitude 1 is left off a unit, the unit "" is the
    constant 1, a negative first term gets a bare '-', and the empty sum is '0'.
    """
    parts = []
    for c, unit in terms:
        mag = abs(c)
        body = str(mag) if not unit else unit if mag == 1 else f"{mag}*{unit}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append("-" + body if c < 0 else body)
    return " ".join(parts) or "0"


ZERO = IntPolynomial(())
ONE = IntPolynomial(((0, 1),))


def poly_exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact quotient a/b in Z[t]; raises NotDivisible when b does not divide a.

    One descending pass: a max-heap holds the live remainder exponents, and
    an exponent whose coefficient has since cancelled is skipped when popped.
    Every step removes the leading term and adds only lower ones.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    rem = dict(a.terms)
    heap = [-e for e in rem]
    heapify(heap)
    db = b.degree
    lb = b.leading_coefficient
    lower = b.terms[:-1]
    quot = []
    while heap:
        da = -heappop(heap)
        lead = rem.pop(da, 0)
        if not lead:
            continue
        if da < db:
            raise NotDivisible(f"remainder of degree {da} is smaller than the divisor")
        qc, r = divmod(lead, lb)
        if r:
            raise NotDivisible(f"leading coefficient {lead} is not a multiple of {lb}")
        shift = da - db
        quot.append((shift, qc))
        for e, c in lower:
            k = e + shift
            old = rem.get(k, 0)
            nc = old - qc * c
            if nc:
                rem[k] = nc
                if not old:
                    heappush(heap, -k)
            elif old:
                del rem[k]
    return IntPolynomial(tuple(reversed(quot)))


def substitute_power(a: IntPolynomial, p: int) -> IntPolynomial:
    """Replace t by t^p, scaling every exponent by p >= 1."""
    if p < 1:
        raise ConstraintError(f"power substitution needs p >= 1, got {p}")
    return IntPolynomial(tuple((e * p, c) for e, c in a.terms))


def _t_power_minus_one(k: int) -> IntPolynomial:
    return IntPolynomial(((0, -1), (k, 1)))


def check_torus_indices(p: int, q: int) -> None:
    """Raise ConstraintError unless p and q are positive and coprime, as T(p, q) needs."""
    if p < 1 or q < 1:
        raise ConstraintError(f"torus indices must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ConstraintError(f"torus indices ({p}, {q}) must be coprime")


def torus_alexander(p: int, q: int) -> IntPolynomial:
    """Unsymmetrized Alexander polynomial of the (p, q) torus knot.

    Computed by exact division of (t^{pq} - 1)(t - 1) by (t^p - 1)(t^q - 1);
    the result has constant term 1 and degree (p - 1)(q - 1).
    """
    check_torus_indices(p, q)
    num = _t_power_minus_one(p * q) * _t_power_minus_one(1)
    quot = poly_exact_div(num, _t_power_minus_one(p))
    return poly_exact_div(quot, _t_power_minus_one(q))


def cable_alexander(inner: IntPolynomial, p: int, q: int) -> IntPolynomial:
    """Alexander polynomial of a (p, q)-cable: inner at t^p times the torus factor, alone when inner = 1."""
    torus = torus_alexander(p, q)
    return torus if inner == ONE else substitute_power(inner, p) * torus


class Scanner:
    """Reads text left to right from ``pos``; every error is a ParseError at ``pos``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def integer(self) -> int:
        """An unsigned integer of ASCII digits after optional whitespace."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def polynomial(self) -> IntPolynomial:
        """``term (('+'|'-') term)*`` to the end of the text, a leading sign allowed,
        with ``term := integer | (integer '*'?)? 't' ('^' integer)?``; equal exponents add up."""
        self.skip_ws()
        if not self.peek():
            self.error("empty polynomial")
        terms = []
        while c := self.peek():
            sign = 1
            if c in ("+", "-"):
                sign = -1 if c == "-" else 1
                self.pos += 1
                self.skip_ws()
                c = self.peek()
            elif terms:
                self.error("expected '+' or '-'")
            coeff = 1
            started = "0" <= c <= "9"
            if started:
                coeff = self.integer()
                self.skip_ws()
                c = self.peek()
                if c == "*":
                    self.pos += 1
                    self.skip_ws()
                    c = self.peek()
                    if c != "t":
                        self.error("expected 't' after '*'")
            exp = 0
            if c == "t":
                self.pos += 1
                exp = 1
                if self.peek() == "^":
                    self.pos += 1
                    exp = self.integer()
            elif not started:
                self.error("expected a term")
            terms.append((exp, sign * coeff))
            self.skip_ws()
        return IntPolynomial.from_terms(terms)


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse text like ``1 - t + t^3`` or ``2*t^2 - 1`` into a polynomial."""
    return Scanner(text).polynomial()
