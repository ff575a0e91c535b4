"""Exact arithmetic for sparse integer polynomials in one variable t.

A polynomial is stored as a tuple of (exponent, coefficient) pairs sorted by
exponent, with nonnegative exponents and nonzero arbitrary-precision integer
coefficients; the zero polynomial is the empty tuple.  The representation is
sparse because the Alexander polynomials handled here have few terms relative
to their degree, and coefficients are plain Python ints because iterated
cabling pushes degrees well past machine-word comfort.

Besides ring arithmetic and exact division, this module builds the
unsymmetrized torus-knot Alexander polynomial
(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) and the cable product rule
``inner(t^p) * torus(p, q)``, and checks the L-space shape (coefficients
alternating +1/-1 from a constant term 1).  The gap set itself is read off
the exponents by ``semigroup.from_alexander``.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd

from ._record import frozen
from .errors import (
    ConstraintError,
    NotCoprime,
    NotDivisible,
    NotLSpaceShape,
    ParseError,
)


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

    @cached_property
    def _coeff_map(self) -> dict[int, int]:
        return dict(self.terms)

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

    def coefficient(self, exponent: int) -> int:
        return self._coeff_map.get(exponent, 0)

    def coefficients(self) -> list[int]:
        """Dense low-to-high coefficient list (empty for the zero polynomial)."""
        if not self.terms:
            return []
        out = [0] * (self.degree + 1)
        for e, c in self.terms:
            out[e] = c
        return out

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return IntPolynomial(tuple(sorted((e, c) for e, c in acc.items() if c != 0)))

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
        return IntPolynomial(tuple(sorted((e, c) for e, c in acc.items() if c != 0)))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = IntPolynomial(())
ONE = IntPolynomial(((0, 1),))


def monomial(exponent: int, coefficient: int = 1) -> IntPolynomial:
    return IntPolynomial.from_terms([(exponent, coefficient)])


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


def torus_alexander(p: int, q: int) -> IntPolynomial:
    """Unsymmetrized Alexander polynomial of the (p, q) torus knot.

    Computed by exact division of (t^{pq} - 1)(t - 1) by (t^p - 1)(t^q - 1);
    the result has constant term 1 and degree (p - 1)(q - 1).
    """
    if p < 1 or q < 1:
        raise ConstraintError(f"torus indices must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise NotCoprime(f"torus indices ({p}, {q}) must be coprime")
    num = _t_power_minus_one(p * q) * _t_power_minus_one(1)
    quot = poly_exact_div(num, _t_power_minus_one(p))
    return poly_exact_div(quot, _t_power_minus_one(q))


def cable_alexander(inner: IntPolynomial, p: int, q: int) -> IntPolynomial:
    """Alexander polynomial of a (p, q)-cable: inner evaluated at t^p times the torus factor."""
    return substitute_power(inner, p) * torus_alexander(p, q)


def validate_lspace_shape(a: IntPolynomial) -> None:
    """Require coefficients alternating +1/-1 from a constant term 1, and even degree."""
    if a.is_zero:
        raise NotLSpaceShape("the zero polynomial has no gap set")
    if a.terms[0] != (0, 1):
        raise NotLSpaceShape("constant term must be 1")
    for i, (_, c) in enumerate(a.terms):
        if c != (1 if i % 2 == 0 else -1):
            raise NotLSpaceShape("coefficients must alternate between 1 and -1")
    if len(a.terms) % 2 == 0:
        raise NotLSpaceShape("the number of terms must be odd")
    if a.degree % 2 != 0:
        raise NotLSpaceShape(f"degree {a.degree} must be even")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse text like ``1 - t + t^3`` or ``2*t^2 - 1`` into a polynomial."""
    pos = 0
    n = len(text)
    acc: dict[int, int] = {}

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected an integer", start)
        return int(text[start:pos])

    skip_ws()
    if pos == n:
        raise ParseError("empty polynomial", pos)
    first = True
    while True:
        skip_ws()
        if pos == n:
            break
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            skip_ws()
        elif not first:
            raise ParseError("expected '+' or '-'", pos)
        coeff = 1
        exp = 0
        started = False
        if pos < n and text[pos].isdigit():
            coeff = read_int()
            started = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or text[pos] != "t":
                    raise ParseError("expected 't' after '*'", pos)
        if pos < n and text[pos] == "t":
            pos += 1
            started = True
            exp = 1
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                exp = read_int()
        if not started:
            raise ParseError("expected a term", pos)
        acc[exp] = acc.get(exp, 0) + sign * coeff
        first = False
    return IntPolynomial.from_terms(acc.items())
