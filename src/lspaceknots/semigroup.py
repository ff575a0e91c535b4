"""Cofinite subsets of the nonnegative integers attached to L-space knots.

A set S is stored as a genus g plus the sorted members of S below 2g (the
"small elements"); every integer >= 2g belongs implicitly.  The constructor
enforces the structural facts such sets always satisfy: exactly g gaps, all
below 2g, the duality s in S <=> 2g-1-s not in S, and the growth bound that
the (i+1)th smallest member is at least 2i for i <= g.

The cofinite representation is used instead of a generator list because the
sets attached to non-algebraic knots need not be closed under addition and
then have no generating set; 2g is the canonical cutoff.

An L-space Alexander polynomial is t^{n_0} - t^{n_1} + ... + t^{n_{2r}} with
n_0 = 0 and n_{2r} = 2g, and S is the support of its quotient by 1 - t, so
the members below 2g are the runs [n_0, n_1), [n_2, n_3), ....
``from_alexander`` is the only place that reads S off a polynomial, and the
constructor is the only place that checks it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from itertools import chain
from math import gcd

from . import intpoly
from ._record import frozen
from .errors import (
    ConstraintError,
    HypothesisViolated,
    InfiniteComplement,
    InvalidSemigroup,
    NotCoprime,
    NotLSpaceShape,
    Undefined,
)
from .intpoly import IntPolynomial


@frozen
class FormalSemigroup:
    """Genus plus the members below 2*genus, sorted ascending."""

    genus: int
    small_elements: tuple[int, ...]

    def __post_init__(self):
        small = tuple(sorted(set(int(s) for s in self.small_elements)))
        object.__setattr__(self, "small_elements", small)
        object.__setattr__(self, "genus", int(self.genus))
        g = self.genus
        if g < 0:
            raise InvalidSemigroup("genus must be nonnegative")
        if g == 0:
            if small:
                raise InvalidSemigroup("genus 0 admits no elements below 0")
            return
        if small[0] != 0:
            raise InvalidSemigroup("0 must be a member")
        if small[-1] >= 2 * g:
            raise InvalidSemigroup(f"member {small[-1]} is not below 2g = {2 * g}")
        if len(small) != g:
            raise InvalidSemigroup(
                f"{2 * g - len(small)} gaps below 2g = {2 * g}; exactly {g} required"
            )
        members = set(small)
        for s in range(2 * g):
            if (s in members) == ((2 * g - 1 - s) in members):
                raise InvalidSemigroup(f"duality fails at {s}: exactly one of {s}, {2 * g - 1 - s} may be a member")
        for i, s in enumerate(small):
            if s < 2 * i:
                raise InvalidSemigroup(f"member {s} in position {i} is below the growth bound {2 * i}")

    @cached_property
    def _small_set(self) -> frozenset[int]:
        return frozenset(self.small_elements)

    def __contains__(self, s: int) -> bool:
        if s < 0:
            return False
        return s >= 2 * self.genus or s in self._small_set

    def count_below(self, m: int) -> int:
        """Number of members in [0, m)."""
        if m <= 0:
            return 0
        if m >= 2 * self.genus:
            return self.genus + (m - 2 * self.genus)
        return bisect_left(self.small_elements, m)

    def element(self, i: int) -> int:
        """The i-th smallest member (0-based)."""
        if i < 0:
            raise IndexError(i)
        if i < len(self.small_elements):
            return self.small_elements[i]
        return 2 * self.genus + (i - self.genus)

    def __str__(self):
        g = self.genus
        finite = ",".join(str(s) for s in self.small_elements)
        return f"{{{finite}}} u Z>={2 * g} (genus {g})"


def from_alexander(d: IntPolynomial) -> FormalSemigroup:
    """Gap-set complement of an Alexander polynomial: the support of d(t)/(1-t).

    The members below 2g are the runs between consecutive exponent pairs;
    the constructor then checks duality and growth.
    """
    intpoly.validate_lspace_shape(d)
    exps = [e for e, _ in d.terms]
    small = tuple(s for lo, hi in zip(exps[::2], exps[1::2]) for s in range(lo, hi))
    try:
        return FormalSemigroup(d.degree // 2, small)
    except InvalidSemigroup as exc:
        raise NotLSpaceShape(str(exc)) from exc


def to_alexander(sg: FormalSemigroup) -> IntPolynomial:
    """Exact inverse of :func:`from_alexander`: (1-t) * sum of t^s."""
    finite = IntPolynomial.from_terms((s, 1) for s in sg.small_elements)
    one_minus_t = IntPolynomial(((0, 1), (1, -1)))
    return finite * one_minus_t + intpoly.monomial(2 * sg.genus)


def closure_witness(sg: FormalSemigroup) -> tuple[int, int] | None:
    """Lexicographically least (x, y), 0 < x <= y, with x, y members but x + y a gap.

    With m the least positive member, the least member y with y + m a gap
    gives the witness (m, y).  Failing that, S + m lies in S, so S is the
    union of the classes w_j + mN over the Apery set w (w_j the least member
    congruent to j mod m) and s is a member exactly when s >= w_{s mod m}.
    A witness (x, y) with x - m a positive member yields the smaller witness
    (x - m, y), so the least one has x = w_i for some i != 0.  For that x and
    each residue j, the least member y >= x in the class of j is the only
    candidate there, since adding m to y keeps x + y in the same class; it is
    a witness exactly when x + y < w_{(x+y) mod m}.  The cost is O(g + m^2).
    """
    if sg.genus == 0:
        return None
    two_g = 2 * sg.genus
    m = min_nonzero(sg)
    for y in sg.small_elements[1:]:
        if y + m >= two_g:
            break
        if y + m not in sg:
            return (m, y)
    apery = [None] * m
    for s in chain(sg.small_elements, range(two_g, two_g + m)):
        if apery[s % m] is None:
            apery[s % m] = s
    for x in sorted(apery[1:]):
        if 2 * x >= two_g:
            break  # x + y >= 2x is then a member
        best = None
        for w in apery:
            y = w if w >= x else x + (w - x) % m
            if x + y < apery[(x + y) % m] and (best is None or y < best):
                best = y
        if best is not None:
            return (x, best)
    return None


def cable_semigroup(sg: FormalSemigroup, p: int, q: int) -> FormalSemigroup:
    """Image p*S + q*Z>=0 of the (p, q)-cabling, valid only for q >= p(2g - 1).

    Below that bound the displayed set need not be the cable's gap-set
    complement, so the call is rejected rather than computed.
    """
    if p < 2:
        raise ConstraintError(f"cabling needs p >= 2, got {p}")
    if q < 1:
        raise ConstraintError(f"cabling needs q >= 1, got {q}")
    if gcd(p, q) != 1:
        raise NotCoprime(f"cable indices ({p}, {q}) must be coprime")
    g = sg.genus
    bound = p * (2 * g - 1)
    if q < bound:
        raise HypothesisViolated(f"q={q} is below p*(2g-1)={bound}")
    g2 = p * g + (p - 1) * (q - 1) // 2
    limit = 2 * g2
    small = set()
    b = 0
    while q * b < limit:
        base = q * b
        i = 0
        while True:
            s = p * sg.element(i) + base
            if s >= limit:
                break
            small.add(s)
            i += 1
        b += 1
    return FormalSemigroup(g2, tuple(sorted(small)))


def from_generators(gens) -> FormalSemigroup:
    """Numerical semigroup generated by a set of positive integers with gcd 1.

    Membership is sieved upward until a run of min(gens) consecutive members
    appears, which proves every larger integer is a member; the gap count
    then determines the genus and the constructor re-checks duality.
    """
    gen_list = sorted(set(int(x) for x in gens))
    if not gen_list:
        raise ConstraintError("at least one generator is required")
    if gen_list[0] < 1:
        raise ConstraintError("generators must be positive")
    d = reduce(gcd, gen_list)
    if d != 1:
        raise InfiniteComplement(f"gcd {d} > 1 leaves infinitely many gaps")
    a = gen_list[0]
    if a == 1:
        return FormalSemigroup(0, ())
    second = gen_list[1] if len(gen_list) > 1 else gen_list[0]
    bound = 2 * gen_list[-1] * second + a + 1
    while True:
        member = bytearray(bound + 1)
        member[0] = 1
        for x in range(1, bound + 1):
            for gen in gen_list:
                if x >= gen and member[x - gen]:
                    member[x] = 1
                    break
        conductor = None
        run = 0
        for x in range(bound + 1):
            run = run + 1 if member[x] else 0
            if run == a:
                conductor = x - a + 1
                break
        if conductor is not None:
            break
        bound *= 2  # gcd 1 guarantees this terminates
    g = sum(1 for x in range(conductor) if not member[x])
    # the conductor never exceeds 2g, so everything in [conductor, 2g) is a member
    small = [x for x in range(min(conductor, 2 * g)) if member[x]]
    small.extend(range(conductor, 2 * g))
    return FormalSemigroup(g, tuple(small))


def min_nonzero(sg: FormalSemigroup) -> int:
    """Least positive member; needs genus >= 1."""
    if sg.genus == 0:
        raise Undefined("least nonzero member requires genus >= 1")
    if len(sg.small_elements) > 1:
        return sg.small_elements[1]
    return 2 * sg.genus
