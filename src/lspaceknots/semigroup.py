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
``from_alexander`` is the only place that reads S off a polynomial and
checks that shape; the constructor is the only place that checks S.

Cabling multiplies Alexander polynomials, Delta_{C(K;p,q)}(t) =
Delta_K(t^p) * Delta_{T(p,q)}(t), so the series of the cable's S is
S_K(t^p) * (1 + t^q + ... + t^{(p-1)q}): the disjoint union of the p
translates p*S + b*q, b < p.
``cable_semigroup`` builds that union for every coprime (p, q); whether the
cable is an L-space knot (Hedden's bound q >= p(2g - 1)) is decided by
``knotexpr.certify_lspace`` alone.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from heapq import heappop, heappush
from itertools import chain, count
from math import gcd

from ._record import frozen
from .errors import ConstraintError, InfiniteComplement, NotLSpaceShape, Undefined
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
            raise NotLSpaceShape("genus must be nonnegative")
        if g == 0:
            if small:
                raise NotLSpaceShape("genus 0 admits no elements below 0")
            return
        if small[0] != 0:
            raise NotLSpaceShape("0 must be a member")
        if small[-1] >= 2 * g:
            raise NotLSpaceShape(f"member {small[-1]} is not below 2g = {2 * g}")
        if len(small) != g:
            raise NotLSpaceShape(
                f"{2 * g - len(small)} gaps below 2g = {2 * g}; exactly {g} required"
            )
        members = set(small)
        for s in range(2 * g):
            if (s in members) == ((2 * g - 1 - s) in members):
                raise NotLSpaceShape(f"duality fails at {s}: exactly one of {s}, {2 * g - 1 - s} may be a member")
        for i, s in enumerate(small):
            if s < 2 * i:
                raise NotLSpaceShape(f"member {s} in position {i} is below the growth bound {2 * i}")

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

    def __str__(self):
        g = self.genus
        finite = ",".join(str(s) for s in self.small_elements)
        return f"{{{finite}}} u Z>={2 * g} (genus {g})"


def from_alexander(d: IntPolynomial) -> FormalSemigroup:
    """Gap-set complement of an Alexander polynomial: the support of d(t)/(1-t).

    The polynomial needs the L-space shape: coefficients alternating +1/-1
    from a constant term 1, and even degree.  The members below 2g are then
    the runs between consecutive exponent pairs; the constructor checks
    duality and growth.
    """
    if d.is_zero:
        raise NotLSpaceShape("the zero polynomial has no gap set")
    if d.terms[0] != (0, 1):
        raise NotLSpaceShape("constant term must be 1")
    for i, (_, c) in enumerate(d.terms):
        if c != (1 if i % 2 == 0 else -1):
            raise NotLSpaceShape("coefficients must alternate between 1 and -1")
    if len(d.terms) % 2 == 0:
        raise NotLSpaceShape("the number of terms must be odd")
    if d.degree % 2 != 0:
        raise NotLSpaceShape(f"degree {d.degree} must be even")
    exps = [e for e, _ in d.terms]
    small = tuple(s for lo, hi in zip(exps[::2], exps[1::2]) for s in range(lo, hi))
    return FormalSemigroup(d.degree // 2, small)


def to_alexander(sg: FormalSemigroup) -> IntPolynomial:
    """Exact inverse of :func:`from_alexander`: +t^lo - t^hi per run [lo, hi), then +t^{2g}.

    The last run ends below 2g, because 2g - 1 is always a gap.
    """
    terms = []
    for s in sg.small_elements:
        if terms and terms[-1][0] == s:
            terms[-1] = (s + 1, -1)  # s extends the current run
        else:
            terms += ((s, 1), (s + 1, -1))
    terms.append((2 * sg.genus, 1))
    return IntPolynomial(tuple(terms))


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
    """Gap-set complement of the (p, q)-cable: the union of p*S + b*q over b < p.

    The translates lie in distinct classes mod p, so the union is disjoint
    and its series is that of the cable Alexander polynomial; the
    constructor accepts or rejects it exactly as ``from_alexander`` does
    that polynomial.  For q >= p(2g - 1), S + q lies in S and the union is
    p*S + q*Z>=0.
    """
    if p < 2:
        raise ConstraintError(f"cabling needs p >= 2, got {p}")
    if q < 1:
        raise ConstraintError(f"cabling needs q >= 1, got {q}")
    if gcd(p, q) != 1:
        raise ConstraintError(f"cable indices ({p}, {q}) must be coprime")
    g2 = p * sg.genus + (p - 1) * (q - 1) // 2
    small = []
    for b in range(p):
        for member in chain(sg.small_elements, count(2 * sg.genus)):
            s = p * member + b * q
            if s >= 2 * g2:
                break
            small.append(s)
    return FormalSemigroup(g2, tuple(small))


def from_generators(gens) -> FormalSemigroup:
    """Numerical semigroup generated by a set of positive integers with gcd 1.

    One shortest-path pass over the residues mod the least generator a gives
    the Apery set w (w_j the least member congruent to j mod a).  Then s is a
    member exactly when s >= w_{s mod a}, and Selmer's formula gives the
    genus, g = sum(w)/a - (a-1)/2; the constructor re-checks duality.
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
    apery = [None] * a
    heap = [(0, 0)]
    while heap:
        w, j = heappop(heap)
        if apery[j] is not None:
            continue
        apery[j] = w
        for gen in gen_list[1:]:
            k = (j + gen) % a
            if apery[k] is None:
                heappush(heap, (w + gen, k))
    g = (sum(apery) - a * (a - 1) // 2) // a
    return FormalSemigroup(g, tuple(s for s in range(2 * g) if s >= apery[s % a]))


def min_nonzero(sg: FormalSemigroup) -> int:
    """Least positive member; needs genus >= 1."""
    if sg.genus == 0:
        raise Undefined("least nonzero member requires genus >= 1")
    if len(sg.small_elements) > 1:
        return sg.small_elements[1]
    return 2 * sg.genus
