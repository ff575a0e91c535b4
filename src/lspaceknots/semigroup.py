"""Cofinite subsets of the nonnegative integers attached to L-space knots.

An L-space Alexander polynomial is t^{n_0} - t^{n_1} + ... + t^{n_{2r}} with
n_0 = 0 and n_{2r} = 2g; its set S, the support of its quotient by 1 - t,
holds the runs [n_0, n_1), [n_2, n_3), ... below 2g and all of Z>=2g.  S is
stored as these exponents alone, so its cost follows the term count, not
the genus; the sorted members below 2g (``small_elements``) are a view
built on request, and ``from_members`` is the one way in from such a list.
The constructor checks in O(r) the facts such sets always satisfy: exactly
g gaps, all below 2g, the duality s in S <=> 2g-1-s not in S (the
palindrome n_i + n_{2r-i} = 2g), and, once per run, the growth bound that
the (i+1)th smallest member is at least 2i for i <= g.  Generator lists are
not used: the sets of non-algebraic knots need not be closed under addition.

Cabling multiplies Alexander polynomials, Delta_{C(K;p,q)}(t) =
Delta_K(t^p) * Delta_{T(p,q)}(t), so the cable's S is the disjoint union of
the p translates p*S + b*q, b < p; ``cable_semigroup`` builds it for every
coprime (p, q).  Whether the cable is an L-space knot (Hedden's bound
q >= p(2g - 1)) is decided by ``knotexpr.certify_lspace`` alone.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, reduce
from heapq import heappop, heappush
from itertools import accumulate, chain, count, repeat
from math import gcd
from operator import add, lt, sub

from ._record import frozen
from .errors import ConstraintError, InfiniteComplement, NotLSpaceShape, Undefined
from .intpoly import IntPolynomial


def _gap_count_failure(g: int, members: int) -> NotLSpaceShape:
    return NotLSpaceShape(f"{2 * g - members} gaps below 2g = {2 * g}; exactly {g} required")


def _duality_failure(g: int, s: int) -> NotLSpaceShape:
    return NotLSpaceShape(f"duality fails at {s}: exactly one of {s}, {2 * g - 1 - s} may be a member")


@frozen
class FormalSemigroup:
    """Exponents 0 = n_0 < ... < n_{2r} = 2g of Delta; the members below 2g are the runs [n_{2i}, n_{2i+1})."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = self.exponents
        if not exps or exps[0] != 0 or not all(map(lt, exps, exps[1:])):
            raise NotLSpaceShape("exponents must strictly increase from 0")
        if len(exps) % 2 == 0:
            raise NotLSpaceShape("the number of terms must be odd")
        if exps[-1] % 2 != 0:
            raise NotLSpaceShape(f"degree {exps[-1]} must be even")
        g, members = self.genus, self.run_starts[-1][1]
        if members != g:
            raise _gap_count_failure(g, members)
        # s -> 2g-1-s maps the gaps onto runs with exponents 2g - n_{2r-i}; duality
        # makes them the members, and the sets first differ where the lists do
        mirror = tuple(map(sub, repeat(2 * g), reversed(exps)))
        if mirror != exps:
            raise _duality_failure(g, min(next((a, b) for a, b in zip(exps, mirror) if a != b)))
        for (lo, position), hi in zip(self.run_starts, exps[1::2]):
            if hi + 2 * position > 2 * lo + 1:  # the last member, hi - 1, is below twice its position
                i = max(position, lo - position + 1)  # the first position where it happens
                raise NotLSpaceShape(f"member {lo - position + i} in position {i} is below the growth bound {2 * i}")

    @property
    def genus(self) -> int:
        return self.exponents[-1] // 2

    @cached_property
    def run_starts(self) -> tuple[tuple[int, int], ...]:
        """(n_{2i}, number of members below it) for i = 0, ..., r, ending with (2g, g)."""
        exps = self.exponents
        return tuple(zip(exps[::2], accumulate(map(sub, exps[1::2], exps[::2]), initial=0)))

    @cached_property
    def small_elements(self) -> tuple[int, ...]:
        """The members below 2g, ascending."""
        exps = self.exponents
        return tuple(chain.from_iterable(map(range, exps[::2], exps[1::2])))

    def __contains__(self, s: int) -> bool:
        return bisect_right(self.exponents, s) % 2 == 1

    def count_below(self, m: int) -> int:
        """Number of members in [0, m)."""
        i = bisect_right(self.exponents, m) - 1  # n_i <= m < n_{i+1}
        start, below = self.run_starts[(i + 1) // 2]
        return below if i % 2 else below + m - start  # i odd: m is a gap, or m < 0

    def __str__(self):
        finite = ",".join(str(s) for s in self.small_elements)
        return f"{{{finite}}} u Z>={self.exponents[-1]} (genus {self.genus})"


def from_members(genus: int, members) -> FormalSemigroup:
    """The set of the given genus whose members below 2*genus are ``members``."""
    g, members = int(genus), set(map(int, members))
    if g < 0:
        raise NotLSpaceShape("genus must be nonnegative")
    if g == 0 and members:
        raise NotLSpaceShape("genus 0 admits no elements below 0")
    if g and (not members or min(members) != 0):
        raise NotLSpaceShape("0 must be a member")
    if members and max(members) >= 2 * g:
        raise NotLSpaceShape(f"member {max(members)} is not below 2g = {2 * g}")
    if 2 * g - 1 in members:  # so is 0, and no exponents describe a run that meets 2g
        if len(members) != g:
            raise _gap_count_failure(g, len(members))
        raise _duality_failure(g, 0)
    # the support of (1 - t) * sum(t^s): the members after a gap and the gaps after a member
    exps = sorted(members ^ set(map(add, members, repeat(1))))
    return FormalSemigroup((*exps, 2 * g))


def from_alexander(d: IntPolynomial) -> FormalSemigroup:
    """Gap-set complement of d: its exponents, once its coefficients alternate +1/-1 from a constant 1."""
    if d.is_zero:
        raise NotLSpaceShape("the zero polynomial has no gap set")
    if d.terms[0] != (0, 1):
        raise NotLSpaceShape("constant term must be 1")
    if any(c != (-1 if i % 2 else 1) for i, (_, c) in enumerate(d.terms)):
        raise NotLSpaceShape("coefficients must alternate between 1 and -1")
    return FormalSemigroup(tuple(e for e, _ in d.terms))


def to_alexander(sg: FormalSemigroup) -> IntPolynomial:
    """Exact inverse of :func:`from_alexander`: +t^lo - t^hi per run [lo, hi), then +t^{2g}."""
    return IntPolynomial(tuple((e, -1 if i % 2 else 1) for i, e in enumerate(sg.exponents)))


def closure_witness(sg: FormalSemigroup) -> tuple[int, int] | None:
    """Lexicographically least (x, y), 0 < x <= y, with x, y members but x + y a gap.

    With m the least positive member, the least member y with y + m a gap
    gives the witness (m, y); in a run [a, b) of members that is a, or else
    the end of the run through a + m, less m.  Failing that, S + m lies in
    S, so S is the union of the classes w_j + mN over the Apery set w (w_j
    the least member congruent to j mod m), s is a member exactly when
    s >= w_{s mod m}, and the first m members of each run give w.  A witness
    (x, y) with x - m a positive member yields the smaller witness
    (x - m, y), so the least one has x = w_i for some i != 0.  For that x
    and each residue j, the least member y >= x in the class of j is the
    only candidate there, since adding m to y keeps x + y in the same class;
    it is a witness exactly when x + y < w_{(x+y) mod m}.  The cost is
    O(r log r + r m + m^2) for r runs.
    """
    if sg.genus == 0:
        return None
    two_g, exps = 2 * sg.genus, sg.exponents
    m = min_nonzero(sg)
    for a, b in zip(exps[2::2], exps[3::2]):
        if a + m >= two_g:
            break
        i = bisect_right(exps, a + m)  # odd when a + m is a member, and n_i ends its run
        y = exps[i] - m if i % 2 else a
        if y < b:
            return (m, y)
    apery = [None] * m
    for a, b in zip(exps[::2], chain(exps[1::2], [two_g + m])):  # the last run is [2g, 2g + m)
        for s in range(a, min(b, a + m)):
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


def cable_genus(g: int, p: int, q: int) -> int:
    """Genus of the (p, q)-cable of a knot of genus g: p*g + (p-1)(q-1)/2."""
    return p * g + (p - 1) * (q - 1) // 2


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
    g2 = cable_genus(sg.genus, p, q)
    small = []
    for b in range(p):
        for member in chain(sg.small_elements, count(2 * sg.genus)):
            s = p * member + b * q
            if s >= 2 * g2:
                break
            small.append(s)
    return from_members(g2, small)


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
    return from_members(g, (s for s in range(2 * g) if s >= apery[s % a]))


def min_nonzero(sg: FormalSemigroup) -> int:
    """Least positive member, n_2 (growth makes n_1 = 1); needs genus >= 1."""
    if sg.genus == 0:
        raise Undefined("least nonzero member requires genus >= 1")
    return sg.exponents[2]
