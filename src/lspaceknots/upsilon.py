"""Exact piecewise-linear functions on [0, 2] and the upsilon invariant.

A function is stored as strictly increasing rational breakpoints running
from 0 to 2, the value at 0, and one rational slope per segment; continuity
is built in because values are always derived from the left.  Equal adjacent
slopes are merged on construction, so equality of canonical forms is plain
structural equality.  All arithmetic uses ints and fractions.Fraction; no
floating point enters anywhere.

The upsilon function of an L-space knot with gap-set complement S and genus
g is the maximum over [0, 2] of the lines

    y = -2 #(S intersect [0, m)) - t (g - m),        m = 0, ..., 2g.

On [0, 2] most of them never reach the maximum.  When m - 1 is a member the
line through m lies 2 - t >= 0 below the line through m - 1, and when m - 1
is a gap it lies t >= 0 above it.  So inside a run of members only the first
line counts, and inside a run of gaps each line is dominated by the next,
up to the member that starts the following run.  The envelope therefore
needs only the run starts: m = 0, every member m with m - 1 a gap, and
m = 2g, which are the exponents of the positive terms of the Alexander
polynomial.  The envelope itself is a single convex sweep over the
slope-sorted lines.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache

from . import intpoly, knotexpr, semigroup
from ._record import frozen
from .errors import ConstraintError, OutOfDomain
from .knotexpr import KnotCombination, KnotExpr
from .semigroup import FormalSemigroup

TWO = Fraction(2)


@frozen
class PiecewiseLinear:
    """Continuous piecewise-linear function on [0, 2] in canonical form."""

    breakpoints: tuple[Fraction, ...]
    value_at_zero: Fraction
    slopes: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(Fraction(b) for b in self.breakpoints)
        slopes = tuple(Fraction(s) for s in self.slopes)
        v0 = Fraction(self.value_at_zero)
        if len(bps) < 2 or len(slopes) != len(bps) - 1:
            raise ValueError("need one slope per segment and at least one segment")
        if bps[0] != 0 or bps[-1] != TWO:
            raise ValueError("the domain must be exactly [0, 2]")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if any(slopes[i] == slopes[i + 1] for i in range(len(slopes) - 1)):
            # canonical form: merge runs of equal adjacent slopes
            merged_b = [bps[0]]
            merged_s = [slopes[0]]
            for i in range(1, len(slopes)):
                if slopes[i] == merged_s[-1]:
                    continue
                merged_b.append(bps[i])
                merged_s.append(slopes[i])
            merged_b.append(bps[-1])
            bps, slopes = tuple(merged_b), tuple(merged_s)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "value_at_zero", v0)

    @cached_property
    def breakpoint_values(self) -> tuple[Fraction, ...]:
        vals = [self.value_at_zero]
        for i, s in enumerate(self.slopes):
            vals.append(vals[-1] + s * (self.breakpoints[i + 1] - self.breakpoints[i]))
        return tuple(vals)

    @property
    def is_zero(self) -> bool:
        return self.value_at_zero == 0 and self.slopes == (Fraction(0),)

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if t < 0 or t > TWO:
            raise OutOfDomain(f"t = {t} lies outside [0, 2]")
        i = bisect_right(self.breakpoints, t) - 1
        if i == len(self.slopes):
            i -= 1  # t == 2
        return self.breakpoint_values[i] + self.slopes[i] * (t - self.breakpoints[i])

    def scaled(self, c) -> PiecewiseLinear:
        c = Fraction(c)
        if c == 0:
            return ZERO
        return PiecewiseLinear(
            self.breakpoints, c * self.value_at_zero, tuple(c * s for s in self.slopes)
        )

    def mirrored(self) -> PiecewiseLinear:
        """The function t -> f(2 - t)."""
        bps = tuple(TWO - b for b in reversed(self.breakpoints))
        slopes = tuple(-s for s in reversed(self.slopes))
        return PiecewiseLinear(bps, self.breakpoint_values[-1], slopes)

    def __neg__(self) -> PiecewiseLinear:
        return self.scaled(-1)

    def __add__(self, other: PiecewiseLinear) -> PiecewiseLinear:
        return pl_combine([(1, self), (1, other)])

    def __sub__(self, other: PiecewiseLinear) -> PiecewiseLinear:
        return pl_combine([(1, self), (-1, other)])

    def __rmul__(self, c) -> PiecewiseLinear:
        return self.scaled(c)

    def __str__(self):
        parts = []
        for i, s in enumerate(self.slopes):
            parts.append(f"[{self.breakpoints[i]}, {self.breakpoints[i + 1]}]: slope {s}")
        return "; ".join(parts)


ZERO = PiecewiseLinear((0, 2), 0, (0,))


def envelope(lines) -> PiecewiseLinear:
    """Pointwise maximum over [0, 2] of lines given as int or Fraction (slope, intercept) pairs.

    Crossing points are compared by cross-multiplying the raw slopes and
    intercepts, so integer lines stay in integer arithmetic; a Fraction is
    made only for each breakpoint of the result.
    """
    best = {}
    for slope, intercept in lines:
        if slope not in best or intercept > best[slope]:
            best[slope] = intercept
    if not best:
        raise ConstraintError("the envelope of no lines is undefined")
    # convex sweep: hull entries are (slope, intercept, num, den), where the
    # line realizes the maximum from num/den on; den > 0, or den == 0 for -infinity
    hull = []
    for slope in sorted(best):
        intercept = best[slope]
        while hull:
            s0, b0, num0, den0 = hull[-1]
            num, den = b0 - intercept, slope - s0
            if not den0 or num * den0 > num0 * den:
                hull.append((slope, intercept, num, den))
                break
            hull.pop()
        else:
            hull.append((slope, intercept, 0, 0))
    bps = [Fraction(0)]
    slopes = []
    value_at_zero = None
    for i, (slope, intercept, num, den) in enumerate(hull):
        if den and num >= 2 * den:
            break  # starts at or after t = 2
        if i + 1 < len(hull) and hull[i + 1][2] <= 0:
            continue  # ends at or before t = 0
        if value_at_zero is None:
            value_at_zero = intercept  # first active line covers t = 0
        if den and num > 0:
            bps.append(Fraction(num, den))
        slopes.append(slope)
    bps.append(TWO)
    return PiecewiseLinear(tuple(bps), value_at_zero, tuple(slopes))


def pl_combine(terms) -> PiecewiseLinear:
    """Exact linear combination sum(c * f) over merged breakpoints."""
    pairs = [(Fraction(c), f) for c, f in terms if Fraction(c) != 0]
    if not pairs:
        return ZERO
    bps = sorted({b for _, f in pairs for b in f.breakpoints})
    value_at_zero = sum((c * f.value_at_zero for c, f in pairs), Fraction(0))
    idx = [0] * len(pairs)
    slopes = []
    for j in range(len(bps) - 1):
        t = bps[j]
        total = Fraction(0)
        for k, (c, f) in enumerate(pairs):
            while f.breakpoints[idx[k] + 1] <= t:
                idx[k] += 1
            total += c * f.slopes[idx[k]]
        slopes.append(total)
    return PiecewiseLinear(tuple(bps), value_at_zero, tuple(slopes))


def jump_spectrum(f: PiecewiseLinear) -> dict[Fraction, Fraction]:
    """Derivative jump at each interior breakpoint; canonical form makes all jumps nonzero."""
    return {
        f.breakpoints[i]: f.slopes[i] - f.slopes[i - 1] for i in range(1, len(f.slopes))
    }


def upsilon_from_semigroup(sg: FormalSemigroup) -> PiecewiseLinear:
    """Upsilon as the upper envelope of the member-count lines through the run starts."""
    g = sg.genus
    small = sg.small_elements
    lines = [(s - g, -2 * i) for i, s in enumerate(small) if i == 0 or small[i - 1] != s - 1]
    lines.append((g, -2 * g))  # m = 2g, the only line when g = 0
    return envelope(lines)


@lru_cache(maxsize=None)
def torus_consecutive_upsilon(n: int) -> PiecewiseLinear:
    """Upsilon of the (n, n+1) torus knot; its jumps are n at each 2i/n, 0 < i < n."""
    if n < 2:
        raise ConstraintError(f"consecutive torus knots need n >= 2, got {n}")
    return upsilon_from_semigroup(semigroup.from_alexander(intpoly.torus_alexander(n, n + 1)))


@lru_cache(maxsize=None)
def upsilon_of_knot(knot: KnotExpr) -> PiecewiseLinear:
    """Upsilon of a single certified (or candidate) L-space knot."""
    knotexpr.require_lspace(knot)
    return upsilon_from_semigroup(semigroup.from_alexander(knotexpr.alexander(knot)))


def upsilon_of_combination(comb: KnotCombination) -> PiecewiseLinear:
    """Multiplicity-weighted sum of the upsilon functions of a combination."""
    return pl_combine([(mult, upsilon_of_knot(k)) for k, mult in comb.items()])
