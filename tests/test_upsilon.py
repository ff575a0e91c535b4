"""Envelope construction, upsilon functions, combinations, and jump spectra."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lspaceknots import (
    FormalSemigroup,
    OutOfDomain,
    PiecewiseLinear,
    UNKNOT,
    alexander,
    cable_semigroup,
    closure_witness,
    combination,
    envelope,
    from_alexander,
    from_generators,
    jfamily,
    jump_spectrum,
    min_nonzero,
    parse,
    pl_combine,
    torus,
    torus_alexander,
    torus_consecutive_upsilon,
    upsilon_from_semigroup,
    upsilon_of_combination,
    upsilon_of_knot,
)
from lspaceknots.upsilon import ZERO
from strategies import certified_towers, formal_semigroups

F = Fraction

S_T23 = from_alexander(torus_alexander(2, 3))
S_T37 = from_alexander(torus_alexander(3, 7))
UPS_T37 = upsilon_from_semigroup(S_T37)
UPS_J3 = upsilon_of_knot(jfamily(3))


def semigroup_lines(sg):
    """All 2g + 1 member-count lines (m - g, -2 #(S intersect [0, m))), m = 0..2g."""
    count = 0
    lines = []
    for m in range(2 * sg.genus + 1):
        if m > 0 and (m - 1) in sg:
            count += 1
        lines.append((m - sg.genus, -2 * count))
    return lines


coprime_pairs = st.tuples(st.integers(2, 9), st.integers(3, 21)).filter(
    lambda ab: gcd(ab[0], ab[1]) == 1 and ab[0] != ab[1]
)
rational_t = st.builds(F, st.integers(0, 2000), st.just(1000))


# --- the piecewise-linear type ----------------------------------------------


def test_canonical_form_merges_equal_slopes():
    f = PiecewiseLinear((0, 1, 2), 0, (1, 1))
    assert f.breakpoints == (0, 2)
    assert f.slopes == (F(1),)


def test_invalid_constructions_raise():
    with pytest.raises(ValueError):
        PiecewiseLinear((0, 1), 0, (1, 2))
    with pytest.raises(ValueError):
        PiecewiseLinear((0, 3), 0, (1,))
    with pytest.raises(ValueError):
        PiecewiseLinear((0, 1, 1, 2), 0, (1, 2, 3))


def test_evaluate_and_domain():
    assert UPS_T37(F(2, 3)) == -4
    assert UPS_T37(1) == -4
    assert UPS_T37(2) == 0
    assert UPS_T37(F(1, 3)) == -2
    with pytest.raises(OutOfDomain):
        UPS_T37(F(5, 2))


def test_mirrored_and_scaled():
    assert UPS_J3.mirrored() == UPS_J3


# --- envelope -----------------------------------------------------------------


def test_envelope_single_line():
    f = envelope([(0, 0)])
    assert f == ZERO


def test_envelope_symmetric_crossing():
    f = envelope([(-1, 0), (1, -2)])
    assert f.breakpoints == (0, 1, 2)
    assert f.slopes == (F(-1), F(1))
    assert f(1) == -1


def test_envelope_t37_lines():
    f = envelope(semigroup_lines(S_T37))
    assert f.breakpoints == (0, F(2, 3), F(4, 3), 2)
    assert f.slopes == (F(-6), F(0), F(6))


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-8, 8)), min_size=1, max_size=8), rational_t)
def test_envelope_matches_pointwise_max(lines, t):
    f = envelope(lines)
    assert f(t) == max(F(m) * t + F(b) for m, b in lines)


def assert_is_pointwise_max(f, lines):
    """f equals max(slope * t + intercept) at every breakpoint and segment midpoint.

    The maximum is convex, so agreeing with a linear segment at its ends and
    its midpoint makes it that segment throughout.
    """
    bps = f.breakpoints
    for t in bps + tuple((a + b) / 2 for a, b in zip(bps, bps[1:])):
        n, d = t.numerator, t.denominator  # scaled by d, integer lines stay integer
        assert f(t) == F(max(slope * n + intercept * d for slope, intercept in lines)) / d


numbers = st.one_of(
    st.integers(-12, 12), st.fractions(min_value=-12, max_value=12, max_denominator=6)
)


@st.composite
def line_sets(draw):
    """Int and Fraction lines plus repeated and parallel copies of some of them."""
    lines = draw(st.lists(st.tuples(numbers, numbers), min_size=1, max_size=10))
    for slope, intercept in draw(st.lists(st.sampled_from(lines), max_size=3)):
        lines.append((slope, intercept))
        lines.append((slope, intercept + draw(st.integers(-5, 5))))
    return draw(st.permutations(lines))


@given(line_sets())
def test_envelope_matches_pointwise_max_at_every_breakpoint(lines):
    assert_is_pointwise_max(envelope(lines), lines)


@pytest.mark.parametrize(
    "lines",
    [
        [(-3, -20), (-1, 0), (2, 10)],  # every crossing left of 0
        [(-2, 0), (0, -5), (1, -9)],  # every crossing right of 2
        [(-3, -20), (-1, 0), (0, -1), (4, -10), (6, -20)],  # crossings at -10, 1, 9/4, 5
        [(1, 0), (1, 0), (F(1), F(-1)), (-1, 0), (F(-1), F(0))],  # ties and parallels
    ],
)
def test_envelope_with_crossings_outside_the_domain(lines):
    assert_is_pointwise_max(envelope(lines), lines)


# --- upsilon from gap sets ------------------------------------------------------


def test_upsilon_of_trefoil_set():
    f = upsilon_from_semigroup(S_T23)
    assert f.breakpoints == (0, 1, 2)
    assert f.slopes == (F(-1), F(1))


def test_upsilon_of_j3():
    assert UPS_J3.breakpoints == (0, F(2, 5), 1, F(8, 5), 2)
    assert UPS_J3.slopes == (F(-7), F(-2), F(2), F(7))
    assert UPS_J3(F(2, 5)) == F(-14, 5)


@given(coprime_pairs, rational_t)
def test_upsilon_agrees_with_direct_maximum(ab, t):
    sg = from_generators(set(ab))
    g = sg.genus
    direct = max(-2 * sg.count_below(m) - t * (g - m) for m in range(2 * g + 1))
    assert upsilon_from_semigroup(sg)(t) == direct


@given(formal_semigroups())
def test_upsilon_of_formal_semigroup_is_max_of_all_lines(sg):
    assert_is_pointwise_max(upsilon_from_semigroup(sg), semigroup_lines(sg))


@settings(deadline=None)
@given(certified_towers())
def test_upsilon_of_certified_tower_is_max_of_all_lines(knot):
    sg = from_alexander(alexander(knot))
    assert_is_pointwise_max(upsilon_from_semigroup(sg), semigroup_lines(sg))


@given(coprime_pairs)
def test_upsilon_symmetry_convexity_integrality(ab):
    sg = from_generators(set(ab))
    f = upsilon_from_semigroup(sg)
    assert f(0) == 0
    assert f.mirrored() == f
    assert all(f.slopes[i] < f.slopes[i + 1] for i in range(len(f.slopes) - 1))
    for t0, jump in jump_spectrum(f).items():
        assert jump > 0
        assert (t0 / 2 * jump).denominator == 1


@given(coprime_pairs)
def test_first_singularity_at_two_over_least_member(ab):
    sg = from_generators(set(ab))
    assert closure_witness(sg) is None
    a = min_nonzero(sg)
    f = upsilon_from_semigroup(sg)
    assert f.breakpoints[1] == F(2, a)
    assert f.slopes[0] == -sg.genus
    probe = (f.breakpoints[1] + f.breakpoints[2]) / 2
    assert f(probe) > -sg.genus * probe


# --- combinations ----------------------------------------------------------------


def test_combine_self_cancellation():
    assert pl_combine([(1, UPS_J3), (-1, UPS_J3)]) == ZERO


def test_twice_t34_equals_t37():
    t34 = upsilon_from_semigroup(from_alexander(torus_alexander(3, 4)))
    assert pl_combine([(2, t34)]) == UPS_T37
    assert pl_combine([(1, t34), (1, t34)]) == UPS_T37


def test_negation():
    t23 = upsilon_from_semigroup(S_T23)
    f = pl_combine([(-1, t23)])
    assert f.slopes == (F(1), F(-1))
    assert f(1) == 1


def test_combination_of_knots():
    assert upsilon_of_combination(parse("T(3,7) - 2*T(3,4)")) == ZERO
    assert upsilon_of_combination(parse("5*U")) == ZERO
    assert upsilon_of_combination(parse("J(3)")) == UPS_J3
    assert upsilon_of_combination(combination([])) == ZERO


def test_combination_requires_lspace():
    from lspaceknots import NotLSpace, cable

    bad = combination([(cable(torus(2, 3), 2, 1), 1)])
    with pytest.raises(NotLSpace):
        upsilon_of_combination(bad)


# --- jump spectra -------------------------------------------------------------


def test_jump_spectrum_t37():
    assert jump_spectrum(UPS_T37) == {F(2, 3): 6, F(4, 3): 6}


def test_jump_spectrum_j3():
    assert jump_spectrum(UPS_J3) == {F(2, 5): 5, F(1): 4, F(8, 5): 5}


def test_jump_spectrum_constant_zero():
    assert jump_spectrum(ZERO) == {}


# --- consecutive torus knots ------------------------------------------------------


def test_consecutive_torus_small_cases():
    assert jump_spectrum(torus_consecutive_upsilon(2)) == {F(1): 2}
    assert jump_spectrum(torus_consecutive_upsilon(5)) == {
        F(2, 5): 5,
        F(4, 5): 5,
        F(6, 5): 5,
        F(8, 5): 5,
    }
    f3 = torus_consecutive_upsilon(3)
    assert f3.breakpoints == (0, F(2, 3), F(4, 3), 2)
    assert f3.slopes == (F(-3), F(0), F(3))


@given(st.integers(2, 16))
def test_consecutive_torus_jump_law(n):
    expected = {F(2 * i, n): F(n) for i in range(1, n)}
    assert jump_spectrum(torus_consecutive_upsilon(n)) == expected


# --- second singularity of the J(k) family ----------------------------------------
#
# The linear law -2 - (g - (2k-1)) t holds from 2/(2k-1) up to
# min(4/(k+1), 6/(2k-1)): for k >= 6 the member-count-4 support line
# (index m = 4k-2) takes over at 6/(2k-1), strictly before 4/(k+1).


@pytest.mark.parametrize("k", range(3, 13))
def test_jk_second_singularity_location(k):
    f = upsilon_of_knot(jfamily(k))
    g = k + (k - 1) ** 2
    first = F(2, 2 * k - 1)
    second = min(F(4, k + 1), F(6, 2 * k - 1))
    assert f.breakpoints[1] == first
    assert f.breakpoints[2] == second
    assert f.slopes[0] == -g
    assert f.slopes[1] == -(g - (2 * k - 1))
    for t in (first, (first + second) / 2, second):
        assert f(t) == -2 - (g - (2 * k - 1)) * t


def test_unknot_upsilon_is_zero():
    assert upsilon_of_knot(UNKNOT) == ZERO


def test_cable_route_and_generator_route_agree():
    via_gens = upsilon_from_semigroup(from_generators({5, 6, 9}))
    via_cable = upsilon_from_semigroup(cable_semigroup(S_T23, 3, 5))
    assert via_gens == via_cable == UPS_J3
