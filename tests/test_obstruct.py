"""Decomposition, jump comparisons, the lambda functionals, and reports."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lspaceknots import (
    Algebraicity,
    ConstraintError,
    DomainError,
    IntPolynomial,
    NotLSpace,
    PRETZEL_P237,
    PiecewiseLinear,
    Verdict,
    algebraicity_report,
    cable,
    decompose_into_consecutive_torus,
    explicit_alexander,
    independence_matrix,
    jfamily,
    jump_equality,
    lambda_invariant,
    parse,
    pl_combine,
    torus,
    torus_consecutive_upsilon,
    upsilon_of_knot,
)
from lspaceknots import obstruct
from lspaceknots.upsilon import ZERO
from strategies import certified_towers

F = Fraction


# --- decomposition ------------------------------------------------------------


def test_decompose_trefoil_is_itself():
    dec = decompose_into_consecutive_torus(torus_consecutive_upsilon(2))
    assert dict(dec.coefficients) == {2: 1}
    assert dec.all_integer and dec.all_nonnegative


def test_decompose_t37():
    dec = decompose_into_consecutive_torus(upsilon_of_knot(torus(3, 7)))
    assert dict(dec.coefficients) == {3: 2}
    assert dec.all_integer and dec.all_nonnegative


def test_decompose_j3_fails_at_four_fifths():
    dec = decompose_into_consecutive_torus(upsilon_of_knot(jfamily(3)))
    assert not dec.succeeded
    assert dec.failure_reason == "non-dyadic-location"
    assert dec.failure_location == F(4, 5)


def test_decompose_zero_function():
    dec = decompose_into_consecutive_torus(ZERO)
    assert dec.succeeded and dict(dec.coefficients) == {}


def test_decompose_handles_rational_and_negative_coefficients():
    f = pl_combine(
        [
            (F(1, 2), torus_consecutive_upsilon(4)),
            (-2, torus_consecutive_upsilon(3)),
        ]
    )
    dec = decompose_into_consecutive_torus(f)
    assert dec.succeeded
    assert dict(dec.coefficients) == {4: F(1, 2), 3: -2}
    assert not dec.all_integer
    assert not dec.all_nonnegative


def test_decompose_preconditions():
    shifted = PiecewiseLinear((0, 2), 1, (0,))
    with pytest.raises(DomainError):
        decompose_into_consecutive_torus(shifted)
    asymmetric = PiecewiseLinear((0, F(1, 2), 2), 0, (F(-1), F(1, 3)))
    with pytest.raises(DomainError):
        decompose_into_consecutive_torus(asymmetric)


def test_decompose_reconstruction_on_sampled_towers():
    samples = [torus(4, 7), torus(5, 6), torus(6, 13), cable(torus(2, 3), 2, 15)]
    for knot in samples:
        f = upsilon_of_knot(knot)
        dec = decompose_into_consecutive_torus(f)
        assert dec.succeeded and dec.all_integer and dec.all_nonnegative
        rebuilt = pl_combine(
            [(c, torus_consecutive_upsilon(n)) for n, c in dec.coefficients]
        )
        assert rebuilt == f


DECOMPOSITION_POOL = (
    *(jfamily(k) for k in (3, 4, 5)),
    *(torus(n, n + 1) for n in (2, 3, 4, 5, 6)),
    PRETZEL_P237,
    cable(torus(2, 3), 2, 13),
    cable(jfamily(3), 2, 57),
    explicit_alexander(IntPolynomial.from_coeffs([1, -1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, -1, 1])),
)


@given(st.lists(st.tuples(st.sampled_from(DECOMPOSITION_POOL), st.integers(-3, 3)), max_size=4))
def test_decompose_random_combinations(terms):
    f = pl_combine([(c, upsilon_of_knot(knot)) for knot, c in terms])
    dec = decompose_into_consecutive_torus(f)
    if dec.succeeded:
        assert pl_combine([(c, torus_consecutive_upsilon(n)) for n, c in dec.coefficients]) == f
    else:
        assert dec.failure_reason == "non-dyadic-location"
        assert (2 / dec.failure_location).denominator != 1


# --- jump comparisons -----------------------------------------------------------


def test_jump_equality_t37():
    cmp = jump_equality(upsilon_of_knot(torus(3, 7)), 3)
    assert cmp.equal
    assert cmp.jump_at_2_over_p == cmp.jump_at_4_over_p == 6


def test_jump_equality_j3_at_5():
    cmp = jump_equality(upsilon_of_knot(jfamily(3)), 5)
    assert not cmp.equal
    assert (cmp.jump_at_2_over_p, cmp.jump_at_4_over_p) == (5, 0)


def test_jump_equality_constant_zero():
    assert jump_equality(ZERO, 7).equal


def test_jump_equality_rejects_even_p():
    with pytest.raises(ConstraintError):
        jump_equality(ZERO, 4)
    with pytest.raises(ConstraintError):
        jump_equality(ZERO, 1)


# --- the lambda functionals -------------------------------------------------------


def test_lambda_on_j3():
    f = upsilon_of_knot(jfamily(3))
    assert lambda_invariant(3, f) == 1
    assert lambda_invariant(4, f) == 0


def test_lambda_vanishes_on_consecutive_torus():
    assert lambda_invariant(3, torus_consecutive_upsilon(5)) == 0


def test_lambda_rejects_small_k():
    with pytest.raises(ConstraintError):
        lambda_invariant(1, ZERO)


def test_lambda_vanishes_on_random_combinations():
    rng = random.Random(5)
    for _ in range(60):
        ns = rng.sample(range(2, 21), 4)
        f = pl_combine(
            [(rng.randint(-3, 3), torus_consecutive_upsilon(n)) for n in ns]
        )
        for k in range(2, 13):
            assert lambda_invariant(k, f) == 0


def test_lambda_diagonal_on_jfamily():
    for k in (3, 5, 9):
        assert lambda_invariant(k, upsilon_of_knot(jfamily(k))) == 1


# --- independence matrix -----------------------------------------------------------


def test_matrix_single_entry():
    assert independence_matrix(3, 3) == ((F(1),),)


def test_matrix_3_to_5_triangular():
    matrix = independence_matrix(3, 5)
    for r in range(3):
        assert matrix[r][r] == 1
        for c in range(r + 1, 3):
            assert matrix[r][c] == 0


def test_matrix_3_to_60_is_unit_lower_triangular():
    matrix = independence_matrix(3, 60)
    assert len(matrix) == 58
    for r, row in enumerate(matrix):
        assert len(row) == 58
        assert row[r] == 1
        assert all(x == 0 for x in row[r + 1:])


def count_spectra(monkeypatch) -> list:
    built = []
    jump_spectrum = obstruct.jump_spectrum
    monkeypatch.setattr(obstruct, "jump_spectrum", lambda f: built.append(f) or jump_spectrum(f))
    return built


@pytest.mark.parametrize("kmax", [3, 5, 9])
def test_matrix_builds_one_spectrum_per_row(monkeypatch, kmax):
    built = count_spectra(monkeypatch)
    independence_matrix(3, kmax)
    assert built == [upsilon_of_knot(jfamily(k)) for k in range(3, kmax + 1)]


def test_matrix_rejects_bad_range():
    with pytest.raises(ConstraintError):
        independence_matrix(2, 5)
    with pytest.raises(ConstraintError):
        independence_matrix(5, 4)


# --- reports --------------------------------------------------------------------


def test_report_torus_3_7():
    report = algebraicity_report(torus(3, 7))
    assert report.verdict is Verdict.ALGEBRAIC
    assert report.closed and report.closure_witness is None
    assert report.jump_equality_failures == ()
    assert report.decomposition.succeeded
    assert report.reasons == ()


def test_report_j4():
    report = algebraicity_report(jfamily(4))
    assert report.verdict is Verdict.NOT_ALGEBRAIC
    assert report.closed  # the closure obstruction alone cannot see this family
    assert 7 in {cmp.p for cmp in report.jump_equality_failures}
    assert "jump-inequality" in report.reasons
    assert "no-consecutive-torus-expansion" in report.reasons
    assert "index-criterion" in report.reasons
    assert "semigroup-not-closed" not in report.reasons


def test_report_pretzel():
    report = algebraicity_report(PRETZEL_P237)
    assert report.verdict is Verdict.NOT_ALGEBRAIC
    assert not report.closed
    assert report.closure_witness == (3, 3)
    assert "semigroup-not-closed" in report.reasons
    assert report.index_criterion is Algebraicity.UNKNOWN


def test_report_candidate_without_obstructions():
    from lspaceknots import explicit_alexander, torus_alexander

    report = algebraicity_report(explicit_alexander(torus_alexander(2, 3)))
    assert report.verdict is Verdict.NO_OBSTRUCTION_FOUND
    assert report.index_criterion is Algebraicity.UNKNOWN
    assert report.reasons == ()


def test_report_rejects_non_lspace():
    with pytest.raises(NotLSpace):
        algebraicity_report(cable(torus(2, 3), 2, 1))


CANDIDATE = "alex[1,-1,0,1,-1,0,1,0,-1,1,0,-1,1]"


@pytest.mark.parametrize("text", ["T(3,7)", "J(3)", "C(T(2,3);2,13)", "C(C(T(2,3);2,13);3,100)", "P237", CANDIDATE])
def test_report_certifies_and_builds_the_gap_set_once(monkeypatch, text):
    from lspaceknots import knotexpr, semigroup, upsilon

    (knot, _), = parse(text).items()
    d = knotexpr.alexander(knot)
    for cached in (knotexpr.alexander, upsilon.upsilon_of_knot, upsilon.torus_consecutive_upsilon):
        cached.cache_clear()
    certified, read = [], []
    certify_lspace, from_alexander = knotexpr.certify_lspace, semigroup.from_alexander
    monkeypatch.setattr(knotexpr, "certify_lspace", lambda k: certified.append(k) or certify_lspace(k))
    monkeypatch.setattr(semigroup, "from_alexander", lambda p: read.append(p) or from_alexander(p))
    (knot, _), = parse(text).items()  # a candidate builds its gap set here, to check it
    report = algebraicity_report(knot)
    assert certified == [knot]
    # the decomposition reads the gap sets of the T(n, n+1) it peels off, never this one again;
    # P237 is a named core, built once on import, so the report builds none
    assert read.count(d) == (0 if text == "P237" else 1)
    assert report == algebraicity_report(knot)  # and the report is unchanged on warm caches


@pytest.mark.parametrize("text", ["T(3,7)", "J(3)", "C(C(T(2,3);2,13);3,83)", "P237", CANDIDATE])
def test_report_builds_one_spectrum(monkeypatch, text):
    (knot, _), = parse(text).items()
    built = count_spectra(monkeypatch)
    algebraicity_report(knot)
    assert built == [upsilon_of_knot(knot)]


def jump_at(f, t):
    """Slope change of f at t, from values of f on a step that stays inside the segments next to t."""
    points = sorted(set(f.breakpoints) | {t})
    h = min(b - a for a, b in zip(points, points[1:])) / 2
    return (f(t + h) - f(t)) / h - (f(t) - f(t - h)) / h


JUMP_POOL = (
    *(jfamily(k) for k in range(3, 13)),
    PRETZEL_P237,
    parse(CANDIDATE).items()[0][0],
    explicit_alexander(IntPolynomial.from_coeffs([1, -1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, -1, 1])),
    explicit_alexander(IntPolynomial.from_coeffs([1, -1, 1])),
)


@settings(deadline=None)
@given(certified_towers() | st.sampled_from(JUMP_POOL))
def test_report_jump_failures_match_a_scan_of_every_odd_p(knot):
    # 2/p or 4/p can be a breakpoint a/d only when p divides 4d, so p <= 4d
    f = upsilon_of_knot(knot)
    ps = range(3, 4 * max(b.denominator for b in f.breakpoints) + 1, 2)
    comparisons = [jump_equality(f, p) for p in ps]
    for cmp in comparisons:
        p = cmp.p
        assert (cmp.jump_at_2_over_p, cmp.jump_at_4_over_p) == (jump_at(f, F(2, p)), jump_at(f, F(4, p)))
        assert lambda_invariant((p + 1) // 2, f) == (jump_at(f, F(2, p)) - jump_at(f, F(4, p))) / p
    assert algebraicity_report(knot).jump_equality_failures == tuple(c for c in comparisons if not c.equal)


def test_report_closure_never_fires_on_certified_towers():
    for k in range(3, 8):
        report = algebraicity_report(jfamily(k))
        assert report.closed
        assert report.verdict is Verdict.NOT_ALGEBRAIC
