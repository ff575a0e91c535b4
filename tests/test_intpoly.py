"""Polynomial arithmetic, Alexander constructors, and the series expansion.

The expansion of d(t)/(1 - t) is read through ``from_alexander``, whose
members are the support of that series.
"""

import pytest
from hypothesis import given, strategies as st

from lspaceknots import (
    ConstraintError,
    IntPolynomial,
    NotDivisible,
    NotLSpaceShape,
    ParseError,
    Verdict,
    algebraicity_report,
    cable_alexander,
    from_alexander,
    parse_polynomial,
    poly_exact_div,
    substitute_power,
    torus,
    torus_alexander,
)
from lspaceknots.intpoly import ONE, ZERO

P = IntPolynomial.from_coeffs

T37 = P([1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1])


def naive_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Schoolbook multiplication on dense coefficient lists, used as an oracle."""
    ca, cb = a.coefficients(), b.coefficients()
    if not ca or not cb:
        return ZERO
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            out[i + j] += x * y
    return P(out)


small_polys = st.lists(st.integers(-5, 5), min_size=0, max_size=8).map(P)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def test_mul_difference_of_squares():
    assert P([1, -1]) * P([1, 1]) == P([1, 0, -1])


def test_mul_identity():
    p = P([3, 0, 0, -2])
    assert ONE * p == p


def test_mul_cable_product():
    lhs = P([1, 0, -1, 0, 1]) * P([1, -1, 1, -1, 1, -1, 1])
    assert lhs == P([1, -1, 0, 0, 1, -1, 1, 0, 0, -1, 1])
    assert lhs == naive_mul(P([1, 0, -1, 0, 1]), P([1, -1, 1, -1, 1, -1, 1]))


@given(small_polys, small_polys)
def test_mul_matches_schoolbook_oracle(a, b):
    assert a * b == naive_mul(a, b)


@given(small_polys, nonzero_polys)
def test_exact_div_inverts_mul(a, b):
    assert poly_exact_div(a * b, b) == a


def test_exact_div_four_factor_quotient():
    num = P([-1] + [0] * 20 + [1]) * P([-1, 1])
    den = P([-1, 0, 0, 1]) * P([-1, 0, 0, 0, 0, 0, 0, 1])
    assert poly_exact_div(num, den) == T37


def test_exact_div_linear():
    assert poly_exact_div(P([-1, 0, 1]), P([-1, 1])) == P([1, 1])


def test_exact_div_remainder_raises():
    with pytest.raises(NotDivisible):
        poly_exact_div(P([1, 0, 1]), P([-1, 1]))


def test_exact_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(ONE, ZERO)


def test_exact_div_remainder_found_deep_in_the_pass():
    divisor = P([1, 0, 1])
    # remainder t, below the divisor's degree
    num = IntPolynomial.from_terms((divisor * P([1] * 51)).terms + ((1, 1),))
    with pytest.raises(NotDivisible, match="remainder of degree 1 is smaller"):
        poly_exact_div(num, divisor)


def test_exact_div_non_multiple_leading_coefficient_deep_in_the_pass():
    divisor = P([2, 2])  # leading coefficient 2
    num = IntPolynomial.from_terms((divisor * P([1] * 50)).terms + ((20, 1),))
    with pytest.raises(NotDivisible, match="leading coefficient 3 is not a multiple of 2"):
        poly_exact_div(num, divisor)


def test_torus_2_20001_is_alternating():
    d = torus_alexander(2, 20001)
    assert d.terms == tuple((e, (-1) ** e) for e in range(20001))


def test_report_torus_150_151_is_algebraic():
    assert algebraicity_report(torus(150, 151)).verdict is Verdict.ALGEBRAIC


def test_substitute_power_scales_exponents():
    assert substitute_power(P([1, -1, 1]), 2) == P([1, 0, -1, 0, 1])
    assert substitute_power(P([1, -1, 0, 1]), 3) == P([1, 0, 0, -1, 0, 0, 0, 0, 0, 1])


def test_substitute_power_identity():
    p = P([1, -1, 0, 1])
    assert substitute_power(p, 1) == p


def test_torus_alexander_3_7():
    assert torus_alexander(3, 7) == T37


def test_torus_alexander_unknot():
    assert torus_alexander(1, 5) == ONE
    assert torus_alexander(1, 1) == ONE


def test_torus_alexander_trefoil():
    assert torus_alexander(2, 3) == P([1, -1, 1])


def test_torus_alexander_not_coprime():
    with pytest.raises(ConstraintError, match=r"torus indices \(4, 6\) must be coprime"):
        torus_alexander(4, 6)


@given(st.integers(2, 10), st.integers(2, 12))
def test_torus_alexander_shape(p, q):
    from math import gcd

    if gcd(p, q) != 1:
        with pytest.raises(ConstraintError, match="must be coprime"):
            torus_alexander(p, q)
        return
    d = torus_alexander(p, q)
    assert d.terms[0] == (0, 1)
    assert d.leading_coefficient == 1
    assert d.degree == (p - 1) * (q - 1)
    coeffs = [c for _, c in d.terms]
    assert all(c == (1 if i % 2 == 0 else -1) for i, c in enumerate(coeffs))


def test_cable_alexander_trefoil_2_7():
    assert cable_alexander(P([1, -1, 1]), 2, 7) == P([1, -1, 0, 0, 1, -1, 1, 0, 0, -1, 1])


def test_cable_alexander_p_1_is_identity():
    d = P([1, -1, 1])
    assert cable_alexander(d, 1, 9) == d


def test_cable_alexander_j3_shape():
    d = cable_alexander(P([1, -1, 1]), 3, 5)
    assert d.degree == 14
    assert d.terms[0] == (0, 1)
    assert d.leading_coefficient == 1


def members_through(d: IntPolynomial, bound: int) -> list[int]:
    """Support of d(t)/(1 - t) through degree ``bound``, read through from_alexander."""
    sg = from_alexander(d)
    return [s for s in range(bound + 1) if s in sg]


def test_prefix_of_torus_3_7():
    assert members_through(T37, 14) == [0, 3, 6, 7, 9, 10, 12, 13, 14]


def test_prefix_of_one():
    assert members_through(ONE, 3) == [0, 1, 2, 3]


def test_prefix_of_trefoil():
    assert members_through(P([1, -1, 1]), 4) == [0, 2, 3, 4]


def test_prefix_rejects_non_indicator():
    with pytest.raises(NotLSpaceShape):
        from_alexander(P([1, 1]))


@given(st.integers(2, 8), st.integers(3, 13), st.integers(0, 30))
def test_prefix_times_one_minus_t_recovers_input(p, q, bound):
    from math import gcd

    if gcd(p, q) != 1:
        return
    d = torus_alexander(p, q)
    series = IntPolynomial.from_terms((e, 1) for e in members_through(d, bound))
    product = series * P([1, -1])
    truncated = IntPolynomial(tuple((e, c) for e, c in product.terms if e <= bound))
    expected = IntPolynomial(tuple((e, c) for e, c in d.terms if e <= bound))
    assert truncated == expected


def test_validate_lspace_shape_rejections():
    with pytest.raises(NotLSpaceShape, match="^the zero polynomial has no gap set$"):
        from_alexander(ZERO)
    with pytest.raises(NotLSpaceShape, match="^constant term must be 1$"):
        from_alexander(P([2, -1, 1]))
    with pytest.raises(NotLSpaceShape, match="^coefficients must alternate between 1 and -1$"):
        from_alexander(P([1, -2, 1]))
    with pytest.raises(NotLSpaceShape, match="^the number of terms must be odd$"):
        from_alexander(P([1, -1]))  # odd degree, even term count


def test_zero_polynomial_has_no_degree():
    with pytest.raises(ValueError):
        ZERO.degree


def test_str_rendering():
    assert str(T37) == "1 - t + t^3 - t^4 + t^6 - t^8 + t^9 - t^11 + t^12"
    assert str(ZERO) == "0"
    assert str(P([0, 0, 2])) == "2*t^2"
    assert str(P([-1, 1])) == "-1 + t"


@given(small_polys)
def test_parse_inverts_str(p):
    assert parse_polynomial(str(p)) == p


def test_parse_polynomial_examples():
    assert parse_polynomial("1 - t + t^3") == P([1, -1, 0, 1])
    assert parse_polynomial("2*t^2 - 1") == P([-1, 0, 2])
    assert parse_polynomial("t") == P([0, 1])


def test_parse_polynomial_errors_carry_offset():
    with pytest.raises(ParseError) as info:
        parse_polynomial("1 + + t")
    assert info.value.position == 4
    with pytest.raises(ParseError, match="expected an integer") as info:
        parse_polynomial("t^²")  # a digit to str.isdigit, but not to int()
    assert info.value.position == 2
