"""Knot expression trees, the text grammar, and the certification logic."""

import re
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lspaceknots import (
    Algebraicity,
    Cable,
    ConstraintError,
    ExplicitAlexander,
    IntPolynomial,
    LSpaceStatus,
    NotIteratedTorus,
    NotLSpace,
    NotLSpaceShape,
    ParseError,
    PRETZEL_P237,
    UNKNOT,
    alexander,
    cable,
    cable_alexander,
    certify_lspace,
    classify_algebraic,
    combination,
    explicit_alexander,
    from_generators,
    genus,
    iterated_torus_generators,
    jfamily,
    parse,
    parse_polynomial,
    torus,
    torus_alexander,
    tower,
)
from lspaceknots.knotexpr import MAX_CABLE_DEPTH
from strategies import certified_towers, towers_below_hedden_bound

P = IntPolynomial.from_coeffs


# --- construction and normalization ---------------------------------------


def test_torus_indices_are_sorted():
    assert torus(7, 3) == torus(3, 7)


def test_torus_with_index_one_is_unknot():
    assert torus(1, 5) == UNKNOT
    assert torus(9, 1) == UNKNOT


def test_torus_rejects_bad_indices():
    with pytest.raises(ConstraintError):
        torus(0, 3)
    with pytest.raises(ConstraintError):
        torus(4, 6)


def test_cable_p_one_collapses():
    assert cable(torus(2, 3), 1, 9) == torus(2, 3)
    assert cable(cable(UNKNOT, 2, 3), 1, 5) == torus(2, 3)
    assert parse("C(T(2,3);1,7)").items() == ((torus(2, 3), 1),)


def test_cable_of_unknot_is_torus():
    assert cable(UNKNOT, 3, 5) == torus(3, 5)
    assert parse("C(U;2,3)").items() == ((torus(2, 3), 1),)


def test_cable_node_requires_p_at_least_two():
    with pytest.raises(ConstraintError):
        Cable(torus(2, 3), ((1, 5),))
    with pytest.raises(ConstraintError):
        Cable(UNKNOT, ((5, 3),))  # a stage over the unknot has sorted indices
    assert Cable(UNKNOT, ((3, 5),)) == torus(3, 5)


def test_cable_rejects_common_factor():
    with pytest.raises(ConstraintError):
        cable(torus(2, 3), 4, 6)


def test_jfamily_is_a_trefoil_cable():
    assert jfamily(3) == cable(torus(2, 3), 3, 5)
    with pytest.raises(ConstraintError):
        jfamily(2)


def test_explicit_alexander_validates_shape():
    explicit_alexander(P([1, -1, 1]))
    with pytest.raises(Exception):
        explicit_alexander(P([1, 1]))


# --- grammar ----------------------------------------------------------------


def test_parse_single_torus():
    assert parse("T(3,7)").items() == ((torus(3, 7), 1),)


def test_parse_combination():
    comb = parse("2*T(3,4) - T(3,7)")
    assert dict(comb.items()) == {torus(3, 4): 2, torus(3, 7): -1}


def test_parse_cable_equals_jfamily():
    assert parse("C(T(2,3);3,5)") == parse("J(3)")


def test_parse_whitespace_insensitive():
    assert parse(" 2 * T( 3 , 4 )  -  J( 3 ) ") == parse("2*T(3,4)-J(3)")


def test_parse_leading_minus():
    assert dict(parse("-T(2,3)").items()) == {torus(2, 3): -1}
    assert dict(parse("-2*T(2,3)").items()) == {torus(2, 3): -2}


def test_parse_merges_and_drops():
    assert parse("T(2,3) - T(2,3)").items() == ()
    assert dict(parse("T(2,3) + 2*T(2,3)").items()) == {torus(2, 3): 3}


def test_parse_unknot_and_pretzel():
    assert parse("U").items() == ((UNKNOT, 1),)
    assert parse("P237").items() == ((PRETZEL_P237, 1),)
    # the same polynomials unnamed are candidates, not the named cores
    for text, named in [("alex[1]", UNKNOT), ("alex[1,-1,0,1,-1,1,-1,1,0,-1,1]", PRETZEL_P237)]:
        (knot, _), = parse(text).items()
        assert knot != named and alexander(knot) == alexander(named)
        assert str(knot) == text
        assert certify_lspace(knot) is LSpaceStatus.CANDIDATE


def test_parse_explicit_alexander():
    comb = parse("alex[1,-1,1]")
    assert comb.items() == ((explicit_alexander(P([1, -1, 1])), 1),)


def test_parse_rejects_a_candidate_that_fails_duality():
    with pytest.raises(NotLSpaceShape, match="3 gaps below 2g = 4; exactly 2 required"):
        parse("C(alex[1,-1,0,0,1];2,5)")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as info:
        parse("T(3;7)")
    assert info.value.position == 3
    with pytest.raises(ParseError) as info:
        parse("T(2,3) % U")
    assert info.value.position == 7
    for text in ["T(²,3)", "t^²", "t^x"]:  # ² is a digit to str.isdigit, but not to int()
        with pytest.raises(ParseError, match=re.escape("expected an integer (at offset 2)")) as info:
            parse(text)
        assert info.value.position == 2


def test_parse_caps_cable_nesting():
    def nested(depth):
        return "C(" * depth + "T(2,3)" + ";1,1)" * depth

    assert parse(nested(MAX_CABLE_DEPTH)).items() == ((torus(2, 3), 1),)
    with pytest.raises(ParseError) as info:
        parse(nested(MAX_CABLE_DEPTH + 1))
    assert info.value.position == 2 * MAX_CABLE_DEPTH  # the first 'C' past the cap


def test_parse_constraint_errors():
    with pytest.raises(ConstraintError):
        parse("T(4,6)")
    with pytest.raises(ConstraintError):
        parse("J(2)")
    with pytest.raises(ConstraintError):
        parse("T(0,1)")


T37_TEXT = "1 - t + t^3 - t^4 + t^6 - t^8 + t^9 - t^11 + t^12"


def test_parse_reads_polynomial_text_as_one_candidate():
    assert parse(T37_TEXT) == combination([(ExplicitAlexander(torus_alexander(3, 7)), 1)])


def test_parse_raises_the_error_that_read_further_when_neither_reading_succeeds():
    with pytest.raises(ParseError, match=re.escape("expected ')' (at offset 5)")) as info:
        parse("T(2,3")  # the polynomial reading stops at offset 0
    assert info.value.position == 5
    # the knot reading stops at offset 2, expecting '*' after the multiplicity 1
    with pytest.raises(ParseError, match=re.escape("expected a term (at offset 8)")):
        parse("1 - t + x")
    # both stop at offset 0: the knot grammar's error
    with pytest.raises(ParseError, match=re.escape("expected a knot atom (T, C, J, P237, U or alex[...]) (at offset 0)")):
        parse("Q(1)")


def test_parse_polynomial_text_is_checked_as_a_candidate():
    with pytest.raises(NotLSpaceShape):
        parse("1 - t + t^2 - t^3")


@given(st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda pq: gcd(*pq) == 1))
def test_parse_torus_polynomial_text(pq):
    poly = torus_alexander(*pq)
    assert parse(str(poly)) == combination([(ExplicitAlexander(poly), 1)])


def test_combination_str_signs():
    assert str(combination([])) == "0"
    assert str(combination([(torus(2, 3), -2), (UNKNOT, 1)])) == "-2*T(2,3) + U"
    assert str(combination([(torus(2, 3), -1), (UNKNOT, -3)])) == "-T(2,3) - 3*U"


def _coprime_pairs(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).filter(
        lambda pq: gcd(pq[0], pq[1]) == 1 and pq[0] != pq[1]
    )


cores = st.one_of(
    st.sampled_from([UNKNOT, PRETZEL_P237, explicit_alexander(P([1]))]),  # named, and 1 as a candidate
    _coprime_pairs(2, 5).map(lambda pq: explicit_alexander(torus_alexander(*pq))),
)
exprs = st.one_of(
    _coprime_pairs(2, 9).map(lambda pq: torus(*pq)),
    st.integers(3, 7).map(jfamily),
    cores,
    # cables of every core kind, 1 or 2 stages, indices in either order and collapsing at index 1
    st.builds(
        lambda core, stages: reduce(lambda knot, pq: cable(knot, *pq), stages, core),
        cores,
        st.lists(_coprime_pairs(1, 7), min_size=1, max_size=2),
    ),
)
combos = (
    st.lists(st.tuples(exprs, st.integers(-3, 3).filter(bool)), min_size=1, max_size=4)
    .map(combination)
    .filter(len)  # the empty combination has no grammar form
)


@given(combos)
def test_parse_str_roundtrip(comb):
    assert parse(str(comb)) == comb
    for knot, _ in comb.items():
        assert genus(knot) == alexander(knot).degree // 2


# --- Alexander polynomials and genus ---------------------------------------


def test_alexander_of_torus():
    assert alexander(torus(3, 7)) == torus_alexander(3, 7)


def test_alexander_of_pretzel():
    assert alexander(PRETZEL_P237) == P([1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1])


def test_alexander_of_jfamily_is_cable_product():
    assert alexander(jfamily(3)) == cable_alexander(torus_alexander(2, 3), 3, 5)


def test_genus_examples():
    assert genus(torus(3, 7)) == 6
    assert genus(jfamily(3)) == 7
    assert genus(UNKNOT) == 0


@given(
    _coprime_pairs(2, 6),
    _coprime_pairs(2, 5),
)
def test_cable_genus_formula(inner_pq, cable_pq):
    inner = torus(*inner_pq)
    p, q = cable_pq
    knot = cable(inner, p, q)
    expected = p * genus(inner) + (p - 1) * (q - 1) // 2
    assert genus(knot) == expected == alexander(knot).degree // 2


@settings(deadline=None)
@given(certified_towers())
def test_closed_form_genus_matches_degree_and_generators(knot):
    assert genus(knot) == alexander(knot).degree // 2
    assert genus(knot) == from_generators(iterated_torus_generators(knot)).genus


@settings(deadline=None)
@given(towers_below_hedden_bound())
def test_closed_form_genus_matches_degree_below_the_bound(knot):
    with pytest.raises(NotLSpace, match=r"cable index q=\d+ is below p\*\(2g-1\)=\d+"):
        certify_lspace(knot)
    assert genus(knot) == alexander(knot).degree // 2


# --- certification and the index criterion ---------------------------------


def test_certify_torus_and_pretzel():
    assert certify_lspace(torus(3, 7)) is LSpaceStatus.CERTIFIED
    assert certify_lspace(UNKNOT) is LSpaceStatus.CERTIFIED
    assert certify_lspace(PRETZEL_P237) is LSpaceStatus.CERTIFIED


def test_certify_cable_bound():
    assert certify_lspace(cable(torus(2, 3), 2, 3)) is LSpaceStatus.CERTIFIED
    with pytest.raises(NotLSpace, match=r"^cable index q=1 is below p\*\(2g-1\)=2$"):
        certify_lspace(cable(torus(2, 3), 2, 1))


@given(st.integers(3, 20))
def test_certify_jfamily(k):
    assert certify_lspace(jfamily(k)) is LSpaceStatus.CERTIFIED


def test_certify_candidate_accepts_valid_polynomial():
    assert certify_lspace(explicit_alexander(torus_alexander(3, 7))) is LSpaceStatus.CANDIDATE


def test_certify_candidate_rejects_duality_failure():
    with pytest.raises(NotLSpaceShape, match="3 gaps below 2g = 4; exactly 2 required"):
        explicit_alexander(P([1, -1, 0, 0, 1]))
    # g = 10^6 members, but 999990 + 1000015 != 2g: the sets first differ at 2g - 1000015
    sparse = "1 - t + t^999990 - t^1000005 + t^1000015 - t^1999999 + t^2000000"
    message = "^duality fails at 999985: exactly one of 999985, 1000014 may be a member$"
    with pytest.raises(NotLSpaceShape, match=message):
        explicit_alexander(parse_polynomial(sparse))


def test_certify_candidate_rejects_growth_failure():
    # palindromic and alternating, but 3 members below 4: 1 - t + t^2 - t^4 + t^6 - t^7 + t^8
    with pytest.raises(NotLSpaceShape, match="member 3 in position 2 is below the growth bound 4"):
        explicit_alexander(P([1, -1, 1, 0, -1, 0, 1, -1, 1]))


def test_certify_candidate_rejects_alpha1_bigger_than_one():
    with pytest.raises(NotLSpaceShape, match="member 1 in position 1 is below the growth bound 2"):
        explicit_alexander(P([1, 0, -1, 0, 1]))
    with pytest.raises(NotLSpaceShape, match="member 1 in position 1 is below the growth bound 2"):
        explicit_alexander(parse_polynomial("1 - t^1000000 + t^2000000"))


def _alternating(gaps):
    """1 - t^{n_1} + t^{n_2} - ... with the given positive differences n_{k+1} - n_k."""
    exps = [0]
    for d in gaps:
        exps.append(exps[-1] + d)
    return IntPolynomial(tuple((e, (-1) ** k) for k, e in enumerate(exps)))


def _even_degree(gaps):
    return gaps[:-1] + [gaps[-1] + 1] if sum(gaps) % 2 else gaps


half_gaps = st.lists(st.integers(1, 4), max_size=4)
candidates = st.one_of(
    half_gaps.map(lambda h: h + h[::-1]),  # palindromic exponents
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=4).map(
        lambda pairs: _even_degree([d for pair in pairs for d in pair])
    ),
).map(_alternating)


def _reference_rejects(d: IntPolynomial) -> bool:
    """Non-palindromic exponents, or a member of the dense series below its growth bound."""
    exps = [e for e, _ in d.terms]
    if any(a + b != d.degree for a, b in zip(exps, reversed(exps))):
        return True
    members, running = [], 0
    for s in range(d.degree):
        running += dict(d.terms).get(s, 0)
        if running:
            members.append(s)
    return any(s < 2 * i for i, s in enumerate(members))


@given(candidates)
def test_certify_candidate_matches_reference_checks(d):
    if _reference_rejects(d):
        with pytest.raises(NotLSpaceShape):
            explicit_alexander(d)
    else:
        assert certify_lspace(explicit_alexander(d)) is LSpaceStatus.CANDIDATE


def test_classify_trefoil_cables():
    assert classify_algebraic(cable(torus(2, 3), 2, 13)) is Algebraicity.ALGEBRAIC
    assert classify_algebraic(cable(torus(2, 3), 2, 11)) is Algebraicity.NOT_ALGEBRAIC


@given(st.integers(3, 20))
def test_classify_jfamily_never_algebraic(k):
    assert classify_algebraic(jfamily(k)) is Algebraicity.NOT_ALGEBRAIC


def test_classify_non_towers_are_unknown():
    assert classify_algebraic(PRETZEL_P237) is Algebraicity.UNKNOWN
    assert classify_algebraic(explicit_alexander(P([1, -1, 1]))) is Algebraicity.UNKNOWN


# --- flat towers ---------------------------------------------------------------


def test_cabling_a_cable_appends_a_stage():
    knot = cable(cable(torus(2, 3), 3, 5), 2, 41)
    assert knot == Cable(UNKNOT, ((2, 3), (3, 5), (2, 41)))
    assert parse("C(J(3);2,41)").items() == ((knot, 1),)
    assert str(knot) == "C(C(T(2,3);3,5);2,41)"
    assert tower(knot) == [(2, 3), (3, 5), (2, 41)]
    assert repr(jfamily(3)) == (
        "Cable(core=ExplicitAlexander(poly=IntPolynomial(terms=((0, 1),)), name='U'), stages=((2, 3), (3, 5)))"
    )


def test_cable_constructor_checks_core_and_stages():
    core_check = "a cable needs stages above a core that is not a cable"
    for core, stages, message in [
        (PRETZEL_P237, (), core_check),  # no stage: the knot would be its core
        (jfamily(3), ((2, 41),), core_check),  # a cable core is a second form of a tower
        ((2, 3), ((2, 5),), core_check),  # not a knot
        (PRETZEL_P237, ((2, 0),), "cable index q must be positive"),
        (PRETZEL_P237, ((0, 5),), "cable index p must be positive"),
        (PRETZEL_P237, ((4, 6),), "must be coprime"),
        (PRETZEL_P237, ((3, 5), (1, 7)), "cable nodes need p >= 2"),
    ]:
        with pytest.raises(ConstraintError, match=re.escape(message)):
            Cable(core, stages)


@pytest.mark.parametrize(
    "text, genus_, status, reason",
    [
        ("C(P237;2,19)", 19, LSpaceStatus.CERTIFIED, None),
        ("C(P237;2,17)", 18, None, "cable index q=17 is below p*(2g-1)=18"),
        ("C(C(P237;2,19);3,100)", 156, None, "cable index q=100 is below p*(2g-1)=111"),
        ("C(alex[1,-1,1];2,5)", 4, LSpaceStatus.CANDIDATE, None),
        ("C(alex[1,-1,1];2,1)", 2, None, "cable index q=1 is below p*(2g-1)=2"),
    ],
)
def test_cables_of_non_torus_cores(text, genus_, status, reason):
    (knot, _), = parse(text).items()
    assert str(knot) == text
    assert genus(knot) == genus_ == alexander(knot).degree // 2
    if reason is None:
        assert certify_lspace(knot) is status
    else:
        with pytest.raises(NotLSpace, match=f"^{re.escape(reason)}$"):
            certify_lspace(knot)
    assert classify_algebraic(knot) is Algebraicity.UNKNOWN
    with pytest.raises(NotIteratedTorus):
        tower(knot)


@pytest.mark.parametrize(
    "text, genus_, status",
    [
        ("C(C(C(T(3,4);3,71);2,853);3,3503)", 5254, LSpaceStatus.CERTIFIED),
        ("C(C(C(T(3,4);3,71);2,853);3,10)", 1761, None),
    ],
)
def test_tower_gate_builds_no_polynomial(text, genus_, status):
    (knot, _), = parse(text).items()
    alexander.cache_clear()
    assert genus(knot) == genus_
    assert classify_algebraic(knot) is Algebraicity.NOT_ALGEBRAIC
    if status is LSpaceStatus.CERTIFIED:
        assert certify_lspace(knot) is status
        assert iterated_torus_generators(knot) == {54, 72, 426, 2559, 3503}
    else:
        bound = r"^cable index q=10 is below p\*\(2g-1\)=3501$"
        with pytest.raises(NotLSpace, match=bound):
            certify_lspace(knot)
        with pytest.raises(NotLSpace, match=bound):
            iterated_torus_generators(knot)
    assert alexander.cache_info().currsize == 0


def test_tower_of_nested_cables():
    knot = Cable(UNKNOT, ((2, 3), (2, 13), (3, 100)))
    assert knot == cable(cable(torus(2, 3), 2, 13), 3, 100)
    assert tower(knot) == [(2, 3), (2, 13), (3, 100)]
    assert tower(torus(3, 2)) == [(2, 3)] and tower(UNKNOT) == []  # no stage over the unknot
    with pytest.raises(NotIteratedTorus):
        tower(PRETZEL_P237)


@given(_coprime_pairs(2, 5), st.integers(2, 4), st.integers(1, 120))
def test_algebraic_towers_are_certified(inner_pq, p, q):
    if gcd(p, q) != 1:
        return
    knot = cable(torus(*inner_pq), p, q)
    if classify_algebraic(knot) is Algebraicity.ALGEBRAIC:
        assert certify_lspace(knot) is LSpaceStatus.CERTIFIED
