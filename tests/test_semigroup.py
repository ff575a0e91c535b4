"""Gap-set extraction, reconstruction, closure, cabling, and generators."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lspaceknots import (
    ConstraintError,
    DomainError,
    FormalSemigroup,
    InfiniteComplement,
    IntPolynomial,
    NotIteratedTorus,
    NotLSpace,
    NotLSpaceShape,
    PRETZEL_P237,
    Undefined,
    alexander,
    cable,
    cable_alexander,
    cable_semigroup,
    closure_witness,
    from_alexander,
    from_generators,
    from_members,
    iterated_torus_generators,
    jfamily,
    min_nonzero,
    to_alexander,
    torus,
    torus_alexander,
    tower,
)
from lspaceknots.intpoly import ONE
from strategies import certified_towers, formal_semigroups

P = IntPolynomial.from_coeffs
ONE_MINUS_T = P([1, -1])

S_T37 = from_alexander(torus_alexander(3, 7))
S_T23 = from_alexander(torus_alexander(2, 3))
S_P237 = from_alexander(alexander(PRETZEL_P237))


def enumerate_semigroup(gens, bound):
    """Independent oracle: grow the set of generator sums until stable below bound."""
    members = {0}
    while True:
        extra = {m + g for m in members for g in gens if m + g <= bound}
        if extra <= members:
            return members
        members |= extra


# --- from_alexander ---------------------------------------------------------


def test_from_alexander_torus_3_7():
    assert S_T37.genus == 6
    assert S_T37.small_elements == (0, 3, 6, 7, 9, 10)


def test_from_alexander_pretzel():
    assert S_P237.genus == 5
    assert S_P237.small_elements == (0, 3, 5, 7, 8)
    assert 10 in S_P237  # 2g and everything beyond is implicit


def test_from_alexander_unknot():
    sg = from_alexander(ONE)
    assert sg.genus == 0
    assert sg.small_elements == ()
    assert 0 in sg and 17 in sg


def test_from_alexander_rejects_bad_shape():
    with pytest.raises(NotLSpaceShape):
        from_alexander(P([1, 1]))
    with pytest.raises(NotLSpaceShape):
        from_alexander(P([1, -1, 0, 0, 1]))  # duality fails
    with pytest.raises(NotLSpaceShape):
        from_alexander(P([1, -1, 1, 0, -1, 0, 1, -1, 1]))  # growth fails


# --- to_alexander and roundtrips --------------------------------------------


def test_to_alexander_torus_3_7():
    assert to_alexander(S_T37) == torus_alexander(3, 7)


def test_to_alexander_unknot():
    assert to_alexander(from_members(0, ())) == ONE


def test_to_alexander_pretzel_reconstruction():
    assert to_alexander(from_members(5, (0, 3, 5, 7, 8))) == P(
        [1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1]
    )


@given(formal_semigroups())
def test_to_alexander_matches_the_ring_route(sg):
    series = IntPolynomial.from_terms((s, 1) for s in sg.small_elements)
    ring = IntPolynomial.from_terms((series * ONE_MINUS_T).terms + ((2 * sg.genus, 1),))
    assert to_alexander(sg) == ring  # (1 - t) * sum of t^s + t^{2g}
    assert from_alexander(to_alexander(sg)) == sg


@given(st.integers(2, 8), st.integers(3, 25))
def test_roundtrip_through_alexander(a, b):
    if gcd(a, b) != 1 or a == b:
        return
    sg = from_generators({a, b})
    assert from_alexander(to_alexander(sg)) == sg


@given(st.integers(2, 6), st.integers(3, 13))
def test_roundtrip_from_alexander_side(p, q):
    if gcd(p, q) != 1:
        return
    d = torus_alexander(p, q)
    assert to_alexander(from_alexander(d)) == d


# --- constructor invariants ---------------------------------------------------


def test_constructor_rejects_exponents_out_of_shape():
    for exponents in ((), (1, 2, 4), (0, 2, 2), (0, 3, 1)):
        with pytest.raises(NotLSpaceShape, match="^exponents must strictly increase from 0$"):
            FormalSemigroup(exponents)
    with pytest.raises(NotLSpaceShape, match="^the number of terms must be odd$"):
        FormalSemigroup((0, 1))
    with pytest.raises(NotLSpaceShape, match="^degree 3 must be even$"):
        FormalSemigroup((0, 1, 3))
    assert FormalSemigroup((0, 1, 3, 4, 6, 8, 9, 11, 12)) == S_T37


def test_constructor_rejects_duality_failure():
    with pytest.raises(NotLSpaceShape, match="duality fails at 0"):
        from_members(2, (0, 3))  # 0 and 3 are dual partners


def test_constructor_rejects_wrong_gap_count():
    with pytest.raises(NotLSpaceShape, match="4 gaps below 2g = 6; exactly 3 required"):
        from_members(3, (0, 4))


def test_constructor_rejects_growth_failure():
    with pytest.raises(NotLSpaceShape, match="member 3 in position 2 is below the growth bound 4"):
        from_members(4, (0, 2, 3, 6))


def dense_rule(g, members):
    """Reference for genus g >= 1: the message of the first structural rule the members break, or None.

    The rules are read off the members one integer at a time: 0 is a member,
    all lie below 2g, there are g of them, s or 2g-1-s is a member but not
    both for every s < 2g, and the member in position i is at least 2i.
    """
    small = sorted(members)
    if not small or small[0] != 0:
        return "0 must be a member"
    if small[-1] >= 2 * g:
        return f"member {small[-1]} is not below 2g = {2 * g}"
    if len(small) != g:
        return f"{2 * g - len(small)} gaps below 2g = {2 * g}; exactly {g} required"
    for s in range(2 * g):
        if (s in members) == ((2 * g - 1 - s) in members):
            return f"duality fails at {s}: exactly one of {s}, {2 * g - 1 - s} may be a member"
    for i, s in enumerate(small):
        if s < 2 * i:
            return f"member {s} in position {i} is below the growth bound {2 * i}"
    return None


@given(formal_semigroups(), st.data())
def test_from_members_follows_the_dense_rule(sg, data):
    g = sg.genus
    drop = data.draw(st.none() | st.sampled_from(sg.small_elements), label="drop")
    add = data.draw(st.none() | st.integers(-1, 2 * g) | st.just(2 * g - 1), label="add")
    members = (set(sg.small_elements) - {drop}) | ({add} - {None})
    expected = dense_rule(g, members)
    try:
        out = from_members(g, members)
    except NotLSpaceShape as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert out.small_elements == tuple(sorted(members))
    assert from_members(g, out.small_elements) == out
    assert from_alexander(to_alexander(out)) == out
    assert [s for s in range(-2, 2 * g + 2) if s in out] == [*sorted(members), 2 * g, 2 * g + 1]
    for m in range(-1, 2 * g + 3):
        assert out.count_below(m) == len([s for s in range(m) if s in out])


def test_from_members_rejects_sets_of_no_genus():
    with pytest.raises(NotLSpaceShape, match="^genus must be nonnegative$"):
        from_members(-1, ())
    with pytest.raises(NotLSpaceShape, match="^genus 0 admits no elements below 0$"):
        from_members(0, (0,))
    with pytest.raises(NotLSpaceShape, match="^0 must be a member$"):
        from_members(1, ())


def test_membership_and_counting():
    assert 7 in S_T37 and 8 not in S_T37 and 100 in S_T37
    assert S_T37.count_below(12) == 6
    assert S_T37.count_below(13) == 7


# --- closure ------------------------------------------------------------------


def test_torus_sets_are_closed():
    assert closure_witness(S_T37) is None


def test_pretzel_is_not_closed():
    assert closure_witness(S_P237) == (3, 3)


def test_genus_zero_is_closed():
    assert closure_witness(from_members(0, ())) is None


def dense_closure_witness(sg):
    """Reference: every pair 0 < x <= y of members in lexicographic order, summing below 2g."""
    two_g = 2 * sg.genus
    for x in range(1, two_g):
        if x in sg:
            for y in range(x, two_g - x):
                if y in sg and x + y not in sg:
                    return (x, y)
    return None


@given(formal_semigroups())
def test_closure_witness_matches_dense_pair_scan(sg):
    assert closure_witness(sg) == dense_closure_witness(sg)


def test_closure_witness_past_the_least_member():
    # S + 4 lies in S, so the witness comes from the Apery set {0, 5, 14, 19} of 4
    apery_4 = from_members(8, (0, 4, 5, 8, 9, 12, 13, 14))
    assert closure_witness(apery_4) == dense_closure_witness(apery_4) == (5, 5)
    apery_6 = from_members(12, (0, 6, 7, 8, 12, 13, 14, 18, 19, 20, 21, 22))
    assert closure_witness(apery_6) == dense_closure_witness(apery_6) == (7, 8)
    # for x = 10 both y = 15 (residue 3) and y = 10 (residue 4) are witnesses; the least wins
    two_ys = from_members(
        18, (0, 6, 10, 12, 15, 16, 18, 21, 22, 24, 26, 27, 28, 30, 31, 32, 33, 34)
    )
    assert closure_witness(two_ys) == dense_closure_witness(two_ys) == (10, 10)


# --- cabling --------------------------------------------------------------------


def test_cable_semigroup_j3():
    out = cable_semigroup(S_T23, 3, 5)
    assert out.genus == 7
    assert out.small_elements == (0, 5, 6, 9, 10, 11, 12)
    assert out == from_generators({5, 6, 9})


def test_cable_semigroup_2_7():
    out = cable_semigroup(S_T23, 2, 7)
    assert out.genus == 5
    assert out.small_elements == (0, 4, 6, 7, 8)
    assert out == from_generators({4, 6, 7})


def test_cable_semigroup_of_unknot_set():
    assert cable_semigroup(from_members(0, ()), 3, 5) == from_generators({3, 5})


def test_cable_semigroup_below_the_bound_follows_the_product_rule():
    out = cable_semigroup(S_T37, 2, 13)  # Hedden's bound is 2*(2*6-1) = 22
    assert out.genus == 18
    assert out.small_elements == (0, 6, 12, 13, 14, 18, 19, 20, *range(24, 29), *range(30, 35))
    assert out == from_alexander(cable_alexander(torus_alexander(3, 7), 2, 13))


def test_cable_semigroup_rejects_common_factor():
    with pytest.raises(ConstraintError, match=r"cable indices \(2, 4\) must be coprime"):
        cable_semigroup(S_T23, 2, 4)


def _outcome(build):
    """The value of build(), or the class and message of the DomainError it raises."""
    try:
        return build()
    except DomainError as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(formal_semigroups(max_genus=20), st.integers(2, 5), st.data())
def test_cable_semigroup_matches_alexander_route(sg, p, data):
    bound = p * (2 * sg.genus - 1)
    below, above = st.integers(1, max(bound - 1, 1)), st.integers(bound, bound + 12)
    q = data.draw(st.one_of(below, above).filter(lambda q: gcd(p, q) == 1), label="q")
    via_set = _outcome(lambda: cable_semigroup(sg, p, q))
    via_poly = _outcome(lambda: from_alexander(cable_alexander(to_alexander(sg), p, q)))
    assert via_set == via_poly


def test_closure_is_preserved_and_reflected_by_cabling():
    # closed companion -> closed cable
    closed = cable_semigroup(S_T37, 2, 23)
    assert closure_witness(closed) is None
    # non-closed companion -> non-closed cable (bound is 2*(2*5-1) = 18)
    broken = cable_semigroup(S_P237, 2, 19)
    assert closure_witness(broken) is not None


# --- generators ---------------------------------------------------------------


def test_from_generators_3_7():
    assert from_generators({3, 7}) == S_T37


def test_from_generators_unit():
    assert from_generators({1}) == from_members(0, ())


def test_from_generators_5_6_9():
    sg = from_generators({5, 6, 9})
    assert sg.genus == 7
    gaps = [x for x in range(2 * sg.genus) if x not in sg]
    assert gaps == [1, 2, 3, 4, 7, 8, 13]


def test_from_generators_infinite_complement():
    with pytest.raises(InfiniteComplement):
        from_generators({4, 6})


def test_from_generators_rejects_non_dual_semigroup():
    # <3,4,5> has gaps {1,2} but 3 and 0 are both members, breaking duality
    with pytest.raises(NotLSpaceShape, match="duality fails at 0"):
        from_generators({3, 4, 5})


@given(st.sets(st.integers(2, 60), min_size=1, max_size=5))
def test_from_generators_matches_enumeration_oracle(gens):
    from functools import reduce

    if reduce(gcd, gens) != 1:
        return
    try:
        sg = from_generators(gens)
    except NotLSpaceShape:
        return  # non-dual numerical semigroups are not representable
    bound = 2 * sg.genus + max(gens)
    expected = enumerate_semigroup(gens, bound)
    actual = {x for x in range(bound + 1) if x in sg}
    assert actual == expected


@settings(deadline=None)
@given(certified_towers())
def test_from_generators_matches_enumeration_oracle_on_towers(knot):
    gens = iterated_torus_generators(knot)
    sg = from_generators(gens)
    bound = 2 * sg.genus + max(gens)
    expected = enumerate_semigroup(gens, bound)
    assert {x for x in range(bound + 1) if x in sg} == expected
    assert sg.genus == bound + 1 - len(expected)  # every gap lies below 2g <= bound


def test_iterated_torus_generators():
    assert iterated_torus_generators(jfamily(3)) == {5, 6, 9}
    assert iterated_torus_generators(torus(3, 7)) == {3, 7}
    assert iterated_torus_generators(cable(torus(2, 3), 2, 13)) == {4, 6, 13}


def test_iterated_torus_generators_match_alexander_route():
    for knot in (torus(3, 7), jfamily(4), cable(torus(2, 3), 2, 13)):
        gens = iterated_torus_generators(knot)
        assert from_generators(gens) == from_alexander(alexander(knot))


def test_iterated_torus_generators_errors():
    with pytest.raises(NotIteratedTorus):
        iterated_torus_generators(PRETZEL_P237)
    with pytest.raises(NotLSpace):
        iterated_torus_generators(cable(torus(2, 3), 2, 1))


# --- differential: three routes to the gap set of a certified tower -----------


def dense_gap_set(d: IntPolynomial) -> FormalSemigroup:
    """Independent reference: the running sum of d's coefficients below its degree."""
    members, running = [], 0
    for s in range(d.degree):
        running += dict(d.terms).get(s, 0)
        assert running in (0, 1)
        if running:
            members.append(s)
    return from_members(d.degree // 2, tuple(members))


@settings(deadline=None)
@given(certified_towers())
def test_gap_set_routes_agree_on_certified_towers(knot):
    d = alexander(knot)
    via_cabling = from_members(0, ())  # T(p, q) is the (p, q)-cable of the unknot
    for p, q in tower(knot):
        via_cabling = cable_semigroup(via_cabling, p, q)
    via_generators = from_generators(iterated_torus_generators(knot))
    assert from_alexander(d) == via_generators == via_cabling == dense_gap_set(d)
    assert closure_witness(via_cabling) is None


# --- least nonzero member -------------------------------------------------------


def test_min_nonzero_examples():
    assert min_nonzero(S_T37) == 3
    assert min_nonzero(S_T23) == 2
    for k in (3, 5, 8):
        assert min_nonzero(from_generators({2 * k - 1, 2 * k, 3 * k})) == 2 * k - 1


def test_min_nonzero_undefined_for_genus_zero():
    with pytest.raises(Undefined):
        min_nonzero(from_members(0, ()))
