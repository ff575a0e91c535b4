"""Value semantics of the frozen record classes."""

from fractions import Fraction

import pytest

from lspaceknots import (
    Certificate,
    Decomposition,
    IntPolynomial,
    JumpComparison,
    LSpaceStatus,
    PiecewiseLinear,
    Torus,
    UNKNOT,
    cable,
    torus,
)
from lspaceknots._record import frozen

F = Fraction


@frozen
class Pair:
    p: int
    q: int


def test_equality_needs_same_class_and_same_fields():
    assert Torus(2, 3) == Torus(2, 3)
    assert Torus(2, 3) != Torus(2, 5)
    assert Pair(2, 3) != Torus(2, 3)  # same field names and values, other class
    assert Torus(2, 3) != (2, 3) and (2, 3) != Torus(2, 3)
    assert Torus(2, 3).__eq__((2, 3)) is NotImplemented
    assert Certificate(LSpaceStatus.CERTIFIED) != Certificate(LSpaceStatus.CERTIFIED, "x")


def test_hash_agrees_with_equality():
    a = cable(torus(2, 3), 2, 13)
    b = cable(Torus(3, 2), 2, 13)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(Torus(2, 3)) == hash((2, 3))  # the hash of the field tuple
    assert hash(IntPolynomial(((0, 1),))) == hash((((0, 1),),))
    assert len({Torus(2, 3), Torus(3, 2), Torus(2, 5)}) == 2


def test_assignment_and_deletion_raise():
    t = Torus(2, 3)
    with pytest.raises(AttributeError):
        t.p = 5
    with pytest.raises(AttributeError):
        t.other = 1
    with pytest.raises(AttributeError):
        del t.q
    assert t == Torus(2, 3)


def test_defaults_and_keyword_construction():
    cert = Certificate(LSpaceStatus.CERTIFIED)
    assert cert.reason is None
    assert cert == Certificate(LSpaceStatus.CERTIFIED, None)
    assert hash(cert) == hash(Certificate(LSpaceStatus.CERTIFIED, None))
    assert Certificate(reason="r", status=LSpaceStatus.NOT_LSPACE) == Certificate(
        LSpaceStatus.NOT_LSPACE, "r"
    )
    dec = Decomposition(((2, F(1)),), True, True)
    assert dec.failure_location is None and dec.failure_reason is None
    assert Decomposition(None, all_integer=False, all_nonnegative=False, failure_location=F(4, 5)) == (
        Decomposition(None, False, False, F(4, 5), None)
    )
    assert Torus(q=3, p=2) == Torus(2, 3)
    assert JumpComparison(3, jump_at_4_over_p=F(1), jump_at_2_over_p=F(1)).equal


@pytest.mark.parametrize(
    "build",
    [
        lambda: Torus(2),  # missing field
        lambda: Torus(2, 3, 5),  # too many positional arguments
        lambda: Torus(2, 3, r=1),  # unknown keyword
        lambda: Torus(2, p=3),  # a field given twice
        lambda: Certificate(),
    ],
)
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_post_init_normalises_and_validates():
    assert Torus(3, 2) == Torus(2, 3)
    assert Torus(3, 2).p == 2
    assert Torus(1, 5) == UNKNOT
    with pytest.raises(ValueError):
        IntPolynomial(((0, 1), (1, 0)))
    f = PiecewiseLinear((0, 1, 2), 0, (-1, -1))  # equal slopes merge
    assert f.breakpoints == (0, 2) and f.slopes == (F(-1),)


def test_cached_properties_still_work():
    f = PiecewiseLinear((0, 1, 2), 0, (-1, 1))
    assert f.breakpoint_values == (0, -1, 0)
    assert f.breakpoint_values is f.breakpoint_values
    poly = IntPolynomial(((0, 1), (2, -3)))
    assert poly.coefficient(2) == -3 and poly.coefficient(1) == 0
    assert poly._coeff_map is poly._coeff_map


def test_repr_names_the_fields():
    assert repr(Torus(2, 3)) == "Torus(p=2, q=3)"
    assert repr(Certificate(LSpaceStatus.CANDIDATE)) == (
        "Certificate(status=<LSpaceStatus.CANDIDATE: 'candidate'>, reason=None)"
    )
    assert repr(IntPolynomial(((0, 1),))) == "IntPolynomial(terms=((0, 1),))"


def test_required_field_after_a_default_is_rejected():
    with pytest.raises(TypeError):

        @frozen
        class Bad:
            a: int = 0
            b: int
