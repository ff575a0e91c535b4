"""Value semantics of the frozen record classes."""

from fractions import Fraction
from math import gcd

import pytest

from lspaceknots import (
    Decomposition,
    IntPolynomial,
    JumpComparison,
    PiecewiseLinear,
    cable,
    from_members,
    torus,
)
from lspaceknots._record import frozen

F = Fraction


@frozen
class Pair:
    p: int
    q: int


@frozen
class Torus:
    """Sorted coprime indices: a record whose __post_init__ validates and normalises."""

    p: int
    q: int

    def __post_init__(self):
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"indices ({self.p}, {self.q}) must be coprime")
        p, q = sorted((self.p, self.q))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def test_equality_needs_same_class_and_same_fields():
    assert Torus(2, 3) == Torus(2, 3)
    assert Torus(2, 3) != Torus(2, 5)
    assert Pair(2, 3) != Torus(2, 3)  # same field names and values, other class
    assert Torus(2, 3) != (2, 3) and (2, 3) != Torus(2, 3)
    assert Torus(2, 3).__eq__((2, 3)) is NotImplemented
    assert Decomposition(None) != Decomposition(None, F(4, 5))


def test_hash_agrees_with_equality():
    a = cable(torus(2, 3), 2, 13)
    b = cable(torus(3, 2), 2, 13)
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
    dec = Decomposition(((2, F(1)),))
    assert dec.failure_location is None and dec.failure_reason is None
    assert dec == Decomposition(((2, F(1)),), None)
    assert hash(dec) == hash(Decomposition(((2, F(1)),), None))
    assert dec.all_integer and dec.all_nonnegative  # derived from the coefficients
    failed = Decomposition(failure_location=F(4, 5), coefficients=None)
    assert failed == Decomposition(None, F(4, 5))
    assert failed.failure_reason == "non-dyadic-location"
    assert not (failed.succeeded or failed.all_integer or failed.all_nonnegative)
    assert Torus(q=3, p=2) == Torus(2, 3)
    assert JumpComparison(3, jump_at_4_over_p=F(1), jump_at_2_over_p=F(1)).equal


@pytest.mark.parametrize(
    "build",
    [
        lambda: Torus(2),  # missing field
        lambda: Torus(2, 3, 5),  # too many positional arguments
        lambda: Torus(2, 3, r=1),  # unknown keyword
        lambda: Torus(2, p=3),  # a field given twice
        lambda: Decomposition(),
    ],
)
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_post_init_normalises_and_validates():
    assert Torus(3, 2) == Torus(2, 3)
    assert Torus(3, 2).p == 2
    with pytest.raises(ValueError):
        Torus(4, 6)
    with pytest.raises(ValueError):
        IntPolynomial(((0, 1), (1, 0)))
    f = PiecewiseLinear((0, 1, 2), 0, (-1, -1))  # equal slopes merge
    assert f.breakpoints == (0, 2) and f.slopes == (F(-1),)


def test_cached_properties_still_work():
    f = PiecewiseLinear((0, 1, 2), 0, (-1, 1))
    assert f.breakpoint_values == (0, -1, 0)
    assert f.breakpoint_values is f.breakpoint_values
    sg = from_members(2, (0, 2))
    assert sg.small_elements == (0, 2)
    assert sg.small_elements is sg.small_elements


def test_repr_names_the_fields():
    assert repr(Torus(2, 3)) == "Torus(p=2, q=3)"
    assert repr(Decomposition(None, F(4, 5))) == (
        "Decomposition(coefficients=None, failure_location=Fraction(4, 5))"
    )
    assert repr(IntPolynomial(((0, 1),))) == "IntPolynomial(terms=((0, 1),))"


def test_required_field_after_a_default_is_rejected():
    with pytest.raises(TypeError):

        @frozen
        class Bad:
            a: int = 0
            b: int
