from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncconic.scalars import (
    DivisionByZero,
    FieldMismatch,
    FieldSpec,
    QI,
    QQ,
    Scalar,
    one,
    zero,
)

fractions = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12)
)


def scalars(spec):
    if spec.is_rational:
        return st.builds(lambda a: Scalar(a, Fraction(0), spec), fractions)
    return st.builds(lambda a, b: Scalar(a, b, spec), fractions, fractions)


FIELDS = [QQ, QI, FieldSpec(3), FieldSpec(-3), FieldSpec(2)]


def test_basic_examples():
    a = Scalar.of(Fraction(1, 2), QQ)
    b = Scalar.of(Fraction(1, 3), QQ)
    assert (a + b).a == Fraction(5, 6)
    i = Scalar.sqrt_part(1, QI)
    o = one(QI)
    assert ((o + i) * (o - i)).a == 2 and ((o + i) * (o - i)).b == 0
    # (2/sqrt 3)^2 = 4/3: 2/sqrt3 = (2/3) sqrt 3
    q3 = FieldSpec(3)
    c = Scalar.sqrt_part(Fraction(2, 3), q3)
    sq = c * c
    assert sq.a == Fraction(4, 3) and sq.b == 0


def test_field_mismatch_and_zero_division():
    with pytest.raises(FieldMismatch):
        one(QQ) + one(QI)
    with pytest.raises(DivisionByZero):
        one(QQ) / zero(QQ)


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)  # not squarefree
    with pytest.raises(ValueError):
        FieldSpec(1)


@pytest.mark.parametrize("spec", FIELDS)
@given(data=st.data())
def test_field_axioms(spec, data):
    x = data.draw(scalars(spec))
    y = data.draw(scalars(spec))
    z = data.draw(scalars(spec))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == one(spec)


@pytest.mark.parametrize("spec", FIELDS)
@given(data=st.data())
def test_float_embedding_cross_check(spec, data):
    # sanity only; exactness is the contract
    x = data.draw(scalars(spec))
    y = data.draw(scalars(spec))
    assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-9
    assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) < 1e-9
