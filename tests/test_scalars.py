import dataclasses
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncconic.geometry import from_domain, to_domain
from ncconic.scalars import (
    DivisionByZero,
    FieldMismatch,
    FieldSpec,
    QI,
    QQ,
    Scalar,
    boundary,
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


ORACLE_FIELDS = [QQ, QI, FieldSpec(2), FieldSpec(-3)]


def operands(spec):
    # the shared constants, and scalars built afresh
    return st.one_of(st.sampled_from([zero(spec), one(spec)]), scalars(spec))


@pytest.mark.parametrize("spec", ORACLE_FIELDS)
@given(data=st.data())
def test_arithmetic_matches_sympy_domain(spec, data):
    x = data.draw(operands(spec))
    y = data.draw(operands(spec))
    X, Y = to_domain(x), to_domain(y)
    cases = [
        (x + y, X + Y),
        (x - y, X - Y),
        (-x, -X),
        (x * y, X * Y),
        (x - x, X - X),  # cancels to 0
        (x + (-x), X - X),
        (x * y - y * x, X * Y - Y * X),
    ]
    for z, Z in ((x, X), (y, Y)):
        if z.is_zero():
            with pytest.raises(DivisionByZero):
                z.inverse()
            with pytest.raises(DivisionByZero):
                one(spec) / z
        else:
            cases.append((z.inverse(), to_domain(one(spec)) / Z))
            cases.append(((x if z is y else y) / z, (X if z is y else Y) / Z))
    for got, want in cases:
        fresh = from_domain(want, spec)
        assert got == fresh and hash(got) == hash(fresh)
        if spec.is_rational:
            assert got.b == 0 and type(got.b) is Fraction


@pytest.mark.parametrize("spec", ORACLE_FIELDS)
@given(data=st.data())
def test_boundary_round_trips(spec, data):
    unwrap, wrap = boundary(spec)
    x = data.draw(operands(spec))
    assert wrap(unwrap(x)) == x
    assert wrap(unwrap(x - x)) is zero(spec)
    assert wrap(unwrap(Scalar(Fraction(0), Fraction(0), spec))) is zero(spec)


def test_rational_scalar_rejects_sqrt_part():
    with pytest.raises(ValueError):
        Scalar(Fraction(0), Fraction(1), QQ)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_binary_operators_reject_mixed_fields(op):
    with pytest.raises(FieldMismatch):
        op(one(QQ), one(QI))
    with pytest.raises(FieldMismatch):
        op(one(QI), one(QQ))


def test_equal_specs_from_different_objects_combine():
    other = FieldSpec(-1)
    assert other == QI and other is not QI
    x = Scalar(Fraction(2), Fraction(3), other)
    y = Scalar(Fraction(-1, 2), Fraction(1), QI)
    assert x + y == Scalar(Fraction(3, 2), Fraction(4), QI)
    assert x - y == Scalar(Fraction(5, 2), Fraction(2), QI)
    assert x * y == Scalar(Fraction(-4), Fraction(1, 2), QI)
    assert (x / y) * y == x
    assert Scalar.of(x, QI) is x
    assert zero(other) == zero(QI) and one(other) == one(QI)


@pytest.mark.parametrize("spec", FIELDS)
def test_shared_constants_are_fresh_equal_and_frozen(spec):
    assert zero(spec) == Scalar(Fraction(0), Fraction(0), spec)
    assert one(spec) == Scalar(Fraction(1), Fraction(0), spec)
    assert zero(spec) is zero(spec) and one(spec) is one(spec)
    for c in (zero(spec), one(spec)):
        for field in ("a", "b", "spec"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(c, field, Fraction(5))


def test_shared_constants_construct_no_scalar(monkeypatch):
    count = 0
    post_init = Scalar.__post_init__

    def counted(s):
        nonlocal count
        count += 1
        post_init(s)

    monkeypatch.setattr(Scalar, "__post_init__", counted)
    zero(QQ), one(QI)  # warm-up
    count = 0
    for _ in range(1000):
        zero(QQ)
        one(QI)
    assert count == 0
    x, y = Scalar.of(Fraction(2, 3), QQ), Scalar.of(Fraction(-5, 7), QQ)
    count = 0
    p = x * y
    assert count == 1
    assert p == Scalar.of(Fraction(-10, 21), QQ)
