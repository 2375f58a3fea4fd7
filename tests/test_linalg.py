from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from ncconic.linalg import (
    in_span,
    is_zero_vector,
    kernel_basis,
    krylov_min_poly,
    rank,
    rref,
    solve_linear,
    span_equal,
    zero_vector,
)
from ncconic.scalars import QI, QQ, FieldSpec, Scalar, one, zero


def mat_vec(rows, v, spec):
    return [sum((a * b for a, b in zip(row, v, strict=True)), zero(spec)) for row in rows]


def S(n):
    return Scalar.of(n, QQ)


small = st.integers(min_value=-6, max_value=6)
matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda nc: st.lists(
        st.lists(small.map(S), min_size=nc, max_size=nc), min_size=1, max_size=5
    )
)


def test_identity_solve():
    m = [[one(QQ) if i == j else zero(QQ) for j in range(3)] for i in range(3)]
    rhs = [one(QQ), zero(QQ), zero(QQ)]
    assert solve_linear(m, [rhs], QQ) == [rhs]


def test_rank_one_kernel():
    m = [[S(1), S(1)], [S(1), S(1)]]
    assert rank(m, QQ) == 1
    ker = kernel_basis(m, 2, QQ)
    assert len(ker) == 1
    v = ker[0]
    assert (v[0] + v[1]).is_zero()


@given(m=matrices)
@settings(max_examples=60)
def test_kernel_and_rank_nullity(m):
    ncols = len(m[0])
    ker = kernel_basis(m, ncols, QQ)
    for v in ker:
        assert is_zero_vector(mat_vec(m, v, QQ))
    assert rank(m, QQ) + len(ker) == ncols


@given(m=matrices, data=st.data())
@settings(max_examples=60)
def test_solve_consistency(m, data):
    ncols = len(m[0])
    x = data.draw(st.lists(small.map(S), min_size=ncols, max_size=ncols))
    rhs = mat_vec(m, x, QQ)
    [sol] = solve_linear(m, [rhs], QQ)
    assert sol is not None
    assert mat_vec(m, sol, QQ) == rhs


@given(m=matrices)
@settings(max_examples=40)
def test_rref_idempotent_and_span(m):
    red, piv = rref(m, QQ)
    red2, piv2 = rref(red, QQ)
    assert red == red2 and piv == piv2
    assert span_equal(m, red, QQ)
    for row in red:
        assert in_span(m, row, QQ)


# -- differential checks against sympy over Q, Q(i) and Q(sqrt 2) ------------

SQRT2 = FieldSpec(2)


def _to_sympy(c: Scalar):
    a = sympy.Rational(c.a.numerator, c.a.denominator)
    if c.spec.is_rational:
        return a
    return a + sympy.Rational(c.b.numerator, c.b.denominator) * sympy.sqrt(c.spec.d)


def _domain(spec: FieldSpec):
    if spec.is_rational:
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.sqrt(spec.d))


def _scalars(spec: FieldSpec):
    if spec.is_rational:
        return small.map(S)
    return st.tuples(small, small).map(
        lambda ab: Scalar(Fraction(ab[0]), Fraction(ab[1]), spec)
    )


def _matrix(spec: FieldSpec, nrows, ncols):
    row = st.lists(_scalars(spec), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@given(data=st.data(), spec=st.sampled_from([QQ, QI, SQRT2]))
@settings(max_examples=30, deadline=None)
def test_rank_matches_sympy(data, spec):
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    m = data.draw(_matrix(spec, nrows, ncols))
    # low rank is the interesting case: append combinations of drawn rows
    for _ in range(data.draw(st.integers(0, 2))):
        a, b = data.draw(_scalars(spec)), data.draw(_scalars(spec))
        m.append([a * x + b * y for x, y in zip(m[0], m[-1])])
    dm = DomainMatrix.from_Matrix(sympy.Matrix([[_to_sympy(c) for c in r] for r in m]))
    assert rank(m, spec) == dm.convert_to(_domain(spec)).rank()


@given(data=st.data(), spec=st.sampled_from([QQ, QI, SQRT2]))
@settings(max_examples=30, deadline=None)
def test_kernel_basis_matches_sympy(data, spec):
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    m = data.draw(_matrix(spec, nrows, ncols))
    # a row repeated or scaled, or a column zeroed, makes a larger kernel
    if nrows > 1 and data.draw(st.booleans()):
        c = data.draw(_scalars(spec))
        m[-1] = [c * x for x in m[0]]
    if data.draw(st.booleans()):
        col = data.draw(st.integers(0, ncols - 1))
        for row in m:
            row[col] = zero(spec)
    # one vector per free column, 1 there and 0 on the other free columns:
    # the basis that sympy's nullspace returns
    want = sympy.Matrix([[_to_sympy(c) for c in r] for r in m]).nullspace()
    got = kernel_basis(m, ncols, spec)
    dom = _domain(spec)
    assert [[dom.from_sympy(_to_sympy(c)) for c in v] for v in got] == [
        [dom.from_sympy(w) for w in u] for u in want
    ]


@given(data=st.data(), spec=st.sampled_from([QQ, QI]))
@settings(max_examples=30, deadline=None)
def test_solve_many_rhs_matches_sympy(data, spec):
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    m = data.draw(_matrix(spec, nrows, ncols))
    if nrows > 1 and data.draw(st.booleans()):
        m[-1] = [x + y for x, y in zip(m[0], m[-1])] if nrows > 2 else list(m[0])
    rhs = []
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(_scalars(spec), min_size=ncols, max_size=ncols))
            rhs.append(mat_vec(m, x, spec))
        else:
            rhs.append(data.draw(st.lists(_scalars(spec), min_size=nrows, max_size=nrows)))
    got = solve_linear(m, rhs, spec)
    assert len(got) == len(rhs)
    M = sympy.Matrix([[_to_sympy(c) for c in r] for r in m])
    for b, x in zip(rhs, got):
        try:
            sol, params = M.gauss_jordan_solve(sympy.Matrix([_to_sympy(c) for c in b]))
        except ValueError:
            assert x is None
            continue
        assert x is not None
        want = sol.subs({p: 0 for p in params})
        assert all(sympy.expand(_to_sympy(c) - w) == 0 for c, w in zip(x, want))


@given(data=st.data(), spec=st.sampled_from([QQ, QI, SQRT2]))
@settings(max_examples=30, deadline=None)
def test_krylov_min_poly(data, spec):
    n = data.draw(st.integers(1, 4))
    m = data.draw(_matrix(spec, n, n))
    v = data.draw(st.lists(_scalars(spec), min_size=n, max_size=n))
    p = krylov_min_poly(v, lambda u: mat_vec(m, u, spec), spec)
    deg = len(p) - 1
    assert p[-1] == one(spec)
    powers = [v]
    for _ in range(deg):
        powers.append(mat_vec(m, powers[-1], spec))
    pv = zero_vector(n, spec)
    for c, u in zip(p, powers):
        pv = [a + c * b for a, b in zip(pv, u)]
    assert is_zero_vector(pv)
    assert deg == 0 or rank(powers[:deg], spec) == deg
    # no dependence among the powers below deg: a cap of deg - 1 finds none
    if deg > 0:
        assert krylov_min_poly(v, lambda u: mat_vec(m, u, spec), spec, cap=deg - 1) is None


def _sparse_scalars(spec: FieldSpec):
    # three entries in four are 0
    return st.tuples(st.integers(0, 3), _scalars(spec)).map(
        lambda t: t[1] if t[0] == 0 else zero(spec)
    )


@given(data=st.data(), spec=st.sampled_from([QQ, QI, SQRT2]))
@settings(max_examples=60, deadline=None)
def test_rref_matches_sympy_on_sparse_matrices(data, spec):
    nrows = data.draw(st.integers(1, 6))
    ncols = data.draw(st.integers(1, 6))
    row = st.lists(_sparse_scalars(spec), min_size=ncols, max_size=ncols)
    m = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    # repeated and scaled rows, and zero columns, as the kernels produce them
    for _ in range(data.draw(st.integers(0, 2))):
        c = data.draw(_scalars(spec))
        src = m[data.draw(st.integers(0, len(m) - 1))]
        m.insert(data.draw(st.integers(0, len(m))), [c * x for x in src])
    for col in data.draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for r in m:
            r[col] = zero(spec)
    red, pivots = rref(m, spec)
    dom = _domain(spec)
    dm = DomainMatrix([[dom.from_sympy(_to_sympy(c)) for c in r] for r in m], (len(m), ncols), dom)
    want, want_pivots = dm.rref()
    assert pivots == list(want_pivots)
    assert [[dom.from_sympy(_to_sympy(c)) for c in r] for r in red] == want.to_list()[: len(pivots)]
