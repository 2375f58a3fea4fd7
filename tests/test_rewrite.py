import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ncconic.freealg import Ambient, AmbientMismatch, MonomialOrder, NcPoly
from ncconic.rewrite import (
    DegreeExceedsTruncation,
    UnitIdeal,
    complete,
    graded_basis,
    normal_form,
)
from ncconic.scalars import QI, QQ, FieldSpec, Scalar, zero

AMB = Ambient(("x", "y", "z"), QQ)
X, Y, Z = (NcPoly.generator(AMB, i) for i in range(3))


def words(ws):
    return ["".join("xyz"[i] for i in w) for w in ws]


def t1_system(alpha=0, beta=0, gamma=1, D=6):
    a, b, g = (Scalar.of(v, QQ) for v in (alpha, beta, gamma))
    f1 = X * Y - Y * X
    f2 = X * Z - Z * X - (X * X).scale(b) + (Y * X).scale(b + g)
    f3 = Y * Z - Z * Y - (Y * Y).scale(a) + (X * Y).scale(a + g)
    return complete(AMB, [f1, f2, f3], D)


def test_t1_is_already_groebner():
    rs = t1_system()
    assert sorted(rs.rules) == [(1, 0), (2, 0), (2, 1)]  # leads yx, zx, zy


def test_t1_degree3_basis_is_the_printed_one():
    rs = t1_system()
    b3 = graded_basis(rs, 3)
    assert words(b3) == ["xxx", "xxy", "xxz", "xyy", "xyz", "xzz", "yyy", "yyz", "yzz", "zzz"]


def test_t1_quantum_polynomial_dims():
    rs = t1_system()
    for d in range(7):
        assert len(graded_basis(rs, d)) == (d + 1) * (d + 2) // 2


def test_single_monomial_relation():
    amb = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    rs = complete(amb, [x * y], 4)
    assert list(rs.rules) == [(0, 1)]
    assert rs.rules[(0, 1)].is_zero()


def test_n_algebra_degree3_count():
    rs = complete(AMB, [Y * Z + Z * Y + X * X, Z * X + X * Z + Y * Y, X * Y + Y * X], 4)
    assert len(graded_basis(rs, 3)) == 10


def test_truncation_errors():
    # relations above the truncation leave the degrees up to it alone: the
    # cubic algebra x^2 y = y x^2, x y^2 = y^2 x at D = 2 has its D = 3 prefix
    amb = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    cubic = [x * x * y - y * x * x, x * y * y - y * y * x]
    low, high = complete(amb, cubic, 2), complete(amb, cubic, 3)
    assert low.confluent_up_to == 2
    assert [len(graded_basis(low, d)) for d in range(3)] == [1, 2, 4]
    assert [len(graded_basis(high, d)) for d in range(3)] == [1, 2, 4]
    rs = t1_system(D=3)
    with pytest.raises(DegreeExceedsTruncation):
        graded_basis(rs, 4)


def test_a_relation_reducing_to_a_constant_stops_completion():
    # x reduces x^2 - 1 to -1: the ideal is the whole algebra, and no rule
    # may have the empty lead
    with pytest.raises(UnitIdeal, match="constant -1"):
        complete(AMB, [X, X * X - NcPoly.one(AMB)], 4)


def test_negative_degree_has_no_words():
    # the degree-d part is 0 for d < 0; the word search must not recurse
    assert graded_basis(t1_system(D=3), -1) == []


def test_normal_form_examples():
    rs = t1_system()
    # zy^2 at alpha=beta=0, gamma=1 reduces to y^2 z + 2 x y^2
    nf = normal_form(rs, Z * Y * Y)
    assert nf == Y * Y * Z + (X * Y * Y).scale(Scalar.of(2, QQ))
    assert normal_form(rs, NcPoly.zero(AMB)).is_zero()
    for w in graded_basis(rs, 3):
        assert normal_form(rs, NcPoly.monomial(AMB, w)) == NcPoly.monomial(AMB, w)


def test_normal_form_rejects_a_foreign_ambient():
    rs = t1_system()
    amb_i = Ambient(AMB.names, QI)
    ixy = NcPoly(amb_i, {(0, 1): Scalar.sqrt_part(1, QI)})
    with pytest.raises(AmbientMismatch):
        normal_form(rs, ixy)
    amb2 = Ambient(("x", "y"), QQ)
    rs2 = complete(amb2, [NcPoly.monomial(amb2, (1, 0)) - NcPoly.monomial(amb2, (0, 1))], 4)
    with pytest.raises(AmbientMismatch):
        normal_form(rs2, X * Z)


small_polys = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=3).map(tuple),
        st.integers(min_value=-4, max_value=4),
    ),
    min_size=0,
    max_size=4,
).map(lambda ts: NcPoly(AMB, {w: Scalar.of(c, QQ) for w, c in dict(ts).items() if c}))


@given(f=small_polys, g=small_polys)
@settings(max_examples=60, deadline=None)
def test_normal_form_linear_and_multiplicative(f, g):
    rs = t1_system()
    nf = lambda p: normal_form(rs, p)
    assert nf(nf(f)) == nf(f)
    assert nf(f + g) == nf(f) + nf(g)
    if f.degree() + g.degree() <= rs.confluent_up_to:
        assert nf(f * g) == nf(nf(f) * nf(g))


def test_dims_order_independent():
    # the graded dimension is presentation-intrinsic
    rels = [Y * Z + Z * Y + X * X, Z * X + X * Z + Y * Y, X * Y + Y * X]
    base = None
    for perm in itertools.permutations(range(3)):
        rs = complete(AMB, rels, 5, MonomialOrder(tuple(perm)))
        dims = [len(graded_basis(rs, d)) for d in range(6)]
        if base is None:
            base = dims
        assert dims == base


# -- the heap reducer against the rescanning reducer it replaced ----------------


def reference_normal_form(rs, f):
    """Rewrite the largest pending word, found by a scan of every pending
    word, at the leftmost position where a lead occurs."""
    z = zero(rs.ambient.spec)
    work, out = dict(f.terms), {}
    while work:
        w = max(work, key=rs.order.key)
        c = work.pop(w)
        if c.is_zero():
            continue
        hit = next(
            ((p, u) for p in range(len(w)) for u in rs.rules if w[p : p + len(u)] == u), None
        )
        if hit is None:
            out[w] = out.get(w, z) + c
            continue
        p, u = hit
        for v, cv in rs.rules[u].terms.items():
            nw = w[:p] + v + w[p + len(u) :]
            work[nw] = work.get(nw, z) + c * cv
    return NcPoly(rs.ambient, out)


@functools.cache
def oracle_system(name):
    """A completed system to check the heap reducer on: a Sklyanin-type
    algebra in generic coordinates over Q, Q(i) or Q(sqrt 2), or an
    inhomogeneous finite-dimensional presentation."""
    if name == "inhomogeneous":
        amb2 = Ambient(("x", "y"), QQ)
        x, y = NcPoly.generator(amb2, 0), NcPoly.generator(amb2, 1)
        one = NcPoly.scalar(amb2, 1)
        return complete(amb2, [x * y - y * x, x * x - y - one, y * y - one], 6)
    spec = {"generic_Q": QQ, "generic_Qi": QI, "generic_Q2": FieldSpec(2)}[name]
    amb = Ambient(("x", "y", "z"), spec)
    x, y, z = (NcPoly.generator(amb, i) for i in range(3))
    sk = [y * z + z * y + x * x, z * x + x * z + y * y, x * y + y * x]
    if spec == QQ:
        m = [[Scalar.of(v, QQ) for v in row] for row in ((1, 1, 1), (1, -1, 1), (1, 1, -1))]
    else:
        o, s, n = Scalar.of(1, spec), Scalar.sqrt_part(1, spec), zero(spec)
        m = [[o, s, n], [n, o, s], [s, n, o + o]]
    return complete(amb, [r.map_linear(m) for r in sk], 4)


@pytest.mark.parametrize("name", ["generic_Q", "generic_Qi", "generic_Q2", "inhomogeneous"])
@given(
    terms=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=2), max_size=4).map(tuple),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-2, max_value=2),
        ),
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_heap_reducer_matches_rescanning_reference(name, terms):
    rs = oracle_system(name)
    amb = rs.ambient
    spec = amb.spec
    coeffs = {}
    for w, a, b in terms:
        w = tuple(i % amb.n for i in w)
        c = Scalar.of(a, spec) + (Scalar.sqrt_part(b, spec) if spec.d is not None else zero(spec))
        coeffs[w] = coeffs[w] + c if w in coeffs else c
    f = NcPoly(amb, coeffs)
    assert normal_form(rs, f) == reference_normal_form(rs, f)
