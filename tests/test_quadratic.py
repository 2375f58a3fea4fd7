import pytest

from ncconic.freealg import Ambient, NcPoly
from ncconic.galgebra import Presentation, build
from ncconic.linalg import span_equal
from ncconic.quadratic import (
    NotCodimensionOne,
    dual_element,
    koszul_series_check,
    quad_vector,
    quadratic_dual,
)
from ncconic.scalars import QQ, Scalar

AMB = Ambient(("x", "y", "z"), QQ)
X, Y, Z = (NcPoly.generator(AMB, i) for i in range(3))
S_RELS = [Y * Z + Z * Y, Z * X + X * Z, X * Y + Y * X]


def spans_equal(polys_a, polys_b):
    return span_equal([quad_vector(p) for p in polys_a], [quad_vector(p) for p in polys_b], QQ)


def test_dual_of_conic_f1():
    d = quadratic_dual(Presentation(AMB, S_RELS + [X * X]))
    expected = [X * Y - Y * X, Y * Z - Z * Y, Z * X - X * Z, Y * Y, Z * Z]
    assert spans_equal(d.relations, expected)
    assert len(d.relations) == 5


def test_dual_of_quantum_plane():
    amb = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    lam = Scalar.of(2, QQ)
    d = quadratic_dual(Presentation(amb, [x * y - (y * x).scale(lam)]))
    # dual of k_2[x,y] is k_{-1/2}[x,y]/(x^2,y^2): span check
    expected = [x * x, y * y, (x * y).scale(lam) + y * x]
    assert span_equal(
        [quad_vector(p) for p in d.relations],
        [quad_vector(p) for p in expected],
        QQ,
    )


def test_dual_of_free_algebra():
    amb = Ambient(("x", "y"), QQ)
    d = quadratic_dual(Presentation(amb, []))
    assert len(d.relations) == 4
    # the unit words x^2, xy, yx, y^2, in that order
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    assert d.relations == [x * x, x * y, y * x, y * y]


def test_dual_element_examples():
    Sq = Presentation(AMB, S_RELS)
    fd = dual_element(Sq, X * X)
    assert fd == X * X
    with pytest.raises(NotCodimensionOne):
        dual_element(Sq, X * Y + Y * X)
    # k_lambda[x,y] with f = x^2: the dual element spans the gap
    amb = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    lam = Scalar.of(2, QQ)
    Sq2 = Presentation(amb, [x * y - (y * x).scale(lam)])
    fd2 = dual_element(Sq2, x * x)
    assert fd2 == x * x


def test_dual_element_property():
    # span(relations(A^!)) + <f^!> = span(relations(S^!)), codimension 1
    Sq = Presentation(AMB, S_RELS)
    f = X * X + Y * Y
    fd = dual_element(Sq, f)
    ds = quadratic_dual(Sq).relations
    da = quadratic_dual(Presentation(AMB, S_RELS + [f])).relations
    assert spans_equal(da + [fd], ds)
    assert len(da) == len(ds) - 1


def test_biduality_and_orthogonality():
    for rels in (S_RELS, S_RELS + [X * X], [X * Y - Y * X, Y * Z - Z * Y, Z * X - X * Z]):
        q = Presentation(AMB, rels)
        d = quadratic_dual(q)
        dd = quadratic_dual(d)
        assert spans_equal(dd.relations, q.relations)
        n = AMB.n
        assert len(q.relations) + len(d.relations) == n * n
        for r in q.relations:
            rv = quad_vector(r)
            for s in d.relations:
                sv = quad_vector(s)
                pairing = rv[0]
                total = None
                for a, b in zip(rv, sv):
                    total = a * b if total is None else total + a * b
                assert total.is_zero()


def test_koszul_series_checks():
    S = build(Presentation(AMB, S_RELS), 6)
    Sd = build(quadratic_dual(S.presentation), 6)
    assert koszul_series_check(S, Sd, 6)
    A = build(Presentation(AMB, S_RELS + [X * X]), 6)
    Ad = build(quadratic_dual(A.presentation), 6)
    assert koszul_series_check(A, Ad, 6)
    # a deliberately broken quadratic algebra: the check just reports
    amb = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    B = build(Presentation(amb, [x * x + x * y]), 6)
    Bd = build(quadratic_dual(B.presentation), 6)
    assert isinstance(koszul_series_check(B, Bd, 6), bool)


def test_dependent_relations_do_not_change_the_dual():
    # a relation in the span of the others changes neither the dual nor f^!
    f = X * X + Y * Y
    for extra in (S_RELS[0] + S_RELS[1], S_RELS[2].scale(Scalar.of(3, QQ))):
        assert quadratic_dual(Presentation(AMB, S_RELS + [extra])) == quadratic_dual(
            Presentation(AMB, S_RELS)
        )
        assert dual_element(Presentation(AMB, S_RELS + [extra]), f) == dual_element(
            Presentation(AMB, S_RELS), f
        )
