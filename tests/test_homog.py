import pytest

from ncconic.elements import find_normal_degree1
from ncconic.findim import classify
from ncconic.freealg import Ambient, NcPoly
from ncconic.galgebra import Presentation, build
from ncconic.homog import (
    NotStabilized,
    RelationSequence,
    dehomogenize_algebra,
    dehomogenize_presentation,
    homogenize_presentation,
    is_strongly_regular_normal,
    twist_presentation,
    wild_homogenize_seq,
)
from ncconic.linalg import span_equal
from ncconic.presfile import parse_poly
from ncconic.quadratic import quad_vector, quadratic_dual
from ncconic.scalars import QQ, Scalar

AMB2 = Ambient(("x", "y"), QQ)
U, V = NcPoly.generator(AMB2, 0), NcPoly.generator(AMB2, 1)
ONE2 = NcPoly.one(AMB2)
KXY = Presentation(AMB2, [U * V - V * U], "k[x,y]")


def tau_quotient(S, F):
    """T(S, F) = S/I_{F-top}."""
    return Presentation(S.ambient, S.relations + wild_homogenize_seq(F).elems)


def recombine(F, alpha):
    """f'_j = sum_i alpha[i][j] f_i."""
    elems = [
        sum((f.scale(alpha[i][j]) for i, f in enumerate(F.elems)), NcPoly.zero(F.ambient))
        for j in range(len(F.elems))
    ]
    return RelationSequence(F.ambient, elems)


def test_homogenize_presentation_pencil():
    F = RelationSequence(AMB2, [U * U - ONE2, V * V - ONE2])
    H = homogenize_presentation(KXY, F)
    amb3 = H.ambient
    assert amb3.names == ("x", "y", "z")
    x, y, z = (NcPoly.generator(amb3, i) for i in range(3))
    expected = [x * y - y * x, x * z - z * x, y * z - z * y, x * x - z * z, y * y - z * z]
    assert span_equal(
        [quad_vector(r) for r in H.relations], [quad_vector(r) for r in expected], QQ
    )


def test_homogenize_inhomogeneous_pair():
    F = RelationSequence(AMB2, [U * U - V, U * U + V])
    H = homogenize_presentation(KXY, F)
    amb3 = H.ambient
    x, y, z = (NcPoly.generator(amb3, i) for i in range(3))
    assert x * x - y * z in H.relations
    assert x * x + y * z in H.relations


def test_homogeneous_sequence_unchanged():
    F = RelationSequence(AMB2, [U * U, V * V])
    H = homogenize_presentation(KXY, F)
    amb3 = H.ambient
    x, y, z = (NcPoly.generator(amb3, i) for i in range(3))
    assert x * x in H.relations and y * y in H.relations


def test_wild_and_tau():
    F = RelationSequence(AMB2, [U * U - V, U * U + V])
    tops = wild_homogenize_seq(F)
    assert [str(p) for p in tops.elems] == ["x^2", "x^2"]
    T = tau_quotient(KXY, F)
    assert T.relations == [U * V - V * U, U * U]  # duplicates removed


def test_tau_matches_homogenization_mod_z():
    # dims of H^z(F)/(z) equal dims of T(F) for F = (x^2, y^2 - x)
    F = RelationSequence(AMB2, [U * U, V * V - U])
    H = homogenize_presentation(KXY, F)
    z = NcPoly.generator(H.ambient, 2)
    HmodZ = build(Presentation(H.ambient, H.relations + [z]), 5)
    T = build(tau_quotient(KXY, F), 5)
    assert HmodZ.dims[:6] == T.dims[:6]


def test_strongly_regular_examples():
    S = build(KXY, 6)
    good = RelationSequence(AMB2, [U * U - ONE2, V * V - ONE2])
    assert is_strongly_regular_normal(S, good).strongly_regular_normal
    bad = RelationSequence(AMB2, [U * U - V, U * U + V])
    v = is_strongly_regular_normal(S, bad)
    assert not v.top_sequence.all_regular_normal
    assert not v.strongly_regular_normal
    # central inhomogeneous sequence in k_{-1}[x,y]
    km1 = build(Presentation(AMB2, [U * V + V * U]), 6)
    central = RelationSequence(AMB2, [U * U, V * V + ONE2])
    assert is_strongly_regular_normal(km1, central).strongly_regular_normal


def test_recombination_commutes_with_homogenization():
    # for equal-degree sequences, linear recombination before or after
    # homogenizing gives the same relation span
    F = RelationSequence(AMB2, [U * U - ONE2, V * V - ONE2])
    alpha = [[Scalar.of(1, QQ), Scalar.of(2, QQ)], [Scalar.of(1, QQ), Scalar.of(-1, QQ)]]
    F2 = recombine(F, alpha)
    H1 = homogenize_presentation(KXY, F)
    H2 = homogenize_presentation(KXY, F2)
    assert span_equal(
        [quad_vector(r) for r in H1.relations],
        [quad_vector(r) for r in H2.relations],
        QQ,
    )


def test_sigma_fixes_conic_relation():
    # sigma(x^2 + y(x+z)) = x^2 + y(x+z) modulo the commutators
    amb3 = Ambient(("x", "y", "z"), QQ)
    f = parse_poly("x^2 + y (x + z)", amb3)
    sigma = [
        [Scalar.of(1, QQ), Scalar.of(-1, QQ), Scalar.of(0, QQ)],
        [Scalar.of(0, QQ), Scalar.of(1, QQ), Scalar.of(0, QQ)],
        [Scalar.of(2, QQ), Scalar.of(0, QQ), Scalar.of(1, QQ)],
    ]
    img = f.map_linear(sigma)
    comms = [parse_poly(t, amb3) for t in ["x*y - y*x", "y*z - z*y", "z*x - x*z"]]
    rows = [quad_vector(r) for r in comms]
    assert span_equal(rows + [quad_vector(f)], rows + [quad_vector(img)], QQ)


def test_twist_reproduces_a4():
    amb3 = Ambient(("x", "y", "z"), QQ)
    src = Presentation(
        amb3,
        [parse_poly(t, amb3) for t in ["x*y - y*x", "y*z - z*y", "z*x - x*z", "x^2 + y (x+z)"]],
    )
    sigma = [
        [Scalar.of(1, QQ), Scalar.of(-1, QQ), Scalar.of(0, QQ)],
        [Scalar.of(0, QQ), Scalar.of(1, QQ), Scalar.of(0, QQ)],
        [Scalar.of(2, QQ), Scalar.of(0, QQ), Scalar.of(1, QQ)],
    ]
    tw = twist_presentation(src, sigma)
    a4 = [
        parse_poly(t, amb3)
        for t in ["x*y - y*x - y^2", "y*z - z*y - 2 x*y", "z*x - x*z - y*z", "x^2 + y*z"]
    ]
    assert span_equal([quad_vector(r) for r in tw.relations], [quad_vector(r) for r in a4], QQ)


def test_dehomogenize_algebra_conic_dual():
    amb3 = Ambient(("x", "y", "z"), QQ)
    rels = [parse_poly(t, amb3) for t in ["x*y + y*x", "y*z + z*y", "z*x + x*z", "x^2"]]
    dual = build(quadratic_dual(Presentation(amb3, rels)), 6)
    res = find_normal_degree1(dual)
    cert = res.central_regular()[0]
    E = dehomogenize_algebra(dual, cert)
    assert E.dim == 4
    assert classify(E).label == "U2V2-comm"


def test_dehomogenize_rejects_unstabilized():
    # k_2[x,y] grows linearly: prefix never constant
    A = build(Presentation(AMB2, [U * V - (V * U).scale(Scalar.of(2, QQ))]), 6)
    from ncconic.elements import normalize_check, regularity_check

    cert = normalize_check(A, V)
    cert = regularity_check(A, cert)
    assert cert.regular == "yes"
    with pytest.raises(NotStabilized):
        dehomogenize_algebra(A, cert)


def test_dehomogenize_presentation_split():
    amb3 = Ambient(("x", "y", "z"), QQ)
    rels = [
        parse_poly(t, amb3)
        for t in ["x*y + y*x", "y*z - z*y", "z*x - x*z", "x^2 - y^2", "x^2 - z^2"]
    ]
    P, seq = dehomogenize_presentation(Presentation(amb3, rels), 2)
    assert P.ambient.names == ("x", "y")
    assert any(str(r) == "y*x + x*y" for r in P.relations)
    assert len(seq.elems) == 1  # x^2 - 1 is the only inhomogeneous leftover
