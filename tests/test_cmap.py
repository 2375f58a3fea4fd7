import pytest

from ncconic.cmap import (
    NoCentralCertificate,
    compute_C,
    delta,
    dual_of,
    nabla,
)
from ncconic.elements import normalize_check
from ncconic.findim import classify, from_presentation, is_frobenius
from ncconic.freealg import Ambient, NcPoly
from ncconic.galgebra import Presentation, build
from ncconic.homog import RelationSequence
from ncconic.linalg import span_equal
from ncconic.presfile import parse_poly
from ncconic.quadratic import dual_element, quad_vector
from ncconic.scalars import FieldSpec, QQ

AMB = Ambient(("x", "y", "z"), QQ)


def conic(*texts, amb=AMB, D=6):
    rl = [parse_poly(t, amb) for t in texts]
    A = build(Presentation(amb, rl), D)
    S = Presentation(amb, rl[:-1])
    return A, (S, rl[-1])


def test_compute_c_f1():
    A, split = conic("x*y + y*x", "y*z + z*y", "z*x + x*z", "x^2")
    res = compute_C(A, split=split)
    assert res.algebra.dim == 4
    assert classify(res.algebra).label == "U2V2-comm"
    assert res.path.startswith("dehomogenize")


def test_compute_c_localize_fallback():
    # A4 has no degree-1 regular normal element in the dual: localization path
    A, split = conic("x*y - y*x - y^2", "y*z - z*y - 2 x*y", "z*x - x*z - y*z", "x^2 + y*z")
    res = compute_C(A, split=split)
    assert res.path.startswith("localize")
    assert classify(res.algebra).label == "M2"
    assert is_frobenius(res.algebra)


def test_compute_c_k1_over_sqrt3():
    q3 = FieldSpec(3)
    amb = Ambient(("x", "y", "z"), q3)
    A, split = conic(
        "x*y + y*x",
        "y*z + z*y + (2/3) sqrt(3) x^2",
        "z*x + x*z + (2/3) sqrt(3) y^2",
        "x^2 + y^2 + z^2",
        amb=amb,
    )
    res = compute_C(A, split=split)
    assert classify(res.algebra).label == "U3xK"


def test_dual_element_central_for_central_conics():
    # f in RZ(S)_2 gives f^! central in the dual (both directions of the
    # dual-element correspondence)
    for texts in (
        ("x*y + y*x", "y*z + z*y", "z*x + x*z", "x^2"),
        ("x*y - y*x - y^2", "y*z - z*y - 2 x*y", "z*x - x*z - y*z", "x^2 + y*z"),
    ):
        A, (S, f) = conic(*texts)
        dual = dual_of(A)
        fd = dual_element(S, f)
        cert = normalize_check(dual, fd)
        assert cert is not None and cert.central


def test_delta_a2_model():
    amb = Ambient(("x", "y", "z"), QQ)
    A, _ = conic("x*y - y*x", "y*z + z*y", "z*x + x*z", "x^2 + y^2 + z^2", amb=amb)
    d = delta(A)
    assert str(d.certificate.w) == "z"
    assert d.algebra.dim == 4
    assert classify(d.algebra).label == "M2"
    # matches the affine model k<x,y>/(xy + yx, x^2 - 1, y^2 - 1)
    amb2 = Ambient(("x", "y"), QQ)
    model = from_presentation(
        amb2, [parse_poly(t, amb2) for t in ["x*y + y*x", "x^2 - 1", "y^2 - 1"]]
    )
    assert classify(model) == classify(d.algebra)


def test_delta_requires_central_certificate():
    A, _ = conic("x*y - y*x - y^2", "y*z - z*y - 2 x*y", "z*x - x*z - y*z", "x^2 + y*z")
    with pytest.raises(NoCentralCertificate):
        delta(A)


def test_nabla_delta_roundtrip_classes():
    amb2 = Ambient(("x", "y"), QQ)
    u, v = NcPoly.generator(amb2, 0), NcPoly.generator(amb2, 1)
    one2 = NcPoly.one(amb2)
    cases = [
        ([u * v - v * u], [u * u - one2, v * v - one2]),   # K4
        ([u * v - v * u], [u * u, v * v]),                 # U2V2
        ([u * v + v * u], [u * u, v * v + one2]),          # B-class
    ]
    for srel, fs in cases:
        S = build(Presentation(amb2, srel), 6)
        F = RelationSequence(amb2, fs)
        E = from_presentation(amb2, srel + fs)
        want = classify(E)
        con = nabla(S, F)
        assert con.dims[:5] == [1, 3, 5, 7, 9]
        d = delta(con)
        assert classify(d.algebra) == want


def test_nabla_of_k4_is_i1_presentation():
    amb2 = Ambient(("x", "y"), QQ)
    u, v = NcPoly.generator(amb2, 0), NcPoly.generator(amb2, 1)
    one2 = NcPoly.one(amb2)
    S = build(Presentation(amb2, [u * v - v * u]), 6)
    con = nabla(S, RelationSequence(amb2, [u * u - one2, v * v - one2]))
    amb3 = con.ambient
    expected = [
        parse_poly(t, amb3)
        for t in ["x*y + y*x", "y*z + z*y", "z*x + x*z", "x^2 + y^2 + z^2"]
    ]
    assert span_equal(
        [quad_vector(r) for r in con.presentation.relations],
        [quad_vector(r) for r in expected],
        QQ,
    )
