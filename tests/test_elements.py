from collections import Counter

from ncconic.elements import (
    central_degree1_search,
    center_degree,
    find_normal_degree1,
    normalize_check,
    regularity_check,
)
from ncconic.freealg import Ambient, NcPoly
from ncconic.galgebra import Presentation, build
from ncconic.linalg import rank
from ncconic.presfile import parse_poly
from ncconic.quadratic import quadratic_dual
from ncconic.scalars import QI, QQ, Scalar

AMB = Ambient(("x", "y", "z"), QQ)
X, Y, Z = (NcPoly.generator(AMB, i) for i in range(3))


def dual_algebra(rels, D=6, amb=AMB):
    A = Presentation(amb, rels)
    return build(quadratic_dual(A), D)


def test_center_t1_branch():
    # Type T1 with alpha = beta = 0, gamma = 1: Z(S)_2 = span{(x-y)^2}
    f1 = X * Y - Y * X
    f2 = X * Z - Z * X + Y * X
    f3 = Y * Z - Z * Y + X * Y
    S = build(Presentation(AMB, [f1, f2, f3]), 4)
    basis = center_degree(S, 2)
    assert len(basis) == 1
    target = S.nf(X * X - X * Y - Y * X + Y * Y)
    assert S.nf(basis[0].scale(target.leading(S.rs.order)[1]) - target.scale(basis[0].leading(S.rs.order)[1])).is_zero()


def test_center_commutative_full():
    comm = build(Presentation(AMB, [X * Y - Y * X, Y * Z - Z * Y, Z * X - X * Z]), 4)
    assert len(center_degree(comm, 2)) == 6


def test_center_anticommutator_squares():
    S = build(Presentation(AMB, [X * Y + Y * X, Y * Z + Z * Y, Z * X + X * Z]), 4)
    basis = center_degree(S, 2)
    assert len(basis) == 3
    words = {list(b.terms)[0] for b in basis if len(b.terms) == 1}
    assert words == {(0, 0), (1, 1), (2, 2)}


def test_center_dim_order_independent():
    import itertools

    from ncconic.freealg import MonomialOrder

    rels = [X * Y - Y * X, X * Z - Z * X + Y * X, Y * Z - Z * Y + X * Y]
    dims = set()
    for perm in itertools.permutations(range(3)):
        S = build(Presentation(AMB, rels), 4, MonomialOrder(tuple(perm)))
        dims.add(len(center_degree(S, 2)))
    assert dims == {1}


def test_normalize_central_in_f1_dual():
    dual = dual_algebra([X * Y + Y * X, Y * Z + Z * Y, Z * X + X * Z, X * X])
    cert = normalize_check(dual, X)
    assert cert is not None and cert.central
    cert = regularity_check(dual, cert)
    assert cert.regular == "yes"


def test_normalizing_automorphism_example():
    # f = xy in k_{-1}[x,y][z] has nu = diag(-1,-1,1)
    S = build(Presentation(AMB, [X * Y + Y * X, Y * Z - Z * Y, Z * X - X * Z]), 4)
    cert = normalize_check(S, X * Y)
    assert cert is not None and not cert.central
    m = [[str(c) for c in row] for row in cert.nu]
    assert m == [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]
    assert rank(cert.nu, QQ) == len(cert.nu)


def test_not_regular_square():
    amb = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    A = build(Presentation(amb, [x * y - y * x, x * x]), 5)
    cert = normalize_check(A, x)
    assert cert is not None
    cert = regularity_check(A, cert)
    assert cert.regular == "no"
    # (1 - t) * (1, 2, 2, ...) against k[y]: x * x = 0 shows up in degree 2
    hilbert = cert.evidence["hilbert"]
    assert hilbert["expected"] == [1, 1, 0, 0, 0, 0]
    assert hilbert["actual"] == [1, 1, 1, 1, 1, 1]
    assert hilbert["first_mismatch"] == 2


def _annihilated(A, w) -> bool:
    """Direct rank test: some nonzero g of degree 1..D-d has g w = 0 or w g = 0."""
    d = w.degree()
    for e in range(1, A.truncation - d + 1):
        words = [NcPoly.monomial(A.ambient, b) for b in A.basis(e)]
        left = [A.coords(g * w, e + d) for g in words]
        right = [A.coords(w * g, e + d) for g in words]
        if min(rank(left, A.ambient.spec), rank(right, A.ambient.spec)) < len(words):
            return True
    return False


def test_regularity_matches_direct_rank_test():
    amb = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    certs = []
    for A, w in [
        (build(Presentation(amb, [x * y - y * x, x * x]), 5), x),
        (build(Presentation(amb, [x * y - y * x]), 5), x),
        (build(Presentation(AMB, [X * Y + Y * X, Y * Z - Z * Y, Z * X - X * Z]), 5), X * Y),
        (build(Presentation(AMB, [X * Y + Y * X, Y * Z - Z * Y, Z * X - X * Z, X * X]), 5), X),
    ]:
        certs.append((A, regularity_check(A, normalize_check(A, w))))
    for texts in [
        ["x*y + y*x", "y*z - z*y", "z*x - x*z", "x^2"],
        ["x*y + y*x", "y*z - z*y - x^2 - y^2 + 2 x*y", "z*x + x*z - 2 x^2", "x^2"],
        ["2 x*y - z*x + y*z", "2 y*x - x*z + z*y", "x^2 + y^2", "x*y + y*x + z^2"],
        ["x*y - y*x", "y*z - z*y", "z*x - x*z", "x^2"],
    ]:
        dual = dual_algebra([parse_poly(t, AMB) for t in texts], D=5)
        certs += [(dual, c) for c in find_normal_degree1(dual).certificates]
    verdicts = Counter()
    for A, cert in certs:
        annihilated = _annihilated(A, cert.w)
        assert cert.regular == ("no" if annihilated else "yes"), cert.w
        verdicts[cert.regular] += 1
    assert verdicts["yes"] >= 4 and verdicts["no"] >= 4


def test_j7_dual_z_regular_via_dual_quotient():
    rels = [
        parse_poly(t, AMB)
        for t in [
            "2 x*y - z*x + y*z",
            "2 y*x - x*z + z*y",
            "x^2 + y^2",
            "x*y + y*x + z^2",
        ]
    ]
    dual = dual_algebra(rels)
    cert = normalize_check(dual, Z)
    assert cert is not None and not cert.central
    cert = regularity_check(dual, cert)
    assert cert.regular == "yes"
    assert cert.evidence.get("dual_quotient") == "ad-bc nonzero"


def test_find_normal_b5_needs_i():
    ambi = Ambient(("x", "y", "z"), QI)
    rels = [parse_poly(t, ambi) for t in ["x^2 - y^2", "y*z + z*x", "z*y - x*z", "x^2"]]
    dual = build(quadratic_dual(Presentation(ambi, rels)), 6)
    res = find_normal_degree1(dual)
    regular = res.regular()
    assert res.regular_complete
    # the printed example x - i y is among the regular normal elements found
    i = Scalar.sqrt_part(1, QI)
    xi, yi = NcPoly.generator(ambi, 0), NcPoly.generator(ambi, 1)
    target = [(xi - yi.scale(i)).terms.get((k,), Scalar.of(0, QI)) for k in range(3)]

    def proportional(w):
        row = [w.terms.get((k,), Scalar.of(0, QI)) for k in range(3)]
        return rank([row, target], QI) == 1

    assert any(proportional(c.w) for c in regular)


def test_find_normal_c2_x_plus_z():
    rels = [
        parse_poly(t, AMB)
        for t in ["x*y + y*x", "y*z - z*y - x^2 - y^2 + 2 x*y", "z*x + x*z - 2 x^2", "x^2"]
    ]
    dual = dual_algebra(rels)
    res = find_normal_degree1(dual)
    cr = res.central_regular()
    assert len(cr) == 1
    assert cr[0].w == X + Z


def test_find_normal_empty_a4():
    rels = [
        parse_poly(t, AMB)
        for t in ["x*y - y*x - y^2", "y*z - z*y - 2 x*y", "z*x - x*z - y*z", "x^2 + y*z"]
    ]
    dual = dual_algebra(rels)
    res = find_normal_degree1(dual)
    assert res.regular() == []
    assert res.regular_complete


def test_central_search_decided():
    dual = dual_algebra([X * Y - Y * X, Y * Z - Z * Y, Z * X - X * Z, X * X + Y * Y + Z * Z])
    cs = central_degree1_search(dual)
    assert cs.complete and cs.central_regular() == []


def test_nu_fixes_w_for_regular_certificates():
    # nu(w) = w for every regular normal certificate
    rels = [X * Y + Y * X, Y * Z - Z * Y, Z * X - X * Z, X * X]  # F2 row
    dual = dual_algebra(rels)
    res = find_normal_degree1(dual)
    for cert in res.regular():
        img = dual.nf(cert.w.map_linear(cert.nu))
        assert dual.nf(img - cert.w).is_zero()
        assert rank(cert.nu, QQ) == len(cert.nu)
