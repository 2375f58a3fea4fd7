from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ncconic import dataset, geometry
from ncconic.freealg import Ambient
from ncconic.geometry import (
    BoundExceeded,
    _common_factor_variables,
    _coordinate_min_poly,
    CommPoly,
    NotQuadratic,
    buchberger,
    eliminate_small,
    k_matrix,
    minors_ideal,
    normalize_point,
    reduce_poly,
    sigma_at,
    solve_projective,
    univariate_roots,
)
from ncconic.presfile import parse_poly
from ncconic.scalars import QI, QQ, FieldSpec, Scalar, one, zero

AMB = Ambient(("x", "y", "z"), QQ)
NAMES = ["x", "y", "z"]


def rels(*texts, amb=AMB):
    return [parse_poly(t, amb) for t in texts]


S_CONIC = rels("y*z + z*y", "z*x + x*z", "x*y + y*x", "x^2")


def test_k_matrix_worked_example():
    K = k_matrix(S_CONIC)
    got = [[e.format(NAMES) for e in row] for row in K]
    assert got == [["0", "z", "y", "x"], ["z", "0", "x", "0"], ["y", "x", "0", "0"]]


def test_k_matrix_small_cases():
    amb = AMB
    K = k_matrix(rels("x*y"))
    assert [row[0].format(NAMES) for row in K] == ["y", "0", "0"]
    K2 = k_matrix(rels("x^2 + y^2 + z^2"))
    assert [row[0].format(NAMES) for row in K2] == ["x", "y", "z"]
    with pytest.raises(NotQuadratic):
        k_matrix(rels("x^2 + y"))


def test_minors_worked_example():
    M = minors_ideal(k_matrix(S_CONIC))
    assert [m.format(NAMES) for m in M] == ["2*x*y*z", "x^2*z", "-x^2*y", "-x^3"]


@pytest.mark.parametrize(
    "spec, terms, want",
    [
        (QQ, {(2, 0, 0): (-1,), (0, 1, 1): (-3,), (0, 0, 0): (-7,)}, "-x^2 - 3*y*z - 7"),
        (
            QQ,
            {(1, 1, 0): (Fraction(1, 2),), (0, 0, 2): (Fraction(-2, 3),), (0, 0, 0): (Fraction(5, 4),)},
            "(1/2)*x*y - (2/3)*z^2 + (5/4)",
        ),
        (
            QI,
            {(1, 0, 1): (1, 1), (0, 1, 0): (0, -1), (0, 0, 0): (2, 0), (0, 0, 3): (0, Fraction(1, 2))},
            "(1/2*i)*z^3 + (1+i)*x*z - i*y + 2",
        ),
        (FieldSpec(3), {(1, 0, 0): (0, 1), (0, 2, 0): (-1, -2)}, "-(1+2*sqrt(3))*y^2 + sqrt(3)*x"),
        (QQ, {(0, 0, 0): (Fraction(-5, 3),)}, "-(5/3)"),
        (QQ, {(0, 0, 0): (1,)}, "1"),
        (QQ, {}, "0"),
    ],
    ids=["negative", "rational", "gaussian", "sqrt3", "constant", "unit", "zero"],
)
def test_commpoly_format(spec, terms, want):
    def scalar(a, b=0):
        return Scalar(Fraction(a), Fraction(b), spec)

    p = CommPoly(3, spec, {m: scalar(*c) for m, c in terms.items()})
    assert p.format(NAMES) == want


def test_minors_zero_column():
    amb = AMB
    # relations x^2, xy, xz: K has rows only in the x-row; minors missing that
    # column vanish identically
    K = k_matrix(rels("x^2", "x*y", "x*z", "x^2 + x*y"))
    M = minors_ideal(K)
    assert all(m.is_zero() for m in M)


def test_sigma_worked_example():
    p = (zero(QQ), one(QQ), Scalar.of(5, QQ))
    q = sigma_at(S_CONIC, p)
    assert q == (zero(QQ), one(QQ), Scalar.of(-5, QQ))


def test_eliminate_small_examples():
    X0 = CommPoly.var(3, 0, QQ)
    Y0 = CommPoly.var(3, 1, QQ)
    one_p = CommPoly.const(3, one(QQ))
    two_p = CommPoly.const(3, Scalar.of(2, QQ))
    r = eliminate_small([X0 - one_p, Y0 - two_p])
    assert len(r.solutions) == 1 and r.complete
    r2 = eliminate_small([X0 * X0 - one_p, Y0 * Y0 - one_p])
    assert len(r2.solutions) == 4 and r2.complete
    with pytest.raises(BoundExceeded):
        eliminate_small([X0] * 21)


def test_roots_across_fields():
    q3 = FieldSpec(3)
    r, split = univariate_roots([Scalar.of(-2, QQ), zero(QQ), one(QQ)], QQ)
    assert r == [] and not split
    r, split = univariate_roots(
        [Scalar.of(-2, FieldSpec(2)), zero(FieldSpec(2)), one(FieldSpec(2))], FieldSpec(2)
    )
    assert split and len(r) == 2
    # cubic through the sympy path: t^3 - t over Q
    r, split = univariate_roots([zero(QQ), Scalar.of(-1, QQ), zero(QQ), one(QQ)], QQ)
    assert split and len(r) == 3
    # roots with a sqrt(2) part: (t - (1 + sqrt 2))(t + sqrt 2) = t^2 - t - 2 - sqrt 2
    q2 = FieldSpec(2)
    r, split = univariate_roots(
        [Scalar(Fraction(-2), Fraction(-1), q2), Scalar.of(-1, q2), one(q2)], q2
    )
    assert split and r == [Scalar.sqrt_part(-1, q2), Scalar(Fraction(1), Fraction(1), q2)]
    # t^2 + 3 over Q(sqrt -3): roots +-sqrt(-3)
    qm3 = FieldSpec(-3)
    r, split = univariate_roots([Scalar.of(3, qm3), zero(qm3), one(qm3)], qm3)
    assert split and r == [Scalar.sqrt_part(-1, qm3), Scalar.sqrt_part(1, qm3)]
    r, split = univariate_roots([Scalar.of(-2, q3), zero(q3), one(q3)], q3)
    assert r == [] and not split


def test_roots_are_rechecked_exactly(monkeypatch):
    # a conversion from sympy that conjugates is caught by the exact Horner
    # check: both roots of (t - (1 + sqrt 2))(t + sqrt 2) are dropped
    q2 = FieldSpec(2)
    read = geometry.from_domain

    def conjugated(e, spec):
        s = read(e, spec)
        return Scalar(s.a, -s.b, spec)

    monkeypatch.setattr(geometry, "from_domain", conjugated)
    r, split = univariate_roots(
        [Scalar(Fraction(-2), Fraction(-1), q2), Scalar.of(-1, q2), one(q2)], q2
    )
    assert r == [] and not split


def _times(p: list[Scalar], q: list[Scalar]) -> list[Scalar]:
    """Product of two coefficient lists, constant term first."""
    out = [zero(p[0].spec)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


# each field with a fixed non-square c: t^2 - c has no root in it
_NON_SQUARES = [(QQ, 2), (QI, 2), (FieldSpec(2), 3), (FieldSpec(-3), 2)]


@given(data=st.data(), field=st.sampled_from(_NON_SQUARES), irreducible=st.booleans())
@settings(max_examples=40, deadline=None)
def test_univariate_roots_from_known_roots(data, field, irreducible):
    spec, c = field
    b = st.just(0) if spec.is_rational else st.integers(-2, 2)
    element = st.tuples(st.integers(-3, 3), b).map(
        lambda ab: Scalar(Fraction(ab[0]), Fraction(ab[1]), spec)
    )
    roots = data.draw(st.lists(element, min_size=1, max_size=3))
    roots += roots[: data.draw(st.integers(0, 1))]  # a repeated root
    if data.draw(st.booleans()):
        roots.append(zero(spec))
    lead = data.draw(element.filter(lambda s: not s.is_zero()))
    poly = [lead]
    for r in roots:
        poly = _times(poly, [-r, one(spec)])
    if irreducible:
        poly = _times(poly, [Scalar.of(-c, spec), zero(spec), one(spec)])
    got, split = univariate_roots(poly, spec)
    assert got == sorted(set(roots), key=lambda s: (s.a, s.b))
    assert split == (not irreducible)


def test_eliminant_residue_text():
    # the residue prints each coefficient as a sympy number of the field
    q2 = FieldSpec(2)
    v0 = CommPoly.var(3, 0, q2)

    def const(a, b=0):
        return CommPoly.const(3, Scalar(Fraction(a), Fraction(b), q2))

    r = eliminate_small([v0 * v0 - const(3)])
    assert r.residue == "eliminant of v0 does not split over Q(sqrt 2): (-3)*t^0+(0)*t^1+(1)*t^2"
    r = eliminate_small([v0 * v0 * v0 - const(Fraction(1, 2), Fraction(-3, 4)) * v0 + const(0, 5)])
    assert r.residue == (
        "eliminant of v0 does not split over Q(sqrt 2): "
        "(5*sqrt(2))*t^0+(-1/2 + 3*sqrt(2)/4)*t^1+(0)*t^2+(1)*t^3"
    )


def test_buchberger_reduces_to_triangular():
    X0 = CommPoly.var(3, 0, QQ)
    Y0 = CommPoly.var(3, 1, QQ)
    gb = buchberger([X0 * Y0 - CommPoly.const(3, one(QQ)), X0 * X0 - Y0])
    # x^3 = 1 must be a consequence
    target = X0 * X0 * X0 - CommPoly.const(3, one(QQ))
    assert reduce_poly(target, gb).is_zero()


def test_point_scheme_counts_table4():
    N_RELS = rels("y*z + z*y + x^2", "z*x + x*z + y^2", "x*y + y*x")
    S_RELS = rels("y*z + z*y", "z*x + x*z", "x*y + y*x")

    def count(relations, spec=QQ):
        amb = Ambient(("x", "y", "z"), spec)
        rl = [parse_poly(str(r), amb) for r in relations]
        res = solve_projective(minors_ideal(k_matrix(rl)))
        return len(res.solutions), res.complete, rl, res.solutions

    n1, c1, _, _ = count(N_RELS + rels("x^2"))
    assert (n1, c1) == (1, True)
    n3, c3, rl3, pts3 = count(S_RELS + rels("x^2 + y^2"))
    assert (n3, c3) == (3, True)
    n6, c6, rl6, pts6 = count(S_RELS + rels("x^2 + y^2 + z^2"))
    assert (n6, c6) == (6, True)
    n2, c2, _, _ = count(N_RELS + rels("3 x^2 + 3 y^2 + 4 z^2"))
    assert (n2, c2) == (2, True)
    # sigma is a bijection with sigma^2 = id on these finite schemes
    for rl, pts in ((rl3, pts3), (rl6, pts6)):
        sigma = {p: sigma_at(rl, p) for p in pts}
        assert set(sigma.values()) == set(pts)
        assert all(sigma[sigma[p]] == p for p in pts)


def test_points_annihilate_minors():
    amb = Ambient(("x", "y", "z"), QI)
    rl = [
        parse_poly(t, amb)
        for t in ["y*z + z*y + x^2", "z*x + x*z + y^2", "x*y + y*x", "x^2 + y^2 - 4 z^2"]
    ]
    M = minors_ideal(k_matrix(rl))
    res = solve_projective(M)
    assert res.complete and len(res.solutions) == 4
    for p in res.solutions:
        assert all(m.evaluate(list(p)).is_zero() for m in M)
        assert p == normalize_point(p)


def _component_rows():
    return [r for r in dataset.load_rows() if r.table == "4" and r.expect("component")]


@pytest.mark.parametrize(
    "relations",
    [r.relations for r in _component_rows()] + [rels("x^2", "x*y", "x*z", "x^2 + x*y")],
    ids=[r.label for r in _component_rows()] + ["all-minors-zero"],
)
def test_residual_ideals_fix_their_chart(relations):
    # every branch left unenumerated names its chart: v_i = 0 for i < k and
    # v_k = 1; after its substitutions each minor lies in its residual ideal
    M = minors_ideal(k_matrix(relations))
    spec = M[0].spec
    res = solve_projective(M)
    assert not res.complete and res.residual_ideals
    for subs, gb in res.residual_ideals:
        assert any(
            all(subs.get(i) == (one(spec) if i == k else zero(spec)) for i in range(k + 1))
            for k in range(3)
        ), subs
        for m in M:
            for i, c in subs.items():
                m = m.substitute_value(i, c)
            assert reduce_poly(m, gb).is_zero()



def _commpoly(spec, terms):
    """A CommPoly in 3 variables from {monomial: (a, b)}, each coefficient a + b*sqrt(d)."""
    return CommPoly(3, spec, {m: Scalar(Fraction(a), Fraction(b), spec) for m, (a, b) in terms.items()})


def test_transcendental_coordinate_of_a_table_ideal():
    # a chart ideal of the degree-1 normal-element search on row 11/I3's dual:
    # its reduced basis shares (v1 + 1)((v1 - 1)^2 + v2^2), so v1 leads by a
    # pure power, yet is transcendental
    gb = [
        _commpoly(QQ, {(0, 3, 1): (1, 0), (0, 1, 3): (1, 0), (0, 2, 1): (-1, 0),
                       (0, 0, 3): (1, 0), (0, 1, 1): (-1, 0), (0, 0, 1): (1, 0)}),
        _commpoly(QQ, {(0, 4, 0): (1, 0), (0, 2, 2): (1, 0), (0, 1, 2): (2, 0),
                       (0, 2, 0): (-2, 0), (0, 0, 2): (1, 0), (0, 0, 0): (1, 0)}),
    ]
    assert buchberger(gb) == gb
    assert _common_factor_variables(gb) == {1, 2}
    # the certificate's answer, the slow way: no dependence within 40 powers
    assert _coordinate_min_poly(gb, 1, 3, QQ) is None
    r = eliminate_small(gb)
    assert not r.complete and r.solutions == [] and r.residual_ideals == [({}, gb)]
    assert r.residue.startswith("positive-dimensional component, GB leads: ")
    # a common factor in the branching variable alone decides nothing: x^2 - 1
    # still has its roots, and y stays free on both branches
    x2 = _commpoly(QQ, {(2, 0, 0): (1, 0), (0, 0, 0): (-1, 0)})
    r = eliminate_small([x2, x2 * _commpoly(QQ, {(0, 1, 0): (1, 0)})])
    assert r.residue == "positive-dimensional component alongside isolated points"
    assert [subs for subs, _ in r.residual_ideals] == [{0: Scalar.of(-1, QQ)}, {0: one(QQ)}]


_MONOS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]


def _polys(spec):
    b = st.just(0) if spec.is_rational else st.integers(-2, 2)
    coeff = st.tuples(st.integers(-3, 3), b).filter(lambda c: c != (0, 0))
    return st.dictionaries(st.sampled_from(_MONOS), coeff, min_size=1, max_size=3).map(
        lambda terms: _commpoly(spec, terms)
    )


def _to_sympy(p, gens):
    """p over Q or Q(i) as a sympy expression."""
    return sympy.Add(
        *(
            (sympy.Rational(c.a) + sympy.Rational(c.b) * sympy.I)
            * sympy.Mul(*(g**e for g, e in zip(gens, m)))
            for m, c in p.terms.items()
        )
    )


@given(data=st.data(), spec=st.sampled_from([QQ, QI]))
@settings(max_examples=30, deadline=None)
def test_common_factor_certificate_matches_lex_elimination(data, spec):
    # h * (random), with h = 1 half the time: common factors occur, and so do
    # ideals that meet k[var]
    h = data.draw(st.one_of(st.just(_commpoly(spec, {(0, 0, 0): (1, 0)})), _polys(spec)))
    polys = [h * r for r in data.draw(st.lists(_polys(spec), min_size=1, max_size=3))]
    gb = buchberger(polys)
    shared = _common_factor_variables(gb)
    gens = sympy.symbols("v0:3")
    exprs = [_to_sympy(p, gens) for p in polys]
    # the gcd is an invariant of the ideal: the basis and the input agree
    common = sympy.Poly(reduce(sympy.gcd, exprs), *gens)
    assert shared == {i for i, e in enumerate(common.degree_list()) if e > 0}
    for var in range(3):
        if not shared - {var}:
            continue
        # lex with var last: the basis meets k[var] in the elimination ideal
        order = [g for i, g in enumerate(gens) if i != var] + [gens[var]]
        lex = sympy.groebner(exprs, *order, order="lex", extension=True)
        assert not any(e.free_symbols <= {gens[var]} for e in lex.exprs)
