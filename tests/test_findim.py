import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from ncconic.findim import (
    FiniteAlgebra,
    NotFiniteDimensionalWithinBound,
    _quotient_algebra,
    _split_idempotents,
    center_basis,
    classify,
    from_presentation,
    invariants,
    is_frobenius,
    radical_basis,
)
from ncconic.freealg import Ambient, NcPoly
from ncconic.linalg import rank
from ncconic.presfile import parse_poly
from ncconic.scalars import FieldSpec, QI, QQ, Scalar, one, zero

AMB = Ambient(("x", "y"), QQ)
X, Y = NcPoly.generator(AMB, 0), NcPoly.generator(AMB, 1)
ONE = NcPoly.one(AMB)


def model(*texts, amb=AMB):
    return from_presentation(amb, [parse_poly(t, amb) for t in texts])


REFERENCE = [
    ("K4", ("x*y - y*x", "x^2 - 1", "y^2 - 1"), QQ),
    ("U2xK2", ("x*y - y*x", "x^2 - y - 1", "y^2 - 1"), FieldSpec(2)),
    ("U3xK", ("x*y - y*x", "x^2 - (2/3) sqrt(3) y - 1", "y^2 - (2/3) sqrt(3) x - 1"), FieldSpec(3)),
    ("U2xU2", ("x*y - y*x", "x^2", "y^2 - 1"), QQ),
    ("U4", ("x*y - y*x", "x^2", "y^2 - x"), QQ),
    ("U2V2-comm", ("x*y - y*x", "x^2", "y^2"), QQ),
    ("M2", ("x*y + y*x", "x^2 + 1", "y^2 + 1"), QI),
    ("B-class", ("x*y + y*x", "x^2 - 1", "y^2"), QQ),
    ("C-class", ("x*y + y*x", "x^2 + y*x", "y^2"), QQ),
    ("D-class", ("x*y + y*x", "x^2", "y^2"), QQ),
    ("E-class", ("x*y - 2 y*x", "x^2", "y^2"), QQ),
]


def test_from_presentation_examples():
    E = model("x*y - y*x", "x^2 - 1", "y^2 - 1")
    assert E.dim == 4
    assert E.labels == ["1", "x", "y", "x*y"]
    amb1 = Ambient(("x",), QQ)
    t = NcPoly.generator(amb1, 0)
    assert from_presentation(amb1, [t * t]).dim == 2
    C = model("x*y + y*x", "x^2 + y*x", "y^2")
    assert C.dim == 4


def test_from_presentation_infinite(monkeypatch):
    monkeypatch.setattr("ncconic.findim.FINITE_BOUND", 6)
    with pytest.raises(NotFiniteDimensionalWithinBound, match="bound 6"):
        from_presentation(AMB, [X * Y - Y * X, X * X])
    monkeypatch.undo()
    with pytest.raises(NotFiniteDimensionalWithinBound, match="bound 8"):
        from_presentation(AMB, [X * Y - Y * X, X * X])


def test_is_frobenius():
    K4 = model("x*y - y*x", "x^2 - 1", "y^2 - 1")
    assert is_frobenius(K4) is True
    bad = model("x*y - y*x", "x^2", "x*y", "y^2")
    assert bad.dim == 3
    assert is_frobenius(bad) is False
    M2 = model("x*y + y*x", "x^2 + 1", "y^2 + 1", amb=Ambient(("x", "y"), QI))
    assert is_frobenius(M2) is True


def test_invariants_examples():
    amb1 = Ambient(("u",), QQ)
    u = NcPoly.generator(amb1, 0)
    U4 = from_presentation(amb1, [u * u * u * u])
    inv = invariants(U4)
    assert inv.commutative and inv.radical_dims == (3, 2, 1)
    M2 = model("x*y + y*x", "x^2 + 1", "y^2 + 1", amb=Ambient(("x", "y"), QI))
    invm = invariants(M2)
    assert not invm.commutative and invm.radical_dims == (0, 0, 0)
    assert invm.block_dims == [4] and invm.blocks_split
    B = model("x*y + y*x", "x^2 - 1", "y^2")
    invb = invariants(B)
    assert invb.radical_dims == (2, 0, 0) and invb.block_dims == [1, 1]


def test_radical_is_two_sided_and_nilpotent():
    for label, texts, spec in REFERENCE:
        amb = Ambient(("x", "y"), spec)
        A = model(*texts, amb=amb)
        inv = invariants(A)
        J = inv.radical_basis
        for v in J:
            for b in range(A.dim):
                left = A.mul(A.basis_vector(b), v)
                right = A.mul(v, A.basis_vector(b))
                if J:
                    assert rank(J + [left], spec) == len(J)
                    assert rank(J + [right], spec) == len(J)
        # J^4 = 0 in dimension 4
        prod = J
        for _ in range(3):
            prod = [A.mul(u, v) for u in prod for v in J]
        assert all(all(c.is_zero() for c in v) for v in prod)


def test_classify_reference_presentations():
    for label, texts, spec in REFERENCE:
        amb = Ambient(("x", "y"), spec)
        A = model(*texts, amb=amb)
        got = classify(A)
        assert got.label == label, f"{texts}: {got}"
        assert is_frobenius(A)
    # lambda pair bookkeeping
    for lam in (2, 3, Fraction(-1, 2)):
        amb = Ambient(("x", "y"), QQ)
        x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
        E = from_presentation(amb, [x * y - (y * x).scale(Scalar.of(lam, QQ)), x * x, y * y])
        got = classify(E)
        assert got.label == "E-class"
        pair = {(c.a, c.b) for c in got.lam}
        assert pair == {(Fraction(lam), Fraction(0)), (1 / Fraction(lam), Fraction(0))}


def _random_basis_change(A: FiniteAlgebra, rng: random.Random) -> FiniteAlgebra:
    from ncconic.linalg import coords_in_basis, rank as _rank

    spec = A.spec
    n = A.dim
    while True:
        M = [[Scalar.of(rng.randint(-3, 3), spec) for _ in range(n)] for _ in range(n)]
        if _rank(M, spec) == n:
            break
    # new basis vectors e'_a = sum M[a][b] e_b; transport the table
    basis = M

    def to_new(v):
        return coords_in_basis(basis, [v], spec)[0]

    table = []
    for a in range(n):
        row = []
        for b in range(n):
            row.append(to_new(A.mul(basis[a], basis[b])))
        table.append(row)
    unit = to_new(A.unit)
    return FiniteAlgebra(spec, [f"b{k}" for k in range(n)], table, unit)


def _dense_mul(table, spec, u, v):
    n = len(table)
    out = [zero(spec)] * n
    for a in range(n):
        for b in range(n):
            for k in range(n):
                out[k] = out[k] + u[a] * v[b] * table[a][b][k]
    return out


def _first_nonassociative_triple(table, spec):
    n = len(table)
    e = [[one(spec) if i == k else zero(spec) for i in range(n)] for k in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = _dense_mul(table, spec, table[a][b], e[c])
                right = _dense_mul(table, spec, e[a], table[b][c])
                if left != right:
                    return a, b, c
    return None


def test_sparse_products_match_dense_reference():
    rng = random.Random(7)
    for label, texts, spec in REFERENCE:
        A = model(*texts, amb=Ambient(("x", "y"), spec))
        for B in (A, _random_basis_change(A, rng)):
            n = B.dim
            vectors = [B.basis_vector(k) for k in range(n)] + [
                [Scalar.of(rng.choice([0, 0, 1, -2, 3]), spec) for _ in range(n)] for _ in range(2)
            ]
            for u in vectors:
                for v in vectors:
                    assert B.mul(u, v) == _dense_mul(B.table, spec, u, v), label
                assert B.left_mult_matrix(u) == [
                    _dense_mul(B.table, spec, u, B.basis_vector(b)) for b in range(n)
                ], label


def test_construction_rejects_bad_tables():
    A = model("x*y - y*x", "x^2 - 1", "y^2 - 1")  # basis 1, x, y, x*y
    # x*x = 1 + x instead of 1: the unit laws still hold, associativity does not
    table = [[list(v) for v in row] for row in A.table]
    table[1][1][1] = table[1][1][1] + one(QQ)
    want = _first_nonassociative_triple(table, QQ)
    assert want is not None
    with pytest.raises(ValueError, match=rf"^associativity fails at \({want[0]},{want[1]},{want[2]}\)$"):
        FiniteAlgebra(QQ, A.labels, table, A.unit)
    with pytest.raises(ValueError, match="^unit laws fail$"):
        FiniteAlgebra(QQ, A.labels, A.table, A.basis_vector(1))


def test_validation_skips_zero_structure_constants(monkeypatch):
    # k^4 in its basis of orthogonal idempotents: 4 nonzero structure
    # constants; the dense check made 80 Scalar multiplications
    n = 4
    e = [[one(QQ) if i == k else zero(QQ) for i in range(n)] for k in range(n)]
    table = [[e[a] if a == b else [zero(QQ)] * n for b in range(n)] for a in range(n)]
    count = 0
    mul = Scalar.__mul__

    def counted(s, o):
        nonlocal count
        count += 1
        return mul(s, o)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    A = FiniteAlgebra(QQ, [f"e{k}" for k in range(n)], table, [one(QQ)] * n)
    assert A.is_commutative()
    assert count <= 20


def test_classify_invariant_under_basis_change():
    rng = random.Random(20260810)
    for label, texts, spec in REFERENCE:
        amb = Ambient(("x", "y"), spec)
        A = model(*texts, amb=amb)
        want = classify(A)
        for _ in range(20):
            B = _random_basis_change(A, rng)
            got = classify(B)
            assert got.label == want.label
            if want.lam is not None:
                assert got.lam == want.lam


def test_signature_unmatched_is_loud():
    # a 4-dim commutative Frobenius algebra whose blocks split into [2,2]
    # over Q but whose radical dims identify K4 still classifies as K4;
    # a genuinely non-listed signature raises.  k[x]/(x^4 - 2) is a field:
    # radical 0, one block of dim 4, unsplit: still K4 by dims over closure.
    amb1 = Ambient(("u",), QQ)
    u = NcPoly.generator(amb1, 0)
    two = NcPoly.scalar(amb1, 2)
    F = from_presentation(amb1, [u * u * u * u - two])
    assert classify(F).label == "K4"
    # splitting mismatch must be loud: blocks [1,2] split cannot be U2xK2 ->
    # build k x Q(sqrt2) as structure constants directly over Q(sqrt 2):
    # there the field splits and blocks come out right, so classify passes;
    # the loud path is exercised through dimension mismatch instead
    amb2 = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb2, 0), NcPoly.generator(amb2, 1)
    with pytest.raises(Exception):
        classify(from_presentation(amb2, [x * y - y * x, x * x, y * y, x * y]))  # dim 3


# -- independent oracles for is_frobenius and _split_idempotents ------------------

NON_FROBENIUS = [
    ("x*y - y*x", "x^2", "x*y", "y^2"),  # k[x,y]/(x,y)^2, dim 3
    ("x*y - y*x", "x^2", "x*y", "y^3"),  # dim 4, socle spanned by x and y^2
    ("x*y", "y*x", "x^2", "y^3"),  # dim 4, socle spanned by x and y^2
]


@cache
def _oracle_models() -> tuple[FiniteAlgebra, ...]:
    refs = [model(*texts, amb=Ambient(("x", "y"), spec)) for _, texts, spec in REFERENCE]
    bad = [model(*texts) for texts in NON_FROBENIUS]
    assert [A.dim for A in bad] == [3, 4, 4]
    return tuple(refs + bad)


def _frobenius_on_simplex_grid(A: FiniteAlgebra) -> bool:
    """Some phi at a point of {0..N}^N with coordinates summing to N has a Gram
    matrix phi(e_a e_b) of full rank.  det is a form of degree N in phi, and
    a nonzero form of degree N does not vanish on all of these points (they
    are unisolvent for degree-N forms), so this decides Frobenius exactly."""
    N, spec = A.dim, A.spec
    for point in itertools.product(range(N + 1), repeat=N):
        if sum(point) != N:
            continue
        phi = [Scalar.of(p, spec) for p in point]
        gram = [
            [sum((x * p for x, p in zip(A.table[a][b], phi)), zero(spec)) for b in range(N)]
            for a in range(N)
        ]
        if rank(gram, spec) == N:
            return True
    return False


@given(index=st.integers(0, len(REFERENCE) + len(NON_FROBENIUS) - 1), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_is_frobenius_matches_gram_rank_oracle(index, seed):
    A = _oracle_models()[index]
    B = _random_basis_change(A, random.Random(seed))
    want = index < len(REFERENCE)
    assert _frobenius_on_simplex_grid(B) is want
    assert is_frobenius(B) is want


def _u_quotient(texts: str, spec: FieldSpec) -> FiniteAlgebra:
    return model(texts, amb=Ambient(("u",), spec))


@cache
def _semisimple_models() -> tuple[FiniteAlgebra, ...]:
    out = []
    for _, texts, spec in REFERENCE:
        A = model(*texts, amb=Ambient(("x", "y"), spec))
        out.append(_quotient_algebra(A, radical_basis(A))[0])
    # u^4 - 1 = (u - 1)(u + 1)(u^2 + 1) does not split over Q or Q(sqrt 2);
    # over Q(i) it splits into four points
    for spec in (QQ, FieldSpec(2), QI):
        out.append(_u_quotient("u^4 - 1", spec))
    return tuple(out)


def _assert_idempotent_decomposition(A: FiniteAlgebra):
    spec = A.spec
    idems, split = _split_idempotents(A)
    total = [zero(spec)] * A.dim
    for i, e in enumerate(idems):
        assert any(not c.is_zero() for c in e)
        for j, f in enumerate(idems):
            assert A.mul(e, f) == (e if i == j else [zero(spec)] * A.dim)
        total = [a + b for a, b in zip(total, e)]
    assert total == A.unit
    if split:
        for z in center_basis(A):
            for e in idems:
                assert rank([e, A.mul(z, e)], spec) == 1  # z e = lambda e
    return idems, split


@given(index=st.integers(0, len(REFERENCE) + 2), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_split_idempotents_are_orthogonal_eigen_pieces(index, seed):
    A = _semisimple_models()[index]
    _assert_idempotent_decomposition(_random_basis_change(A, random.Random(seed)))


def test_split_idempotents_u4_minus_1():
    # over Q and Q(sqrt 2): the points u = 1 and u = -1, and the field Q(i) or
    # Q(sqrt 2, i), which u^2 + 1 leaves unsplit
    for spec, pieces, split in ((QQ, 3, False), (FieldSpec(2), 3, False), (QI, 4, True)):
        idems, got = _assert_idempotent_decomposition(_u_quotient("u^4 - 1", spec))
        assert (len(idems), got) == (pieces, split)
