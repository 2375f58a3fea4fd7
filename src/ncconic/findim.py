"""Finite-dimensional algebras by structure constants, and the 4-dimensional
Frobenius classification.

The classifier matches a signature derived from exact linear algebra:
commutativity, radical filtration dims (Dickson's trace criterion in char 0),
semisimple block structure via idempotent splitting, and for the radical-cube
family the square-zero quadratic form on J/J^2 whose discriminant separates
the three shapes and carries the twist parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import Ambient, NcPoly, UsageError, Word, _format_word
from .geometry import CommPoly, pool_minors, univariate_roots
from .linalg import (
    Rows,
    Vector,
    coords_in_basis,
    in_span,
    kernel_basis,
    krylov_min_poly,
    rank,
    reduce_by_echelon,
    rref,
)
from .rewrite import UnitIdeal, complete, graded_basis, normal_form
from .scalars import FieldSpec, Scalar, one, zero


class NotFiniteDimensionalWithinBound(Exception):
    pass


class NotFourDimensional(Exception):
    pass


class NotFrobenius(Exception):
    pass


class SignatureUnmatched(Exception):
    pass


@dataclass(frozen=True)
class FrobeniusClass:
    label: str  # K4, U2xK2, U2xU2, U3xK, U4, U2V2-comm, M2, B-class, C-class, D-class, E-class
    lam: tuple[Scalar, Scalar] | None = None  # {lambda, lambda^{-1}} for E-class

    def __str__(self):
        if self.lam is None:
            return self.label
        return f"{self.label}({self.lam[0]},{self.lam[1]})"


class FiniteAlgebra:
    """dim-N algebra: table[a][b] is the coordinate vector of e_a * e_b, and
    sparse[a][b] lists its nonzero (k, c) pairs.  Products read only the
    sparse form.  Associativity and the unit laws are verified exactly on
    construction."""

    def __init__(self, spec: FieldSpec, labels: list[str], table: list[list[Vector]], unit: Vector):
        self.spec = spec
        self.labels = labels
        self.table = table
        self.unit = unit
        self.dim = len(labels)
        self._zero = zero(spec)
        self.sparse = [
            [tuple((k, c) for k, c in enumerate(v) if not c.is_zero()) for v in row]
            for row in table
        ]
        self._validate()
        self._frobenius: bool | None = None  # is_frobenius memo

    def _combine(self, terms) -> Vector:
        """sum of c * r over the (c, r) in terms, each r a sparse row."""
        acc: dict[int, Scalar] = {}
        for c, r in terms:
            for k, t in r:
                p = c * t
                acc[k] = acc[k] + p if k in acc else p
        out = [self._zero] * self.dim
        for k, x in acc.items():
            out[k] = x
        return out

    def _validate(self):
        """(e_a e_b) e_c = e_a (e_b e_c) for every triple, and u e_a = e_a u =
        e_a, each side a combination of sparse rows."""
        n, T = self.dim, self.sparse
        u = [(x, ux) for x, ux in enumerate(self.unit) if not ux.is_zero()]
        for a in range(n):
            ea = self.basis_vector(a)
            ua = self._combine((ux, T[x][a]) for x, ux in u)
            au = self._combine((ux, T[a][x]) for x, ux in u)
            if ua != ea or au != ea:
                raise ValueError("unit laws fail")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    left = self._combine((t, T[k][c]) for k, t in T[a][b])
                    right = self._combine((t, T[a][j]) for j, t in T[b][c])
                    if left != right:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")

    def basis_vector(self, a: int) -> Vector:
        return [one(self.spec) if i == a else zero(self.spec) for i in range(self.dim)]

    def mul(self, u: Vector, v: Vector) -> Vector:
        T = self.sparse
        nz_v = [(b, vb) for b, vb in enumerate(v) if not vb.is_zero()]
        return self._combine(
            (ua * vb, T[a][b])
            for a, ua in enumerate(u)
            if not ua.is_zero()
            for b, vb in nz_v
        )

    def is_commutative(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a] for a in range(self.dim) for b in range(self.dim)
        )

    def left_mult_matrix(self, u: Vector) -> Rows:
        """Rows are images of basis vectors under left multiplication by u."""
        nz_u = [(a, ua) for a, ua in enumerate(u) if not ua.is_zero()]
        return [self._combine((ua, self.sparse[a][b]) for a, ua in nz_u) for b in range(self.dim)]

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dim}, labels={self.labels})"


# -- construction from an inhomogeneous presentation -----------------------------


FINITE_BOUND = 8  # the longest completion horizon from_presentation tries


def from_presentation(amb: Ambient, relations: list[NcPoly]) -> FiniteAlgebra:
    """Finite-dimensional quotient of the free algebra on amb at desk scale: complete
    the relations to a rewrite system with subword reduction (overlap closure
    bounded by the word-length horizon), read off the reduced words, and take
    structure constants by normal form.  The reduced-word set must fit in the
    lower half of the horizon so that products of basis words reduce inside
    the verified range; associativity and the unit laws are then checked
    exactly."""
    maxdeg = max((r.degree() for r in relations), default=0)
    spec = amb.spec
    last_err = "no horizon tried"
    for L in range(max(2 * maxdeg, 4), FINITE_BOUND + 1):
        try:
            rs = complete(amb, relations, L)
        except UnitIdeal:
            raise NotFiniteDimensionalWithinBound("presentation collapses to the zero ring") from None
        if rs.confluent_up_to < L:
            last_err = f"completion overflowed horizon {L}"
            continue
        basis: list[Word] = []
        too_big = False
        for d in range(L + 1):
            layer = graded_basis(rs, d)
            if layer and 2 * d > L:
                too_big = True
                break
            basis.extend(layer)
        if too_big:
            last_err = f"reduced words exceed half the horizon {L}"
            continue
        index = {w: i for i, w in enumerate(basis)}

        def red_vec(w1: Word, w2: Word) -> Vector:
            nf = normal_form(rs, NcPoly.monomial(amb, w1 + w2))
            v = [zero(spec)] * len(basis)
            for w, c in nf.terms.items():
                v[index[w]] = c
            return v

        table = [[red_vec(a, b) for b in basis] for a in basis]
        unit = [zero(spec)] * len(basis)
        unit[index[()]] = one(spec)
        labels = [_format_word(amb, w) for w in basis]
        return FiniteAlgebra(spec, labels, table, unit)
    raise NotFiniteDimensionalWithinBound(f"{last_err} (bound {FINITE_BOUND})")


# -- Frobenius form existence ------------------------------------------------------


def is_frobenius(A: FiniteAlgebra) -> bool:
    """Existence of phi with det(phi(e_a e_b))_ab != 0: true exactly when that
    determinant, expanded symbolically in the phi coordinates, is a nonzero
    polynomial (a nonzero polynomial over an infinite field has a nonzero
    value, so no witness point is needed).  Computed once per algebra."""
    if A._frobenius is None:
        A._frobenius = _frobenius_form(A)
    return A._frobenius


def _frobenius_form(A: FiniteAlgebra) -> bool:
    N = A.dim
    if N > 8:
        raise UsageError(f"is_frobenius implemented for dim <= 8 (got {N})")
    spec = A.spec
    # entries G[a][b] = sum_c table[a][b][c] * phi_c, linear CommPolys in phi
    entries = [[CommPoly.linear(A.table[a][b], spec) for b in range(N)] for a in range(N)]
    det = pool_minors(entries, [tuple(range(N))])[0]  # det of the transpose
    return not det.is_zero()


# -- invariants and classification ---------------------------------------------------


@dataclass
class AlgebraInvariants:
    commutative: bool
    radical_dims: tuple[int, int, int]  # dims of J, J^2, J^3
    block_dims: list[int]  # dims of the blocks of A/J (sorted)
    blocks_split: bool  # False when idempotent splitting hit a field obstruction
    radical_basis: Rows
    j2_basis: Rows


def _product_span(A: FiniteAlgebra, left: Rows, right: Rows) -> Rows:
    prods = [A.mul(u, v) for u in left for v in right]
    red, _ = rref(prods, A.spec)
    return red


def radical_basis(A: FiniteAlgebra) -> Rows:
    """x in J iff trace(L_{x e_a}) = 0 for all a (char 0 trace criterion)."""
    spec = A.spec
    N = A.dim
    trL = []
    for b in range(N):
        rowsm = A.left_mult_matrix(A.basis_vector(b))
        trL.append(sum((rowsm[i][i] for i in range(N)), zero(spec)))
    sys_rows = []
    for a in range(N):
        row = []
        for c in range(N):
            prod = A.table[c][a]
            row.append(sum((prod[b] * trL[b] for b in range(N)), zero(spec)))
        sys_rows.append(row)
    ker = kernel_basis(sys_rows, N, spec)
    red, _ = rref(ker, spec)
    return red


def center_basis(A: FiniteAlgebra) -> Rows:
    spec = A.spec
    N = A.dim
    rows = []
    for c in range(N):
        col = []
        for b in range(N):
            diff = [
                x - y
                for x, y in zip(A.table[c][b], A.table[b][c], strict=True)
            ]
            col.extend(diff)
        rows.append(col)
    ker = kernel_basis(list(map(list, zip(*rows))), N, spec)
    red, _ = rref(ker, spec)
    return red


def _quotient_algebra(A: FiniteAlgebra, ideal: Rows) -> tuple["FiniteAlgebra", list[Vector]]:
    """A/ideal with a section; returns (quotient, lifts of the quotient basis)."""
    spec = A.spec
    N = A.dim
    red, pivots = rref(ideal, spec)
    pivot_set = set(pivots)
    free = [c for c in range(N) if c not in pivot_set]

    def project(v: Vector) -> Vector:
        w = reduce_by_echelon(v, red, pivots)
        return [w[c] for c in free]

    lifts = [A.basis_vector(c) for c in free]
    table = [[project(A.mul(u, v)) for v in lifts] for u in lifts]
    unit = project(A.unit)
    labels = [A.labels[c] for c in free]
    return FiniteAlgebra(spec, labels, table, unit), lifts


def _split_idempotents(A: FiniteAlgebra) -> tuple[list[Vector], bool]:
    """Orthogonal idempotent decomposition of unity in a (semisimple) algebra
    through minimal polynomials of central elements; returns (idempotents,
    fully_split over the field).

    One pass over a basis of the center: each piece e is cut along the
    distinct roots of the minimal polynomial of t0 e on eAe.  When that
    polynomial does not split over the field, e stays whole and split is
    False.  When every polynomial splits, each piece after the pass is a joint
    eigen-piece of every central basis element, so a second pass would find
    at most one root on each piece and change nothing."""
    spec = A.spec
    idems = [A.unit]
    split = True
    for t0 in center_basis(A):
        new_idems: list[Vector] = []
        for e in idems:
            t = A.mul(e, t0)
            # minimal polynomial of t acting on e*A*e (Krylov from e)
            coeffs = krylov_min_poly(e, lambda u: A.mul(u, t), spec)
            roots, f_split = univariate_roots(coeffs, spec)
            if not f_split:
                split = False
            if not f_split or len(roots) <= 1:
                new_idems.append(e)
                continue
            # split e along the distinct eigenvalues: e_r = prod_{s != r} (t - s e)/(r - s)
            for r in roots:
                er = e
                for s in roots:
                    if (s - r).is_zero():
                        continue
                    factor_vec = [(a - s * b) for a, b in zip(t, e, strict=True)]
                    er = A.mul(er, [c * (r - s).inverse() for c in factor_vec])
                new_idems.append(er)
        idems = new_idems
    return idems, split


def invariants(A: FiniteAlgebra) -> AlgebraInvariants:
    spec = A.spec
    J = radical_basis(A)
    J2 = _product_span(A, J, J)
    J3 = _product_span(A, J2, J)
    quot, _ = _quotient_algebra(A, J)
    idems, split = _split_idempotents(quot)
    block_dims = []
    for e in idems:
        prods = [quot.mul(quot.mul(e, quot.basis_vector(b)), e) for b in range(quot.dim)]
        block_dims.append(rank(prods, spec))
    return AlgebraInvariants(
        commutative=A.is_commutative(),
        radical_dims=(len(J), len(J2), len(J3)),
        block_dims=sorted(block_dims),
        blocks_split=split,
        radical_basis=J,
        j2_basis=J2,
    )


def _square_zero_form(A: FiniteAlgebra, inv: AlgebraInvariants):
    """Quadratic form q(al, be) with q = coef of (al*u + be*v)^2 in the
    1-dimensional J^2 (well-defined mod J^3 = 0 here)."""
    spec = A.spec
    J, J2 = inv.radical_basis, inv.j2_basis
    # basis of J/J^2: members of J independent mod J^2
    lifts = []
    for v in J:
        if not in_span(J2 + lifts, v, spec):
            lifts.append(v)
    if len(lifts) != 2 or len(J2) != 1:
        raise SignatureUnmatched(f"dim J/J^2 = {len(lifts)}, dim J^2 = {len(J2)} (need 2, 1)")
    g = J2[0]

    def in_g(*vs: Vector) -> list[Scalar]:
        cs = coords_in_basis([g], list(vs), spec)
        if any(c is None for c in cs):
            raise SignatureUnmatched("a product of radical elements leaves J^2")
        return [c[0] for c in cs]

    u, v = lifts
    uv_vu = [a + b for a, b in zip(A.mul(u, v), A.mul(v, u), strict=True)]
    qa, qb, qc = in_g(A.mul(u, u), uv_vu, A.mul(v, v))
    return (qa, qb, qc), (u, v), g, in_g


_BLOCKS = {
    "K4": [1, 1, 1, 1],
    "U2xK2": [1, 1, 1],
    "U2xU2": [1, 1],
    "U3xK": [1, 1],
    "U4": [1],
    "U2V2-comm": [1],
    "M2": [4],
    "B-class": [1, 1],
    "C-class": [1],
    "D-class": [1],
    "E-class": [1],
}


def _blocks_consistent(label: str, inv: AlgebraInvariants):
    """The radical filtration identifies the class over the algebraic closure
    (the radical commutes with base change in characteristic 0); the block
    structure is re-checked whenever the instance field splits the semisimple
    quotient, and an actual split mismatch is loud."""
    if inv.blocks_split and inv.block_dims != _BLOCKS[label]:
        raise SignatureUnmatched(
            f"{label} expects blocks {_BLOCKS[label]}, computed {inv.block_dims} (split)"
        )


def classify(A: FiniteAlgebra) -> FrobeniusClass:
    if A.dim != 4:
        raise NotFourDimensional(f"dim {A.dim} != 4")
    if not is_frobenius(A):
        raise NotFrobenius("no nondegenerate associative form exists")
    inv = invariants(A)
    dj, dj2, dj3 = inv.radical_dims
    if inv.commutative:
        by_dims = {
            (0, 0, 0): "K4",
            (1, 0, 0): "U2xK2",
            (2, 0, 0): "U2xU2",
            (2, 1, 0): "U3xK",
            (3, 2, 1): "U4",
            (3, 1, 0): "U2V2-comm",
        }
        label = by_dims.get((dj, dj2, dj3))
        if label is None:
            raise SignatureUnmatched(f"commutative signature {inv.radical_dims}")
        _blocks_consistent(label, inv)
        return FrobeniusClass(label)
    if dj == 0:
        _blocks_consistent("M2", inv)
        return FrobeniusClass("M2")
    if (dj, dj2, dj3) == (2, 0, 0):
        _blocks_consistent("B-class", inv)
        return FrobeniusClass("B-class")
    if (dj, dj2, dj3) == (3, 1, 0):
        _blocks_consistent("C-class", inv)  # C/D/E share the block shape
        (qa, qb, qc), (u, v), g, in_g = _square_zero_form(A, inv)
        spec = A.spec
        if qa.is_zero() and qb.is_zero() and qc.is_zero():
            return FrobeniusClass("D-class")
        disc = qb * qb - Scalar.of(4, spec) * qa * qc
        if disc.is_zero():
            return FrobeniusClass("C-class")
        # two square-zero directions: solve qa t^2 + qb t + qc = 0 (dir = t*u + v)
        dirs: list[Vector] = []
        roots, split = univariate_roots([qc, qb, qa], spec)
        for r in roots:
            dirs.append([r * a + b for a, b in zip(u, v, strict=True)])
        if qa.is_zero():
            dirs.append(u)  # the direction at infinity (be = 0)
        if len(dirs) != 2:
            raise SignatureUnmatched(
                f"square-zero form does not split over {spec} (disc {disc})"
            )
        w1, w2 = dirs
        m1, m2 = in_g(A.mul(w1, w2), A.mul(w2, w1))
        if m1.is_zero() or m2.is_zero():
            raise SignatureUnmatched("degenerate products of square-zero directions")
        mu = m1 / m2
        pair = sorted([mu, mu.inverse()], key=lambda s: (s.a, s.b))
        return FrobeniusClass("E-class", (pair[0], pair[1]))
    raise SignatureUnmatched(f"noncommutative signature {inv.radical_dims}")
