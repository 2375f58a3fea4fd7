"""Exact linear algebra over a fixed FieldSpec, skipping zero entries.

Matrices are lists of rows, rows are lists of Scalar.  Row reduction uses
plain Gaussian elimination with deterministic pivoting (leftmost column,
topmost row), so kernels and echelon forms are reproducible across runs;
a pivot row scales and eliminates only over its nonzero entries.  Each
question costs one reduction of its matrix; krylov_min_poly also takes
sparse vectors, for quotient rings without a fixed finite basis.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import TypeVar

from .scalars import FieldMismatch, FieldSpec, Scalar, one, zero

Vector = list[Scalar]
Rows = list[Vector]
V = TypeVar("V")


def zero_vector(n: int, spec: FieldSpec) -> Vector:
    return [zero(spec)] * n


def is_zero_vector(u: Vector) -> bool:
    return all(a.is_zero() for a in u)


def _check_spec(rows: Rows, spec: FieldSpec):
    for row in rows:
        for x in row:
            if x.spec != spec:
                raise FieldMismatch(f"{x.spec} vs {spec}")


def rref(rows: Rows, spec: FieldSpec) -> tuple[Rows, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if m:
        _check_spec(m, spec)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        # the pivot row is zero left of c: scale and eliminate on its support
        support = [j for j in range(c, ncols) if not prow[j].is_zero()]
        inv = prow[c].inverse()
        for j in support:
            prow[j] = prow[j] * inv
        for i in range(nrows):
            row = m[i]
            if i != r and not row[c].is_zero():
                f = row[c]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rank(rows: Rows, spec: FieldSpec) -> int:
    return len(rref(rows, spec)[0])


def reduce_by_echelon(v: Vector, red: Rows, pivots: list[int]) -> Vector:
    """v minus its combination of the rows of an rref (red, pivots): zero
    exactly on the pivot columns."""
    w = list(v)
    for row, pc in zip(red, pivots):
        c = w[pc]
        if not c.is_zero():
            for j in range(pc, len(row)):
                if not row[j].is_zero():
                    w[j] = w[j] - c * row[j]
    return w


def kernel_basis(rows: Rows, ncols: int, spec: FieldSpec) -> Rows:
    """Basis of {v : M v = 0}, echelonized, one vector per free column."""
    red, pivots = rref(rows, spec)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = zero_vector(ncols, spec)
        v[fc] = one(spec)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def solve_linear(rows: Rows, rhs: list[Vector], spec: FieldSpec) -> list[Vector | None]:
    """Solve M x = b exactly for each right-hand side b, by one rref of
    [M | b_1 ... b_k]; one canonical particular solution (free variables 0)
    per b, None where M x = b is inconsistent.

    Pivots are taken leftmost first, so the pivots in M do not depend on the
    right-hand sides, and a pivot outside M sits in a row that is zero on M.
    Column b_k is consistent iff it is zero in every such row; the rows with
    a pivot in M then carry its solution, as in the rref of [M | b_k] alone."""
    if not rows:
        return [[] if is_zero_vector(b) else None for b in rhs]
    if any(len(b) != len(rows) for b in rhs):
        raise ValueError("right-hand side length differs from the number of rows")
    ncols = len(rows[0])
    aug = [list(r) + [b[i] for b in rhs] for i, r in enumerate(rows)]
    red, pivots = rref(aug, spec)
    r0 = sum(1 for pc in pivots if pc < ncols)
    out: list[Vector | None] = []
    for k in range(ncols, ncols + len(rhs)):
        if any(not row[k].is_zero() for row in red[r0:]):
            out.append(None)
            continue
        x = zero_vector(ncols, spec)
        for i in range(r0):
            x[pivots[i]] = red[i][k]
        out.append(x)
    return out


def in_span(rows: Rows, v: Vector, spec: FieldSpec) -> bool:
    """True iff v lies in the row space of rows."""
    red, pivots = rref(rows, spec)
    return is_zero_vector(reduce_by_echelon(v, red, pivots))


def span_equal(rows_a: Rows, rows_b: Rows, spec: FieldSpec) -> bool:
    """True iff the two row spaces agree: their rrefs, which are canonical, are equal."""
    return rref(rows_a, spec)[0] == rref(rows_b, spec)[0]


def coords_in_basis(basis_rows: Rows, vs: list[Vector], spec: FieldSpec) -> list[Vector | None]:
    """Coordinates of each v in the given (independent) row basis, or None."""
    if not basis_rows:
        return [[] if is_zero_vector(v) else None for v in vs]
    cols = list(map(list, zip(*basis_rows)))  # transpose: columns are basis vectors
    return solve_linear(cols, vs, spec)


def complete_to_basis(v: Vector, spec: FieldSpec) -> tuple[Rows, Rows]:
    """Complete a nonzero v to a basis B of k^n by the first unit vectors
    independent of it, v last; returns (B, C) where row k of C holds the
    coordinates of the k-th unit vector in B."""
    n = len(v)
    if is_zero_vector(v):
        raise ValueError("cannot complete the zero vector to a basis")
    # columns v, e_0, ..., e_{n-1}: the pivot columns of the rref are v and the
    # first units independent of it, and column k+1 holds the coordinates of
    # e_k in those pivot columns
    units = [[one(spec) if i == k else zero(spec) for i in range(n)] for k in range(n)]
    red, pivots = rref([[v[i]] + units[i] for i in range(n)], spec)
    B = [units[c - 1] for c in pivots[1:]] + [v]
    return B, [[row[k + 1] for row in red[1:]] + [red[0][k + 1]] for k in range(n)]


def krylov_min_poly(
    v: V,
    step: Callable[[V], V],
    spec: FieldSpec,
    entries: Callable[[V], Iterable[tuple[Hashable, Scalar]]] = enumerate,
    cap: int | None = None,
) -> list[Scalar] | None:
    """Minimal polynomial of v under the linear map step: the monic p of least
    degree with p(step)(v) = 0, as coefficients from degree 0 up; None when
    no power up to degree cap is dependent.

    entries(u) lists the (coordinate, value) pairs of a vector, so sparse
    vectors over an open-ended set of mutually comparable coordinates work
    as well as dense lists.  Each new power is reduced against a triangular
    echelon (each row's pivot is its largest coordinate) whose rows record
    their combination of powers, so the first dependent power yields p."""
    z = zero(spec)
    echelon: dict[Hashable, tuple[dict, Vector]] = {}  # pivot -> (row, combination)
    power = v
    degree = 0
    while True:
        row = {k: c for k, c in entries(power) if not c.is_zero()}
        comb = [z] * degree + [one(spec)]
        while row and (pivot := max(row)) in echelon:
            c = row.pop(pivot)
            erow, ecomb = echelon[pivot]
            for k, rc in erow.items():
                nc = row.get(k, z) - c * rc
                if nc.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = nc
            for i, rc in enumerate(ecomb):
                if not rc.is_zero():
                    comb[i] = comb[i] - c * rc
        if not row:
            return comb
        inv = row.pop(pivot).inverse()
        echelon[pivot] = ({k: x * inv for k, x in row.items()}, [x * inv for x in comb])
        if degree == cap:
            return None
        power = step(power)
        degree += 1
