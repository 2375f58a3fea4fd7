"""Exact dense linear algebra over a fixed FieldSpec.

Matrices are lists of rows, rows are lists of Scalar.  Row reduction uses
plain Gaussian elimination with deterministic pivoting (leftmost column,
topmost row), so kernels and echelon forms are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import FieldMismatch, FieldSpec, Scalar, one, zero

Vector = list[Scalar]
Rows = list[Vector]


def zero_vector(n: int, spec: FieldSpec) -> Vector:
    return [zero(spec)] * n


def is_zero_vector(u: Vector) -> bool:
    return all(a.is_zero() for a in u)


def mat_vec(rows: Rows, v: Vector, spec: FieldSpec) -> Vector:
    out = []
    for row in rows:
        s = zero(spec)
        for a, b in zip(row, v, strict=True):
            if not a.is_zero() and not b.is_zero():
                s = s + a * b
        out.append(s)
    return out


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
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
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
            w = [a - c * b for a, b in zip(w, row)]
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


@dataclass
class LinearSolution:
    particular: Vector | None  # None when inconsistent
    kernel: Rows
    rank: int


def solve_linear(rows: Rows, rhs: Vector, spec: FieldSpec) -> LinearSolution:
    """Solve M x = rhs exactly; canonical particular solution has free vars 0."""
    if not rows:
        if any(not b.is_zero() for b in rhs):
            return LinearSolution(None, [], 0)
        return LinearSolution([], [], 0)
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug, spec)
    if ncols in pivots:
        return LinearSolution(None, kernel_basis(rows, ncols, spec), rank(rows, spec))
    x = zero_vector(ncols, spec)
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return LinearSolution(x, kernel_basis(rows, ncols, spec), len(pivots))


def in_span(rows: Rows, v: Vector, spec: FieldSpec) -> bool:
    """True iff v lies in the row space of rows."""
    if is_zero_vector(v):
        return True
    if not rows:
        return False
    base = rank(rows, spec)
    return rank(rows + [v], spec) == base


def span_equal(rows_a: Rows, rows_b: Rows, spec: FieldSpec) -> bool:
    ra = rank(rows_a, spec) if rows_a else 0
    rb = rank(rows_b, spec) if rows_b else 0
    if ra != rb:
        return False
    both = rank(rows_a + rows_b, spec) if (rows_a or rows_b) else 0
    return both == ra


def coords_in_basis(basis_rows: Rows, v: Vector, spec: FieldSpec) -> Vector | None:
    """Coordinates of v in the given (independent) row basis, or None."""
    if not basis_rows:
        return [] if is_zero_vector(v) else None
    cols = list(map(list, zip(*basis_rows)))  # transpose: columns are basis vectors
    sol = solve_linear(cols, v, spec)
    return sol.particular


def complete_to_basis(v: Vector, spec: FieldSpec) -> tuple[Rows, Rows]:
    """Complete a nonzero v to a basis B of k^n by the first unit vectors
    independent of it, v last; returns (B, C) where row k of C holds the
    coordinates of the k-th unit vector in B."""
    n = len(v)
    if is_zero_vector(v):
        raise ValueError("cannot complete the zero vector to a basis")
    units = [[one(spec) if i == k else zero(spec) for i in range(n)] for k in range(n)]
    B: Rows = []
    for e in units:
        if len(B) == n - 1:
            break
        if rank(B + [e, v], spec) == len(B) + 2:
            B.append(e)
    B.append(v)
    cols = list(map(list, zip(*B)))
    return B, [solve_linear(cols, e, spec).particular for e in units]
