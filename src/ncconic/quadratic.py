"""Quadratic algebra machinery: duals, dual elements, Koszul series check.

The relation space W of a quadratic presentation lives in the n^2-dimensional
span of the words x_i x_j (lexicographic (i,j) layout); the dual's relation
space is the orthogonal complement under <x_i x_j, x_k* x_l*> = delta_ik
delta_jl, with dual generators reusing the input names.  quadratic_dual and
dual_element are functions on a Presentation: they read W from its relations
(quad_vector applies the quadratic-input rule to each), and dependent or
repeated relations give the same answer, since the kernels are taken from an
echelon form.
"""

from __future__ import annotations

from .freealg import Ambient, MonomialOrder, NcPoly
from .galgebra import GradedAlgebra, Presentation
from .geometry import check_quadratic
from .linalg import in_span, is_zero_vector, kernel_basis, reduce_by_echelon, rref
from .scalars import Scalar, zero


class NotCodimensionOne(Exception):
    pass


def quad_vector(f: NcPoly) -> list[Scalar]:
    """Coefficient row of a purely quadratic polynomial in the x_i x_j basis."""
    check_quadratic([f])
    n = f.ambient.n
    v = [zero(f.ambient.spec)] * (n * n)
    for (i, j), c in f.terms.items():
        v[i * n + j] = c
    return v


def quad1_vector(w: NcPoly) -> list[Scalar]:
    """Coefficient row of a purely linear polynomial in the x_i basis."""
    v = [zero(w.ambient.spec)] * w.ambient.n
    for word, c in w.terms.items():
        if len(word) != 1:
            raise ValueError(f"{w} is not purely linear")
        v[word[0]] = c
    return v


def quad_poly(ambient: Ambient, v: list[Scalar]) -> NcPoly:
    n = ambient.n
    return NcPoly(
        ambient,
        {(k // n, k % n): c for k, c in enumerate(v) if not c.is_zero()},
    )


def quadratic_dual(P: Presentation) -> Presentation:
    amb = P.ambient
    perp = kernel_basis([quad_vector(r) for r in P.relations], amb.n * amb.n, amb.spec)
    label = P.label
    dual_label = label[:-1] if label.endswith("!") else (label + "!" if label else "")
    return Presentation(amb, [quad_poly(amb, v) for v in perp], dual_label)


def dual_element(S: Presentation, f: NcPoly) -> NcPoly:
    """The element f^! with (S+f)^! / (f^!) = S^!, monic, canonical modulo the
    dual's relation space."""
    amb = S.ambient
    spec = amb.spec
    ws = [quad_vector(r) for r in S.relations]
    fv = quad_vector(f)
    if in_span(ws, fv, spec):
        raise NotCodimensionOne(f"{f} lies in the span of the relations")
    n = amb.n
    perp_s = kernel_basis(ws, n * n, spec)
    perp_a = kernel_basis(ws + [fv], n * n, spec)
    if len(perp_a) != len(perp_s) - 1:
        raise NotCodimensionOne("dual relation spaces do not drop by exactly 1")
    red_a, pivots = rref(perp_a, spec)
    for v in perp_s:
        gap = reduce_by_echelon(v, red_a, pivots)
        if not is_zero_vector(gap):
            return quad_poly(amb, gap).monic(MonomialOrder.default(n))
    raise NotCodimensionOne("the dual relation space of S lies inside that of S + f")


def koszul_series_check(A: GradedAlgebra, dual: GradedAlgebra, D: int) -> bool:
    """Coefficientwise H_{A^!}(t) * H_A(-t) = 1 up to degree D."""
    ha = A.dims
    hd = dual.dims
    if len(ha) <= D or len(hd) <= D:
        raise ValueError("algebras not built far enough")
    for m in range(D + 1):
        s = sum((-1) ** i * ha[i] * hd[m - i] for i in range(m + 1))
        if s != (1 if m == 0 else 0):
            return False
    return True

