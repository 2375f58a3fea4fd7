"""Central, normal and regular elements of presented graded algebras.

normalize_check solves x_i w = w nu(x_i) for the normalizing matrix nu and
also requires the mirror inclusion w x_i in A_1 w, so a certificate witnesses
the two-sided equality A_1 w = w A_1 in degree deg(w)+1, hence A_e w = w A_e
in every degree.  For such w the ideal (w) is w A, so regularity up to the
truncation is one test, the quotient Hilbert identity H_{A/(w)} = (1 - t^d) H_A
(galgebra.hilbert_drop): it fails exactly in the degrees m where w has an
annihilator of degree m - d, and left and right annihilators occur together.
No truncated prefix sees past the truncation, so regularity_check keeps the
dual-quotient certificate, which decides degree-1 elements of conic duals in
all degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .freealg import NcPoly, UsageError
from .galgebra import GradedAlgebra, hilbert_drop
from .geometry import CommPoly, SolveResult, pool_minors, projective_charts, reduce_poly
from .linalg import complete_to_basis, kernel_basis, rank, rref, solve_linear
from .quadratic import quad1_vector
from .rewrite import DegreeExceedsTruncation
from .scalars import Scalar, one, zero


class UnsupportedDimension(UsageError):
    """The degree-1 search, and compute_C, handle only algebras on 3
    generators with dim A_2 = dim A_3 = 4."""


@dataclass
class NormalCertificate:
    w: NcPoly
    nu: list[list[Scalar]]
    central: bool
    regular: str = "unknown"  # "yes" | "no" | "unknown"
    evidence: dict = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return self.w.degree()


def center_degree(A: GradedAlgebra, d: int) -> list[NcPoly]:
    """Echelonized basis of Z(A)_d = {f : x_i f = f x_i for all i}."""
    if d + 1 > A.truncation:
        raise DegreeExceedsTruncation(f"need degree {d + 1} <= {A.truncation}")
    amb = A.ambient
    spec = amb.spec
    basis_d = A.basis(d)
    dim_next = A.dim(d + 1)
    rows = []
    for w in basis_d:
        col = []
        wp = NcPoly.monomial(amb, w)
        for i in range(amb.n):
            xi = NcPoly.generator(amb, i)
            diff = A.coords(xi * wp - wp * xi, d + 1)
            col.extend(diff)
        rows.append(col)
    ker = kernel_basis(list(map(list, zip(*rows))), len(basis_d), spec)
    red, _ = rref(ker, spec)
    return [A.from_coords(v, d) for v in red]


def normalize_check(A: GradedAlgebra, w: NcPoly) -> NormalCertificate | None:
    """Certificate that w is normal (None when not).  nu solves
    x_i w = w sum_j nu[i][j] x_j; central elements get nu = identity."""
    if w.is_zero() or not w.is_homogeneous():
        raise UsageError("w must be homogeneous and nonzero")
    d = w.degree()
    if d + 1 > A.truncation:
        raise DegreeExceedsTruncation(f"need degree {d + 1} <= {A.truncation}")
    amb = A.ambient
    spec = amb.spec
    n = amb.n
    wn = A.nf(w)
    if wn.is_zero():
        raise UsageError("w is zero in the algebra")
    gens = [NcPoly.generator(amb, i) for i in range(n)]
    right = [A.coords(wn * g, d + 1) for g in gens]  # w x_j
    left = [A.coords(g * wn, d + 1) for g in gens]  # x_i w
    # centrality is decided directly, then nu := identity is a valid solution
    if all(
        all((a - b).is_zero() for a, b in zip(left[i], right[i], strict=True)) for i in range(n)
    ):
        nu = [[one(spec) if i == j else zero(spec) for j in range(n)] for i in range(n)]
        return NormalCertificate(wn, nu, central=True)
    cols = list(map(list, zip(*right)))  # matrix with columns w x_j
    nu = solve_linear(cols, left, spec)
    if any(row is None for row in nu):
        return None
    # mirror inclusion: w x_j in span{x_i w}
    if any(x is None for x in solve_linear(list(map(list, zip(*left))), right, spec)):
        return None
    return NormalCertificate(wn, nu, central=False)


def _conic_dual_quotient_cert(A: GradedAlgebra, wn: NcPoly) -> tuple[bool, str]:
    """Degree-1 regularity certificate for duals of conics: the quadratic
    quotient by w must dualize to a single relation a x^2 + b xy + c yx + d y^2
    with ad != bc."""
    spec = A.ambient.spec
    n = A.ambient.n
    # C: coordinates of the old generators in a basis (b1, b2, w)
    _, C = complete_to_basis(quad1_vector(wn), spec)
    # project each quadratic relation to the (b1, b2) block
    proj_rows = []
    for r in A.presentation.relations:
        if r.degree() != 2:
            return False, "ambient is not quadratic"
        out = [zero(spec)] * 4
        for (i, j), c in r.terms.items():
            for m in range(n - 1):
                for l in range(n - 1):
                    out[m * 2 + l] = out[m * 2 + l] + c * C[i][m] * C[j][l]
        proj_rows.append(out)
    red, _ = rref(proj_rows, spec)
    if len(red) != 3:
        return False, f"projected relation space has dim {len(red)} (need 3)"
    perp = kernel_basis(red, 4, spec)
    if len(perp) != 1:
        return False, "dual of quotient is not 1-dimensional"
    a, b, c, d = perp[0]
    ok = not (a * d - b * c).is_zero()
    return ok, "ad-bc nonzero" if ok else "ad = bc: dual quotient not a quantum plane"


def regularity_check(A: GradedAlgebra, cert: NormalCertificate) -> NormalCertificate:
    """Fill in the regular field of a normal certificate.

    The quotient Hilbert identity H_{A/(w)} = (1 - t^d) H_A up to the
    truncation D decides regularity there: w is normal, so A_e w = w A_e and
    (A/(w))_m = A_m / w A_{m-d}, and the identity in degree m says that
    multiplication by w (on either side) is injective on A_{m-d}.  A mismatch
    is "no", and its first degree m puts an annihilator in degree m - d.  A
    match says nothing past D, so for degree-1 elements of conic duals the
    dual-quotient certificate decides all degrees ("unknown" when it fails):
    the degenerate ad = bc quotient has the same prefix 1, 2, 1, 0."""
    wn = cert.w
    test = hilbert_drop(A, wn)
    cert.evidence["hilbert"] = {
        "expected": test.expected,
        "actual": test.actual,
        "first_mismatch": test.first_mismatch,
    }
    if test.first_mismatch is not None:
        cert.regular = "no"
    elif wn.degree() == 1 and A.dim(1) == 3 and A.stable_from() == (2, 4):
        ok, why = _conic_dual_quotient_cert(A, wn)
        cert.evidence["dual_quotient"] = why
        cert.regular = "yes" if ok else "unknown"
    else:
        cert.regular = "yes"
    return cert


@dataclass
class Degree1Search:
    algebra: GradedAlgebra  # the algebra that was searched
    certificates: list[NormalCertificate]
    complete: bool
    residue: str | None = None
    regular_complete: bool = False  # every regular normal element was found

    def __post_init__(self):
        if self.complete:
            self.regular_complete = True

    def regular(self) -> list[NormalCertificate]:
        return [c for c in self.certificates if c.regular == "yes"]

    def central_regular(self) -> list[NormalCertificate]:
        return [c for c in self.certificates if c.central and c.regular == "yes"]

    def preferred(self) -> list[NormalCertificate]:
        """Regular certificates, central first, then by leading word in the
        searched algebra's order."""
        order = self.algebra.rs.order

        def key(c: NormalCertificate):
            return not c.central, order.key(c.w.leading(order)[0])

        return sorted(self.regular(), key=key)


def central_degree1_search(A: GradedAlgebra) -> Degree1Search:
    """All central degree-1 elements (a linear computation) upgraded with
    regularity; decided exactly whenever the central subspace has dim <= 1.
    For higher-dimensional central subspaces the regular locus need not be
    finite, so completeness is reported through the certificates found on a
    line sweep only when it stays conclusive."""
    Z1 = center_degree(A, 1)
    if not Z1:
        return Degree1Search(A, [], True)
    if len(Z1) == 1:
        cert = normalize_check(A, Z1[0])
        if cert is None or not cert.central:
            raise ValueError(f"center basis element {Z1[0]} is not central")
        return Degree1Search(A, [regularity_check(A, cert)], True)
    return Degree1Search(A, [], False, f"central subspace has dimension {len(Z1)}")


def find_normal_degree1(A: GradedAlgebra) -> Degree1Search:
    """All projective w = sum a_i x_i with A_1 w = w A_1, by solving the
    bordered-minor conditions over the instance field, then certifying each
    candidate.  Completeness over the field is reported in-band."""
    amb = A.ambient
    spec = amb.spec
    n = amb.n
    if n != 3:
        raise UnsupportedDimension(f"degree-1 search needs exactly 3 generators (got {n})")
    if A.truncation < 3:
        raise DegreeExceedsTruncation("truncation must be at least 3")
    dim2 = A.dim(2)
    if dim2 != 4:
        raise UnsupportedDimension(f"degree-1 search needs dim A_2 = 4 (got {dim2})")
    gens = [NcPoly.generator(amb, i) for i in range(n)]
    # coords of x_k x_j in A_2, reused for both product orders
    prod = [[A.coords(gens[k] * gens[j], 2) for j in range(n)] for k in range(n)]

    # columns: w x_j and x_i w, entries sum_k c_k a_k linear in a = (a0, a1, a2)
    right_cols = [
        [CommPoly.linear([prod[k][j][r] for k in range(n)], spec) for r in range(dim2)]
        for j in range(n)
    ]
    left_cols = [
        [CommPoly.linear([prod[i][k][r] for k in range(n)], spec) for r in range(dim2)]
        for i in range(n)
    ]

    # normality forces span{w x_j} = span{x_i w}, so the combined 4x6 matrix
    # has rank <= 3: every 4x4 minor vanishes
    all_cols = right_cols + left_cols
    eqs = []
    for q in pool_minors(all_cols, list(itertools.combinations(range(6), 4))):
        if not q.is_zero():
            q = q.monic()
            if q not in eqs:
                eqs.append(q)

    # secondary certificate for positive-dimensional candidate sets: a regular
    # w multiplies A_2 onto A_3 bijectively, so if det of that map vanishes on
    # the whole candidate variety, the variety carries no regular element
    basis2 = A.basis(2)
    dim3 = A.dim(3)
    if dim3 != 4:
        raise UnsupportedDimension(f"degree-1 search needs dim A_3 = 4 (got {dim3})")
    gens3 = [
        [A.coords(NcPoly.monomial(amb, b2) * gens[k], 3) for k in range(n)] for b2 in basis2
    ]
    gens3l = [
        [A.coords(gens[k] * NcPoly.monomial(amb, b2), 3) for k in range(n)] for b2 in basis2
    ]

    def mult_det(table) -> CommPoly:
        cols = [
            [CommPoly.linear([table[bi][k][r] for k in range(n)], spec) for r in range(dim3)]
            for bi in range(len(basis2))
        ]
        return pool_minors(cols, [tuple(range(4))])[0]

    det_right = mult_det(gens3)  # b2 -> b2 * w
    det_left = mult_det(gens3l)  # b2 -> w * b2

    candidates: list[tuple[Scalar, ...]] = []
    complete = True
    regular_settled = True
    residue = None
    for chart, (origin, res) in enumerate(projective_charts(eqs, n, spec)):
        if res is None:
            # no equations: the origin is a candidate and the whole chart a
            # residual branch
            fixed = dict(enumerate(origin[: chart + 1]))
            res = SolveResult([origin], False, "no equations", [(fixed, [])])
        if res.residue and residue is None:
            residue = f"chart {chart}: {res.residue}"
        candidates.extend(res.solutions)
        if res.complete:
            continue
        complete = False
        if not res.residual_ideals:
            # incompleteness from an unsplit eliminant: points outside the
            # field could still be regular
            regular_settled = False
        # can the leftover branches carry a regular element at all?
        for subs, rgb in res.residual_ideals:
            dr, dl = det_right, det_left
            for i, val in subs.items():
                dr = dr.substitute_value(i, val)
                dl = dl.substitute_value(i, val)
            if rgb:
                dr = reduce_poly(dr, rgb)
                dl = reduce_poly(dl, rgb)
            if not (dr.is_zero() or dl.is_zero()):
                regular_settled = False

    certs = []
    for a in candidates:
        w = NcPoly(amb, {(k,): c for k, c in enumerate(a) if not c.is_zero()})
        cert = normalize_check(A, w)
        if cert is None:
            continue
        cert = regularity_check(A, cert)
        if not any(_same_projective(cert.w, c.w, spec) for c in certs):
            certs.append(cert)
    out = Degree1Search(A, certs, complete, residue)
    if not complete and regular_settled:
        out.regular_complete = True
    return out


def _same_projective(w1: NcPoly, w2: NcPoly, spec) -> bool:
    v1 = quad1_vector(w1)
    v2 = quad1_vector(w2)
    return rank([v1, v2], spec) == 1

