"""The localization algebra C(A) of a conic, and the two bridge maps between
conics and 4-dimensional algebras.

compute_C prefers dehomogenizing the dual at a degree-1 regular normal
element (central ones first); when no such element exists over the field it
localizes at the dual element of the designated extra relation, which always
exists for a conic presented as (quantum plane relations) + f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import (
    Degree1Search,
    NormalCertificate,
    UnsupportedDimension,
    find_normal_degree1,
    normalize_check,
    regularity_check,
)
from .findim import FiniteAlgebra
from .freealg import NcPoly
from .galgebra import GradedAlgebra, Presentation, build
from .homog import (
    RelationSequence,
    StrongVerdict,
    dehomogenize_algebra,
    homogenize_presentation,
    is_strongly_regular_normal,
    localized_zero_part,
)
from .quadratic import dual_element, quadratic_dual


class NoRegularCertificate(Exception):
    pass


class NoCentralCertificate(Exception):
    pass


class NotStronglyRegular(Exception):
    pass


def dual_of(A: GradedAlgebra) -> GradedAlgebra:
    return build(quadratic_dual(A.presentation), max(4, A.rs.truncation), A.rs.order)


@dataclass
class CResult:
    algebra: FiniteAlgebra
    path: str  # "dehomogenize(w)" or "localize(f^!)"
    certificate: NormalCertificate


def compute_C(
    A: GradedAlgebra,
    split: tuple[Presentation, NcPoly],
    search: Degree1Search | None = None,
) -> CResult:
    """C(A) = A^![(f^!)^{-1}]_0 as explicit structure constants.

    split is (quantum plane presentation S, extra relation f) with A = S + (f),
    for the localization fallback.  search, when given, is the degree-1
    search already run on the dual of A."""
    if A.dim(1) != 3:
        raise UnsupportedDimension(f"compute_C needs dim A_1 = 3 (got {A.dim(1)})")
    dual = search.algebra if search is not None else dual_of(A)
    if dual.truncation < 4:
        raise ValueError("dual must be built to degree >= 4")
    if search is None:
        search = find_normal_degree1(dual)
    preferred = search.preferred()
    if preferred:
        cert = preferred[0]
        return CResult(dehomogenize_algebra(dual, cert), f"dehomogenize({cert.w})", cert)
    S_pres, f = split
    fd = dual_element(S_pres, f)
    c2 = normalize_check(dual, fd)
    if c2 is None:
        raise NoRegularCertificate(f"dual element {fd} is not normal in the dual")
    c2 = regularity_check(dual, c2)
    if c2.regular != "yes":
        raise NoRegularCertificate(
            f"dual element {fd} not certified regular: {c2.regular} ({c2.evidence})"
        )
    return CResult(localized_zero_part(dual, c2, 1), f"localize({fd})", c2)


def nabla(
    S: GradedAlgebra,
    F: RelationSequence,
    D: int = 6,
    verdict: StrongVerdict | None = None,
) -> GradedAlgebra:
    """The conic dual(H^z(S, F)) of a pencil-of-conics presentation; the
    sequence must be strongly regular normal.  verdict, when given, is
    is_strongly_regular_normal(S, F) already computed by the caller."""
    if verdict is None:
        verdict = is_strongly_regular_normal(S, F)
    if not verdict.strongly_regular_normal:
        raise NotStronglyRegular(
            f"top sequence regular normal: {verdict.top_sequence.all_regular_normal}, "
            f"homogenized: {verdict.homogenized_sequence.all_regular_normal}"
        )
    hz = homogenize_presentation(S.presentation, F)
    return build(quadratic_dual(hz), D)


def delta(A: GradedAlgebra) -> CResult:
    """D_z(A^!) at a central regular degree-1 element of the dual."""
    search = find_normal_degree1(dual_of(A))
    preferred = search.preferred()
    if not preferred or not preferred[0].central:
        raise NoCentralCertificate(
            f"no central regular degree-1 element (complete={search.complete}, "
            f"residue={search.residue})"
        )
    cert = preferred[0]
    return CResult(dehomogenize_algebra(search.algebra, cert), f"dehomogenize({cert.w})", cert)
