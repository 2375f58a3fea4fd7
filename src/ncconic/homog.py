"""Sequence-level homogenization operators and dehomogenization of algebras.

A RelationSequence stores the chosen free-algebra representatives; all the
operators here act on those stored representatives, which pins down the
(choice-dependent) homogenized algebra per dataset row.  The homogenizing
generator is appended last and is the largest in the monomial order, so the
added commutator rules push it to the right of every reduced word; it is
named z, or the first of z1, z2, ... that is not a generator already.  The
regular-normal-sequence test (galgebra.hilbert_drop, element by element)
lives here with its strong form on S[z], its only caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import normalize_check
from .findim import FiniteAlgebra
from .freealg import (
    Ambient,
    NcPoly,
    UsageError,
    _format_word,
    dehomogenize_poly,
    homogenize_poly,
    wild_homogenize_poly,
)
from .galgebra import GradedAlgebra, Presentation, build, hilbert_drop
from .geometry import check_quadratic
from .linalg import coords_in_basis, rank
from .scalars import Scalar


class SingularMatrix(Exception):
    pass


class NotStabilized(Exception):
    pass


class NotRegularCertificate(Exception):
    pass


class InconclusiveTruncation(Exception):
    pass


@dataclass
class RelationSequence:
    ambient: Ambient
    elems: list[NcPoly]

    def __post_init__(self):
        for f in self.elems:
            if f.is_zero():
                raise UsageError("zero entries are not allowed in a sequence")
            if f.ambient != self.ambient:
                raise ValueError("sequence element in a different ambient")


def embed(p: NcPoly, big: Ambient) -> NcPoly:
    """Reinterpret in a larger ambient sharing the leading generators."""
    if big.names[: p.ambient.n] != p.ambient.names:
        raise ValueError("ambient is not an initial extension")
    return NcPoly(big, dict(p.terms))


def wild_homogenize_seq(F: RelationSequence) -> RelationSequence:
    return RelationSequence(F.ambient, [wild_homogenize_poly(f) for f in F.elems])


def homogenize_seq(F: RelationSequence, zname: str | None = None) -> RelationSequence:
    big = F.ambient.with_extra(zname)
    out = []
    for f in F.elems:
        h = homogenize_poly(f, zname)
        out.append(NcPoly(big, dict(h.terms)))
    return RelationSequence(big, out)


def adjoined_polynomial_presentation(S: Presentation, zname: str | None = None) -> Presentation:
    """S[z]: the same relations plus commutators [x_i, z]."""
    big = S.ambient.with_extra(zname)
    zi = big.n - 1
    zname = big.names[zi]
    z = NcPoly.generator(big, zi)
    comms = []
    for i in range(S.ambient.n):
        xi = NcPoly.generator(big, i)
        comms.append(xi * z - z * xi)
    rels = [embed(r, big) for r in S.relations] + comms
    return Presentation(big, rels, f"{S.label}[{zname}]" if S.label else "")


def homogenize_presentation(
    S: Presentation, F: RelationSequence, zname: str | None = None
) -> Presentation:
    """H^z(S, F) = S[z]/I_{F^z}, computed on the stored representatives."""
    if F.ambient != S.ambient:
        raise ValueError("sequence does not live in the presentation's ambient")
    base = adjoined_polynomial_presentation(S, zname)
    zname = base.ambient.names[-1]
    Fz = homogenize_seq(F, zname)
    label = f"H^{zname}({S.label})" if S.label else ""
    return Presentation(base.ambient, base.relations + Fz.elems, label)


@dataclass
class ElementVerdict:
    element: NcPoly
    degree: int
    normal: bool
    regular: bool
    expected_prefix: list[int]
    actual_prefix: list[int]
    first_mismatch: int | None


@dataclass
class SequenceVerdict:
    per_element: list[ElementVerdict]
    checked_to: int

    @property
    def all_regular_normal(self) -> bool:
        return all(v.normal and v.regular for v in self.per_element)


def is_regular_normal_sequence(S: GradedAlgebra, elems: list[NcPoly]) -> SequenceVerdict:
    """Stepwise Hilbert test: element i is regular in S/(f_1..f_{i-1}) iff the
    quotient prefix drops by exactly (1 - t^{d_i}); normality of each image is
    certified first, as the Hilbert criterion applies to normal elements."""
    D = S.truncation
    degrees = [f.degree() for f in elems]
    if any(d < 1 for d in degrees):
        raise ValueError("sequence elements must have degree >= 1")
    if D < max(degrees) + 1:
        raise InconclusiveTruncation(f"truncation {D} too small for degrees {degrees}")
    current = S
    verdicts = []
    for f in elems:
        if not f.is_homogeneous():
            raise ValueError(f"sequence element {f} is not homogeneous")
        d = f.degree()
        img = current.nf(f)
        if img.is_zero():
            # 0 is normal but never regular in a nonzero algebra
            verdicts.append(ElementVerdict(f, d, True, False, [], current.dims, 0))
            continue
        cert = normalize_check(current, img)
        test = hilbert_drop(current, f)
        mismatch = test.first_mismatch
        verdicts.append(
            ElementVerdict(
                f, d, cert is not None, mismatch is None, test.expected, test.actual, mismatch
            )
        )
        current = test.quotient
    return SequenceVerdict(verdicts, D)


@dataclass
class StrongVerdict:
    top_sequence: SequenceVerdict
    homogenized_sequence: SequenceVerdict

    @property
    def strongly_regular_normal(self) -> bool:
        return (
            self.top_sequence.all_regular_normal
            and self.homogenized_sequence.all_regular_normal
        )


def is_strongly_regular_normal(S: GradedAlgebra, F: RelationSequence) -> StrongVerdict:
    """(a) the top-form sequence F-top is regular normal on S;
    (b) (F^z, z) is regular normal on S[z] (the homogenized route)."""
    if any(f.degree() != 2 for f in F.elems):
        raise UsageError("strong regularity is checked for degree-2 sequences")
    tops = wild_homogenize_seq(F)
    vee = is_regular_normal_sequence(S, tops.elems)
    base = adjoined_polynomial_presentation(S.presentation)
    Sz = build(base, S.rs.truncation, None)
    Fz = homogenize_seq(F)
    zpoly = NcPoly.generator(Sz.ambient, Sz.ambient.n - 1)
    homog = is_regular_normal_sequence(Sz, Fz.elems + [zpoly])
    return StrongVerdict(vee, homog)


def twist_presentation(S: Presentation, sigma: list[list[Scalar]]) -> Presentation:
    """Quadratic presentation of the twisted algebra: each relation
    sum c_uv u v becomes sum c_uv sigma(u) v."""
    amb = S.ambient
    spec = amb.spec
    if rank(sigma, spec) != amb.n:
        raise SingularMatrix("twisting matrix is singular")
    check_quadratic(S.relations)
    out = []
    for r in S.relations:
        acc = NcPoly.zero(amb)
        for (i, j), c in r.terms.items():
            si = NcPoly(amb, {(k,): sigma[i][k] for k in range(amb.n) if not sigma[i][k].is_zero()})
            acc = acc + (si * NcPoly.generator(amb, j)).scale(c)
        out.append(acc)
    return Presentation(amb, out, f"{S.label}^twist" if S.label else "")


def localized_zero_part(A: GradedAlgebra, cert, i0: int):
    """The algebra {f w^{-i0} : f in A_{d*i0}} with multiplication
    (f w^{-i0})(g w^{-i0}) = f nu^{i0}(g) w^{-2 i0}, re-expressed through the
    bijection m -> m w^{i0}; unit is the class of w^{i0}."""
    if cert.regular != "yes":
        raise NotRegularCertificate(f"certificate for {cert.w} is {cert.regular}")
    d = cert.degree
    dloc = d * i0
    if 2 * dloc > A.truncation:
        raise NotStabilized(f"need truncation >= {2 * dloc}")
    if A.dim(dloc) != A.dim(2 * dloc):
        raise NotStabilized(
            f"dim A_{dloc} = {A.dim(dloc)} != dim A_{2 * dloc} = {A.dim(2 * dloc)}"
        )
    amb = A.ambient
    spec = amb.spec
    b = A.dim(dloc)
    basis_words = A.basis(dloc)
    wpow = NcPoly.one(amb)
    for _ in range(i0):
        wpow = wpow * cert.w
    wpow = A.nf(wpow)
    # bijection m -> m w^{i0} gives the change of basis A_{dloc} -> A_{2dloc}
    image_rows = [A.coords(NcPoly.monomial(amb, m) * wpow, 2 * dloc) for m in basis_words]
    if rank(image_rows, spec) != b:
        raise NotRegularCertificate("right multiplication by w^i0 is not injective")

    def nu_pow(p: NcPoly) -> NcPoly:
        out = p
        for _ in range(i0):
            out = out.map_linear(cert.nu)
        return A.nf(out)

    twisted = [nu_pow(NcPoly.monomial(amb, m2)) for m2 in basis_words]
    products = [
        A.coords(NcPoly.monomial(amb, m1) * p2, 2 * dloc)
        for m1 in basis_words
        for p2 in twisted
    ]
    coords = coords_in_basis(image_rows, products, spec)
    if any(c is None for c in coords):
        raise NotStabilized(f"A_{2 * dloc} is not A_{dloc} * w^{i0}")
    table = [coords[k * b : (k + 1) * b] for k in range(b)]
    unit = A.coords(wpow, dloc)
    labels = [_format_word(amb, m) for m in basis_words]
    return FiniteAlgebra(spec, labels, table, unit)


def dehomogenize_algebra(A: GradedAlgebra, cert):
    """D_w(A) = A[w^{-1}]_0 for a degree-1 regular normal certificate; the
    Hilbert prefix must have stabilized with 2*d0 within the truncation."""
    if cert.degree != 1:
        raise NotRegularCertificate("dehomogenization needs a degree-1 element")
    st = A.stable_from()
    if st is None:
        raise NotStabilized(f"Hilbert prefix {A.dims} does not stabilize")
    d0, _ = st
    d0 = max(d0, 1)
    if 2 * d0 > A.truncation:
        raise NotStabilized(f"stabilization at {d0} needs truncation >= {2 * d0}")
    return localized_zero_part(A, cert, d0)


def dehomogenize_presentation(P: Presentation, z: int) -> tuple[Presentation, RelationSequence]:
    """Substitute generator z = 1 in every stored relation; returns the
    2-generator presentation split into homogeneous part and the rest."""
    small = P.ambient.without(z)
    homogeneous: list[NcPoly] = []
    rest: list[NcPoly] = []
    for r in P.relations:
        g = dehomogenize_poly(r, z)
        if g.is_zero():
            continue
        (homogeneous if g.is_homogeneous() and g.degree() == 2 else rest).append(g)
    return Presentation(small, homogeneous, P.label + "_z" if P.label else ""), RelationSequence(
        small, rest
    )
