"""Presented graded algebras A = k<x_1,...,x_n>/I with Hilbert prefixes.

A GradedAlgebra couples a presentation with a degree-truncated confluent
rewrite system, cached graded bases, and the dimension prefix.  A quotient
A/(f) extends A's rules by f (rewrite.extend, Bergman's diamond lemma)
instead of completing its presentation from scratch.  hilbert_drop
is the one regularity test for normal elements, the coefficientwise identity
H_{A/(f)} = (1 - t^d) * H_A up to the truncation degree; the
regular-normal-sequence test in homog applies it element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .freealg import Ambient, MonomialOrder, NcPoly, UsageError, Word
from .linalg import Vector
from .rewrite import RewriteSystem, complete, extend, graded_basis, normal_form
from .scalars import zero


@dataclass
class Presentation:
    ambient: Ambient
    relations: list[NcPoly]
    label: str = ""

    def __post_init__(self):
        cleaned: list[NcPoly] = []
        for r in self.relations:
            if r.is_zero():
                continue
            if not r.is_homogeneous():
                raise UsageError(f"relation {r} is not homogeneous")
            if r not in cleaned:
                cleaned.append(r)
        self.relations = cleaned

    def with_extra(self, extra: list[NcPoly]) -> "Presentation":
        return Presentation(self.ambient, self.relations + list(extra), self.label)


@dataclass
class GradedAlgebra:
    presentation: Presentation
    rs: RewriteSystem
    dims: list[int]
    _bases: dict[int, list[Word]] = field(default_factory=dict)
    # word -> its position in _bases[d], filled by coords
    _indices: dict[int, dict[Word, int]] = field(default_factory=dict)

    @property
    def ambient(self) -> Ambient:
        return self.presentation.ambient

    @property
    def truncation(self) -> int:
        return self.rs.confluent_up_to

    def basis(self, d: int) -> list[Word]:
        if d not in self._bases:
            self._bases[d] = graded_basis(self.rs, d)
        return self._bases[d]

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    def nf(self, f: NcPoly) -> NcPoly:
        return normal_form(self.rs, f)

    def coords(self, f: NcPoly, d: int) -> Vector:
        """Coordinate vector of a degree-d element in the degree-d basis."""
        nf = self.nf(f)
        index = self._indices.get(d)
        if index is None:
            index = self._indices[d] = {w: i for i, w in enumerate(self.basis(d))}
        v = [zero(self.ambient.spec)] * len(index)
        for w, c in nf.terms.items():
            if len(w) != d:
                raise ValueError(f"element not homogeneous of degree {d}: {f}")
            v[index[w]] = c
        return v

    def from_coords(self, v: Vector, d: int) -> NcPoly:
        basis = self.basis(d)
        return NcPoly(self.ambient, {w: c for w, c in zip(basis, v, strict=True) if not c.is_zero()})

    def stable_from(self) -> tuple[int, int] | None:
        """Smallest d0 with three consecutive equal prefix values that persist
        to the truncation; (d0, value) or None."""
        dims = self.dims
        for d0 in range(len(dims) - 2):
            v = dims[d0]
            if all(x == v for x in dims[d0:]):
                if len(dims) - d0 >= 3:
                    return d0, v
        return None


def _algebra(p: Presentation, rs: RewriteSystem) -> GradedAlgebra:
    alg = GradedAlgebra(p, rs, [])
    alg.dims = [alg.dim(d) for d in range(rs.confluent_up_to + 1)]
    return alg


def build(p: Presentation, D: int, order: MonomialOrder | None = None) -> GradedAlgebra:
    if D < 2:
        raise ValueError("truncation must be at least 2")
    return _algebra(p, complete(p.ambient, p.relations, D, order))


def quotient(A: GradedAlgebra, fs: NcPoly | list[NcPoly]) -> GradedAlgebra:
    """A/(fs) at A's truncation and order: A's rules extended by fs."""
    if isinstance(fs, NcPoly):
        fs = [fs]
    for f in fs:
        if f.is_zero():
            raise ValueError("cannot quotient by the zero polynomial")
    return _algebra(A.presentation.with_extra(fs), extend(A.rs, fs))


@dataclass
class HilbertDrop:
    """A/(f) with its Hilbert prefix up to the truncation D of A, and the
    prefix (1 - t^d) * H_A that a regular normal f of degree d gives."""

    quotient: GradedAlgebra
    expected: list[int]
    actual: list[int]
    first_mismatch: int | None  # None when the prefixes agree


def hilbert_drop(A: GradedAlgebra, f: NcPoly) -> HilbertDrop:
    """The quotient Hilbert test of a homogeneous f against A: for normal f
    the prefixes agree iff f has no annihilator of degree <= D - deg(f)."""
    D, d = A.truncation, f.degree()
    quo = quotient(A, f)
    expected = [A.dims[m] - (A.dims[m - d] if m >= d else 0) for m in range(D + 1)]
    actual = quo.dims[: D + 1]
    mismatch = next((m for m in range(D + 1) if expected[m] != actual[m]), None)
    return HilbertDrop(quo, expected, actual, mismatch)
