"""Noncommutative polynomials in a free algebra k<x_1,...,x_n>.

Words are tuples of 0-based generator indices; generator names live only in
the Ambient header.  Term storage is a dict word -> nonzero Scalar, printed
and iterated in descending monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import FieldSpec, Scalar, one

Word = tuple[int, ...]


class AmbientMismatch(Exception):
    pass


class ZeroInput(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Ambient:
    names: tuple[str, ...]
    spec: FieldSpec

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def without(self, idx: int) -> "Ambient":
        return Ambient(self.names[:idx] + self.names[idx + 1 :], self.spec)

    def with_extra(self, name: str) -> "Ambient":
        if name in self.names:
            raise ValueError(f"generator {name} already present")
        return Ambient(self.names + (name,), self.spec)

    def __str__(self):
        return f"k<{','.join(self.names)}> over {self.spec}"


@dataclass(frozen=True, slots=True)
class MonomialOrder:
    """Degree-lexicographic order; precedence[i] is the rank of generator i
    (larger rank = larger generator).  Default precedence is the given order,
    so x < y < z for generators listed as x, y, z."""

    precedence: tuple[int, ...]

    @staticmethod
    def default(n: int) -> "MonomialOrder":
        return MonomialOrder(tuple(range(n)))

    def key(self, w: Word):
        return (len(w), tuple(self.precedence[i] for i in w))


class NcPoly:
    """Element of the free algebra; immutable by convention."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: Ambient, terms: dict[Word, Scalar]):
        self.ambient = ambient
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ambient: Ambient) -> "NcPoly":
        return NcPoly(ambient, {})

    @staticmethod
    def one(ambient: Ambient) -> "NcPoly":
        return NcPoly(ambient, {(): one(ambient.spec)})

    @staticmethod
    def generator(ambient: Ambient, i: int) -> "NcPoly":
        return NcPoly(ambient, {(i,): one(ambient.spec)})

    @staticmethod
    def monomial(ambient: Ambient, w: Word) -> "NcPoly":
        return NcPoly(ambient, {tuple(w): one(ambient.spec)})

    @staticmethod
    def scalar(ambient: Ambient, c) -> "NcPoly":
        return NcPoly(ambient, {(): Scalar.of(c, ambient.spec)})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Max word length; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def homogeneous_component(self, d: int) -> "NcPoly":
        return NcPoly(self.ambient, {w: c for w, c in self.terms.items() if len(w) == d})

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "NcPoly"):
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms[w] + c if w in terms else c
        return NcPoly(self.ambient, terms)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms[w] - c if w in terms else -c
        return NcPoly(self.ambient, terms)

    def __neg__(self) -> "NcPoly":
        return NcPoly(self.ambient, {w: -c for w, c in self.terms.items()})

    def scale(self, c: Scalar) -> "NcPoly":
        if c.is_zero():
            return NcPoly.zero(self.ambient)
        return NcPoly(self.ambient, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        terms: dict[Word, Scalar] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u + v
                p = a * b
                terms[w] = terms[w] + p if w in terms else p
        return NcPoly(self.ambient, terms)

    def __eq__(self, other):
        return (
            isinstance(other, NcPoly)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    # -- order-aware views -----------------------------------------------------

    def sorted_terms(self, order: MonomialOrder) -> list[tuple[Word, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading(self, order: MonomialOrder) -> tuple[Word, Scalar]:
        if self.is_zero():
            raise ZeroInput("zero polynomial has no leading term")
        w = max(self.terms, key=order.key)
        return w, self.terms[w]

    def monic(self, order: MonomialOrder) -> "NcPoly":
        _, c = self.leading(order)
        return self.scale(c.inverse())

    # -- substitution -----------------------------------------------------------

    def substitute(self, images: list["NcPoly"]) -> "NcPoly":
        """Apply the algebra map x_i -> images[i] (images in any common ambient)."""
        if len(images) != self.ambient.n:
            raise ValueError("need one image per generator")
        target = images[0].ambient if images else self.ambient
        out = NcPoly.zero(target)
        for w, c in self.terms.items():
            m = NcPoly.scalar(target, 1).scale(c)
            for i in w:
                m = m * images[i]
            out = out + m
        return out

    def map_linear(self, matrix: list[list[Scalar]]) -> "NcPoly":
        """Graded substitution x_i -> sum_j matrix[i][j] x_j in the same ambient."""
        amb = self.ambient
        images = []
        for i in range(amb.n):
            images.append(
                NcPoly(amb, {(j,): matrix[i][j] for j in range(amb.n) if not matrix[i][j].is_zero()})
            )
        return self.substitute(images)

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return self.format(MonomialOrder.default(self.ambient.n))

    __repr__ = __str__

    def format(self, order: MonomialOrder) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for w, c in self.sorted_terms(order):
            word = _format_word(self.ambient, w) if w else ""
            parts.append(format_term(word, c, first=not parts))
        return "".join(parts)


def _format_word(ambient: Ambient, w: Word) -> str:
    if not w:
        return "1"
    pieces = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name = ambient.names[w[i]]
        pieces.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return "*".join(pieces)


def format_term(word: str, c: Scalar, first: bool) -> str:
    """One signed term c*word of a printed polynomial; word is "" for the
    constant term."""
    neg = c.b < 0 if c.a == 0 else c.a < 0
    mag = -c if neg else c
    if word and mag.is_one():
        body = word
    else:
        coeff = str(mag)
        if ("+" in coeff[1:]) or ("-" in coeff[1:]) or "/" in coeff or "*" in coeff:
            coeff = f"({coeff})"
        body = f"{coeff}*{word}" if word else coeff
    if first:
        return f"-{body}" if neg else body
    return f" - {body}" if neg else f" + {body}"


# -- the (de)homogenization operators on single polynomials ---------------------


def dehomogenize_poly(f: NcPoly, z: int) -> NcPoly:
    """Delete every occurrence of generator z; result lives in the ambient
    with z removed."""
    amb = f.ambient
    if not (0 <= z < amb.n):
        raise ValueError(f"generator index {z} out of range")
    small = amb.without(z)
    out: dict[Word, Scalar] = {}
    for w, c in f.terms.items():
        nw = tuple(i if i < z else i - 1 for i in w if i != z)
        out[nw] = out[nw] + c if nw in out else c
    return NcPoly(small, out)


def homogenize_poly(f: NcPoly, zname: str = "z") -> NcPoly:
    """Right-multiply each term of degree i by z^(d-i), d = deg f; the new
    generator is appended last."""
    if f.is_zero():
        raise ZeroInput("cannot homogenize 0")
    amb = f.ambient.with_extra(zname)
    d = f.degree()
    zi = amb.n - 1
    out = {w + (zi,) * (d - len(w)): c for w, c in f.terms.items()}
    return NcPoly(amb, out)


def wild_homogenize_poly(f: NcPoly) -> NcPoly:
    """Top-degree homogeneous component."""
    if f.is_zero():
        raise ZeroInput("cannot take top form of 0")
    return f.homogeneous_component(f.degree())

