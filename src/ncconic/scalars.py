"""Exact coefficient arithmetic over Q and quadratic extensions Q(sqrt(d)).

Every scalar is a + b*sqrt(d) with a, b rational; over plain Q the b part
is identically zero.  All operations are exact -- no floats anywhere in the
arithmetic path.  Scalars from different fields never mix.

Scalars are immutable, so ``zero(spec)`` and ``one(spec)`` return one
shared instance per field.  Over Q, arithmetic computes only the rational
part, and every result carries the shared zero Fraction as its sqrt(d)
part.  Every construction, arithmetic results included, is still
validated: a nonzero sqrt(d) part over Q raises ``ValueError``.

A kernel that makes many products and sums can run on bare values and
wrap ``Scalar`` only at its boundary: ``boundary(spec)`` gives the
``(unwrap, wrap)`` pair of a field.  Over Q the bare value is the
``Fraction`` a; over Q(sqrt(d)) it is the ``Scalar`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter


class FieldMismatch(Exception):
    pass


class DivisionByZero(Exception):
    pass


def _squarefree_core(n: int) -> tuple[int, int]:
    """Write n = m^2 * d with d squarefree; return (d, m).  n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no squarefree core")
    sign = -1 if n < 0 else 1
    n = abs(n)
    m = 1
    d = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        m *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    d *= n
    return sign * d, m


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """Q (d is None) or Q(sqrt(d)) for a squarefree integer d != 0, 1."""

    d: int | None = None

    def __post_init__(self):
        if self.d is not None:
            if self.d in (0, 1):
                raise ValueError("d must be a nonzero squarefree integer != 1")
            core, m = _squarefree_core(self.d)
            if m != 1:
                raise ValueError(f"d={self.d} is not squarefree")

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def __str__(self):
        if self.d is None:
            return "Q"
        if self.d == -1:
            return "Q(i)"
        return f"Q(sqrt {self.d})"


QQ = FieldSpec()
QI = FieldSpec(-1)

_F0 = Fraction(0)
_F1 = Fraction(1)


def _coerce_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


@dataclass(frozen=True, slots=True)
class Scalar:
    """Element a + b*sqrt(d) of the field given by spec."""

    a: Fraction
    b: Fraction
    spec: FieldSpec

    def __post_init__(self):
        if self.b and self.spec.d is None:
            raise ValueError("rational scalar with nonzero sqrt part")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x, spec: FieldSpec) -> "Scalar":
        if isinstance(x, Scalar):
            if x.spec is not spec and x.spec != spec:
                raise FieldMismatch(f"{x.spec} vs {spec}")
            return x
        return Scalar(_coerce_fraction(x), _F0, spec)

    @staticmethod
    def sqrt_part(x, spec: FieldSpec) -> "Scalar":
        """x * sqrt(d) in Q(sqrt d)."""
        if spec.is_rational:
            raise FieldMismatch("sqrt part requires a quadratic extension")
        return Scalar(_F0, _coerce_fraction(x), spec)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_one(self) -> bool:
        return self.a == 1 and not self.b

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Scalar"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        spec = self.spec
        if spec.d is None:
            return Scalar(self.a + other.a, _F0, spec)
        return Scalar(self.a + other.a, self.b + other.b, spec)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        spec = self.spec
        if spec.d is None:
            return Scalar(self.a - other.a, _F0, spec)
        return Scalar(self.a - other.a, self.b - other.b, spec)

    def __neg__(self) -> "Scalar":
        spec = self.spec
        if spec.d is None:
            return Scalar(-self.a, _F0, spec)
        return Scalar(-self.a, -self.b, spec)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        spec = self.spec
        d = spec.d
        if d is None:
            return Scalar(self.a * other.a, _F0, spec)
        return Scalar(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            spec,
        )

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of 0")
        spec = self.spec
        d = spec.d
        if d is None:
            return Scalar(_F1 / self.a, _F0, spec)
        # norm a^2 - d b^2 is nonzero for squarefree d != 1
        n = self.a * self.a - d * self.b * self.b
        return Scalar(self.a / n, -self.b / n, spec)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inverse()

    # -- misc ----------------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.spec.d == -1:
            root = "i"
        else:
            root = f"sqrt({self.spec.d})"
        bpart = root if self.b == 1 else (f"-{root}" if self.b == -1 else f"{self.b}*{root}")
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{bpart}"

    __repr__ = __str__


_ZERO: dict[FieldSpec, Scalar] = {}
_ONE: dict[FieldSpec, Scalar] = {}


def zero(spec: FieldSpec) -> Scalar:
    z = _ZERO.get(spec)
    if z is None:
        z = _ZERO[spec] = Scalar(_F0, _F0, spec)
    return z


def one(spec: FieldSpec) -> Scalar:
    o = _ONE.get(spec)
    if o is None:
        o = _ONE[spec] = Scalar(_F1, _F0, spec)
    return o


_BOUNDARY: dict[FieldSpec, tuple] = {}


def boundary(spec: FieldSpec) -> tuple:
    """(unwrap, wrap) for a kernel on bare values over spec: unwrap takes a
    Scalar of spec to its bare value, wrap takes a bare value to a validated
    Scalar and a zero to the shared zero(spec).  Over Q unwrap reads only the
    rational part, so the caller checks the field, once, before unwrapping."""
    pair = _BOUNDARY.get(spec)
    if pair is None:
        z = zero(spec)
        if spec.d is None:
            pair = (attrgetter("a"), lambda a: Scalar(a, _F0, spec) if a else z)
        else:
            pair = (lambda x: x, lambda x: x if x else z)
        _BOUNDARY[spec] = pair
    return pair
