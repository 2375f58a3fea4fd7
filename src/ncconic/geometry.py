"""Point-scheme geometry and the small commutative elimination toolkit.

The K-matrix construction factors each quadratic relation f_k as
(x,y,z) K = (f_1,...,f_m); the rank-drop locus of K is cut out by its
3x3 minors, and the scheme automorphism is recovered pointwise as the
kernel of the linearized relations.

eliminate_small is the shared mini-solver (<= 3 variables, small degrees):
bounded Buchberger in graded lex, then univariate minimal polynomials in the
quotient and exact back-substitution, branching on the last variable that
leads a basis element by a pure power (zero-dimensional when all do).  Roots
are taken over the instance field only; anything that fails to split is
reported as a residue, never guessed.  On a positive-dimensional ideal the
branching variable may be transcendental; when the gcd of the basis involves
another variable, every element of the ideal shares a factor that no
univariate polynomial has, so the elimination ideal in that variable is zero
(Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 3) and no Krylov
powers are reduced.

projective_charts is the one chart loop, shared by solve_projective (the
point scheme, folded into one SolveResult) and the degree-1 normal-element
search in elements (read chart by chart).

This is the one module that talks to sympy.  to_domain and from_domain map
a Scalar to and from an element of sympy's domain for its field (QQ or
QQ<sqrt(d)>, built once per field on first use); root finding, the gcd
certificate and the printed residues all cross there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from .freealg import NcPoly, format_term
from .linalg import kernel_basis, krylov_min_poly
from .scalars import FieldMismatch, FieldSpec, Scalar, one, zero

Monomial = tuple[int, ...]


class BoundExceeded(Exception):
    pass


class NotQuadratic(Exception):
    pass


class PointNotOnScheme(Exception):
    pass


def _grlex_key(m: Monomial):
    return (sum(m), m)


class CommPoly:
    """Sparse commutative polynomial over a fixed FieldSpec."""

    __slots__ = ("nvars", "spec", "terms", "_lead")

    def __init__(self, nvars: int, spec: FieldSpec, terms: dict[Monomial, Scalar]):
        self.nvars = nvars
        self.spec = spec
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}
        self._lead: tuple[Monomial, Scalar] | None = None

    @staticmethod
    def zero(nvars: int, spec: FieldSpec) -> "CommPoly":
        return CommPoly(nvars, spec, {})

    @staticmethod
    def const(nvars: int, c: Scalar) -> "CommPoly":
        return CommPoly(nvars, c.spec, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, i: int, spec: FieldSpec) -> "CommPoly":
        m = [0] * nvars
        m[i] = 1
        return CommPoly(nvars, spec, {tuple(m): one(spec)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def _check(self, other: "CommPoly"):
        # terms new to self are copied, not added to a zero of self's field
        if other.terms and self.spec is not other.spec and self.spec != other.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "CommPoly") -> "CommPoly":
        self._check(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t[m] + c if m in t else c
        return CommPoly(self.nvars, self.spec, t)

    def __sub__(self, other: "CommPoly") -> "CommPoly":
        self._check(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t[m] - c if m in t else -c
        return CommPoly(self.nvars, self.spec, t)

    def __neg__(self) -> "CommPoly":
        return CommPoly(self.nvars, self.spec, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar) -> "CommPoly":
        return CommPoly(self.nvars, self.spec, {m: c * x for m, x in self.terms.items()})

    def __mul__(self, other: "CommPoly") -> "CommPoly":
        t: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                p = c1 * c2
                t[m] = t[m] + p if m in t else p
        return CommPoly(self.nvars, self.spec, t)

    def __eq__(self, other):
        return (
            isinstance(other, CommPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def leading(self) -> tuple[Monomial, Scalar]:
        """Graded-lex leading monomial and coefficient, found once (terms are
        never changed after construction)."""
        if self._lead is None:
            m = max(self.terms, key=_grlex_key)
            self._lead = m, self.terms[m]
        return self._lead

    def monic(self) -> "CommPoly":
        _, c = self.leading()
        return self.scale(c.inverse())

    def evaluate(self, values: list[Scalar]) -> Scalar:
        acc = zero(self.spec)
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * values[i]
            acc = acc + term
        return acc

    def substitute(self, images: list["CommPoly"]) -> "CommPoly":
        """Ring map var_i -> images[i] (all images share nvars/spec)."""
        tgt = images[0]
        out = CommPoly.zero(tgt.nvars, tgt.spec)
        for m, c in self.terms.items():
            term = CommPoly.const(tgt.nvars, c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * images[i]
            out = out + term
        return out

    def substitute_value(self, i: int, value: Scalar) -> "CommPoly":
        """Plug var_i = value; variable i no longer occurs."""
        t: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            v = c
            for _ in range(m[i]):
                v = v * value
            nm = m[:i] + (0,) + m[i + 1 :]
            t[nm] = t[nm] + v if nm in t else v
        return CommPoly(self.nvars, self.spec, t)

    def variables(self) -> set[int]:
        out = set()
        for m in self.terms:
            out.update(i for i, e in enumerate(m) if e)
        return out

    def format(self, names: list[str]) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True):
            word = "*".join(
                (names[i] if e == 1 else f"{names[i]}^{e}") for i, e in enumerate(m) if e
            )
            parts.append(format_term(word, c, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return self.format([f"v{i}" for i in range(self.nvars)])


def pool_minors(cols: list[list[CommPoly]], combos: list[tuple[int, ...]]) -> list[CommPoly]:
    """Determinants of the square submatrices on the column subsets combos of
    a matrix given by its columns, sharing sub-minors across subsets
    (first-row Laplace expansion with memoization)."""
    cache: dict[tuple[int, tuple[int, ...]], CommPoly] = {}
    last = len(cols[0]) - 1
    nv, spec = cols[0][0].nvars, cols[0][0].spec

    def minor(r: int, colset: tuple[int, ...]) -> CommPoly:
        key = (r, colset)
        got = cache.get(key)
        if got is not None:
            return got
        if r == last:
            out = cols[colset[0]][last]
        else:
            out = CommPoly.zero(nv, spec)
            for k, c in enumerate(colset):
                sub = minor(r + 1, colset[:k] + colset[k + 1 :])
                term = cols[c][r] * sub
                out = out + (term if k % 2 == 0 else -term)
        cache[key] = out
        return out

    return [minor(0, tuple(combo)) for combo in combos]


def _divides(m: Monomial, n: Monomial) -> bool:
    return all(a <= b for a, b in zip(m, n))


def _mono_sub(n: Monomial, m: Monomial) -> Monomial:
    return tuple(b - a for a, b in zip(m, n))


def _mono_lcm(m: Monomial, n: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m, n))


def reduce_poly(f: CommPoly, basis: list[CommPoly]) -> CommPoly:
    """Full multivariate division remainder (deterministic, largest term first)."""
    if not basis:
        return f
    heads = [g.leading() for g in basis]
    work = dict(f.terms)
    out: dict[Monomial, Scalar] = {}
    z = zero(f.spec)
    while work:
        m = max(work, key=_grlex_key)
        c = work.pop(m)
        if c.is_zero():
            continue
        hit = next((i for i, (lm, _) in enumerate(heads) if _divides(lm, m)), None)
        if hit is None:
            out[m] = out.get(m, z) + c
            continue
        lm, lc = heads[hit]
        shift = _mono_sub(m, lm)
        f_c = c / lc
        for gm, gc in basis[hit].terms.items():
            if gm == lm:
                continue
            nm = tuple(a + b for a, b in zip(gm, shift))
            work[nm] = work.get(nm, z) - f_c * gc
    return CommPoly(f.nvars, f.spec, out)


_SPAIR_DEGREE_BOUND = 24  # S-pairs of higher lcm degree are dropped; no table system gets near it


def buchberger(polys: list[CommPoly]) -> list[CommPoly]:
    """Graded-lex Groebner basis, up to the S-pair degree bound."""
    basis = [p.monic() for p in polys if not p.is_zero()]
    if not basis:
        return []
    leads = [g.leading()[0] for g in basis]

    def pair(i: int, j: int):
        return _grlex_key(_mono_lcm(leads[i], leads[j])), i, j

    pairs = [pair(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        pairs.sort(key=lambda p: p[0])  # stable: ties keep their creation order
        (deg, lcm), i, j = pairs.pop(0)
        if deg > _SPAIR_DEGREE_BOUND:
            continue
        li, lj = leads[i], leads[j]
        if all(a + b == c for a, b, c in zip(li, lj, lcm)):
            continue  # coprime leads
        spec = basis[i].spec
        mi = CommPoly(basis[i].nvars, spec, {_mono_sub(lcm, li): one(spec)})
        mj = CommPoly(basis[j].nvars, spec, {_mono_sub(lcm, lj): one(spec)})
        s = mi * basis[i] - mj * basis[j]
        r = reduce_poly(s, basis)
        if not r.is_zero():
            basis.append(r.monic())
            leads.append(basis[-1].leading()[0])
            pairs.extend(pair(len(basis) - 1, k) for k in range(len(basis) - 1))
    # inter-reduce for a canonical reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            r = reduce_poly(basis[i], others)
            if r != basis[i]:
                changed = True
                if r.is_zero():
                    basis = others
                else:
                    basis = others + [r.monic()]
                break
    return sorted(basis, key=lambda p: _grlex_key(p.leading()[0]))


# -- the one boundary to sympy: Scalar <-> domain elements ---------------------


@functools.cache
def _domain(spec: FieldSpec):
    """sympy's domain for spec, QQ or QQ<sqrt(d)>, with sqrt(d) in it.  Built on
    first use, so importing the package builds no number field."""
    if spec.is_rational:
        return sympy.QQ, sympy.QQ.zero
    K = sympy.QQ.algebraic_field(sympy.sqrt(spec.d))
    return K, K.from_sympy(sympy.sqrt(spec.d))


def to_domain(c: Scalar):
    """c as an element of sympy's domain for its field."""
    K, root = _domain(c.spec)
    a, b = (K.convert(sympy.QQ(x.numerator, x.denominator)) for x in (c.a, c.b))
    return a + b * root


def from_domain(e, spec: FieldSpec) -> Scalar:
    """The Scalar of a domain element.  sympy writes e = u*theta + v in its own
    primitive element theta, and sqrt(d) = p*theta + q with p != 0, so
    e = (u/p)*sqrt(d) + v - (u/p)*q whatever theta sympy picked."""

    def frac(x) -> Fraction:
        return Fraction(int(x.numerator), int(x.denominator))

    if spec.is_rational:
        return Scalar(frac(e), Fraction(0), spec)
    # to_list() is highest degree first, and shorter for a rational e
    u, v = ([Fraction(0)] * 2 + [frac(x) for x in e.to_list()])[-2:]
    p, q = (frac(x) for x in _domain(spec)[1].to_list())
    b = u / p
    return Scalar(v - b * q, b, spec)


# -- exact univariate roots over the instance field ----------------------------


def univariate_roots(coeffs: list[Scalar], spec: FieldSpec) -> tuple[list[Scalar], bool]:
    """Roots in the field of sum coeffs[k] t^k; (roots, fully_split).  Above
    degree 1 the roots are read off the linear factors of the polynomial over
    sympy's domain for the field; every one is re-verified with exact Scalar
    arithmetic."""
    while coeffs and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    if not coeffs:
        raise ValueError("zero polynomial")
    if len(coeffs) == 1:
        return [], True
    # strip t-power factors: 0 is then a root
    zero_root = False
    while coeffs and coeffs[0].is_zero():
        coeffs = coeffs[1:]
        zero_root = True
    if len(coeffs) == 1:
        return ([zero(spec)] if zero_root else []), True
    if len(coeffs) == 2:
        roots = [-(coeffs[0] / coeffs[1])]
        if zero_root:
            roots.append(zero(spec))
        roots.sort(key=lambda s: (s.a, s.b))
        return roots, True
    poly = sympy.Poly.from_list(
        [to_domain(c) for c in reversed(coeffs)], sympy.Symbol("t"), domain=_domain(spec)[0]
    )
    roots: list[Scalar] = []
    split = True
    for fac, _mult in poly.factor_list()[1]:
        if fac.degree() > 1:
            split = False
            continue
        c1, c0 = fac.rep.to_list()
        r = from_domain(-c0 / c1, spec)
        acc = zero(spec)
        for c in reversed(coeffs):  # exact Horner verification
            acc = acc * r + c
        if acc.is_zero():
            if all(not (r - q).is_zero() for q in roots):
                roots.append(r)
        else:
            split = False
    if zero_root and all(not q.is_zero() for q in roots):
        roots.append(zero(spec))
    roots.sort(key=lambda s: (s.a, s.b))
    return roots, split


# -- the zero-dimensional solver ------------------------------------------------


@dataclass
class SolveResult:
    solutions: list[tuple[Scalar, ...]]
    complete: bool
    residue: str | None = None
    # non-enumerated branches: (accumulated substitutions, Groebner basis)
    residual_ideals: list[tuple[dict[int, Scalar], list[CommPoly]]] = field(default_factory=list)


def _coordinate_min_poly(gb: list[CommPoly], var: int, nvars: int, spec: FieldSpec) -> list[Scalar] | None:
    """Minimal polynomial of the coordinate var in the quotient by gb, from the
    reduced powers of var; None when no dependence appears within 40 powers
    (the variable is then transcendental or the cap too small)."""
    v = CommPoly.var(nvars, var, spec)
    return krylov_min_poly(
        reduce_poly(CommPoly.const(nvars, one(spec)), gb),
        lambda p: reduce_poly(p * v, gb),
        spec,
        entries=lambda p: p.terms.items(),
        cap=40,
    )


def _common_factor_variables(gb: list[CommPoly]) -> set[int]:
    """The variables in which the gcd of gb has positive degree.  The gcd of
    a generating set is the gcd of the whole ideal, so a basis cut off at its
    degree bound gives the same answer."""
    domain = _domain(gb[0].spec)[0]
    gens = sympy.symbols(f"v0:{gb[0].nvars}")
    common = None
    for g in gb:
        # domain elements, not sympy expressions, so sympy's cache stays as it was
        terms = {m: to_domain(c) for m, c in g.terms.items()}
        p = sympy.Poly.from_dict(terms, *gens, domain=domain)
        common = p if common is None else common.gcd(p)
        if common.is_ground:
            return set()
    return {i for i, e in enumerate(common.degree_list()) if e > 0}


_MAX_DEGREE = 4  # the largest equation degree eliminate_small accepts


def eliminate_small(system: list[CommPoly]) -> SolveResult:
    """Solve a small polynomial system over its field; see module docstring."""
    polys = [p for p in system if not p.is_zero()]
    if not polys:
        raise BoundExceeded("empty system is positive-dimensional")
    nvars = polys[0].nvars
    spec = polys[0].spec
    active = sorted(set().union(*(p.variables() for p in polys)))
    if nvars > 3 and len(active) > 3:
        raise BoundExceeded("more than 3 variables")
    if len(polys) > 20:
        raise BoundExceeded("more than 20 equations")
    if any(p.degree() > _MAX_DEGREE for p in polys):
        raise BoundExceeded(f"degree above {_MAX_DEGREE}")
    return _solve(polys, nvars, spec)


def _solve(polys: list[CommPoly], nvars: int, spec: FieldSpec) -> SolveResult:
    if any(p and not p.variables() for p in polys):
        return SolveResult([], True)  # a nonzero constant
    polys = [p for p in polys if p]
    if not polys:
        # every equation vanished identically: solutions unconstrained
        return SolveResult([], False, "positive-dimensional: unconstrained variables", [({}, [])])
    active = sorted(set().union(*(p.variables() for p in polys)))
    gb = buchberger(polys)
    if any(len(g.terms) == 1 and sum(g.leading()[0]) == 0 for g in gb):
        return SolveResult([], True)
    # the variables some leading monomial is a pure power of: the ideal is
    # zero-dimensional when every active variable is one of them
    pure = set()
    for g in gb:
        lm = g.leading()[0]
        pure.update(i for i, e in enumerate(lm) if 0 < e == sum(lm))
    var = max(pure, default=None)
    positive_dimensional = len(pure) < len(active)
    mp = None
    # on a positive-dimensional ideal, a factor of the whole ideal in another
    # variable leaves no univariate p(var) in it (every factor of p lies in
    # k[var]), so Krylov would find no dependence at any cap
    if var is not None and not (positive_dimensional and _common_factor_variables(gb) - {var}):
        mp = _coordinate_min_poly(gb, var, nvars, spec)
    if mp is None:
        if not positive_dimensional:
            raise BoundExceeded(f"no minimal polynomial of v{var} within 40 powers")
        gbs = "; ".join(repr(g) for g in gb)
        return SolveResult(
            [], False, f"positive-dimensional component, GB leads: {gbs}", [({}, gb)]
        )
    residue = None
    if positive_dimensional:
        # the branches on var leave the rest as residual ideals
        residue = "positive-dimensional component alongside isolated points"
    roots, split = univariate_roots(mp, spec)
    if not split and residue is None:
        K = _domain(spec)[0]
        mp_str = "+".join(f"({K.to_sympy(to_domain(c))})*t^{k}" for k, c in enumerate(mp))
        residue = f"eliminant of v{var} does not split over {spec}: {mp_str}"
    solutions: list[tuple[Scalar, ...]] = []
    residuals: list[tuple[dict[int, Scalar], list[CommPoly]]] = []
    complete = split and not positive_dimensional
    for r in roots:
        sub = [p.substitute_value(var, r) for p in polys]
        rest_active = [i for i in active if i != var]
        if not rest_active:
            if all(p.is_zero() or p.evaluate([zero(spec)] * nvars).is_zero() for p in sub):
                sol = [zero(spec)] * nvars
                sol[var] = r
                solutions.append(tuple(sol))
            continue
        sub_result = _solve(sub, nvars, spec)
        complete = complete and sub_result.complete
        if sub_result.residue and residue is None:
            residue = sub_result.residue
        for subs, rgb in sub_result.residual_ideals:
            residuals.append(({**subs, var: r}, rgb))
        for s in sub_result.solutions:
            full = list(s)
            full[var] = r
            solutions.append(tuple(full))
    # exact final verification against the input system
    verified = [s for s in solutions if all(p.evaluate(list(s)).is_zero() for p in polys)]
    verified.sort(key=lambda s: tuple((c.a, c.b) for c in s))
    return SolveResult(verified, complete, residue, residuals)


# -- point schemes ---------------------------------------------------------------


def normalize_point(p: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    lead = next((c for c in p if not c.is_zero()), None)
    if lead is None:
        raise ValueError("zero vector is not projective")
    inv = lead.inverse()
    return tuple(inv * c for c in p)


def k_matrix(relations: list[NcPoly]) -> list[list[CommPoly]]:
    """3 x m matrix K of linear forms with (x,y,z) K = (f_1,...,f_m)."""
    if not relations:
        raise ValueError("no relations")
    amb = relations[0].ambient
    n = amb.n
    spec = amb.spec
    K = [[CommPoly.zero(n, spec) for _ in relations] for _ in range(n)]
    for k, f in enumerate(relations):
        for w, c in f.terms.items():
            if len(w) != 2:
                raise NotQuadratic(f"relation {f} is not purely quadratic")
            i, j = w
            mono = [0] * n
            mono[j] = 1
            K[i][k] = K[i][k] + CommPoly(n, spec, {tuple(mono): c})
    return K


def minors_ideal(K: list[list[CommPoly]]) -> list[CommPoly]:
    """The 3x3 minors, one per deleted column, deleting the last column first
    (frozen to reproduce the worked rank-drop example verbatim)."""
    ncols = len(K[0])
    cols = [[row[c] for row in K[:3]] for c in range(ncols)]
    combos = [tuple(c for c in range(ncols) if c != t) for t in range(ncols - 1, -1, -1)]
    return pool_minors(cols, combos)


def sigma_at(relations: list[NcPoly], p: tuple[Scalar, ...]) -> tuple[Scalar, ...] | None:
    """Unique q with f(p, q) = 0 for all relations, or None when the solution
    space is not 1-dimensional (indeterminate)."""
    amb = relations[0].ambient
    n = amb.n
    spec = amb.spec
    rows = []
    for f in relations:
        row = [zero(spec)] * n
        for w, c in f.terms.items():
            if len(w) != 2:
                raise NotQuadratic(f"relation {f} is not purely quadratic")
            i, j = w
            row[j] = row[j] + c * p[i]
        rows.append(row)
    ker = kernel_basis(rows, n, spec)
    if len(ker) == 0:
        raise PointNotOnScheme(f"no image for {p}")
    if len(ker) > 1:
        return None
    return normalize_point(tuple(ker[0]))


def projective_charts(
    polys: list[CommPoly], nvars: int, spec: FieldSpec
) -> list[tuple[tuple[Scalar, ...], SolveResult | None]]:
    """The zeros of homogeneous polys chart by chart: one (origin, result)
    pair per affine chart v_k = 1, v_i = 0 for i < k, whose origin is the
    unit vector e_k.  The result is None when every equation vanishes on the
    chart.  Its solutions are projective points (first nonzero coordinate 1),
    and each residual substitution includes the chart's fixed coordinates.
    The last chart is the single point e_k, a solution when every equation
    vanishes there."""
    charts = []
    for k in range(nvars):
        origin = tuple(one(spec) if i == k else zero(spec) for i in range(nvars))
        fixed = dict(enumerate(origin[: k + 1]))
        charted = []
        for p in polys:
            for i, c in fixed.items():
                p = p.substitute_value(i, c)
            if p:
                charted.append(p)
        if k == nvars - 1:
            res = SolveResult([] if charted else [origin], True)
        elif not charted:
            res = None
        else:
            res = eliminate_small(charted)
            res.solutions = [origin[: k + 1] + s[k + 1 :] for s in res.solutions]
            res.residual_ideals = [({**fixed, **subs}, gb) for subs, gb in res.residual_ideals]
        charts.append((origin, res))
    return charts


def solve_projective(polys: list[CommPoly]) -> SolveResult:
    """All projective zeros (first nonzero coordinate 1) of homogeneous polys
    over the field, the charts of projective_charts folded into one result."""
    if not polys:
        raise ValueError("no equations")
    out = SolveResult([], True)
    for k, (origin, res) in enumerate(projective_charts(polys, polys[0].nvars, polys[0].spec)):
        if res is None:
            residue = f"chart {k}: equations vanish identically (positive-dimensional)"
            res = SolveResult([], False, residue, [(dict(enumerate(origin[: k + 1])), [])])
        out.solutions += res.solutions
        out.complete = out.complete and res.complete
        out.residue = out.residue or res.residue
        out.residual_ideals += res.residual_ideals
    return out
