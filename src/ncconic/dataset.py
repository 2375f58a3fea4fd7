"""Machine-readable table rows and the row-by-row verification driver.

Rows live in text files under data/ in the presentation grammar plus row
directives; every row carries its own field.  verify() runs the full
pipeline per row and emits one deterministic line per check; a check that
raises is a FAIL, or an ERROR when ncconic does not define the exception.
Families are verified at the sampled parameter values named in the row
labels; rows whose data cannot be certified over a supported field carry an
explicit skip or note, never a silent pass.

A table-4 component g = 0 (a line or a conic) is checked by division: g
divides every 3x3 minor of K.  Its sample points for the sigma check are
where it meets five fixed section lines, found by geometry.solve_projective;
a component with no such point over the field fails that check.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import itertools
from collections import Counter
from dataclasses import dataclass, field

from .elements import (
    Degree1Search,
    center_degree,
    central_degree1_search,
    find_normal_degree1,
    normalize_check,
    regularity_check,
)
from .findim import classify, from_presentation, is_frobenius
from .freealg import Ambient, NcPoly, UsageError
from .galgebra import Presentation, build
from .geometry import (
    CommPoly,
    SolveResult,
    k_matrix,
    minors_ideal,
    normalize_point,
    reduce_poly,
    sigma_at,
    solve_projective,
)
from .homog import (
    RelationSequence,
    dehomogenize_presentation,
    homogenize_presentation,
    is_strongly_regular_normal,
    twist_presentation,
)
from .cmap import NoCentralCertificate, compute_C, delta, dual_of, nabla
from .linalg import complete_to_basis, coords_in_basis, rank, span_equal
from .presfile import (
    PresSyntaxError,
    PresentationFile,
    directive_poly,
    directives,
    parse_poly,
    read_directive,
)
from .quadratic import koszul_series_check, quad1_vector, quad_vector
from .scalars import Scalar, zero


class NoMatchingRows(UsageError):
    pass


class BadRowData(Exception):
    """A row expectation the verifier cannot read; its check reads FAIL."""


CONIC_TABLES = {"5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15"}


@dataclass
class TableRow(PresentationFile):
    table: str = ""
    tgt: list[NcPoly] = field(default_factory=list)
    kind: str = ""
    witness: list[list[Scalar]] | None = None
    skip: str = ""
    stype: str = ""

    def expect(self, key: str) -> list[str]:
        return self.expects.get(key, [])

    def expect1(self, key: str) -> str | None:
        vals = self.expects.get(key)
        return vals[0] if vals else None


@dataclass
class CheckResult:
    table: str
    row: str
    check: str
    status: str  # PASS | FAIL | SKIP | NOTE | ERROR
    detail: str = ""

    def line(self) -> str:
        d = f": {self.detail}" if self.detail else ""
        return f"{self.status} [{self.table}/{self.row}] {self.check}{d}"


@dataclass
class Report:
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return not any(r.status in ("FAIL", "ERROR") for r in self.results)


def _table_sort_key(t: str):
    try:
        return (0, int(t), "")
    except ValueError:
        return (1, 0, t)


# -- row file parsing -------------------------------------------------------------


def parse_rows(text: str) -> list[TableRow]:
    rows: list[TableRow] = []
    for ln, key, value in directives(text):
        if key == "row":
            rows.append(TableRow(label=value))
            continue
        if not rows:
            raise PresSyntaxError(ln, 1, "a 'row:' header first")
        row = rows[-1]
        if read_directive(row, ln, key, value):
            continue
        if key in ("table", "kind", "skip"):
            setattr(row, key, value)
        elif key == "type":
            row.stype = value
        elif key == "tgt":
            row.tgt.append(directive_poly(row, ln, key, value))
        elif key == "witness":
            mat = [[directive_poly(row, ln, key, e) for e in r.split(",")] for r in value.split(";")]
            if any(p.degree() > 0 for r in mat for p in r):
                raise PresSyntaxError(ln, 1, "scalar witness entries")
            row.witness = [[p.terms.get((), zero(row.spec)) for p in r] for r in mat]
        else:
            raise PresSyntaxError(ln, 1, f"a known row directive (got '{key}')")
    return rows


def load_rows() -> list[TableRow]:
    out: list[TableRow] = []
    root = importlib.resources.files("ncconic").joinpath("data")
    for entry in sorted(p.name for p in root.iterdir() if p.name.endswith(".rows")):
        out.extend(parse_rows(root.joinpath(entry).read_text(encoding="utf-8")))
    return out


# -- checks per table kind ----------------------------------------------------------

H_A = [1, 3, 5, 7, 9, 11, 13]
H_DUAL = [1, 3, 4, 4, 4, 4, 4]


def _res(row: TableRow, check: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(row.table, row.label, check, "PASS" if ok else "FAIL", detail)


@contextlib.contextmanager
def _guard(row: TableRow, check: str, results: list[CheckResult]):
    """Run one check: an exception of a class ncconic defines is a FAIL, any other an ERROR."""
    try:
        yield
    except Exception as e:
        status = "FAIL" if type(e).__module__.startswith("ncconic.") else "ERROR"
        results.append(CheckResult(row.table, row.label, check, status, f"{type(e).__name__}: {e}"))


def _class_matches(row: TableRow, got, results: list[CheckResult]):
    want = row.expect("class")
    if not want:
        return
    parts = want[0].split()
    label = parts[0]
    ok = got.label == label
    detail = f"got {got}"
    if ok and label == "E-class":
        amb = row.ambient
        expected_pair = sorted(
            (
                parse_poly(t, amb).terms.get((), zero(row.spec))
                for t in parts[1:]
            ),
            key=lambda s: (s.a, s.b),
        )
        ok = got.lam is not None and list(got.lam) == expected_pair
        detail = f"got {got}, want pair {[str(s) for s in expected_pair]}"
    results.append(_res(row, "class", ok, detail if not ok else ""))


def verify_conic_row(row: TableRow) -> list[CheckResult]:
    results: list[CheckResult] = []
    amb = row.ambient
    A = build(Presentation(amb, row.relations, row.label), 6)
    results.append(_res(row, "hilbert_A", A.dims[:7] == H_A, f"{A.dims[:7]}"))
    S_pres = Presentation(amb, row.relations[:-1], row.label + ".S")
    f = row.relations[-1]
    S_alg = build(S_pres, 4)
    gens = [NcPoly.generator(amb, i) for i in range(amb.n)]
    central = all(S_alg.nf(g * f - f * g).is_zero() for g in gens)
    results.append(_res(row, "f_central_in_S", central))
    dual = dual_of(A)
    results.append(_res(row, "hilbert_dual", dual.dims[:7] == H_DUAL, f"{dual.dims[:7]}"))
    results.append(_res(row, "koszul_identity", koszul_series_check(A, dual, 6)))

    expected_dual = row.expect("dual")
    if expected_dual:
        exp_polys = [parse_poly(t, amb) for t in expected_dual]
        exp_rows = [quad_vector(p) for p in exp_polys]
        comp_rows = [quad_vector(r) for r in dual.presentation.relations]
        ok = (
            len(exp_rows) == 5
            and rank(exp_rows, row.spec) == 5
            and span_equal(exp_rows, comp_rows, row.spec)
        )
        results.append(_res(row, "dual_span", ok))

    search = find_normal_degree1(dual)

    def element_check(col: str, want: str | None):
        if want is None:
            return
        if want == "STAR":
            found = [c for c in search.regular() if (c.central if col == "rz" else True)]
            desc = ", ".join(
                f"{c.w}({'central' if c.central else 'normal'})" for c in found
            ) or "none found"
            results.append(
                CheckResult(row.table, row.label, f"{col}_star", "NOTE", f"search: {desc}; complete={search.complete}")
            )
            return
        if want == "EMPTY":
            if col == "rn":
                hits = search.regular()
                ok = not hits and search.regular_complete
                detail = "" if ok else (
                    f"found {[str(c.w) for c in hits]}"
                    if hits
                    else f"search incomplete: {search.residue}"
                )
            else:
                # centrality is linear: the center route decides directly
                csearch = central_degree1_search(dual)
                hits = csearch.central_regular()
                if csearch.complete:
                    ok = not hits
                    detail = "" if ok else f"found {[str(c.w) for c in hits]}"
                else:
                    hits = search.central_regular()
                    ok = not hits and search.complete
                    detail = "" if ok else (
                        f"found {[str(c.w) for c in hits]}"
                        if hits
                        else f"search incomplete: {csearch.residue}; {search.residue}"
                    )
            results.append(_res(row, f"{col}_empty", ok, detail))
            return
        w = parse_poly(want, amb)
        cert = normalize_check(dual, w)
        if cert is None:
            results.append(_res(row, f"{col}_element", False, f"{want} not normal"))
            return
        cert = regularity_check(dual, cert)
        ok = cert.regular == "yes"
        if col == "rz":
            ok = ok and cert.central
        else:
            rz_entries = row.expect("rz")
            in_rz = bool(rz_entries) and rz_entries[0] == want
            ok = ok and (cert.central == in_rz)
        results.append(
            _res(row, f"{col}_element", ok, f"{want}: regular={cert.regular} central={cert.central}")
        )

    element_check("rn", row.expect1("rn"))
    element_check("rz", row.expect1("rz"))

    with _guard(row, "C_map", results):
        res = compute_C(A, split=(S_pres, f), search=search)
        results.append(_res(row, "C_dim4", res.algebra.dim == 4, f"dim {res.algebra.dim}"))
        results.append(_res(row, "C_frobenius", is_frobenius(res.algebra)))
        _class_matches(row, classify(res.algebra), results)

    rz = row.expect1("rz")
    if rz and rz not in ("EMPTY", "STAR"):
        with _guard(row, "rehomogenize_dual_span", results):
            ok = rehomogenization_span_identity(search)
            results.append(_res(row, "rehomogenize_dual_span", ok))

    if row.expect1("points") is not None:
        results.append(_point_count(row, minors_ideal(k_matrix(row.relations)))[1])
    return results


def _point_count(row: TableRow, M: list[CommPoly]) -> tuple[SolveResult, CheckResult]:
    """The projective zeros of the minors M, and the check of their number."""
    res = solve_projective(M)
    n = len(res.solutions)
    ok = res.complete and n == int(row.expect1("points"))
    detail = f"{n} points, complete={res.complete} {res.residue or ''}"
    return res, _res(row, "point_count", ok, detail)


def rehomogenization_span_identity(search: Degree1Search) -> bool:
    """H^z(D_z(A^!)) has the same relation span as A^!: transform so the
    central regular degree-1 element found by the search of A^! is the last
    coordinate, dehomogenize the stored relations there, homogenize back and
    compare quadratic spans."""
    preferred = search.preferred()
    if not preferred or not preferred[0].central:
        raise NoCentralCertificate("no central regular degree-1 element")
    dual = search.algebra
    amb = dual.ambient
    spec = amb.spec
    n = amb.n
    _, C = complete_to_basis(quad1_vector(preferred[0].w), spec)
    transformed = [r.map_linear(C) for r in dual.presentation.relations]
    S, F = dehomogenize_presentation(Presentation(amb, transformed), n - 1)
    rebuilt = homogenize_presentation(S, F, amb.names[n - 1]).relations
    left = [quad_vector(r) for r in transformed]
    right = [quad_vector(r) for r in rebuilt]
    return span_equal(left, right, spec)


def verify_center_row(row: TableRow) -> list[CheckResult]:
    results: list[CheckResult] = []
    amb = row.ambient
    S = build(Presentation(amb, row.relations, row.label), 4)
    qpa = S.dims[:4] == [1, 3, 6, 10]
    results.append(_res(row, "hilbert_qpa", qpa, f"{S.dims[:4]}"))
    basis = center_degree(S, 2)
    want = row.expect("center")
    if want == ["EMPTY"]:
        results.append(_res(row, "center_empty", not basis, f"dim {len(basis)}"))
        return results
    exp = [parse_poly(t, amb) for t in want]
    ok_dim = len(basis) == len(exp)
    comp_rows = [S.coords(p, 2) for p in basis]
    exp_rows = [S.coords(p, 2) for p in exp]
    ok_member = all(c is not None for c in coords_in_basis(comp_rows, exp_rows, row.spec))
    ok_rank = rank(exp_rows, row.spec) == len(exp)
    results.append(
        _res(row, "center_span", ok_dim and ok_member and ok_rank,
             f"dim {len(basis)} want {len(exp)}")
    )
    return results


def _component_form(kind: str, p: NcPoly) -> CommPoly:
    """The form of a claimed component p = 0 in commuting variables, each word
    read as its exponent vector; a line has degree 1, a conic degree 2."""
    g = CommPoly.zero(p.ambient.n, p.ambient.spec)
    for w, c in p.terms.items():
        g = g + CommPoly(g.nvars, g.spec, {tuple(w.count(i) for i in range(g.nvars)): c})
    if not g or any(sum(m) != {"line": 1, "conic": 2}.get(kind) for m in g.terms):
        raise BadRowData(f"{p} = 0 is not a {kind} in the projective plane")
    return g


def _component_samples(g: CommPoly) -> list[tuple[Scalar, ...]]:
    """The points over the field where g = 0 meets y = 0, z = 0, y = z, y = 2z or 2y = z."""
    sections = [(0, 1, 0), (0, 0, 1), (0, 1, -1), (0, 1, -2), (0, 2, -1)]
    lines = [CommPoly.linear([Scalar.of(c, g.spec) for c in ell], g.spec) for ell in sections]
    return list(dict.fromkeys(p for ell in lines for p in solve_projective([g, ell]).solutions))


def verify_geometry_row(row: TableRow) -> list[CheckResult]:
    results: list[CheckResult] = []
    amb = row.ambient
    spec = row.spec
    M = minors_ideal(k_matrix(row.relations))
    comps = row.expect("component")
    if comps:
        # positive-dimensional rows: the form g of each claimed component
        # divides every minor, so for a squarefree g the minors vanish on g = 0
        for comp in comps:
            kind, _, expr = comp.partition(" ")
            check = f"component({expr})"
            g = None
            with _guard(row, check, results):
                g = _component_form(kind, parse_poly(expr, amb))
                results.append(_res(row, check, all(reduce_poly(m, [g]).is_zero() for m in M)))
            if g is None:
                continue
            # sigma on the points where the section lines meet the component
            want_sigma = row.expect1("sigma_line") or "identity"
            with _guard(row, f"sigma_{want_sigma}", results):
                samples = _component_samples(g)
                ok_sigma = bool(samples)
                detail = "" if samples else "no point of the component over the field"
                for p in samples:
                    q = sigma_at(row.relations, p)
                    if q is None:
                        ok_sigma = False
                        detail = f"indeterminate at {p}"
                        break
                    if not _sigma_form_matches(want_sigma, p, q, amb):
                        ok_sigma = False
                        detail = f"{tuple(str(c) for c in p)} -> {tuple(str(c) for c in q)}"
                        break
                results.append(_res(row, f"sigma_{want_sigma}", ok_sigma, detail))
        return results

    res, check = _point_count(row, M)
    results.append(check)
    pts = res.solutions
    for p in pts:
        bad = [m for m in M if not m.evaluate(list(p)).is_zero()]
        if bad:
            results.append(_res(row, "points_on_minors", False, f"{p}"))
            break
    else:
        results.append(_res(row, "points_on_minors", True))
    sigma = {}
    ok_sigma = True
    for p in pts:
        q = sigma_at(row.relations, p)
        if q is None:
            ok_sigma = False
            break
        sigma[p] = q
    if not ok_sigma:
        results.append(_res(row, "sigma_defined", False))
        return results
    image = set(sigma.values())
    results.append(_res(row, "sigma_bijective", image == set(pts)))
    want = row.expect1("sigma") or "identity"
    if want == "identity":
        ok = all(sigma[p] == p for p in pts)
        results.append(_res(row, "sigma_identity", ok))
    else:
        # "involution k": sigma^2 = id with k fixed points
        k_fixed = int(want.split()[1])
        ok = all(sigma[sigma[p]] == p for p in pts)
        fixed = sum(1 for p in pts if sigma[p] == p)
        results.append(
            _res(row, f"sigma_involution_{k_fixed}fixed", ok and fixed == k_fixed,
                 f"fixed={fixed}")
        )
    # the square of the automorphism is the identity on the whole finite set
    results.append(_res(row, "sigma_squared_identity", all(sigma[sigma[p]] == p for p in pts)))
    triples_want = row.expect1("collinear_triples")
    if triples_want is not None:
        triples = sum(
            1
            for combo in itertools.combinations(pts, 3)
            if rank([list(p) for p in combo], spec) == 2
        )
        results.append(
            _res(row, "collinear_triples", triples == int(triples_want), f"found {triples}")
        )
    return results


def _sigma_form_matches(form: str, p, q, amb: Ambient) -> bool:
    spec = amb.spec
    if form == "identity":
        return q == p
    if form.startswith("scale"):
        lam = parse_poly(form.split(None, 1)[1], amb).terms.get((), zero(spec))
        # (0:b:c) -> (0:b:lam c)
        expect = normalize_point((p[0], p[1], lam * p[2]))
        return q == expect
    if form == "shear":
        expect = normalize_point((p[0], p[1], p[1] + p[2]))
        return q == expect
    raise BadRowData(f"unknown sigma form {form}")


def verify_pencil_row(row: TableRow) -> list[CheckResult]:
    results: list[CheckResult] = []
    amb = row.ambient
    S = build(Presentation(amb, row.relations, row.label), 6)
    F = RelationSequence(amb, row.elems)
    verdict = is_strongly_regular_normal(S, F)
    want_strong = (row.expect1("strong") or "yes") == "yes"
    results.append(
        _res(row, "strongly_regular_normal",
             verdict.strongly_regular_normal == want_strong,
             f"got {verdict.strongly_regular_normal}")
    )
    E = from_presentation(amb, row.relations + row.elems)
    want_dim = int(row.expect1("dim") or 4)
    results.append(_res(row, "model_dim", E.dim == want_dim, f"dim {E.dim}"))
    if not want_strong:
        return results
    results.append(_res(row, "model_frobenius", is_frobenius(E)))
    with _guard(row, "class", results):
        got = classify(E)
        _class_matches(row, got, results)
        # criterion: classify(delta(nabla(E))) == classify(E); skipped when classify raises
        with _guard(row, "delta_nabla_roundtrip", results):
            conic = nabla(S, F, verdict=verdict)
            back = classify(delta(conic).algebra)
            results.append(_res(row, "delta_nabla_roundtrip", back == got, f"{back} vs {got}"))
    return results


def verify_conic_class_row(row: TableRow) -> list[CheckResult]:
    """Table 1 rows: the classification representatives; dims + C(A) class."""
    results: list[CheckResult] = []
    amb = row.ambient
    A = build(Presentation(amb, row.relations, row.label), 6)
    results.append(_res(row, "hilbert_A", A.dims[:5] == H_A[:5], f"{A.dims[:5]}"))
    S_pres = Presentation(amb, row.relations[:-1])
    f = row.relations[-1]
    with _guard(row, "C_map", results):
        res = compute_C(A, split=(S_pres, f))
        frob = is_frobenius(res.algebra) and res.algebra.dim == 4
        results.append(_res(row, "C_frobenius_dim4", frob))
        _class_matches(row, classify(res.algebra), results)
    return results


def verify_identification_row(row: TableRow) -> list[CheckResult]:
    results: list[CheckResult] = []
    amb = row.ambient
    spec = row.spec
    src_rows = [quad_vector(r) for r in row.relations]
    tgt_rows = [quad_vector(r) for r in row.tgt]
    if row.kind == "equal":
        ok = span_equal(src_rows, tgt_rows, spec)
        results.append(_res(row, "span_equal", ok))
        return results
    if row.kind == "missing":
        results.append(
            CheckResult(row.table, row.label, "witness", "SKIP", row.skip or "no witness derived")
        )
        return results
    if row.witness is None:
        results.append(CheckResult(row.table, row.label, "witness", "FAIL", "no witness stored"))
        return results
    if row.kind == "matrix":
        imgs = [r.map_linear(row.witness) for r in row.relations]
        ok = span_equal([quad_vector(r) for r in imgs], tgt_rows, spec)
        results.append(_res(row, "witness_matrix", ok))
        return results
    if row.kind == "twist":
        twisted = twist_presentation(Presentation(amb, row.relations), row.witness)
        ok = span_equal([quad_vector(r) for r in twisted.relations], tgt_rows, spec)
        results.append(_res(row, "witness_twist", ok))
        # the twisting matrix must fix the conic relation modulo the ambient
        f = row.relations[-1]
        ambient_rows = [quad_vector(r) for r in row.relations[:-1]]
        img = f.map_linear(row.witness)
        ok2 = span_equal(ambient_rows + [quad_vector(f)], ambient_rows + [quad_vector(img)], spec)
        results.append(_res(row, "twist_fixes_relation", ok2))
        return results
    results.append(CheckResult(row.table, row.label, "witness", "FAIL", f"unknown kind {row.kind}"))
    return results


VERIFIERS = {
    "1": verify_conic_class_row,
    "2": verify_pencil_row,
    "3": verify_center_row,
    "4": verify_geometry_row,
    "ident": verify_identification_row,
    **dict.fromkeys(CONIC_TABLES, verify_conic_row),
}


def verify_row(row: TableRow) -> list[CheckResult]:
    if row.skip and row.kind != "missing":
        return [CheckResult(row.table, row.label, "row", "SKIP", row.skip)]
    fn = VERIFIERS.get(row.table)
    if fn is None:
        return [CheckResult(row.table, row.label, "row", "FAIL", f"unknown table {row.table}")]
    results: list[CheckResult] = []
    # a row whose verifier raises outside a check guard reports the row alone
    with _guard(row, "row", results):
        results.extend(fn(row))
    return results


def verify(table: str | None = None, row: str | None = None, out=None) -> Report:
    rows = load_rows()
    if table is not None:
        rows = [r for r in rows if r.table == str(table)]
    if row is not None:
        rows = [r for r in rows if r.label == row]
    if not rows:
        raise NoMatchingRows(f"no table row matches table={table}, row={row}")
    rows.sort(key=lambda r: (_table_sort_key(r.table), r.label))
    results: list[CheckResult] = []
    for r in rows:
        rr = verify_row(r)
        results.extend(rr)
        if out is not None:
            for c in rr:
                out.write(c.line() + "\n")
    if out is not None:
        n = Counter(c.status for c in results)
        errors = f", {n['ERROR']} error" if n["ERROR"] else ""
        out.write(f"summary: {n['PASS']} pass, {n['FAIL']} fail, {n['SKIP']} skip, {n['NOTE']} note{errors}\n")
    return Report(results)
