"""Machine-readable table rows and the row-by-row verification driver.

Rows live in text files under data/ in the presentation grammar plus
expect_* directives; every row carries its own field.  verify() runs the
full pipeline per row and emits one deterministic pass/fail/skip line per
check.  Families are verified at the sampled parameter values named in the
row labels; rows whose data cannot be certified over a supported field carry
an explicit skip or note, never a silent pass.
"""

from __future__ import annotations

import importlib.resources
import itertools
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
from .freealg import Ambient, NcPoly
from .galgebra import Presentation, build
from .geometry import (
    CommPoly,
    SolveResult,
    k_matrix,
    minors_ideal,
    normalize_point,
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
from .cmap import compute_C, delta, dual_of, nabla
from .linalg import complete_to_basis, coords_in_basis, kernel_basis, rank, span_equal
from .presfile import PresSyntaxError, parse_field, parse_poly
from .quadratic import koszul_series_check, quad1_vector, quad_vector
from .scalars import FieldSpec, Scalar, zero


class NoMatchingRows(Exception):
    pass


CONIC_TABLES = {"5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15"}


@dataclass
class TableRow:
    table: str
    label: str
    spec: FieldSpec
    ambient: Ambient | None
    relations: list[NcPoly] = field(default_factory=list)
    elems: list[NcPoly] = field(default_factory=list)
    tgt: list[NcPoly] = field(default_factory=list)
    expects: dict[str, list[str]] = field(default_factory=dict)
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
    status: str  # PASS | FAIL | SKIP | NOTE
    detail: str = ""

    def line(self) -> str:
        d = f": {self.detail}" if self.detail else ""
        return f"{self.status} [{self.table}/{self.row}] {self.check}{d}"


@dataclass
class Report:
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return not any(r.status == "FAIL" for r in self.results)


def _table_sort_key(t: str):
    try:
        return (0, int(t), "")
    except ValueError:
        return (1, 0, t)


# -- row file parsing -------------------------------------------------------------


def parse_rows(text: str) -> list[TableRow]:
    rows: list[TableRow] = []
    cur: dict | None = None

    def finish():
        nonlocal cur
        if cur is None:
            return
        rows.append(
            TableRow(
                table=cur["table"],
                label=cur["label"],
                spec=cur["spec"],
                ambient=cur.get("ambient"),
                relations=cur.get("rel", []),
                elems=cur.get("elem", []),
                tgt=cur.get("tgt", []),
                expects=cur.get("expects", {}),
                kind=cur.get("kind", ""),
                witness=cur.get("witness"),
                skip=cur.get("skip", ""),
                stype=cur.get("stype", ""),
            )
        )
        cur = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "row":
            finish()
            cur = {"label": value, "table": "", "spec": None, "expects": {}}
            continue
        if cur is None:
            raise PresSyntaxError(ln, 1, "a 'row:' header first")
        if key == "table":
            cur["table"] = value
        elif key == "field":
            cur["spec"] = parse_field(value, ln)
        elif key == "gens":
            cur["ambient"] = Ambient(tuple(value.split()), cur["spec"])
        elif key == "type":
            cur["stype"] = value
        elif key in ("rel", "elem", "tgt"):
            cur.setdefault(key, []).append(parse_poly(value, cur["ambient"], ln))
        elif key == "kind":
            cur["kind"] = value
        elif key == "skip":
            cur["skip"] = value
        elif key == "witness":
            amb = cur["ambient"]
            rows_txt = [r.strip() for r in value.split(";")]
            mat = []
            for rtxt in rows_txt:
                entries = []
                for etxt in rtxt.split(","):
                    p = parse_poly(etxt.strip(), amb, ln)
                    if p.degree() > 0:
                        raise PresSyntaxError(ln, 1, "scalar witness entries")
                    entries.append(p.terms.get((), zero(amb.spec)))
                mat.append(entries)
            cur["witness"] = mat
        elif key.startswith("expect_"):
            cur["expects"].setdefault(key[len("expect_") :], []).append(value)
        else:
            raise PresSyntaxError(ln, 1, f"a known row directive (got '{key}')")
    finish()
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

    try:
        res = compute_C(A, split=(S_pres, f), search=search)
        results.append(_res(row, "C_dim4", res.algebra.dim == 4, f"dim {res.algebra.dim}"))
        results.append(_res(row, "C_frobenius", is_frobenius(res.algebra)))
        got = classify(res.algebra)
        _class_matches(row, got, results)
    except Exception as e:
        results.append(_res(row, "C_map", False, f"{type(e).__name__}: {e}"))

    rz = row.expect1("rz")
    if rz and rz not in ("EMPTY", "STAR"):
        try:
            ok = rehomogenization_span_identity(search)
            results.append(_res(row, "rehomogenize_dual_span", ok))
        except Exception as e:
            results.append(_res(row, "rehomogenize_dual_span", False, f"{type(e).__name__}: {e}"))

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
        raise ValueError("no central regular degree-1 element")
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


def _line_parametrization(ell: NcPoly, amb: Ambient) -> list[CommPoly]:
    """Symbolic (s,t) |-> point on the line ell = 0 (two basis points)."""
    spec = amb.spec
    n = amb.n
    ker = kernel_basis([quad1_vector(ell)], n, spec)
    if len(ker) != 2:
        raise ValueError(f"{ell} = 0 is not a line in the projective plane")
    s = CommPoly.var(2, 0, spec)
    t = CommPoly.var(2, 1, spec)
    out = []
    for k in range(n):
        out.append(s.scale(ker[0][k]) + t.scale(ker[1][k]))
    return out


def _conic_parametrization(q: NcPoly, amb: Ambient) -> list[CommPoly] | None:
    """Chord parametrization of a smooth conic through a small rational point."""
    spec = amb.spec
    n = amb.n
    # symmetric bilinear form of the quadratic q
    Bm = [[zero(spec)] * n for _ in range(n)]
    for (i, j), c in q.terms.items():
        half = c * Scalar.of(1, spec) / Scalar.of(2, spec)
        Bm[i][j] = Bm[i][j] + half
        Bm[j][i] = Bm[j][i] + half

    def bil(u, v):
        acc = zero(spec)
        for i in range(n):
            for j in range(n):
                acc = acc + u[i] * Bm[i][j] * v[j]
        return acc

    P = None
    candidates = []
    vals = [Scalar.of(v, spec) for v in (0, 1, -1, 2, -2)]
    if not spec.is_rational:
        vals += [Scalar.sqrt_part(v, spec) for v in (1, -1)]
    for a in vals:
        for b in vals:
            for c in vals:
                if a.is_zero() and b.is_zero() and c.is_zero():
                    continue
                candidates.append((a, b, c))
    for cand in candidates:
        if bil(cand, cand).is_zero():
            P = list(cand)
            break
    if P is None:
        return None
    # direction D = s E1 + t E2 with E1, E2 completing P; second intersection:
    # X = B(D,D) P - 2 B(P,D) D
    (E1, E2, _), _ = complete_to_basis(P, spec)
    s = CommPoly.var(2, 0, spec)
    t = CommPoly.var(2, 1, spec)
    D = [s.scale(E1[k]) + t.scale(E2[k]) for k in range(n)]
    BDD = CommPoly.zero(2, spec)
    BPD = CommPoly.zero(2, spec)
    for i in range(n):
        for j in range(n):
            if not Bm[i][j].is_zero():
                BDD = BDD + (D[i] * D[j]).scale(Bm[i][j])
                BPD = BPD + D[j].scale(P[i] * Bm[i][j])
    two = Scalar.of(2, spec)
    return [BDD.scale(P[k]) - (BPD * D[k]).scale(two) for k in range(n)]


def verify_geometry_row(row: TableRow) -> list[CheckResult]:
    results: list[CheckResult] = []
    amb = row.ambient
    spec = row.spec
    M = minors_ideal(k_matrix(row.relations))
    comps = row.expect("component")
    if comps:
        # positive-dimensional rows: minors vanish on each claimed component
        for comp in comps:
            kind, _, expr = comp.partition(" ")
            g = parse_poly(expr, amb)
            if kind == "line":
                par = _line_parametrization(g, amb)
            else:
                par = _conic_parametrization(g, amb)
                if par is None:
                    results.append(_res(row, f"component({expr})", False, "no rational point found"))
                    continue
            ok = all(m.substitute(par).is_zero() for m in M)
            results.append(_res(row, f"component({expr})", ok))
            # sigma on 5 sample points of the component
            want_sigma = row.expect1("sigma_line") or "identity"
            samples = []
            for sv, tv in [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)]:
                pt = tuple(
                    c.evaluate([Scalar.of(sv, spec), Scalar.of(tv, spec)]) for c in par
                )
                if any(not c.is_zero() for c in pt):
                    samples.append(normalize_point(pt))
            ok_sigma = True
            detail = ""
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
    raise ValueError(f"unknown sigma form {form}")


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
    E = from_presentation(row.relations + row.elems)
    want_dim = int(row.expect1("dim") or 4)
    results.append(_res(row, "model_dim", E.dim == want_dim, f"dim {E.dim}"))
    if not want_strong:
        return results
    results.append(_res(row, "model_frobenius", is_frobenius(E)))
    try:
        got = classify(E)
        _class_matches(row, got, results)
    except Exception as e:
        results.append(_res(row, "class", False, f"{type(e).__name__}: {e}"))
        return results
    # criterion: classify(delta(nabla(E))) == classify(E)
    try:
        conic = nabla(S, F, verdict=verdict)
        back = classify(delta(conic).algebra)
        results.append(_res(row, "delta_nabla_roundtrip", back == got, f"{back} vs {got}"))
    except Exception as e:
        results.append(_res(row, "delta_nabla_roundtrip", False, f"{type(e).__name__}: {e}"))
    return results


def verify_conic_class_row(row: TableRow) -> list[CheckResult]:
    """Table 1 rows: the classification representatives; dims + C(A) class."""
    results: list[CheckResult] = []
    amb = row.ambient
    A = build(Presentation(amb, row.relations, row.label), 6)
    results.append(_res(row, "hilbert_A", A.dims[:5] == H_A[:5], f"{A.dims[:5]}"))
    S_pres = Presentation(amb, row.relations[:-1])
    f = row.relations[-1]
    try:
        res = compute_C(A, split=(S_pres, f))
        frob = is_frobenius(res.algebra) and res.algebra.dim == 4
        results.append(_res(row, "C_frobenius_dim4", frob))
        got = classify(res.algebra)
        _class_matches(row, got, results)
    except Exception as e:
        results.append(_res(row, "C_map", False, f"{type(e).__name__}: {e}"))
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
}


def verify_row(row: TableRow) -> list[CheckResult]:
    if row.skip and row.kind != "missing":
        return [CheckResult(row.table, row.label, "row", "SKIP", row.skip)]
    if row.table in CONIC_TABLES:
        return verify_conic_row(row)
    fn = VERIFIERS.get(row.table)
    if fn is None:
        return [CheckResult(row.table, row.label, "row", "FAIL", f"unknown table {row.table}")]
    return fn(row)


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
        try:
            rr = verify_row(r)
        except Exception as e:
            rr = [CheckResult(r.table, r.label, "row", "FAIL", f"{type(e).__name__}: {e}")]
        results.extend(rr)
        if out is not None:
            for c in rr:
                out.write(c.line() + "\n")
    rep = Report(results)
    if out is not None:
        n_pass = sum(1 for c in results if c.status == "PASS")
        n_fail = sum(1 for c in results if c.status == "FAIL")
        n_skip = sum(1 for c in results if c.status == "SKIP")
        n_note = sum(1 for c in results if c.status == "NOTE")
        out.write(f"summary: {n_pass} pass, {n_fail} fail, {n_skip} skip, {n_note} note\n")
    return rep
