import dataclasses
import io
import sys
from collections import Counter

import pytest

from ncconic import cli, cmap, dataset, elements, findim, geometry, homog, linalg, rewrite
from ncconic.presfile import PresSyntaxError, parse_poly
from ncconic.scalars import Scalar

EXPECTED_ROWS = {
    "1": 10,
    "2": 13,
    "3": 55,
    "4": 10,
    "5": 4,
    "6": 7,
    "7": 6,
    "8": 7,
    "9": 12,
    "10": 7,
    "11": 16,
    "12": 4,
    "13": 8,
    "14": 3,
    "15": 9,
    "ident": 26,
}


def test_row_coverage_and_uniqueness():
    rows = dataset.load_rows()
    by_table = Counter(r.table for r in rows)
    assert dict(by_table) == EXPECTED_ROWS
    labels = Counter((r.table, r.label) for r in rows)
    dup = [k for k, v in labels.items() if v > 1]
    assert not dup


def test_every_row_names_a_field():
    for r in dataset.load_rows():
        assert r.spec is not None
        if not r.skip and r.table != "ident":
            assert r.ambient is not None and r.relations or r.table == "ident"


def test_verify_statuses_are_legal_and_deterministic():
    buf1, buf2 = io.StringIO(), io.StringIO()
    rep1 = dataset.verify(table="14", out=buf1)
    rep2 = dataset.verify(table="14", out=buf2)
    assert buf1.getvalue() == buf2.getvalue()
    assert rep1.ok and rep2.ok
    for r in rep1.results:
        assert r.status in ("PASS", "FAIL", "SKIP", "NOTE")


def test_verify_row_filter():
    buf = io.StringIO()
    rep = dataset.verify(table="10", row="F1", out=buf)
    assert rep.ok
    assert all("[10/F1]" in l for l in buf.getvalue().splitlines() if l.startswith("PASS"))


def test_skip_rows_report_reasons():
    rows = [r for r in dataset.load_rows() if r.skip and r.kind != "missing"]
    assert rows, "table 3 carries skip rows for the relation-less types"
    for r in rows:
        res = dataset.verify_row(r)
        assert len(res) == 1 and res[0].status == "SKIP" and res[0].detail


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name under every ncconic module name that binds it; the
    returned list grows by one entry per call."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("ncconic") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_artifact_is_computed_once(monkeypatch):
    searched = _count_calls(monkeypatch, elements, "find_normal_degree1")
    strong = _count_calls(monkeypatch, homog, "is_strongly_regular_normal")
    # the body of the Frobenius test, behind is_frobenius's per-algebra memo
    tested = _count_calls(monkeypatch, findim, "_frobenius_form")
    row = next(r for r in dataset.load_rows() if (r.table, r.label) == ("5", "A2"))
    results = {r.check: r.status for r in dataset.verify_row(row)}
    # compute_C, the rz columns and rehomogenize_dual_span all use the one search
    assert results["rehomogenize_dual_span"] == "PASS"
    assert len(searched) == 1
    # C_frobenius and classify share one Frobenius test of C(A)
    assert results["C_frobenius"] == "PASS" and results["class"] == "PASS"
    assert len(tested) == 1
    # a table-2 row tests strong regularity once; nabla reuses the verdict
    row = next(r for r in dataset.load_rows() if r.table == "2")
    results = {r.check: r.status for r in dataset.verify_row(row)}
    assert results["strongly_regular_normal"] == "PASS"
    assert results["delta_nabla_roundtrip"] == "PASS"
    assert len(strong) == 1


def test_row_reductions_are_bounded(monkeypatch):
    # one rref per linear-algebra question, and one regularity test per
    # certificate; solves that also compute an unused kernel, reductions once
    # per right-hand side, or a rank scan of multiplication by w beside the
    # quotient Hilbert test exceed it
    reductions = _count_calls(monkeypatch, linalg, "rref")
    row = next(r for r in dataset.load_rows() if (r.table, r.label) == ("5", "A2"))
    assert all(r.status == "PASS" for r in dataset.verify_row(row))
    assert len(reductions) <= 40


def test_quotients_do_not_complete_from_scratch(monkeypatch):
    # A, S and the dual A^! are completed once each; the four quotient
    # Hilbert tests on A^! extend its rules instead of completing A^!/(w)
    completions = _count_calls(monkeypatch, rewrite, "complete")
    row = next(r for r in dataset.load_rows() if (r.table, r.label) == ("5", "A2"))
    assert all(r.status == "PASS" for r in dataset.verify_row(row))
    assert len(completions) <= 3


def test_transcendental_coordinate_skips_krylov(monkeypatch):
    # the degree-1 normal-element search on row 11/I3's dual meets a chart
    # ideal whose basis shares a factor in two variables, so its branching
    # variable has no minimal polynomial, and the solver says so without
    # reducing 40 powers
    min_polys = _count_calls(monkeypatch, geometry, "_coordinate_min_poly")
    row = next(r for r in dataset.load_rows() if (r.table, r.label) == ("11", "I3"))
    assert all(r.status == "PASS" for r in dataset.verify_row(row))
    assert len(min_polys) == 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("row: R\ntable: 5\nfield: Q\nrel: x^2\ngens: x\n", 4),
        ("row: R\ntable: 5\ngens: x y\nfield: Q\n", 3),
        ("row: R\n# comment\nfield: Q\ngens: x x\n", 4),
        ("row: R\nfield: Q\ngens: x\nwitness: 1, x\n", 4),
        ("row: R\nfield: Q\ngens: x\nfield: Q(i)\n", 4),
    ],
    ids=[
        "rel before gens",
        "gens before field",
        "repeated generator",
        "non-scalar witness",
        "field after gens",
    ],
)
def test_malformed_rows_are_syntax_errors(text, line):
    with pytest.raises(PresSyntaxError) as e:
        dataset.parse_rows(text)
    assert e.value.line == line


def _a2_with_compute_c_raising(monkeypatch, exc: Exception):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(dataset, "compute_C", raising)
    return next(r for r in dataset.load_rows() if (r.table, r.label) == ("5", "A2"))


def test_a_defect_in_a_check_is_an_error(monkeypatch):
    row = _a2_with_compute_c_raising(monkeypatch, TypeError("injected"))
    lines = [c.line() for c in dataset.verify_row(row)]
    assert "ERROR [5/A2] C_map: TypeError: injected" in lines
    # the checks before and after the guarded one still run
    assert "PASS [5/A2] hilbert_A: [1, 3, 5, 7, 9, 11, 13]" in lines
    assert "PASS [5/A2] rehomogenize_dual_span" in lines
    buf = io.StringIO()
    rep = dataset.verify(table="5", row="A2", out=buf)
    assert not rep.ok
    assert buf.getvalue().splitlines()[-1].endswith(" 0 fail, 0 skip, 0 note, 1 error")
    assert cli.main(["verify", "--table", "5", "--row", "A2"], out=io.StringIO()) == 1


def test_a_library_exception_in_a_check_is_a_failure(monkeypatch):
    row = _a2_with_compute_c_raising(monkeypatch, cmap.NoRegularCertificate("injected"))
    statuses = {c.check: c.status for c in dataset.verify_row(row)}
    assert statuses["C_map"] == "FAIL"
    assert "ERROR" not in statuses.values()


def test_the_roundtrip_is_skipped_when_classify_raises(monkeypatch):
    def raising(E):
        raise TypeError("injected")

    monkeypatch.setattr(dataset, "classify", raising)
    row = next(r for r in dataset.load_rows() if r.table == "2")
    checks = [(c.check, c.status) for c in dataset.verify_row(row)]
    assert checks[-1] == ("class", "ERROR")
    assert "delta_nabla_roundtrip" not in dict(checks)


def test_a_defect_outside_any_check_reports_the_row(monkeypatch):
    def raising(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(dataset, "build", raising)
    row = next(r for r in dataset.load_rows() if (r.table, r.label) == ("5", "A2"))
    assert [c.line() for c in dataset.verify_row(row)] == ["ERROR [5/A2] row: TypeError: injected"]


def _geometry_row_expecting(**expects):
    row = next(r for r in dataset.load_rows() if (r.table, r.label) == ("4", "geo/k[x,y,z]:(x^2)"))
    return dataclasses.replace(row, expects={**row.expects, **expects})


def test_bad_geometry_data_fails_its_check_alone():
    # an unknown sigma form fails the sigma check; the component line stays
    row = _geometry_row_expecting(sigma_line=["rotate"])
    assert [c.line() for c in dataset.verify_row(row)] == [
        "PASS [4/geo/k[x,y,z]:(x^2)] component(x)",
        "FAIL [4/geo/k[x,y,z]:(x^2)] sigma_rotate: BadRowData: unknown sigma form rotate",
    ]
    # a component that is not a line fails alone; the next one is still checked
    row = _geometry_row_expecting(component=["line 0", "line x^2", "line x"])
    assert [c.line() for c in dataset.verify_row(row)] == [
        "FAIL [4/geo/k[x,y,z]:(x^2)] component(0): BadRowData: "
        "0 = 0 is not a line in the projective plane",
        "FAIL [4/geo/k[x,y,z]:(x^2)] component(x^2): BadRowData: "
        "x^2 = 0 is not a line in the projective plane",
        "PASS [4/geo/k[x,y,z]:(x^2)] component(x)",
        "PASS [4/geo/k[x,y,z]:(x^2)] sigma_identity",
    ]
    # y = 0 and x*y = 0 are not in the point scheme x = 0: the minors are not
    # multiples of y, and (1:0:0), where the section lines meet y = 0, has no image
    for comp, form in (("line y", "y"), ("conic x*y", "x*y")):
        row = _geometry_row_expecting(component=[comp])
        assert [c.line() for c in dataset.verify_row(row)] == [
            f"FAIL [4/geo/k[x,y,z]:(x^2)] component({form})",
            "FAIL [4/geo/k[x,y,z]:(x^2)] sigma_identity: PointNotOnScheme: no image for (1, 0, 0)",
        ]
    # a kind other than line or conic is bad row data
    row = _geometry_row_expecting(component=["plane x"])
    assert [c.line() for c in dataset.verify_row(row)] == [
        "FAIL [4/geo/k[x,y,z]:(x^2)] component(x): BadRowData: "
        "x = 0 is not a plane in the projective plane",
    ]
    # a conic with no point over the field has no sample for the sigma check
    row = _geometry_row_expecting(component=["conic x^2 + y^2 + z^2"])
    assert [c.line() for c in dataset.verify_row(row)] == [
        "FAIL [4/geo/k[x,y,z]:(x^2)] component(x^2 + y^2 + z^2)",
        "FAIL [4/geo/k[x,y,z]:(x^2)] sigma_identity: no point of the component over the field",
    ]


def _shipped_components():
    """(row, component form g) for every component claimed in table 4."""
    out = []
    for row in dataset.load_rows():
        for comp in row.expect("component") if row.table == "4" else ():
            kind, _, expr = comp.partition(" ")
            out.append((row, dataset._component_form(kind, parse_poly(expr, row.ambient))))
    return out


def test_component_division_matches_sympy():
    # for one divisor g, the remainder of reduce_poly is zero exactly when g
    # divides; sympy's rem decides the same over the row's field, on the
    # shipped components (all divide) and on y and x*y (no minor divides)
    import sympy

    comps = _shipped_components()
    assert len(comps) == 6
    row = comps[0][0]
    comps += [(row, dataset._component_form(k, parse_poly(e, row.ambient))) for k, e in (("line", "y"), ("conic", "x*y"))]
    gens = sympy.symbols("x y z")
    verdicts = []
    for row, g in comps:
        K = geometry._domain(row.spec)[0]

        def sym(p):
            return sympy.Poly.from_dict({m: geometry.to_domain(c) for m, c in p.terms.items()}, *gens, domain=K)

        divides = [geometry.reduce_poly(m, [g]).is_zero() for m in geometry.minors_ideal(geometry.k_matrix(row.relations))]
        oracle = [sympy.rem(sym(m), sym(g)).is_zero for m in geometry.minors_ideal(geometry.k_matrix(row.relations))]
        assert divides == oracle, (row.label, g)
        verdicts.append(all(divides))
    assert verdicts == [True] * 6 + [False, False]


def test_component_samples_lie_on_their_component():
    for row, g in _shipped_components():
        minors = geometry.minors_ideal(geometry.k_matrix(row.relations))
        samples = dataset._component_samples(g)
        assert samples, (row.label, g)
        assert all(h.evaluate(list(p)).is_zero() for p in samples for h in [g, *minors]), (row.label, g)

    row, g = _shipped_components()[0]
    assert (row.label, repr(g)) == ("geo/k[x,y,z]:(x^2)", "v0")

    def point(*cs):
        return geometry.normalize_point(tuple(Scalar.of(c, row.spec) for c in cs))

    want = {point(0, 1, 0), point(0, 0, 1), point(0, 1, 1), point(0, 1, 2), point(0, 2, 1)}
    assert set(dataset._component_samples(g)) == want
    # the conic x^2 + y^2 + z^2 over Q(i): (1:i:0), (1:-i:0), (1:0:i), (1:0:-i)
    row, g = next(c for c in _shipped_components() if c[0].label == "geo/k[x,y,z]:(x^2+y^2+z^2)")
    i = Scalar.sqrt_part(1, row.spec)
    o, z = Scalar.of(1, row.spec), Scalar.of(0, row.spec)
    assert set(dataset._component_samples(g)) == {(o, i, z), (o, -i, z), (o, z, i), (o, z, -i)}
