import io

import pytest
from hypothesis import given, settings, strategies as st

from ncconic import cli
from ncconic.cli import main
from ncconic.freealg import Ambient, NcPoly
from ncconic.presfile import (
    PresSyntaxError,
    parse,
    parse_poly,
    print_poly,
    print_presentation,
)
from ncconic.scalars import QQ, Scalar

F1_TEXT = """label: F1
field: Q
gens: x y z
rel: x*y + y*x
rel: y*z + z*y
rel: z*x + x*z
rel: x^2
"""


def test_parse_examples():
    pf = parse("field: Q\ngens: x y z\nrel: x*y + y*x\n")
    assert len(pf.relations) == 1
    assert str(pf.relations[0]) == "y*x + x*y"
    pf2 = parse("field: Q\ngens: x y z\nrel: x^2 + y(x+z)\n")
    assert str(pf2.relations[0]) == "y*z + y*x + x^2"
    pf3 = parse("field: Q(sqrt 3)\ngens: x y\nrel: (2/sqrt(3))*y^2\n")
    c = list(pf3.relations[0].terms.values())[0]
    assert (c * c).a == 4 / (1 * 3) * 3 / 3 * 3 or str(c) == "2/3*sqrt(3)"


def test_parse_error_positions():
    with pytest.raises(PresSyntaxError) as e:
        parse("field: Q\ngens: x y\nrel: x*q + y\n")
    assert e.value.line == 3
    with pytest.raises(PresSyntaxError):
        parse("field: Q\ngens: x y\nrel: x*\n")
    with pytest.raises(PresSyntaxError):
        parse("field: What\ngens: x\n")
    with pytest.raises(PresSyntaxError):
        parse("field: Q\ngens: x y\nrel: i*x\n")  # i needs Q(i)
    with pytest.raises(PresSyntaxError) as e:
        parse("field: Q\ngens: x\nrel: x^2\ngens: y z\n")  # relations in two ambients
    assert e.value.line == 4
    with pytest.raises(PresSyntaxError) as e:
        parse("field: Q\ngens: x\nfield: Q(i)\nrel: x^2\n")  # a field apart from its ambient
    assert e.value.line == 3


def test_expect_directives_are_keyed_without_the_prefix():
    pf = parse("field: Q\ngens: x\nexpect_class: F1\nexpect_dual: x^2\nexpect_dual: 0\n")
    assert pf.expects == {"class": ["F1"], "dual": ["x^2", "0"]}
    with pytest.raises(PresSyntaxError) as e:
        parse("field: Q\ngens: x\nexpect: F1\n")
    assert e.value.line == 3


def test_multi_letter_identifiers_are_single_names():
    pf = parse("field: Q\ngens: yx y x\nrel: yx - y*x\n")
    r = pf.relations[0]
    assert (0,) in r.terms  # the generator literally named "yx"


def test_print_parse_roundtrip():
    pf = parse(F1_TEXT)
    text = print_presentation(pf)
    pf2 = parse(text)
    assert [print_poly(r) for r in pf2.relations] == [print_poly(r) for r in pf.relations]
    assert print_presentation(pf2) == text


words3 = st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=4).map(tuple)
polys3 = st.lists(
    st.tuples(words3, st.integers(min_value=-9, max_value=9)), min_size=1, max_size=5
).map(
    lambda ts: NcPoly(
        Ambient(("x", "y", "z"), QQ),
        {w: Scalar.of(c, QQ) for w, c in dict(ts).items() if c},
    )
)


@given(p=polys3)
@settings(max_examples=80)
def test_printer_roundtrip_property(p):
    amb = Ambient(("x", "y", "z"), QQ)
    if p.is_zero():
        return
    assert parse_poly(print_poly(p), amb) == p


def run_cli(args, tmp_path=None):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


@pytest.fixture()
def f1_file(tmp_path):
    p = tmp_path / "f1.alg"
    p.write_text(F1_TEXT)
    return str(p)


def test_cli_hilbert(f1_file):
    code, out = run_cli(["hilbert", f1_file, "--max-deg", "4"])
    assert code == 0
    assert out.strip() == "1,3,5,7,9"


def test_cli_dual(f1_file):
    code, out = run_cli(["dual", f1_file])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field: Q"
    assert sum(1 for l in lines if l.startswith("rel: ")) == 5


def test_cli_basis_center_normal1(f1_file, tmp_path):
    code, out = run_cli(["basis", f1_file, "--deg", "2"])
    assert code == 0 and len(out.strip().splitlines()) == 5
    code, out = run_cli(["center", f1_file, "--deg", "2"])
    assert code == 0
    # the degree-1 search runs on the dual (where A_2 is 4-dimensional)
    dual = tmp_path / "f1dual.alg"
    dual.write_text(run_cli(["dual", f1_file])[1])
    code, out = run_cli(["normal1", str(dual)])
    assert code == 0 and "x" in out


def test_cli_cmap_classify(f1_file, tmp_path):
    code, out = run_cli(["cmap", f1_file])
    assert code == 0
    assert "class: U2V2-comm" in out
    model = tmp_path / "k4.alg"
    model.write_text("field: Q\ngens: x y\nrel: x*y - y*x\nrel: x^2 - 1\nrel: y^2 - 1\n")
    code, out = run_cli(["classify", str(model)])
    assert code == 0 and "class: K4" in out and "frobenius: yes" in out


def test_cli_nabla_delta(tmp_path, f1_file):
    pencil = tmp_path / "pencil.alg"
    pencil.write_text(
        "field: Q\ngens: x y\nrel: x*y - y*x\nelem: x^2 - 1\nelem: y^2 - 1\n"
    )
    code, out = run_cli(["nabla", str(pencil)])
    assert code == 0 and "gens: x y z" in out
    code, out = run_cli(["delta", f1_file])
    assert code == 0 and "class: U2V2-comm" in out


def test_cli_homog_dehomog(tmp_path, f1_file):
    pencil = tmp_path / "pencil.alg"
    pencil.write_text("field: Q\ngens: x y\nrel: x*y - y*x\nelem: x^2 - 1\nelem: y^2 - 1\n")
    code, out = run_cli(["homogenize", str(pencil)])
    assert code == 0 and "gens: x y z" in out
    dual = tmp_path / "dual.alg"
    run = run_cli(["dual", f1_file])
    dual.write_text(run[1])
    code, out = run_cli(["dehomogenize", str(dual), "--elem", "x"])
    assert code == 0 and out.startswith("dim 4")


def test_cli_pointscheme(tmp_path):
    p = tmp_path / "i1.alg"
    p.write_text(
        "field: Q\ngens: x y z\nrel: y*z + z*y\nrel: z*x + x*z\nrel: x*y + y*x\nrel: x^2 + y^2 + z^2\n"
    )
    code, out = run_cli(["pointscheme", str(p)])
    assert code == 0
    assert "points: 6" in out


def test_cli_verify_row():
    code, out = run_cli(["verify", "--table", "14", "--row", "H2"])
    assert code == 0
    assert "summary:" in out and "FAIL" not in out


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("field: Q\ngens: x\nrel: q\n")
    code, _ = run_cli(["hilbert", str(bad)])
    assert code == 2
    code, _ = run_cli(["hilbert", str(tmp_path / "missing.alg")])
    assert code == 2
    nonreg = tmp_path / "nr.alg"
    nonreg.write_text("field: Q\ngens: x y\nrel: x*y - y*x\nrel: x^2\n")
    code, _ = run_cli(["dehomogenize", str(nonreg), "--elem", "x"])
    assert code == 1
    # the table 2 counterexample model has dimension 3: a failed check, not a usage error
    dim3 = tmp_path / "dim3.alg"
    dim3.write_text("field: Q\ngens: x y\nrel: x*y - y*x\nrel: x^2 - y\nrel: x*y\n")
    code, _ = run_cli(["classify", str(dim3)])
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        "field: Q\ngens: x\nrel: x\nrel: x^2 - 1\n",
        "field: Q\ngens: y z\nrel: 2*y\nrel: y^2 - 1\nrel: 2*z\nrel: z*y + y*z\nrel: z^2 - 1\n",
    ],
)
def test_cli_classify_refuses_the_zero_ring(text, tmp_path, capsys):
    # the relations reduce to the constant -1: no algebra is classified
    p = tmp_path / "zero.alg"
    p.write_text(text)
    assert run_cli(["classify", str(p)]) == (1, "")
    err = capsys.readouterr().err
    assert err == "error: NotFiniteDimensionalWithinBound: presentation collapses to the zero ring\n"


def test_env_default_truncation(f1_file, monkeypatch):
    monkeypatch.setenv("NCCONIC_MAX_DEG", "5")
    code, out = run_cli(["hilbert", f1_file])
    assert code == 0
    assert out.strip() == "1,3,5,7,9,11"


def test_env_read_on_every_call(f1_file, monkeypatch):
    # the parser is built once; the environment is read by each call
    monkeypatch.setenv("NCCONIC_MAX_DEG", "3")
    assert run_cli(["hilbert", f1_file]) == (0, "1,3,5,7\n")
    monkeypatch.setenv("NCCONIC_MAX_DEG", "5")
    assert run_cli(["hilbert", f1_file]) == (0, "1,3,5,7,9,11\n")
    monkeypatch.delenv("NCCONIC_MAX_DEG")
    assert run_cli(["hilbert", f1_file, "--max-deg", "2"]) == (0, "1,3,5\n")


def test_commands_are_looked_up_per_call(f1_file, monkeypatch):
    # the cached parser binds no command: a wrapper installed after the first
    # call, as a tracer installs one, is the one that runs
    assert run_cli(["hilbert", f1_file])[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_hilbert", lambda args, out: seen.append(args.file) or 0)
    assert run_cli(["hilbert", f1_file]) == (0, "")
    assert seen == [f1_file]


def test_cli_pointscheme_three_relations(tmp_path):
    # a 3 x 3 matrix K has a single minor
    p = tmp_path / "three.alg"
    p.write_text("field: Q\ngens: x y z\nrel: x*y - y*x\nrel: y*z - z*y\nrel: x^2\n")
    code, out = run_cli(["pointscheme", str(p)])
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("minor:")] == ["minor: x^2*y"]


@pytest.mark.parametrize(
    "case",
    [
        "unknown table",
        "max-deg 1",
        "field not squarefree",
        "env not an integer",
        "normal1 on 2 generators",
        "delta on 2 generators",
        "cmap on 2 generators",
        "nabla without elems",
        "pointscheme on 2 generators",
        "pointscheme on 4 generators",
        "pointscheme with 2 relations",
        "pointscheme with a cubic relation",
        "dual with a cubic relation",
        "cmap with a cubic relation",
        "normal1 with a cubic relation",
        "normal1 with dim A_2 = 7",
        "cmap with dual dim A_2 = 2",
        "basis with a negative degree",
        "center with a negative degree",
        "normal1 with max-deg 2",
        "delta with a cubic relation",
        "hilbert with a relation that is not homogeneous",
        "dehomogenize at a zero element",
        "nabla on a degree-3 sequence",
    ],
)
def test_cli_usage_errors_exit_2(case, f1_file, tmp_path, monkeypatch, capsys):
    args, prefix = {
        "unknown table": (["verify", "--table", "99"], "usage error:"),
        "max-deg 1": (["hilbert", f1_file, "--max-deg", "1"], "usage error:"),
        "field not squarefree": (["hilbert", str(tmp_path / "sqrt4.alg")], "parse error:"),
        "env not an integer": (["hilbert", f1_file], "usage error:"),
        "normal1 on 2 generators": (["normal1", str(tmp_path / "plane.alg")], "usage error:"),
        "delta on 2 generators": (
            ["delta", str(tmp_path / "plane.alg")],
            "usage error: delta needs exactly 3 generators (got 2)",
        ),
        "cmap on 2 generators": (
            ["cmap", str(tmp_path / "plane.alg")],
            "usage error: compute_C needs dim A_1 = 3 (got 2)",
        ),
        "nabla without elems": (["nabla", str(tmp_path / "plane.alg")], "usage error: nabla needs"),
        "pointscheme on 2 generators": (
            ["pointscheme", str(tmp_path / "plane.alg")],
            "usage error: pointscheme needs exactly 3 generators (got 2)",
        ),
        "pointscheme on 4 generators": (
            ["pointscheme", str(tmp_path / "four.alg")],
            "usage error: pointscheme needs exactly 3 generators (got 4)",
        ),
        "pointscheme with 2 relations": (
            ["pointscheme", str(tmp_path / "two.alg")],
            "usage error: pointscheme needs at least 3 relations (got 2)",
        ),
        "pointscheme with a cubic relation": (
            ["pointscheme", str(tmp_path / "cubic.alg")],
            "usage error: relation x^3 is not purely quadratic",
        ),
        "dual with a cubic relation": (
            ["dual", str(tmp_path / "cubic.alg")],
            "usage error: relation x^3 is not purely quadratic",
        ),
        "cmap with a cubic relation": (
            ["cmap", str(tmp_path / "cubic.alg")],
            "usage error: relation x^3 is not purely quadratic",
        ),
        "normal1 with a cubic relation": (
            ["normal1", str(tmp_path / "cubic.alg")],
            "usage error: relation x^3 is not purely quadratic",
        ),
        "normal1 with dim A_2 = 7": (
            ["normal1", str(tmp_path / "two.alg")],
            "usage error: degree-1 search needs dim A_2 = 4 (got 7)",
        ),
        "cmap with dual dim A_2 = 2": (
            ["cmap", str(tmp_path / "two.alg")],
            "usage error: degree-1 search needs dim A_2 = 4 (got 2)",
        ),
        "basis with a negative degree": (
            ["basis", f1_file, "--deg", "-1"],
            "usage error: degree must be an integer >= 0 (got '-1')",
        ),
        "center with a negative degree": (
            ["center", f1_file, "--deg", "-1"],
            "usage error: degree must be an integer >= 0 (got '-1')",
        ),
        "normal1 with max-deg 2": (
            ["normal1", f1_file, "--max-deg", "2"],
            "usage error: truncation must be at least 3",
        ),
        "delta with a cubic relation": (
            ["delta", str(tmp_path / "cubic.alg")],
            "usage error: relation x^3 is not purely quadratic",
        ),
        "hilbert with a relation that is not homogeneous": (
            ["hilbert", str(tmp_path / "mixed.alg")],
            "usage error: relation x^2 - y is not homogeneous",
        ),
        "dehomogenize at a zero element": (
            ["dehomogenize", str(tmp_path / "line.alg"), "--elem", "x"],
            "usage error: w is zero in the algebra",
        ),
        "nabla on a degree-3 sequence": (
            ["nabla", str(tmp_path / "cubic_pencil.alg")],
            "usage error: strong regularity is checked for degree-2 sequences",
        ),
    }[case]
    (tmp_path / "sqrt4.alg").write_text("field: Q(sqrt 4)\ngens: x y\nrel: x*y - y*x\n")
    (tmp_path / "plane.alg").write_text("field: Q\ngens: x y\nrel: x*y - y*x\nrel: x^2\n")
    (tmp_path / "four.alg").write_text(
        "field: Q\ngens: w x y z\nrel: x*y - y*x\nrel: y*z - z*y\nrel: z*x - x*z\nrel: w^2\n"
    )
    (tmp_path / "two.alg").write_text("field: Q\ngens: x y z\nrel: x*y - y*x\nrel: x^2\n")
    (tmp_path / "cubic.alg").write_text(
        "field: Q\ngens: x y z\nrel: x*y - y*x\nrel: y*z - z*y\nrel: x^3\n"
    )
    (tmp_path / "mixed.alg").write_text("field: Q\ngens: x y\nrel: x*y - y*x\nrel: x^2 - y\n")
    (tmp_path / "line.alg").write_text("field: Q\ngens: x y\nrel: x*y - y*x\nrel: x\n")
    (tmp_path / "cubic_pencil.alg").write_text(
        "field: Q\ngens: x y\nrel: x*y - y*x\nelem: x^3 - 1\nelem: y^2 - 1\n"
    )
    if case == "env not an integer":
        monkeypatch.setenv("NCCONIC_MAX_DEG", "abc")
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith(prefix), err
    assert len(err.splitlines()) == 1, err


CUBIC_TEXT = "field: Q\ngens: x y\nrel: x^2*y - y*x^2\nrel: x*y^2 - y^2*x\n"


@pytest.mark.parametrize(
    "args, want",
    [
        # relations above the truncation do not touch the degrees below it
        (["hilbert", "--max-deg", "2"], "1,2,4\n"),
        (["basis", "--deg", "2"], "x^2\nx*y\ny*x\ny^2\n"),
        (["center", "--deg", "1"], "0\n"),
    ],
)
def test_cli_answers_below_the_relation_degree(args, want, tmp_path):
    p = tmp_path / "cubic.alg"
    p.write_text(CUBIC_TEXT)
    assert run_cli([args[0], str(p)] + args[1:]) == (0, want)


def test_cli_free_algebra(tmp_path, capsys):
    # no rel: line presents the free algebra, dim A_d = n^d
    p = tmp_path / "free.alg"
    p.write_text("field: Q\ngens: x y z\n")
    assert run_cli(["hilbert", str(p), "--max-deg", "6"]) == (0, "1,3,9,27,81,243,729\n")
    assert run_cli(["classify", str(p)]) == (1, "")
    assert capsys.readouterr().err.startswith("error: NotFiniteDimensionalWithinBound: ")


@pytest.mark.parametrize("cmd", ["homogenize", "nabla"])
@pytest.mark.parametrize(
    "gens, fresh", [("x y", "z"), ("y z", "z1"), ("z z1", "z2")]
)
def test_cli_homogenizing_generator_gets_a_fresh_name(cmd, gens, fresh, tmp_path):
    a, b = gens.split()
    p = tmp_path / "pencil.alg"
    p.write_text(f"field: Q\ngens: {gens}\nrel: {a}*{b} - {b}*{a}\nelem: {a}^2 - 1\nelem: {b}^2 - 1\n")
    code, out = run_cli([cmd, str(p)])
    assert code == 0
    assert f"gens: {gens} {fresh}" in out.splitlines()
