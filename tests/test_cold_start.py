"""Cold start: the package imports sympy on first use, not at import.

pytest has imported sympy already, so the check runs in a fresh interpreter
with PYTHONPATH=src.  That interpreter imports the CLI, loads the shipped
rows and runs hilbert, dual and cmap on a conic row and classify on a pencil
row, none of which needs a root of degree 2 or a gcd: sympy must still be
unloaded.  It then takes the roots of a cubic over Q(sqrt 2) and runs
pointscheme, which import sympy on first use.  Every output must equal the
same command's output in this (warm) process, and the point scheme must
equal its golden entry in tests/data/cli_report.txt.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from ncconic import dataset
from ncconic.cli import main
from ncconic.presfile import PresentationFile, print_presentation

ROOT = Path(__file__).resolve().parents[1]
CONIC = ("5", "A1")
PENCIL = ("2", "pencil/k_-1[x,y]:(x^2+1,y^2+1)")

CHILD = r"""
import contextlib, io, json, sys

def loaded():
    return "sympy" in sys.modules

import ncconic.cli
from ncconic import dataset

dataset.load_rows()
report = {"after_load": loaded(), "runs": []}
for args in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = ncconic.cli.main(args, out=out)
    report["runs"].append([code, out.getvalue(), err.getvalue()])
report["after_commands"] = loaded()

from fractions import Fraction
from ncconic.geometry import univariate_roots
from ncconic.scalars import FieldSpec, Scalar

q2 = FieldSpec(2)
# (t - 1)(t^2 - 2) = t^3 - t^2 - 2 t + 2
roots, split = univariate_roots([Scalar(Fraction(c), Fraction(0), q2) for c in (2, -2, -1, 1)], q2)
report["roots"] = [str(r) for r in roots]
report["split"] = split
report["after_roots"] = loaded()
out = io.StringIO()
report["pointscheme"] = [ncconic.cli.main(["pointscheme", sys.argv[2]], out=out), out.getvalue()]
print(json.dumps(report))
"""


def _row(table: str, label: str):
    return next(r for r in dataset.load_rows() if (r.table, r.label) == (table, label))


def _write(path: Path, row, relations) -> str:
    path.write_text(print_presentation(PresentationFile(row.spec, row.ambient, relations)), encoding="utf-8")
    return str(path)


def _run(args: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args, out=out)
    return [code, out.getvalue(), err.getvalue()]


def _golden(cmd: str, table: str, label: str) -> str:
    text = (ROOT / "tests" / "data" / "cli_report.txt").read_text(encoding="utf-8")
    head = f"$ {cmd} {table}/{label}\n"
    body = text[text.index(head) + len(head) :]
    end = body.find("\n$ ")
    return body if end < 0 else body[: end + 1]


def test_commands_start_without_sympy(tmp_path):
    conic, pencil = _row(*CONIC), _row(*PENCIL)
    conic_file = _write(tmp_path / "conic.alg", conic, conic.relations)
    model = _write(tmp_path / "model.alg", pencil, pencil.relations + pencil.elems)
    commands = [["hilbert", conic_file], ["dual", conic_file], ["cmap", conic_file], ["classify", model]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands), conic_file],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["after_load"] is False
    assert report["after_commands"] is False
    assert report["runs"] == [_run(args) for args in commands]
    assert all(code == 0 for code, _, _ in report["runs"])
    # sympy arrives with the first root of degree above 1
    assert report["roots"] == ["-sqrt(2)", "sqrt(2)", "1"] and report["split"] is True
    assert report["after_roots"] is True
    code, out = report["pointscheme"]
    assert f"exit {code}\n{out}" == _golden("pointscheme", *CONIC)
