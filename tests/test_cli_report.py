"""Golden output of the two CLI commands that solve for projective points.

`pointscheme` runs on every non-skipped conic row (tables 5-15) and every
table 4 row, and `normal1` on the quadratic dual of each conic row.  The
exit code, standard output and standard error of every run are compared byte
for byte with tests/data/cli_report.txt.  After a deliberate change, rewrite
the file with

    PYTHONPATH=src python tests/test_cli_report.py > tests/data/cli_report.txt
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from ncconic import dataset
from ncconic.cli import main
from ncconic.presfile import PresentationFile, print_presentation

GOLDEN = Path(__file__).parent / "data" / "cli_report.txt"


def _run(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args, out=out)
    return code, out.getvalue(), err.getvalue()


def cli_report(workdir: Path) -> str:
    rows = [
        r
        for r in dataset.load_rows()
        if not r.skip and (r.table in dataset.CONIC_TABLES or r.table == "4")
    ]
    rows.sort(key=lambda r: (int(r.table), r.label))
    parts = []

    def record(cmd: str, row, path: Path):
        code, out, err = _run([cmd, str(path)])
        parts.append(f"$ {cmd} {row.table}/{row.label}\nexit {code}\n{out}")
        parts.extend(f"stderr: {line}\n" for line in err.splitlines())

    for k, row in enumerate(rows):
        path = workdir / f"row{k}.alg"
        text = print_presentation(PresentationFile(row.spec, row.ambient, row.relations))
        path.write_text(text, encoding="utf-8")
        record("pointscheme", row, path)
        if row.table == "4":
            continue
        code, dual_text, _ = _run(["dual", str(path)])
        assert code == 0, f"dual of {row.table}/{row.label}"
        dual = workdir / f"row{k}.dual.alg"
        dual.write_text(dual_text, encoding="utf-8")
        record("normal1", row, dual)
    return "".join(parts)


def test_cli_report_matches_golden(tmp_path):
    text = cli_report(tmp_path)
    assert sum(line.startswith("$ ") for line in text.splitlines()) == 176
    assert text == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        sys.stdout.write(cli_report(Path(d)))
