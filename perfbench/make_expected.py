"""Write perfbench/expected.json, the oracle the benchmark checks outputs against.

    python3 perfbench/make_expected.py

It records, from the package as it stands:
  - the `verify` report: a digest of each row's lines, a digest of all sorted
    lines, and the PASS/FAIL/SKIP/NOTE counts;
  - dim Z(S)_3 for each checkable table-3 algebra, in table coordinates.
Regenerate it only for a deliberate, logged change of the report.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ncconic import dataset, elements, galgebra  # noqa: E402
from workloads import deep_rows, line_digest, row_key  # noqa: E402


def main() -> None:
    rows = dataset.load_rows()
    per_row, lines = {}, []
    for row in rows:
        got = [c.line() for c in dataset.verify_row(row)]
        per_row[row_key(row)] = line_digest(got)
        lines.extend(got)
    counts = Counter(ln.split(" ", 1)[0] for ln in lines)
    center3 = {}
    for row in deep_rows(rows):
        if row.table == "3":
            S = galgebra.build(galgebra.Presentation(row.ambient, row.relations, row.label), 4)
            center3[row_key(row)] = len(elements.center_degree(S, 3))
    expected = {
        "verify": {
            "counts": {s: counts.get(s, 0) for s in ("PASS", "FAIL", "SKIP", "NOTE")},
            "digest": line_digest(lines),
            "rows": per_row,
        },
        "center3": center3,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(expected["verify"]["counts"], expected["verify"]["digest"])


if __name__ == "__main__":
    main()
