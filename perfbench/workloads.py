"""The three workloads: seeded inputs, the operations run on them, and the
oracle each operation's output is checked against.

A workload pass is a list of tasks; a task runs one or more operations in
order through a `Recorder`, which times each operation and records whether
its output matched the oracle.  The package sees only the generated inputs:
table rows (verify_tables), presentation files (cli_generic) and
presentations (deep_truncation).

Coordinate changes.  Each row gets one fixed generic change of coordinates,
an invertible matrix with entries in {-1, 1} drawn from the row's name, and
the seed chooses the signs of the new coordinates and the order of the
operations.  A sign change rescales every rewriting rule alike, so the work
is the same for every seed while the polynomials the package sees differ.
Changes drawn afresh from each seed made the work itself vary: the cost of
completion at truncation 8 is heavy-tailed in the coordinates (the same 21
conics took 1.9 s to 9.9 s across four seeds), and the CLI pass's 90th
percentile moved by a tenth.  Zero entries are left out so that no input
keeps the sparse shape of the table coordinates; with them about a third of
the entries vanish and many inputs stay nearly monomial.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ncconic import cli, dataset, elements, galgebra
from ncconic.findim import FrobeniusClass
from ncconic.linalg import rank
from ncconic.presfile import parse_poly, print_poly
from ncconic.scalars import Scalar, zero
from speed import PROBE_REF_S, probe

H_CONIC = "1,3,5,7,9,11,13"
H_CONIC_DUAL = "1,3,4,4,4,4,4"
DEEP_TRUNCATION = 8
H_CONIC_DEEP = [1, 3, 5, 7, 9, 11, 13, 15, 17]
# Conic rows taken, in table order, by every workload that uses a subset of them.
CLI_CONIC_STRIDE = 4
DEEP_CONIC_STRIDE = 4


def row_key(row) -> str:
    return f"{row.table}/{row.label}"


def line_digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


@dataclass
class Recorder:
    """Times each operation and checks its result against the oracle.

    A speed probe runs before the first operation and after each one, so
    `probes[i]` and `probes[i + 1]` bracket operation i (see speed.py)."""

    tracer: object = None  # a spans.Tracer told which operation is running
    wall: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def op(self, label: str, fn, check, *args):
        if not self.probes:
            self.probes.append(probe())
        if self.tracer is not None:
            self.tracer.op = len(self.wall)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
            why = None
        except Exception as e:  # an unexpected raise is a failed operation
            result, why = None, f"raised {type(e).__name__}: {e}"
        self.wall.append(time.perf_counter() - t0)
        self.probes.append(probe())
        if why is None:
            why = check(result)
        if why:
            self.failures.append(f"{label}: {why}")
        return result

    @property
    def scaled(self) -> list[float]:
        """Wall times scaled to the reference speed.  The slowdown during
        operation i is taken as the mean of the six probes nearest to it,
        three on each side: one probe reading is jittery, and when the
        machine flips between fast and slow states the time-average of the
        slowdown is what stretches the operation.  Over eight identical
        verify_tables passes the spread (IQR/median) of ops_per_s, p50 and
        p90 was 0.04, 0.04, 0.05 with this mean, 0.08, 0.05, 0.07 with the
        median of the same probes, and 0.25, 0.22, 0.34 unscaled."""
        p = self.probes
        return [
            dt * PROBE_REF_S / statistics.fmean(p[max(0, i - 2) : i + 4])
            for i, dt in enumerate(self.wall)
        ]


@dataclass
class Pass:
    tasks: list
    non_table_share: float
    finish: object = None  # pass-level oracle, run after every task


def _pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def signed_generic_change(row, rng: random.Random) -> list[list[Scalar]]:
    """The row's fixed generic change of coordinates, new coordinates signed by rng."""
    n, spec = row.ambient.n, row.spec
    draw = random.Random(row_key(row))
    while True:  # singular draws are rejected
        g = [[Scalar.of(draw.choice((-1, 1)), spec) for _ in range(n)] for _ in range(n)]
        if rank(g, spec) == n:
            break
    signs = [Scalar.of(rng.choice((-1, 1)), spec) for _ in range(n)]
    return [[x * s for x, s in zip(r, signs)] for r in g]


def is_monomial(m) -> bool:
    """A permutation times a diagonal matrix keeps the table's sparse coordinates."""
    return all(sum(not x.is_zero() for x in r) == 1 for r in m) and all(
        sum(not r[j].is_zero() for r in m) == 1 for j in range(len(m))
    )


def expected_class(row) -> str | None:
    """str() of the FrobeniusClass that dataset._class_matches would accept."""
    want = row.expect("class")
    if not want:
        return None
    label, *pair = want[0].split()
    if not pair:
        return label
    lam = sorted(
        (parse_poly(t, row.ambient).terms.get((), zero(row.spec)) for t in pair),
        key=lambda s: (s.a, s.b),
    )
    return str(FrobeniusClass(label, tuple(lam)))


# -- verify_tables ------------------------------------------------------------------


def verify_tables(rows, seed: int, index: int, work: Path, expected: dict) -> Pass:
    order = list(rows)
    _pass_rng(seed, index).shuffle(order)
    want_rows = expected["verify"]["rows"]
    lines: list[str] = []

    def task(row):
        key = row_key(row)

        def check(results):
            got = [c.line() for c in results]
            lines.extend(got)
            if line_digest(got) != want_rows.get(key):
                bad = [ln for ln in got if not ln.startswith(("PASS", "SKIP", "NOTE"))]
                return f"report lines differ from the recorded ones; not passing: {bad[:2]}"
            return None

        return lambda rec: rec.op(key, dataset.verify_row, check, row)

    def finish() -> list[str]:
        want = expected["verify"]
        counts = Counter(ln.split(" ", 1)[0] for ln in lines)
        got_counts = {s: counts.get(s, 0) for s in want["counts"]}
        errors = []
        if got_counts != want["counts"]:
            errors.append(f"report counts {got_counts} != {want['counts']}")
        if line_digest(lines) != want["digest"]:
            errors.append("digest of the sorted report lines differs")
        return errors

    return Pass([task(r) for r in order], 0.0, finish)


# -- cli_generic --------------------------------------------------------------------


def run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(args, out=out)
    return code, out.getvalue(), err.getvalue()


def _write(path: Path, row, relations, elems=()) -> str:
    text = [f"field: {row.spec}", "gens: " + " ".join(row.ambient.names)]
    text += ["rel: " + print_poly(r) for r in relations]
    text += ["elem: " + print_poly(e) for e in elems]
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return str(path)


def _expect(code: int, pred=None, what: str = ""):
    def check(res):
        got, out, err = res
        if got != code:
            return f"exit {got}, want {code}: {err.strip()[:160]}"
        if pred is not None and not pred(out, err):
            return f"{what}; got {out.strip()[-160:]!r}"
        return None

    return check


def _gens_count(k: int):
    return lambda out, err: any(
        ln.startswith("gens:") and len(ln.split()) == k + 1 for ln in out.splitlines()
    )


def _points_line(count: int | None, complete: bool):
    flag = "yes" if complete else "no"

    def pred(out, err):
        for ln in out.splitlines():
            if ln.startswith("points: "):
                n, _, rest = ln[len("points: ") :].partition(" ")
                return rest == f"(complete over field: {flag})" and (
                    count is None or int(n) == count
                )
        return False

    return pred


def _conic_tasks(row, f: str, key: str):
    want_class = expected_class(row)
    dual = f + ".dual"

    def dual_then_write(rec):
        res = rec.op(f"{key} dual", run_cli, _expect(0), ["dual", f])
        Path(dual).write_text(res[1] if res else "", encoding="utf-8")

    def cmap_ok(out, err):
        lines = out.splitlines()
        return "dim 4" in lines and f"class: {want_class}" in lines

    steps = [
        lambda rec: rec.op(f"{key} hilbert", run_cli,
                           _expect(0, lambda o, e: o.strip() == H_CONIC, H_CONIC),
                           ["hilbert", f]),
        dual_then_write,
        lambda rec: rec.op(f"{key} hilbert(dual)", run_cli,
                           _expect(0, lambda o, e: o.strip() == H_CONIC_DUAL, H_CONIC_DUAL),
                           ["hilbert", dual]),
        lambda rec: rec.op(f"{key} normal1(dual)", run_cli,
                           _expect(0, lambda o, e: o.startswith("complete: "), "complete: line"),
                           ["normal1", dual]),
        lambda rec: rec.op(f"{key} cmap", run_cli,
                           _expect(0, cmap_ok, f"dim 4 and class {want_class}"), ["cmap", f]),
    ]
    points = row.expect1("points")
    if points is not None:
        steps.append(
            lambda rec: rec.op(f"{key} pointscheme", run_cli,
                               _expect(0, _points_line(int(points), True), f"{points} points"),
                               ["pointscheme", f])
        )
    return steps


def _pencil_tasks(row, f: str, model: str, key: str):
    strong = (row.expect1("strong") or "yes") == "yes"
    four = int(row.expect1("dim") or 4) == 4
    want_class = expected_class(row)
    n = row.ambient.n
    classify = (
        _expect(0, lambda o, e: f"class: {want_class}" in o.splitlines(), f"class {want_class}")
        if four
        else _expect(1, lambda o, e: "NotFourDimensional" in e, "NotFourDimensional")
    )
    nabla = (
        _expect(0, _gens_count(3), "3 generators")
        if strong
        else _expect(1, lambda o, e: "NotStronglyRegular" in e, "NotStronglyRegular")
    )
    return [
        lambda rec: rec.op(f"{key} homogenize", run_cli,
                           _expect(0, _gens_count(n + 1), f"{n + 1} generators"), ["homogenize", f]),
        lambda rec: rec.op(f"{key} classify", run_cli, classify, ["classify", model]),
        lambda rec: rec.op(f"{key} nabla", run_cli, nabla, ["nabla", f]),
    ]


def _center_tasks(row, f: str, key: str):
    want = row.expect("center")
    dim = 0 if want == ["EMPTY"] else len(want)

    def pred(out, err):
        lines = [ln for ln in out.splitlines() if ln.strip()]
        return (lines == ["0"]) if dim == 0 else len(lines) == dim

    return [
        lambda rec: rec.op(f"{key} center", run_cli, _expect(0, pred, f"dim {dim}"),
                           ["center", f, "--deg", "2"])
    ]


def _geometry_tasks(row, f: str, key: str):
    points = row.expect1("points")
    pred = (
        _points_line(int(points), True)
        if points is not None
        else _points_line(None, False)  # a positive-dimensional scheme is never complete
    )
    return [
        lambda rec: rec.op(f"{key} pointscheme", run_cli,
                           _expect(0, pred, f"points {points or 'incomplete'}"),
                           ["pointscheme", f])
    ]


def _checkable(row) -> bool:
    return not (row.skip and row.kind != "missing")


def cli_rows(rows) -> list:
    conics = [r for r in rows if r.table in dataset.CONIC_TABLES and _checkable(r)]
    others = [r for r in rows if r.table in ("2", "3", "4") and _checkable(r)]
    return conics[::CLI_CONIC_STRIDE] + others


def cli_generic(rows, seed: int, index: int, work: Path, expected: dict) -> Pass:
    rng = _pass_rng(seed, index)
    tasks, moved = [], 0
    chosen = cli_rows(rows)
    rng.shuffle(chosen)
    for i, row in enumerate(chosen):
        m = signed_generic_change(row, rng)
        moved += not is_monomial(m)
        rels = [r.map_linear(m) for r in row.relations]
        elems = [e.map_linear(m) for e in row.elems]
        key = row_key(row)
        f = _write(work / f"p{index}-{i}.pres", row, rels, elems)
        if row.table in dataset.CONIC_TABLES:
            tasks.extend(_conic_tasks(row, f, key))
        elif row.table == "2":
            model = _write(work / f"p{index}-{i}.model.pres", row, rels + elems)
            tasks.extend(_pencil_tasks(row, f, model, key))
        elif row.table == "3":
            tasks.extend(_center_tasks(row, f, key))
        else:
            tasks.extend(_geometry_tasks(row, f, key))
    return Pass(tasks, moved / len(chosen))


# -- deep_truncation ----------------------------------------------------------------


def deep_rows(rows) -> list:
    conics = [r for r in rows if r.table in dataset.CONIC_TABLES and _checkable(r)]
    centers = [r for r in rows if r.table == "3" and _checkable(r)]
    return conics[::DEEP_CONIC_STRIDE] + centers


def _build_center(pres):
    S = galgebra.build(pres, 4)
    return S.dims[:4], elements.center_degree(S, 3)


def deep_truncation(rows, seed: int, index: int, work: Path, expected: dict) -> Pass:
    rng = _pass_rng(seed, index)
    want_center = expected["center3"]
    tasks, moved = [], 0
    chosen = deep_rows(rows)
    for row in chosen:
        m = signed_generic_change(row, rng)
        moved += not is_monomial(m)
        pres = galgebra.Presentation(row.ambient, [r.map_linear(m) for r in row.relations], row.label)
        key = row_key(row)
        if row.table == "3":
            dim = want_center[key]

            def check(res, dim=dim):
                dims, basis = res
                if dims != [1, 3, 6, 10]:
                    return f"Hilbert prefix {dims}"
                return None if len(basis) == dim else f"dim Z_3 = {len(basis)}, want {dim}"

            tasks.append(lambda rec, k=key, p=pres, c=check: rec.op(f"{k} center3", _build_center, c, p))
        else:

            def check(A):
                got = A.dims[: DEEP_TRUNCATION + 1]
                return None if got == H_CONIC_DEEP else f"Hilbert prefix {got}"

            tasks.append(
                lambda rec, k=key, p=pres, c=check: rec.op(
                    f"{k} build{DEEP_TRUNCATION}", galgebra.build, c, p, DEEP_TRUNCATION
                )
            )
    rng.shuffle(tasks)
    return Pass(tasks, moved / len(chosen))


WORKLOADS = {
    "verify_tables": verify_tables,
    "cli_generic": cli_generic,
    "deep_truncation": deep_truncation,
}
