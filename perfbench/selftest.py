"""Self-checks of the benchmark; none of them times anything.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the metrics and units run.py prints.
2. The oracle rejects wrong outputs: each workload, run against a
   deliberately wrong expectation, records a failure.
3. The traced operation counts repeat exactly: for each workload a slice of
   the traced pass is run in two fresh interpreters with different
   PYTHONHASHSEED values, and every call count must agree.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SLICE = 40  # tasks per workload in the count check


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_benchmark_json() -> None:
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(declared == run.END_TO_END, f"end_to_end {declared} != {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(declared == run.PER_LAYER, "per_layer metrics differ from run.PER_LAYER")
    import workloads

    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload names differ")


def _first_tasks(name: str, seed: int, expected: dict, work: Path, tamper=None):
    from ncconic import dataset

    import workloads

    rows = dataset.load_rows()
    if tamper is not None:
        tamper(rows, expected)
    return workloads.WORKLOADS[name](rows, seed, 0, work, expected).tasks


def check_oracle(work: Path) -> None:
    import workloads

    def wrong_verify(rows, expected):
        for key in expected["verify"]["rows"]:
            expected["verify"]["rows"][key] = "0" * 64

    def wrong_class(rows, expected):
        for row in rows:
            if row.expect("class"):
                row.expects["class"] = ["NoSuchClass"]

    def wrong_center(rows, expected):
        for key in expected["center3"]:
            expected["center3"][key] += 1

    def wrong_hilbert(rows, expected):
        workloads.H_CONIC_DEEP = workloads.H_CONIC_DEEP[:-1] + [0]

    cases = [
        ("verify_tables", wrong_verify),
        ("cli_generic", wrong_class),
        ("deep_truncation", wrong_center),
        ("deep_truncation", wrong_hilbert),
    ]
    hilbert = workloads.H_CONIC_DEEP
    for name, tamper in cases:
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        rec = workloads.Recorder()
        try:
            for task in _first_tasks(name, 1, expected, work, tamper):
                task(rec)
                if rec.failures:
                    break
        finally:
            workloads.H_CONIC_DEEP = hilbert
        check(bool(rec.failures), f"{name}: {tamper.__name__} went undetected")
        print(f"ok oracle {name} rejects {tamper.__name__}: {rec.failures[0][:90]}")


def counts_child(name: str, seed: int, work: Path) -> None:
    """Print the traced call counts of the first SLICE tasks of one pass."""
    import workloads
    from spans import Tracer

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    tasks = _first_tasks(name, seed, expected, work)[:SLICE]
    tracer = Tracer()
    tracer.install()
    try:
        rec = workloads.Recorder(tracer=tracer)
        for task in tasks:
            task(rec)
    finally:
        tracer.uninstall()
    counts = tracer.call_counts() | {"scalars.Scalar.created": tracer.scalars_created}
    print(json.dumps({"counts": counts, "failures": rec.failures}))


def check_counts(work: Path) -> None:
    for name in ("verify_tables", "cli_generic", "deep_truncation"):
        seen = []
        for hashseed in ("0", "1"):
            env = os.environ | {"PYTHONHASHSEED": hashseed}
            res = subprocess.run(
                [sys.executable, __file__, "--counts", name, "3", str(work)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=False,
            )
            check(res.returncode == 0, res.stderr[-800:])
            seen.append(json.loads(res.stdout.strip().splitlines()[-1]))
        a, b = seen
        check(not a["failures"] and not b["failures"], str((a["failures"] + b["failures"])[:3]))
        diff = {k: (a["counts"][k], b["counts"][k]) for k in a["counts"] if a["counts"][k] != b["counts"][k]}
        check(not diff, f"{name}: counts differ between interpreters: {diff}")
        busy = sum(1 for v in a["counts"].values() if v)
        print(f"ok counts {name}: {busy} counters repeat exactly, "
              f"{a['counts']['scalars.Scalar.created']} Scalar constructions")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:2] == ["--counts"]:
        counts_child(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
        return 0
    work = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_benchmark_json()
        print("ok BENCHMARK.json matches run.py")
        check_oracle(work)
        check_counts(work)
    except CheckFailed as e:
        print(f"FAILED {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
