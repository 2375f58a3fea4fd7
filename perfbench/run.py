"""Benchmark of the ncconic package: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify_tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` of that checkout and nothing is installed.  With `--trace 0` the run
times whole passes over the workload's inputs until `--seconds` would be
exceeded (always at least one pass) and prints the end-to-end metrics.  With
`--trace 1` it runs one pass untraced and the same pass traced, and prints
the per-layer metrics.  Every operation's output is checked against the
oracle in `workloads.py` and `expected.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it carries
the environment record.  Both, and in traced runs every span, are also
written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

# Time to import the whole package and read the shipped tables, in a fresh
# interpreter: what every `ncconic` command pays before it computes.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ncconic.cli
from ncconic import dataset
dataset.load_rows()
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "elements.find_normal_degree1.calls": "count",
    "elements.find_normal_degree1.self_s": "s",
    "elements.find_normal_degree1.distinct_ratio": "ratio",
    "elements.regularity_check.calls": "count",
    "elements.regularity_check.self_s": "s",
    "elements.normalize_check.calls": "count",
    "elements.center_degree.self_s": "s",
    "galgebra.quotient.calls": "count",
    "galgebra.quotient.self_s": "s",
    "geometry.eliminate_small.calls": "count",
    "geometry.eliminate_small.self_s": "s",
    "geometry.eliminate_small.complete_ratio": "ratio",
    "geometry.buchberger.calls": "count",
    "geometry.buchberger.self_s": "s",
    "geometry.reduce_poly.calls": "count",
    "geometry.univariate_roots.calls": "count",
    "geometry.univariate_roots.self_s": "s",
    "geometry.solve_projective.self_s": "s",
    "rewrite.complete.calls": "count",
    "rewrite.complete.self_s": "s",
    "rewrite.complete.rules_out": "count",
    "rewrite.normal_form.calls": "count",
    "rewrite.normal_form.self_s": "s",
    "rewrite.graded_basis.self_s": "s",
    "galgebra.build.calls": "count",
    "galgebra.build.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.kernel_basis.calls": "count",
    "linalg.solve_linear.calls": "count",
    "scalars.Scalar.created": "count",
    "findim.is_frobenius.calls": "count",
    "findim.is_frobenius.self_s": "s",
    "findim.is_frobenius.distinct_ratio": "ratio",
    "findim.classify.self_s": "s",
    "findim.from_presentation.self_s": "s",
    "cmap.compute_C.calls": "count",
    "cmap.compute_C.self_s": "s",
    "cmap.compute_C.dehomogenize_share": "ratio",
    "quadratic.quadratic_dual.self_s": "s",
    "quadratic.koszul_series_check.self_s": "s",
    "homog.dehomogenize_algebra.self_s": "s",
    "homog.localized_zero_part.self_s": "s",
    "homog.is_strongly_regular_normal.self_s": "s",
    "presfile.parse.self_s": "s",
    "cli.main.self_s": "s",
    "dataset.load_rows.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Per-layer ratios: numerator tally (or distinct-key count) over calls.
RATIOS = {
    "geometry.eliminate_small.complete_ratio": "geometry.eliminate_small.complete",
    "cmap.compute_C.dehomogenize_share": "cmap.compute_C.dehomogenize",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_package():
    init = SRC / "ncconic" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import ncconic

    if Path(ncconic.__file__).resolve() != init.resolve():
        raise BenchError(f"imported ncconic from {ncconic.__file__}, not from {SRC}")


def setup_seconds() -> tuple[list[float], list[float]]:
    """(wall, scaled) set-up times of SETUP_SAMPLES fresh interpreters.

    The speed probe runs here, in the warm parent, right before and right
    after each child: a probe run first thing in a fresh interpreter reads
    1.5 times slower than in a warm one."""
    from speed import PROBE_REF_S, probe

    wall, scaled = [], []
    probe()  # the first run in a process is slow, as in the children
    before = probe()
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if res.returncode != 0:
            raise BenchError(f"set-up child failed: {res.stderr.strip()[-400:]}")
        after = probe()
        wall.append(float(res.stdout.strip()))
        scaled.append(wall[-1] * PROBE_REF_S / ((before + after) / 2))
        before = after
    return wall, scaled


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "ncconic"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".rows")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return res.stdout.strip() or None


def environment(loadavg) -> dict:
    import sympy

    return {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": [round(x, 2) for x in loadavg],
    }


def spread(values: list[float]) -> float | None:
    """(max - min) / median, or None for fewer than two values."""
    if len(values) < 2:
        return None
    return (max(values) - min(values)) / statistics.median(values)


def execute(p, tracer=None):
    """Run a pass's tasks; (recorder, pass-level oracle errors)."""
    from workloads import Recorder

    rec = Recorder(tracer=tracer)
    for task in p.tasks:
        task(rec)
    return rec, (p.finish() if p.finish else [])


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution over
    their ranks.  A single order statistic jumped by a quarter between runs
    where the latencies have a gap (cheap rows below the median, conic rows
    above it); the weighted mean does not."""
    from mpmath import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [float(betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def latency_metrics(times: list[float]) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1000 * hd_quantile(times, 0.5),
        "op_p90_ms": 1000 * hd_quantile(times, 0.9),
    }


def timed_run(make, seed, seconds, work, expected) -> dict:
    from ncconic import dataset

    passes = []
    start = time.perf_counter()
    while True:
        p = make(dataset.load_rows(), seed, len(passes), work, expected)
        rec, errors = execute(p)
        passes.append((p, rec, errors))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    scaled = [x for _, rec, _ in passes for x in rec.scaled]
    wall = [x for _, rec, _ in passes for x in rec.wall]
    metrics = latency_metrics(scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_pass = [len(rec.scaled) / sum(rec.scaled) for _, rec, _ in passes]
    probes = statistics.quantiles([x for _, rec, _ in passes for x in rec.probes], n=4)
    return {
        "metrics": metrics,
        "samples": dict.fromkeys(("ops_per_s", "op_p50_ms", "op_p90_ms"), len(scaled))
        | {"peak_rss_mb": 1},
        "wall_metrics": latency_metrics(wall),
        "attempted": len(scaled),
        "failures": [f for _, rec, _ in passes for f in rec.failures],
        "pass_errors": [e for _, _, errors in passes for e in errors],
        "passes": len(passes),
        "pass_ops_per_s": per_pass,
        "pass_spread": spread(per_pass),
        # how much the machine's speed moved during the run
        "probe_iqr_over_median": (probes[2] - probes[0]) / probes[1],
        "non_table_share": statistics.mean(p.non_table_share for p, _, _ in passes),
    }


def traced_run(make, seed, work, expected, spans_path) -> dict:
    from ncconic import dataset
    from spans import Tracer

    p = make(dataset.load_rows(), seed, 0, work, expected)
    plain, errors = execute(p)
    # The same inputs again, generated before tracing starts so that the
    # harness's own calls into the package are not counted.
    again = make(dataset.load_rows(), seed, 0, work, expected)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = -1
        dataset.load_rows()
        traced, traced_errors = execute(again, tracer)
    finally:
        tracer.uninstall()
    overhead = sum(traced.scaled) / sum(plain.scaled)
    metrics = per_layer_metrics(tracer, overhead)
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "samples": {name: 1 for name in metrics},
        "attempted": len(plain.scaled) + len(traced.scaled),
        "failures": plain.failures + traced.failures,
        "pass_errors": errors + traced_errors,
        "passes": 2,
        "spans": len(tracer.spans),
        "counts": tracer.call_counts() | {"scalars.Scalar.created": tracer.scalars_created},
        "non_table_share": p.non_table_share,
    }


def per_layer_metrics(tracer, overhead: float) -> dict:
    calls = tracer.call_counts()
    self_s = tracer.self_times()
    out = {}
    for name in PER_LAYER:
        fn, _, what = name.rpartition(".")
        if name == "trace.overhead_ratio":
            out[name] = overhead
        elif name == "scalars.Scalar.created":
            out[name] = tracer.scalars_created
        elif what == "calls":
            out[name] = calls[fn]
        elif what == "self_s":
            out[name] = self_s[fn]
        elif what == "distinct_ratio":
            out[name] = len(tracer.keys[fn]) / calls[fn] if calls[fn] else 0.0
        elif name in RATIOS:
            out[name] = tracer.tallies[RATIOS[name]] / calls[fn] if calls[fn] else 0.0
        else:
            out[name] = tracer.tallies[name]
    return out


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_package()
        import workloads

        make = workloads.WORKLOADS.get(args.workload)
        if make is None:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        setup_wall, setup = setup_seconds()
        env = environment(loadavg)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"inputs-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            res = traced_run(make, args.seed, work, expected, OUT / f"spans-{tag}.csv.gz")
            units = PER_LAYER
        else:
            res = timed_run(make, args.seed, args.seconds, work, expected)
            res["metrics"] = {"setup_s": statistics.median(setup)} | res["metrics"]
            res["samples"]["setup_s"] = len(setup)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(res["failures"])
    correct = failed == 0 and not res["pass_errors"]
    record = env | {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall,
        "setup_spread": spread(setup),
        "failed_ratio": failed / res["attempted"],
    } | {k: v for k, v in res.items() if k not in ("metrics", "samples")}

    for name, unit in units.items():
        print(f"{name:48s} {res['metrics'][name]:>16.6g} {unit:6s} n={res['samples'][name]}")
    for line in (res["failures"] + res["pass_errors"])[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {n: {"value": res["metrics"][n], "unit": u} for n, u in units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
