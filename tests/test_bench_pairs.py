"""scripts/bench_pairs.py on synthetic perfbench result files."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def _write_result(out_dir: Path, workload: str, seed: int, trace: int, attempted: int,
                  metrics: dict, counts: dict | None = None, commit: str = "c0",
                  seconds: float = 30.0):
    record = {"commit": commit, "source_digest": "d" + commit, "python": "3.11.7",
              "sympy": "1.14.0", "nproc": 2, "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace}
    if counts is not None:
        record["counts"] = counts
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"record": record, "result": result}))


def _e2e(ops, p50, rss):
    return {"setup_s": 0.4, "ops_per_s": ops, "op_p50_ms": p50, "op_p90_ms": 2 * p50,
            "peak_rss_mb": rss}


def test_bench_pairs_summarises_paired_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, ops, p50 in ((1, 10.0, 20.0), (2, 12.0, 18.0), (3, 11.0, 19.0)):
        _write_result(parent, "verify_tables", seed, 0, 394, _e2e(ops, p50, 61.0), commit="p")
    for seed, ops, p50 in ((1, 14.0, 15.0), (2, 11.0, 18.0), (3, 15.0, 14.0)):
        _write_result(change, "verify_tables", seed, 0, 591, _e2e(ops, p50, 62.5), commit="c")
    # a seed run on one side only is not paired
    _write_result(change, "verify_tables", 4, 0, 591, _e2e(99.0, 1.0, 1.0), commit="c")
    _write_result(parent, "verify_tables", 1, 1, 197, {"linalg.rref.self_s": 0.5},
                  {"linalg.rref": 3926, "rewrite.complete": 843}, commit="p")
    _write_result(change, "verify_tables", 1, 1, 197, {"linalg.rref.self_s": 0.4},
                  {"linalg.rref": 3926, "rewrite.complete": 840}, commit="c")
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change), "--out", str(out)],
                   check=True)
    bench = json.loads(out.read_text())

    vt = bench["workloads"]["verify_tables"]
    assert vt["seeds"] == [1, 2, 3]
    ops = vt["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert ops["change"] == {"median": 14.0, "q1": 12.5, "q3": 14.5}
    assert (ops["change_wins"], ops["pairs"], ops["better"]) == (2, 3, "higher")
    # lower is better for latency; the tie at seed 2 counts for neither side
    assert vt["metrics"]["op_p50_ms"]["change_wins"] == 2
    assert vt["metrics"]["peak_rss_mb"]["change_wins"] == 0
    assert [r["attempted"] for r in vt["runs"]["parent"]] == [394, 394, 394]
    assert [r["attempted"] for r in vt["runs"]["change"]] == [591, 591, 591]

    traced = bench["traced"]["verify_tables/seed1"]
    assert traced["per_layer"]["linalg.rref.self_s"] == {"parent": 0.5, "change": 0.4}
    assert traced["counts_changed"] == {"rewrite.complete": {"parent": 843, "change": 840}}
    assert bench["environment"]["parent"]["commit"] == "p"
    assert bench["environment"]["change"]["commit"] == "c"


def test_bench_pairs_rejects_unpaired_directories(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_result(parent, "verify_tables", 1, 0, 394, _e2e(10.0, 20.0, 61.0))
    _write_result(change, "cli_generic", 1, 0, 402, _e2e(10.0, 20.0, 61.0))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), "--out", str(tmp_path / "B.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and "no workload and seed" in proc.stderr
    assert not (tmp_path / "B.json").exists()


def _run(parent, change, out):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), "--out", str(out)],
        capture_output=True, text=True,
    )


def test_bench_pairs_rejects_a_pair_of_the_same_source(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _write_result(parent, "deep_truncation", seed, 0, 134, _e2e(20.0, 20.0, 59.0), commit="p")
    _write_result(change, "deep_truncation", 1, 0, 268, _e2e(34.0, 14.0, 59.0), commit="c")
    # the change side of seed 2 ran the parent's source
    _write_result(change, "deep_truncation", 2, 0, 134, _e2e(20.5, 20.0, 59.0), commit="p")
    proc = _run(parent, change, tmp_path / "B.json")
    assert proc.returncode == 2
    assert "deep_truncation/seed2/trace0: both sides ran source dp" in proc.stderr
    assert "seed1/trace0: both sides" not in proc.stderr
    # and the change side itself ran two sources
    assert "change side ran more than one source: dc (deep_truncation/seed1/trace0)" in proc.stderr
    assert not (tmp_path / "B.json").exists()


def test_bench_pairs_rejects_a_pair_of_different_lengths(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_result(parent, "cli_generic", 3, 0, 154, _e2e(36.0, 14.0, 60.0), commit="p")
    _write_result(change, "cli_generic", 3, 0, 154, _e2e(42.0, 12.0, 60.0), commit="c",
                  seconds=10.0)
    proc = _run(parent, change, tmp_path / "B.json")
    assert proc.returncode == 2
    assert "cli_generic/seed3/trace0: --seconds 30.0 against 10.0" in proc.stderr
    assert not (tmp_path / "B.json").exists()


def test_bench_pairs_lists_seeds_run_on_one_side_only(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 5):
        _write_result(parent, "cli_generic", seed, 0, 154, _e2e(36.0, 14.0, 60.0), commit="p")
    for seed in (1, 2, 3):
        _write_result(change, "cli_generic", seed, 0, 154, _e2e(37.0, 14.0, 60.0), commit="c")
    _write_result(change, "cli_generic", 1, 1, 154, {"linalg.rref.self_s": 0.4}, {}, commit="c")
    _write_result(change, "deep_truncation", 4, 0, 134, _e2e(20.0, 20.0, 59.0), commit="c")
    out = tmp_path / "B.json"
    proc = _run(parent, change, out)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert bench["workloads"]["cli_generic"]["seeds"] == [1, 2]
    assert bench["one_side_only"] == {
        "cli_generic": {"parent": ["seed5/trace0"], "change": ["seed1/trace1", "seed3/trace0"]},
        "deep_truncation": {"parent": [], "change": ["seed4/trace0"]},
    }
    assert "cli_generic: on the parent side only: seed5/trace0" in proc.stderr
    assert "deep_truncation: on the change side only: seed4/trace0" in proc.stderr


def test_bench_pairs_rejects_a_side_of_more_than_one_source(tmp_path):
    # a crashed run leaves an older result of another source under its name
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _write_result(parent, "verify_tables", seed, 0, 394, _e2e(10.0, 20.0, 61.0), commit="p")
    _write_result(change, "verify_tables", 1, 0, 591, _e2e(14.0, 15.0, 62.0), commit="c")
    _write_result(change, "verify_tables", 2, 0, 591, _e2e(14.0, 15.0, 62.0), commit="old")
    proc = _run(parent, change, tmp_path / "B.json")
    assert proc.returncode == 2
    assert (
        "change side ran more than one source: dc (verify_tables/seed1/trace0); "
        "dold (verify_tables/seed2/trace0)"
    ) in proc.stderr
    assert "parent side" not in proc.stderr
    assert not (tmp_path / "B.json").exists()
