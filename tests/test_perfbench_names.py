"""The package names the benchmark under perfbench/ imports and reads.

A name the benchmark needs that has gone missing fails here, in the test
suite, rather than in the benchmark's first pass: the tracer installs over
every module it lists, and the first tasks of each workload run against the
recorded oracle."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads

        yield spans, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_over_every_listed_module(bench):
    spans, _ = bench
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.names and all(n.split(".", 1)[0] in spans.MODULES for n in tracer.names)


@pytest.mark.parametrize("workload", ["verify_tables", "cli_generic", "deep_truncation"])
def test_first_tasks_of_each_workload_pass_their_oracle(bench, workload, tmp_path):
    _, workloads = bench
    from ncconic import dataset

    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    p = workloads.WORKLOADS[workload](dataset.load_rows(), 1, 0, tmp_path, expected)
    rec = workloads.Recorder()
    for task in p.tasks[:3]:
        task(rec)
    assert len(rec.wall) >= 3 and rec.failures == []
