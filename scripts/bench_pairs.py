#!/usr/bin/env python3
"""Summarise paired perfbench runs of a parent and a change into one BENCH file.

    python3 scripts/bench_pairs.py PARENT_OUT CHANGE_OUT --out BENCH_<n>.json

PARENT_OUT and CHANGE_OUT are the ``.perfbench_out/`` directories of two
checkouts that ran ``perfbench/run.py`` with the same workloads, seeds and
``--seconds``.  Runs are paired by workload and seed; a seed run on one side
only is left out of the pairs, listed under ``one_side_only`` and named on
stderr.  A side whose result files carry more than one ``source_digest`` is
an error: ``run.py`` writes its result only at the end, so a crashed run
leaves an older result under the same name.  A pair whose sides ran the same
source (equal ``source_digest``) or different ``--seconds`` is an error: it
compares nothing, or runs of different lengths.  For each workload, untraced
(``--trace 0``) pairs give, for every end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles and the number of pairs
the change won (ties count for neither).
Every run is kept with its ``attempted`` count, so that ``peak_rss_mb``,
which is a peak over however many passes fit in the run, can be compared at
equal pass counts.  Traced (``--trace 1``) pairs give each side's per-layer
metrics and every traced call count that differs between the sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(out_dir: Path) -> dict[tuple[str, int, int], dict]:
    runs = {}
    for path in sorted(out_dir.glob("result-*.json")):
        data = json.loads(path.read_text())
        rec = data["record"]
        runs[(rec["workload"], rec["seed"], rec["trace"])] = data
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, as for a whole population)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def run_entry(seed: int, data: dict) -> dict:
    res = data["result"]
    return {
        "seed": seed,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "correct": res["correct"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
    }


def summarise(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    pairs = sorted(set(parent) & set(change))
    out: dict = {"workloads": {}, "traced": {}}
    for workload in sorted({w for w, _, _ in pairs}):
        seeds = [s for w, s, t in pairs if w == workload and t == 0]
        if seeds:
            sides = {
                name: [run_entry(s, runs[(workload, s, 0)]) for s in seeds]
                for name, runs in (("parent", parent), ("change", change))
            }
            metrics = {}
            for m in end_to_end:
                name = m["name"]
                p = [r["metrics"][name] for r in sides["parent"]]
                c = [r["metrics"][name] for r in sides["change"]]
                sign = 1 if m["better"] == "higher" else -1
                metrics[name] = {
                    "unit": m["unit"],
                    "better": m["better"],
                    "parent": spread(p),
                    "change": spread(c),
                    "change_wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
                    "pairs": len(seeds),
                }
            out["workloads"][workload] = {"seeds": seeds, "metrics": metrics, "runs": sides}
        for s in (s for w, s, t in pairs if w == workload and t == 1):
            p, c = parent[(workload, s, 1)], change[(workload, s, 1)]
            pm, cm = p["result"]["metrics"], c["result"]["metrics"]
            pc, cc = p["record"]["counts"], c["record"]["counts"]
            out["traced"][f"{workload}/seed{s}"] = {
                "per_layer": {
                    k: {"parent": pm[k]["value"], "change": cm[k]["value"]} for k in pm if k in cm
                },
                "counts_changed": {
                    k: {"parent": pc.get(k), "change": cc.get(k)}
                    for k in sorted(set(pc) | set(cc))
                    if pc.get(k) != cc.get(k)
                },
            }
    for workload in sorted({w for w, _, _ in set(parent) | set(change)}):
        alone = {
            name: [f"seed{s}/trace{t}" for w, s, t in sorted(set(runs) - set(other)) if w == workload]
            for name, runs, other in (("parent", parent, change), ("change", change, parent))
        }
        if alone["parent"] or alone["change"]:
            out.setdefault("one_side_only", {})[workload] = alone
    if pairs:
        rec = change[pairs[0]]["record"]
        out["environment"] = {k: rec.get(k) for k in ("python", "sympy", "nproc", "seconds")}
        for name, runs in (("parent", parent), ("change", change)):
            rec = runs[pairs[0]]["record"]
            out["environment"][name] = {k: rec.get(k) for k in ("commit", "source_digest")}
    return out


def mixed_sources(name: str, runs: dict) -> list[str]:
    """A side whose runs did not all run one source: its runs by source."""
    by_digest: dict = {}
    for (w, s, t), data in sorted(runs.items()):
        by_digest.setdefault(data["record"].get("source_digest"), []).append(f"{w}/seed{s}/trace{t}")
    if len(by_digest) < 2:
        return []
    sources = "; ".join(f"{d} ({', '.join(keys)})" for d, keys in sorted(by_digest.items()))
    return [f"{name} side ran more than one source: {sources}"]


def mismatched_pairs(parent: dict, change: dict) -> list[str]:
    """Pairs that cannot compare a parent with a change: the same source on
    both sides, or runs of different lengths."""
    bad = []
    for key in sorted(set(parent) & set(change)):
        p, c = parent[key]["record"], change[key]["record"]
        name = "{}/seed{}/trace{}".format(*key)
        if p.get("source_digest") == c.get("source_digest"):
            bad.append(f"{name}: both sides ran source {p.get('source_digest')}")
        if p.get("seconds") != c.get("seconds"):
            bad.append(f"{name}: --seconds {p.get('seconds')} against {c.get('seconds')}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_out", type=Path, help=".perfbench_out/ of the parent checkout")
    ap.add_argument("change_out", type=Path, help=".perfbench_out/ of the changed checkout")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    args = ap.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load_runs(args.parent_out), load_runs(args.change_out)
    summary = summarise(parent, change, end_to_end)
    if "environment" not in summary:
        ap.error("no workload and seed was run on both sides")
    bad = mixed_sources("parent", parent) + mixed_sources("change", change)
    bad += mismatched_pairs(parent, change)
    if bad:
        ap.error("runs that cannot be paired:\n  " + "\n  ".join(bad))
    for workload, alone in summary.get("one_side_only", {}).items():
        for name, keys in alone.items():
            if keys:
                print(f"{workload}: on the {name} side only: {', '.join(keys)}", file=sys.stderr)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
