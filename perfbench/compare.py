#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and layer by layer.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are JSON-lines files written by ``run.py --out``
(or directories of them).  Per workload, every end-to-end metric of
``BENCHMARK.json`` gets both sides' median and quartiles, the ratio
new/base, and a verdict against the metric's bound: ``REGRESSION`` when
the new median is worse by more than the bound, ``unresolved`` when the
base runs spread wider than the bound (unless every new run beats every
base run).  The traced runs' per-layer times are then ranked by how
much their medians moved, so a regression is named by layer.

Runs from hosts with a different core count or kernel backend are not
compared.  Exit status: 0, 1 when a regression was found, 2 when the
runs cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Per-layer entries shown per workload.
TOP_LAYERS = 10


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    return [
        json.loads(line)
        for f in files
        for line in f.read_text().splitlines()
        if line.strip()
    ]


def values(records, workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["stamp"]["workload"] == workload
        and r["stamp"]["trace"] == trace
        and metric in r["metrics"]
    ]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def host_keys(records) -> set:
    return {(r["stamp"]["cpu_count"], r["stamp"]["kernel_backend"]) for r in records}


def verdict(base: list[float], new: list[float], better: str, bound: float):
    """``(ratio, label)`` for one metric on one workload."""
    b1, bm, b3 = quartiles(base)
    nm = statistics.median(new)
    ratio = nm / bm if bm else float("nan")
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (ratio - 1.0)
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    all_better = (
        max(new) < min(base) if better == "lower" else min(new) > max(base)
    )
    if spread > bound and not all_better:
        return ratio, "unresolved"
    if worse_by > bound:
        return ratio, "REGRESSION"
    return ratio, "better" if all_better else "ok"


def compare(base: list[dict], new: list[dict], spec: dict) -> int:
    hosts = host_keys(base) | host_keys(new)
    if len(hosts) != 1:
        print(
            "refusing to compare: runs differ in (cpu_count, kernel_backend): "
            + ", ".join(map(str, sorted(hosts, key=str)))
        )
        return 2
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    regressions = 0
    workloads = sorted({r["stamp"]["workload"] for r in base + new})
    for wl in workloads:
        print(f"== {wl}")
        for m in spec["end_to_end"]:
            b = values(base, wl, 0, m["name"])
            n = values(new, wl, 0, m["name"])
            if not b or not n:
                continue
            ratio, label = verdict(b, n, m["better"], m["bound"])
            regressions += label == "REGRESSION"
            bq, nq = quartiles(b), quartiles(n)
            print(
                f"  {m['name']:22s} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}] n={len(b)}"
                f"  new {nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}] n={len(n)}"
                f"  ratio {ratio:.3f} (bound {m['bound']}, {m['better']} is better)"
                f"  {label}"
            )
        moves = []
        for name, unit in layer_units.items():
            if unit not in ("s", "ms"):
                continue
            b = values(base, wl, 1, name)
            n = values(new, wl, 1, name)
            if b and n:
                scale = 1e3 if unit == "s" else 1.0
                delta = (statistics.median(n) - statistics.median(b)) * scale
                moves.append((abs(delta), delta, statistics.median(b) * scale, name))
        moves.sort(reverse=True)
        if moves:
            print("  per-layer time, largest moves first (ms):")
        for _, delta, base_ms, name in moves[:TOP_LAYERS]:
            print(f"    {name:30s} {delta:+12.3f}  (base {base_ms:.3f})")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load(args.base), load(args.new), spec)


if __name__ == "__main__":
    sys.exit(main())
