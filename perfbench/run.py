#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload solve_default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
(no install step).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` measures the per-layer split instead,
alternating traced and untraced work so the tracing overhead is
reported too.  Human-readable lines come first; the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0,
     "metrics": {"solve_s": {"value": 8.61, "unit": "s"}, ...}}

Every time is scaled to a reference host speed by a probing sidecar
process that runs from set-up to the end (``hostspeed.py``); the note
lines print the wall-clock values too.  Every output is checked (see
``workloads.py``); a failed check counts against ``success_rate`` and
makes the command exit with status 1.
``--out FILE`` also appends the full record -- with the commit, core
count, kernel backend and library versions -- to a JSON-lines file
that ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostMonitor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: End-to-end metrics (tracing off), name -> unit.  ``error_rate`` is
#: published as ``success_rate`` = 1 - error_rate so the metric is
#: never zero; ``failed``/``attempted`` in the result line carry the
#: raw counts.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Per-layer metrics (tracing on), name -> unit.  A layer that is not
#: on a workload's path (the solver layers run inside the server's
#: worker processes on serve_mix; the serving layers do not exist on
#: the in-process workloads) reads 0 there.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Setups per run (this process plus fresh processes); setup_s is the median.
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs the same code paths on toy inputs (smoke tests)",
    )
    parser.add_argument("--out", type=Path, help="append the run record (JSON lines)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def configure_environment() -> None:
    """Import the library from this checkout; keep every write inside it."""
    os.environ.pop("REPRO_KERNELS", None)  # the default (auto) backend is measured
    os.environ.setdefault("REPRO_KERNELS_CACHE", str(BUILD / "repro-kernels"))
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def build() -> None:
    """Compile the native kernels, once per checkout, before any timing."""
    subprocess.run(
        [sys.executable, "-c", "import repro.kernels"], check=True, timeout=900
    )


def setup(args):
    """Imports, kernel load and input generation (and, for serve_mix,
    server and worker spawn).  Returns ``(workload, start, end)`` as
    ``time.monotonic()`` readings; numpy, which the host monitor's
    probe needs, is imported before the clock starts."""
    t0 = time.monotonic()
    import workloads

    wl = workloads.setup(
        args.workload, args.seed, args.size, args.seconds, BUILD / "perfbench"
    )
    return wl, t0, time.monotonic()


def setup_in_fresh_process(args) -> tuple[float, float]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["start"], line["end"]


def stamp(args) -> dict:
    """What produced a result: code, host, backend, versions, inputs."""
    import networkx
    import numpy
    import repro.kernels

    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True,
            )
            dirty = bool(status.stdout.strip())
    kernels = repro.kernels.backend_info()
    return {
        "commit": commit,
        "dirty": dirty,
        "cpu_count": os.cpu_count(),
        "kernel_backend": kernels["backend"],
        "kernel_fallback_reason": kernels["fallback_reason"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    configure_environment()
    if args.setup_probe:
        wl, start, end = setup(args)
        wl.close()
        print(json.dumps({"start": start, "end": end}))
        return 0

    build()
    with HostMonitor(BUILD / "perfbench" / f"host-{os.getpid()}.probes") as monitor:
        spans = [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        wl, start, end = setup(args)
        spans.append((start, end))
        try:
            out = wl.measure(args.seconds, bool(args.trace), monitor)
        finally:
            wl.close()
        speeds = monitor.speeds()
        setup_samples = [(t1 - t0) / speeds.slowdown(t0, t1) for t0, t1 in spans]
    out.notes.append(
        "setup (s): wall " + ", ".join(f"{t1 - t0:.3f}" for t0, t1 in spans)
        + "; at reference speed " + ", ".join(f"{x:.3f}" for x in setup_samples)
    )

    if args.trace:
        table = PER_LAYER
        metrics = {name: out.layers.get(name, (0.0, unit)) for name, unit in table.items()}
    else:
        table = END_TO_END
        metrics = dict(out.metrics)
        metrics["success_rate"] = (1.0 - out.failed / out.attempted, "fraction")
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
    produced = out.layers if args.trace else metrics
    wrong = {k: v[1] for k, v in produced.items() if table.get(k) != v[1]}
    if wrong or set(metrics) != set(table):
        raise RuntimeError(f"metric table mismatch: {wrong or set(metrics) ^ set(table)}")

    record = {
        "stamp": stamp(args),
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": setup_samples,
        "notes": out.notes,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    for note in out.notes:
        print(f"note  {note}")
    for why in out.errors:
        print(f"FAILED {why}", file=sys.stderr)
    print(f"error_rate {out.failed}/{out.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    if args.out is not None:
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
