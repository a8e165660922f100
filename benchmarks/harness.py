"""One harness for the ``bench_s*`` benchmarks.

* :func:`record` -- the one way a bench writes its checked-in
  ``BENCH_*.json`` snapshot, and only under ``BENCH_RECORD=1``: ordinary
  runs (including the CI smokes) leave the committed files untouched.
  Every recorded entry gets a ``meta`` block (commit, dirty flag, core
  count, kernel backend, python and numpy versions).
* :func:`run_worker` -- one measured point in a fresh interpreter
  (``peak_rss_bytes`` is a whole-process high-water mark, and
  ``REPRO_KERNELS`` binds the kernel backend at import time).
* :func:`native_available` / :func:`require_native` -- one cached probe
  for the compiled kernel backend.
* :func:`edges_file` -- a G(n, m) ``.edges`` file generated out of
  process, so the long-lived pytest process stays lean for RSS legs.
* The S2 instance mix (``S2_MIX``, ``S2_SOLVER_KW``, ``S2_FAST_KW``,
  :func:`s2_graphs`, :func:`s2_problems`) shared by the solver, facade,
  service, server and observability benches, so their numbers compose.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent

S2_MIX = dict(n=64, m=256, w_lo=1.0, w_hi=50.0)
S2_SOLVER_KW = dict(
    eps=0.3,
    inner_steps=600,
    round_cap_factor=0.3,  # 2 lockstep rounds per instance
    target_gap=0.0001,
    offline="local",
)
#: The same mix at a tenth of the inner steps, for the CI smokes.
S2_FAST_KW = {**S2_SOLVER_KW, "inner_steps": 60}


def _git(*args: str) -> str | None:
    if shutil.which("git") is None:
        return None
    r = subprocess.run(["git", *args], capture_output=True, text=True, cwd=REPO)
    return r.stdout.strip() if r.returncode == 0 else None


def _meta() -> dict:
    """Where a recorded number came from."""
    import numpy as np

    import repro.kernels

    # the snapshots this harness rewrites do not make the tree dirty
    status = _git("status", "--porcelain", "--untracked-files=no", "--",
                  ".", ":(exclude,glob)benchmarks/BENCH_*.json")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "kernels": repro.kernels.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def record(name: str, key: str, payload) -> None:
    """Store ``payload`` under ``key`` in ``benchmarks/<name>``.

    A no-op unless ``BENCH_RECORD=1``.  The payload is stored as given;
    ``meta[key]`` records where it came from, and every other key of
    the file is kept.
    """
    if os.environ.get("BENCH_RECORD") != "1":
        return
    path = BENCH_DIR / name
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = payload
    data.setdefault("meta", {})[key] = _meta()
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_worker(code: str, cfg=None, *, kernels: str | None = None,
               timeout: float = 3600):
    """Run ``code`` in a fresh interpreter; return its last JSON line.

    ``cfg`` reaches the worker as ``json.loads(sys.argv[1])``.  The
    worker runs from the repo root with ``PYTHONPATH=src``;
    ``kernels`` pins ``REPRO_KERNELS``.  A non-zero exit raises
    ``RuntimeError`` carrying the worker's stderr.
    """
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    if kernels is not None:
        env["REPRO_KERNELS"] = kernels
    argv = [sys.executable, "-c", code]
    if cfg is not None:
        argv.append(json.dumps(cfg))
    r = subprocess.run(argv, capture_output=True, text=True, env=env,
                       cwd=REPO, timeout=timeout)
    if r.returncode != 0:
        raise RuntimeError(f"worker exited with {r.returncode}:\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


@functools.cache
def native_available() -> bool:
    """Whether ``REPRO_KERNELS=native`` loads here (probed once)."""
    try:
        run_worker("import repro.kernels", kernels="native", timeout=300)
    except RuntimeError:
        return False
    return True


def require_native() -> None:
    if not native_available():
        pytest.skip("native kernel backend unavailable in this environment")


def edges_file(tmpdir, n: int, m: int, seed: int = 41) -> Path:
    """Generate ``gnm_<n>_<m>.edges`` under ``tmpdir`` out of process.

    An in-process ``generate_gnm_file`` would raise this process's RSS
    by O(m) for the rest of the pytest run.
    """
    path = Path(tmpdir) / f"gnm_{n}_{m}.edges"
    run_worker(
        "import json, sys\n"
        "from repro.graphgen import generate_gnm_file\n"
        "generate_gnm_file(**json.loads(sys.argv[1]))",
        {"path": str(path), "n": n, "m": m, "seed": seed},
        timeout=1800,
    )
    return path


def mb(nbytes) -> float:
    return round(nbytes / 1e6, 1) if nbytes else 0.0


def s2_graphs(count: int) -> list:
    """The first ``count`` weighted G(64, 256) graphs of the S2 mix."""
    from repro.graphgen import gnm_graph, with_uniform_weights

    return [
        with_uniform_weights(
            gnm_graph(S2_MIX["n"], S2_MIX["m"], seed=s),
            S2_MIX["w_lo"], S2_MIX["w_hi"], seed=s + 100,
        )
        for s in range(count)
    ]


def s2_problems(count: int, kw: dict = S2_SOLVER_KW) -> list:
    """:func:`s2_graphs` as ``Problem``s, instance ``s`` seeded ``s``."""
    from repro.api import Problem
    from repro.core.matching_solver import SolverConfig

    return [
        Problem(g, config=SolverConfig(seed=s, **kw))
        for s, g in enumerate(s2_graphs(count))
    ]
