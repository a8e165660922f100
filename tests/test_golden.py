"""Golden digests: solver results pinned against checked-in values.

Every other parity test in the suite is *relative* (path A against path
B in the same run), so a change that moves both paths at once goes
unseen.  This module pins absolute results: each case below is solved
and its canonical digest compared with ``tests/golden/digests.json``.

Cases:

* every registered backend on the determinism battery's problem
  (``test_determinism.compute_digests``);
* the out-of-core forest and matching from an ``.edges`` file
  (``test_determinism.compute_file_digests``);
* a mixed ``run_many`` offline group that includes an empty graph;
* the odd-set-route and witness-route solver configs;
* both ``solve_default`` instance families (weighted G(n, m) and a
  power-law b-matching with ``b`` in {1, 2, 3}) under the default
  config, at the benchmark's ``tiny`` size;
* a warm-started dynamic session that misses the ``rounds=0`` fast path
  once and hits it once.

The native and numpy kernel backends are bit-identical, so one record
serves both.  Floats are digested through ``float.hex``; results can
still move with the numpy or Python build, which is why the record
carries their versions and a mismatch names them.

Re-record only when a change is meant to move results::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from test_determinism import (
    build_edge_file,
    compute_digests,
    compute_file_digests,
    result_digest,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"


def _versions() -> dict:
    import networkx

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
    }


def _hex(x) -> str:
    return float(x).hex()


def solve_digest(res) -> str:
    """Digest of a :class:`~repro.core.certificates.MatchingResult`,
    per-round history and resource ledger included."""
    cert = res.certificate
    payload = {
        "edge_ids": [int(e) for e in res.matching.edge_ids],
        "multiplicity": [int(m) for m in res.matching.multiplicity],
        "weight": _hex(res.weight),
        "rounds": int(res.rounds),
        "lambda_min": _hex(res.lambda_min),
        "beta_final": _hex(res.beta_final),
        "certificate": {
            "upper_bound": _hex(cert.upper_bound),
            "lambda_min": _hex(cert.lambda_min),
            "scale_factor": _hex(cert.scale_factor),
            "x": [_hex(v) for v in np.asarray(cert.x)],
            "z": sorted((list(map(int, U)), _hex(v)) for U, v in cert.z.items()),
        },
        "history": [
            {
                k: (_hex(v) if isinstance(v, float) else v)
                for k, v in sorted(rec.items())
            }
            for rec in res.history
        ],
        "resources": {k: res.resources[k] for k in sorted(res.resources)},
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_digest(run_result) -> str:
    """A facade result's digest plus its raw solver result's digest."""
    parts = [result_digest(run_result)]
    if run_result.raw is not None and hasattr(run_result.raw, "history"):
        parts.append(solve_digest(run_result.raw))
    return ":".join(parts)


# ----------------------------------------------------------------------
# The cases, one group per function
# ----------------------------------------------------------------------
def backends() -> dict:
    return {f"backend:{k}": v for k, v in compute_digests().items()}


def file_backed() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.edges"
        build_edge_file(path)
        return compute_file_digests(path)


def mixed_run_many() -> dict:
    from repro.api import Problem, run_many
    from repro.core.matching_solver import SolverConfig
    from repro.graphgen import gnm_graph, odd_cycle_chain, with_uniform_weights
    from repro.util.graph import Graph

    base = SolverConfig(eps=0.25, inner_steps=80, round_cap_factor=2.0)
    graphs = [
        with_uniform_weights(gnm_graph(18, 60, seed=1), 1, 30, seed=2),
        Graph.empty(4),
        odd_cycle_chain(2, 3),
        Graph.from_edges(2, [(0, 1)], [7.0]),
    ]
    problems = [
        Problem(g, config=replace(base, seed=10 + i)) for i, g in enumerate(graphs)
    ]
    results = run_many(problems, backend="offline")
    return {f"run_many:{i}": run_digest(r) for i, r in enumerate(results)}


def oracle_routes() -> dict:
    from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
    from repro.graphgen import odd_cycle_chain

    g = odd_cycle_chain(2, 3)
    kw = dict(eps=0.3, p=4.0, inner_steps=150, round_cap_factor=3.0, seed=7)
    out = {}
    for name, extra in (("oddset", {}), ("witness", {"odd_sets": False})):
        res = DualPrimalMatchingSolver(SolverConfig(**kw, **extra)).solve(g)
        out[f"route:{name}"] = solve_digest(res)
    return out


def solve_default_tiny(seed: int = 1) -> dict:
    """The benchmark's ``solve_default`` instances at ``tiny`` size."""
    from repro.api import Problem, run
    from repro.core.matching_solver import SolverConfig
    from repro.graphgen import (
        gnm_graph,
        power_law_graph,
        with_exponential_weights,
        with_random_capacities,
        with_uniform_weights,
    )

    n, m_per_n = 24, 4
    s = [int(v) for v in np.random.default_rng([seed, 1]).integers(0, 2**31 - 1, size=5)]
    gnm = with_uniform_weights(gnm_graph(n, m_per_n * n, seed=s[0]), 1.0, 100.0, seed=s[1])
    powerlaw = with_random_capacities(
        with_exponential_weights(power_law_graph(n, seed=s[2]), seed=s[3]),
        1, 3, seed=s[4],
    )
    config = SolverConfig(eps=0.2, seed=seed)
    return {
        f"solve_default:{name}": run_digest(run(Problem(g, config), "offline"))
        for name, g in (("gnm", gnm), ("powerlaw_b", powerlaw))
    }


def warm_session() -> dict:
    """Cold query, warm miss (rounds > 0), warm hit (rounds == 0)."""
    from repro.core.matching_solver import SolverConfig
    from repro.dynamic import DynamicGraphSession
    from repro.graphgen import gnm_graph, with_uniform_weights

    cfg = SolverConfig(
        seed=3, eps=0.3, inner_steps=40, offline="local", round_cap_factor=0.6
    )
    base = with_uniform_weights(gnm_graph(16, 40, seed=2), 1.0, 20.0, seed=3)
    sess = DynamicGraphSession(
        16, config=cfg, base_graph=base, warm_start=True, maintain_sketches=False
    )
    queries = [sess.query_matching()]
    sess.delete(int(base.src[0]), int(base.dst[0]))
    queries.append(sess.query_matching())
    for u, v in ((0, 15), (1, 14), (2, 13)):
        if not sess.contains(u, v):
            sess.insert(u, v, 60.0)
    queries.append(sess.query_matching())
    rounds = [q.raw.rounds for q in queries]
    warm = [q.extras["warm_started"] for q in queries]
    # the case only pins what it claims if both fast-path branches ran
    assert warm == [False, True, True] and rounds[1] > 0 and rounds[2] == 0, (
        rounds,
        warm,
    )
    return {f"dynamic:query{i}": run_digest(q) for i, q in enumerate(queries)}


GROUPS = {
    "backends": backends,
    "file_backed": file_backed,
    "mixed_run_many": mixed_run_many,
    "oracle_routes": oracle_routes,
    "solve_default_tiny": solve_default_tiny,
    "warm_session": warm_session,
}


def record() -> dict:
    return {
        "meta": _versions(),
        "digests": {name: fn() for name, fn in GROUPS.items()},
    }


# ----------------------------------------------------------------------
# The test
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_group(golden):
    assert set(golden["digests"]) == set(GROUPS)
    assert set(golden["meta"]) >= {"python", "numpy"}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_digests(golden, group):
    want = golden["digests"][group]
    got = GROUPS[group]()
    if got != want:
        moved = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
        recorded, running = golden["meta"], _versions()
        raise AssertionError(
            f"golden digests moved in group {group!r}: {moved}\n"
            f"recorded under python {recorded['python']}, numpy {recorded['numpy']}; "
            f"running python {running['python']}, numpy {running['numpy']}"
            + ("" if recorded == running else " (versions differ)")
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
