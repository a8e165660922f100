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
  once and hits it once;
* Algorithm 5 (``micro_oracle``) on the reference cases of
  ``test_core_micro_oracle``, one or more per route, and on cases that
  reach the odd-set/witness tail with nonzero packing multipliers or
  with a lifted violated vertex (step 9);
* the sketch layer: ℓ0 sampler cells and samples (bulk and per-element
  update streams), vertex-incidence cells and cut-edge samples, and the
  in-RAM sketch spanning forest with its ledger;
* the per-edge solver scans on an in-RAM graph that spans two scan
  ranges: discretization, the per-level maximal matchings and their
  merge, the certificate of the initial dual, the audit's violation
  message, an ``offline`` solve, and a ``semi_streaming`` solve;
* the two saturating scans whose per-edge multiplicity cap binds: a
  b-matching initial solution's group merge and a warm start's fold;
* the Nagamochi-Ibaraki forests at small ``k``: forest indices on
  multigraphs with self-loops, connectivity sampling probabilities,
  Algorithm 6 fed in small chunks, and a ``sparsifier_k=1``
  semi-streaming solve from an ``.edges`` file.

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

    # target 0.95: at the default 1 - eps, the warm point certifies the
    # deleting burst too, and the miss branch would not run
    cfg = SolverConfig(
        seed=3, eps=0.3, inner_steps=40, offline="local", round_cap_factor=0.6,
        target_gap=0.05,
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


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _array_sha(a) -> str:
    """Digest of an array's float64 bytes in C order, with its shape."""
    a = np.asarray(a, dtype=np.float64)
    return _sha([list(a.shape), hashlib.sha256(a.tobytes()).hexdigest()])


def _lifted_instance():
    """Vertex 0 (``b = 1``) is the only violated vertex, too light for
    the vertex route at ``beta = 3e5``: step 9 lifts its zeta row."""
    from itertools import combinations

    from repro.core.levels import discretize
    from repro.core.micro_oracle import SupportVector
    from repro.util.graph import Graph

    edges = [(0, 1)] + list(combinations(range(1, 16), 2))[:100]
    b = np.full(16, 50)
    b[0] = 1
    g = Graph.from_edges(16, edges, np.ones(len(edges)), b=b)
    lv = discretize(g, eps=0.25)
    live = lv.live_edges()
    return lv, SupportVector(live, np.ones(len(live)))


def oracle() -> dict:
    """Every output field of ``micro_oracle``, one case per key."""
    from repro.core.micro_oracle import OracleWitness, micro_oracle
    from test_core_micro_oracle import (
        REFERENCE_CASES,
        _random_instance,
        _triangle_pendant,
    )

    # (instance, zeta offset, beta, odd_sets, route), as REFERENCE_CASES
    cases = dict(REFERENCE_CASES)
    cases.update(
        {
            "lifted_witness": (_lifted_instance, 0.0, 3e5, True, "witness"),
            "packed_vertex": (_random_instance, 0.01, 1e9, True, "vertex"),
            "packed_witness": (_random_instance, 0.01, 8.0, True, "witness"),
            "packed_oddset": (_triangle_pendant, 0.01, 16.0, True, "oddset"),
        }
    )
    out = {}
    for name, (make, offset, beta, odd_sets, route) in cases.items():
        lv, support = make()
        zeta = np.zeros((lv.graph.n, lv.num_levels)) + offset
        res = micro_oracle(lv, support, zeta, beta=beta, rho=1.0, odd_sets=odd_sets)
        if isinstance(res, OracleWitness):
            payload = {
                "route": "witness",
                "gamma": _hex(res.gamma),
                "y": sorted([int(e), _hex(v)] for e, v in res.y.items()),
                "mu": _array_sha(res.mu),
                "lp7_value": _hex(res.lp7_value),
            }
        else:
            gp = res.gamma_prime
            payload = {
                "route": res.route,
                "gamma": _hex(res.gamma),
                "gamma_prime": None if gp is None else _hex(gp),
                "x": _array_sha(res.dual.x),
                "z": sorted(
                    [list(map(int, U)), int(ell), _hex(v)]
                    for (U, ell), v in res.dual.z.items()
                ),
            }
        # the case only pins what it names if it takes that route
        assert payload["route"] == route, (name, payload["route"])
        out[f"oracle:{name}"] = _sha(payload)
    return out


def _cells(tensor) -> dict:
    """Every linear measurement of a ``SketchTensor``, in canonical form."""
    return {
        "shape": list(tensor.s0.shape),
        "s0": tensor.s0.ravel().tolist(),
        "s1": tensor.s1.ravel().tolist(),
        "fp": tensor.fp.ravel().tolist(),
    }


def _pair(got):
    return None if got is None else [int(got[0]), int(got[1])]


def _updates(rng, universe: int, count: int):
    idx = rng.integers(0, universe, size=count).astype(np.int64)
    dlt = rng.integers(-4, 5, size=count).astype(np.int64)
    return idx, dlt


def sketches() -> dict:
    """ℓ0 and incidence sketches, and the sketch forest."""
    from repro.graphgen import gnm_graph
    from repro.sketch.graph_sketch import VertexIncidenceSketch
    from repro.sketch.l0_sampler import L0Sampler
    from repro.sketch.support_find import sketch_spanning_forest
    from repro.util.graph import Graph
    from repro.util.instrumentation import ResourceLedger

    out = {}
    for seed in (0, 1, 17, 123):
        s = L0Sampler(3000, seed=seed, repetitions=6)
        s.update_many(*_updates(np.random.default_rng(seed + 1000), 3000, 120))
        out[f"l0:{seed}"] = _sha(
            {
                "cells": _cells(s._tensor),
                "sample": _pair(s.sample()),
                "is_zero": s.is_zero(),
                "space_words": s.space_words(),
            }
        )
    for seed in (2, 9):
        s = L0Sampler(500, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            i, d = int(rng.integers(0, 500)), int(rng.integers(-2, 3))
            if d != 0:
                s.update(i, d)
        out[f"l0_update:{seed}"] = _sha(
            {"cells": _cells(s._tensor), "sample": _pair(s.sample())}
        )
    for seed in (0, 5):
        g = gnm_graph(14, 35, seed=seed)
        sk = VertexIncidenceSketch(g, t=3, seed=seed + 7)
        rng = np.random.default_rng(seed)
        cuts = []
        for row in range(3):
            for _ in range(6):
                comp = rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False)
                cuts.append(_pair(sk.sample_cut_edge(comp, row)))
        out[f"incidence:{seed}"] = _sha(
            {
                "cells": _cells(sk._tensor),
                "cuts": cuts,
                "space_words": sk.space_words(),
            }
        )
    g = gnm_graph(12, 30, seed=3)
    sk = VertexIncidenceSketch(g, t=2, seed=5)
    labels = np.random.default_rng(1).integers(0, 4, size=g.n)
    parts = sk.sample_cut_edges(labels, row=1)
    out["incidence_partition"] = _sha(
        [[int(k), _pair(parts[k])] for k in sorted(parts)]
    )
    gnm = gnm_graph(400, 600, seed=4)
    for name, graph, rows in (
        ("empty", Graph.empty(0), None),
        ("gnm", gnm, None),
        ("gnm_rows3", gnm, 3),
    ):
        ledger = ResourceLedger()
        forest = sketch_spanning_forest(graph, seed=5, ledger=ledger, rows=rows)
        out[f"forest:{name}"] = _sha(
            {"forest": [_pair(e) for e in forest], "ledger": ledger.snapshot()}
        )
    return out


def _bmatching(mk) -> list:
    return [mk.edge_ids.tolist(), mk.multiplicity.tolist()]


def scans() -> dict:
    """The per-edge scans on graphs larger than one scan range.

    G(2048, 70000) spans two 65536-edge ranges in RAM; G(1024, 12000)
    is solved by the semi-streaming backend, whose stream passes walk
    the same ranges (results are chunk-size invariant).
    """
    from repro.api import Problem, run
    from repro.core.certificates import certify
    from repro.core.initial import build_initial_solution
    from repro.core.levels import discretize
    from repro.core.matching_solver import SolverConfig
    from repro.graphgen import gnm_graph, with_uniform_weights
    from repro.matching.verify import verify_dual_upper_bound

    g = with_uniform_weights(gnm_graph(2048, 70000, seed=11), 1.0, 100.0, seed=12)
    levels = discretize(g, 0.2)
    out = {
        "scans:discretize": _sha(
            {
                "scale": _hex(levels.scale),
                "num_levels": levels.num_levels,
                "level": levels.level.tolist(),
            }
        )
    }
    init = build_initial_solution(levels, seed=3)
    out["scans:initial"] = _sha(
        {
            "per_level": [[k, _bmatching(mk)] for k, mk in init.per_level.items()],
            "merged": _bmatching(init.merged),
            "beta0": _hex(init.beta0),
        }
    )
    cert = certify(init.dual)
    out["scans:certify"] = _sha(
        {
            "upper_bound": _hex(cert.upper_bound),
            "lambda_min": _hex(cert.lambda_min),
            "scale_factor": _hex(cert.scale_factor),
            "x": [_hex(v) for v in cert.x],
        }
    )
    with pytest.raises(AssertionError) as err:
        verify_dual_upper_bound(g, np.zeros(g.n))
    out["scans:audit"] = _sha(str(err.value))
    config = SolverConfig(
        eps=0.3, inner_steps=40, offline="local", round_cap_factor=0.6, seed=5
    )
    out["scans:offline"] = run_digest(run(Problem(g, config), "offline"))
    g2 = with_uniform_weights(gnm_graph(1024, 12000, seed=13), 1.0, 100.0, seed=14)
    out["scans:semi_streaming"] = run_digest(
        run(Problem(g2, config), "semi_streaming")
    )
    return out


def _uncapped_scan(g, order) -> list:
    """The saturating scan over ``order`` (edge ids, repeats allowed)
    with no per-edge cap: each visit takes ``min`` of both residuals."""
    residual = g.b.copy()
    taken: dict[int, int] = {}
    for e in order:
        take = int(min(residual[g.src[e]], residual[g.dst[e]]))
        if take > 0:
            taken[e] = taken.get(e, 0) + take
            residual[g.src[e]] -= take
            residual[g.dst[e]] -= take
    return [sorted(taken), [taken[e] for e in sorted(taken)]]


def caps() -> dict:
    """The two scans whose per-edge multiplicity cap binds.

    * The group merge of a b-matching initial solution (Definition 7):
      each level's matching is merged capped at its multiplicities.
    * ``WarmStart.fold_matching`` with ``b >= 2``: a carried pair keeps
      its old multiplicity even where both endpoints could take more.

    Each case asserts that the uncapped scan gives another result, so
    it fails if its cap is dropped.
    """
    from repro.core.initial import build_initial_solution
    from repro.core.levels import discretize
    from repro.core.matching_solver import WarmStart
    from repro.graphgen import (
        power_law_graph,
        with_exponential_weights,
        with_random_capacities,
    )
    from repro.util.graph import Graph

    s = 4
    g = with_random_capacities(
        with_exponential_weights(power_law_graph(24, seed=s), seed=s + 1),
        1, 3, seed=s + 2,
    )
    init = build_initial_solution(discretize(g, 0.2), seed=3)
    merged = _bmatching(init.merged)
    order = [
        e for k in sorted(init.per_level, reverse=True)
        for e in init.per_level[k].edge_ids.tolist()
    ]
    assert merged != _uncapped_scan(g, order), "merge cap does not bind"
    out = {
        "caps:merge": _sha(
            {
                "per_level": [[k, _bmatching(mk)] for k, mk in init.per_level.items()],
                "merged": merged,
                "beta0": _hex(init.beta0),
            }
        )
    }

    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    g = Graph.from_edges(
        6, edges, [5.0, 4.0, 3.0, 6.0, 2.0, 1.0, 7.0], b=[2, 3, 2, 3, 2, 3]
    )
    # (1, 0, 1) is below both residuals (2 and 3); also a pair carried
    # twice, an oversized multiplicity, a missing edge, an out-of-range
    # vertex and a self-loop
    pairs = [(1, 0, 1), (1, 2, 2), (4, 3, 1), (2, 5, 1), (7, 1, 1), (3, 3, 1),
             (3, 4, 5), (4, 1, 1)]
    folded = _bmatching(WarmStart(x=np.zeros(6), pairs=pairs).fold_matching(g))
    eid = {(int(u), int(v)): e for e, (u, v) in enumerate(zip(g.src, g.dst))}
    order = [
        eid[key]
        for key in sorted((min(u, v), max(u, v)) for u, v, _ in pairs)
        if key in eid
    ]
    assert folded != _uncapped_scan(g, order), "fold cap does not bind"
    out["caps:fold"] = _sha(folded)
    return out


def _multigraph(rng, n: int, m: int):
    """Random endpoints with parallel edges and self-loops."""
    return rng.integers(0, n, size=m), rng.integers(0, n, size=m)


class _SparsifierProbe:
    """Counts, across every :class:`StreamingCutSparsifier` built while
    it is active, the non-loop edges inserted, the edges stored and the
    edges extracted."""

    def __init__(self):
        self.inserted = 0
        self.stored = 0
        self.extracted = 0

    def __enter__(self):
        from repro.sparsify.cut_sparsifier import StreamingCutSparsifier as S

        insert_many, extract = S.insert_many, S.extract
        probe = self

        def counted_insert(sp, u, v, w=1.0, ids=None):
            probe.inserted += int((np.asarray(u) != np.asarray(v)).sum())
            return insert_many(sp, u, v, w, ids)

        def counted_extract(sp):
            sample = extract(sp)
            probe.stored += sp.stored_count()
            probe.extracted += len(sample)
            return sample

        self._saved = (S, insert_many, extract)
        S.insert_many, S.extract = counted_insert, counted_extract
        return self

    def __exit__(self, *exc):
        S, insert_many, extract = self._saved
        S.insert_many, S.extract = insert_many, extract


def forests() -> dict:
    """The Nagamochi-Ibaraki forests at small ``k``.

    At the other groups' sizes the default forest count is far above
    ``n``, so no edge is rejected (index ``k + 1``) and extraction
    never reads a full ``k``-th forest.  Each case here asserts that
    both branches ran: some index exceeds ``k``, and extraction finds
    some edge's first separating level ``i' > 0``.  At ``k >= 2`` such
    an edge is kept with its weight times ``2**i'``.  At ``k = 1`` it
    is always dropped: a stored edge joins its endpoints in the one
    forest of every level it survived to, so ``i'`` exceeds its
    survival level unless no level separates them (``i' = 0``).
    """
    from repro.core.matching_solver import SolverConfig
    from repro.graphgen import generate_gnm_file, gnm_graph, with_uniform_weights
    from repro.ingest import FileBackedGraph
    from repro.sparsify.connectivity import ni_forest_index
    from repro.sparsify.cut_sparsifier import (
        StreamingCutSparsifier,
        connectivity_sampling_probs,
    )
    from repro.streaming.streaming_matching import SemiStreamingMatchingSolver

    out = {}
    rng = np.random.default_rng(26)
    for n, m in ((12, 200), (40, 600), (150, 3000)):
        src, dst = _multigraph(rng, n, m)
        for k in (1, 2, 3, None):
            idx = ni_forest_index(n, src, dst, k=k)
            assert (idx > (n if k is None else k)).any(), (n, k)
            out[f"forests:index:{n}:{k}"] = _sha(idx.tolist())

    g = with_uniform_weights(gnm_graph(300, 3000, seed=31), 1.0, 100.0, seed=32)
    p = connectivity_sampling_probs(g, g.weight, rho=2.0)
    assert (p < 1.0).any()
    out["forests:probs"] = _sha([_hex(v) for v in p])

    g = gnm_graph(200, 4000, seed=33)
    w = np.random.default_rng(34).uniform(0.5, 4.0, g.m)
    for k in (1, 2, 3):
        with _SparsifierProbe() as probe:
            sp = StreamingCutSparsifier(g.n, xi=0.5, seed=35 + k, k=k)
            for start in range(0, g.m, 17):
                stop = start + 17
                sp.insert_many(g.src[start:stop], g.dst[start:stop], w[start:stop])
            sample = sp.extract()
        assert probe.stored < probe.inserted, k
        if k == 1:
            assert probe.extracted < probe.stored
        else:
            assert (sample.weights > w[sample.edge_ids]).any(), k
        out[f"forests:streaming:{k}"] = _sha(
            {
                "ids": sample.edge_ids.tolist(),
                "weights": [_hex(v) for v in sample.weights],
                "stored": sp.stored_count(),
            }
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = generate_gnm_file(Path(tmp) / "forests.edges", 256, 4096, seed=36)
        config = SolverConfig(
            eps=0.3, seed=7, inner_steps=40, offline="local", target_gap=0.75
        )
        fbg = FileBackedGraph(path, chunk_edges=1000, materialize_policy="forbid")
        with _SparsifierProbe() as probe:
            res = SemiStreamingMatchingSolver(config, sparsifier_k=1).solve(fbg)
        out["forests:semi_streaming"] = solve_digest(res)
        fbg.file.close()
    assert probe.extracted < probe.stored < probe.inserted
    return out


GROUPS = {
    "backends": backends,
    "caps": caps,
    "file_backed": file_backed,
    "forests": forests,
    "mixed_run_many": mixed_run_many,
    "oracle": oracle,
    "oracle_routes": oracle_routes,
    "scans": scans,
    "sketches": sketches,
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
