"""Turnstile-parity battery: dynamic sessions == offline on the final graph.

The linearity claim behind the whole dynamic subsystem is testable
exactly: after *any* interleaving of strict-turnstile inserts and
deletes -- including insert-then-delete cancellations all the way back
to the empty graph --

* ``DynamicGraphSession.query_matching()`` (cold mode, the default)
  must equal ``run(Problem(final_graph), backend="offline")`` **bit for
  bit** (matching ids/multiplicities, certificate vectors, resource
  ledger), across weighted, bipartite, and b-matching instances;
* ``DynamicGraphSession.query_forest()`` must equal the one-shot
  dynamic-stream sketch pipeline
  (:func:`~repro.streaming.semi_streaming.dynamic_stream_spanning_forest`)
  on the same event log with the same seed, and a fresh session built
  directly on the final graph;
* the registered ``dynamic`` backend must reproduce both through the
  facade from a ``Problem`` carrying the update log in its options.

Randomized interleavings are driven by hypothesis; the deletions are
real (the generator deletes with probability ~0.45 whenever possible),
so every run exercises the negative-frequency sketch path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Problem, run
from repro.core.matching_solver import SolverConfig
from repro.dynamic import DynamicGraphSession, canonical_updates
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.streaming import DynamicEdgeStream, dynamic_stream_spanning_forest
from repro.util.graph import Graph

FAST = dict(eps=0.3, inner_steps=40, offline="local", round_cap_factor=0.6)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ======================================================================
# Interleaving generator
# ======================================================================
@st.composite
def turnstile_logs(draw, max_n=10, max_events=40, bipartite=False, weighted=True):
    """A strict-turnstile event log: ``(n, [("+"/"-", u, v, w)])``.

    Deletions are drawn aggressively (p ~ .45 whenever an edge is
    live); endpoint orientation is randomized so canonicalization is
    exercised.  With ``bipartite=True`` all edges cross a fixed split.
    """
    n = draw(st.integers(min_value=4, max_value=max_n))
    steps = draw(st.integers(min_value=0, max_value=max_events))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    live: dict[tuple[int, int], float] = {}
    log: list[tuple] = []
    half = n // 2
    for _ in range(steps):
        if live and rng.random() < 0.45:
            key = sorted(live)[rng.integers(len(live))]
            del live[key]
            u, v = key if rng.random() < 0.5 else key[::-1]
            log.append(("-", int(u), int(v)))
            continue
        if bipartite:
            u = int(rng.integers(0, half))
            v = int(rng.integers(half, n))
        else:
            u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in live:
            continue
        w = float(rng.integers(1, 32)) if weighted else 1.0
        live[key] = w
        log.append(("+", u, v, w))
    return n, log


def materialize(n, log, b=None) -> Graph:
    """Reference final graph, built independently of the session."""
    live: dict[tuple[int, int], float] = {}
    for ev in log:
        key = (min(ev[1], ev[2]), max(ev[1], ev[2]))
        if ev[0] == "+":
            live[key] = ev[3]
        else:
            del live[key]
    items = sorted(live.items())
    if not items:
        return Graph.empty(n, b=None if b is None else np.asarray(b))
    return Graph.from_edges(n, [k for k, _ in items], [w for _, w in items], b=b)


def assert_bit_identical(dyn, off):
    """Full-result equality: matching, certificate, ledger, history."""
    assert np.array_equal(dyn.matching.edge_ids, off.matching.edge_ids)
    assert np.array_equal(dyn.matching.multiplicity, off.matching.multiplicity)
    assert dyn.weight == off.weight
    assert dyn.certificate.upper_bound == off.certificate.upper_bound
    assert dyn.certificate.lambda_min == off.certificate.lambda_min
    assert np.array_equal(dyn.certificate.x, off.certificate.x)
    assert dyn.certificate.z == off.certificate.z
    assert dyn.raw.rounds == off.raw.rounds
    assert dyn.raw.history == off.raw.history
    assert dyn.raw.resources == off.raw.resources


# ======================================================================
# Matching parity (weighted / bipartite), queries at the end
# ======================================================================
class TestMatchingParity:
    @SETTINGS
    @given(case=turnstile_logs(), solver_seed=st.integers(0, 2**31))
    def test_weighted_parity(self, case, solver_seed):
        n, log = case
        cfg = SolverConfig(seed=solver_seed, **FAST)
        sess = DynamicGraphSession(n, config=cfg)
        sess.apply(canonical_updates(log))
        dyn = sess.query_matching()
        off = run(Problem(materialize(n, log), config=cfg), backend="offline")
        assert_bit_identical(dyn, off)

    @SETTINGS
    @given(case=turnstile_logs(bipartite=True), solver_seed=st.integers(0, 2**31))
    def test_bipartite_parity(self, case, solver_seed):
        n, log = case
        cfg = SolverConfig(seed=solver_seed, **FAST)
        sess = DynamicGraphSession(n, config=cfg)
        sess.apply(canonical_updates(log))
        assert_bit_identical(
            sess.query_matching(),
            run(Problem(materialize(n, log), config=cfg), backend="offline"),
        )

    @SETTINGS
    @given(case=turnstile_logs(max_events=24), data=st.data())
    def test_query_at_any_time_parity(self, case, data):
        """Queries at random interior points (not just the end) match
        offline on the graph materialized from the log prefix."""
        n, log = case
        cfg = SolverConfig(seed=5, **FAST)
        sess = DynamicGraphSession(n, config=cfg)
        query_points = set(
            data.draw(
                st.lists(
                    st.integers(0, max(0, len(log) - 1)), max_size=3, unique=True
                )
            )
        )
        for i, ev in enumerate(log):
            sess.apply([ev])
            if i in query_points:
                off = run(
                    Problem(materialize(n, log[: i + 1]), config=cfg),
                    backend="offline",
                )
                assert_bit_identical(sess.query_matching(), off)
        assert_bit_identical(
            sess.query_matching(),
            run(Problem(materialize(n, log), config=cfg), backend="offline"),
        )

    def test_cancellation_to_empty_graph(self):
        """Insert a clique, delete every edge: the session answers the
        empty instance exactly (and the sketches read all-zero)."""
        cfg = SolverConfig(seed=1, **FAST)
        sess = DynamicGraphSession(6, config=cfg)
        pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        for u, v in pairs:
            sess.insert(u, v, float(u + v + 1))
        for u, v in pairs:
            sess.delete(u, v)
        assert sess.m == 0
        assert sess.sketches.looks_empty()
        dyn = sess.query_matching()
        off = run(Problem(Graph.empty(6), config=cfg), backend="offline")
        assert_bit_identical(dyn, off)
        assert dyn.weight == 0.0
        assert sess.query_forest().forest == []

    def test_bmatching_capacities_parity(self):
        cfg = SolverConfig(seed=2, **FAST)
        b = np.asarray([2, 1, 2, 1, 1, 2])
        base = Graph.empty(6, b=b)
        sess = DynamicGraphSession(6, config=cfg, base_graph=base)
        log = [
            ("+", 0, 1, 4.0),
            ("+", 0, 2, 3.0),
            ("+", 2, 3, 5.0),
            ("-", 0, 1),
            ("+", 4, 5, 2.0),
            ("+", 1, 5, 6.0),
        ]
        sess.apply(canonical_updates(log))
        off = run(Problem(materialize(6, log, b=b), config=cfg), backend="offline")
        assert_bit_identical(sess.query_matching(), off)


# ======================================================================
# Forest parity: session sketch state == one-shot stream pipeline
# ======================================================================
class TestForestParity:
    @SETTINGS
    @given(
        case=turnstile_logs(max_n=12, weighted=False),
        sketch_seed=st.integers(0, 2**31),
    )
    def test_forest_equals_stream_replay_and_fresh_session(self, case, sketch_seed):
        n, log = case
        sess = DynamicGraphSession(n, seed=sketch_seed)
        stream = DynamicEdgeStream(n)
        for ev in log:
            sess.apply([ev])
            if ev[0] == "+":
                stream.insert(ev[1], ev[2], ev[3])
            else:
                stream.delete(ev[1], ev[2])
        forest = sess.query_forest().forest
        # one-shot pipeline over the identical event log, same seed
        assert forest == dynamic_stream_spanning_forest(stream, seed=sketch_seed)
        # fresh session built directly on the final graph: linearity says
        # the sketch cells -- hence the decode -- cannot differ
        fresh = DynamicGraphSession(
            n, seed=sketch_seed, base_graph=materialize(n, log)
        )
        assert forest == fresh.query_forest().forest
        # and the decoded forest is a real spanning forest of the survivors
        final = materialize(n, log)
        from repro.sparsify.union_find import UnionFind

        uf_ref, uf_got = UnionFind(n), UnionFind(n)
        for a, b in zip(final.src, final.dst):
            uf_ref.union(int(a), int(b))
        key_set = set(zip(final.src.tolist(), final.dst.tolist()))
        for i, j in forest:
            assert (min(i, j), max(i, j)) in key_set
            assert uf_got.union(i, j)  # acyclic
        assert all(
            uf_ref.find(v) == uf_ref.find(0) or True for v in range(n)
        )  # smoke: ref union-find built
        comp_ref = {frozenset(v for v in range(n) if uf_ref.find(v) == r) for r in
                    {uf_ref.find(v) for v in range(n)}}
        comp_got = {frozenset(v for v in range(n) if uf_got.find(v) == r) for r in
                    {uf_got.find(v) for v in range(n)}}
        assert comp_ref == comp_got  # same connectivity structure


# ======================================================================
# Facade: the registered dynamic backend
# ======================================================================
class TestDynamicBackend:
    @SETTINGS
    @given(case=turnstile_logs(max_events=24), solver_seed=st.integers(0, 2**31))
    def test_backend_matching_parity(self, case, solver_seed):
        n, log = case
        cfg = SolverConfig(seed=solver_seed, **FAST)
        res = run(
            Problem(
                Graph.empty(n),
                config=cfg,
                options={"updates": canonical_updates(log)},
            ),
            backend="dynamic",
        )
        off = run(Problem(materialize(n, log), config=cfg), backend="offline")
        assert_bit_identical(res, off)
        assert res.backend == "dynamic"
        assert res.ledger.model == "dynamic"

    def test_backend_base_graph_plus_updates(self):
        cfg = SolverConfig(seed=4, **FAST)
        base = Graph.from_edges(5, [(0, 1), (2, 3)], [2.0, 3.0])
        log = [("-", 0, 1), ("+", 1, 4, 6.0)]
        res = run(
            Problem(base, config=cfg, options={"updates": canonical_updates(log)}),
            backend="dynamic",
        )
        final = Graph.from_edges(5, [(1, 4), (2, 3)], [6.0, 3.0])
        off = run(Problem(final, config=cfg), backend="offline")
        assert_bit_identical(res, off)

    def test_backend_forest_task(self):
        log = [("+", 0, 1, 1.0), ("+", 1, 2, 1.0), ("+", 3, 4, 1.0), ("-", 1, 2)]
        res = run(
            Problem(
                Graph.empty(6),
                config=SolverConfig(seed=11),
                task="spanning_forest",
                options={"updates": canonical_updates(log)},
            ),
            backend="dynamic",
        )
        stream = DynamicEdgeStream(6)
        for ev in log:
            (stream.insert if ev[0] == "+" else stream.delete)(ev[1], ev[2])
        assert res.forest == dynamic_stream_spanning_forest(stream, seed=11)
        assert sorted(res.forest) == [(0, 1), (3, 4)]

    def test_default_session_matches_offline_and_backend_ledgers(self):
        """A default session keeps only the sketch its queries read: it
        takes a weight below 1, its matching equals ``offline`` on the
        final graph, and its forest (ledger included) equals the
        ``dynamic`` backend's on the same log."""
        g = with_uniform_weights(gnm_graph(64, 200, seed=5), 1.0, 32.0, seed=6)
        log = [("+", int(u), int(v), float(w)) for u, v, w in g.edges()]
        log += [("-", log[0][1], log[0][2]), ("+", log[0][1], log[0][2], 0.5)]
        cfg = SolverConfig(seed=5, **FAST)
        sess = DynamicGraphSession(g.n, config=cfg)
        sess.apply(canonical_updates(log))
        off = run(Problem(materialize(g.n, log), config=cfg), backend="offline")
        assert_bit_identical(sess.query_matching(), off)
        backend = run(
            Problem(
                Graph.empty(g.n),
                config=cfg,
                task="spanning_forest",
                options={"updates": canonical_updates(log)},
            ),
            backend="dynamic",
        )
        forest = sess.query_forest()
        assert forest.forest == backend.forest
        assert forest.ledger == backend.ledger

    def test_backend_problem_is_fingerprintable(self):
        p1 = Problem(
            Graph.empty(4),
            options={"updates": canonical_updates([("+", 0, 1, 2.0)])},
        )
        p2 = Problem(
            Graph.empty(4),
            options={"updates": canonical_updates([("+", 0, 1, 3.0)])},
        )
        assert p1.fingerprint() != p2.fingerprint()

    def test_backend_malformed_updates_raise(self):
        with pytest.raises(ValueError, match="malformed"):
            run(
                Problem(Graph.empty(4), options={"updates": [["*", 0, 1]]}),
                backend="dynamic",
            )
