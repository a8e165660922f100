"""Tests for the MicroOracle (Algorithm 5)."""

import numpy as np
import pytest

from repro.core.levels import discretize
from repro.core.micro_oracle import (
    OracleDualStep,
    OracleWitness,
    SupportVector,
    micro_oracle,
)
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.util.graph import Graph


@pytest.fixture
def setup():
    g = with_uniform_weights(gnm_graph(20, 80, seed=0), 1.0, 20.0, seed=1)
    lv = discretize(g, eps=0.25)
    live = lv.live_edges()
    support = SupportVector(live, np.ones(len(live)))
    zeta = np.zeros((g.n, lv.num_levels))
    return g, lv, support, zeta


class TestMicroOracle:
    def test_zero_gamma_returns_zero_step(self, setup):
        g, lv, support, zeta = setup
        zeta_big = zeta + 100.0  # forces gamma <= 0
        out = micro_oracle(lv, support, zeta_big, beta=10.0, rho=1.0)
        assert isinstance(out, OracleDualStep)
        assert out.route == "zero"
        assert np.all(out.dual.x == 0)

    def test_large_beta_triggers_vertex_route(self, setup):
        """Step 3's threshold is gamma * b * w / beta: a LARGE budget beta
        lowers it, so Viol(V) fills up and the vertex route fires."""
        g, lv, support, zeta = setup
        out = micro_oracle(lv, support, zeta, beta=1e9, rho=1.0)
        assert isinstance(out, OracleDualStep)
        assert out.route == "vertex"
        assert out.dual.x.max() > 0

    def test_vertex_route_mass_normalized(self, setup):
        """The vertex route spends exactly gamma in the Lagrangian sense:
        sum_{i,k} x_i(k) * net(i,k) == gamma (Algorithm 5's accounting)."""
        g, lv, support, zeta = setup
        out = micro_oracle(lv, support, zeta, beta=1e9, rho=1.0)
        s = np.zeros((g.n, lv.num_levels))
        ids = support.edge_ids
        k = lv.level[ids]
        np.add.at(s, (g.src[ids], k), support.values)
        np.add.at(s, (g.dst[ids], k), support.values)
        spent = float((out.dual.x * s).sum())
        assert spent == pytest.approx(out.gamma, rel=1e-6)

    def test_vertex_route_budget(self, setup):
        """sum b_i x_i <= beta (Algorithm 5's budget accounting)."""
        g, lv, support, zeta = setup
        beta = 1e3  # large enough for the vertex route on this instance
        out = micro_oracle(lv, support, zeta, beta=beta, rho=1.0)
        assert out.route == "vertex"
        obj = float((g.b * out.dual.vertex_costs()).sum())
        assert obj <= beta + 1e-9

    def test_small_beta_yields_witness(self, setup):
        """Tiny beta raises every threshold: neither vertices nor odd sets
        can absorb the mass, so Algorithm 5 falls through to the LP7
        witness (step 21)."""
        g, lv, support, zeta = setup
        out = micro_oracle(lv, support, zeta, beta=1e-3, rho=1.0)
        assert isinstance(out, OracleWitness)
        # the witness certifies the LP7 objective >= (1 - eps) beta
        assert out.lp7_value >= (1 - 0.25) * 1e-3 - 1e-12

    def test_witness_y_supported_on_input(self, setup):
        g, lv, support, zeta = setup
        out = micro_oracle(lv, support, zeta, beta=1e-3, rho=1.0)
        assert isinstance(out, OracleWitness)
        assert set(out.y) <= set(map(int, support.edge_ids))

    def test_witness_vertex_constraints(self, setup):
        """LP7: per-vertex sum_k (y-load - 2 mu) <= b_i."""
        g, lv, support, zeta = setup
        out = micro_oracle(lv, support, zeta, beta=1e-3, rho=1.0)
        assert isinstance(out, OracleWitness)
        loads = np.zeros((g.n, lv.num_levels))
        for e, yv in out.y.items():
            k = lv.level[e]
            loads[g.src[e], k] += yv
            loads[g.dst[e], k] += yv
        net = np.maximum(loads - 2.0 * out.mu, 0.0)
        assert np.all(net.sum(axis=1) <= g.b + 1e-6)

    def test_odd_route_on_tight_triangles(self):
        """Disjoint triangles with all mass internal trigger the z route."""
        edges = []
        for base in (0, 3):
            edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
        g = Graph.from_edges(6, np.asarray(edges), np.ones(6))
        lv = discretize(g, eps=0.25)
        live = lv.live_edges()
        support = SupportVector(live, np.full(len(live), 1.0))
        zeta = np.zeros((6, lv.num_levels))
        # beta chosen so vertices do not violate but odd sets do
        out = micro_oracle(lv, support, zeta, beta=8.0, rho=1.0)
        if isinstance(out, OracleDualStep) and out.route == "oddset":
            sets = {U for (U, _l) in out.dual.z}
            assert all(len(U) == 3 for U in sets)
        else:
            # accept witness (both certify the sample is good) but never
            # a vertex route here: no vertex carries enough mass
            assert isinstance(out, OracleWitness) or out.route != "vertex"

    def test_odd_sets_disabled_for_bipartite(self, setup):
        g, lv, support, zeta = setup
        out = micro_oracle(lv, support, zeta, beta=8.0, rho=1.0, odd_sets=False)
        if isinstance(out, OracleDualStep):
            assert not out.dual.z

    def test_rejects_bad_zeta_shape(self, setup):
        g, lv, support, _ = setup
        with pytest.raises(ValueError):
            micro_oracle(lv, support, np.zeros((2, 2)), beta=1.0, rho=1.0)

    def test_rejects_support_edge_at_dropped_level(self):
        """A dropped edge (level -1) has no (vertex, level) cell to load."""
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [1000.0, 1e-6, 1000.0])
        lv = discretize(g, eps=0.25)
        assert lv.level.tolist() == [12, -1, 12]
        support = SupportVector(np.arange(3), np.ones(3))
        zeta = np.zeros((g.n, lv.num_levels))
        with pytest.raises(ValueError, match="dropped level"):
            micro_oracle(lv, support, zeta, beta=1.0, rho=1.0)

    def test_g_property_on_oddset_route(self):
        """G(us, x): any set with z > 0 has internal mass >= cut mass."""
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]  # triangle + pendant
        g = Graph.from_edges(4, np.asarray(edges), np.ones(4))
        lv = discretize(g, eps=0.25)
        live = lv.live_edges()
        vals = np.array([1.0, 1.0, 1.0, 0.05])  # light pendant
        support = SupportVector(live, vals)
        zeta = np.zeros((4, lv.num_levels))
        out = micro_oracle(lv, support, zeta, beta=6.0, rho=1.0)
        if isinstance(out, OracleDualStep) and out.route == "oddset":
            for (U, ell) in out.dual.z:
                members = set(U)
                internal = sum(
                    v
                    for e, v in zip(live, vals)
                    if g.src[e] in members and g.dst[e] in members
                )
                cut = sum(
                    v
                    for e, v in zip(live, vals)
                    if (g.src[e] in members) != (g.dst[e] in members)
                )
                assert internal >= cut - 1e-9


# ----------------------------------------------------------------------
# micro_oracle runs the solver's batched evaluator on a batch of one; a
# batch built by hand must agree with it on every route, and the packing
# load the evaluator returns must equal z^T Po x of the step
# ----------------------------------------------------------------------
def _triangles():
    edges = []
    for base in (0, 3):
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
    g = Graph.from_edges(6, np.asarray(edges), np.ones(6))
    lv = discretize(g, eps=0.25)
    live = lv.live_edges()
    return lv, SupportVector(live, np.full(len(live), 1.0))


def _triangle_pendant():
    g = Graph.from_edges(4, np.asarray([(0, 1), (1, 2), (0, 2), (2, 3)]), np.ones(4))
    lv = discretize(g, eps=0.25)
    return lv, SupportVector(lv.live_edges(), np.array([1.0, 1.0, 1.0, 0.05]))


def _random_instance():
    g = with_uniform_weights(gnm_graph(20, 80, seed=0), 1.0, 20.0, seed=1)
    lv = discretize(g, eps=0.25)
    live = lv.live_edges()
    return lv, SupportVector(live, np.ones(len(live)))


# (instance, zeta offset, beta, odd_sets, the route micro_oracle takes);
# the odd-set instances are the ones above, at budgets where the odd
# sets (not the vertices, not the witness) absorb the mass
REFERENCE_CASES = {
    "zero": (_random_instance, 100.0, 10.0, True, "zero"),
    "vertex": (_random_instance, 0.0, 1e9, True, "vertex"),
    "witness": (_random_instance, 0.0, 1e-3, True, "witness"),
    "oddset_triangles": (_triangles, 0.0, 50.0, True, "oddset"),
    "oddset_pendant": (_triangle_pendant, 0.0, 16.0, True, "oddset"),
    "witness_triangles": (_triangles, 0.0, 8.0, True, "witness"),
    "bipartite_oracle": (_random_instance, 0.0, 8.0, False, "witness"),
}


def _route(out) -> str:
    return "witness" if isinstance(out, OracleWitness) else out.route


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_batch_of_one_equals_micro_oracle(case):
    from repro.core.batch import GraphBatch, StoredBatchLayout
    from repro.core.micro_oracle import BatchMicroContext
    from repro.kernels import OracleCells, OracleScratch

    make, offset, beta, odd_sets, route = REFERENCE_CASES[case]
    lv, support = make()
    zeta = np.zeros((lv.graph.n, lv.num_levels)) + offset
    ref = micro_oracle(lv, support, zeta, beta=beta, rho=1.0, odd_sets=odd_sets)
    assert _route(ref) == route  # the case exercises what it names

    batch = GraphBatch(graphs=[lv.graph], levels=[lv])
    stored = StoredBatchLayout.build(
        batch, {0: (support.edge_ids, np.ones(len(support.edge_ids)))}
    )
    flat_zeta = np.ascontiguousarray(zeta).ravel()
    hik_idx = np.flatnonzero(flat_zeta != 0.0)
    zmul = flat_zeta[hik_idx]
    cells = OracleCells(batch, hik_idx, np.concatenate([stored.src_vl, stored.dst_vl]))
    ctx = BatchMicroContext(
        OracleScratch(batch, cells), [0], stored, support.values, zmul,
        beta={0: beta}, use_odd={0: odd_sets}, eps=lv.eps,
    )
    results, po = ctx.evaluate([0], {0: 1.0})
    got = results[0]

    assert _route(got) == _route(ref)
    assert got.gamma == ref.gamma
    if isinstance(ref, OracleWitness):
        assert got.y == ref.y
        assert np.array_equal(got.mu, ref.mu)
        assert got.lp7_value == ref.lp7_value
        assert 0 not in po
        return
    assert got.gamma_prime == ref.gamma_prime
    assert np.array_equal(got.dual.x, ref.dual.x)
    assert got.dual.z == ref.dual.z
    # the packing load the Lagrangian search reads: z^T Po x at the
    # nonzero zeta cells
    lhs = 2.0 * ref.dual.x + ref.dual.z_load()
    assert po[0] == float((zmul * lhs.ravel()[hik_idx]).sum())
