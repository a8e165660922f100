"""Tests for the initial dual solution (Lemmas 12, 20, 21)."""

import numpy as np
import pytest

from repro.core.initial import build_initial_solution
from repro.core.levels import discretize
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.matching.exact import max_weight_matching_exact
from repro.matching.maximal import is_maximal
from repro.util.instrumentation import ResourceLedger


@pytest.fixture
def levels(weighted_graph):
    return discretize(weighted_graph, eps=0.25)


class TestInitialSolution:
    def test_every_live_edge_covered_at_rate_r(self, levels):
        """Maximality per level forces coverage >= r * ŵ_k on every edge."""
        init = build_initial_solution(levels, seed=0)
        ids = levels.live_edges()
        cover = init.dual.edge_cover(ids)
        need = init.r * levels.level_weight(levels.level[ids])
        assert np.all(cover >= need - 1e-12)

    def test_x_bounded_by_level_weight(self, levels):
        init = build_initial_solution(levels, seed=1)
        wk = levels.level_weight(np.arange(levels.num_levels))
        assert np.all(init.dual.x <= wk[None, :] + 1e-12)

    def test_beta0_lower_bound_vs_optimum(self, weighted_graph, levels):
        """beta0 >= beta^b / a with a = 2048 eps^-2 (Lemma 21, loose check)."""
        init = build_initial_solution(levels, seed=2)
        opt = max_weight_matching_exact(weighted_graph).weight()
        opt_rescaled = opt / levels.scale
        a = 2048.0 * levels.eps**-2
        assert init.beta0 >= opt_rescaled / a - 1e-9

    def test_beta0_upper_bound(self, weighted_graph, levels):
        """beta0 <= beta^b / 4 <= (3/2) beta* / 4 (Lemma 21 upper side)."""
        init = build_initial_solution(levels, seed=3)
        opt = max_weight_matching_exact(weighted_graph).weight()
        # beta^b <= 3/2 * betahat and betahat <= (B/W*)beta*; generous slack
        opt_rescaled = opt * (1 + levels.eps) / levels.scale
        assert init.beta0 <= 1.5 * opt_rescaled / 4 + 1e-9

    def test_per_level_matchings_maximal(self, levels):
        init = build_initial_solution(levels, seed=4)
        for k, mk in init.per_level.items():
            sub = levels.graph.edge_subgraph(levels.edges_at(k))
            loads = np.zeros(levels.graph.n, dtype=np.int64)
            np.add.at(loads, levels.graph.src[mk.edge_ids], mk.multiplicity)
            np.add.at(loads, levels.graph.dst[mk.edge_ids], mk.multiplicity)
            saturated = loads >= levels.graph.b
            assert np.all(saturated[sub.src] | saturated[sub.dst])

    def test_merged_matching_valid(self, levels):
        init = build_initial_solution(levels, seed=5)
        assert init.merged.is_valid()

    def test_merged_weight_constant_fraction(self, weighted_graph, levels):
        """The merged warm start is a decent constant-factor matching."""
        init = build_initial_solution(levels, seed=6)
        opt = max_weight_matching_exact(weighted_graph).weight()
        assert init.merged.weight() >= opt / 16.0

    def test_sampled_mode_charges_rounds(self, levels):
        led = ResourceLedger()
        build_initial_solution(levels, seed=7, ledger=led, sampled=True)
        assert led.sampling_rounds >= len(levels.nonempty_levels())

    def test_deterministic(self, levels):
        a = build_initial_solution(levels, seed=8)
        b = build_initial_solution(levels, seed=8)
        assert np.allclose(a.dual.x, b.dual.x)
        assert a.beta0 == b.beta0


def test_file_backed_initial_solution_gathers_nothing(tmp_path, monkeypatch):
    """Out of core, the per-level saturated sets come from the scan's
    residuals and the merge reuses the scan's endpoints: building the
    initial solution reads the file in ranges only, never by gather."""
    from repro.graphgen import generate_gnm_file
    from repro.ingest import FileBackedGraph
    from repro.ingest.format import EdgeFile

    path = generate_gnm_file(
        tmp_path / "g.edges", 200, 1500, seed=4, weights=(1.0, 100.0)
    )
    fbg = FileBackedGraph(path, chunk_edges=400, materialize_policy="forbid")
    levels = discretize(fbg, eps=0.25)
    assert len(levels.nonempty_levels()) > 2
    gathers = []
    gather_raw = EdgeFile.gather_raw

    def counted(self, column, ids):
        gathers.append(column)
        return gather_raw(self, column, ids)

    monkeypatch.setattr(EdgeFile, "gather_raw", counted)
    init = build_initial_solution(levels, seed=9)
    assert gathers == []
    monkeypatch.undo()
    fbg.file.close()
    ram = FileBackedGraph(path).materialize()
    want = build_initial_solution(discretize(ram, eps=0.25), seed=9)
    assert np.array_equal(init.dual.x, want.dual.x) and init.beta0 == want.beta0
    assert np.array_equal(init.merged.edge_ids, want.merged.edge_ids)
    assert np.array_equal(init.merged.multiplicity, want.merged.multiplicity)
    ram.file.close()
