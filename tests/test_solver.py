"""End-to-end tests for the dual-primal matching solver (Theorem 15)."""

import numpy as np
import pytest

from repro.core.certificates import certify
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.graphgen import (
    barbell_odd,
    crown_graph,
    gnm_graph,
    odd_cycle_chain,
    random_bipartite,
    triangle_gadget,
    with_random_capacities,
    with_uniform_weights,
)
from repro.matching.exact import (
    max_weight_bmatching_exact,
    max_weight_matching_exact,
)
from repro.util.graph import Graph

FAST = dict(inner_steps=300, round_cap_factor=2.0)


class TestSolverBasics:
    def test_empty_graph(self):
        res = DualPrimalMatchingSolver(eps=0.2).solve(Graph.empty(5))
        assert res.weight == 0.0
        assert res.rounds == 0

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)], [7.0])
        res = DualPrimalMatchingSolver(eps=0.2, seed=0, **FAST).solve(g)
        assert res.weight == pytest.approx(7.0)
        assert res.matching.is_valid()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(p=1.0)
        with pytest.raises(ValueError):
            SolverConfig(offline="magic")

    def test_config_or_kwargs_not_both(self):
        with pytest.raises(ValueError):
            DualPrimalMatchingSolver(SolverConfig(), eps=0.1)

    def test_faithful_forces_unit_step(self):
        cfg = SolverConfig(faithful=True, step_scale=10.0)
        assert cfg.step_scale == 1.0


class TestApproximationQuality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_weighted_graphs(self, seed):
        g = with_uniform_weights(gnm_graph(40, 200, seed=seed), 1, 50, seed=seed + 10)
        res = DualPrimalMatchingSolver(eps=0.2, seed=seed, **FAST).solve(g)
        opt = max_weight_matching_exact(g).weight()
        assert res.matching.is_valid()
        assert res.weight >= (1 - 0.2) * opt

    def test_bipartite(self):
        g = random_bipartite(15, 15, 80, seed=3)
        res = DualPrimalMatchingSolver(eps=0.2, seed=4, **FAST).solve(g)
        opt = max_weight_matching_exact(g).weight()
        assert res.weight >= (1 - 0.2) * opt

    def test_odd_cycle_chain(self):
        g = odd_cycle_chain(3, 5)
        res = DualPrimalMatchingSolver(eps=0.25, seed=5, **FAST).solve(g)
        opt = max_weight_matching_exact(g).weight()
        assert res.weight >= (1 - 0.25) * opt

    def test_triangle_gadget(self):
        g = triangle_gadget(0.1)
        res = DualPrimalMatchingSolver(eps=0.15, seed=6, **FAST).solve(g)
        opt = max_weight_matching_exact(g).weight()
        assert res.weight >= (1 - 0.15) * opt

    def test_crown(self):
        g = crown_graph(8)
        res = DualPrimalMatchingSolver(eps=0.2, seed=7, **FAST).solve(g)
        assert res.weight >= (1 - 0.2) * 8.0

    def test_barbell(self):
        g = barbell_odd(5)
        res = DualPrimalMatchingSolver(eps=0.2, seed=8, **FAST).solve(g)
        opt = max_weight_matching_exact(g).weight()
        assert res.weight >= (1 - 0.2) * opt

    def test_bmatching(self):
        g = with_random_capacities(
            with_uniform_weights(gnm_graph(20, 80, seed=9), 1, 20, seed=10), 1, 3, seed=11
        )
        res = DualPrimalMatchingSolver(eps=0.25, seed=12, **FAST).solve(g)
        opt = max_weight_bmatching_exact(g).weight()
        assert res.matching.is_valid()
        assert res.weight >= (1 - 0.25) * opt

    def test_local_offline_mode(self):
        g = with_uniform_weights(gnm_graph(30, 150, seed=13), seed=14)
        res = DualPrimalMatchingSolver(eps=0.3, seed=15, offline="local", **FAST).solve(g)
        opt = max_weight_matching_exact(g).weight()
        assert res.weight >= 0.6 * opt  # local search is weaker but valid
        assert res.matching.is_valid()


class TestCertificates:
    def test_certificate_upper_bounds_optimum(self):
        g = with_uniform_weights(gnm_graph(25, 100, seed=16), seed=17)
        res = DualPrimalMatchingSolver(eps=0.25, seed=18, **FAST).solve(g)
        opt = max_weight_matching_exact(g).weight()
        assert res.certificate.upper_bound >= opt - 1e-6

    def test_certified_ratio_consistent(self):
        g = with_uniform_weights(gnm_graph(25, 100, seed=19), seed=20)
        res = DualPrimalMatchingSolver(eps=0.25, seed=21, **FAST).solve(g)
        assert res.certified_ratio == pytest.approx(
            res.weight / res.certificate.upper_bound
        )
        assert res.certified_ratio <= 1.0 + 1e-9

    def test_history_records_progress(self):
        g = with_uniform_weights(gnm_graph(20, 80, seed=22), seed=23)
        res = DualPrimalMatchingSolver(eps=0.25, seed=24, **FAST).solve(g)
        assert len(res.history) == res.rounds
        ubs = [h["upper_bound"] for h in res.history]
        assert ubs[-1] <= ubs[0] + 1e-9  # certificate never degrades much


class TestResourceAccounting:
    def test_rounds_capped_by_p_over_eps(self):
        g = with_uniform_weights(gnm_graph(30, 150, seed=25), seed=26)
        cfg = SolverConfig(eps=0.25, p=2.0, seed=27, round_cap_factor=2.0, inner_steps=100)
        res = DualPrimalMatchingSolver(cfg).solve(g)
        assert res.rounds <= int(np.ceil(2.0 * 2.0 / 0.25))

    def test_ledger_snapshot_present(self):
        g = gnm_graph(15, 40, seed=28)
        res = DualPrimalMatchingSolver(eps=0.3, seed=29, **FAST).solve(g)
        assert res.resources["sampling_rounds"] >= 1
        assert res.resources["oracle_calls"] >= 0

    def test_deterministic_given_seed(self):
        g = with_uniform_weights(gnm_graph(20, 70, seed=30), seed=31)
        r1 = DualPrimalMatchingSolver(eps=0.3, seed=42, **FAST).solve(g)
        r2 = DualPrimalMatchingSolver(eps=0.3, seed=42, **FAST).solve(g)
        assert r1.weight == r2.weight
        assert r1.rounds == r2.rounds


class TestOneCertificatePerRound:
    """Each round certifies its dual once, and the result reuses it."""

    @pytest.fixture
    def certify_calls(self, monkeypatch):
        import repro.core.matching_solver as ms

        calls = []

        def counting(dual):
            calls.append(certify(dual))
            return calls[-1]

        monkeypatch.setattr(ms, "certify", counting)
        return calls

    @staticmethod
    def _check(res, calls):
        assert len(calls) == res.rounds
        bounds = [h["upper_bound"] for h in res.history]
        assert res.certificate.upper_bound == min(bounds)
        assert res.lambda_min == res.history[-1]["lambda"]
        # one of the rounds' certificates, with the last round's raw point
        assert any(res.certificate.x is cert.x for cert in calls)
        assert res.certificate.dual_x is calls[-1].dual_x

    def test_target_gap_exit(self, certify_calls):
        g = with_uniform_weights(gnm_graph(20, 60, seed=2), seed=3)
        cfg = SolverConfig(eps=0.3, seed=1, inner_steps=100, offline="local")
        res = DualPrimalMatchingSolver(cfg).solve(g)
        cap = int(np.ceil(cfg.round_cap_factor * cfg.p / cfg.eps))
        assert 1 <= res.rounds < cap
        assert res.certified_ratio >= 1.0 - cfg.eps
        self._check(res, certify_calls)

    def test_round_cap_exit(self, certify_calls):
        g = with_uniform_weights(gnm_graph(20, 60, seed=2), seed=3)
        cfg = SolverConfig(
            eps=0.2, seed=3, inner_steps=40, round_cap_factor=0.2, target_gap=0.001
        )
        res = DualPrimalMatchingSolver(cfg).solve(g)
        assert res.rounds == 2  # max(2, ceil(0.2 * p / eps))
        assert res.certified_ratio < 1.0 - cfg.target_gap
        assert res.lambda_min < 1.0 - 3.0 * cfg.eps
        self._check(res, certify_calls)

    def test_result_reports_the_lowest_round_bound(self, certify_calls):
        """A later round can verify a higher bound than an earlier one;
        the result keeps the lowest, which still re-verifies edge by edge."""
        from repro.matching.verify import verify_dual_upper_bound

        g = with_uniform_weights(gnm_graph(16, 40, seed=2), 1.0, 20.0, seed=3)
        cfg = SolverConfig(
            seed=3, eps=0.3, inner_steps=40, offline="local",
            round_cap_factor=0.6, target_gap=0.05,
        )
        res = DualPrimalMatchingSolver(cfg).solve(g)
        bounds = [h["upper_bound"] for h in res.history]
        assert res.rounds > 1 and bounds[-1] > min(bounds)
        self._check(res, certify_calls)
        cert = res.certificate
        assert verify_dual_upper_bound(g, cert.x, cert.z) == cert.upper_bound


class TestLambdaScans:
    """Certificates carry lambda and inner steps bound it: the engine
    scans it once per cold solve."""

    #: Every full lambda scan, ranged or batched, that the engine has
    #: had; a name missing from a class is skipped.
    SCANS = (
        ("repro.core.relaxations", "LayeredDual", "lambda_min"),
        ("repro.core.relaxations", "LayeredDual", "lambda_witness"),
        ("repro.core.batch", "DualBatch", "lambda_min"),
    )

    @pytest.fixture
    def scans(self, monkeypatch):
        import importlib
        import sys

        callers = []
        names = {name for *_, name in self.SCANS}

        def spy(scan):
            def counting(*args):
                caller = sys._getframe(1).f_code.co_name
                if caller not in names:  # not one scan entry calling another
                    callers.append(caller)
                return scan(*args)

            return counting

        for module, cls_name, name in self.SCANS:
            cls = getattr(importlib.import_module(module), cls_name)
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, spy(getattr(cls, name)))
        return callers

    @staticmethod
    def outside_certify(callers):
        return [c for c in callers if c != "certify"]

    def test_cold_solve_scans_once(self, scans):
        g = with_uniform_weights(gnm_graph(20, 60, seed=2), seed=3)
        cfg = SolverConfig(
            eps=0.2, seed=3, inner_steps=40, round_cap_factor=0.1, target_gap=1e-6
        )
        res = DualPrimalMatchingSolver(cfg).solve(g)
        assert res.rounds == 2
        assert self.outside_certify(scans) == ["_init_state"]

    def test_warm_fast_path_hit_scans_none(self, scans):
        from repro.core.matching_solver import WarmStart

        g = with_uniform_weights(gnm_graph(20, 60, seed=2), seed=3)
        solver = DualPrimalMatchingSolver(eps=0.3, seed=1, offline="local")
        warm = WarmStart.from_result(solver.solve(g))
        scans.clear()
        res = solver.solve(g, warm_start=warm)
        assert res.rounds == 0
        assert self.outside_certify(scans) == []
