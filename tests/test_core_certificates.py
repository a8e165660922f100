"""Tests for certificates: the dual upper bound must always be rigorous."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.certificates import certify
from repro.core.initial import build_initial_solution
from repro.core.levels import discretize
from repro.core.matching_solver import DualPrimalMatchingSolver
from repro.core.relaxations import LayeredDual
from repro.graphgen import gnm_graph, odd_cycle_chain, with_uniform_weights
from repro.matching.exact import max_weight_matching_exact
from repro.matching.verify import verify_dual_upper_bound
from repro.util.graph import Graph
from test_certificates_property import random_dual, random_instance

#: The golden groups whose cases solve (the rest pin the oracle,
#: sketches and saturating scans, and make no certificate).
SOLVER_GROUPS = [
    "backends",
    "file_backed",
    "mixed_run_many",
    "oracle_routes",
    "scans",
    "solve_default_tiny",
    "warm_session",
]


class TestCertify:
    def test_bound_dominates_optimum_from_initial_dual(self):
        g = with_uniform_weights(gnm_graph(20, 80, seed=0), seed=1)
        lv = discretize(g, eps=0.25)
        init = build_initial_solution(lv, seed=2)
        cert = certify(init.dual)
        opt = max_weight_matching_exact(g).weight()
        assert cert.upper_bound >= opt - 1e-6

    def test_bound_dominates_for_arbitrary_dual(self):
        """Even a garbage dual state must certify a TRUE upper bound."""
        g = with_uniform_weights(gnm_graph(15, 50, seed=3), seed=4)
        lv = discretize(g, eps=0.3)
        d = LayeredDual(lv)
        d.x[:, :] = 0.01  # tiny -> lambda tiny -> huge but valid bound
        cert = certify(d)
        opt = max_weight_matching_exact(g).weight()
        assert cert.upper_bound >= opt

    def test_perfect_dual_gives_tight_bound(self):
        """Dual covering every edge exactly certifies ~the LP bound."""
        g = gnm_graph(10, 25, seed=5)  # unit weights
        lv = discretize(g, eps=0.2)
        d = LayeredDual(lv)
        k = int(lv.level[lv.live_edges()[0]])
        d.x[:, k] = 0.5 * lv.level_weight(k)
        cert = certify(d)
        # bound ~ (1+eps) * n/2 * scale-corrections; must be >= matching
        opt = max_weight_matching_exact(g).weight()
        assert cert.upper_bound >= opt
        assert cert.upper_bound <= 1.5 * (g.n / 2 + 1)

    def test_odd_set_certificate_transfers(self):
        g = odd_cycle_chain(2, 5, link_weight=0.05)
        lv = discretize(g, eps=0.25)
        d = LayeredDual(lv)
        # cover cycle edges with z on the two 5-sets at level 0 plus x
        d.x[:, :] = 0.35 * lv.level_weight(np.arange(lv.num_levels))[None, :]
        cert = certify(d)
        assert cert.upper_bound >= max_weight_matching_exact(g).weight()
        assert cert.z == {} or all(v >= 0 for v in cert.z.values())

    def test_certified_ratio_caps_at_reality(self):
        g = gnm_graph(12, 30, seed=6)
        lv = discretize(g, eps=0.25)
        init = build_initial_solution(lv, seed=7)
        cert = certify(init.dual)
        opt = max_weight_matching_exact(g).weight()
        # ratio of the true optimum against the bound is <= 1
        assert cert.certified_ratio(opt) <= 1.0 + 1e-9

    def test_scale_factor_reflects_lambda(self):
        """``scale_factor`` is the exact rescale ``(1 + 1e-9) / rho``, at
        most the worst-case ``(1 + eps)(1 + 1e-9) / lambda``."""
        g = gnm_graph(10, 20, seed=8)
        lv = discretize(g, eps=0.2)
        d = LayeredDual(lv)
        d.x[:, :] = 0.25
        cert = certify(d)
        live = lv.live_edges()
        xs = cert.dual_x
        rho = ((xs[g.src[live]] + xs[g.dst[live]]) / g.weight[live]).min()
        assert cert.scale_factor == pytest.approx((1 + 1e-9) / rho)
        assert cert.scale_factor <= (1 + 0.2) * (1 + 1e-9) / cert.lambda_min

    def test_vertex_without_edges_ends_at_zero(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)], [3.0, 2.0])
        lv = discretize(g, eps=0.2)
        d = LayeredDual(lv)
        d.x[:, :] = 5.0  # every vertex, isolated ones too, starts high
        cert = certify(d)
        assert cert.x[3] == 0.0 and cert.x[4] == 0.0
        assert cert.upper_bound >= max_weight_matching_exact(g).weight()


def reference_certify(dual: LayeredDual):
    """The 1.13.0 certificate arithmetic, kept as the reference point:
    rescale the raw collapse by the worst case ``(1+eps)/lambda`` and
    pad every vertex by ``scale/2``.  Returns ``(bound, f, x, z)``."""
    levels = dual.levels
    lam = dual.lambda_min()
    f = (1.0 + levels.eps) * (1.0 + 1e-9) / max(lam, 1e-12)
    xs, zs = dual.lp2_certificate()
    x = f * xs + 0.5 * levels.scale
    z = {U: f * v for U, v in zs.items() if v > 0}
    return verify_dual_upper_bound(levels.graph, x, z), f, x, z


def assert_at_or_below_reference(dual: LayeredDual, cert) -> None:
    """The new point is at or below the reference point entry by entry,
    so its bound is too."""
    bound, f, x, z = reference_certify(dual)
    assert cert.lambda_min == dual.lambda_min()
    assert cert.upper_bound <= bound
    assert cert.scale_factor <= f
    assert np.all(cert.x <= x)
    assert set(cert.z) <= set(z)
    assert all(v <= z[U] for U, v in cert.z.items())


class TestAgainstReference:
    """The tight certificate never bounds higher than the 1.13.0 one."""

    @given(st.integers(0, 2**31 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_duals(self, seed, with_z):
        g = random_instance(seed)
        dual = random_dual(discretize(g, 0.2), seed + 1, with_z=with_z)
        assert_at_or_below_reference(dual, certify(dual))

    @pytest.mark.parametrize("group", SOLVER_GROUPS)
    def test_golden_solver_cases(self, group, monkeypatch):
        """Every certificate made while the golden group's solves run,
        each round's included."""
        import repro.core.certificates as certificates
        import repro.core.matching_solver as ms
        from test_golden import GROUPS

        made = []

        def checked(dual):
            cert = certify(dual)
            assert_at_or_below_reference(dual, cert)
            made.append(cert)
            return cert

        monkeypatch.setattr(ms, "certify", checked)
        monkeypatch.setattr(certificates, "certify", checked)
        GROUPS[group]()
        assert made


def odd_set_bound(n: int, big_b: int, eps: float) -> float:
    """Section 1's bound on the odd sets with ``z_U > 0``, constant 1.

    ``eps^-5 log2(B) log2(n)^2 log2(1/eps)^2``, each logarithm at least 1.
    """
    log_b = max(1.0, math.log2(max(2, big_b)))
    log_n = max(1.0, math.log2(max(2, n)))
    log_e = max(1.0, math.log2(1.0 / eps))
    return eps**-5 * log_b * log_n**2 * log_e**2


class TestSolverStaysInsideBudget:
    def test_solver_odd_set_support_sparse(self):
        g = odd_cycle_chain(4, 5)
        res = DualPrimalMatchingSolver(eps=0.2, seed=1, inner_steps=150).solve(g)
        # the final certificate's z support (original-units view)
        count = len(res.certificate.z)
        assert count <= odd_set_bound(g.n, g.total_capacity, 0.2)
        # and the support is genuinely sparse relative to 2^n
        assert count < 64

    def test_random_graph_support_sparse(self):
        g = with_uniform_weights(gnm_graph(24, 100, seed=2), 1, 20, seed=3)
        res = DualPrimalMatchingSolver(eps=0.25, seed=4, inner_steps=100).solve(g)
        assert len(res.certificate.z) <= odd_set_bound(g.n, g.n, 0.25)
