"""Tests for the Lemma 10 Lagrangian search (repro.core.lagrangian).

The search is driven here the way the solver's lockstep engine drives
it: evaluate the oracle at ``pending_rho``, feed the solution and its
packing load to ``advance``, and repeat until ``outcome`` is set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lagrangian import LagrangianState

CAP = 13.0 / 12.0  # Upsilon at qo_budget = 1


def _linear(a, b, s1, s2):
    return s1 * a + s2 * b


def drive(oracle, po=float, qo_budget=1.0, usc=1.0, eps=0.1, max_invocations=80):
    """Run one search to its outcome and return the finished state."""
    state = LagrangianState(_linear, qo_budget, usc, eps, max_invocations)
    while state.outcome is None:
        x = oracle(state.pending_rho)
        state.advance(x, po(x))
    return state


class TestImmediateAcceptance:
    def test_budget_respecting_first_call_returned_unchanged(self):
        # oracle load always under cap: one invocation suffices
        out = drive(lambda rho: 0.5)
        assert out.invocations == 1
        assert not out.combined
        assert out.outcome == 0.5

    def test_initial_rho_matches_lemma10(self):
        seen = []

        def oracle(rho):
            seen.append(rho)
            return 0.0

        drive(oracle, qo_budget=4.0, usc=32.0)
        # Lemma 10 invokes first at rho = usc / (16 qo_budget)
        assert seen[0] == pytest.approx(32.0 / (16.0 * 4.0))

    def test_immediate_accept_when_budget_met(self):
        # the solution (1.0) and its load (0.5) differ: the load decides
        out = drive(lambda rho: 1.0, po=lambda x: 0.5, usc=10.0, eps=0.2)
        assert not out.combined
        assert out.invocations == 1
        assert out.outcome == 1.0


class TestBinarySearch:
    def test_decreasing_load_combination_hits_cap(self):
        # load decreases in rho; cap is 13/12; endpoints straddle it
        out = drive(lambda rho: 2.0 / (1.0 + rho), eps=0.1)
        assert out.combined
        # the convex combination meets the budget (<= cap, near-tight)
        assert out.outcome <= CAP + 1e-9
        assert out.outcome >= CAP - 0.25

    def test_interval_width_respected(self):
        out = drive(lambda rho: 3.0 * np.exp(-rho), eps=0.08)
        rho0 = 12.0 * 1.0 / (13.0 * 1.0)
        lo, hi = out.rho_interval
        assert hi - lo <= rho0 * 0.08 / 16.0 + 1e-12

    def test_invocation_budget_enforced(self):
        calls = []

        def oracle(rho):
            calls.append(rho)
            return 10.0  # never satisfies the budget

        out = drive(oracle, max_invocations=12)
        assert len(calls) <= 12
        assert not out.combined

    def test_monotone_load_many_profiles(self):
        # the glue must work for any decreasing load profile
        for k in (0.5, 1.0, 5.0, 25.0):
            out = drive(lambda rho, k=k: k / (1.0 + rho), eps=0.1)
            assert out.outcome <= CAP + 1e-9

    def test_binary_search_combination_hits_budget(self):
        """po(x(rho)) = 10/rho: the search lands s1 x1 + s2 x2 on the cap."""
        # usc = 16 puts the first rho at 1, where po = 10 > cap
        out = drive(lambda rho: 10.0 / rho, usc=16.0, eps=0.1)
        assert out.combined
        assert out.outcome == pytest.approx(CAP, rel=1e-6)


class TestVectorSolutions:
    def test_vector_combine(self):
        # 'solutions' are numpy vectors; their load is the sum
        def oracle(rho):
            return np.array([2.0 / (1.0 + rho), 1.0 / (1.0 + rho)])

        out = drive(oracle, po=lambda x: float(x.sum()))
        assert out.outcome.shape == (2,)
        assert float(out.outcome.sum()) <= CAP + 1e-9


@given(
    st.floats(min_value=0.2, max_value=50.0),
    st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_property_budget_always_met(k, eps):
    """For any decreasing load profile the returned load is <= 13/12 qo
    (or the profile never exceeded it and the first call was returned)."""
    out = drive(lambda rho: k / (1.0 + rho), eps=eps)
    assert out.outcome <= CAP + 1e-9
    assert out.invocations >= 1
