"""Tests for the offline matching substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphgen import (
    crown_graph,
    gnm_graph,
    with_random_capacities,
    with_uniform_weights,
)
from repro.core.lp_library import solve_lp1
from repro.matching.augmenting import local_search_matching, two_opt_pass
from repro.matching.exact import (
    enumerate_odd_sets,
    max_weight_bmatching_exact,
    max_weight_matching_exact,
)
from repro.matching.greedy import greedy_bmatching, greedy_matching
from repro.matching.maximal import (
    is_maximal,
    maximal_bmatching,
    maximal_bmatching_sampled,
)
from repro.matching.structures import BMatching
from repro.matching.verify import approximation_ratio, verify_dual_upper_bound
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger


class TestBMatching:
    def test_empty(self, triangle):
        m = BMatching.empty(triangle)
        assert m.weight() == 0.0
        assert m.size() == 0
        assert m.is_valid()

    def test_weight_and_loads(self, path_graph):
        m = BMatching(path_graph, np.array([0, 2]))
        assert m.weight() == 4.0
        loads = m.vertex_loads()
        assert list(loads) == [1, 1, 1, 1, 0]
        assert m.is_valid()

    def test_invalid_overload_detected(self, path_graph):
        m = BMatching(path_graph, np.array([0, 1]))
        assert not m.is_valid()
        with pytest.raises(ValueError, match="overloaded"):
            m.check_valid()

    def test_multiplicity_respected(self):
        g = Graph.from_edges(2, [(0, 1)], [5.0], b=[3, 2])
        m = BMatching(g, np.array([0]), np.array([2]))
        assert m.is_valid()
        assert m.weight() == 10.0
        m3 = BMatching(g, np.array([0]), np.array([3]))
        assert not m3.is_valid()

    def test_rejects_duplicate_edges(self, path_graph):
        with pytest.raises(ValueError):
            BMatching(path_graph, np.array([0, 0]))

    def test_rejects_zero_multiplicity(self, path_graph):
        with pytest.raises(ValueError):
            BMatching(path_graph, np.array([0]), np.array([0]))

    def test_from_pairs(self, path_graph):
        m = BMatching.from_pairs(path_graph, [(1, 0), (3, 2)])
        assert m.weight() == 4.0

    def test_from_pairs_rejects_non_edge(self, path_graph):
        with pytest.raises(KeyError):
            BMatching.from_pairs(path_graph, [(0, 4)])

    def test_saturated_vertices(self, path_graph):
        m = BMatching(path_graph, np.array([0]))
        assert set(m.saturated_vertices()) == {0, 1}


class TestGreedy:
    def test_greedy_is_valid_and_half_approx(self, weighted_graph):
        m = greedy_matching(weighted_graph)
        assert m.is_valid()
        opt = max_weight_matching_exact(weighted_graph).weight()
        assert m.weight() >= 0.5 * opt - 1e-9

    def test_greedy_picks_heaviest_first(self, path_graph):
        m = greedy_matching(path_graph)
        # heaviest edge (3,4) w=4 then (1,2) w=2
        assert m.weight() == 6.0

    def test_greedy_bmatching_saturates(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], [3.0, 2.0], b=[2, 2, 2])
        m = greedy_bmatching(g)
        assert m.is_valid()
        # edge (0,1) taken with multiplicity 2, saturating 0 and 1
        assert m.weight() == 6.0

    def test_greedy_custom_order(self, path_graph):
        m = greedy_bmatching(path_graph, order=np.array([0, 1, 2, 3]))
        # scan order takes (0,1) then (2,3)
        assert m.weight() == 1.0 + 3.0


class TestMaximal:
    def test_maximal_property(self, weighted_graph):
        m = maximal_bmatching(weighted_graph)
        assert m.is_valid()
        assert is_maximal(m)

    def test_maximal_with_capacities(self):
        g = with_random_capacities(gnm_graph(20, 60, seed=1), 1, 3, seed=2)
        m = maximal_bmatching(g)
        assert m.is_valid()
        assert is_maximal(m)

    def test_sampled_maximal_matches_property(self):
        g = gnm_graph(30, 200, seed=3)
        led = ResourceLedger()
        m = maximal_bmatching_sampled(g, p=2.0, seed=4, ledger=led)
        assert m.is_valid()
        assert is_maximal(m)
        assert led.sampling_rounds >= 1

    def test_sampled_rounds_scale_with_p(self):
        """Smaller budget (larger p) means more rounds on dense input."""
        g = gnm_graph(40, 700, seed=5)
        rounds = {}
        for p in (1.5, 4.0):
            led = ResourceLedger()
            maximal_bmatching_sampled(g, p=p, seed=6, ledger=led)
            rounds[p] = led.sampling_rounds
        assert rounds[4.0] >= rounds[1.5]

    def test_residual_continuation(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        residual = g.b.copy()
        residual[0] = 0  # vertex 0 pre-saturated
        m = maximal_bmatching(g, residual=residual)
        assert set(map(int, m.edge_ids)) == {1}


class TestExact:
    def test_exact_beats_greedy(self, weighted_graph):
        assert (
            max_weight_matching_exact(weighted_graph).weight()
            >= greedy_matching(weighted_graph).weight() - 1e-9
        )

    def test_exact_on_crown(self):
        g = crown_graph(6, heavy=1.0, light=0.6)
        m = max_weight_matching_exact(g)
        assert m.weight() == pytest.approx(6.0)

    def test_bmatching_exact_reduction(self):
        g = Graph.from_edges(
            3, [(0, 1), (1, 2), (0, 2)], [3.0, 2.0, 2.0], b=[2, 1, 1]
        )
        m = max_weight_bmatching_exact(g)
        assert m.is_valid()
        # best: (0,1) w3 + (0,2) w2 = 5
        assert m.weight() == pytest.approx(5.0)

    def test_bmatching_exact_multiplicity(self):
        g = Graph.from_edges(2, [(0, 1)], [4.0], b=[2, 3])
        m = max_weight_bmatching_exact(g)
        assert m.weight() == pytest.approx(8.0)  # multiplicity 2

    def test_bmatching_reduces_to_matching_when_b_one(self, weighted_graph):
        a = max_weight_matching_exact(weighted_graph).weight()
        b = max_weight_bmatching_exact(weighted_graph).weight()
        assert a == pytest.approx(b)

    def test_parallel_edges_keep_heaviest_copy(self):
        # a Graph built directly may carry parallel copies; the exact
        # solvers must use the heaviest, not the last-inserted, copy
        g = Graph(n=3, src=[0, 0, 1], dst=[1, 1, 2], weight=[10.0, 1.0, 2.0])
        m = max_weight_matching_exact(g)
        assert m.weight() == 10.0
        assert m.edge_ids.tolist() == [0]
        mb = max_weight_bmatching_exact(g.with_b([2, 2, 1]))
        assert mb.weight() == 20.0
        assert (mb.edge_ids.tolist(), mb.multiplicity.tolist()) == ([0], [2])

    def test_parallel_edge_ties_go_to_lowest_id(self):
        g = Graph(n=2, src=[0, 0, 0], dst=[1, 1, 1], weight=[1.0, 3.0, 3.0])
        assert max_weight_matching_exact(g).edge_ids.tolist() == [1]
        mb = max_weight_bmatching_exact(g.with_b([3, 2]))
        assert (mb.edge_ids.tolist(), mb.multiplicity.tolist()) == ([1], [2])

    def test_zero_capacity_vertices_stay_unmatched(self):
        g = Graph(n=3, src=[0, 1], dst=[1, 2], weight=[5.0, 1.0], b=[0, 2, 1])
        m = max_weight_bmatching_exact(g)
        assert (m.edge_ids.tolist(), m.multiplicity.tolist()) == ([1], [1])


class TestOddSetsEnumeration:
    def test_triangle_is_only_odd_set(self, triangle):
        sets = enumerate_odd_sets(triangle.b)
        assert sets == [(0, 1, 2)]

    def test_capacity_parity(self):
        b = np.array([2, 1, 2])
        # ||U||_b: {0,1,2} -> 5 odd; pairs have size < 3 vertices but
        # enumerate starts at 3 vertices
        sets = enumerate_odd_sets(b)
        assert (0, 1, 2) in sets

    def test_size_cap(self):
        b = np.ones(6, dtype=np.int64)
        sets = enumerate_odd_sets(b, max_size_b=3)
        assert all(len(U) == 3 for U in sets)


class TestFractionalLP:
    def test_c5_gap_closed_by_odd_sets(self):
        """5-cycle: bipartite LP gives 2.5, odd sets give 2."""
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        no_odd = solve_lp1(g, odd_set_cap=0).value
        with_odd = solve_lp1(g).value
        assert no_odd == pytest.approx(2.5)
        assert with_odd == pytest.approx(2.0)

    def test_lp_upper_bounds_integral(self, weighted_graph):
        lp = solve_lp1(weighted_graph, odd_set_cap=3).value
        integral = max_weight_matching_exact(weighted_graph).weight()
        assert lp >= integral - 1e-6

    def test_lp_solution_vector(self, triangle):
        lp = solve_lp1(triangle)
        assert lp.value == pytest.approx(1.0)
        assert len(lp.variables["y"]) == 3


class TestLocalSearch:
    def test_two_opt_improves_or_keeps(self, weighted_graph):
        seed = greedy_matching(weighted_graph)
        improved = two_opt_pass(weighted_graph, seed)
        assert improved.is_valid()
        assert improved.weight() >= seed.weight() - 1e-9

    def test_local_search_near_optimal_random(self):
        g = with_uniform_weights(gnm_graph(24, 100, seed=7), seed=8)
        ls = local_search_matching(g)
        opt = max_weight_matching_exact(g).weight()
        assert ls.weight() >= 0.75 * opt

    def test_local_search_bmatching_falls_back_to_greedy(self):
        g = with_random_capacities(gnm_graph(10, 30, seed=9), 2, 3, seed=10)
        m = local_search_matching(g)
        assert m.is_valid()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 16),
        m_frac=st.floats(0.0, 1.0),
        weights=st.lists(
            st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.0, 3.0]), min_size=1, max_size=4
        ),
        seed=st.integers(0, 2**31 - 1),
        start=st.sampled_from(["empty", "greedy", "random"]),
    )
    def test_two_opt_pass_matches_the_numpy_scalar_pass(self, n, m_frac, weights, seed, start):
        """The list-based pass picks the same edges as the pass it
        replaced, on graphs whose tied weights make conflict sums such
        as 0.1 + 0.2 against 0.3 decide swaps."""
        rng = np.random.default_rng(seed)
        m = int(m_frac * n * (n - 1) / 2)
        g = gnm_graph(n, m, seed=seed)
        g = Graph(n=n, src=g.src, dst=g.dst, weight=rng.choice(weights, size=g.m))
        if start == "empty":
            cur = BMatching.empty(g)
        elif start == "greedy":
            cur = greedy_matching(g)
        else:  # any maximal matching, scanned in a random order
            order = rng.permutation(g.m)
            free, ids = np.ones(n, dtype=bool), []
            for e in order.tolist():
                if free[g.src[e]] and free[g.dst[e]]:
                    free[g.src[e]] = free[g.dst[e]] = False
                    ids.append(e)
            cur = BMatching(g, np.asarray(sorted(ids), dtype=np.int64))
        for _ in range(2):
            got, want = two_opt_pass(g, cur), _two_opt_pass_reference(g, cur)
            assert np.array_equal(got.edge_ids, want.edge_ids)
            cur = got


def _two_opt_pass_reference(graph, matching):
    """``two_opt_pass`` as it was over numpy arrays, indexed per scalar,
    with ``sum()`` over numpy floats (never compensated)."""

    def conflicts(e):
        return matched_at[graph.src[e]] | matched_at[graph.dst[e]]

    matched = set(int(e) for e in matching.edge_ids)
    matched_at = [set() for _ in range(graph.n)]
    for e in matched:
        matched_at[graph.src[e]].add(e)
        matched_at[graph.dst[e]].add(e)
    order = np.argsort(-graph.weight, kind="stable")
    w = graph.weight
    for e in order:
        e = int(e)
        if e in matched:
            continue
        conf = conflicts(e)
        if w[e] > sum(w[c] for c in conf):
            for c in conf:
                matched.discard(c)
                matched_at[graph.src[c]].discard(c)
                matched_at[graph.dst[c]].discard(c)
            matched.add(e)
            matched_at[graph.src[e]].add(e)
            matched_at[graph.dst[e]].add(e)
    return BMatching(graph, np.asarray(sorted(matched), dtype=np.int64))


class TestVerify:
    def test_approximation_ratio(self, path_graph):
        m = greedy_matching(path_graph)
        assert approximation_ratio(m, 6.0) == pytest.approx(1.0)
        assert approximation_ratio(m, m) == pytest.approx(1.0)

    def test_ratio_zero_opt(self, triangle):
        assert approximation_ratio(BMatching.empty(triangle), 0.0) == 1.0

    def test_dual_bound_feasible(self, triangle):
        # x = 1/2 everywhere covers all unit edges
        bound = verify_dual_upper_bound(triangle, np.full(3, 0.5))
        assert bound == pytest.approx(1.5)

    def test_dual_bound_with_odd_set(self, triangle):
        bound = verify_dual_upper_bound(
            triangle, np.zeros(3), {(0, 1, 2): 1.0}
        )
        assert bound == pytest.approx(1.0)

    def test_dual_bound_rejects_infeasible(self, triangle):
        with pytest.raises(AssertionError):
            verify_dual_upper_bound(triangle, np.full(3, 0.1))

    def test_dual_bound_dominates_primal(self, weighted_graph):
        x = np.full(weighted_graph.n, float(weighted_graph.weight.max()))
        bound = verify_dual_upper_bound(weighted_graph, x)
        opt = max_weight_matching_exact(weighted_graph).weight()
        assert bound >= opt


class TestDualAuditRejectsMalformedDuals:
    """The audit certifies only LP2 points: ``x`` of shape ``(n,)`` and
    every ``x``/``z`` entry finite and nonnegative (weak duality needs
    the sign constraints)."""

    @pytest.fixture
    def path3(self):
        return Graph.from_edges(3, [(0, 1), (1, 2)], [5.0, 4.0])

    def test_nan_entry_does_not_hide_a_violation(self, path3):
        # edge (1, 2) has cover 0 < 4; a NaN used to turn the worst
        # deficit into NaN and certify a NaN bound
        with pytest.raises(ValueError, match="finite and nonnegative"):
            verify_dual_upper_bound(path3, [np.nan, 0.0, 0.0])

    def test_negative_entry_is_rejected(self):
        g = Graph.from_edges(3, [(0, 1)], [5.0])
        # covers the edge, but its objective -95 is below the matching's 5
        with pytest.raises(ValueError, match="finite and nonnegative"):
            verify_dual_upper_bound(g, [5.0, 0.0, -100.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entry_is_rejected(self, path3, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            verify_dual_upper_bound(path3, [bad, 5.0, 5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_malformed_odd_set_value_is_rejected(self, path3, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            verify_dual_upper_bound(path3, [5.0, 5.0, 5.0], {(0, 1, 2): bad})

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_wrong_shape_is_rejected(self, path3, shape):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            verify_dual_upper_bound(path3, np.full(shape, 5.0))

    def test_well_formed_duals_still_certify(self, path3):
        assert verify_dual_upper_bound(path3, [0.0, 5.0, 0.0]) == 5.0
        with pytest.raises(AssertionError, match=r"edge \(1,2\)"):
            verify_dual_upper_bound(path3, [5.0, 0.0, 0.0])
