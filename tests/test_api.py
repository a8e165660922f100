"""Facade parity battery + registry error paths (``repro.api``).

The contract under test: ``run(problem, backend=...)`` is *exact-equal*
to the implementation each backend wraps, for every model and every
baseline -- same seeds give the same matchings, certificates and
ledgers -- and the facade stays warning-clean.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Backend,
    BackendNotFound,
    ModelBudgets,
    Problem,
    ProblemMismatch,
    backend_names,
    compare,
    get_backend,
    register_backend,
    run,
    run_many,
)
from repro.baselines.auction import auction_backend_run
from repro.baselines.lattanzi_filtering import lattanzi_backend_run
from repro.baselines.mcgregor import mcgregor_backend_run
from repro.baselines.streaming_weighted import one_pass_backend_run
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.graphgen import gnm_graph, random_bipartite, with_uniform_weights
from repro.mapreduce.clique_sim import clique_spanning_forest_impl
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.jobs import mapreduce_spanning_forest_impl
from repro.streaming.streaming_matching import SemiStreamingMatchingSolver
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

FAST = dict(eps=0.3, inner_steps=60, offline="local", round_cap_factor=0.6)


@pytest.fixture(scope="module")
def instance() -> Graph:
    return with_uniform_weights(gnm_graph(24, 80, seed=0), 1, 40, seed=1)


@pytest.fixture(scope="module")
def bipartite_instance() -> Graph:
    return random_bipartite(8, 9, 30, seed=2)


def assert_matchings_equal(a, b) -> None:
    assert np.array_equal(a.edge_ids, b.edge_ids)
    assert np.array_equal(a.multiplicity, b.multiplicity)


def assert_results_equal(a, b) -> None:
    """Exact equality of two MatchingResults, field by field."""
    assert_matchings_equal(a.matching, b.matching)
    assert a.rounds == b.rounds
    assert a.lambda_min == b.lambda_min
    assert a.beta_final == b.beta_final
    assert a.history == b.history
    assert a.resources == b.resources
    ca, cb = a.certificate, b.certificate
    assert ca.upper_bound == cb.upper_bound
    assert ca.lambda_min == cb.lambda_min
    assert ca.scale_factor == cb.scale_factor
    assert np.array_equal(ca.x, cb.x)
    assert ca.z == cb.z


# ======================================================================
# Parity battery: run() vs every legacy computation
# ======================================================================
class TestModelParity:
    def test_offline_parity(self, instance):
        cfg = SolverConfig(seed=7, **FAST)
        facade = run(Problem(instance, config=cfg), backend="offline")
        legacy = DualPrimalMatchingSolver(cfg).solve(instance)
        assert_results_equal(facade.raw, legacy)
        assert_matchings_equal(facade.matching, legacy.matching)
        assert facade.certificate.upper_bound == legacy.certificate.upper_bound
        assert facade.ledger.rounds == legacy.resources["sampling_rounds"]
        assert facade.ledger.passes is None

    def test_semi_streaming_parity(self, instance):
        cfg = SolverConfig(seed=8, **FAST)
        facade = run(Problem(instance, config=cfg), backend="semi_streaming")
        solver = SemiStreamingMatchingSolver(cfg)
        legacy = solver.solve(instance)
        assert_results_equal(facade.raw, legacy)
        assert facade.ledger.passes == solver.passes
        assert facade.ledger.passes >= 1

    def test_streaming_offline_same_algorithm(self, instance):
        """The binding changes *how* samples are collected, not results
        of the certification contract: both certify their matchings."""
        cfg = SolverConfig(seed=9, **FAST)
        for backend in ("offline", "semi_streaming"):
            res = run(Problem(instance, config=cfg), backend=backend)
            assert res.matching.is_valid()
            assert res.certificate.upper_bound >= res.weight - 1e-9

    def test_mapreduce_parity(self, instance):
        facade = run(
            Problem(
                instance,
                task="spanning_forest",
                config=SolverConfig(seed=10),
                budgets=ModelBudgets(reducer_memory_words=200_000),
            ),
            backend="mapreduce",
        )
        engine = MapReduceEngine(reducer_memory_budget=200_000)
        legacy = mapreduce_spanning_forest_impl(engine, instance, seed=10)
        assert facade.forest == legacy
        assert facade.matching is None and facade.certificate is None
        assert facade.ledger.rounds == engine.ledger.sampling_rounds == 2
        assert facade.ledger.shuffle_words == engine.ledger.shuffle_words
        assert facade.ledger.reducer_peak_words == engine.ledger.central_space.peak
        assert facade.extras["engine"].ledger.snapshot() == engine.ledger.snapshot()

    def test_congested_clique_parity(self, instance):
        budgets = ModelBudgets(clique_message_words=600)
        facade = run(
            Problem(
                instance,
                task="spanning_forest",
                config=SolverConfig(seed=11),
                budgets=budgets,
            ),
            backend="congested_clique",
        )
        legacy_forest, legacy_clique = clique_spanning_forest_impl(
            instance, message_budget=600, seed=11
        )
        assert facade.forest == legacy_forest
        assert facade.ledger.rounds == legacy_clique.rounds
        assert facade.ledger.clique_total_words == legacy_clique.total_words
        assert (
            facade.ledger.clique_max_vertex_words
            == legacy_clique.max_vertex_words
            <= 600
        )


class TestBaselineParity:
    def test_auction_parity(self, bipartite_instance):
        ledger = ResourceLedger()
        legacy = auction_backend_run(
            bipartite_instance, eps=0.2, ledger=ledger, max_rounds=None
        )
        facade = run(
            Problem(bipartite_instance, options={"eps": 0.2}),
            backend="baseline:auction",
        )
        assert_matchings_equal(facade.matching, legacy)
        assert facade.certificate is None
        assert facade.ledger.rounds == ledger.sampling_rounds
        assert facade.ledger.passes == ledger.sampling_rounds
        assert facade.ledger.peak_central_space == 4 * bipartite_instance.n
        assert facade.ledger.edges_streamed == ledger.edges_streamed > 0

    def test_mcgregor_parity(self, instance):
        ledger = ResourceLedger()
        legacy = mcgregor_backend_run(instance, eps=0.25, seed=5, ledger=ledger)
        facade = run(
            Problem(instance, config=SolverConfig(seed=5), options={"eps": 0.25}),
            backend="baseline:mcgregor",
        )
        assert_matchings_equal(facade.matching, legacy)
        assert facade.ledger.rounds == ledger.sampling_rounds
        assert facade.ledger.peak_central_space == ledger.central_space.peak > 0

    def test_lattanzi_parity(self, instance):
        ledger = ResourceLedger()
        legacy = lattanzi_backend_run(instance, p=2.0, seed=6, ledger=ledger)
        facade = run(
            Problem(instance, config=SolverConfig(p=2.0, seed=6)),
            backend="baseline:lattanzi",
        )
        assert_matchings_equal(facade.matching, legacy)
        assert facade.ledger.rounds == ledger.sampling_rounds >= 1
        assert facade.ledger.peak_central_space == ledger.central_space.peak > 0

    def test_lattanzi_unweighted_route(self, instance):
        legacy = lattanzi_backend_run(instance, p=2.0, seed=6, weighted=False)
        facade = run(
            Problem(
                instance,
                config=SolverConfig(p=2.0, seed=6),
                options={"weighted": False},
            ),
            backend="baseline:lattanzi",
        )
        assert_matchings_equal(facade.matching, legacy)

    def test_one_pass_parity(self, instance):
        ledger = ResourceLedger()
        legacy = one_pass_backend_run(instance, gamma=0.5, ledger=ledger)
        facade = run(
            Problem(instance, options={"gamma": 0.5}), backend="baseline:one_pass"
        )
        assert_matchings_equal(facade.matching, legacy)
        assert facade.ledger.passes == ledger.sampling_rounds == 1
        assert facade.ledger.edges_streamed == instance.m
        assert facade.ledger.peak_central_space == ledger.central_space.peak > 0

    def test_lattanzi_options_p_outside_solver_domain(self, instance):
        """``options['p']`` reaches the sampling core unvalidated, so
        p <= 1 (outside SolverConfig's p > 1 solver domain) still runs."""
        from repro.matching.maximal import maximal_bmatching_sampled

        got = run(
            Problem(instance, options={"p": 1.0, "seed": 6, "weighted": False}),
            backend="baseline:lattanzi",
        )
        ref = maximal_bmatching_sampled(instance, p=1.0, seed=6)
        assert_matchings_equal(got.matching, ref)
        run(Problem(instance, options={"p": 1.0, "seed": 6}), backend="baseline:lattanzi")


# ======================================================================
# Ledger and warning behaviours the pre-facade entry points relied on
# ======================================================================
class TestLegacyShims:
    def test_one_pass_does_not_keep_callers_stream_ledger(self, instance):
        """Repeated runs over the same pre-built stream must report
        per-run ledgers and leave the stream object untouched."""
        from repro.streaming.stream import EdgeStream

        stream = EdgeStream(instance)
        first = run(
            Problem(instance, options={"stream": stream}),
            backend="baseline:one_pass",
        )
        assert stream.ledger is None  # not mutated by the run
        second = run(
            Problem(instance, options={"stream": stream}),
            backend="baseline:one_pass",
        )
        assert first.ledger.passes == second.ledger.passes == 1
        assert first.ledger.edges_streamed == second.ledger.edges_streamed
        assert_matchings_equal(first.matching, second.matching)

    def test_one_pass_explicit_ledger_beats_stream_ledger(self, instance):
        """An explicit options['ledger'] receives the run's charges even
        when the stream was built with its own ledger (which must come
        back untouched by this run)."""
        from repro.streaming.stream import EdgeStream

        stream_ledger = ResourceLedger()
        mine = ResourceLedger()
        stream = EdgeStream(instance, ledger=stream_ledger)
        result = run(
            Problem(instance, options={"stream": stream, "ledger": mine}),
            backend="baseline:one_pass",
        )
        assert stream.ledger is stream_ledger  # restored
        assert stream_ledger.sampling_rounds == 0  # this run charged mine
        assert mine.sampling_rounds == 1
        assert result.ledger.passes == 1
        assert result.ledger.edges_streamed == instance.m

    def test_facade_itself_is_warning_clean(self, instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(
                Problem(instance, config=SolverConfig(seed=1, **FAST)),
                backend="offline",
            )
            run(Problem(instance), backend="baseline:one_pass")
            run(
                Problem(instance, task="spanning_forest", config=SolverConfig(seed=1)),
                backend="congested_clique",
            )


# ======================================================================
# Registry error paths
# ======================================================================
class TestRegistry:
    def test_backend_names_complete(self):
        assert backend_names() == [
            "baseline:auction",
            "baseline:lattanzi",
            "baseline:mcgregor",
            "baseline:one_pass",
            "congested_clique",
            "dynamic",
            "mapreduce",
            "offline",
            "semi_streaming",
        ]

    def test_unknown_backend(self, instance):
        with pytest.raises(BackendNotFound, match="available:.*offline"):
            run(Problem(instance), backend="quantum")

    def test_unknown_task(self, instance):
        with pytest.raises(ProblemMismatch, match="unknown task"):
            Problem(instance, task="coloring")

    def test_task_mismatch(self, instance):
        with pytest.raises(ProblemMismatch, match="spanning_forest"):
            run(Problem(instance, task="matching"), backend="mapreduce")
        with pytest.raises(ProblemMismatch, match="matching"):
            run(Problem(instance, task="spanning_forest"), backend="offline")

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_forest_rejects_repetitions_below_one(self, repetitions):
        """Options arrive unchecked (from the wire, too): zero ℓ0
        repetitions must raise, not decode an edgeless "forest"."""
        problem = Problem(
            gnm_graph(30, 60, seed=3),
            task="spanning_forest",
            options={"repetitions": repetitions},
        )
        with pytest.raises(ValueError, match="repetitions"):
            run(problem, "semi_streaming")

    def test_auction_rejects_nonbipartite(self):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
        with pytest.raises(ProblemMismatch, match="bipartite"):
            run(Problem(triangle), backend="baseline:auction")

    def test_non_graph_problem(self):
        with pytest.raises(TypeError, match="Graph"):
            Problem([(0, 1)])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend("offline")
            class Clash(Backend):  # pragma: no cover - never instantiated
                pass

    def test_one_class_under_two_names_keeps_both_names(self, instance):
        """Registering one Backend class twice must not relabel the
        earlier registration (names live on the instances)."""
        from repro.api import _REGISTRY

        class Multi(Backend):
            tasks = ("matching",)

        register_backend("test:a")(Multi)
        try:
            register_backend("test:b")(Multi)
            assert get_backend("test:a").name == "test:a"
            assert get_backend("test:b").name == "test:b"
        finally:
            _REGISTRY.pop("test:a", None)
            _REGISTRY.pop("test:b", None)

    def test_custom_backend_roundtrip(self, instance):
        from repro.api import _REGISTRY
        from repro.api import RunLedger, RunResult
        from repro.matching.structures import BMatching

        @register_backend("test:empty")
        class EmptyBackend(Backend):
            tasks = ("matching",)

            def run(self, problem):
                return RunResult(
                    backend=self.name,
                    task="matching",
                    matching=BMatching.empty(problem.graph),
                    ledger=RunLedger(model=self.name),
                )

        try:
            res = run(Problem(instance), backend="test:empty")
            assert res.weight == 0.0
            assert get_backend("test:empty").name == "test:empty"
            assert "test:empty" in backend_names()
        finally:
            del _REGISTRY["test:empty"]


# ======================================================================
# run_many: batched == looped, including the lockstep engine route
# ======================================================================
class TestRunMany:
    def test_offline_batch_rides_lockstep_engine(self):
        graphs = [
            with_uniform_weights(gnm_graph(16, 40, seed=s), 1, 30, seed=s + 50)
            for s in range(4)
        ]
        problems = [
            Problem(g, config=SolverConfig(seed=s, **FAST))
            for s, g in enumerate(graphs)
        ]
        batched = run_many(problems, backend="offline")
        looped = [run(p, backend="offline") for p in problems]
        for b, l in zip(batched, looped):
            assert_results_equal(b.raw, l.raw)
            assert b.ledger == l.ledger

    def test_heterogeneous_batch_falls_back_to_loop(self, instance):
        problems = [
            Problem(instance, config=SolverConfig(seed=1, **FAST)),
            Problem(instance, config=SolverConfig(seed=1, eps=0.4)),
        ]
        batched = run_many(problems, backend="offline")
        looped = [run(p, backend="offline") for p in problems]
        for b, l in zip(batched, looped):
            assert_results_equal(b.raw, l.raw)

    def test_empty_batch(self):
        assert run_many([], backend="offline") == []

    @given(
        data=st.data(),
        backend=st.sampled_from(
            ["offline", "baseline:mcgregor", "baseline:lattanzi", "baseline:one_pass"]
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_run_many_equals_looped_run(self, data, backend):
        count = data.draw(st.integers(1, 3))
        specs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 500), st.integers(4, 9), st.integers(4, 14)),
                min_size=count,
                max_size=count,
            )
        )
        problems = []
        for gseed, n, m in specs:
            g = with_uniform_weights(
                gnm_graph(n, m, seed=gseed), 1, 20, seed=gseed + 1
            )
            problems.append(
                Problem(
                    g,
                    config=SolverConfig(
                        seed=gseed,
                        eps=0.3,
                        inner_steps=20,
                        offline="local",
                        round_cap_factor=0.5,
                    ),
                )
            )
        batched = run_many(problems, backend=backend)
        looped = [run(p, backend=backend) for p in problems]
        for b, l in zip(batched, looped):
            assert_matchings_equal(b.matching, l.matching)
            assert b.ledger == l.ledger
            if backend == "offline":
                assert_results_equal(b.raw, l.raw)


# ======================================================================
# compare(): the E4 table in three lines
# ======================================================================
class TestCompare:
    def test_compare_reproduces_e4_ranking(self):
        """The headline E4 ordering: dual-primal quality dominates the
        filtering baseline (and the one-pass charger) on the same mix."""
        g = with_uniform_weights(gnm_graph(50, 350, seed=0), 1, 100, seed=1)
        rows = compare(
            Problem(g, config=SolverConfig(eps=0.2, seed=2, inner_steps=300)),
            backends=[
                "offline",
                "baseline:lattanzi",
                "baseline:mcgregor",
                "baseline:one_pass",
            ],
        )
        assert [r["rank"] for r in rows] == [1, 2, 3, 4]
        assert rows[0]["backend"] == "offline"
        weights = {r["backend"]: r["weight"] for r in rows}
        assert weights["offline"] >= weights["baseline:lattanzi"] - 1e-9
        assert rows[0]["certified_ratio"] is not None
        assert all(
            r["certified_ratio"] is None for r in rows if r["backend"] != "offline"
        )
        # every row carries the normalized resource fields
        assert all("rounds" in r and "peak_central_space" in r for r in rows)

    def test_compare_budget_overrun_becomes_error_row(self, instance):
        """A backend that blows its model budget is skipped as an error
        row, same as a model mismatch -- never aborts the sweep."""
        rows = compare(
            Problem(
                instance,
                task="spanning_forest",
                config=SolverConfig(seed=1),
                budgets=ModelBudgets(reducer_memory_words=10),
            ),
            backends=["congested_clique", "mapreduce"],
        )
        by_backend = {r["backend"]: r for r in rows}
        assert "error" not in by_backend["congested_clique"]
        mr = by_backend["mapreduce"]
        assert mr["weight"] is None and "reducer group" in mr["error"]
        assert mr["rank"] == len(rows)

    def test_compare_default_backends_skip_mismatches(self, instance):
        """Default sweep covers every matching backend; the nonbipartite
        instance turns the auction row into an error row ranked last."""
        rows = compare(
            Problem(instance, config=SolverConfig(seed=3, **FAST))
        )
        by_backend = {r["backend"]: r for r in rows}
        assert set(by_backend) == {
            "offline",
            "semi_streaming",
            "dynamic",
            "baseline:auction",
            "baseline:lattanzi",
            "baseline:mcgregor",
            "baseline:one_pass",
        }
        auction_row = by_backend["baseline:auction"]
        assert "error" in auction_row and auction_row["weight"] is None
        assert auction_row["rank"] == len(rows)
        ok_rows = [r for r in rows if "error" not in r]
        assert sorted(
            (r["weight"] for r in ok_rows), reverse=True
        ) == [r["weight"] for r in ok_rows]


# ======================================================================
# Canonical fingerprints (the service cache's content addresses)
# ======================================================================
class TestFingerprints:
    def test_config_fingerprint_covers_every_field(self):
        from repro.api import config_fingerprint

        base = SolverConfig(eps=0.2, seed=3)
        assert config_fingerprint(base) == config_fingerprint(
            SolverConfig(eps=0.2, seed=3)
        )
        for variant in (
            SolverConfig(eps=0.25, seed=3),
            SolverConfig(eps=0.2, seed=4),
            SolverConfig(eps=0.2, seed=3, p=3.0),
            SolverConfig(eps=0.2, seed=3, offline="local"),
        ):
            assert config_fingerprint(variant) != config_fingerprint(base)

    def test_problem_fingerprint_matches_on_equivalent_specs(self, instance):
        cfg = SolverConfig(seed=7, **FAST)
        a = Problem(instance, config=cfg)
        b = Problem(instance.copy(), config=SolverConfig(seed=7, **FAST))
        assert a.fingerprint() == b.fingerprint()

    def test_problem_fingerprint_separates_task_budgets_options(self, instance):
        base = Problem(instance, config=SolverConfig(seed=1))
        prints = {
            base.fingerprint(),
            Problem(
                instance, config=SolverConfig(seed=1), task="spanning_forest"
            ).fingerprint(),
            Problem(
                instance,
                config=SolverConfig(seed=1),
                budgets=ModelBudgets(max_rounds=5),
            ).fingerprint(),
            Problem(
                instance, config=SolverConfig(seed=1), options={"gamma": 0.5}
            ).fingerprint(),
        }
        assert len(prints) == 4

    def test_unfingerprintable_options_raise_type_error(self, instance):
        problem = Problem(instance, options={"ledger": ResourceLedger()})
        with pytest.raises(TypeError):
            problem.fingerprint()


# ======================================================================
# run_many grouping: homogeneous sub-batches + mixed-backend lists
# ======================================================================
class TestRunManyGrouping:
    def _mk(self, gseed: int, seed: int, eps: float = 0.3) -> Problem:
        g = with_uniform_weights(gnm_graph(14, 30, seed=gseed), 1, 30, seed=gseed + 9)
        return Problem(
            g,
            config=SolverConfig(
                seed=seed, eps=eps, inner_steps=40, offline="local",
                round_cap_factor=0.6,
            ),
        )

    def test_heterogeneous_list_groups_into_lockstep_sub_batches(self, monkeypatch):
        """An A,B,A,B,A config interleave must dispatch as one 3-batch
        and one 2-batch through the engine (not a per-item loop), with
        results equal to looped run() in input order."""
        problems = [
            self._mk(0, 0, eps=0.3),
            self._mk(1, 1, eps=0.4),
            self._mk(2, 2, eps=0.3),
            self._mk(3, 3, eps=0.4),
            self._mk(4, 4, eps=0.3),
        ]
        group_sizes = []
        original = DualPrimalMatchingSolver.solve_many

        def spy(self, graphs, seeds=None):
            group_sizes.append(len(graphs))
            return original(self, graphs, seeds)

        monkeypatch.setattr(DualPrimalMatchingSolver, "solve_many", spy)
        batched = run_many(problems, backend="offline")
        assert sorted(group_sizes) == [2, 3]
        looped = [run(p, backend="offline") for p in problems]
        for b, l in zip(batched, looped):
            assert_results_equal(b.raw, l.raw)
            assert b.ledger == l.ledger

    def test_non_default_budgets_or_options_stay_per_request(self, monkeypatch):
        problems = [
            self._mk(0, 0),
            Problem(
                self._mk(1, 1).graph,
                config=self._mk(1, 1).config,
                options={"note": "x"},
            ),
            self._mk(2, 2),
        ]
        calls = []
        original = DualPrimalMatchingSolver.solve_many

        def spy(self, graphs, seeds=None):
            calls.append(len(graphs))
            return original(self, graphs, seeds)

        monkeypatch.setattr(DualPrimalMatchingSolver, "solve_many", spy)
        batched = run_many(problems, backend="offline")
        assert calls == [2]  # only the two default-shaped problems batch
        looped = [run(p, backend="offline") for p in problems]
        for b, l in zip(batched, looped):
            assert_results_equal(b.raw, l.raw)

    def test_mixed_backend_list_preserves_input_order(self):
        problems = [
            self._mk(0, 0),
            self._mk(1, 1),
            self._mk(2, 2),
            self._mk(3, 3),
        ]
        backends = ["offline", "baseline:lattanzi", "offline", "baseline:one_pass"]
        mixed = run_many(problems, backend=backends)
        looped = [run(p, backend=b) for p, b in zip(problems, backends)]
        assert [r.backend for r in mixed] == backends
        for m, l in zip(mixed, looped):
            assert_matchings_equal(m.matching, l.matching)
            assert m.ledger == l.ledger

    def test_backend_list_length_mismatch(self, instance):
        with pytest.raises(ValueError, match="one name per problem"):
            run_many([Problem(instance)], backend=["offline", "offline"])

    def test_solve_many_singleton_equals_solve(self, instance):
        """The engine entry ``run_many`` groups ride: a singleton batch
        with a seed override equals ``solve`` under that seed."""
        cfg = SolverConfig(**FAST)
        solver = DualPrimalMatchingSolver(replace(cfg, seed=None))
        [single] = solver.solve_many([instance], seeds=[5])
        reference = DualPrimalMatchingSolver(replace(cfg, seed=5)).solve(instance)
        assert_results_equal(single, reference)
        assert solver.solve_many([]) == []
