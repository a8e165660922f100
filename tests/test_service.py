"""Service battery: MatchingService == direct ``run()``, exactly.

The contract under test (``docs/service.md``): every future resolved by
the service equals a direct ``repro.api.run(problem, backend)`` call --
same matchings, certificates and ledgers -- for any mix of backends,
duplicates and arrival interleavings; every cache hit returns the
stored ``RunResult`` object itself (bit-identical by construction);
and the component pieces (LRU cache, micro-batch policy, dispatch
planner, sharded pool, stats recorder) honor their local invariants.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Problem,
    ProblemMismatch,
    RunLedger,
    get_backend,
    run,
)
from repro.core.matching_solver import SolverConfig
from repro.graphgen import gnm_graph, random_bipartite, with_uniform_weights
from repro.service import (
    AdaptiveDelay,
    MatchingService,
    MicroBatchPolicy,
    ResultCache,
    ServiceRequest,
    ShardedWorkerPool,
    StatsRecorder,
    plan_dispatch,
)
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

FAST = dict(eps=0.3, inner_steps=40, offline="local", round_cap_factor=0.6)


def fast_problem(gseed: int, n: int = 14, m: int = 30, seed: int = 0) -> Problem:
    g = with_uniform_weights(gnm_graph(n, m, seed=gseed), 1, 30, seed=gseed + 7)
    return Problem(g, config=SolverConfig(seed=seed, **FAST))


def assert_run_results_equal(a, b) -> None:
    """Exact equality of two RunResults across every observable field."""
    assert a.backend == b.backend and a.task == b.task
    assert a.ledger == b.ledger
    if a.matching is None:
        assert b.matching is None
    else:
        assert np.array_equal(a.matching.edge_ids, b.matching.edge_ids)
        assert np.array_equal(a.matching.multiplicity, b.matching.multiplicity)
    if a.certificate is None:
        assert b.certificate is None
    else:
        assert a.certificate.upper_bound == b.certificate.upper_bound
        assert np.array_equal(a.certificate.x, b.certificate.x)
        assert a.certificate.z == b.certificate.z
    assert a.forest == b.forest
    if hasattr(a.raw, "history"):
        assert a.raw.history == b.raw.history
        assert a.raw.resources == b.raw.resources


# ======================================================================
# Component units
# ======================================================================
class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats.evictions == 1 and stats.size == 2

    def test_hit_miss_accounting(self):
        cache = ResultCache(capacity=4)
        assert cache.get("x") is None
        cache.put("x", "v")
        assert cache.get("x") == "v"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestMicroBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_delay_s"):
            MicroBatchPolicy(max_delay_s=-1)

    def test_adaptive_budget_decays_when_idle_and_recovers_under_load(self):
        policy = MicroBatchPolicy(max_batch=8, max_delay_s=0.01)
        state = AdaptiveDelay(policy)
        assert state.wait_budget() == pytest.approx(0.01)  # optimistic start
        for _ in range(12):
            state.observe(1)  # sustained singleton traffic
        decayed = state.wait_budget()
        assert decayed < 0.002  # budget decays toward the floor
        for _ in range(12):
            state.observe(8)  # sustained full batches
        assert state.wait_budget() > decayed
        assert state.wait_budget() == pytest.approx(0.01, rel=0.05)


class TestPlanDispatch:
    def _req(self, problem, backend="offline"):
        return ServiceRequest(problem=problem, backend=backend)

    def test_groups_same_key_and_preserves_arrival_order(self):
        a1 = fast_problem(0, seed=1)
        b1 = Problem(a1.graph, config=SolverConfig(seed=2, eps=0.4))
        a2 = fast_problem(1, seed=3)
        lat = self._req(fast_problem(2), backend="baseline:lattanzi")
        reqs = [self._req(a1), lat, self._req(b1), self._req(a2)]
        groups = plan_dispatch(reqs)
        # group 1: the two FAST-config offline problems (seeds differ,
        # batch_key neutralizes seeds); lattanzi and the eps=0.4 config
        # are singletons, in arrival order
        assert [len(g) for g in groups] == [2, 1, 1]
        assert groups[0] == [reqs[0], reqs[3]]
        assert groups[1] == [lat] and groups[2] == [reqs[2]]

    def test_non_default_budgets_and_options_are_singletons(self):
        from repro.api import ModelBudgets

        p1 = fast_problem(0)
        p2 = Problem(
            p1.graph, config=p1.config, budgets=ModelBudgets(max_rounds=3)
        )
        p3 = Problem(p1.graph, config=p1.config, options={"note": 1})
        groups = plan_dispatch([self._req(p) for p in (p1, p2, p3)])
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_batch_key_respects_backend_batchability(self):
        assert get_backend("offline").batchable
        assert not get_backend("baseline:lattanzi").batchable
        p = fast_problem(0)
        assert get_backend("offline").batch_key(p) is not None
        assert get_backend("baseline:lattanzi").batch_key(p) is None


class TestShardedPool:
    def test_fingerprint_routing_is_deterministic(self):
        pool = ShardedWorkerPool(3, MicroBatchPolicy(), handler=lambda b: None)
        try:
            key = "offline:" + "ab12" * 16
            shards = {pool.shard_of(key) for _ in range(10)}
            assert len(shards) == 1
            # round-robin for unfingerprintable requests covers all shards
            rr = {pool.shard_of(None) for _ in range(6)}
            assert rr == {0, 1, 2}
        finally:
            pool.shutdown()

    def test_duplicate_keys_land_on_one_shard_queue(self):
        seen: dict[str, set[str]] = {}
        lock = threading.Lock()

        def handler(batch):
            name = threading.current_thread().name
            with lock:
                for req in batch:
                    seen.setdefault(req.cache_key, set()).add(name)
            for req in batch:
                req.future.set_result(None)

        pool = ShardedWorkerPool(4, MicroBatchPolicy(max_delay_s=0.0), handler)
        try:
            problem = fast_problem(0)
            key = "offline:" + problem.fingerprint()
            futs = []
            for _ in range(8):
                req = ServiceRequest(problem=problem, backend="offline", cache_key=key)
                futs.append(req.future)
                pool.submit(req)
            for f in futs:
                f.result(10)
            assert len(seen[key]) == 1  # every duplicate hit the same worker
        finally:
            pool.shutdown()


class TestStatsRecorder:
    def test_percentiles_and_ledger_totals(self):
        rec = StatsRecorder()
        rec.record_submit()
        rec.record_submit()
        rec.record_batch(2)
        for ms, rounds in ((10.0, 2), (30.0, 3)):
            rec.record_completion(
                "offline", ms / 1e3, RunLedger(model="offline", rounds=rounds)
            )
        snap = rec.snapshot()
        assert snap.submitted == 2 and snap.completed == 2 and snap.computed == 2
        assert snap.latency_p50_ms == pytest.approx(10.0)
        assert snap.latency_p95_ms == pytest.approx(30.0)
        assert snap.ledger_totals["offline"]["rounds"] == 5
        assert snap.batch_occupancy == {2: 1} and snap.mean_occupancy == 2.0

    def test_peak_fields_fold_with_max(self):
        rec = StatsRecorder()
        for peak in (5, 9, 3):
            rec.record_completion(
                "offline",
                0.0,
                RunLedger(model="offline", peak_central_space=peak),
            )
        assert rec.snapshot().ledger_totals["offline"]["peak_central_space"] == 9


# ======================================================================
# Service-vs-direct parity battery
# ======================================================================
@pytest.fixture(scope="module")
def parity_problems() -> list[tuple[Problem, str]]:
    """A mixed-backend request list: batchable offline requests (two
    config groups), a streaming run, baselines, and a forest task."""
    pairs: list[tuple[Problem, str]] = []
    for s in range(3):
        pairs.append((fast_problem(s, seed=s), "offline"))
    pairs.append(
        (
            Problem(fast_problem(0).graph, config=SolverConfig(seed=9, eps=0.4)),
            "offline",
        )
    )
    pairs.append((fast_problem(3, seed=4), "semi_streaming"))
    pairs.append((fast_problem(4, seed=5), "baseline:lattanzi"))
    pairs.append((fast_problem(5), "baseline:one_pass"))
    bip = random_bipartite(5, 6, 14, seed=6)
    pairs.append((Problem(bip, options={"eps": 0.2}), "baseline:auction"))
    pairs.append(
        (
            Problem(
                fast_problem(6).graph,
                task="spanning_forest",
                config=SolverConfig(seed=11),
            ),
            "congested_clique",
        )
    )
    return pairs


class TestServiceParity:
    def test_mixed_backend_burst_equals_direct_run(self, parity_problems):
        direct = [run(p, backend=b) for p, b in parity_problems]
        with MatchingService(workers=2, max_batch=8, max_delay_s=0.02) as svc:
            futures = [svc.submit(p, b) for p, b in parity_problems]
            served = [f.result(60) for f in futures]
            stats = svc.stats()
        for s, d in zip(served, direct):
            assert_run_results_equal(s, d)
        assert stats.submitted == len(parity_problems)
        assert stats.completed == len(parity_problems)
        assert stats.failed == 0
        assert stats.batches >= 1 and stats.mean_occupancy >= 1.0
        assert stats.latency_p50_ms is not None

    def test_cache_hit_returns_bit_identical_result(self):
        problem = fast_problem(0, seed=3)
        with MatchingService(workers=1, max_delay_s=0.0) as svc:
            first = svc.solve(problem, timeout=60)
            again = svc.solve(problem, timeout=60)
            rebuilt = svc.solve(
                Problem(problem.graph.copy(), config=SolverConfig(seed=3, **FAST)),
                timeout=60,
            )
            stats = svc.stats()
        # the cache returns the stored object itself: bit-identical
        assert again is first
        assert rebuilt is first  # same content address from a rebuilt spec
        assert stats.cache_hits == 2
        assert stats.computed == 1
        assert stats.cache_hit_rate == pytest.approx(2 / 3)

    def test_inflight_duplicates_coalesce_to_one_computation(self):
        problem = fast_problem(1, seed=2)
        with MatchingService(workers=1, max_delay_s=0.05) as svc:
            futures = [svc.submit(problem) for _ in range(5)]
            results = [f.result(60) for f in futures]
            stats = svc.stats()
        assert all(r is results[0] for r in results)
        assert stats.computed == 1
        assert stats.coalesced + stats.cache_hits == 4
        assert stats.completed == 5

    def test_unfingerprintable_problems_bypass_cache_but_solve(self):
        ledger = ResourceLedger()
        problem = Problem(fast_problem(2).graph, options={"ledger": ledger})
        with pytest.raises(TypeError):
            problem.fingerprint()
        with MatchingService(workers=1, max_delay_s=0.0) as svc:
            res = svc.solve(problem, backend="baseline:one_pass", timeout=60)
            res2 = svc.solve(
                Problem(problem.graph, options={"ledger": ResourceLedger()}),
                backend="baseline:one_pass",
                timeout=60,
            )
            stats = svc.stats()
        assert res is not res2  # two real computations, no cache key
        assert np.array_equal(res.matching.edge_ids, res2.matching.edge_ids)
        assert stats.cache_hits == 0 and stats.computed == 2

    def test_cache_capacity_zero_recomputes(self):
        problem = fast_problem(0, seed=1)
        with MatchingService(workers=1, max_delay_s=0.0, cache_capacity=0) as svc:
            first = svc.solve(problem, timeout=60)
            second = svc.solve(problem, timeout=60)
            stats = svc.stats()
        assert first is not second
        assert_run_results_equal(first, second)
        assert stats.cache_hits == 0 and stats.computed == 2

    def test_seeded_forest_tasks_are_cacheable(self):
        problem = Problem(
            fast_problem(7).graph,
            task="spanning_forest",
            config=SolverConfig(seed=13),
        )
        with MatchingService(workers=1, max_delay_s=0.0) as svc:
            a = svc.solve(problem, backend="congested_clique", timeout=60)
            b = svc.solve(problem, backend="congested_clique", timeout=60)
            # the same problem on a different backend is a different key
            c = svc.solve(problem, backend="mapreduce", timeout=60)
            stats = svc.stats()
        assert b is a
        assert c is not a and c.backend == "mapreduce"
        assert stats.cache_hits == 1 and stats.computed == 2


class TestServiceErrors:
    def test_task_mismatch_raises_synchronously(self):
        with MatchingService(workers=1) as svc:
            with pytest.raises(ProblemMismatch, match="spanning_forest"):
                svc.submit(fast_problem(0), backend="mapreduce")
            assert svc.stats().submitted == 0

    def test_model_rejection_resolves_the_future_with_the_error(self):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
        with MatchingService(workers=1, max_delay_s=0.0) as svc:
            fut = svc.submit(Problem(triangle), backend="baseline:auction")
            with pytest.raises(ProblemMismatch, match="bipartite"):
                fut.result(60)
            stats = svc.stats()
        assert stats.failed == 1 and stats.completed == 0
        # a failed computation must not poison the cache
        assert svc.cache_stats().size == 0

    def test_failure_is_not_cached_and_next_submit_recomputes(self):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
        with MatchingService(workers=1, max_delay_s=0.0) as svc:
            for _ in range(2):
                with pytest.raises(ProblemMismatch):
                    svc.solve(Problem(triangle), backend="baseline:auction", timeout=60)
            assert svc.stats().failed == 2

    def test_submit_after_close_raises(self):
        svc = MatchingService(workers=1)
        svc.close()
        assert svc.closed
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(fast_problem(0))
        svc.close()  # idempotent

    def test_close_drains_queued_work(self):
        problems = [fast_problem(s, seed=s) for s in range(4)]
        svc = MatchingService(workers=1, max_delay_s=0.0)
        futures = [svc.submit(p) for p in problems]
        svc.close()  # must drain, not drop
        direct = [run(p) for p in problems]
        for f, d in zip(futures, direct):
            assert_run_results_equal(f.result(0), d)


class TestAsyncFrontEnd:
    def test_asolve_and_asubmit_match_direct_run(self):
        problems = [fast_problem(s, seed=s) for s in range(3)]
        direct = [run(p) for p in problems]

        async def drive():
            with MatchingService(workers=2, max_delay_s=0.01) as svc:
                # concurrent awaits coalesce through the same machinery
                results = await asyncio.gather(
                    *(svc.asolve(p) for p in problems)
                )
                wrapped = await svc.asubmit(problems[0])
                dup = await wrapped
                return results, dup

        results, dup = asyncio.run(drive())
        for r, d in zip(results, direct):
            assert_run_results_equal(r, d)
        assert dup is results[0]  # cache hit, bit-identical


# ======================================================================
# Hypothesis: random request streams == looped run()
# ======================================================================
BACKEND_POOL = ["offline", "baseline:lattanzi", "baseline:one_pass"]


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_property_service_equals_looped_run(data):
    """For random request streams -- duplicates, mixed backends, random
    arrival interleavings, random worker/batch policy -- every service
    result is exactly equal to a direct ``run()``, and repeats of an
    already-resolved request return the bit-identical cached object."""
    n_unique = data.draw(st.integers(1, 3), label="unique problems")
    uniques = []
    for u in range(n_unique):
        gseed = data.draw(st.integers(0, 300), label=f"gseed{u}")
        n = data.draw(st.integers(5, 10), label=f"n{u}")
        m = data.draw(st.integers(4, 16), label=f"m{u}")
        backend = data.draw(st.sampled_from(BACKEND_POOL), label=f"backend{u}")
        eps = data.draw(st.sampled_from([0.3, 0.4]), label=f"eps{u}")
        g = with_uniform_weights(gnm_graph(n, m, seed=gseed), 1, 20, seed=gseed + 1)
        problem = Problem(
            g,
            config=SolverConfig(
                seed=gseed,
                eps=eps,
                inner_steps=20,
                offline="local",
                round_cap_factor=0.5,
            ),
        )
        uniques.append((problem, backend))
    stream = data.draw(
        st.lists(st.integers(0, n_unique - 1), min_size=1, max_size=8),
        label="arrival stream",
    )
    workers = data.draw(st.integers(1, 2), label="workers")
    max_delay = data.draw(st.sampled_from([0.0, 0.005]), label="max_delay")

    direct = [run(p, backend=b) for p, b in uniques]
    with MatchingService(
        workers=workers, max_batch=4, max_delay_s=max_delay
    ) as svc:
        futures = [svc.submit(*uniques[i]) for i in stream]
        served = [f.result(60) for f in futures]
        # each unique request again, after resolution: cached, identical
        first_of: dict[int, object] = {}
        for i, res in zip(stream, served):
            first_of.setdefault(i, res)
        repeats = [svc.solve(*uniques[i], timeout=60) for i in sorted(first_of)]
        stats = svc.stats()

    for i, res in zip(stream, served):
        assert_run_results_equal(res, direct[i])
    for i, res in zip(sorted(first_of), repeats):
        assert res is first_of[i]  # bit-identical cache hit
    # two drawn "uniques" may collide on content: count distinct addresses
    distinct_keys = len(
        {f"{b}:{p.fingerprint()}" for i in first_of for p, b in [uniques[i]]}
    )
    assert stats.submitted == len(stream) + len(first_of)
    assert stats.failed == 0
    assert stats.completed == stats.submitted
    # dedup accounting: one computation per distinct problem, the rest free
    assert stats.computed == distinct_keys
    assert stats.cache_hits + stats.coalesced == stats.submitted - distinct_keys


class TestFutureLifecycle:
    """Review regressions: caller-side cancellation must never poison
    the shared computation, kill a worker, or skew the accounting."""

    def test_cancelling_a_pending_future_does_not_kill_the_worker(self):
        with MatchingService(workers=1, max_delay_s=0.0) as svc:
            a = svc.submit(fast_problem(0, seed=0))
            a.cancel()  # may or may not win the race with the worker
            # the shard must still serve subsequent requests
            b = svc.solve(fast_problem(1, seed=1), timeout=60)
            assert b.weight > 0
            stats = svc.stats()
        assert stats.failed == 0

    def test_coalesced_callers_cancel_independently(self):
        problem = fast_problem(2, seed=4)
        with MatchingService(workers=1, max_delay_s=0.05) as svc:
            first = svc.submit(problem)
            second = svc.submit(problem)  # coalesces onto the same work
            assert second.cancel()  # still pending: cancellable
            result = first.result(60)  # primary unaffected
            assert result.weight > 0
            # and the computation itself completed + was cached
            assert svc.solve(problem, timeout=60) is result

    def test_computed_never_negative_while_duplicates_in_flight(self):
        rec = StatsRecorder()
        rec.record_submit()
        rec.record_submit()
        rec.record_coalesced()  # duplicate attached, nothing resolved yet
        snap = rec.snapshot()
        assert snap.computed == 0 and snap.coalesced == 1

    def test_drained_requests_count_failed_but_not_computed(self):
        svc = MatchingService(workers=1, max_delay_s=0.0)
        futures = [svc.submit(fast_problem(s, seed=s)) for s in range(3)]
        svc.close()
        resolved = [f for f in futures if f.exception(0) is None]
        stats = svc.stats()
        assert stats.computed == len(resolved)
        assert stats.failed == 3 - len(resolved)


class TestWorkerResilience:
    """Second review pass: nothing a backend (even a custom one) does
    may kill a shard worker or leave futures unresolved."""

    def test_raising_batch_key_resolves_futures_and_worker_survives(self):
        from repro.api import Backend, _REGISTRY, register_backend

        @register_backend("test:bad-key")
        class BadKeyBackend(Backend):
            tasks = ("matching",)
            batchable = True

            def batch_key(self, problem):
                raise RuntimeError("boom from batch_key")

            def run(self, problem):  # pragma: no cover - planner raises first
                raise AssertionError("unreachable")

        try:
            with MatchingService(workers=1, max_delay_s=0.0) as svc:
                fut = svc.submit(fast_problem(0), backend="test:bad-key")
                with pytest.raises(RuntimeError, match="boom from batch_key"):
                    fut.result(30)
                # the shard survived and keeps serving
                ok = svc.solve(fast_problem(1, seed=1), timeout=60)
                assert ok.weight > 0
        finally:
            del _REGISTRY["test:bad-key"]

    def test_wrong_length_run_many_is_an_attributable_error(self):
        from repro.api import Backend, _REGISTRY, register_backend, run_many

        @register_backend("test:short")
        class ShortBackend(Backend):
            tasks = ("matching",)

            def run(self, problem):
                from repro.api import RunLedger, RunResult
                from repro.matching.structures import BMatching

                return RunResult(
                    backend=self.name,
                    task="matching",
                    matching=BMatching.empty(problem.graph),
                    ledger=RunLedger(model=self.name),
                )

            def run_many(self, problems):
                return [self.run(p) for p in problems[:-1]]  # buggy: drops one

        try:
            problems = [fast_problem(s) for s in range(3)]
            with pytest.raises(RuntimeError, match="returned 2 results for 3"):
                run_many(problems, backend="test:short")
            # through the service: every dispatch group, singletons
            # included, runs through run_many, so each future resolves
            # with the attributable error instead of hanging
            with MatchingService(workers=1, max_delay_s=0.0) as svc:
                futs = [svc.submit(p, "test:short") for p in problems]
                for f in futs:
                    with pytest.raises(RuntimeError, match="run_many returned"):
                        f.result(30)
        finally:
            del _REGISTRY["test:short"]


class TestFingerprintCanonicality:
    def test_coercible_option_shapes_are_rejected_not_collided(self, ):
        g = fast_problem(0).graph
        # json.dumps would stringify the int key / flatten the tuple --
        # both must be unfingerprintable instead of colliding
        with pytest.raises(TypeError, match="dict key"):
            Problem(g, options={1: "x"}).fingerprint()
        with pytest.raises(TypeError, match="no canonical JSON form"):
            Problem(g, options={"pair": (1, 2)}).fingerprint()
        # str-keyed plain shapes stay fingerprintable
        fp1 = Problem(g, options={"1": "x"}).fingerprint()
        fp2 = Problem(g, options={"pair": [1, 2]}).fingerprint()
        assert fp1 != fp2

    def test_unfingerprintable_shapes_still_served_uncached(self):
        problem = Problem(fast_problem(0).graph, options={"pair": (1, 2)})
        with MatchingService(workers=1, max_delay_s=0.0) as svc:
            res = svc.solve(problem, backend="baseline:one_pass", timeout=60)
            assert res.matching is not None
            assert svc.cache_stats().size == 0
