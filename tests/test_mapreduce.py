"""Tests for the MapReduce engine, sketch jobs and congested-clique view."""

import networkx as nx
import numpy as np
import pytest

from repro.api import Problem, run
from repro.graphgen import gnm_graph
from repro.mapreduce.congested_clique import congested_clique_view
from repro.mapreduce.engine import (
    MapReduceEngine,
    MapReduceJob,
    ReducerMemoryExceeded,
    value_words,
)
from repro.mapreduce.jobs import mapreduce_vertex_sketches
from repro.util.graph import Graph


def mapreduce_forest(engine, g, seed):
    """The ``mapreduce`` backend's forest, run on a caller-built engine."""
    problem = Problem(g, task="spanning_forest", options={"engine": engine, "seed": seed})
    return run(problem, backend="mapreduce").forest


def word_count_job():
    def mapper(line):
        for w in line.split():
            yield (w, 1)

    def reducer(word, counts):
        yield (word, sum(counts))

    return MapReduceJob(mapper=mapper, reducer=reducer, name="wordcount")


class TestEngine:
    def test_wordcount(self):
        eng = MapReduceEngine()
        out = dict(eng.run_round(word_count_job(), ["a b a", "b a"]))
        assert out == {"a": 3, "b": 2}

    def test_round_accounting(self):
        eng = MapReduceEngine()
        eng.run_round(word_count_job(), ["x y"])
        assert eng.ledger.sampling_rounds == 1
        assert eng.ledger.shuffle_words == 2
        assert eng.ledger.edges_streamed == 1

    def test_memory_budget_enforced(self):
        eng = MapReduceEngine(reducer_memory_budget=2)

        def mapper(rec):
            yield (0, rec)  # everything to one reducer

        def reducer(k, vs):
            yield len(vs)

        job = MapReduceJob(mapper=mapper, reducer=reducer, name="hot")
        with pytest.raises(ReducerMemoryExceeded):
            eng.run_round(job, range(10))

    def test_budget_allows_within(self):
        eng = MapReduceEngine(reducer_memory_budget=100)
        out = eng.run_round(word_count_job(), ["a a a"])
        assert out == [("a", 3)]

    def test_pipeline_chains(self):
        eng = MapReduceEngine()

        def m1(x):
            yield (x % 2, x)

        def r1(k, vs):
            yield sum(vs)

        def m2(x):
            yield (0, x)

        def r2(k, vs):
            yield sum(vs)

        jobs = [
            MapReduceJob(mapper=m1, reducer=r1, name="partial"),
            MapReduceJob(mapper=m2, reducer=r2, name="total"),
        ]
        out = eng.run_pipeline(jobs, range(10))
        assert out == [sum(range(10))]
        assert eng.ledger.sampling_rounds == 2

    def test_value_words_variants(self):
        assert value_words(5) == 1
        assert value_words([1, 2, 3]) == 3

        class Sized:
            def space_words(self):
                return 42

        assert value_words(Sized()) == 42


class TestSketchJobs:
    def test_vertex_sketches_two_rounds(self):
        g = gnm_graph(10, 20, seed=0)
        eng = MapReduceEngine()
        central = mapreduce_vertex_sketches(eng, g, rows=3, seed=1)
        assert eng.ledger.sampling_rounds == 2
        # vertices with no edges are absent; all others have 3 rows
        assert all(len(rows) == 3 for rows in central.values())

    def test_central_sketches_sample_incident_edges(self):
        g = gnm_graph(8, 12, seed=2)
        eng = MapReduceEngine()
        central = mapreduce_vertex_sketches(eng, g, rows=2, seed=3)
        keys = set(map(int, g.edge_keys()))
        for v, rows in central.items():
            got = rows[0].sample()
            if got is not None:
                assert got[0] in keys

    def test_spanning_forest_correct(self):
        g = gnm_graph(14, 30, seed=4)
        eng = MapReduceEngine()
        forest = mapreduce_forest(eng, g, seed=5)
        ncc = nx.number_connected_components(g.to_networkx())
        assert len(forest) == g.n - ncc
        assert nx.is_forest(nx.Graph(forest))

    def test_spanning_forest_rounds_constant(self):
        """Sketching needs exactly 2 MR rounds regardless of n."""
        for n, m in ((10, 20), (20, 60)):
            eng = MapReduceEngine()
            mapreduce_forest(eng, gnm_graph(n, m, seed=n), seed=6)
            assert eng.ledger.sampling_rounds == 2


class TestIsolatedVertices:
    """Every forest backend handles vertices without edges (the
    ``mapreduce`` central reducer used to index a sketch such a vertex
    never sent)."""

    @pytest.mark.parametrize(
        "backend", ["semi_streaming", "mapreduce", "congested_clique"]
    )
    @pytest.mark.parametrize(
        "graph",
        [
            Graph.from_edges(3, [(0, 1)], [1.0]),
            Graph.from_edges(7, [(0, 2), (2, 5), (1, 4)], [1.0, 1.0, 1.0]),
            Graph.empty(4),
        ],
        ids=["tail", "scattered", "edgeless"],
    )
    def test_forest_spans_the_edged_components(self, backend, graph):
        forest = run(
            Problem(graph, task="spanning_forest", options={"seed": 3}), backend
        ).forest
        ncc = nx.number_connected_components(graph.to_networkx())
        assert len(forest) == graph.n - ncc
        spanned = nx.empty_graph(graph.n)
        spanned.add_edges_from(forest)
        assert nx.is_forest(spanned)
        assert {tuple(sorted(e)) for e in forest} <= {
            (int(u), int(v)) for u, v, _ in graph.edges()
        }

    def test_random_sparse_graphs(self):
        """G(n, 1.5n) with n <= 30 leaves isolated vertices often."""
        for seed in range(12):
            n = 10 + seed
            g = gnm_graph(n, int(1.5 * n), seed=seed)
            forest = mapreduce_forest(MapReduceEngine(), g, seed=seed)
            ncc = nx.number_connected_components(g.to_networkx())
            assert len(forest) == g.n - ncc


class TestCongestedClique:
    def test_view_translates_ledger(self):
        g = gnm_graph(12, 24, seed=7)
        eng = MapReduceEngine()
        mapreduce_forest(eng, g, seed=8)
        report = congested_clique_view(eng.ledger, g.n)
        assert report.rounds == 2
        assert report.per_vertex_message_words > 0

    def test_within_budget_generous(self):
        g = gnm_graph(12, 24, seed=9)
        eng = MapReduceEngine()
        mapreduce_forest(eng, g, seed=10)
        report = congested_clique_view(eng.ledger, g.n)
        # sketch sizes are polylog per vertex; p = 1.01 budget ~ n
        assert report.within_budget(p=1.01)
