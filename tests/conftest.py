"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.graphgen import gnm_graph, with_uniform_weights
from repro.util.graph import Graph

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _stray_edges_files() -> set[str]:
    return {
        str(p)
        for p in _REPO_ROOT.rglob("*.edges")
        if ".git" not in p.parts
    }


@pytest.fixture(autouse=True, scope="session")
def _edges_tmpdir_hygiene():
    """Tests must keep ``.edges`` scratch files in tmp dirs, never in the
    repo tree (a stray file would dirty the working copy and could get
    committed).  CI re-checks this after the suite with a find."""
    before = _stray_edges_files()
    yield
    stray = _stray_edges_files() - before
    assert not stray, f"test run left stray .edges files in the repo: {sorted(stray)}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def file_graph(tmp_path):
    """Factory: ``file_graph(graph, chunk_edges)`` is a never-materialized
    ``FileBackedGraph`` copy of ``graph`` in a fresh ``.edges`` file."""
    from repro.ingest import FileBackedGraph, write_graph_file

    def make(graph: Graph, chunk_edges: int) -> Graph:
        path = tmp_path / f"g{len(list(tmp_path.iterdir()))}.edges"
        write_graph_file(path, graph)
        return FileBackedGraph(path, chunk_edges=chunk_edges, materialize_policy="forbid")

    return make


@pytest.fixture
def small_graph() -> Graph:
    """Connected unweighted graph, n=12."""
    return gnm_graph(12, 30, seed=1)


@pytest.fixture
def weighted_graph() -> Graph:
    """Weighted random graph, n=30, m~120."""
    return with_uniform_weights(gnm_graph(30, 120, seed=2), low=1.0, high=50.0, seed=3)


@pytest.fixture
def path_graph() -> Graph:
    """Path 0-1-2-3-4 with increasing weights."""
    return Graph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1.0, 2.0, 3.0, 4.0]
    )


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
