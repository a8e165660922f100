"""Out-of-core certified matching: the zero-materialization contract.

PR pins for the file-backed matching route: a certified b-matching is
computed end-to-end from a ``.edges`` file without the graph's columns
ever entering RAM.  The round promise is answered per stream chunk
inside the chain's own pass, the dual-feasibility audit scans O(chunk)
slices, and the result -- matched edge ids, weight, certificate upper
bound, final lambda, round count -- is bit-identical to the in-RAM
solve at every chunk size.  Pass counts are audited by the stream
itself and charged to the ledger (one data access per sampling round),
and a k-pass replay pays file-content validation exactly once.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Problem, run
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.ingest import (
    FileBackedGraph,
    MaterializationForbidden,
    materializations_total,
    write_graph_file,
)
from repro.ingest import format as edge_format
from repro.streaming.stream import EdgeStream
from repro.streaming.streaming_matching import SemiStreamingMatchingSolver

REPO = Path(__file__).resolve().parent.parent

CHUNK_SIZES = [1, 7, 137, 4096]


def _cfg() -> SolverConfig:
    return SolverConfig(eps=0.3, seed=7, inner_steps=40, offline="local")


def _graph(n=60, m=240, seed=3):
    return with_uniform_weights(gnm_graph(n, m, seed=seed), 1.0, 9.0, seed=seed + 1)


@pytest.fixture(scope="module")
def graph():
    return _graph()


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("outofcore") / "graph.edges"
    write_graph_file(path, graph)
    return path


def _digest(result) -> str:
    """Full-result content hash: primal, certificate, and trajectory."""
    payload = {
        "edge_ids": result.matching.edge_ids.tolist(),
        "multiplicity": result.matching.multiplicity.tolist(),
        "weight": result.weight,
        "upper_bound": result.certificate.upper_bound,
        "lambda_min": result.lambda_min,
        "rounds": result.rounds,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def ram_digest(graph):
    return _digest(SemiStreamingMatchingSolver(_cfg()).solve(graph))


# ======================================================================
# Tentpole: forbid-policy solve, digest-identical, zero materializations
# ======================================================================
class TestZeroMaterializationMatching:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_forbid_policy_matching_matches_in_ram(
        self, edge_file, ram_digest, chunk
    ):
        fg = FileBackedGraph(
            edge_file, chunk_edges=chunk, materialize_policy="forbid"
        )
        before = materializations_total()
        solver = SemiStreamingMatchingSolver(_cfg())
        result = solver.solve(fg)
        assert materializations_total() == before
        assert not fg.is_materialized
        assert _digest(result) == ram_digest

    def test_facade_semi_streaming_route_never_materializes(self, edge_file, ram_digest):
        before = materializations_total()
        problem = Problem.from_edge_file(
            edge_file, config=_cfg(), materialize_policy="forbid"
        )
        facade = run(problem, backend="semi_streaming")
        assert materializations_total() == before
        assert not problem.graph.is_materialized
        assert _digest(facade.raw) == ram_digest

    def test_facade_offline_route_never_materializes(self, edge_file, ram_digest):
        """``backend="offline"`` on an unmaterialized file re-points to
        the streaming engine instead of silently loading the columns."""
        before = materializations_total()
        problem = Problem.from_edge_file(
            edge_file, config=_cfg(), materialize_policy="forbid"
        )
        facade = run(problem, backend="offline")
        assert materializations_total() == before
        assert not problem.graph.is_materialized
        assert _digest(facade.raw) == ram_digest

    def test_engine_builds_no_live_edge_array(self, edge_file, graph, monkeypatch):
        """The solver engine bounds lambda and the step widths from its
        O(n L) tables and scans edge ranges only when a bound cannot
        decide, so no O(m) live-edge id array is built during a solve,
        from a file or in RAM."""
        from repro.core.levels import LevelDecomposition

        calls = []
        original = LevelDecomposition.live_edges

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(LevelDecomposition, "live_edges", counting)
        fg = FileBackedGraph(edge_file, materialize_policy="forbid")
        SemiStreamingMatchingSolver(_cfg()).solve(fg)
        SemiStreamingMatchingSolver(_cfg()).solve(graph)
        DualPrimalMatchingSolver(_cfg()).solve(graph)
        assert calls == []

    def test_forbid_policy_blocks_explicit_materialize(self, edge_file):
        fg = FileBackedGraph(edge_file, materialize_policy="forbid")
        with pytest.raises(MaterializationForbidden):
            fg.materialize()

    def test_sparsifier_k_override_still_certifies(self, edge_file, graph):
        """The memory/density knob: a small forest count changes the
        sampled union (weaker primal) but never the certificate's
        validity, and file/RAM parity is preserved at equal k."""
        f = SemiStreamingMatchingSolver(_cfg(), sparsifier_k=4).solve(
            FileBackedGraph(edge_file, materialize_policy="forbid")
        )
        r = SemiStreamingMatchingSolver(_cfg(), sparsifier_k=4).solve(graph)
        assert _digest(f) == _digest(r)
        assert f.weight <= f.certificate.upper_bound + 1e-9


# ======================================================================
# Inner steps read no edge data
# ======================================================================
class TestInnerStepsReadNoEdges:
    @staticmethod
    def _gather_stacks(monkeypatch):
        """Record the caller names of every ``EdgeFile.gather_raw`` call."""
        stacks = []
        original = edge_format.EdgeFile.gather_raw

        def spying(self, *args, **kwargs):
            names, frame = [], sys._getframe(1)
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            stacks.append(names)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(edge_format.EdgeFile, "gather_raw", spying)
        return stacks

    def test_odd_set_route_gathers_only_for_layout_builds(
        self, tmp_path, monkeypatch
    ):
        """With odd-set mass on the dual, the z cover and the oracle's
        odd-set stage read the endpoints the stored layout already holds:
        inside inner steps only the layout builds gather."""
        from repro.graphgen import odd_cycle_chain

        g = odd_cycle_chain(2, 3)
        path = tmp_path / "chain.edges"
        write_graph_file(path, g)
        cfg = SolverConfig(
            eps=0.3, p=4.0, inner_steps=150, round_cap_factor=3.0, seed=7
        )
        stacks = self._gather_stacks(monkeypatch)
        fg = FileBackedGraph(path, materialize_policy="forbid")
        result = SemiStreamingMatchingSolver(cfg).solve(fg)
        inner = [s for s in stacks if "_inner_tick" in s]
        assert inner and all(s[1] == "build" for s in inner)
        assert _digest(result) == _digest(SemiStreamingMatchingSolver(cfg).solve(g))

    @pytest.mark.parametrize("inner_steps", [40, 400])
    def test_bytes_read_per_round_do_not_grow_with_inner_steps(
        self, edge_file, inner_steps, monkeypatch
    ):
        """A round reads the file a fixed small number of times (chain,
        harvest, certificate passes), however many inner steps it takes."""
        read = []
        for name in ("read_raw_slice", "gather_raw"):
            original = getattr(edge_format.EdgeFile, name)

            def counting(self, *args, _original=original, **kwargs):
                out = _original(self, *args, **kwargs)
                read.append(out.nbytes)
                return out

            monkeypatch.setattr(edge_format.EdgeFile, name, counting)
        cfg = SolverConfig(
            eps=0.3, seed=7, inner_steps=inner_steps, offline="local",
            round_cap_factor=0.3, target_gap=1e-6,
        )
        fg = FileBackedGraph(edge_file, chunk_edges=64, materialize_policy="forbid")
        result = SemiStreamingMatchingSolver(cfg).solve(fg)
        assert result.rounds == 2
        assert result.resources["refinement_steps"] >= result.rounds * inner_steps
        # the initial solution's passes count as one more round
        assert sum(read) <= 16 * os.path.getsize(edge_file) * (result.rounds + 1)


class TestIncumbentWeight:
    def test_file_backed_solve_gathers_no_weight(
        self, edge_file, ram_digest, monkeypatch
    ):
        """The engine keeps the incumbent's weight beside it and reads a
        harvest's weights from the pool's in-RAM subgraph, so no
        ``BMatching.weight`` call inside a solve gathers the weight
        column from the file."""
        from repro.matching.structures import BMatching

        weight_code = BMatching.weight.__code__
        from_weight = []
        original = edge_format.EdgeFile.gather_raw

        def spying(self, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not weight_code:
                frame = frame.f_back
            from_weight.append(frame is not None)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(edge_format.EdgeFile, "gather_raw", spying)
        fg = FileBackedGraph(edge_file, chunk_edges=64, materialize_policy="forbid")
        result = SemiStreamingMatchingSolver(_cfg()).solve(fg)
        monkeypatch.undo()
        assert result.rounds >= 1 and from_weight  # harvests did gather
        assert not any(from_weight)
        assert result.history[-1]["primal"] == result.matching.weight()
        assert _digest(result) == ram_digest


# ======================================================================
# Pass accounting and validation hoisting
# ======================================================================
class TestPassAccounting:
    def test_one_pass_per_round_charged_to_ledger(self, edge_file, graph):
        fg = FileBackedGraph(
            edge_file, chunk_edges=64, materialize_policy="forbid"
        )
        solver = SemiStreamingMatchingSolver(_cfg())
        result = solver.solve(fg)
        # the stream audits its own consumption: one pass per chain round
        assert solver.passes == result.rounds > 0
        # and the ledger agrees -- one sampling round per pass plus the
        # initial per-level matchings, m streamed edges per data access
        assert result.resources["sampling_rounds"] == result.rounds + 1
        assert result.resources["edges_streamed"] == result.rounds * graph.m

    def test_replay_validates_content_once(self, edge_file, graph, monkeypatch):
        """A k-pass replay pays one validation scan: opening the graph
        certifies the content and every later pass skips the per-chunk
        checks entirely."""
        calls = []
        orig = edge_format._check_chunk

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(edge_format, "_check_chunk", counting)
        fg = FileBackedGraph(edge_file, chunk_edges=16, materialize_policy="forbid")
        stream = EdgeStream(fg)
        for _ in range(3):
            for _chunk in stream.iter_chunks():
                pass
        assert stream.passes == 3
        assert len(calls) == -(-graph.m // 16)  # ceil(m/chunk), once


# ======================================================================
# Cross-kernel / subprocess determinism of the out-of-core solve
# ======================================================================
class TestCrossKernelParity:
    def test_matching_digest_parity_across_kernels(self, edge_file):
        """numpy and native kernels produce the identical certified
        matching from the same file (subprocesses: REPRO_KERNELS binds
        at import), with zero materializations in both."""
        worker = (
            "import sys, json, hashlib; "
            "from repro.core.matching_solver import SolverConfig; "
            "from repro.ingest import FileBackedGraph, materializations_total; "
            "from repro.streaming.streaming_matching import SemiStreamingMatchingSolver; "
            "import repro.kernels as K; "
            "fg = FileBackedGraph(sys.argv[1], chunk_edges=53, materialize_policy='forbid'); "
            "cfg = SolverConfig(eps=0.3, seed=7, inner_steps=40, offline='local'); "
            "r = SemiStreamingMatchingSolver(cfg).solve(fg); "
            "payload = {'edge_ids': r.matching.edge_ids.tolist(), 'weight': r.weight, "
            "'upper_bound': r.certificate.upper_bound, 'lambda_min': r.lambda_min, "
            "'rounds': r.rounds}; "
            "print(json.dumps({'backend': K.backend(), "
            "'materializations': materializations_total(), "
            "'digest': hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()}))"
        )
        digests = {}
        for mode in ("numpy", "native"):
            env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "REPRO_KERNELS": mode}
            r = subprocess.run(
                [sys.executable, "-c", worker, str(edge_file)],
                capture_output=True, text=True, env=env, cwd=REPO, timeout=600,
            )
            if mode == "native" and r.returncode != 0:
                pytest.skip("native kernel backend unavailable")
            assert r.returncode == 0, r.stderr
            got = json.loads(r.stdout)
            assert got["backend"] == mode
            assert got["materializations"] == 0
            digests[mode] = got["digest"]
        assert digests["numpy"] == digests["native"]


# ======================================================================
# The audit over 17-edge file ranges equals the one-range in-RAM audit
# ======================================================================
class TestChunkedCertificateAudit:
    def test_chunked_audit_matches_dense(self, edge_file, graph):
        from repro.matching.verify import verify_dual_upper_bound

        # feasible by construction: x_u = max incident weight
        x = np.zeros(graph.n)
        np.maximum.at(x, graph.src, graph.weight)
        np.maximum.at(x, graph.dst, graph.weight)
        z = {(0, 1, 2): 0.25}
        fg = FileBackedGraph(
            edge_file, chunk_edges=17, materialize_policy="forbid"
        )
        dense = verify_dual_upper_bound(graph, x, z)
        chunked = verify_dual_upper_bound(fg, x, z)
        assert chunked == dense
        assert not fg.is_materialized

    def test_chunked_audit_reports_first_violation_identically(
        self, edge_file, graph
    ):
        from repro.matching.verify import verify_dual_upper_bound

        x = np.zeros(graph.n)  # infeasible everywhere
        fg = FileBackedGraph(
            edge_file, chunk_edges=17, materialize_policy="forbid"
        )
        with pytest.raises(AssertionError) as dense_err:
            verify_dual_upper_bound(graph, x)
        with pytest.raises(AssertionError) as chunked_err:
            verify_dual_upper_bound(fg, x)
        assert str(chunked_err.value) == str(dense_err.value)
