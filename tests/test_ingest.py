"""Out-of-core ingestion battery: format round-trips, typed corruption
errors, and the chunk-invariance pins.

The load-bearing property is *linearity*: sketch cells are integer sums
and the fingerprint chain hashes fixed column bytes, so how the edges
were chunked on their way in -- chunk sizes {1, 7, 4096, whole-file},
single-pass or row-block multi-pass, file-backed or in-RAM -- must not
change a single bit of any sketch digest, decoded forest, matching, or
content address.  Everything here runs under whichever
``REPRO_KERNELS`` backend the session selected (CI matrixes both), and
one subprocess test pins numpy/native cross-kernel digest equality for
the file-backed path explicitly.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Problem, run
from repro.core.matching_solver import SolverConfig
from repro.graphgen import (
    generate_gnm_file,
    gnm_graph,
    hard_instance_file,
    triangle_count,
    with_uniform_weights,
)
from repro.graphgen.ondisk import _triangle_decode
from repro.ingest import (
    EdgeDataError,
    EdgeFileWriter,
    FileBackedGraph,
    IngestError,
    IngestFormatError,
    TruncatedFileError,
    convert_text_edges,
    open_edges,
    write_edges,
    write_graph_file,
)
from repro.ingest.format import HEADER_BYTES, MAGIC
from repro.sketch.graph_sketch import VertexIncidenceSketch
from repro.sketch.support_find import forest_row_seeds, sketch_spanning_forest
from repro.sketch.tensor import SketchTensor
from repro.streaming.semi_streaming import (
    dynamic_stream_spanning_forest,
    stream_spanning_forest,
)
from repro.streaming.stream import DynamicEdgeStream, EdgeStream
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

REPO = Path(__file__).resolve().parent.parent

CHUNK_SIZES = [1, 7, 4096, None]  # None = whole file in one chunk


def _graph(n=60, m=240, seed=3) -> Graph:
    return with_uniform_weights(gnm_graph(n, m, seed=seed), 1.0, 9.0, seed=seed + 1)


@pytest.fixture
def graph() -> Graph:
    return _graph()


@pytest.fixture
def edge_file(tmp_path, graph):
    path = tmp_path / "g.edges"
    write_graph_file(path, graph)
    return path


def _chunks(cs, m):
    return m if cs is None else cs


def _file_stream(path, chunk_edges, ledger=None) -> EdgeStream:
    """A stream over a never-materialized file-backed graph."""
    fg = FileBackedGraph(path, chunk_edges=chunk_edges, materialize_policy="forbid")
    return EdgeStream(fg, ledger=ledger)


# ======================================================================
# Format round-trips
# ======================================================================
class TestFormat:
    def test_roundtrip_preserves_instance(self, tmp_path, graph):
        path = write_graph_file(tmp_path / "g.edges", graph)
        with open_edges(path, validate=True) as ef:
            assert (ef.n, ef.m) == (graph.n, graph.m)
            src, dst, w = ef.read_chunk(0, ef.m)
            assert np.array_equal(src, graph.src)
            assert np.array_equal(dst, graph.dst)
            assert np.array_equal(w, graph.weight)

    def test_write_edges_canonicalizes_orientation(self, tmp_path):
        # reversed orientation + unsorted input land canonical and sorted
        path = write_edges(tmp_path / "e.edges", 5, [3, 1, 4], [0, 0, 2], [2.0, 1.0, 3.0])
        ef = open_edges(path, validate=True)
        src, dst, w = ef.read_chunk(0, 3)
        assert src.tolist() == [0, 0, 2]
        assert dst.tolist() == [1, 3, 4]
        assert w.tolist() == [1.0, 2.0, 3.0]

    def test_unit_weight_default(self, tmp_path):
        path = write_edges(tmp_path / "e.edges", 3, [0, 1], [1, 2])
        _, _, w = open_edges(path).read_chunk(0, 2)
        assert w.tolist() == [1.0, 1.0]

    def test_empty_graph(self, tmp_path):
        path = write_edges(tmp_path / "empty.edges", 7, [], [])
        ef = open_edges(path, validate=True)
        assert (ef.n, ef.m) == (7, 0)
        assert list(EdgeStream(FileBackedGraph(ef)).iter_chunks()) == []
        assert ef.fingerprint() == Graph.empty(7).fingerprint()

    def test_streaming_fingerprint_matches_in_ram(self, edge_file, graph):
        for chunk in (1, 7, 4096, graph.m + 5):
            assert open_edges(edge_file).fingerprint(chunk) == graph.fingerprint()

    def test_capacities_not_representable(self, tmp_path, graph):
        g2 = graph.with_b(np.full(graph.n, 2))
        with pytest.raises(IngestError, match="capacity"):
            write_graph_file(tmp_path / "b.edges", g2)

    def test_writer_context_abort_leaves_refusable_file(self, tmp_path):
        path = tmp_path / "partial.edges"
        with pytest.raises(RuntimeError, match="boom"):
            with EdgeFileWriter(path, 4, 2) as w:
                w.append(np.array([0]), np.array([1]))
                raise RuntimeError("boom")
        with pytest.raises(IngestFormatError, match="never finalized"):
            open_edges(path)

    def test_finalize_requires_all_edges(self, tmp_path):
        w = EdgeFileWriter(tmp_path / "short.edges", 4, 2)
        w.append(np.array([0]), np.array([1]))
        with pytest.raises(IngestError, match="1 of 2"):
            w.finalize()


# ======================================================================
# Corruption: typed errors with offsets, never silent partial graphs
# ======================================================================
class TestCorruption:
    def _corrupt(self, path: Path, offset: int, payload: bytes) -> Path:
        data = bytearray(path.read_bytes())
        data[offset : offset + len(payload)] = payload
        path.write_bytes(bytes(data))
        return path

    def test_bad_magic(self, edge_file):
        self._corrupt(edge_file, 0, b"NOTEDGES")
        with pytest.raises(IngestFormatError, match="bad magic") as exc:
            open_edges(edge_file)
        assert exc.value.offset == 0

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.edges"
        path.write_bytes(MAGIC + b"\x00" * 8)
        with pytest.raises(TruncatedFileError, match="too short"):
            open_edges(path)

    def test_short_read_body(self, edge_file):
        full = edge_file.read_bytes()
        edge_file.write_bytes(full[: len(full) - 100])
        with pytest.raises(TruncatedFileError, match="short read") as exc:
            open_edges(edge_file)
        assert exc.value.offset == len(full) - 100

    def test_trailing_garbage(self, edge_file):
        edge_file.write_bytes(edge_file.read_bytes() + b"extra")
        with pytest.raises(IngestFormatError, match="stray trailing"):
            open_edges(edge_file)

    def test_nonzero_flags(self, edge_file):
        self._corrupt(edge_file, 24, struct.pack("<Q", 3))
        with pytest.raises(IngestFormatError, match="flags") as exc:
            open_edges(edge_file)
        assert exc.value.offset == 24

    def test_finalized_count_mismatch(self, edge_file):
        self._corrupt(edge_file, 32, struct.pack("<Q", 1))
        with pytest.raises(IngestFormatError, match="disagrees"):
            open_edges(edge_file)

    def test_nan_weight_detected_with_offset(self, edge_file, graph):
        bad_edge = 17
        off = HEADER_BYTES + 8 * graph.m + 8 * bad_edge
        self._corrupt(edge_file, off, struct.pack("<d", float("nan")))
        with pytest.raises(EdgeDataError, match="non-finite") as exc:
            open_edges(edge_file).validate(chunk_edges=7)
        assert exc.value.offset == bad_edge

    def test_duplicate_edge_detected_with_offset(self, edge_file, graph):
        # overwrite edge k with a copy of edge k-1 (both columns)
        k = 23
        data = bytearray(edge_file.read_bytes())
        for col_off, width in ((HEADER_BYTES, 4), (HEADER_BYTES + 4 * graph.m, 4)):
            prev = data[col_off + width * (k - 1) : col_off + width * k]
            data[col_off + width * k : col_off + width * (k + 1)] = prev
        edge_file.write_bytes(bytes(data))
        with pytest.raises(EdgeDataError, match="duplicate") as exc:
            open_edges(edge_file).validate()
        assert exc.value.offset == k

    def test_out_of_range_endpoint(self, edge_file, graph):
        off = HEADER_BYTES + 4 * graph.m  # dst[0]
        self._corrupt(edge_file, off, struct.pack("<I", graph.n + 5))
        with pytest.raises(EdgeDataError, match="canonical") as exc:
            open_edges(edge_file).validate()
        assert exc.value.offset == 0

    def test_corruption_surfaces_during_streaming_too(self, edge_file, graph):
        # a file is streamed only through a FileBackedGraph, and opening
        # one validates the content: no stream can start over garbage
        off = HEADER_BYTES + 8 * graph.m + 8 * 40
        self._corrupt(edge_file, off, struct.pack("<d", float("-inf")))
        with pytest.raises(EdgeDataError, match="non-finite") as exc:
            _file_stream(edge_file, 16)
        assert exc.value.offset == 40

    @pytest.mark.parametrize(
        "backend, task",
        [
            ("offline", "matching"),
            ("semi_streaming", "matching"),
            ("semi_streaming", "spanning_forest"),
        ],
        ids=["offline", "semi_streaming", "semi_streaming_forest"],
    )
    @pytest.mark.parametrize(
        "edge, patch, match",
        [
            (1, (0, 9), "canonical"),  # dst >= n
            (2, (1, 1), "canonical"),  # self-loop
            (2, (0, 2), "duplicate"),  # repeats edge 1's key
            (3, (0, 3), "disordered"),  # key below edge 2's (1, 3)
        ],
        ids=["dst_out_of_range", "self_loop", "duplicate_key", "disordered_keys"],
    )
    def test_corrupt_content_rejected_on_every_matching_path(
        self, tmp_path, backend, task, edge, patch, match
    ):
        # a file-backed graph is validated at open, like an in-RAM Graph:
        # no matching or forest path may index with, solve, certify or
        # stream bad edges
        path = write_edges(
            tmp_path / "c.edges", 4, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        for col, value in enumerate(patch):
            self._corrupt(path, HEADER_BYTES + 4 * (4 * col + edge), struct.pack("<I", value))
        with pytest.raises(EdgeDataError, match=match) as exc:
            run(
                Problem.from_edge_file(path, task=task, materialize_policy="forbid"),
                backend,
            )
        assert exc.value.offset == edge

    def test_writer_rejects_duplicates(self, tmp_path):
        w = EdgeFileWriter(tmp_path / "dup.edges", 4, 3)
        w.append(np.array([0, 0]), np.array([1, 2]))
        with pytest.raises(EdgeDataError, match="strictly increasing") as exc:
            w.append(np.array([0]), np.array([2]))
        assert exc.value.offset == 2
        w.abort()

    def test_writer_rejects_self_loop_and_bad_weight(self, tmp_path):
        w = EdgeFileWriter(tmp_path / "bad.edges", 4, 2)
        with pytest.raises(EdgeDataError, match="canonical"):
            w.append(np.array([1]), np.array([1]))
        with pytest.raises(EdgeDataError, match="weight"):
            w.append(np.array([0]), np.array([1]), np.array([0.0]))
        w.abort()

    def test_writer_rejects_overflow(self, tmp_path):
        w = EdgeFileWriter(tmp_path / "over.edges", 9, 1)
        with pytest.raises(IngestError, match="overflows"):
            w.append(np.array([0, 1]), np.array([1, 2]))
        w.abort()

    def test_closed_file_raises(self, edge_file):
        ef = open_edges(edge_file)
        ef.close()
        with pytest.raises(IngestError, match="closed"):
            ef.read_chunk(0, 1)


# ======================================================================
# Chunk invariance: the tentpole pins
# ======================================================================
class TestChunkInvariance:
    def _sketch_digest(self, sk: VertexIncidenceSketch) -> str:
        t = sk._tensor
        h = hashlib.sha256()
        for arr in (t.s0, t.s1, t.fp):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_sketch_cells_bit_identical_across_chunks(self, edge_file, graph, chunk):
        """Chunked file ingestion into VertexIncidenceSketch.update_edges
        produces the exact cell bytes of the one-shot in-RAM build."""
        ref = VertexIncidenceSketch(graph, t=3, seed=5, repetitions=4)
        sk = VertexIncidenceSketch.empty(graph.n, t=3, seed=5, repetitions=4)
        stream = _file_stream(edge_file, _chunks(chunk, graph.m))
        for csrc, cdst, _cw, _ceid in stream.iter_chunks():
            sk.update_edges(csrc, cdst)
        assert self._sketch_digest(sk) == self._sketch_digest(ref)

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("rows_per_pass", [None, 1, 3])
    def test_forest_bit_identical_across_chunks_and_passes(
        self, edge_file, graph, chunk, rows_per_pass
    ):
        ref = stream_spanning_forest(EdgeStream(graph), seed=42)
        stream = _file_stream(edge_file, _chunks(chunk, graph.m))
        got = stream_spanning_forest(stream, seed=42, rows_per_pass=rows_per_pass)
        assert got == ref

    def test_forest_matches_dynamic_one_shot(self, graph):
        """The chunked out-of-core forest, the dynamic one-shot pipeline
        and the in-RAM sketch forest share seed derivation and decoder,
        hence bits."""
        stream = DynamicEdgeStream(graph.n)
        stream.insert_many(graph.src, graph.dst, graph.weight)
        ref = stream_spanning_forest(EdgeStream(graph), seed=9)
        assert dynamic_stream_spanning_forest(stream, seed=9) == ref
        assert sketch_spanning_forest(graph, seed=9) == ref

    @pytest.mark.parametrize("chunk", [1, 7, 4096, None])
    def test_facade_forest_and_matching_match_in_ram(self, edge_file, graph, chunk):
        cfg = SolverConfig(eps=0.3, seed=7, inner_steps=40, offline="local")
        file_forest = run(
            Problem.from_edge_file(
                edge_file, config=cfg, task="spanning_forest", chunk_edges=chunk
            ),
            backend="semi_streaming",
        )
        ram_forest = run(
            Problem(graph, config=cfg, task="spanning_forest"), backend="semi_streaming"
        )
        assert file_forest.forest == ram_forest.forest

        file_match = run(Problem.from_edge_file(edge_file, config=cfg), backend="semi_streaming")
        ram_match = run(Problem(graph, config=cfg), backend="semi_streaming")
        assert file_match.matching.edge_ids.tolist() == ram_match.matching.edge_ids.tolist()
        assert file_match.weight == ram_match.weight

    def test_fingerprints_shared_between_file_and_ram(self, edge_file, graph):
        cfg = SolverConfig(eps=0.3, seed=7)
        p_file = Problem.from_edge_file(edge_file, config=cfg)
        p_ram = Problem(graph, config=cfg)
        assert p_file.fingerprint() == p_ram.fingerprint()
        assert not p_file.graph.is_materialized  # fingerprinting streamed

    def test_cross_kernel_digest_parity_from_file(self, edge_file):
        """numpy and native kernels decode the same forest from the same
        file (subprocesses: REPRO_KERNELS binds at import)."""
        worker = (
            "import sys, json; "
            "from repro.ingest import FileBackedGraph; "
            "from repro.streaming.semi_streaming import stream_spanning_forest; "
            "from repro.streaming.stream import EdgeStream; "
            "import repro.kernels as K; "
            "s = EdgeStream(FileBackedGraph(sys.argv[1], chunk_edges=13)); "
            "f = stream_spanning_forest(s, seed=3, rows_per_pass=2); "
            "print(json.dumps({'backend': K.backend(), 'forest': f}))"
        )
        digests = {}
        for mode in ("numpy", "native"):
            env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "REPRO_KERNELS": mode}
            r = subprocess.run(
                [sys.executable, "-c", worker, str(edge_file)],
                capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
            )
            if mode == "native" and r.returncode != 0:
                pytest.skip("native kernel backend unavailable")
            assert r.returncode == 0, r.stderr
            got = json.loads(r.stdout)
            assert got["backend"] == mode
            digests[mode] = got["forest"]
        assert digests["numpy"] == digests["native"]

    @settings(max_examples=25, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=0, max_size=40
        ),
        chunk=st.sampled_from([1, 3, 7, 64]),
        seed=st.integers(0, 2**20),
    )
    def test_hypothesis_roundtrip_and_forest_invariance(self, tmp_path_factory, edges, chunk, seed):
        """Random instances: file round-trip preserves the content address
        and chunked forests equal in-RAM forests, for arbitrary inputs."""
        g = Graph.from_edges(12, edges)
        path = tmp_path_factory.mktemp("hyp") / "g.edges"
        write_graph_file(path, g)
        with open_edges(path, validate=True) as ef:
            assert ef.fingerprint() == g.fingerprint()
        stream = _file_stream(path, chunk)
        parts = list(stream.iter_chunks())
        if parts:
            src, dst, w, _ = map(np.concatenate, zip(*parts))
            assert Graph(12, src, dst, w).fingerprint() == g.fingerprint()
        got = stream_spanning_forest(stream, seed=seed, rows_per_pass=1)
        assert got == stream_spanning_forest(EdgeStream(g), seed=seed)


# ======================================================================
# The chunked edge source: EdgeStream over a FileBackedGraph
# ======================================================================
class TestChunkedEdgeSource:
    def test_chunks_concatenate_to_columns(self, edge_file, graph):
        for chunk in (1, 7, 4096, graph.m):
            parts = list(_file_stream(edge_file, chunk).iter_chunks())
            assert np.array_equal(np.concatenate([p[0] for p in parts]), graph.src)
            assert np.array_equal(np.concatenate([p[1] for p in parts]), graph.dst)
            assert np.array_equal(np.concatenate([p[2] for p in parts]), graph.weight)
            assert np.array_equal(
                np.concatenate([p[3] for p in parts]), np.arange(graph.m)
            )

    def test_pass_accounting(self, edge_file, graph):
        ledger = ResourceLedger()
        stream = _file_stream(edge_file, 16, ledger=ledger)
        for _ in range(3):
            list(stream.iter_chunks())
        assert stream.passes == 3
        assert ledger.sampling_rounds == 3
        assert ledger.edges_streamed == 3 * graph.m

    def test_resident_chunk_words_bounded(self, edge_file, graph):
        """The forest ledger's high-water proves O(chunk) residency: the
        peak is one row block plus one chunk's words (src, dst, weight,
        edge id), not the file's."""
        chunk = 16
        ledger = ResourceLedger()
        stream_spanning_forest(
            _file_stream(edge_file, chunk), seed=4, ledger=ledger, rows_per_pass=1
        )
        seeds = forest_row_seeds(np.random.default_rng(4), graph.n)
        block = SketchTensor(
            graph.n * graph.n, seeds[:1], repetitions=8, slots=graph.n
        ).space_words()
        assert ledger.central_space.peak == block + 4 * chunk
        assert ledger.central_space.current == 0

    def test_graph_backed_source_identical_chunks(self, edge_file, graph):
        """Chunk by chunk, a file-backed stream yields the in-RAM
        graph's columns at the chunk's edge ids, one chunk per range."""
        fg = FileBackedGraph(edge_file, chunk_edges=10, materialize_policy="forbid")
        chunks = list(EdgeStream(fg).iter_chunks())
        assert [(int(c[3][0]), int(c[3][-1]) + 1) for c in chunks] == list(
            fg.edge_ranges()
        )
        for src, dst, w, eid in chunks:
            assert np.array_equal(src, graph.src[eid])
            assert np.array_equal(dst, graph.dst[eid])
            assert np.array_equal(w, graph.weight[eid])

    def test_per_edge_iteration(self, edge_file, graph):
        got = list(_file_stream(edge_file, 13))
        assert got == list(
            zip(graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist(), range(graph.m))
        )
        assert got == list(EdgeStream(graph))

    def test_rejects_bad_inputs(self, edge_file):
        with pytest.raises(ValueError, match="positive"):
            FileBackedGraph(edge_file, chunk_edges=0)
        # also when the file was already validated at another chunk size
        ef = open_edges(edge_file, validate=True)
        with pytest.raises(ValueError, match="positive"):
            FileBackedGraph(ef, chunk_edges=0)
        with pytest.raises(TypeError, match="source"):
            FileBackedGraph(123)


# ======================================================================
# FileBackedGraph laziness
# ======================================================================
class TestFileBackedGraph:
    def test_streaming_tier_never_materializes(self, edge_file, graph):
        fg = FileBackedGraph(edge_file, chunk_edges=8)
        assert (fg.n, fg.m) == (graph.n, graph.m)
        assert fg.fingerprint() == graph.fingerprint()
        list(EdgeStream(fg).iter_chunks())
        assert not fg.is_materialized

    def test_materializing_tier(self, edge_file, graph):
        fg = FileBackedGraph(edge_file)
        assert np.array_equal(fg.src, graph.src)  # first access materializes
        assert fg.is_materialized
        assert np.array_equal(fg.dst, graph.dst)
        assert np.array_equal(fg.weight, graph.weight)
        assert fg.b.tolist() == [1] * graph.n
        assert fg.degrees().tolist() == graph.degrees().tolist()
        assert fg.csr().degree(0) == graph.csr().degree(0)

    def test_equality_by_content(self, edge_file, graph):
        fg = FileBackedGraph(edge_file)
        assert fg == graph
        assert fg == FileBackedGraph(edge_file)
        assert not fg.is_materialized  # equality streamed too
        assert fg != Graph.from_edges(graph.n, [(0, 1)])

    def test_repr_does_not_materialize(self, edge_file):
        fg = FileBackedGraph(edge_file)
        assert "on disk" in repr(fg)
        fg.materialize()
        assert "materialized" in repr(fg)


# ======================================================================
# Converter
# ======================================================================
class TestConverter:
    def test_whitespace_and_weights(self, tmp_path, graph):
        text = tmp_path / "g.txt"
        lines = ["# a comment", ""]
        lines += [f"{j} {i} {w!r}" for i, j, w in graph.edges()]  # reversed orientation
        text.write_text("\n".join(lines) + "\n")
        out = convert_text_edges(text, tmp_path / "g.edges", n=graph.n)
        assert open_edges(out, validate=True).fingerprint() == graph.fingerprint()

    def test_csv_defaults_unit_weight_and_infers_n(self, tmp_path):
        text = tmp_path / "g.csv"
        text.write_text("0,2\n1,2\n0,1\n")
        out = convert_text_edges(text, tmp_path / "g.edges", delimiter=",")
        ef = open_edges(out)
        assert (ef.n, ef.m) == (3, 3)
        assert ef.read_chunk(0, 3)[2].tolist() == [1.0, 1.0, 1.0]

    def test_merges_duplicates_and_drops_self_loops(self, tmp_path):
        text = tmp_path / "g.txt"
        text.write_text("0 1 2.0\n1 0 3.0\n2 2 9.0\n")
        out = convert_text_edges(text, tmp_path / "g.edges", n=3)
        ef = open_edges(out)
        assert ef.m == 1
        assert ef.read_chunk(0, 1)[2].tolist() == [5.0]

    def test_unparseable_line_has_offset(self, tmp_path):
        text = tmp_path / "g.txt"
        text.write_text("0 1\nnot an edge at all here\n")
        with pytest.raises(IngestFormatError, match="line 2"):
            convert_text_edges(text, tmp_path / "g.edges")

    def test_out_of_range_and_negative_ids(self, tmp_path):
        text = tmp_path / "g.txt"
        text.write_text("0 5\n")
        with pytest.raises(IngestError, match="out of range"):
            convert_text_edges(text, tmp_path / "g.edges", n=3)
        text.write_text("-1 2\n")
        with pytest.raises(IngestError, match="negative"):
            convert_text_edges(text, tmp_path / "g.edges")

    def test_empty_input(self, tmp_path):
        text = tmp_path / "empty.txt"
        text.write_text("# nothing\n")
        out = convert_text_edges(text, tmp_path / "e.edges")
        assert open_edges(out).m == 0


# ======================================================================
# On-disk generators
# ======================================================================
class TestOndiskGenerator:
    def test_triangle_decode_exhaustive(self):
        n = 23
        keys = np.arange(triangle_count(n), dtype=np.int64)
        i, j = _triangle_decode(keys, n)
        expect = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert list(zip(i.tolist(), j.tolist())) == expect

    def test_gnm_file_exact_m_and_valid(self, tmp_path):
        path = generate_gnm_file(tmp_path / "g.edges", 200, 1500, seed=5, weights=(1.0, 8.0))
        ef = open_edges(path, validate=True)
        assert (ef.n, ef.m) == (200, 1500)
        _, _, w = ef.read_chunk(0, ef.m)
        assert w.min() >= 1.0 and w.max() <= 8.0

    def test_gnm_file_deterministic_and_chunk_independent(self, tmp_path):
        a = generate_gnm_file(tmp_path / "a.edges", 100, 700, seed=9, weights=(1.0, 2.0))
        b = generate_gnm_file(
            tmp_path / "b.edges", 100, 700, seed=9, weights=(1.0, 2.0), chunk_edges=13
        )
        c = generate_gnm_file(tmp_path / "c.edges", 100, 700, seed=10, weights=(1.0, 2.0))
        assert a.read_bytes() == b.read_bytes()
        assert open_edges(c).fingerprint() != open_edges(a).fingerprint()

    def test_complete_graph_and_bounds(self, tmp_path):
        path = generate_gnm_file(tmp_path / "k.edges", 9, triangle_count(9), seed=1)
        src, dst, _ = open_edges(path, validate=True).read_chunk(0, triangle_count(9))
        assert list(zip(src.tolist(), dst.tolist())) == [
            (a, b) for a in range(9) for b in range(a + 1, 9)
        ]
        with pytest.raises(ValueError, match="exceeds"):
            generate_gnm_file(tmp_path / "x.edges", 4, 7, seed=1)
        assert open_edges(generate_gnm_file(tmp_path / "z.edges", 4, 0, seed=1)).m == 0

    def test_hard_instance_file_roundtrip(self, tmp_path):
        from repro.graphgen import crown_graph

        path = hard_instance_file(tmp_path / "crown.edges", "crown_graph", k=5)
        assert open_edges(path, validate=True).fingerprint() == crown_graph(k=5).fingerprint()
        with pytest.raises(ValueError, match="unknown hard family"):
            hard_instance_file(tmp_path / "x.edges", "petersen")


# ======================================================================
# Facade plumbing
# ======================================================================
class TestFacade:
    def test_forest_multi_pass_ledger(self, edge_file):
        from repro.sketch.support_find import incidence_forest_rows

        cfg = SolverConfig(eps=0.3, seed=11)
        res = run(
            Problem.from_edge_file(
                edge_file, config=cfg, task="spanning_forest",
                options={"rows_per_pass": 2}, chunk_edges=32,
            ),
            backend="semi_streaming",
        )
        rows = incidence_forest_rows(60)
        assert res.ledger.passes >= 1
        assert res.ledger.passes <= -(-rows // 2)  # ceil(rows/2), early stop allowed
        # one refinement tick per consumed Boruvka round, and the rounds
        # fit inside the passes' row blocks (2 rows per pass)
        assert 1 <= res.ledger.refinement_steps <= 2 * res.ledger.passes
        assert res.forest

    def test_options_stay_canonical(self, edge_file):
        p = Problem.from_edge_file(
            edge_file, task="spanning_forest", options={"rows_per_pass": 2}
        )
        assert isinstance(p.fingerprint(), str)  # options canonical

    def test_from_edge_file_materialize_flag(self, edge_file):
        p = Problem.from_edge_file(edge_file, materialize=True)
        assert p.graph.is_materialized
