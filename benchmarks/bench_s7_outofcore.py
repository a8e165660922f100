"""S7: out-of-core spanning forest -- parity, memory, and scale.

Three legs, one subprocess per measured point (``peak_rss_bytes`` is a
whole-process high-water mark, so every scenario needs a fresh
interpreter):

* **parity** -- at sizes where the in-RAM reference is feasible, the
  file-driven row-block multi-pass run must produce the bit-identical
  forest, and at the largest common n its peak RSS must be at most
  half the in-RAM peak (the full tensor alone is ~660 MB at n=8192;
  the 2-row block is ~88 MB).
* **scaling** -- out-of-core per-n curve continuing past the n=8192
  ceiling of ``bench_s6_scaling.py``.
* **large** -- n=131072, m=2^20: the forest is computed end-to-end from
  a generated ``.edges`` file that is never materialized.

Writes ``benchmarks/BENCH_outofcore.json`` (and the ``outofcore_forest``
curve into ``BENCH_scaling.json``) under ``BENCH_RECORD=1``.
CI runs only ``test_s7_outofcore_smoke``.
"""

from harness import edges_file, mb, record, run_worker

PARITY_NS = [2048, 8192]
CURVE_NS = [4096, 8192, 16384, 32768, 65536]
LARGE_N = 131072
LARGE_M = 1 << 20
ROWS_PER_PASS = 2
CHUNK_EDGES = 65536

_WORKER = r"""
import hashlib, json, sys, time
import numpy as np

cfg = json.loads(sys.argv[1])
from repro.ingest import FileBackedGraph
from repro.streaming.semi_streaming import stream_spanning_forest
from repro.streaming.stream import EdgeStream
from repro.util.instrumentation import ResourceLedger, peak_rss_bytes

fbg = FileBackedGraph(cfg["path"], chunk_edges=cfg["chunk_edges"])
ledger = ResourceLedger()
if cfg["mode"] == "file":
    # never materialized: chunked reads + row-block multi-pass tensor
    stream = EdgeStream(fbg, ledger=ledger)
    t0 = time.perf_counter()
    forest = stream_spanning_forest(
        stream, seed=cfg["seed"], ledger=ledger,
        rows_per_pass=cfg["rows_per_pass"],
    )
    elapsed = time.perf_counter() - t0
    passes = stream.passes
    assert not fbg.is_materialized, "out-of-core leg materialized the graph"
else:
    # in-RAM reference: whole graph resident + full single-pass tensor
    stream = EdgeStream(fbg.materialize(), ledger=ledger)
    t0 = time.perf_counter()
    forest = stream_spanning_forest(stream, seed=cfg["seed"], ledger=ledger)
    elapsed = time.perf_counter() - t0
    passes = stream.passes

digest = hashlib.sha256(repr(sorted(forest)).encode()).hexdigest()
print(json.dumps({
    "mode": cfg["mode"], "n": fbg.n, "m": fbg.m,
    "time_s": elapsed, "passes": passes,
    "forest_edges": len(forest), "digest": digest,
    "peak_rss_bytes": peak_rss_bytes(),
    "ledger_peak_words": ledger.central_space.peak,
}))
"""


def _run_leg(mode: str, path) -> dict:
    return run_worker(_WORKER, {
        "mode": mode, "path": str(path), "seed": 7,
        "chunk_edges": CHUNK_EDGES, "rows_per_pass": ROWS_PER_PASS,
    })


def test_s7_parity_and_rss(benchmark, experiment_table, tmp_path):
    """File-driven forest == in-RAM forest, at half the resident memory."""
    def run():
        rows = []
        for n in PARITY_NS:
            path = edges_file(tmp_path, n, 8 * n)
            got_f = _run_leg("file", path)
            got_r = _run_leg("ram", path)
            assert got_f["digest"] == got_r["digest"], f"n={n}: forests diverged"
            rows.append({
                "n": n, "m": got_f["m"],
                "file_s": round(got_f["time_s"], 3),
                "ram_s": round(got_r["time_s"], 3),
                "passes": got_f["passes"],
                "file_peak_rss_mb": mb(got_f["peak_rss_bytes"]),
                "ram_peak_rss_mb": mb(got_r["peak_rss_bytes"]),
                "rss_ratio": round(
                    got_f["peak_rss_bytes"] / got_r["peak_rss_bytes"], 3
                ),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_table(
        "S7 out-of-core vs in-RAM forest (m=8n, digest-equal per row)",
        ["n", "file (s)", "ram (s)", "passes", "file RSS", "ram RSS", "ratio"],
        [[r["n"], f"{r['file_s']:.2f}", f"{r['ram_s']:.2f}", r["passes"],
          f"{r['file_peak_rss_mb']:.0f}M", f"{r['ram_peak_rss_mb']:.0f}M",
          f"{r['rss_ratio']:.2f}"] for r in rows],
    )
    benchmark.extra_info["rows"] = rows
    record("BENCH_outofcore.json", "parity", rows)
    # the headline memory claim, at the largest common size
    assert rows[-1]["rss_ratio"] <= 0.5


def test_s7_scaling_curve(benchmark, experiment_table, tmp_path):
    """Out-of-core per-n curve past the s6 in-RAM ceiling (n=8192)."""
    def run():
        rows = []
        for n in CURVE_NS:
            path = edges_file(tmp_path, n, 8 * n)
            got = _run_leg("file", path)
            rows.append({
                "n": n, "m": got["m"],
                "file_s": round(got["time_s"], 3),
                "passes": got["passes"],
                "peak_rss_mb": mb(got["peak_rss_bytes"]),
                "ledger_peak_words": got["ledger_peak_words"],
                "forest_edges": got["forest_edges"],
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_table(
        "S7 out-of-core forest scaling (m=8n, rows_per_pass=2)",
        ["n", "time (s)", "passes", "peak RSS", "ledger words"],
        [[r["n"], f"{r['file_s']:.2f}", r["passes"],
          f"{r['peak_rss_mb']:.0f}M", r["ledger_peak_words"]] for r in rows],
    )
    benchmark.extra_info["rows"] = rows
    record("BENCH_scaling.json", "outofcore_forest", rows)
    assert all(r["forest_edges"] > 0 for r in rows)


def test_s7_large(benchmark, experiment_table, tmp_path):
    """n=131072, m=2^20: forest end-to-end from disk, never materialized."""
    def run():
        path = edges_file(tmp_path, LARGE_N, LARGE_M)
        got = _run_leg("file", path)
        got["file_bytes"] = path.stat().st_size
        return got

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    row = {
        "n": got["n"], "m": got["m"],
        "chunk_edges": CHUNK_EDGES, "rows_per_pass": ROWS_PER_PASS,
        "time_s": round(got["time_s"], 2), "passes": got["passes"],
        "forest_edges": got["forest_edges"],
        "peak_rss_mb": mb(got["peak_rss_bytes"]),
        "ledger_peak_words": got["ledger_peak_words"],
        "file_mb": mb(got["file_bytes"]),
        "digest": got["digest"],
    }
    experiment_table(
        "S7 large out-of-core forest (n=131072, m=2^20)",
        ["n", "m", "time (s)", "passes", "forest", "peak RSS", "file"],
        [[row["n"], row["m"], f"{row['time_s']:.1f}", row["passes"],
          row["forest_edges"], f"{row['peak_rss_mb']:.0f}M",
          f"{row['file_mb']:.0f}M"]],
    )
    benchmark.extra_info["row"] = row
    record("BENCH_outofcore.json", "large", row)
    assert got["n"] >= 10**5 and got["m"] >= 10**6
    assert got["forest_edges"] > 0


def test_s7_outofcore_smoke(benchmark, tmp_path):
    """CI smoke: digest parity file-vs-RAM at n=512, plus the bounded-
    memory assertion -- the out-of-core ledger high-water stays within
    chunk + row-block words and strictly below the full tensor."""
    from repro.sketch.support_find import forest_row_seeds, incidence_forest_rows
    from repro.sketch.tensor import SketchTensor
    import numpy as np

    n = 512

    def run():
        path = edges_file(tmp_path, n, 8 * n)
        return _run_leg("file", path), _run_leg("ram", path)

    got_f, got_r = benchmark.pedantic(run, rounds=1, iterations=1)
    assert got_f["digest"] == got_r["digest"]
    assert got_f["forest_edges"] == got_r["forest_edges"] > 0

    rows = incidence_forest_rows(n)
    seeds = forest_row_seeds(np.random.default_rng(0), n)
    row_words = SketchTensor(n * n, seeds[:1], repetitions=8, slots=n).space_words()
    # one resident chunk: 4 words per edge (src, dst, weight, edge id)
    budget = ROWS_PER_PASS * row_words + 4 * min(CHUNK_EDGES, 8 * n)
    assert got_f["ledger_peak_words"] <= budget
    assert got_f["ledger_peak_words"] < rows * row_words
