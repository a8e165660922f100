"""S10: out-of-core certified matching -- parity, memory, and scale.

The matching counterpart of ``bench_s7_outofcore.py``: the dual-primal
semi-streaming solver runs end-to-end against a ``.edges`` file under
``materialize_policy="forbid"`` -- promise evaluation, sparsifier
chain, level discretization and the final dual audit all per stream
chunk -- and must produce the bit-identical matching *and certificate*
of the materialize-then-solve baseline.  One subprocess per measured
point (``peak_rss_bytes`` is a whole-process high-water mark).

* **matching** -- file-vs-RAM digest parity at n=8192 with the peak-RSS
  gate: the forbid-policy leg must stay at or below half the
  materialized baseline's peak (both legs share ``sparsifier_k`` so
  the chain stores are identical; only the resident-column and dense
  O(m) promise/audit costs differ).
* **outofcore_matching** -- per-n scaling curve of the file leg (into
  ``BENCH_scaling.json``).
* **matching_large** -- n=131072, m=2^20: certified matching end-to-end
  from a generated ``.edges`` file, zero materializations.

Writes under ``BENCH_RECORD=1``; CI runs only
``test_s10_outofcore_matching_smoke``.
"""

from harness import edges_file, mb, record, run_worker

GATE_N = 8192
GATE_M = 1 << 22
CURVE = [(4096, 1 << 19), (8192, 1 << 20), (16384, 1 << 21)]
LARGE_N = 131072
LARGE_M = 1 << 20
CHUNK_EDGES = 65536
# both legs share the density knob, so file/RAM digests stay identical;
# small k keeps the chain stores O(n * classes) instead of O(m) (the
# default Lemma 17 rate stores essentially every edge at these n)
SPARSIFIER_K = 1

_WORKER = r"""
import hashlib, json, sys, time
cfg = json.loads(sys.argv[1])
from repro.core.matching_solver import SolverConfig
from repro.ingest import FileBackedGraph, materializations_total
from repro.streaming.streaming_matching import SemiStreamingMatchingSolver
from repro.util.instrumentation import peak_rss_bytes

sc = SolverConfig(
    eps=0.3, seed=7, inner_steps=40, offline="local",
    target_gap=cfg["target_gap"],
)
policy = "forbid" if cfg["mode"] == "file" else "allow"
fbg = FileBackedGraph(
    cfg["path"], chunk_edges=cfg["chunk_edges"], materialize_policy=policy
)
if cfg["mode"] == "ram":
    fbg.materialize()  # the materialize-then-solve baseline
solver = SemiStreamingMatchingSolver(sc, sparsifier_k=cfg["sparsifier_k"])
t0 = time.perf_counter()
result = solver.solve(fbg)
elapsed = time.perf_counter() - t0
assert fbg.is_materialized == (cfg["mode"] == "ram")

payload = {
    "edge_ids": result.matching.edge_ids.tolist(),
    "multiplicity": result.matching.multiplicity.tolist(),
    "weight": result.weight,
    "upper_bound": result.certificate.upper_bound,
    "lambda_min": result.lambda_min,
    "rounds": result.rounds,
}
digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
print(json.dumps({
    "mode": cfg["mode"], "n": fbg.n, "m": fbg.m,
    "time_s": elapsed, "passes": solver.passes, "rounds": result.rounds,
    "weight": result.weight, "certified_ratio": result.certified_ratio,
    "matched_edges": len(result.matching.edge_ids), "digest": digest,
    "materializations": materializations_total(),
    "peak_rss_bytes": peak_rss_bytes(),
    "ledger_peak_words": result.resources["peak_central_space"],
    "edges_streamed": result.resources["edges_streamed"],
}))
"""


def _run_leg(mode: str, path) -> dict:
    return run_worker(_WORKER, {
        "mode": mode, "path": str(path), "chunk_edges": CHUNK_EDGES,
        "sparsifier_k": SPARSIFIER_K, "target_gap": 0.75,
    })


def test_s10_matching_parity_and_rss(benchmark, experiment_table, tmp_path):
    """File-driven certified matching == materialized baseline, at no
    more than half the resident memory (n=8192)."""
    def run():
        path = edges_file(tmp_path, GATE_N, GATE_M)
        got_f = _run_leg("file", path)
        got_r = _run_leg("ram", path)
        return got_f, got_r

    got_f, got_r = benchmark.pedantic(run, rounds=1, iterations=1)
    assert got_f["digest"] == got_r["digest"], "matching/certificate diverged"
    assert got_f["materializations"] == 0
    row = {
        "n": got_f["n"], "m": got_f["m"],
        "sparsifier_k": SPARSIFIER_K, "chunk_edges": CHUNK_EDGES,
        "file_s": round(got_f["time_s"], 2),
        "ram_s": round(got_r["time_s"], 2),
        "passes": got_f["passes"], "rounds": got_f["rounds"],
        "matched_edges": got_f["matched_edges"],
        "certified_ratio": round(got_f["certified_ratio"], 4),
        "file_peak_rss_mb": mb(got_f["peak_rss_bytes"]),
        "ram_peak_rss_mb": mb(got_r["peak_rss_bytes"]),
        "rss_ratio": round(
            got_f["peak_rss_bytes"] / got_r["peak_rss_bytes"], 3
        ),
        "digest": got_f["digest"],
    }
    experiment_table(
        "S10 out-of-core vs materialized certified matching (digest-equal)",
        ["n", "m", "file (s)", "ram (s)", "passes", "file RSS", "ram RSS", "ratio"],
        [[row["n"], row["m"], f"{row['file_s']:.1f}", f"{row['ram_s']:.1f}",
          row["passes"], f"{row['file_peak_rss_mb']:.0f}M",
          f"{row['ram_peak_rss_mb']:.0f}M", f"{row['rss_ratio']:.2f}"]],
    )
    benchmark.extra_info["row"] = row
    record("BENCH_outofcore.json", "matching", row)
    # the headline memory claim of the out-of-core matching route
    assert row["rss_ratio"] <= 0.5


def test_s10_matching_scaling_curve(benchmark, experiment_table, tmp_path):
    """Per-n curve of the forbid-policy matching leg."""
    def run():
        rows = []
        for n, m in CURVE:
            path = edges_file(tmp_path, n, m)
            got = _run_leg("file", path)
            assert got["materializations"] == 0
            rows.append({
                "n": n, "m": got["m"],
                "file_s": round(got["time_s"], 3),
                "passes": got["passes"],
                "matched_edges": got["matched_edges"],
                "certified_ratio": round(got["certified_ratio"], 4),
                "peak_rss_mb": mb(got["peak_rss_bytes"]),
                "ledger_peak_words": got["ledger_peak_words"],
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_table(
        "S10 out-of-core matching scaling (forbid policy, k=1)",
        ["n", "m", "time (s)", "passes", "matched", "ratio", "peak RSS"],
        [[r["n"], r["m"], f"{r['file_s']:.1f}", r["passes"],
          r["matched_edges"], f"{r['certified_ratio']:.2f}",
          f"{r['peak_rss_mb']:.0f}M"] for r in rows],
    )
    benchmark.extra_info["rows"] = rows
    record("BENCH_scaling.json", "outofcore_matching", rows)
    assert all(r["matched_edges"] > 0 for r in rows)


def test_s10_matching_large(benchmark, experiment_table, tmp_path):
    """n=131072, m=2^20: certified matching end-to-end from disk,
    never materialized, digest-identical to the in-RAM baseline."""
    def run():
        path = edges_file(tmp_path, LARGE_N, LARGE_M)
        got = _run_leg("file", path)
        got_r = _run_leg("ram", path)
        got["file_bytes"] = path.stat().st_size
        got["ram_digest"] = got_r["digest"]
        return got

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    assert got["digest"] == got["ram_digest"], "large-n matching diverged"
    row = {
        "n": got["n"], "m": got["m"],
        "chunk_edges": CHUNK_EDGES, "sparsifier_k": SPARSIFIER_K,
        "time_s": round(got["time_s"], 2),
        "passes": got["passes"], "rounds": got["rounds"],
        "matched_edges": got["matched_edges"],
        "certified_ratio": round(got["certified_ratio"], 4),
        "materializations": got["materializations"],
        "peak_rss_mb": mb(got["peak_rss_bytes"]),
        "file_mb": mb(got["file_bytes"]),
        "digest": got["digest"],
    }
    experiment_table(
        "S10 large out-of-core matching (n=131072, m=2^20)",
        ["n", "m", "time (s)", "passes", "matched", "ratio", "peak RSS", "file"],
        [[row["n"], row["m"], f"{row['time_s']:.1f}", row["passes"],
          row["matched_edges"], f"{row['certified_ratio']:.2f}",
          f"{row['peak_rss_mb']:.0f}M", f"{row['file_mb']:.0f}M"]],
    )
    benchmark.extra_info["row"] = row
    record("BENCH_outofcore.json", "matching_large", row)
    assert got["n"] >= 10**5 and got["m"] >= 10**6
    assert got["materializations"] == 0
    assert got["matched_edges"] > 0


def test_s10_outofcore_matching_smoke(benchmark, tmp_path):
    """CI smoke: file-vs-RAM matching+certificate digest parity at
    n=512 under ``materialize_policy="forbid"``, zero materializations,
    one audited pass per sampling round."""
    n = 512

    def run():
        path = edges_file(tmp_path, n, 8 * n)
        return _run_leg("file", path), _run_leg("ram", path)

    got_f, got_r = benchmark.pedantic(run, rounds=1, iterations=1)
    assert got_f["digest"] == got_r["digest"]
    assert got_f["materializations"] == 0
    assert got_r["materializations"] == 1  # the baseline's explicit load
    assert got_f["matched_edges"] == got_r["matched_edges"] > 0
    assert got_f["passes"] == got_f["rounds"] > 0
    assert got_f["edges_streamed"] == got_f["passes"] * got_f["m"]
