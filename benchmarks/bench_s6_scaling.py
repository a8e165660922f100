"""S6: per-n scaling curves with the kernel layer on and off.

Sweeps instance size for the two kernel-served hot paths -- sketch
build (``VertexIncidenceSketch``, m = 4n) and a single-instance solve
-- on both backends, one subprocess per (backend, n) point
(``REPRO_KERNELS`` binds at import).  The curves show where the
compiled layer pays: the sketch ratio is large and flat (the Mersenne
chain is kernel-bound at every size), while the solver ratio grows
with n as per-tick array work overtakes the shared Python/``np.exp``
floor.

Per-point results hash to a digest that must match across backends.
Times are single-shot per point (the curve is descriptive; the gated
ratio measurements live in ``bench_s6_kernels.py``).

Writes ``benchmarks/BENCH_scaling.json`` under ``BENCH_RECORD=1``.
CI runs only ``test_s6_scaling_smoke``.
"""

from harness import native_available, record, require_native, run_worker

SKETCH_NS = [256, 512, 1024, 2048, 4096, 8192]
SOLVE_NS = [256, 512, 1024, 2048, 4096, 8192]
SOLVE_KW = {"eps": 0.3, "inner_steps": 120, "round_cap_factor": 0.3,
            "target_gap": 0.001, "offline": "local"}

_WORKER = r"""
import hashlib, json, sys, time
import numpy as np

cfg = json.loads(sys.argv[1])
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.sketch.graph_sketch import VertexIncidenceSketch
from repro.core.matching_solver import DualPrimalMatchingSolver
import repro.kernels as K

h = hashlib.sha256()
out = {"backend": K.backend(), "n": cfg["n"]}
n = cfg["n"]

if cfg["workload"] == "sketch":
    g = gnm_graph(n, 4 * n, seed=17)
    VertexIncidenceSketch(g, t=1, seed=1, repetitions=1)  # warm
    t0 = time.perf_counter()
    sk = VertexIncidenceSketch(g, t=4, seed=1, repetitions=3)
    out["sketch_build_s"] = time.perf_counter() - t0
    comp = np.arange(n // 2)
    for r in range(4):
        h.update(repr(sk.sample_cut_edge(comp, r)).encode())

if cfg["workload"] == "solve":
    g = with_uniform_weights(gnm_graph(n, 4 * n, seed=23), 1.0, 50.0, seed=29)
    warm = with_uniform_weights(gnm_graph(32, 64, seed=5), 1.0, 5.0, seed=6)
    DualPrimalMatchingSolver(seed=1, **{**cfg["kw"], "inner_steps": 40}).solve(warm)
    t0 = time.perf_counter()
    res = DualPrimalMatchingSolver(seed=3, **cfg["kw"]).solve(g)
    out["solve_s"] = time.perf_counter() - t0
    h.update(repr((res.weight, res.matching.edge_ids.tolist())).encode())
    h.update(repr((res.certificate.upper_bound, res.history)).encode())

out["digest"] = h.hexdigest()
print(json.dumps(out))
"""


def _curve(workload: str, ns: list[int], time_key: str) -> list[dict]:
    rows = []
    for n in ns:
        cfg = {"workload": workload, "n": n, "kw": SOLVE_KW}
        r_np = run_worker(_WORKER, cfg, kernels="numpy")
        r_c = run_worker(_WORKER, cfg, kernels="native")
        assert r_np["digest"] == r_c["digest"], f"{workload} n={n}: digests diverged"
        rows.append({
            "n": n,
            "numpy_s": round(r_np[time_key], 4),
            "native_s": round(r_c[time_key], 4),
            "speedup": round(r_np[time_key] / r_c[time_key], 2),
        })
    return rows


def test_s6_scaling_sketch(benchmark, experiment_table):
    require_native()
    rows = benchmark.pedantic(
        lambda: _curve("sketch", SKETCH_NS, "sketch_build_s"), rounds=1, iterations=1
    )
    experiment_table(
        "S6 scaling: sketch build (t=4, reps=3, m=4n)",
        ["n", "numpy (s)", "native (s)", "speedup"],
        [[r["n"], f"{r['numpy_s']:.3f}", f"{r['native_s']:.3f}", f"{r['speedup']:.1f}x"]
         for r in rows],
    )
    benchmark.extra_info["curve"] = rows
    record("BENCH_scaling.json", "sketch_build", rows)
    # the kernel-bound path keeps a wide margin at every size
    assert all(r["speedup"] >= 3.0 for r in rows)


def test_s6_scaling_solve(benchmark, experiment_table):
    require_native()
    rows = benchmark.pedantic(
        lambda: _curve("solve", SOLVE_NS, "solve_s"), rounds=1, iterations=1
    )
    experiment_table(
        "S6 scaling: single solve (eps=0.3, inner_steps=120, m=4n)",
        ["n", "numpy (s)", "native (s)", "speedup"],
        [[r["n"], f"{r['numpy_s']:.2f}", f"{r['native_s']:.2f}", f"{r['speedup']:.1f}x"]
         for r in rows],
    )
    benchmark.extra_info["curve"] = rows
    record("BENCH_scaling.json", "single_solve", rows)
    # descriptive curve: digest parity asserted per point in _curve;
    # the shared-cost floor keeps small-n ratios near 1, so no ratio gate


def test_s6_scaling_smoke(benchmark):
    """CI smoke: the smallest point of each curve, digest parity."""
    def run():
        out = {}
        for workload in ("sketch", "solve"):
            cfg = {"workload": workload, "n": 256, "kw": SOLVE_KW}
            out[workload] = run_worker(_WORKER, cfg, kernels="numpy")
            if native_available():
                r_c = run_worker(_WORKER, cfg, kernels="native")
                assert out[workload]["digest"] == r_c["digest"]
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert set(out) == {"sketch", "solve"}
