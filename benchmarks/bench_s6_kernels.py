"""S6: compiled kernel layer vs the numpy reference (repro.kernels).

Measures the hot paths the kernel layer accelerates, each in a fresh
subprocess per backend (``REPRO_KERNELS`` binds the dispatch at import
time, so the backend cannot be switched in-process):

- s1-style sketch build: ``VertexIncidenceSketch`` construction at
  n=256, t=8, repetitions=4 (the fused ingest + Mersenne kernels).
- s2-style solver batch: 8-instance ``solve_many`` lockstep at n=256,
  eps=0.2 (the fused dual-primal inner-tick + oracle kernels).  eps=0.2
  is the kernel-bound regime: per-tick work dominates; the historical
  s2 mix (n=64, eps=0.3) is recorded informationally below -- there the
  shared numpy costs (``np.exp``, result assembly) bound the ratio
  near 2x regardless of kernel speed.
- default-config harvest: ``max_weight_bmatching_exact`` (Algorithm 2
  step 5 under ``offline="exact"``) on G(384, 3072) with b = 1 and on a
  power-law graph at n=384 with b in {1, 2, 3} (the ``blossom_mates``
  kernel against networkx).

Every workload hashes its results; the digests must be identical
across backends (bit-parity end to end, not just fast).  Timings are
best-of-N inside each subprocess to shave scheduler noise.

Writes ``benchmarks/BENCH_kernels.json`` under ``BENCH_RECORD=1``.
Acceptance gates: >= 3x native-over-numpy on the sketch and solver
workloads, >= 20x on the harvest.  CI runs only ``test_s6_kernels_smoke``.
"""

from harness import native_available, record, require_native, run_worker

SKETCH_CFG = {"workload": "sketch", "sketch_n": 256, "t": 8, "reps": 4, "repeats": 3}
SOLVER_CFG = {
    "workload": "solver", "solver_n": 256, "batch": 8, "eps": 0.2,
    "inner_steps": 600, "repeats": 2,
}
SMALL_MIX_CFG = {
    "workload": "solver", "solver_n": 64, "batch": 8, "eps": 0.3,
    "inner_steps": 600, "repeats": 2,
}
HARVEST_CFG = {"workload": "harvest", "harvest_n": 384, "repeats": 3}
SMOKE_CFG = {
    "workload": "all", "sketch_n": 128, "t": 4, "reps": 2,
    "solver_n": 48, "batch": 2, "eps": 0.3, "inner_steps": 60,
    "harvest_n": 24, "repeats": 1,
}

_WORKER = r"""
import hashlib, json, sys, time
import numpy as np

cfg = json.loads(sys.argv[1])
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.sketch.graph_sketch import VertexIncidenceSketch
from repro.core.matching_solver import DualPrimalMatchingSolver
import repro.kernels as K

h = hashlib.sha256()
out = {"backend": K.backend()}

if cfg["workload"] in ("sketch", "all"):
    n, t, reps = cfg["sketch_n"], cfg["t"], cfg["reps"]
    g = gnm_graph(n, 4 * n, seed=n)
    VertexIncidenceSketch(g, t=1, seed=1, repetitions=1)  # warm
    best = float("inf")
    for _ in range(cfg["repeats"]):
        t0 = time.perf_counter()
        sk = VertexIncidenceSketch(g, t=t, seed=1, repetitions=reps)
        best = min(best, time.perf_counter() - t0)
    comp = np.arange(n // 2)
    for r in range(t):
        h.update(repr(sk.sample_cut_edge(comp, r)).encode())
    out["sketch_build_s"] = best

if cfg["workload"] in ("solver", "all"):
    n, batch = cfg["solver_n"], cfg["batch"]
    graphs = [
        with_uniform_weights(gnm_graph(n, 4 * n, seed=s), 1.0, 50.0, seed=s + 100)
        for s in range(batch)
    ]
    kw = dict(eps=cfg["eps"], inner_steps=cfg["inner_steps"],
              round_cap_factor=0.3, target_gap=0.0001, offline="local")
    warm = DualPrimalMatchingSolver(**{**kw, "inner_steps": 60})
    warm.solve_many(graphs[:2], seeds=[0, 1])
    best = float("inf")
    for _ in range(cfg["repeats"]):
        t0 = time.perf_counter()
        results = DualPrimalMatchingSolver(**kw).solve_many(
            graphs, seeds=list(range(batch))
        )
        best = min(best, time.perf_counter() - t0)
    for res in results:
        h.update(repr((res.weight, res.matching.edge_ids.tolist())).encode())
        h.update(repr((res.certificate.upper_bound, res.history)).encode())
    out["solver_batch_s"] = best

if cfg["workload"] in ("harvest", "all"):
    from repro.graphgen import power_law_graph, with_exponential_weights, with_random_capacities
    from repro.matching.exact import max_weight_bmatching_exact

    n = cfg["harvest_n"]
    graphs = [
        with_uniform_weights(gnm_graph(n, 8 * n, seed=n), 1.0, 100.0, seed=n + 1),
        with_random_capacities(
            with_exponential_weights(power_law_graph(n, seed=n + 2), seed=n + 3),
            1, 3, seed=n + 4,
        ),
    ]
    max_weight_bmatching_exact(graphs[0].edge_subgraph(np.arange(4)))  # warm
    best = float("inf")
    for _ in range(cfg["repeats"]):
        t0 = time.perf_counter()
        matchings = [max_weight_bmatching_exact(g) for g in graphs]
        best = min(best, time.perf_counter() - t0)
    for mt in matchings:
        h.update(repr((mt.edge_ids.tolist(), mt.multiplicity.tolist())).encode())
    out["harvest_s"] = best

out["digest"] = h.hexdigest()
print(json.dumps(out))
"""


def _both(cfg: dict) -> tuple[dict, dict]:
    """Run ``cfg`` on the numpy and the native backend; digests must agree."""
    r_np = run_worker(_WORKER, cfg, kernels="numpy")
    r_c = run_worker(_WORKER, cfg, kernels="native")
    assert r_np["digest"] == r_c["digest"], "backend digests diverged"
    return r_np, r_c


def test_s6_sketch_kernels(benchmark, experiment_table):
    """Gate: >= 3x sketch build (measured ~50-100x: the Mersenne chain
    collapses from dozens of full-array numpy passes to one C loop)."""
    require_native()
    r_np, r_c = benchmark.pedantic(_both, (SKETCH_CFG,), rounds=1, iterations=1)
    speedup = r_np["sketch_build_s"] / r_c["sketch_build_s"]
    experiment_table(
        "S6 sketch build kernels (n=256, t=8, reps=4)",
        ["numpy (s)", "native (s)", "speedup", "digest equal"],
        [[f"{r_np['sketch_build_s']:.3f}", f"{r_c['sketch_build_s']:.3f}",
          f"{speedup:.1f}x", "yes"]],
    )
    payload = {
        **{k: v for k, v in SKETCH_CFG.items() if k != "workload"},
        "numpy_build_s": round(r_np["sketch_build_s"], 4),
        "native_build_s": round(r_c["sketch_build_s"], 4),
        "speedup": round(speedup, 1),
        "digest_equal": True,
    }
    benchmark.extra_info.update(payload)
    record("BENCH_kernels.json", "sketch_build_n256", payload)
    assert speedup >= 3.0


def test_s6_solver_kernels(benchmark, experiment_table):
    """Gate: >= 3x solver batch in the kernel-bound regime (eps=0.2).

    Two interleaved subprocess rounds per backend, best time of each:
    this machine's scheduler noise comes in multi-second slow windows,
    and a single subprocess (even with best-of-N inside) can land
    entirely within one.  Digests must agree across *all* runs.
    """
    require_native()

    def run():
        rounds = [_both(SOLVER_CFG) for _ in range(2)]
        assert rounds[0][0]["digest"] == rounds[1][0]["digest"], "digests diverged"
        return (
            {"solver_batch_s": min(r[0]["solver_batch_s"] for r in rounds),
             "digest": rounds[0][0]["digest"]},
            {"solver_batch_s": min(r[1]["solver_batch_s"] for r in rounds),
             "digest": rounds[0][1]["digest"]},
        )

    r_np, r_c = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = r_np["solver_batch_s"] / r_c["solver_batch_s"]
    experiment_table(
        "S6 solver batch kernels (n=256, batch=8, eps=0.2)",
        ["numpy (s)", "native (s)", "speedup", "digest equal"],
        [[f"{r_np['solver_batch_s']:.2f}", f"{r_c['solver_batch_s']:.2f}",
          f"{speedup:.1f}x", "yes"]],
    )
    payload = {
        **{k: v for k, v in SOLVER_CFG.items() if k != "workload"},
        "numpy_solve_s": round(r_np["solver_batch_s"], 3),
        "native_solve_s": round(r_c["solver_batch_s"], 3),
        "speedup": round(speedup, 1),
        "digest_equal": True,
    }
    benchmark.extra_info.update(payload)
    record("BENCH_kernels.json", "solver_batch_n256_eps02", payload)
    assert speedup >= 3.0


def test_s6_solver_small_mix(benchmark, experiment_table):
    """The historical s2 mix (n=64, eps=0.3), recorded informationally.

    No speedup gate: at this size the backends share ~60% of the wall
    clock (``np.exp``, per-member Python control flow, result assembly),
    which bounds any kernel speedup near 2x.  Digest parity still gates.
    """
    require_native()
    r_np, r_c = benchmark.pedantic(_both, (SMALL_MIX_CFG,), rounds=1, iterations=1)
    speedup = r_np["solver_batch_s"] / r_c["solver_batch_s"]
    experiment_table(
        "S6 solver small mix (n=64, batch=8, eps=0.3) -- informational",
        ["numpy (s)", "native (s)", "speedup"],
        [[f"{r_np['solver_batch_s']:.2f}", f"{r_c['solver_batch_s']:.2f}",
          f"{speedup:.1f}x"]],
    )
    payload = {
        **{k: v for k, v in SMALL_MIX_CFG.items() if k != "workload"},
        "numpy_solve_s": round(r_np["solver_batch_s"], 3),
        "native_solve_s": round(r_c["solver_batch_s"], 3),
        "speedup": round(speedup, 1),
        "digest_equal": True,
        "gated": False,
    }
    benchmark.extra_info.update(payload)
    record("BENCH_kernels.json", "solver_batch_n64_eps03_informational", payload)


def test_s6_harvest_kernel(benchmark, experiment_table):
    """Gate: >= 20x default-config harvest (the C blossom against
    networkx; recorded 124x on a 2-core host, 3.73 s vs 0.030 s)."""
    require_native()
    r_np, r_c = benchmark.pedantic(_both, (HARVEST_CFG,), rounds=1, iterations=1)
    speedup = r_np["harvest_s"] / r_c["harvest_s"]
    experiment_table(
        "S6 default-config harvest (n=384: G(n, 8n) b=1 + power law b in 1..3)",
        ["numpy (s)", "native (s)", "speedup", "digest equal"],
        [[f"{r_np['harvest_s']:.3f}", f"{r_c['harvest_s']:.4f}",
          f"{speedup:.1f}x", "yes"]],
    )
    payload = {
        **{k: v for k, v in HARVEST_CFG.items() if k != "workload"},
        "numpy_harvest_s": round(r_np["harvest_s"], 4),
        "native_harvest_s": round(r_c["harvest_s"], 4),
        "speedup": round(speedup, 1),
        "digest_equal": True,
    }
    benchmark.extra_info.update(payload)
    record("BENCH_kernels.json", "harvest_n384", payload)
    assert speedup >= 20.0


def test_s6_kernels_smoke(benchmark):
    """CI smoke: both backends run the tiny mixed workload, digests equal.

    Falls back to a numpy-only sanity run where the native backend
    cannot build (the fallback itself is under test elsewhere).
    """
    def run():
        if native_available():
            return _both(SMOKE_CFG)[0]
        return run_worker(_WORKER, SMOKE_CFG, kernels="numpy")

    r_np = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(r_np["digest"]) == 64
