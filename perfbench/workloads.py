"""The benchmark's three workloads: inputs, timed loops and output checks.

Each workload puts a different layer on the critical path:

* ``solve_default`` -- the call a library user makes: sequential
  in-process ``run(Problem(g, SolverConfig(eps=0.2, seed=s)), "offline")``
  with every other field at its default (``offline="exact"``).  The
  only workload where the networkx blossom harvest dominates.
* ``serve_mix`` -- ``python -m repro.server --pool process --workers 2``
  driven by a closed loop over two connections: small ``offline``
  matchings, exact repeats (served by the cache or the coalescer) and
  ``semi_streaming`` spanning forests.  The front end, codec/shared
  memory, service batching/cache and the lockstep engine do the work;
  the blossom is bypassed (``offline="local"``).
* ``outofcore_solve`` -- certified matching straight from a weighted
  ``.edges`` file under ``materialize_policy="forbid"``: one stream pass
  per sampling round, O(n + chunk) memory.  The only workload where
  ``repro.ingest`` and the streaming chain carry the cost.

Every input derives from the workload seed; the library sees only the
generated inputs.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.api import Problem, run
from repro.core.matching_solver import SolverConfig
from repro.graphgen import (
    gnm_graph,
    power_law_graph,
    with_exponential_weights,
    with_random_capacities,
    with_uniform_weights,
)
from repro.graphgen.ondisk import generate_gnm_file
from repro.ingest import materializations_total
from repro.matching.verify import verify_dual_upper_bound
from repro.obs import Span
from repro.server import AsyncServeClient, RequestRejected, ServerError, result_digest
from repro.util.instrumentation import peak_rss_bytes, percentile

from hostspeed import HostMonitor, SpeedLog
from layers import LayerTracer, span_self_ms, top_level_ms

#: Instance sizes.  ``tiny`` runs the same code paths in a second or
#: two (the smoke tests); ``full`` is what the benchmark measures.
SIZES = {
    "full": {
        # at n=192 the blossom harvest is ~55% of a solve (52% at n=176,
        # ~45% at n=160).  A power-law b-matching takes 2.1-4.1 s with
        # the seed, a G(n,m) 2.1-2.5 s; four of each, solved once, is
        # one ~20 s cycle that averages the seed out (ten-seed spread of
        # solve_s 0.07-0.19; three of each: 0.27)
        "solve_default": {"n": 192, "m_per_n": 8, "per_family": 4},
        "outofcore_solve": {"n": 1024, "m": 1 << 14},
        "serve_mix": {
            "sizes": (64, 128, 256), "inflight": 8, "connections": 2,
            # p95 is reported only with at least 10 samples beyond it
            "min_tail": 10,
        },
    },
    "tiny": {
        "solve_default": {"n": 24, "m_per_n": 4, "per_family": 1},
        "outofcore_solve": {"n": 128, "m": 512},
        "serve_mix": {"sizes": (16, 32), "inflight": 2, "connections": 2, "min_tail": 0},
    },
}

#: One block of the request mix, shuffled per block: 1/4 exact repeats,
#: 1/8 spanning forests, the rest matchings.  Fixed shares per block
#: keep the mix, hence the work per request, the same on every seed.
MIX_BLOCK = ("repeat", "repeat", "spanning_forest") + ("matching",) * 5
#: Distinct matchings whose sampling rounds are summed (serve_mix).
ROUNDS_SAMPLE = 128
#: serve_mix: share of the loop at its start whose requests are left
#: out of the timings (fixed in advance, never chosen from the results).
WARMUP_SHARE = 0.1
#: serve_mix sends a request list fixed at setup, sized for this rate;
#: a loop that gets through all of it stops early.
MAX_RPS = 60
#: Served requests whose digests are re-computed in process.
REFERENCE_MATCHINGS = 6
REFERENCE_FORESTS = 2
#: Time a phase may overrun its deadline while in-flight requests drain.
PHASE_GRACE_S = 120.0
#: Generator-side codec calls (serve_mix), wrapped where the client
#: looks them up.
CODEC_LAYERS = {
    "codec.encode": [("repro.server.client", "encode_problem")],
    "codec.decode": [
        ("repro.server.client", "decode_result"),
        ("repro.server.client", "result_digest"),
    ],
}


def vmhwm_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    pids: list[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as fh:
            pids.extend(int(p) for p in fh.read().split())
    return pids


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: end-to-end metrics (tracing off): name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    #: per-layer metrics (tracing on): name -> (value, unit)
    layers: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.errors.append(why)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def matching_errors(result, graph) -> list[str]:
    """Feasibility of the matching and re-verification of its certificate."""
    errors = []
    try:
        result.matching.check_valid()
    except ValueError as exc:
        errors.append(f"infeasible matching: {exc}")
    cert = result.certificate
    if cert is None:
        return errors + ["matching result carries no certificate"]
    try:
        bound = verify_dual_upper_bound(graph, cert.x, cert.z)
    except AssertionError as exc:  # the verifier's infeasibility signal
        return errors + [f"certificate does not verify: {exc}"]
    if not math.isclose(bound, cert.upper_bound, rel_tol=1e-12, abs_tol=1e-12):
        errors.append(
            f"certificate bound {cert.upper_bound!r} re-verifies as {bound!r}"
        )
    if not result.certified_ratio > 0.0:
        errors.append(f"certified ratio {result.certified_ratio!r} is not positive")
    return errors


def forest_errors(forest, graph) -> list[str]:
    """Forest edges are graph edges, acyclic, and n - components in number."""
    n = graph.n
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
    for u, v in forest:
        if (min(u, v), max(u, v)) not in edges:
            return [f"forest edge ({u},{v}) is not a graph edge"]
        ru, rv = find(u), find(v)
        if ru == rv:
            return [f"forest edge ({u},{v}) closes a cycle"]
        parent[ru] = rv
    for u, v in edges:
        parent[find(u)] = find(v)
    components = len({find(v) for v in range(n)})
    if len(forest) != n - components:
        return [f"forest has {len(forest)} edges, expected {n - components}"]
    return []


# ----------------------------------------------------------------------
# In-process workloads: solve_default and outofcore_solve
# ----------------------------------------------------------------------
@dataclass
class Case:
    name: str
    make_problem: object  # () -> Problem, built outside the timed call
    backend: str
    graph: object  # the graph the checks run against


class InProcessWorkload:
    """Sequential ``run()`` calls over a fixed set of cases.

    One *cycle* solves every case once.  Cycles repeat while the next one
    is expected to end within the time, and at least once; when tracing,
    cycles alternate untraced / traced, at least one of each.

    Each call's wall time is scaled to the reference host by the host
    monitor's probes taken during it (``hostspeed``), and each case's
    time is the median of its scaled solves.

    Latency here is per sampling round -- the paper's unit of access to
    the data -- so its percentiles over a handful of instances do not
    swing with how many rounds each instance happens to need (9-15 on
    solve_default): the percentiles of per-call time did (IQR/median
    0.32 for p95 over ten seeds, against 0.22 per round).
    """

    out_of_core = False

    def __init__(self, cases: list[Case]):
        self.cases = cases

    def close(self) -> None:
        pass

    def _cycles(self, seconds: float, tracer: LayerTracer | None, monitor: HostMonitor):
        # (case index, wall s, scaled s, traced, result or exception)
        spans = []
        start = time.monotonic()
        for cycle in itertools.count():
            traced = tracer is not None and cycle % 2 == 1
            cycle_start = time.monotonic()
            with tracer.installed() if traced else contextlib.nullcontext():
                for i, case in enumerate(self.cases):
                    problem = case.make_problem()
                    frame = tracer.root() if traced else contextlib.nullcontext()
                    t0 = time.monotonic()
                    try:
                        with frame:
                            result = run(problem, case.backend)
                    except Exception as exc:  # counted, reported, run goes on
                        result = exc
                    spans.append((i, t0, time.monotonic(), traced, result))
            took = time.monotonic() - cycle_start
            last = cycle >= (1 if tracer else 0)
            if last and time.monotonic() - start + took > seconds:
                break
        speeds = monitor.speeds()
        return [
            (i, t1 - t0, (t1 - t0) / speeds.slowdown(t0, t1), traced, result)
            for i, t0, t1, traced, result in spans
        ]

    def _median(self, calls, traced: bool, scaled: bool = True) -> list[float]:
        """Each case's median solve time among the (un)traced cycles."""
        times: list[list[float]] = [[] for _ in self.cases]
        for i, wall_s, scaled_s, t, _result in calls:
            if t == traced:
                times[i].append(scaled_s if scaled else wall_s)
        return [statistics.median(ts) for ts in times]

    def _check(self, calls, out: Outcome) -> dict[int, object]:
        """Checks every case; returns each case's first good result."""
        first: dict[int, object] = {}
        by_case: dict[int, list] = {}
        for i, _dt, _scaled, _traced, result in calls:
            by_case.setdefault(i, []).append(result)
        for i, results in by_case.items():
            case = self.cases[i]
            raised = [r for r in results if isinstance(r, Exception)]
            if raised:
                out.fail(len(results), f"{case.name}: run() raised {raised[0]!r}")
                continue
            errors = matching_errors(results[0], case.graph)
            if self.out_of_core:
                errors += self._passes_errors(results[0])
            digests = {result_digest(r) for r in results}
            if len(digests) != 1:
                errors.append(f"{len(digests)} distinct digests over repeated solves")
            if errors:
                out.fail(len(results), f"{case.name}: " + "; ".join(errors))
            else:
                first[i] = results[0]
        return first

    @staticmethod
    def _passes_errors(result) -> list[str]:
        # one stream pass per outer round (the ledger's sampling rounds
        # also count the initial-solution block, which is not a pass)
        if result.ledger.passes != result.raw.rounds:
            return [f"passes={result.ledger.passes} != rounds={result.raw.rounds}"]
        return []

    def measure(self, seconds: float, trace: bool, monitor: HostMonitor) -> Outcome:
        out = Outcome()
        tracer = LayerTracer() if trace else None
        mat0 = materializations_total()
        calls = self._cycles(seconds, tracer, monitor)
        materialized = materializations_total() - mat0
        out.attempted = len(calls)
        if materialized:
            out.fail(len(calls), f"{materialized} graph materializations")
        first = self._check(calls, out)
        if trace:
            self._layer_metrics(out, calls, tracer, first, materialized)
            return out
        best = self._median(calls, traced=False)
        ratios = [r.certified_ratio for r in first.values()]
        per_round_ms = [best[i] / r.ledger.rounds * 1e3 for i, r in first.items()] or [0.0]
        out.metrics = {
            "solve_s": (sum(best), "s"),
            "throughput_rps": (len(best) / sum(best), "req/s"),
            "latency_p50_ms": (percentile(per_round_ms, 50), "ms"),
            "latency_p95_ms": (percentile(per_round_ms, 95), "ms"),
            "certified_ratio_min": (min(ratios) if ratios else 0.0, "ratio"),
            "sampling_rounds": (
                sum(r.ledger.rounds for r in first.values()), "count"
            ),
            "peak_rss_mb": (peak_rss_bytes() / 1e6, "MB"),
        }
        out.notes.append(
            f"{len(calls)} run() calls over {len(calls) // len(self.cases)} cycles; "
            f"median scaled per case (s): {', '.join(f'{t:.3f}' for t in best)}; "
            f"median wall (s): {', '.join(f'{t:.3f}' for t in self._median(calls, False, scaled=False))}; "
            f"per round (ms): {', '.join(f'{t:.1f}' for t in per_round_ms)}"
        )
        return out

    def _layer_metrics(self, out, calls, tracer, first, materialized):
        traced_calls = [dt for _i, dt, _s, traced, _r in calls if traced]
        traced_cycles = len(traced_calls) // len(self.cases)
        layers = tracer.metrics(traced_cycles)
        plain, traced = self._median(calls, False), self._median(calls, True)
        results = list(first.values())
        layers.update(
            {
                "core.inner_steps": (
                    sum(r.ledger.refinement_steps for r in results), "count"
                ),
                "streaming.passes": (
                    sum(r.ledger.passes or 0 for r in results), "count"
                ),
                "streaming.edges_streamed": (
                    sum(r.ledger.edges_streamed for r in results), "count"
                ),
                "ingest.materializations": (float(materialized), "count"),
                "trace.overhead": (sum(traced) / sum(plain), "ratio"),
                "trace.tiling": (tracer.total_self_s() / sum(traced_calls), "ratio"),
            }
        )
        out.layers = layers
        out.notes.append(
            f"{traced_cycles} traced cycles; median traced {sum(traced):.3f} s "
            f"vs untraced {sum(plain):.3f} s"
        )


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def setup_solve_default(seed: int, size: str) -> InProcessWorkload:
    p = SIZES[size]["solve_default"]
    n = p["n"]
    config = SolverConfig(eps=0.2, seed=seed)
    cases = []
    for j in range(p["per_family"]):
        s = _seeds(seed, j + 1, 5)
        gnm = with_uniform_weights(
            gnm_graph(n, p["m_per_n"] * n, seed=s[0]), 1.0, 100.0, seed=s[1]
        )
        # b-matching: the harvest runs through the vertex-split reduction
        powerlaw = with_random_capacities(
            with_exponential_weights(power_law_graph(n, seed=s[2]), seed=s[3]),
            1, 3, seed=s[4],
        )
        for name, g in ((f"gnm{j}", gnm), (f"powerlaw_b{j}", powerlaw)):
            cases.append(
                Case(name, lambda g=g: Problem(g.copy(), config), "offline", g)
            )
    return InProcessWorkload(cases)


class OutOfCoreWorkload(InProcessWorkload):
    out_of_core = True

    def __init__(self, path: Path, config: SolverConfig):
        self.path = path
        make = lambda: Problem.from_edge_file(  # noqa: E731
            path, config=config, materialize_policy="forbid"
        )
        super().__init__([Case("gnm_file", make, "semi_streaming", make().graph)])

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


def setup_outofcore_solve(seed: int, size: str, scratch: Path) -> OutOfCoreWorkload:
    p = SIZES[size]["outofcore_solve"]
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / f"outofcore-{os.getpid()}.edges"
    generate_gnm_file(path, p["n"], p["m"], seed=seed, weights=(1.0, 100.0))
    return OutOfCoreWorkload(path, SolverConfig(eps=0.3, offline="local", seed=seed))


# ----------------------------------------------------------------------
# serve_mix: the server CLI under a closed loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Spec:
    """One request of the mix; repeats share their original's ``key``."""

    key: int
    task: str  # "matching" | "spanning_forest"
    n: int
    seed: int

    @property
    def backend(self) -> str:
        return "offline" if self.task == "matching" else "semi_streaming"


def request_specs(seed: int, sizes: tuple[int, ...]) -> Iterator[Spec]:
    """The endless request sequence.  Positions of repeats and forests,
    which earlier request a repeat copies, and every instance are drawn
    from ``seed``; sizes cycle through shuffled rounds of ``sizes``."""
    rng = np.random.default_rng([seed, 2])
    originals: list[Spec] = []
    size_queue: list[int] = []
    while True:
        for kind in rng.permutation(MIX_BLOCK).tolist():
            if kind == "repeat" and originals:
                yield originals[int(rng.integers(len(originals)))]
                continue
            if not size_queue:
                size_queue = rng.permutation(sizes).tolist()
            task = "matching" if kind == "repeat" else kind
            spec = Spec(len(originals), task, size_queue.pop(), int(rng.integers(2**31 - 1)))
            originals.append(spec)
            yield spec


def build_problem(spec: Spec) -> Problem:
    if spec.task == "matching":
        g = with_uniform_weights(
            gnm_graph(spec.n, 4 * spec.n, seed=spec.seed), 1.0, 100.0,
            seed=spec.seed + 1,
        )
        return Problem(g, SolverConfig(eps=0.3, offline="local", seed=spec.seed))
    # sparse (m = n), so forests have several components to get right
    g = gnm_graph(spec.n, spec.n, seed=spec.seed)
    return Problem(g, SolverConfig(seed=spec.seed), task="spanning_forest")


class ServerProcess:
    """``python -m repro.server`` in its own process."""

    def __init__(self):
        cmd = [
            sys.executable, "-m", "repro.server", "--pool", "process",
            "--workers", "2", "--port", "0", "--metrics-port", "-1",
        ]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        try:
            self.port = self._read_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline().decode()
                if not line:
                    break
                if line.startswith("port="):
                    return int(line.split("=", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError("repro.server did not report its port")

    def peak_rss_bytes(self) -> int:
        """VmHWM of the server plus its worker processes."""
        pids = [self.proc.pid, *child_pids(self.proc.pid)]
        return sum(vmhwm_bytes(p) for p in pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Reply:
    spec: Spec
    sent_s: float  # seconds after the loop started
    done_s: float
    result: object = None
    info: dict | None = None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        return self.done_s - self.sent_s


# repr=False: on Python 3.11, asyncio.run formats its main task, result
# included, when it restores the SIGINT handler; a full repr of every
# reply's arrays took seconds after each phase.
@dataclass(repr=False)
class Phase:
    """One closed-loop phase: its replies, when it started
    (``time.monotonic()``), how long callers kept sending, and the
    ``stats`` op before and after."""

    replies: list[Reply]
    started: float
    sending_s: float
    before: dict
    after: dict

    def steady(self, speeds: SpeedLog) -> tuple[list[Reply], float, float]:
        """Good replies to the requests sent after the warm-up, the rate
        of completions from the warm-up to the end of sending, and the
        host's slowdown over that span."""
        warm = WARMUP_SHARE * self.sending_s
        ok = [r for r in self.replies if r.error is None]
        done = sum(1 for r in ok if warm <= r.done_s < self.sending_s)
        return (
            [r for r in ok if r.sent_s >= warm],
            done / (self.sending_s - warm),
            speeds.slowdown(self.started + warm, self.started + self.sending_s),
        )


class ServeWorkload:
    """A closed loop: ``inflight`` callers per connection, each waiting
    for its reply before sending the next request (as
    ``ServeClient.solve_many`` callers do).

    The request list, and every problem in it, is built at setup, sized
    for ``MAX_RPS`` over the run; the timed loop only sends.  Timings are
    taken over the whole loop after a warm-up of ``WARMUP_SHARE`` of it
    and scaled to the reference host by the host monitor's probes over
    that span: over ten seeds this cut the spread of throughput from
    0.16 to 0.07 (IQR/median).
    """

    def __init__(self, seed: int, size: str, seconds: float):
        p = SIZES[size]["serve_mix"]
        self.inflight = p["inflight"]
        self.connections = p["connections"]
        self.min_tail = p["min_tail"]
        self.specs = list(
            itertools.islice(request_specs(seed, p["sizes"]), math.ceil(seconds * MAX_RPS))
        )
        self.problems: dict[int, Problem] = {}
        for spec in self.specs:
            if spec.key not in self.problems:
                self.problems[spec.key] = build_problem(spec)
        self._unsent = iter(self.specs)
        self.server = ServerProcess()
        try:
            # both backends answer once per worker before timing starts
            warm = [Spec(-1 - i, task, min(p["sizes"]), seed + i) for i, task in
                    enumerate(("matching", "matching", "spanning_forest",
                               "spanning_forest"))]
            asyncio.run(self._warm([(build_problem(s), s.backend) for s in warm]))
        except BaseException:
            self.server.stop()
            raise

    def close(self) -> None:
        self.server.stop()

    async def _warm(self, requests) -> None:
        client = await AsyncServeClient.connect("127.0.0.1", self.server.port)
        try:
            await asyncio.gather(*(client.solve(*r) for r in requests))
        finally:
            await client.close()

    async def _phase(self, seconds: float, trace: bool) -> Phase:
        clients = [
            await AsyncServeClient.connect("127.0.0.1", self.server.port)
            for _ in range(self.connections)
        ]
        replies: list[Reply] = []
        sending_s = seconds
        try:
            before = await clients[0].stats()
            start = time.monotonic()
            deadline = start + seconds

            async def caller(client) -> None:
                nonlocal sending_s
                while time.monotonic() < deadline:
                    spec = next(self._unsent, None)
                    if spec is None:  # the request list ran out
                        sending_s = min(sending_s, time.monotonic() - start)
                        return
                    problem = self.problems[spec.key]
                    t0 = time.monotonic() - start
                    try:
                        result, info = await client.solve_with_info(
                            problem, spec.backend, trace=trace
                        )
                    except (RequestRejected, ServerError) as exc:
                        replies.append(Reply(spec, t0, time.monotonic() - start,
                                             error=repr(exc)))
                        continue
                    replies.append(
                        Reply(spec, t0, time.monotonic() - start, result, info)
                    )

            await asyncio.gather(
                *(caller(c) for c in clients for _ in range(self.inflight))
            )
            after = await clients[0].stats()
        finally:
            for c in clients:
                await c.close()
        return Phase(replies, start, sending_s, before, after)

    def _run_phase(self, seconds: float, trace: bool) -> Phase:
        # a stuck server fails the run instead of hanging it
        return asyncio.run(
            asyncio.wait_for(self._phase(seconds, trace), seconds + PHASE_GRACE_S)
        )

    def _check(self, replies: list[Reply], out: Outcome) -> dict[int, Reply]:
        """Checks every reply and re-solves the earliest requests of each
        kind (a sample fixed by the seed) in process.  Returns the first
        good reply per distinct request."""
        good: dict[int, Reply] = {}
        for r in replies:
            if r.error is not None:
                out.fail(1, f"request {r.spec.key}: {r.error}")
                continue
            graph = self.problems[r.spec.key].graph
            if r.spec.task == "matching":
                errors = matching_errors(r.result, graph)
            else:
                errors = forest_errors(r.result.forest, graph)
            if errors:
                out.fail(1, f"request {r.spec.key}: " + "; ".join(errors))
            else:
                good.setdefault(r.spec.key, r)
        sample: dict[int, Reply] = {}
        quota = {"matching": REFERENCE_MATCHINGS, "spanning_forest": REFERENCE_FORESTS}
        for key in sorted(good):
            task = good[key].spec.task
            if quota[task] > 0:
                quota[task] -= 1
                sample[key] = good[key]
        # outside the timed region and outside setup: in-process parity
        for key, r in sample.items():
            want = result_digest(run(self.problems[key], r.spec.backend))
            if r.info["digest"] != want:
                wrong = sum(1 for x in replies if x.spec.key == key and x.error is None)
                out.fail(wrong, f"request {key}: served digest differs from run()")
        return good

    def measure(self, seconds: float, trace: bool, monitor: HostMonitor) -> Outcome:
        out = Outcome()
        if trace:
            # untraced then traced half: the throughput ratio is the
            # tracing overhead
            plain = self._run_phase(seconds / 2, False)
            codec = LayerTracer()
            with codec.installed(CODEC_LAYERS, kernels=False):
                phase = self._run_phase(seconds / 2, True)
            out.attempted = len(plain.replies) + len(phase.replies)
            self._check(plain.replies + phase.replies, out)
            ok = [r for r in phase.replies if r.error is None]
            self._layer_metrics(out, ok, phase.before, phase.after, codec)
            speeds = monitor.speeds()
            (_, plain_rps, plain_slow), (_, rps, slow) = (
                plain.steady(speeds), phase.steady(speeds)
            )
            out.layers["trace.overhead"] = (plain_rps * plain_slow / (rps * slow), "ratio")
            return out
        phase = self._run_phase(seconds, False)
        replies = phase.replies
        out.attempted = len(replies)
        good = self._check(replies, out)
        speeds = monitor.speeds()
        steady, rps, slow = phase.steady(speeds)
        # each request's times scaled by the host's speed over its life
        slows = [
            speeds.slowdown(phase.started + r.sent_s, phase.started + r.done_s)
            for r in steady
        ]
        wall = [r.latency_s for r in steady]
        latencies = [t / s for t, s in zip(wall, slows)]
        p50, p95 = percentile(latencies, 50), percentile(latencies, 95)
        beyond = sum(1 for x in latencies if x > p95)
        if beyond < self.min_tail:
            out.fail(1, f"only {beyond} of {len(latencies)} latencies lie beyond p95")
        matchings = [r.result for r in replies if r.error is None and r.spec.task == "matching"]
        rounds_keys = sorted(k for k in good if good[k].spec.task == "matching")
        compute_s = [r.info["compute_ms"] / 1e3 for r in steady]
        out.metrics = {
            "solve_s": (statistics.mean(t / s for t, s in zip(compute_s, slows)), "s"),
            "throughput_rps": (rps * slow, "req/s"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_p95_ms": (p95 * 1e3, "ms"),
            "certified_ratio_min": (min(m.certified_ratio for m in matchings), "ratio"),
            "sampling_rounds": (
                sum(good[k].result.ledger.rounds for k in rounds_keys[:ROUNDS_SAMPLE]),
                "count",
            ),
            "peak_rss_mb": (self.server.peak_rss_bytes() / 1e6, "MB"),
        }
        repeats = len(replies) - len({r.spec.key for r in replies})
        forests = sum(1 for r in replies if r.spec.task != "matching")
        out.notes.append(
            f"{len(replies)} replies ({repeats} repeats, {forests} forests), sending for "
            f"{phase.sending_s:.1f} s of {seconds:g} s, closed loop "
            f"{self.connections}x{self.inflight} in flight; timings over the "
            f"{len(latencies)} requests sent after the first "
            f"{WARMUP_SHARE * phase.sending_s:.1f} s: {beyond} beyond p95"
        )
        out.notes.append(
            f"host slowdown {slow:.4f}; wall-clock "
            f"solve_s {statistics.mean(compute_s):.4f} throughput_rps {rps:.4f} "
            f"latency_p50_ms {percentile(wall, 50) * 1e3:.2f} "
            f"latency_p95_ms {percentile(wall, 95) * 1e3:.2f}"
        )
        return out

    def _layer_metrics(self, out, ok, before, after, codec) -> None:
        svc0, svc1 = before["service"], after["service"]
        srv0, srv1 = before["server"], after["server"]
        occ = {
            int(k): v - svc0["batch_occupancy"].get(k, 0)
            for k, v in svc1["batch_occupancy"].items()
        }
        batches = sum(occ.values())
        submitted = svc1["submitted"] - svc0["submitted"]
        deduped = (svc1["cache_hits"] - svc0["cache_hits"]) + (
            svc1["coalesced"] - svc0["coalesced"]
        )

        def stage_mean(name: str) -> float:
            a, b = srv0["stage_ms"][name], srv1["stage_ms"][name]
            count = b["count"] - a["count"]
            return (b["sum_ms"] - a["sum_ms"]) / count if count else 0.0

        shed = sum(
            v - srv0.get(k, 0) for k, v in srv1.items() if k.startswith("shed:")
        )
        selfs: dict[str, float] = {}
        top = server_ms = 0.0
        for r in ok:
            root = Span.from_dict(r.info["trace"])
            for name, ms in span_self_ms(root).items():
                selfs[name] = selfs.get(name, 0.0) + ms
            top += top_level_ms(root)
            server_ms += r.info["server_ms"]
        k = len(ok)
        queue = [r.info["queue_ms"] for r in ok]
        compute = [r.info["compute_ms"] for r in ok]
        out.layers = {
            "service.batch_occupancy_mean": (
                sum(s * c for s, c in occ.items()) / batches if batches else 0.0,
                "count",
            ),
            "service.cache_hit_rate": (deduped / submitted if submitted else 0.0, "fraction"),
            "service.coalesced": (svc1["coalesced"] - svc0["coalesced"], "count"),
            "service.queue_wait_ms": (selfs.get("service.queue_wait", 0.0) / k, "ms"),
            "server.queue_wait_ms_p50": (percentile(queue, 50), "ms"),
            "server.queue_wait_ms_p95": (percentile(queue, 95), "ms"),
            "server.compute_ms_p50": (percentile(compute, 50), "ms"),
            "server.compute_ms_p95": (percentile(compute, 95), "ms"),
            "server.decode_ms": (stage_mean("decode"), "ms"),
            "server.encode_ms": (stage_mean("encode"), "ms"),
            "server.shm_encode_ms": (selfs.get("shm_encode", 0.0) / k, "ms"),
            "server.shm_write_ms": (selfs.get("shm_write", 0.0) / k, "ms"),
            "server.shm_decode_ms": (selfs.get("shm_decode", 0.0) / k, "ms"),
            "server.worker_compute_ms": (selfs.get("worker_compute", 0.0) / k, "ms"),
            "server.shed": (shed, "count"),
            "codec.encode_ms": (codec.self_s["codec.encode"] * 1e3 / k, "ms"),
            "codec.decode_ms": (codec.self_s["codec.decode"] * 1e3 / k, "ms"),
            "trace.tiling": (top / server_ms, "ratio"),
        }


def setup(name: str, seed: int, size: str, seconds: float, scratch: Path):
    if name == "solve_default":
        return setup_solve_default(seed, size)
    if name == "outofcore_solve":
        return setup_outofcore_solve(seed, size, scratch)
    if name == "serve_mix":
        return ServeWorkload(seed, size, seconds)
    raise ValueError(f"unknown workload {name!r}")
