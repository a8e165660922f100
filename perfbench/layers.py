"""Per-layer time split, measured from outside the library.

Two sources, one per kind of workload:

* In-process solves: :class:`LayerTracer` swaps the module attributes a
  layer is reached through (``repro.core.matching_solver.micro_oracle``,
  ``EdgeFile.read_raw_slice``, ...) for timing wrappers and restores
  them afterwards.  A layer's *self* time is the time inside its
  wrapped calls minus the time inside wrapped calls nested in them, so
  the self times of all layers plus the root frame (the benchmark's own
  ``run()`` call) add up to the root's wall time.
* Served requests: the span tree each ``trace=True`` reply carries,
  rebuilt with :meth:`repro.obs.Span.from_dict`; self time there is a
  span's duration minus the part of it its children cover.

Nothing in ``src/`` is edited to take these measurements.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

#: Root frame: the benchmark's ``run()`` call.  Its self time is the
#: solver loop's own numpy work (multipliers, packing, blends).
ROOT = "core.loop_self"

#: Layer -> wrapped attributes, as ``(module, attribute path)``.  Each
#: attribute is replaced where the solver looks it up at call time.
SOLVER_LAYERS = {
    "matching.harvest": [
        ("repro.core.matching_solver", "max_weight_bmatching_exact"),
        ("repro.core.matching_solver", "local_search_matching"),
    ],
    "core.oracle": [("repro.core.matching_solver", "micro_oracle")],
    "core.discretize": [("repro.core.matching_solver", "discretize")],
    "core.initial": [("repro.core.matching_solver", "build_initial_solution")],
    "core.certify": [("repro.core.matching_solver", "certify")],
    "core.witness": [("repro.core.matching_solver", "extract_witness_matching")],
    "sparsify.chain": [
        ("repro.core.matching_solver", "DeferredSparsifierChain"),
        ("repro.streaming.streaming_matching", "StreamingDeferredChain"),
    ],
    "ingest.read": [
        ("repro.ingest.format", "EdgeFile.read_raw_slice"),
        ("repro.ingest.format", "EdgeFile.gather_raw"),
    ],
}

#: Self-time metric -> layer.
LAYER_SECONDS = {
    "matching.harvest_s": "matching.harvest",
    "core.oracle_s": "core.oracle",
    "core.loop_self_s": ROOT,
    "core.discretize_s": "core.discretize",
    "core.initial_s": "core.initial",
    "core.certify_s": "core.certify",
    "core.witness_s": "core.witness",
    "sparsify.chain_s": "sparsify.chain",
    "ingest.read_s": "ingest.read",
    "kernels.s": "kernels",
}

#: Modules that bind ``repro.kernels`` functions at import time; the
#: kernels are wrapped there, where the callers look them up.
KERNEL_CALLERS = (
    "repro.core.matching_solver",
    "repro.core.micro_oracle",
    "repro.core.batch",
    "repro.sketch.hashing",
    "repro.sketch.tensor",
)


def _resolve(module: str, path: str):
    """``(owner, attribute name)`` for a dotted attribute path in ``module``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Self-time and call accounting for wrapped layer entry points.

    Single-threaded by design: the in-process workloads solve one
    problem at a time on the calling thread.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.harvests = 0
        self.useful_harvests = 0
        self.harvest_pool_edges = 0
        self.bytes_read = 0
        self._stack: list[list] = []  # [layer, seconds in nested wrapped calls]
        self._best_harvest = float("-inf")

    # -- frames ------------------------------------------------------------
    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        self.self_s[frame[0]] += elapsed - frame[1]
        self.calls[frame[0]] += 1

    @contextlib.contextmanager
    def root(self):
        """Frame around one top-level ``run()`` call."""
        self._best_harvest = float("-inf")
        frame = self._enter(ROOT)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(frame, time.perf_counter() - t0)

    def _wrapper(self, layer: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn, updated=())  # fn may be a class
        def wrapped(*args, **kwargs):
            nested = any(f[0] == layer for f in tracer._stack)
            frame = tracer._enter(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, time.perf_counter() - t0)
            if observe is not None and not nested:
                observe(args, result)
            return result

        return wrapped

    def _observe_harvest(self, args, result) -> None:
        self.harvests += 1
        self.harvest_pool_edges += int(args[0].m)
        weight = float(result.weight())
        if weight > self._best_harvest:
            self.useful_harvests += 1
            self._best_harvest = weight

    def _observe_read(self, args, result) -> None:
        self.bytes_read += int(getattr(result, "nbytes", 0))

    # -- installation --------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, layers=SOLVER_LAYERS, kernels: bool = True):
        """Wrap the layers' entry points (and, with ``kernels``, every
        ``repro.kernels`` function where it was imported); restore the
        originals on exit."""
        observers = {
            "matching.harvest": self._observe_harvest,
            "ingest.read": self._observe_read,
        }
        patches = []
        for layer, targets in layers.items():
            for module, path in targets:
                owner, attr = _resolve(module, path)
                patches.append((owner, attr, layer, observers.get(layer)))
        if kernels:
            import repro.kernels

            kernel_ids = {
                id(getattr(repro.kernels, name)) for name in repro.kernels.KERNEL_NAMES
            }
            for module in KERNEL_CALLERS:
                owner = importlib.import_module(module)
                for attr, value in list(vars(owner).items()):
                    if callable(value) and id(value) in kernel_ids:
                        patches.append((owner, attr, "kernels", None))
        originals = []
        try:
            for owner, attr, layer, observe in patches:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(layer, fn, observe))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    # -- report ------------------------------------------------------------
    def metrics(self, cycles: int) -> dict[str, tuple[float, str]]:
        """Per-cycle solver-layer metrics as ``name -> (value, unit)``."""
        k = max(1, cycles)
        out = {
            name: (self.self_s.get(layer, 0.0) / k, "s")
            for name, layer in LAYER_SECONDS.items()
        }
        out.update(
            {
                "matching.harvest_calls": (self.harvests / k, "count"),
                "matching.harvest_pool_edges": (self.harvest_pool_edges / k, "count"),
                "matching.harvest_useful_ratio": (
                    self.useful_harvests / self.harvests if self.harvests else 0.0,
                    "ratio",
                ),
                "core.oracle_calls": (self.calls["core.oracle"] / k, "count"),
                "kernels.calls": (self.calls["kernels"] / k, "count"),
                "ingest.bytes_read": (self.bytes_read / k, "bytes"),
            }
        )
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


# ----------------------------------------------------------------------
# Served requests: span trees from trace=True replies
# ----------------------------------------------------------------------
def _covered(span) -> float:
    """Seconds of ``span`` covered by the union of its children."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in span.children
        if c.end is not None
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def span_self_ms(root) -> dict[str, float]:
    """Self milliseconds per span name, summed over the tree."""
    out: dict[str, float] = defaultdict(float)
    for node in root.walk():
        if node.end is None:
            continue
        out[node.name] += (node.end - node.start - _covered(node)) * 1e3
    return out


def top_level_ms(root) -> float:
    """Summed durations of the request span's direct children."""
    return sum(c.duration_ms or 0.0 for c in root.children)
