"""Dynamic turnstile-graph sessions: incremental sketch maintenance,
query-at-any-time solves, and the ``dynamic`` execution backend.

The paper's sketches are *linear* -- precisely the property that makes
them work on dynamic (insert **and** delete) streams.  This package
opens that workload:

* :class:`~repro.dynamic.session.DynamicGraphSession` -- interleave
  edge updates with ``query_matching()`` / ``query_forest()``; linear
  sketch state is maintained incrementally, matching solves can be
  warm-started from the previous query's verified duals.
* :class:`~repro.dynamic.state.TurnstileGraphState` /
  :class:`~repro.dynamic.state.DynamicSketchState` -- the exact edge
  map and the incrementally maintained incidence sketch.
* :mod:`~repro.dynamic.updates` -- the canonical, JSON-fingerprintable
  update-log encoding.
* :class:`~repro.dynamic.backend.DynamicBackend` -- ``dynamic`` in the
  :mod:`repro.api` registry: update-log problems through the facade,
  bit-identical to ``offline`` on the final graph.

See ``docs/dynamic.md`` for the update model and warm-start semantics.
"""

from repro.dynamic.backend import DynamicBackend
from repro.dynamic.session import DynamicGraphSession, SessionStats
from repro.dynamic.state import DynamicSketchState, TurnstileGraphState
from repro.dynamic.updates import GraphUpdate, canonical_updates, normalize_updates

__all__ = [
    "DynamicGraphSession",
    "SessionStats",
    "DynamicBackend",
    "DynamicSketchState",
    "TurnstileGraphState",
    "GraphUpdate",
    "normalize_updates",
    "canonical_updates",
]
