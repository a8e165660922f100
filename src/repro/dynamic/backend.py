"""The ``dynamic`` execution backend: update-log problems via the facade.

Registers ``dynamic`` in the :mod:`repro.api` registry.  A dynamic
problem is an ordinary :class:`~repro.api.Problem` whose graph is the
*base* state plus an update log in canonical list form::

    Problem(
        base_graph,
        config=SolverConfig(eps=0.2, seed=7),
        task="matching",                     # or "spanning_forest"
        options={"updates": [["+", 0, 5, 3.0], ["-", 2, 4]]},
    )

The encoding is canonical JSON, so update-log problems remain
content-addressable (:meth:`Problem.fingerprint`) and cache/coalesce
correctly in the service.

Contract: the backend replays the log through a fresh
:class:`~repro.dynamic.session.DynamicGraphSession` and queries once,
cold.  For ``task="matching"`` the result is **bit-identical** to the
``offline`` backend on the materialized final graph (same solver, same
config, same canonical edge order); for ``task="spanning_forest"`` it
is bit-identical to
:func:`~repro.streaming.semi_streaming.dynamic_stream_spanning_forest`
over the equivalent event stream with the same seed.  Both pins live in
``tests/test_dynamic_parity.py``.
"""

from __future__ import annotations

from repro.api import Backend, Problem, RunResult, register_backend
from repro.dynamic.session import DynamicGraphSession
from repro.dynamic.updates import normalize_updates

__all__ = ["DynamicBackend"]


@register_backend("dynamic")
class DynamicBackend(Backend):
    """Turnstile update-log backend (insert/delete, query at the end).

    Options:

    ``updates``
        The canonical update log (default: empty -- the problem then
        degenerates to its base graph).
    """

    tasks = ("matching", "spanning_forest")

    def run(self, problem: Problem) -> RunResult:
        updates = normalize_updates(problem.options.get("updates", []))
        forest_task = problem.task == "spanning_forest"
        session = DynamicGraphSession(
            problem.graph.n,
            config=problem.config,
            base_graph=problem.graph,
            seed=problem.seed,
            # sketches are the forest task's entire substance; matching
            # runs skip them (the solver needs the exact map anyway)
            maintain_sketches=forest_task,
        )
        session.apply(updates)
        if forest_task:
            return session.query_forest()
        return session.query_matching()
