"""Congested-clique simulator: per-round message passing with budgets.

Section 1 (Related Work): *"in that model we can compute a (1-eps)
approximation for the maximum weighted nonbipartite b-matching problem
using O(p/eps) rounds and O(n^{1/p}) size message per vertex."*

:class:`CongestedClique` executes synchronous rounds over ``n`` vertex
processors.  Each round every vertex may send words to any subset of
vertices; the simulator *enforces* a per-vertex outgoing budget (in
words) and raises :class:`MessageBudgetExceeded` on violation -- so a
protocol that claims to fit in ``O(n^{1/p})``-word messages is held to
a concrete number, exactly like the MapReduce engine holds reducers to
their memory budget.

:func:`clique_spanning_forest_impl` is the canonical protocol: every vertex
sketches its own incidence list locally (vertices know their incident
edges in this model), ships the ``O(polylog)``-word sketches to a
leader across ``ceil(sketch_words / budget)`` rounds, and the leader
runs sketch-Boruvka locally -- the "compute in one round, use in many
steps" deferral in its distributed incarnation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.sketch.graph_sketch import incidence_update_batch
from repro.sketch.support_find import boruvka_forest_from_tensor, forest_row_seeds
from repro.sketch.tensor import SketchTensor
from repro.util.graph import Graph
from repro.util.rng import make_rng

__all__ = [
    "CongestedClique",
    "MessageBudgetExceeded",
    "clique_spanning_forest_impl",
]


class MessageBudgetExceeded(RuntimeError):
    """A vertex exceeded its per-round outgoing message budget."""


@dataclass
class CongestedClique:
    """Synchronous message-passing simulator over ``n`` vertices.

    Parameters
    ----------
    n:
        Number of vertex processors.
    message_budget:
        Maximum words a single vertex may *send* per round
        (None = unlimited).  The paper's budget is ``O(n^{1/p})``
        polylog words.
    """

    n: int
    message_budget: int | None = None
    rounds: int = 0
    total_words: int = 0
    max_vertex_words: int = 0
    _inboxes: list[list[Any]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._inboxes = [[] for _ in range(self.n)]

    # ------------------------------------------------------------------
    def run_round(
        self,
        send: Callable[[int, list[Any]], list[tuple[int, Any, int]]],
    ) -> None:
        """Execute one synchronous round.

        ``send(vertex, inbox)`` consumes the vertex's inbox (messages
        from the previous round) and returns ``(dst, payload, words)``
        triples.  All sends are buffered and delivered after every
        vertex has acted (synchronous semantics).
        """
        self.rounds += 1
        outboxes: list[list[Any]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            inbox = self._inboxes[v]
            self._inboxes[v] = []
            sent_words = 0
            for dst, payload, words in send(v, inbox):
                if not (0 <= dst < self.n):
                    raise ValueError(f"destination {dst} out of range")
                sent_words += int(words)
                if (
                    self.message_budget is not None
                    and sent_words > self.message_budget
                ):
                    raise MessageBudgetExceeded(
                        f"vertex {v} sent {sent_words} words in round "
                        f"{self.rounds} (budget {self.message_budget})"
                    )
                outboxes[dst].append(payload)
            self.total_words += sent_words
            self.max_vertex_words = max(self.max_vertex_words, sent_words)
        self._inboxes = outboxes

    def inbox(self, v: int) -> list[Any]:
        """Peek at a vertex's pending inbox (for protocol epilogues)."""
        return self._inboxes[v]


def clique_spanning_forest_impl(
    graph: Graph,
    message_budget: int | None = None,
    seed: int | np.random.Generator | None = None,
    leader: int = 0,
) -> tuple[list[tuple[int, int]], CongestedClique]:
    """Implementation behind the ``congested_clique`` backend.

    Every vertex locally sketches its incidence vector (it knows its
    incident edges), serializes the sketch into word-sized chunks, and
    streams the chunks to ``leader`` over as many rounds as the budget
    requires.  The leader then decodes the planes it received with the
    shared sketch-Boruvka as *local computation* (zero communication),
    so a component merge is an axis sum of its members' cell planes.
    Returns the forest and
    the simulator (rounds / word counters for the experiment tables).
    """
    n = graph.n
    if n == 0:
        return [], CongestedClique(n=0, message_budget=message_budget)
    row_seeds = forest_row_seeds(make_rng(seed), n)
    repetitions = 6

    # local sketching: vertex v's slot ingests its incident edges only
    # (+1 when v is the canonical low endpoint, -1 otherwise); one batch
    # scatter over the whole edge list builds every vertex's sketch.
    tensor = SketchTensor(n * n, row_seeds, repetitions=repetitions, slots=n)
    if graph.m:
        tensor.update_many(*incidence_update_batch(graph.src, graph.dst, n))

    words_per_vertex = tensor.space_words() // n
    clique = CongestedClique(n=n, message_budget=message_budget)

    # shipping phase: each vertex streams its sketch slices (the cell
    # planes of its slot) to the leader in budget-sized installments;
    # the simulator enforces the cap.
    if message_budget is None:
        chunks = 1
    else:
        chunks = max(1, int(np.ceil(words_per_vertex / message_budget)))
    for c in range(chunks):
        def send(v: int, _inbox: list[Any], c=c) -> list[tuple[int, Any, int]]:
            if v == leader:
                return []
            words = int(np.ceil(words_per_vertex / chunks))
            if c == chunks - 1:
                payload = (v, (tensor.s0[v], tensor.s1[v], tensor.fp[v]))
            else:
                payload = (v, None)
            return [(leader, payload, words)]

        clique.run_round(send)

    # leader-local Boruvka (no communication -- free in this model): the
    # leader stacks the planes it received, and its own, into one
    # incidence tensor under the shared row seeds and decodes it
    held = SketchTensor(n * n, row_seeds, repetitions=repetitions, slots=n)
    own = (leader, (tensor.s0[leader], tensor.s1[leader], tensor.fp[leader]))
    for v, planes in clique.inbox(leader) + [own]:
        if planes is not None:
            held.s0[v], held.s1[v], held.fp[v] = planes
    return boruvka_forest_from_tensor(held, n), clique
