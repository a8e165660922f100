#!/usr/bin/env python
"""Dynamic (insert/delete) streams: why *linear* sketches are mandatory.

The paper's sampling rounds are implemented through linear sketches
(footnote 1, Section 4.2) precisely because linearity survives
deletions: an edge inserted and later deleted vanishes from every
sketch.  This demo builds an adversarial insert/delete stream whose
surviving graph differs completely from its insert-only prefix, then

1. recovers a spanning forest of the *net* graph with ℓ0 sketches, and
2. shows a one-pass greedy (non-linear state) gets fooled.

Run:  python examples/dynamic_stream_demo.py
"""

import numpy as np

from repro.streaming import DynamicEdgeStream, dynamic_stream_spanning_forest


def build_stream(n: int = 24) -> DynamicEdgeStream:
    """Insert a dense 'decoy' clique on the low half, delete it, and leave
    a sparse cycle on all vertices as the true survivor."""
    stream = DynamicEdgeStream(n)
    half = n // 2
    # decoy pairs skip adjacent vertices so they never coincide with the
    # surviving cycle edges -- the greedy matcher grabs pure ghosts
    for i in range(half):
        for j in range(i + 2, half):
            stream.insert(i, j)
    for i in range(half):
        for j in range(i + 2, half):
            stream.delete(i, j)
    for v in range(n):
        stream.insert(v, (v + 1) % n)
    return stream


def main() -> None:
    stream = build_stream()
    net = stream.net_graph()
    print(f"events: {len(stream.events)}, surviving edges: {net.m}")

    # 1. linear sketches see only the survivors
    forest = dynamic_stream_spanning_forest(stream, seed=1)
    uf_ok = len(forest) == net.n - 1  # the survivor is one cycle: n-1 tree edges
    print(f"sketch spanning forest: {len(forest)} edges (expected {net.n - 1}) "
          f"-> {'OK' if uf_ok else 'MISS'}")

    # 2. a naive insert-only greedy matcher is fooled by the deleted clique
    greedy_taken: list[tuple[int, int]] = []
    free = np.ones(stream.n, dtype=bool)
    for ev in stream.events:
        if ev.delta > 0 and free[ev.u] and free[ev.v]:
            free[ev.u] = free[ev.v] = False
            greedy_taken.append((ev.u, ev.v))
    surviving = set(
        (int(a), int(b)) for a, b in zip(net.src, net.dst)
    )
    ghost = [e for e in greedy_taken if (min(e), max(e)) not in surviving]
    print(f"greedy matched {len(greedy_taken)} edges, "
          f"{len(ghost)} of them deleted ('ghost') edges")

    assert uf_ok and len(ghost) > 0
    print("OK: linear sketches track the dynamic stream; naive state does not.")


if __name__ == "__main__":
    main()
