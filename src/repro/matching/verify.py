"""Verification helpers: approximation ratios and certificate audits."""

from __future__ import annotations

import numpy as np

from repro.matching.exact import max_weight_bmatching_exact
from repro.matching.structures import BMatching
from repro.util.graph import Graph

__all__ = ["approximation_ratio", "verify_dual_upper_bound", "exact_optimum"]


def approximation_ratio(candidate: BMatching, optimum: BMatching | float) -> float:
    """``candidate.weight() / optimum`` (optimum may be a matching or value)."""
    opt = optimum.weight() if isinstance(optimum, BMatching) else float(optimum)
    if opt == 0:
        return 1.0 if candidate.weight() == 0 else float("inf")
    return candidate.weight() / opt


def _odd_set_members(n: int, z: dict) -> list[tuple[np.ndarray, float]]:
    """Each odd set of ``z`` as a length-``n`` membership mask, with its value."""
    members_z = []
    for U, zu in z.items():
        members = np.zeros(n, dtype=bool)
        members[list(U)] = True
        members_z.append((members, zu))
    return members_z


def _edge_cover(
    x: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    members_z: list[tuple[np.ndarray, float]],
) -> np.ndarray:
    """LP2 cover ``x_i + x_j + sum_{U ∋ i,j} z_U`` of the edges ``(src, dst)``.

    The audit's arithmetic, shared with the certificate's construction
    (:mod:`repro.core.certificates`) so both see the same floats.
    """
    cover = x[src] + x[dst]
    for members, zu in members_z:
        inside = members[src] & members[dst]
        cover = cover + np.where(inside, zu, 0.0)
    return cover


def verify_dual_upper_bound(
    graph: Graph,
    x: np.ndarray,
    z: dict[tuple[int, ...], float] | None = None,
    slack: float = 1e-9,
) -> float:
    """Check LP2 dual feasibility and return the dual objective.

    ``x`` is the vertex dual vector; ``z`` maps odd sets (vertex tuples)
    to dual values.  Raises ``ValueError`` unless ``x`` has shape
    ``(n,)`` and every entry of ``x`` and ``z`` is finite and
    nonnegative (LP2's sign constraints; weak duality needs them).
    Raises ``AssertionError`` naming the first edge whose constraint
    ``x_i + x_j + sum_{U ∋ i,j} z_U >= w_ij`` is violated by more than
    ``slack``.  The returned value is a certified upper bound on the
    maximum b-matching weight (weak duality).

    The audit reads the edge columns one range at a time
    (:meth:`~repro.util.graph.Graph.edge_ranges`), so a file-backed
    graph is never coerced into RAM.
    """
    x = np.asarray(x, dtype=np.float64)
    z = z or {}
    if x.shape != (graph.n,):
        raise ValueError(f"x must have shape ({graph.n},), got {x.shape}")
    duals = np.concatenate([x, np.fromiter(z.values(), np.float64, len(z))])
    if not np.all(np.isfinite(duals) & (duals >= 0.0)):
        raise ValueError("dual values must be finite and nonnegative")
    members_z = _odd_set_members(graph.n, z)
    worst = -np.inf
    worst_edge: tuple[int, int, float, float] | None = None
    for start, stop in graph.edge_ranges():
        src = np.asarray(graph.src[start:stop])
        dst = np.asarray(graph.dst[start:stop])
        w = np.asarray(graph.weight[start:stop])
        cover = _edge_cover(x, src, dst, members_z)
        deficit = w - cover
        part = float(deficit.max())
        # strictly greater: the reported edge is the first argmax overall
        if part > worst:
            worst = part
            e = int(np.argmax(deficit))
            worst_edge = (int(src[e]), int(dst[e]), float(cover[e]), float(w[e]))
    if worst > slack:
        ws, wd, wc, ww = worst_edge
        raise AssertionError(
            f"dual infeasible at edge ({ws},{wd}): "
            f"cover {wc:.6g} < weight {ww:.6g}"
        )
    value = float((graph.b * x).sum())
    for U, zu in z.items():
        value += zu * (int(graph.b[list(U)].sum()) // 2)
    return value


def exact_optimum(graph: Graph) -> float:
    """Exact maximum b-matching weight (verification-scale graphs)."""
    return max_weight_bmatching_exact(graph).weight()
