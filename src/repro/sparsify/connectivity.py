"""Connectivity indices for importance sampling (Nagamochi-Ibaraki).

Cut sparsification samples each edge with probability inversely
proportional to a *connectivity estimate* for that edge (Benczur-Karger
[8]; general framework Fung et al. [18]).  The estimate we use is the
Nagamochi-Ibaraki (NI) *forest index*: scan the edges, maintaining
disjoint forests ``F_1, F_2, ...``; each edge is placed in the first
forest in which its endpoints are not yet connected.  An edge whose
index is ``j`` crosses a cut of value ``>= j`` within the scanned prefix,
so ``1/j`` is a valid (up to constants) sampling rate.

The same primitive implements the inner loop of the paper's streaming
Algorithm 6, which runs one forest decomposition per geometric
subsampling level.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import forest_place

__all__ = ["ni_forest_index", "NIForestDecomposition"]


class NIForestDecomposition:
    """Incremental Nagamochi-Ibaraki forest decomposition.

    Maintains up to ``k`` disjoint-set forests.  :meth:`place_many`
    returns the 1-based forest index of each edge, or ``k + 1`` if its
    endpoints are already connected in all ``k`` forests (the edge is
    "k-heavy" and a sparsifier need not store it).

    The forests live in one int32 table: row ``j`` is forest ``j + 1``'s
    parent array, and rows below :attr:`count` are in use.  The
    ``forest_place`` kernel updates the table in place, one call per
    batch of edges, with path-halving finds.  Forests open lazily:
    forest ``j`` only exists once some edge was connected in forests
    ``1..j-1``.  An untouched forest separates every pair, so laziness
    is observationally equivalent to the eager construction while
    avoiding the ``k * n`` upfront allocation.  A full table doubles
    before a batch is placed (never past ``k`` rows), so it holds at
    most twice the rows in use (one row before the first forest opens).

    Placement binary-searches the forests instead of scanning them.
    First-fit NI forests satisfy the *nesting invariant*: at all times,
    connected in ``F_{j+1}`` implies connected in ``F_j`` (inductively:
    an edge lands in ``F_{j+1}`` only when its endpoints are already
    connected in ``F_1..F_j``, so a union in ``F_{j+1}`` merges
    components that every earlier forest already merged).  Hence
    "separated in ``F_j``" is monotone in ``j`` and the first separating
    forest is a bisection, turning the O(index) scan into O(log k)
    find-pairs per edge.  The resulting indices -- and the union
    history of every forest -- are identical to the linear scan's;
    path-halving state may differ, but compression never changes roots,
    so the structures are observationally equivalent.
    """

    def __init__(self, n: int, k: int):
        if k < 1:
            raise ValueError("need at least one forest")
        if n >= 2**31:
            raise ValueError("the int32 parent rows need n < 2^31")
        self.n = int(n)
        self.k = int(k)
        #: parent rows of the forests, ``(capacity, n)`` int32
        self.table = np.empty((0, self.n), dtype=np.int32)
        #: forests opened so far (rows of :attr:`table` in use)
        self.count = 0

    def place(self, u: int, v: int) -> int:
        """Insert edge ``(u, v)``; return its forest index (1-based)."""
        return int(self.place_many(np.array([u]), np.array([v]))[0])

    def place_many(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Insert a batch of edges in order; returns their forest indices."""
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        out = np.empty(len(src), dtype=np.int64)
        done = 0
        while done < len(src):
            if self.count == len(self.table) < self.k:
                # full: double the table, at most k rows.  The kernel
                # stops before an edge that needs a row past the table.
                table = np.empty((min(self.k, 2 * self.count or 1), self.n), np.int32)
                table[: self.count] = self.table[: self.count]
                self.table = table
            placed, self.count = forest_place(
                self.table, self.count, self.k, src[done:], dst[done:], out[done:]
            )
            done += placed
        return out

    def last_roots(self) -> np.ndarray | None:
        """Root of every vertex in the ``k``-th forest, or ``None`` while
        that forest is untouched (it then separates every pair).

        Pointer jumping on a copy of the row: the table is not changed.
        """
        if self.count < self.k:
            return None
        roots = self.table[self.k - 1].copy()
        while True:
            up = roots[roots]
            if np.array_equal(up, roots):
                return roots
            roots = up

    def separated_in_last(self, u: int, v: int) -> bool:
        """True iff the k-th forest still separates u and v.

        Used by Algorithm 6's final extraction step ("smallest i such
        that UF^i_k.find(u) != UF^i_k.find(v)").
        """
        roots = self.last_roots()
        if roots is None:
            return int(u) != int(v)
        return bool(roots[int(u)] != roots[int(v)])


def ni_forest_index(
    n: int, src: np.ndarray, dst: np.ndarray, k: int | None = None
) -> np.ndarray:
    """NI forest index for every edge, scanned in the given order.

    Parameters
    ----------
    k:
        Cap on the number of forests; edges beyond it get index ``k+1``.
        ``None`` means effectively unbounded (``n`` forests -- every edge
        gets its true index).

    Returns
    -------
    ``int64`` array of 1-based forest indices, one per edge.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if k is None:
        k = n  # an NI index can never exceed n-1
    return NIForestDecomposition(n, k).place_many(src, dst)
