"""File-backed graphs: a lazy :class:`Graph` over an ``.edges`` file.

:class:`FileBackedGraph` is how file-backed problems flow through the
facade unchanged: it *is* a :class:`~repro.util.graph.Graph` (every
backend's ``isinstance`` check and attribute access works), but the
edge columns stay on disk until something actually touches them.

Three access tiers:

* **Streaming** -- ``n``, ``m``, :meth:`fingerprint` (computed in
  O(chunk) column passes, byte-identical to the in-RAM fingerprint) and
  the passes of an :class:`~repro.streaming.stream.EdgeStream` over the
  graph (one ``chunk_edges`` slice of positioned reads per
  :meth:`~repro.util.graph.Graph.edge_ranges` range) never materialize
  the edge list.  Opening a ``FileBackedGraph`` is the only way to
  stream a file.  The semi-streaming spanning-forest path and the
  service cache key live entirely in this tier.
* **Gathering** -- ``src``/``dst``/``weight`` are :class:`_LazyColumn`
  views: indexing one (scalar, slice, fancy, boolean mask) reads just
  the addressed entries with positioned ``pread`` calls, O(result +
  gather span) resident -- no pages are ever mapped, so the gathers do
  not inflate the process RSS.  The out-of-core matching route lives
  here: per-level edge pools, sampled unions and witness extraction
  gather what they touch and nothing else.
* **Materializing** -- coercing a whole column (``np.asarray`` /
  ufuncs) or calling :meth:`materialize` loads all columns (chunked,
  into preallocated int64/float64 arrays) and the object behaves like a
  plain in-RAM graph from then on.  This is the O(m)-word event the
  ingest memory model warns about, so it is *governed*: the
  ``materialize_policy`` ("allow" | "warn" | "forbid", default "warn")
  decides whether it proceeds silently, proceeds with a counted
  ``ingest.materialize`` obs event, or raises
  :class:`MaterializationForbidden`.  Every materialization increments
  the module counter behind the ``repro_ingest_materializations_total``
  metric family regardless of policy, so "zero materializations" is an
  assertable property of a code path.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from repro.ingest.format import DEFAULT_CHUNK_EDGES, EdgeFile, IngestError, open_edges
from repro.obs import log_event
from repro.util.graph import Graph
from repro.util.instrumentation import CounterSet

__all__ = [
    "FileBackedGraph",
    "MaterializationForbidden",
    "MATERIALIZE_POLICIES",
    "materialization_counts",
    "materializations_total",
]

_log = logging.getLogger("repro.ingest")

#: Valid ``materialize_policy`` values, in increasing strictness.
MATERIALIZE_POLICIES = ("allow", "warn", "forbid")

#: Process-wide materialization counter (the source of the
#: ``repro_ingest_materializations_total`` metric family).  Keys are
#: bare ``"total"`` plus ``("reason", <reason>)`` labels.
_MATERIALIZATIONS = CounterSet()


def materializations_total() -> int:
    """How many file-backed graphs were materialized in this process."""
    return _MATERIALIZATIONS.get("total")


def materialization_counts() -> dict[str, int]:
    """Per-reason materialization counts (``reason -> count``)."""
    return _MATERIALIZATIONS.labelled("reason")


class MaterializationForbidden(IngestError):
    """A ``materialize_policy="forbid"`` graph was asked to load O(m)
    columns into RAM."""


class _LazyColumn:
    """One on-disk edge column behind array-like chunked access.

    Supports the access patterns the solver stack actually uses --
    ``len``/``shape``/``dtype``, scalar reads, slice copies, fancy and
    boolean-mask gathers, chunked ``min``/``max``/``sum`` -- each
    costing O(result + gather block) resident words.  Anything that
    needs the *whole* column as one ndarray (``np.asarray``, ufuncs on
    the column itself) funnels through ``__array__``, which defers to
    the owning graph's governed :meth:`FileBackedGraph.materialize`.
    """

    __slots__ = ("_graph", "_index", "_dtype")

    #: Iteration/reduction granularity (entries per positioned read).
    GATHER_BLOCK = 1 << 20

    def __init__(self, graph: "FileBackedGraph", index: int):
        self._graph = graph
        self._index = index
        self._dtype = np.dtype(np.float64 if index == 2 else np.int64)

    # -- array-protocol surface ----------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def shape(self) -> tuple[int]:
        return (self._graph.m,)

    @property
    def ndim(self) -> int:
        return 1

    @property
    def size(self) -> int:
        return self._graph.m

    def __len__(self) -> int:
        return self._graph.m

    def __getitem__(self, key):
        if self._graph.is_materialized:
            return self._graph._columns[self._index][key]
        f = self._graph.file
        m = self._graph.m
        if isinstance(key, (int, np.integer)):
            i = int(key)
            if i < 0:
                i += m
            if not 0 <= i < m:
                raise IndexError(f"index {int(key)} out of range for m={m}")
            return self._dtype.type(f.read_raw_slice(self._index, i, i + 1)[0])
        if isinstance(key, slice):
            start, stop, step = key.indices(m)
            if step == 1:
                return f.read_raw_slice(self._index, start, stop).astype(self._dtype)
            return self[np.arange(start, stop, step, dtype=np.int64)]
        idx = np.asarray(key)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        flat = f.gather_raw(self._index, idx.reshape(-1).astype(np.int64))
        return flat.astype(self._dtype).reshape(idx.shape)

    def __iter__(self):
        for start in range(0, len(self), self.GATHER_BLOCK):
            yield from self[start : start + self.GATHER_BLOCK]

    # -- chunked reductions --------------------------------------------
    def _reduce(self, op, empty_error: str):
        if len(self) == 0:
            raise ValueError(empty_error)
        acc = None
        for start in range(0, len(self), self.GATHER_BLOCK):
            part = op(self[start : start + self.GATHER_BLOCK])
            acc = part if acc is None else op([acc, part])
        return acc

    def max(self):
        return self._reduce(np.max, "max of an empty column")

    def min(self):
        return self._reduce(np.min, "min of an empty column")

    def __array__(self, dtype=None, copy=None):
        col = self._graph.materialize(
            reason=f"column coercion ({('src', 'dst', 'weight')[self._index]})"
        )._columns[self._index]
        if dtype is not None and np.dtype(dtype) != col.dtype:
            return col.astype(dtype)
        return col

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = ("src", "dst", "weight")[self._index]
        return f"_LazyColumn({name}, m={len(self)}, dtype={self._dtype})"


class FileBackedGraph(Graph):
    """A :class:`Graph` whose edge columns live in an ``.edges`` file.

    Construct from an open :class:`~repro.ingest.format.EdgeFile` or a
    path.  The content is validated at open (one O(chunk)-memory scan,
    typed :class:`~repro.ingest.format.EdgeDataError` on the first bad
    edge; free for an already-validated file).  ``chunk_edges`` (at
    least 1) is the length of every range a scan or stream pass reads.
    The capacity vector is all-ones (the v1 format carries no ``b``
    column), allocated lazily.  ``materialize_policy`` governs
    whole-column loads (see the module docstring).
    """

    def __init__(
        self,
        source: "EdgeFile | str | os.PathLike",
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
        materialize_policy: str = "warn",
    ):
        if isinstance(source, (str, os.PathLike)):
            source = open_edges(source)
        if not isinstance(source, EdgeFile):
            raise TypeError(
                f"source must be an EdgeFile or a path, got {type(source).__name__}"
            )
        if materialize_policy not in MATERIALIZE_POLICIES:
            raise ValueError(
                f"materialize_policy must be one of {MATERIALIZE_POLICIES}, "
                f"got {materialize_policy!r}"
            )
        # one contract for what a graph is: the content is checked at
        # open, as Graph.__post_init__ checks an in-RAM graph, so no
        # scan or stream pass (lazy columns, materialize, edge_ranges)
        # reads bad edges; validate() also rejects chunk_edges < 1
        source.validate(chunk_edges)
        # deliberately no super().__init__(): the dataclass initializer
        # wants materialized columns, which is exactly what we defer
        self.n = source.n
        self.file = source
        self.chunk_edges = int(chunk_edges)
        self.materialize_policy = materialize_policy
        self._columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._lazy = tuple(_LazyColumn(self, i) for i in range(3))
        self._b: np.ndarray | None = None
        self._csr = None
        self._edge_keys = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Streaming tier
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Edge count straight from the header (no materialization)."""
        return self.file.m

    @property
    def is_materialized(self) -> bool:
        """Whether the edge columns have been loaded into RAM."""
        return self._columns is not None

    def fingerprint(self) -> str:
        """Streamed content hash, byte-identical to
        :meth:`Graph.fingerprint <repro.util.graph.Graph.fingerprint>`
        of the materialized instance (pinned by the determinism
        battery).  Cached; never materializes the columns."""
        if self._fingerprint is None:
            self._fingerprint = self.file.fingerprint(self.chunk_edges)
        return self._fingerprint

    # ------------------------------------------------------------------
    # Materializing tier
    # ------------------------------------------------------------------
    def materialize(self, reason: str = "explicit materialize()") -> "FileBackedGraph":
        """Load the columns into RAM (idempotent); returns ``self``.

        Subject to :attr:`materialize_policy`: "forbid" raises
        :class:`MaterializationForbidden`, "warn" (the default) emits a
        counted ``ingest.materialize`` obs event, "allow" proceeds
        quietly.  Every performed materialization increments the
        ``repro_ingest_materializations_total`` counter exactly once.
        """
        if self._columns is None:
            if self.materialize_policy == "forbid":
                raise MaterializationForbidden(
                    f"materialize_policy='forbid' but {reason} requires the "
                    f"full O(m) edge columns in RAM",
                    path=self.file.path,
                )
            _MATERIALIZATIONS.inc("total")
            _MATERIALIZATIONS.inc(("reason", reason))
            if self.materialize_policy == "warn":
                log_event(
                    _log,
                    "ingest.materialize",
                    level=logging.WARNING,
                    path=str(self.file.path),
                    n=self.n,
                    m=self.m,
                    reason=reason,
                    resident_words=3 * self.m,
                )
            src = np.empty(self.m, dtype=np.int64)
            dst = np.empty(self.m, dtype=np.int64)
            w = np.empty(self.m, dtype=np.float64)
            for start, stop in self.edge_ranges():
                csrc, cdst, cw = self.file.read_chunk(start, stop)
                src[start:stop] = csrc
                dst[start:stop] = cdst
                w[start:stop] = cw
            self._columns = (src, dst, w)
        return self

    @property
    def src(self) -> np.ndarray:
        return self._columns[0] if self._columns is not None else self._lazy[0]

    @property
    def dst(self) -> np.ndarray:
        return self._columns[1] if self._columns is not None else self._lazy[1]

    @property
    def weight(self) -> np.ndarray:
        return self._columns[2] if self._columns is not None else self._lazy[2]

    @property
    def b(self) -> np.ndarray:
        if self._b is None:
            self._b = np.ones(self.n, dtype=np.int64)
        return self._b

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        state = "materialized" if self.is_materialized else "on disk"
        return (
            f"FileBackedGraph(path={str(self.file.path)!r}, n={self.n}, "
            f"m={self.m}, {state})"
        )

    def __eq__(self, other) -> bool:
        # the dataclass __eq__ compares field tuples elementwise, which
        # is ambiguous for arrays; compare by content address instead
        if isinstance(other, FileBackedGraph):
            return self.fingerprint() == other.fingerprint()
        if isinstance(other, Graph):
            return self.fingerprint() == other.fingerprint()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like Graph
