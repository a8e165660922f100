"""The ``.edges`` binary on-disk edge-list format (version 1).

Out-of-core ingestion needs a representation that can be consumed in
fixed-size numpy chunks without ever materializing per-edge Python
objects.  ``.edges`` is deliberately minimal: a fixed 40-byte header
followed by three contiguous little-endian columns (structure-of-arrays,
the same layout :class:`~repro.util.graph.Graph` uses in RAM)::

    offset 0   magic       8 bytes   b"REDGES01"
    offset 8   n           uint64    number of vertices
    offset 16  m           uint64    number of edges
    offset 24  flags       uint64    must be 0 in version 1
    offset 32  finalized   uint64    == m when the writer completed;
                                     0xFFFF...FF while mid-write
    offset 40  src         m x uint32
    40 + 4m    dst         m x uint32
    40 + 8m    weight      m x float64

Total file size is exactly ``40 + 16 * m`` bytes.  Invariants (checked
by the writer on the way in and by every reader on the way out):

* edges are canonical (``src < dst < n``) with **strictly increasing**
  keys ``src * n + dst`` -- storage order equals canonical key order, so
  duplicate edges are structurally impossible and a streamed
  :meth:`EdgeFile.fingerprint` equals the in-RAM
  :meth:`Graph.fingerprint <repro.util.graph.Graph.fingerprint>` of the
  same instance byte for byte;
* weights are finite and strictly positive (version 1 carries no ``b``
  column -- the instance is a plain matching, ``b = 1``);
* an unfinalized file (killed writer) is *detectable*: the ``finalized``
  field still holds the sentinel, and :func:`open_edges` refuses it.

Every malformed condition raises a typed :class:`IngestError` carrying
the file path and a byte offset (format errors) or an edge index
(data errors) -- never a silent partial graph.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path

import numpy as np

from repro.util.graph import DEFAULT_CHUNK_EDGES

__all__ = [
    "MAGIC",
    "HEADER_BYTES",
    "BYTES_PER_EDGE",
    "MAX_N",
    "DEFAULT_CHUNK_EDGES",
    "IngestError",
    "IngestFormatError",
    "TruncatedFileError",
    "EdgeDataError",
    "EdgeFile",
    "EdgeFileWriter",
    "open_edges",
    "write_edges",
    "write_graph_file",
]

MAGIC = b"REDGES01"
HEADER_BYTES = 40
BYTES_PER_EDGE = 16  # 4 (src) + 4 (dst) + 8 (weight)
_HEADER_STRUCT = struct.Struct("<8sQQQQ")
_SENTINEL = 0xFFFFFFFFFFFFFFFF

#: Largest representable vertex count: endpoints must fit uint32 and the
#: canonical edge key ``src * n + dst`` must fit a signed int64 (the key
#: dtype used by :func:`repro.util.graph.edge_key` and every sketch).
MAX_N = min(2**32 - 1, int(np.floor(np.sqrt(2.0**63))) - 1)


# ======================================================================
# Error taxonomy
# ======================================================================
class IngestError(Exception):
    """Base class for every on-disk ingestion failure.

    Attributes
    ----------
    path:
        The offending file, when known.
    offset:
        Location of the problem: a *byte* offset for structural errors
        (:class:`IngestFormatError` and subclasses), an *edge index*
        for content errors (:class:`EdgeDataError`).
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | os.PathLike | None = None,
        offset: int | None = None,
    ):
        self.path = None if path is None else str(path)
        self.offset = None if offset is None else int(offset)
        where = []
        if self.path is not None:
            where.append(self.path)
        if self.offset is not None:
            kind = "edge" if isinstance(self, EdgeDataError) else "byte"
            where.append(f"{kind} offset {self.offset}")
        super().__init__(f"{message} [{', '.join(where)}]" if where else message)


class IngestFormatError(IngestError):
    """Structural violation: bad magic, bad header fields, stray bytes."""


class TruncatedFileError(IngestFormatError):
    """The file is shorter than its header declares (short read)."""


class EdgeDataError(IngestError):
    """Content violation at a specific edge index: non-canonical or
    out-of-range endpoints, duplicate/disordered keys, non-finite or
    non-positive weights."""


# ======================================================================
# Header plumbing
# ======================================================================
def _pack_header(n: int, m: int, finalized: int) -> bytes:
    return _HEADER_STRUCT.pack(MAGIC, n, m, 0, finalized)


def _read_header(raw: bytes, path) -> tuple[int, int]:
    """Parse + check a header; returns ``(n, m)`` or raises typed errors."""
    if len(raw) < HEADER_BYTES:
        raise TruncatedFileError(
            f"file too short for a header: got {len(raw)} bytes, "
            f"need {HEADER_BYTES}",
            path=path,
            offset=len(raw),
        )
    magic, n, m, flags, finalized = _HEADER_STRUCT.unpack(raw[:HEADER_BYTES])
    if magic != MAGIC:
        raise IngestFormatError(
            f"bad magic {magic!r}; expected {MAGIC!r} (not a .edges file?)",
            path=path,
            offset=0,
        )
    if flags != 0:
        raise IngestFormatError(
            f"unsupported flags 0x{flags:x}; version 1 defines none",
            path=path,
            offset=24,
        )
    if finalized == _SENTINEL:
        raise IngestFormatError(
            "file was never finalized (writer did not complete); "
            "refusing a possibly partial edge list",
            path=path,
            offset=32,
        )
    if finalized != m:
        raise IngestFormatError(
            f"finalized count {finalized} disagrees with m={m}",
            path=path,
            offset=32,
        )
    if n > MAX_N:
        raise IngestFormatError(
            f"n={n} exceeds the format maximum {MAX_N}", path=path, offset=8
        )
    return int(n), int(m)


def _expected_size(m: int) -> int:
    return HEADER_BYTES + BYTES_PER_EDGE * m


# ======================================================================
# Content check (reader scans and writer appends)
# ======================================================================
def _check_chunk(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    n: int,
    start: int,
    last_key: int,
    path,
) -> int:
    """The content invariants of edges ``[start, start + len(src))``.

    Endpoints canonical and in range, weights finite and positive, keys
    strictly increasing from ``last_key`` (the key of edge ``start - 1``,
    ``-1`` for the first edge).  Checked by every reader scan and every
    writer append; the first offending edge raises :class:`EdgeDataError`
    with its absolute index.  Returns the key of the chunk's last edge.
    """
    bad = np.flatnonzero((src < 0) | (src >= dst) | (dst >= n))
    if len(bad):
        i = int(bad[0])
        raise EdgeDataError(
            f"edge ({int(src[i])}, {int(dst[i])}) is not canonical "
            f"0 <= src < dst < n (n={n})",
            path=path,
            offset=start + i,
        )
    finite = np.isfinite(w)
    good_w = finite & (w > 0)
    if not good_w.all():
        i = int(np.flatnonzero(~good_w)[0])
        label = "non-finite" if not finite[i] else "non-positive"
        raise EdgeDataError(f"{label} weight {w[i]!r}", path=path, offset=start + i)
    keys = src * np.int64(n) + dst
    ok = np.empty(len(keys), dtype=bool)
    if len(keys):
        ok[0] = keys[0] > last_key
        np.greater(keys[1:], keys[:-1], out=ok[1:])
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        prev = last_key if i == 0 else int(keys[i - 1])
        kind = "duplicate" if int(keys[i]) == prev else "disordered"
        raise EdgeDataError(
            f"{kind} edge key: edge ({int(src[i])}, {int(dst[i])}) breaks the "
            "strictly increasing canonical key order",
            path=path,
            offset=start + i,
        )
    return int(keys[-1]) if len(keys) else last_key


# ======================================================================
# Reader
# ======================================================================
class EdgeFile:
    """A finalized ``.edges`` file opened for chunked reading.

    Columns are read with *positioned* reads (``os.pread``), never
    mapped into the address space: a full scan keeps O(chunk) resident
    words and -- unlike a memmap walk -- adds nothing to the process
    RSS, which is what the out-of-core peak-memory gates measure.
    :meth:`read_chunk` copies one bounded slice out as the int64/float64
    arrays the rest of the library speaks; :meth:`read_raw_slice` /
    :meth:`gather_raw` are the raw-dtype primitives behind the lazy
    column views of :class:`~repro.ingest.filegraph.FileBackedGraph`.

    Use :func:`open_edges` (or the context-manager protocol) rather than
    constructing directly.
    """

    #: Raw on-disk dtype per column index (src, dst, weight).
    COLUMN_DTYPES = (np.dtype("<u4"), np.dtype("<u4"), np.dtype("<f8"))

    #: Max entries covered by a single gather read -- bounds the bytes
    #: one scattered-id gather holds resident at a time.
    GATHER_SPAN = 1 << 18

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            self.n, self.m = _read_header(fh.read(HEADER_BYTES), self.path)
        actual = self.path.stat().st_size
        expected = _expected_size(self.m)
        if actual < expected:
            raise TruncatedFileError(
                f"short read: header declares m={self.m} edges "
                f"({expected} bytes) but the file holds {actual} bytes",
                path=self.path,
                offset=actual,
            )
        if actual > expected:
            raise IngestFormatError(
                f"{actual - expected} stray trailing bytes after the "
                f"declared {self.m} edges",
                path=self.path,
                offset=expected,
            )
        m = self.m
        self._content_validated = False
        self._col_base = (HEADER_BYTES, HEADER_BYTES + 4 * m, HEADER_BYTES + 8 * m)
        self._fh = open(self.path, "rb")
        self._closed = False

    # ------------------------------------------------------------------
    def read_raw_slice(self, column: int, start: int, stop: int) -> np.ndarray:
        """Entries ``[start, stop)`` of one column in its raw disk dtype.

        One positioned read; the result is a fresh O(stop - start)
        array, no pages stay mapped.
        """
        self._check_open()
        dt = self.COLUMN_DTYPES[column]
        start = max(0, min(int(start), self.m))
        stop = max(start, min(int(stop), self.m))
        count = stop - start
        if count == 0:
            return np.empty(0, dtype=dt)
        nbytes = count * dt.itemsize
        raw = os.pread(
            self._fh.fileno(), nbytes, self._col_base[column] + dt.itemsize * start
        )
        if len(raw) != nbytes:
            raise TruncatedFileError(
                f"short read: wanted {nbytes} bytes of column {column}, "
                f"got {len(raw)} (file shrank underneath the reader?)",
                path=self.path,
                offset=self._col_base[column] + dt.itemsize * start + len(raw),
            )
        return np.frombuffer(raw, dtype=dt)

    def gather_raw(self, column: int, ids: np.ndarray) -> np.ndarray:
        """Column entries at the given edge ids (raw disk dtype).

        Ids are fetched in file-position order as covering reads of at
        most :attr:`GATHER_SPAN` entries each, so a scattered gather is
        O(result + span) resident no matter how the ids spread over the
        file.  Negative ids index from the end (numpy semantics).
        """
        self._check_open()
        dt = self.COLUMN_DTYPES[column]
        ids = np.asarray(ids, dtype=np.int64)
        k = ids.size
        if k == 0:
            return np.empty(0, dtype=dt)
        if np.any(ids < 0):
            ids = np.where(ids < 0, ids + self.m, ids)
        if np.any((ids < 0) | (ids >= self.m)):
            raise IndexError(f"edge id out of range for m={self.m}")
        order = None
        sid = ids
        if np.any(np.diff(ids) < 0):
            order = np.argsort(ids, kind="stable")
            sid = ids[order]
        res = np.empty(k, dtype=dt)
        i = 0
        while i < k:
            lo = int(sid[i])
            j = max(
                int(np.searchsorted(sid, lo + self.GATHER_SPAN, side="left")),
                i + 1,
            )
            hi = int(sid[j - 1]) + 1
            block = self.read_raw_slice(column, lo, hi)
            res[i:j] = block[sid[i:j] - lo]
            i = j
        if order is None:
            return res
        out = np.empty(k, dtype=dt)
        out[order] = res
        return out

    def read_chunk(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copy edges ``[start, stop)`` out as ``(src, dst, weight)``
        int64/int64/float64 arrays (the library's native dtypes)."""
        src = self.read_raw_slice(0, start, stop).astype(np.int64)
        dst = self.read_raw_slice(1, start, stop).astype(np.int64)
        w = self.read_raw_slice(2, start, stop).astype(np.float64)
        return src, dst, w

    def validate(self, chunk_edges: int = DEFAULT_CHUNK_EDGES) -> None:
        """Full-scan content validation in ``chunk_edges`` slices.

        Endpoints canonical and in range, keys strictly increasing
        across the whole file, weights finite and positive; a corrupt
        file raises a typed :class:`EdgeDataError` at the first
        offending edge.  O(chunk) memory.  The file is opened read-only
        and immutable for the handle's lifetime, so the result is
        remembered: once a scan completes, later calls are free.
        """
        if chunk_edges < 1:
            raise ValueError("chunk_edges must be positive")
        self._check_open()
        if self._content_validated:
            return
        last_key = -1
        for start in range(0, self.m, chunk_edges):
            stop = min(start + chunk_edges, self.m)
            src, dst, w = self.read_chunk(start, stop)
            last_key = _check_chunk(src, dst, w, self.n, start, last_key, self.path)
        self._content_validated = True

    # ------------------------------------------------------------------
    def fingerprint(self, chunk_edges: int = DEFAULT_CHUNK_EDGES) -> str:
        """Streaming :meth:`Graph.fingerprint
        <repro.util.graph.Graph.fingerprint>` of the stored instance.

        Byte-identical to materializing the file into a
        :class:`~repro.util.graph.Graph` and fingerprinting that
        (storage order == canonical key order by invariant), but
        computed in three O(chunk)-memory column passes plus a chunked
        all-ones capacity pass -- the columnar layout makes each pass a
        contiguous read.  This is what lets file-backed problems keep
        their content address (service cache, shard router) without
        ever holding the edge list in RAM.
        """
        self._check_open()
        h = hashlib.sha256()
        h.update(b"repro-graph-v1")
        h.update(np.int64(self.n).tobytes())
        for column, dtype in ((0, np.int64), (1, np.int64), (2, np.float64)):
            for start in range(0, self.m, chunk_edges):
                part = self.read_raw_slice(column, start, start + chunk_edges)
                h.update(np.ascontiguousarray(part, dtype=dtype).tobytes())
            if self.m == 0:
                h.update(np.empty(0, dtype=dtype).tobytes())
        ones = np.ones(min(self.n, max(1, chunk_edges)), dtype=np.int64)
        remaining = self.n
        while remaining > 0:
            take = min(remaining, len(ones))
            h.update(ones[:take].tobytes())
            remaining -= take
        return h.hexdigest()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._closed:
            self._fh.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise IngestError("EdgeFile is closed", path=self.path)

    def __enter__(self) -> "EdgeFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeFile(path={str(self.path)!r}, n={self.n}, m={self.m})"


def open_edges(
    path: str | os.PathLike, validate: bool = False
) -> EdgeFile:
    """Open a finalized ``.edges`` file for chunked reading.

    Header structure, declared-vs-actual size and the finalized marker
    are always checked; ``validate=True`` additionally runs a full
    O(chunk)-memory content scan (:meth:`EdgeFile.validate`) before
    returning.  The edges are streamed through a
    :class:`~repro.ingest.filegraph.FileBackedGraph`, which runs that
    scan when it opens the file, so corruption is never silent either
    way -- ``validate=True`` only moves the failure to this call.
    """
    ef = EdgeFile(path)
    if validate:
        ef.validate()
    return ef


# ======================================================================
# Writer
# ======================================================================
class EdgeFileWriter:
    """Chunked writer for a ``.edges`` file with a known edge count.

    The column layout needs ``m`` up front (the ``dst`` column starts at
    byte ``40 + 4m``); generators and converters always know it.  The
    header is written with the *unfinalized* sentinel first and patched
    to ``m`` only by :meth:`finalize` after every edge landed, so a
    crashed writer leaves a file every reader refuses rather than a
    silently short graph.

    Appended chunks are validated on the way in (canonical endpoints,
    strictly increasing keys across append boundaries, finite positive
    weights), so an invalid instance can never be *produced* either.
    """

    def __init__(self, path: str | os.PathLike, n: int, m: int):
        n = int(n)
        m = int(m)
        if n < 0 or n > MAX_N:
            raise IngestError(f"n={n} outside [0, {MAX_N}]", path=path)
        if m < 0:
            raise IngestError(f"m={m} must be nonnegative", path=path)
        self.path = Path(path)
        self.n = n
        self.m = m
        self._written = 0
        self._last_key = -1
        self._fh = open(self.path, "w+b")
        self._fh.write(_pack_header(n, m, _SENTINEL))
        self._fh.truncate(_expected_size(m))
        self._finalized = False

    # ------------------------------------------------------------------
    def append(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> None:
        """Append one chunk of canonical, key-sorted edges.

        ``weight=None`` writes unit weights.  Raises
        :class:`EdgeDataError` (with the absolute edge index) on any
        invalid edge; nothing of the offending chunk is committed.
        """
        if self._finalized:
            raise IngestError("writer already finalized", path=self.path)
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        w = (
            np.ones(len(src), dtype=np.float64)
            if weight is None
            else np.ascontiguousarray(weight, dtype=np.float64)
        )
        if not (len(src) == len(dst) == len(w)):
            raise IngestError("append arrays must have equal length", path=self.path)
        k = len(src)
        if k == 0:
            return
        if self._written + k > self.m:
            raise IngestError(
                f"append overflows declared m={self.m} "
                f"({self._written} written, {k} more offered)",
                path=self.path,
            )
        start = self._written
        last_key = _check_chunk(src, dst, w, self.n, start, self._last_key, self.path)
        # three positioned column writes per chunk
        self._fh.seek(HEADER_BYTES + 4 * start)
        self._fh.write(src.astype("<u4").tobytes())
        self._fh.seek(HEADER_BYTES + 4 * self.m + 4 * start)
        self._fh.write(dst.astype("<u4").tobytes())
        self._fh.seek(HEADER_BYTES + 8 * self.m + 8 * start)
        self._fh.write(w.astype("<f8").tobytes())
        self._written += k
        self._last_key = last_key

    def finalize(self) -> Path:
        """Patch the finalized marker; the file becomes openable."""
        if self._finalized:
            return self.path
        if self._written != self.m:
            raise IngestError(
                f"finalize with {self._written} of {self.m} edges written",
                path=self.path,
            )
        self._fh.seek(32)
        self._fh.write(struct.pack("<Q", self.m))
        self._fh.flush()
        self._fh.close()
        self._finalized = True
        return self.path

    def abort(self) -> None:
        """Close without finalizing (the file stays refusable)."""
        if not self._finalized:
            self._fh.close()
            self._finalized = True

    def __enter__(self) -> "EdgeFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self.abort()


# ======================================================================
# One-shot conveniences
# ======================================================================
def write_edges(
    path: str | os.PathLike,
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Path:
    """Write in-RAM edge arrays to ``path`` (canonicalizing first).

    Orientation is canonicalized and the edges key-sorted before the
    chunked write; duplicate keys raise :class:`EdgeDataError` (the
    on-disk format is duplicate-free by construction -- merge parallel
    edges with :func:`repro.util.graph.merge_parallel_edges` first if
    the input carries multiplicity).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = (
        np.ones(len(src), dtype=np.float64)
        if weight is None
        else np.asarray(weight, dtype=np.float64)
    )
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    order = np.argsort(lo * np.int64(n) + hi, kind="stable")
    lo, hi, w = lo[order], hi[order], w[order]
    with EdgeFileWriter(path, n, len(lo)) as writer:
        for start in range(0, len(lo), chunk_edges):
            stop = start + chunk_edges
            writer.append(lo[start:stop], hi[start:stop], w[start:stop])
    return Path(path)


def write_graph_file(
    path: str | os.PathLike,
    graph,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Path:
    """Write a :class:`~repro.util.graph.Graph` to a ``.edges`` file.

    Version 1 carries no capacity column, so only plain-matching
    instances (``b`` all ones) are representable; anything else raises
    :class:`IngestError` rather than silently dropping capacities.
    """
    if not bool(np.all(np.asarray(graph.b) == 1)):
        raise IngestError(
            "the .edges v1 format has no capacity column; "
            "graph.b must be all ones",
            path=path,
        )
    return write_edges(
        path, graph.n, graph.src, graph.dst, graph.weight, chunk_edges=chunk_edges
    )
