"""Out-of-core edge ingestion: the disk-backed edge-list layer.

AhnG15's premise is a graph too large to hold; this package is where
the repo stops assuming otherwise.  It provides:

* :mod:`repro.ingest.format` -- the ``.edges`` binary format: 40-byte
  header + positioned-read little-endian columns (src/dst ``uint32``,
  weight ``float64``), canonical key-sorted, duplicate-free, with an
  unfinalized-write sentinel and a typed :class:`IngestError` taxonomy
  (never a silent partial graph).
* :class:`FileBackedGraph` -- a lazy :class:`~repro.util.graph.Graph`
  whose fingerprint streams from disk; whole-column loads are governed
  by its ``materialize_policy`` and counted by the
  ``repro_ingest_materializations_total`` metric family.  It is how a
  file is streamed: :class:`~repro.streaming.stream.EdgeStream` over it
  reads ``chunk_edges`` edges per positioned read, O(chunk) resident,
  pass-counted like any other stream.
* :func:`convert_text_edges` -- text/CSV interop.

The facade entry point is ``Problem.from_edge_file(path)``; see
``docs/ingest.md`` for the format spec, the memory model and
chunk-size guidance.
"""

from repro.ingest.convert import convert_text_edges
from repro.ingest.filegraph import (
    MATERIALIZE_POLICIES,
    FileBackedGraph,
    MaterializationForbidden,
    materialization_counts,
    materializations_total,
)
from repro.ingest.format import (
    DEFAULT_CHUNK_EDGES,
    EdgeDataError,
    EdgeFile,
    EdgeFileWriter,
    IngestError,
    IngestFormatError,
    TruncatedFileError,
    open_edges,
    write_edges,
    write_graph_file,
)

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "EdgeDataError",
    "EdgeFile",
    "EdgeFileWriter",
    "FileBackedGraph",
    "IngestError",
    "IngestFormatError",
    "MATERIALIZE_POLICIES",
    "MaterializationForbidden",
    "TruncatedFileError",
    "convert_text_edges",
    "materialization_counts",
    "materializations_total",
    "open_edges",
    "write_edges",
    "write_graph_file",
]
