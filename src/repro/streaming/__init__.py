"""Semi-streaming model: streams, single-pass sparsification, dynamic sketches."""

from repro.streaming.semi_streaming import (
    dynamic_stream_spanning_forest,
    streaming_greedy_matching,
    streaming_sparsify,
)
from repro.streaming.stream import DynamicEdgeStream, EdgeStream, StreamEvent
from repro.streaming.streaming_matching import (
    SemiStreamingMatchingSolver,
    StreamingDeferredChain,
    StreamingDeferredSparsifier,
)

__all__ = [
    "EdgeStream",
    "DynamicEdgeStream",
    "StreamEvent",
    "streaming_sparsify",
    "streaming_greedy_matching",
    "dynamic_stream_spanning_forest",
    "SemiStreamingMatchingSolver",
    "StreamingDeferredChain",
    "StreamingDeferredSparsifier",
]
