"""Linear-sketch substrate: hash families, ℓ0 samplers, AGM graph sketches."""

from repro.sketch.graph_sketch import VertexIncidenceSketch, decode_edge, encode_edge
from repro.sketch.hashing import MERSENNE_P, PolyHash, uniform_from_hash
from repro.sketch.l0_sampler import L0Sampler
from repro.sketch.support_find import sketch_connected_components, sketch_spanning_forest
from repro.sketch.tensor import MergedSketchView, SketchTensor, derive_l0_params

__all__ = [
    "PolyHash",
    "MERSENNE_P",
    "uniform_from_hash",
    "L0Sampler",
    "VertexIncidenceSketch",
    "encode_edge",
    "decode_edge",
    "sketch_spanning_forest",
    "sketch_connected_components",
    "SketchTensor",
    "MergedSketchView",
    "derive_l0_params",
]
