"""Shared substrate: graphs, RNG plumbing, validation, resource ledgers."""

from repro.util.graph import CSRAdjacency, Graph, edge_key, merge_parallel_edges
from repro.util.instrumentation import ResourceLedger, SpaceHighWater
from repro.util.rng import derive_seed, make_rng, spawn
from repro.util.validation import (
    check_epsilon,
    check_positive_weights,
    require,
)

__all__ = [
    "Graph",
    "CSRAdjacency",
    "edge_key",
    "merge_parallel_edges",
    "ResourceLedger",
    "SpaceHighWater",
    "make_rng",
    "spawn",
    "derive_seed",
    "check_epsilon",
    "check_positive_weights",
    "require",
]
