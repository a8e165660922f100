"""Simulated MapReduce: engine, canonical sketch jobs, congested-clique view."""

from repro.mapreduce.accounting import (
    ComplianceReport,
    ResourceModel,
    central_space_budget,
    message_size_budget,
    rounds_budget,
)
from repro.mapreduce.clique_sim import CongestedClique, MessageBudgetExceeded
from repro.mapreduce.congested_clique import CongestedCliqueReport, congested_clique_view
from repro.mapreduce.engine import (
    MapReduceEngine,
    MapReduceJob,
    ReducerMemoryExceeded,
    value_words,
)
from repro.mapreduce.jobs import mapreduce_vertex_sketches

__all__ = [
    "MapReduceEngine",
    "MapReduceJob",
    "ReducerMemoryExceeded",
    "value_words",
    "mapreduce_vertex_sketches",
    "CongestedCliqueReport",
    "congested_clique_view",
    "ResourceModel",
    "ComplianceReport",
    "central_space_budget",
    "message_size_budget",
    "rounds_budget",
    "CongestedClique",
    "MessageBudgetExceeded",
]
