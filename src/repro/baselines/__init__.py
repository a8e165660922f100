"""Baselines the paper compares against: filtering [25], McGregor [29],
one-pass gamma-charging [16], and the pass-based bipartite auction."""

from repro.baselines.auction import auction_backend_run, bipartite_sides
from repro.baselines.lattanzi_filtering import lattanzi_backend_run
from repro.baselines.mcgregor import mcgregor_backend_run
from repro.baselines.streaming_weighted import (
    charging_approximation_bound,
    one_pass_backend_run,
)

__all__ = [
    "lattanzi_backend_run",
    "mcgregor_backend_run",
    "one_pass_backend_run",
    "charging_approximation_bound",
    "auction_backend_run",
    "bipartite_sides",
]
