"""Offline matching substrate: greedy, maximal, local search, exact, verify."""

from repro.matching.augmenting import local_search_matching, two_opt_pass
from repro.matching.exact import (
    enumerate_odd_sets,
    max_weight_bmatching_exact,
    max_weight_matching_exact,
)
from repro.matching.greedy import greedy_bmatching, greedy_matching
from repro.matching.maximal import (
    is_maximal,
    maximal_bmatching,
    maximal_bmatching_sampled,
)
from repro.matching.structures import BMatching
from repro.matching.verify import (
    approximation_ratio,
    exact_optimum,
    verify_dual_upper_bound,
)

__all__ = [
    "BMatching",
    "greedy_bmatching",
    "greedy_matching",
    "maximal_bmatching",
    "maximal_bmatching_sampled",
    "is_maximal",
    "local_search_matching",
    "two_opt_pass",
    "max_weight_matching_exact",
    "max_weight_bmatching_exact",
    "enumerate_odd_sets",
    "approximation_ratio",
    "verify_dual_upper_bound",
    "exact_optimum",
]
