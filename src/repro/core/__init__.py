"""The paper's contribution: dual-primal framework and the matching solver."""

from repro.core.certificates import Certificate, MatchingResult, certify
from repro.core.initial import InitialSolution, build_initial_solution
from repro.core.laminar import (
    is_laminar,
    layered_from_flat,
    optimal_flat_dual,
    uncross_to_laminar,
)
from repro.core.levels import LevelDecomposition, discretize
from repro.core.lp_library import (
    LPSolution,
    solve_lp1,
    solve_lp2,
    solve_lp3,
    solve_lp4,
)
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.core.micro_oracle import (
    OracleDualStep,
    OracleWitness,
    SupportVector,
    micro_oracle,
)
from repro.core.odd_sets import OddSetFamily, find_dense_odd_sets, odd_cut_value
from repro.core.witness import (
    WitnessReport,
    extract_witness_matching,
    lp7_feasibility_report,
)
from repro.core.relaxations import (
    PENALTY_WIDTH_BOUND,
    LayeredDual,
    covering_width_lp2,
    covering_width_lp4,
)

__all__ = [
    "LevelDecomposition",
    "discretize",
    "LayeredDual",
    "PENALTY_WIDTH_BOUND",
    "covering_width_lp2",
    "covering_width_lp4",
    "OddSetFamily",
    "find_dense_odd_sets",
    "odd_cut_value",
    "InitialSolution",
    "build_initial_solution",
    "OracleDualStep",
    "OracleWitness",
    "SupportVector",
    "micro_oracle",
    "Certificate",
    "MatchingResult",
    "certify",
    "DualPrimalMatchingSolver",
    "SolverConfig",
    "is_laminar",
    "uncross_to_laminar",
    "layered_from_flat",
    "optimal_flat_dual",
    "WitnessReport",
    "extract_witness_matching",
    "lp7_feasibility_report",
    "LPSolution",
    "solve_lp1",
    "solve_lp2",
    "solve_lp3",
    "solve_lp4",
]
