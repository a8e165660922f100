"""Lemma 13: turn an LP7 witness into an integral matching on the support.

Part (i) of the MicroOracle hands back a feasible point of LP7 living on
the sampled support ``E'``.  Lemma 13 says that such a point certifies
``β̃(E') >= (1-ε)β`` and hence (through Theorem 23's layered-relaxation
equivalence) the *integral* maximum b-matching restricted to ``E'`` has
weight at least ``(1-2ε)β`` -- so running any offline (1-ε')-approximate
matching on the support recovers it.

:func:`extract_witness_matching` performs exactly that materialization
and *checks the promised bound numerically*, returning both the matching
and a :class:`WitnessReport` stating whether the Lemma 13 inequality was
met (it must be, up to the offline oracle's own slack -- a failed check
indicates a bug upstream, not bad luck, and raises by default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.levels import LevelDecomposition
from repro.core.micro_oracle import OracleWitness
from repro.matching.augmenting import local_search_matching
from repro.matching.exact import max_weight_bmatching_exact
from repro.matching.structures import BMatching
from repro.util.graph import Graph

__all__ = ["WitnessReport", "extract_witness_matching", "lp7_feasibility_report"]


@dataclass
class WitnessReport:
    """Outcome of a Lemma 13 extraction.

    ``promised`` is the rescaled weight Lemma 13 guarantees on the
    support -- ``(1 - 2 eps) * beta``; ``achieved`` is the rescaled
    weight of the extracted integral matching.
    """

    promised: float
    achieved: float
    support_edges: int
    lp7_value: float

    @property
    def met(self) -> bool:
        return self.achieved >= self.promised - 1e-9


def _rescaled_weight(levels: LevelDecomposition, matching: BMatching) -> float:
    """Matching value in rescaled units (dropped edges contribute 0)."""
    lv = levels.level[matching.edge_ids]
    live = lv >= 0
    return float(
        (levels.level_weight(lv[live]) * matching.multiplicity[live]).sum()
    )


def extract_witness_matching(
    levels: LevelDecomposition,
    witness: OracleWitness,
    beta: float,
    eps: float | None = None,
    offline: str = "exact",
    strict: bool = True,
) -> tuple[BMatching, WitnessReport]:
    """Materialize the integral matching Lemma 13 promises.

    Parameters
    ----------
    witness:
        The LP7 point (edge values keyed by graph edge id).
    beta:
        The dual budget the witness was produced against (rescaled
        units).
    offline:
        "exact" (blossom / vertex splitting) or "local" (greedy+2opt) on
        the support subgraph.
    strict:
        Raise when the extracted weight misses the promise (the lemma is
        a theorem -- a miss means an implementation bug).  With
        ``strict=False`` callers can record the report instead.
    """
    g = levels.graph
    eps = levels.eps if eps is None else eps
    support_ids = np.asarray(sorted(witness.y), dtype=np.int64)
    support_ids = support_ids[levels.level[support_ids] >= 0]
    sub = g.edge_subgraph(support_ids)
    # run the offline oracle on nominal (rescaled) weights so the bound
    # is measured in the same units as beta
    sub_nominal = sub.copy()
    sub_nominal.weight = np.asarray(
        levels.level_weight(levels.level[support_ids]), dtype=np.float64
    )
    if offline == "exact":
        sub_match = max_weight_bmatching_exact(sub_nominal)
    else:
        sub_match = local_search_matching(sub_nominal)
    matching = BMatching(
        g, support_ids[sub_match.edge_ids], sub_match.multiplicity
    )
    report = WitnessReport(
        promised=(1.0 - 2.0 * eps) * beta,
        achieved=_rescaled_weight(levels, matching),
        support_edges=len(support_ids),
        lp7_value=witness.lp7_value,
    )
    if strict and not report.met:
        raise AssertionError(
            f"Lemma 13 violated: extracted {report.achieved:.6g} < "
            f"promised {report.promised:.6g} on {report.support_edges} edges"
        )
    return matching, report


def lp7_feasibility_report(
    levels: LevelDecomposition,
    witness: OracleWitness,
    tol: float = 1e-7,
) -> dict:
    """Numerically audit the witness against LP7's constraint families.

    Checks the per-(vertex, level) constraint
    ``sum_{j:(i,j) in E'_k} (y_ij - 2 mu_ik) <= y_i(k)`` with
    ``sum_k y_i(k) <= b_i`` -- folded together as in the Lemma 14 proof:
    for every vertex and every *set* of levels, the net demand is at
    most ``b_i``.  (Checking all 2^L subsets is equivalent to checking
    the positive parts, which is what we do.)  Odd-set families are
    checked by the oracle itself before emitting a witness; this report
    covers the vertex side that the extraction relies on.
    """
    g = levels.graph
    n, L = g.n, levels.num_levels
    net = np.zeros((n, L))
    for e, yv in witness.y.items():
        k = int(levels.level[e])
        if k < 0:
            continue
        net[g.src[e], k] += yv
        net[g.dst[e], k] += yv
    net -= 2.0 * witness.mu
    demand = np.maximum(net, 0.0).sum(axis=1)
    slack = g.b.astype(np.float64) - demand
    worst = float(slack.min()) if n else 0.0
    return {
        "vertex_feasible": bool(worst >= -tol),
        "worst_vertex_slack": worst,
        "total_y": float(sum(witness.y.values())),
        "total_mu": float(witness.mu.sum()),
    }
