"""Approximation certificates: rigorous dual upper bounds.

The solver's claim "this matching is (1-eps)-approximate" must be
auditable.  :func:`certify` converts the layered dual state into an
explicit LP2-feasible point (in original weight units) whose objective
is, by weak duality, an upper bound on the maximum b-matching weight.
It starts from the collapsed layers, ``x_i = scale * max_k x_i(k)``
and ``z_U = scale * sum_l z_{U,l}``, and takes three steps:

* **exact rescale** -- multiply by ``f = 1 / rho``, where ``rho`` is
  the smallest ratio cover / weight of the collapsed point over the
  live edges, in original units, so every live edge constraint holds.
  ``rho`` is measured in the same ranged pass as the layered
  ``lambda``.  A level-``k`` edge weighs under ``(1+eps) ŵ_k`` scale
  units and the collapse covers it at least as much as its level does,
  so ``rho >= lambda / (1+eps)``: ``f`` is at most the worst-case
  factor ``(1+eps) / lambda``, which also caps it against rounding;
* **pad** -- add ``scale/2`` to every vertex so the *dropped*
  (below-threshold) edges, whose weight is under ``scale``, are
  covered too;
* **half-slack passes** -- :data:`HALF_SLACK_PASSES` times, every
  vertex drops by half the smallest slack ``cover - weight`` over its
  edges, never below 0.  An edge's endpoints each drop by at most half
  its slack, so every edge stays covered.  A vertex with a negative
  slack does not drop; a vertex with no edges ends at 0.

Before the passes the point is at or below the worst-case point
``(1+eps)/lambda * x + scale/2`` entry by entry, and the passes only
lower it, so the bound never exceeds that point's.  Each step is one
:meth:`~repro.util.graph.Graph.edge_ranges` pass, so a file-backed
graph is never materialized.  Feasibility of the resulting point is
*checked numerically edge by edge*
(:func:`repro.matching.verify.verify_dual_upper_bound`), so the
returned bound never depends on the analysis being right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.relaxations import LayeredDual
from repro.matching.structures import BMatching
from repro.matching.verify import (
    _edge_cover,
    _odd_set_members,
    verify_dual_upper_bound,
)
from repro.util.graph import Graph

__all__ = ["Certificate", "MatchingResult", "certify"]

#: Half-slack passes per certificate, each one ranged edge pass.
HALF_SLACK_PASSES = 3

#: Relative float-safety nudge: the rescale covers each live edge
#: ``1 + _NUDGE`` times over, and a half-slack pass leaves ``_NUDGE``
#: of each edge's cover in place.
_NUDGE = 1e-9


@dataclass
class Certificate:
    """A verified dual upper bound on the maximum b-matching weight.

    ``x`` / ``z`` are the *verified* feasible point: the raw collapse
    rescaled by ``scale_factor`` (``f = 1 / rho``, the exact factor
    that covers every live edge), padded so dropped edges are covered,
    then lowered by the half-slack passes.  ``dual_x`` / ``dual_z``
    keep the raw collapsed LP2 point in original units, before any of
    that.  Warm starts reuse the raw point: re-deriving it from the
    verified one would compound the rescale/padding across generations.
    ``lambda_min`` is the layered dual's minimum coverage ratio.
    """

    upper_bound: float
    lambda_min: float
    dual_objective_rescaled: float
    scale_factor: float
    x: np.ndarray
    z: dict[tuple[int, ...], float]
    dual_x: np.ndarray | None = None
    dual_z: dict[tuple[int, ...], float] | None = None

    def certified_ratio(self, primal_weight: float) -> float:
        """Lower bound on the true approximation ratio of ``primal_weight``."""
        if self.upper_bound <= 0:
            return 1.0 if primal_weight <= 0 else float("inf")
        return primal_weight / self.upper_bound


def _half_slack_pass(
    g: Graph, x: np.ndarray, members_z: list[tuple[np.ndarray, float]]
) -> np.ndarray:
    """Lower each vertex by half the smallest slack over its edges.

    Slacks are read one edge range at a time into a per-vertex minimum
    (exact, so the result does not depend on the ranges).  A negative
    minimum lowers nothing; a vertex with no edges (minimum ``inf``)
    ends at 0.
    """
    least = np.full(g.n, np.inf)
    for start, stop in g.edge_ranges():
        src = np.asarray(g.src[start:stop])
        dst = np.asarray(g.dst[start:stop])
        w = np.asarray(g.weight[start:stop])
        slack = (1.0 - _NUDGE) * _edge_cover(x, src, dst, members_z) - w
        np.minimum.at(least, src, slack)
        np.minimum.at(least, dst, slack)
    return np.maximum(x - 0.5 * np.maximum(least, 0.0), 0.0)


def certify(dual: LayeredDual) -> Certificate:
    """Produce (and verify) an upper bound from the current dual state."""
    levels = dual.levels
    g = levels.graph
    xs, zs = dual.lp2_certificate()
    zpos = {U: v for U, v in zs.items() if v > 0}
    members_z = _odd_set_members(g.n, zpos)
    # one ranged pass: the layered lambda (as LayeredDual.lambda_min)
    # and rho, the collapsed point's smallest live cover / weight
    lam = rho = np.inf
    found = False
    for start, stop, live, src, dst, _kl, ratios in dual._live_ratio_chunks():
        found = True
        lam = min(lam, float(ratios.min()))
        w = np.asarray(g.weight[start:stop])[live]
        rho = min(rho, float((_edge_cover(xs, src, dst, members_z) / w).min()))
    lam = float(lam) if found else 1.0
    # lambda is measured against the rounded-down nominal weights ŵ_k;
    # true weights can exceed them by (1+eps), plus a float-safety nudge
    worst = (1.0 + levels.eps) * (1.0 + _NUDGE) / max(lam, 1e-12)
    f = min((1.0 + _NUDGE) / max(rho, 1e-12), worst)
    x_cert = f * xs + 0.5 * levels.scale
    z_cert = {U: f * v for U, v in zpos.items()}
    members_z = [(members, f * zu) for members, zu in members_z]
    for _ in range(HALF_SLACK_PASSES):
        x_cert = _half_slack_pass(g, x_cert, members_z)
    bound = verify_dual_upper_bound(g, x_cert, z_cert)
    return Certificate(
        upper_bound=bound,
        lambda_min=lam,
        dual_objective_rescaled=dual.objective(),
        scale_factor=f,
        x=x_cert,
        z=z_cert,
        dual_x=xs,
        dual_z=zs,
    )


@dataclass
class MatchingResult:
    """Everything a solver run produces.

    Attributes
    ----------
    matching:
        The best integral b-matching found.
    certificate:
        Verified dual upper bound (weak-duality certificate).
    rounds:
        Adaptive sampling rounds consumed (the paper's headline count).
    lambda_min:
        Final covering ratio of the dual.
    history:
        Per-round records (primal value, beta, lambda, route counts).
    resources:
        Ledger snapshot (rounds, refinements, oracle calls, space).
    """

    matching: BMatching
    certificate: Certificate
    rounds: int
    lambda_min: float
    beta_final: float
    history: list[dict] = field(default_factory=list)
    resources: dict = field(default_factory=dict)

    @property
    def weight(self) -> float:
        return self.matching.weight()

    @property
    def certified_ratio(self) -> float:
        return self.certificate.certified_ratio(self.weight)

    def summary(self) -> dict:
        return {
            "weight": self.weight,
            "upper_bound": self.certificate.upper_bound,
            "certified_ratio": self.certified_ratio,
            "rounds": self.rounds,
            "lambda": self.lambda_min,
            **self.resources,
        }
