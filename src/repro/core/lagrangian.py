"""Lagrangian binary search gluing MicroOracle to Oracle-P (Lemma 10).

The packing framework (Theorem 7) wants an Oracle-P solving **Inner**:

    z^T Po x <= (13/12) z^T qo   and   the covering condition Q(us, beta).

The MicroOracle only solves the *Lagrangian relaxation* **LagInner** for
a given multiplier ``rho > 0``:

    (us)^T A x - rho zeta^T Po x >= (1 - eps/16)[(us)^T c - rho zeta^T qo].

Lemma 10's reduction: if the solution at the invoked ``rho`` already
satisfies the Po budget we are done; ``x = 0`` is feasible for large
``rho``; otherwise binary-search ``rho`` down to an interval
``[rho1, rho2]`` of width ``<= rho0 * eps/16`` whose endpoints straddle
the budget, and return the convex combination ``s1 x̃1 + s2 x̃2`` that
meets the budget with equality -- the lemma's algebra shows it also
satisfies Inner's covering requirement.

The implementation is generic over the solution type ``X`` (the matching
solver passes :class:`~repro.core.micro_oracle.OracleDualStep` objects);
the caller supplies ``combine`` and evaluates the oracle itself.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

__all__ = ["LagrangianState"]

X = TypeVar("X")


class LagrangianState(Generic[X]):
    """Lemma 10's search as a resumable state machine.

    The matching solver's lockstep engine advances many states at once:
    one batched Algorithm 5 evaluation per step for every instance still
    searching.  Protocol: evaluate the oracle at :attr:`pending_rho`,
    feed the solution and its packing load to :meth:`advance`, and
    repeat until :attr:`outcome` is set.  The caller checks that
    ``qo_budget`` and ``usc`` are positive.

    Stages: ``init`` (the Lemma 10 starting multiplier), ``double``
    (growing ``rho_hi`` until the Po budget holds), ``bisect``
    (narrowing ``[rho_lo, rho_hi]``); then the outcome is either the
    first budget-respecting solution, the degenerate last doubling
    step, or the two-point combination.
    """

    __slots__ = (
        "combine",
        "max_invocations",
        "stage",
        "cap",
        "tol",
        "rho0",
        "rho_lo",
        "rho_hi",
        "rho_mid",
        "x_lo",
        "x_hi",
        "po_lo",
        "po_hi",
        "pending_rho",
        "invocations",
        "outcome",
        "combined",
        "rho_interval",
    )

    def __init__(
        self,
        combine: Callable[[X, X, float, float], X],
        qo_budget: float,
        usc: float,
        eps: float,
        max_invocations: int = 80,
    ):
        self.combine = combine
        self.max_invocations = max_invocations
        self.cap = (13.0 / 12.0) * qo_budget  # Upsilon
        self.rho0 = 12.0 * usc / (13.0 * qo_budget)
        self.tol = self.rho0 * eps / 16.0
        # initial multiplier: rho = (us)^T c / (16 zeta^T qo) per Lemma 10
        self.rho_lo = usc / (16.0 * qo_budget)
        self.rho_hi = 0.0
        self.rho_mid = 0.0
        self.x_lo = None
        self.x_hi = None
        self.po_lo = 0.0
        self.po_hi = 0.0
        self.invocations = 0
        self.outcome: X | None = None
        self.combined = False
        self.rho_interval = (self.rho_lo, self.rho_lo)
        self.stage = "init"
        self.pending_rho: float | None = self.rho_lo

    def advance(self, x: X, po: float) -> None:
        """Feed the solution at :attr:`pending_rho` and its load ``z^T Po x``."""
        self.invocations += 1
        self.pending_rho = None
        if self.stage == "init":
            self.x_lo, self.po_lo = x, po
            if po <= self.cap:
                self.outcome = x
                return
            # x = 0 (any solution at rho >= rho0) satisfies the budget
            self.rho_hi = max(self.rho0, self.rho_lo * 2.0)
            self.stage = "double"
            self.pending_rho = self.rho_hi
            return
        if self.stage == "double":
            self.x_hi, self.po_hi = x, po
            if po > self.cap:
                if self.invocations < self.max_invocations:
                    self.rho_hi *= 2.0
                    self.pending_rho = self.rho_hi
                else:
                    # degenerate; return the budget-respecting zero-equivalent
                    self.outcome = x
                    self.rho_interval = (self.rho_hi, self.rho_hi)
                return
            self.stage = "bisect"
            self._next_bisection()
            return
        if po > self.cap:
            self.rho_lo, self.x_lo, self.po_lo = self.rho_mid, x, po
        else:
            self.rho_hi, self.x_hi, self.po_hi = self.rho_mid, x, po
        self._next_bisection()

    def _next_bisection(self) -> None:
        # narrow [rho_lo, rho_hi] until the interval is eps/16 * rho0 wide
        if (
            self.rho_hi - self.rho_lo > self.tol
            and self.invocations < self.max_invocations
        ):
            self.rho_mid = 0.5 * (self.rho_lo + self.rho_hi)
            self.pending_rho = self.rho_mid
            return
        up1, up2 = self.po_lo, self.po_hi  # > cap, <= cap
        denom = up1 - up2
        if denom <= 1e-15:
            s1 = 0.0
        else:
            s1 = (self.cap - up2) / denom
        s1 = min(max(s1, 0.0), 1.0)
        self.outcome = self.combine(self.x_lo, self.x_hi, s1, 1.0 - s1)
        self.combined = True
        self.rho_interval = (self.rho_lo, self.rho_hi)

