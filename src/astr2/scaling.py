"""Scaling-factor families defining the trust-region radii.

Two families are supported.  The Adagrad-like family accumulates squared
gradient norms over the linear-step iterations and cubed clipped measures
over the quadratic-step iterations,

    hat_wL_k = (varsigma + sum_{l <= k, l in K^L} ||g_l||^2)^mu,
    hat_wQ_k = (varsigma + sum_{l <= k, l in K^Q} hatphi_l^3)^nu,

and emits any w in [theta * hat_w, hat_w].  The divergent family emits
w^L_k = c (k+1)^{e1}, w^Q_k = c (k+1)^{e2} inside prescribed exponent bands,
growing without bound.

The iteration's own term enters the matching accumulator before the weights
are emitted (the driver decides the branch first, which only needs g_k and
hatphi_k), so the sums include the current index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class AdagradScaling:
    """State of the Adagrad-like scaling family.

    Emits a point of the admissible interval [theta * hat_w, hat_w],
    alternating deterministically between its two ends via
    w = (theta + (1 - theta) * (k mod 2)) * hat_w; at theta = 1, the
    default, this is hat_w itself (the classic choice).
    """

    varsigma: float = 1.0
    mu: float = 0.5
    nu: float = 1.0 / 3.0
    theta_l: float = 1.0
    theta_q: float = 1.0
    a_accum: float = field(default=0.0)
    b_accum: float = field(default=0.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.varsigma < math.inf:
            raise ValueError(f"varsigma must be positive and finite, got {self.varsigma!r}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must be in (0, 1), got {self.mu!r}")
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must be in (0, 1), got {self.nu!r}")
        if not 0.0 < self.theta_l <= 1.0:
            raise ValueError(f"theta_l must be in (0, 1], got {self.theta_l!r}")
        if not 0.0 < self.theta_q <= 1.0:
            raise ValueError(f"theta_q must be in (0, 1], got {self.theta_q!r}")

    def weights(
        self, k: int, branch: str, g_norm_sq: float, hatphi_cubed: float
    ) -> tuple[float, float]:
        """Update the accumulator of the decided branch and emit (w^L_k, w^Q_k).

        The branch for iteration k must already be decided; its own term is
        added to the matching accumulator before the weights are computed.
        """
        if branch == "L":
            self.a_accum += g_norm_sq
        elif branch == "Q":
            self.b_accum += hatphi_cubed
        else:
            raise ValueError(f"branch must be 'L' or 'Q', got {branch!r}")
        hat_wl = (self.varsigma + self.a_accum) ** self.mu
        hat_wq = (self.varsigma + self.b_accum) ** self.nu
        fl = self.theta_l + (1.0 - self.theta_l) * (k % 2)
        fq = self.theta_q + (1.0 - self.theta_q) * (k % 2)
        return fl * hat_wl, fq * hat_wq


@dataclass
class DivergentScaling:
    """State of the divergent-stepsize scaling family.

    Emits w^L_k = c (k+1)^{e1} and w^Q_k = c (k+1)^{e2}.  The admissible
    bands are c in [varsigma, kappa_w], e1 in [nu1, mu1] subset of (0, 1),
    e2 in [nu2, mu2] subset of (0, 1/2); defaults sit at the upper ends,
    which is what the worst-case replay requires.
    """

    varsigma: float = 1.0
    kappa_w: float = 1.0
    nu1: float = 0.5
    mu1: float = 0.5
    nu2: float = 1.0 / 3.0
    mu2: float = 1.0 / 3.0
    coeff: float | None = None
    e1: float | None = None
    e2: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.varsigma <= 1.0:
            raise ValueError(f"varsigma must be in (0, 1], got {self.varsigma!r}")
        if not max(1.0, self.varsigma) <= self.kappa_w < math.inf:
            raise ValueError(
                f"kappa_w must be finite and >= max(1, varsigma), got {self.kappa_w!r}"
            )
        if not 0.0 < self.nu1 <= self.mu1 < 1.0:
            raise ValueError(f"need 0 < nu1 <= mu1 < 1, got nu1={self.nu1!r}, mu1={self.mu1!r}")
        if not 0.0 < self.nu2 <= self.mu2 < 0.5:
            raise ValueError(f"need 0 < nu2 <= mu2 < 1/2, got nu2={self.nu2!r}, mu2={self.mu2!r}")
        if self.coeff is None:
            self.coeff = self.kappa_w
        if self.e1 is None:
            self.e1 = self.mu1
        if self.e2 is None:
            self.e2 = self.mu2
        if not self.varsigma <= self.coeff <= self.kappa_w:
            raise ValueError(f"coeff must be in [varsigma, kappa_w], got {self.coeff!r}")
        if not self.nu1 <= self.e1 <= self.mu1:
            raise ValueError(f"e1 must be in [nu1, mu1], got {self.e1!r}")
        if not self.nu2 <= self.e2 <= self.mu2:
            raise ValueError(f"e2 must be in [nu2, mu2], got {self.e2!r}")

    def weights(
        self, k: int, branch: str, g_norm_sq: float, hatphi_cubed: float
    ) -> tuple[float, float]:
        """Emit (w^L_k, w^Q_k) = (c (k+1)^{e1}, c (k+1)^{e2}); the branch and
        the terms do not enter."""
        if k < 0:
            raise ValueError(f"iteration index must be >= 0, got {k!r}")
        base = float(k + 1)
        return self.coeff * base ** self.e1, self.coeff * base ** self.e2


def adagrad_weights(
    state: AdagradScaling,
    k: int,
    branch: str,
    g_norm_sq: float,
    hatphi_cubed: float,
) -> tuple[float, float]:
    """Shim for :meth:`AdagradScaling.weights`."""
    return state.weights(k, branch, g_norm_sq, hatphi_cubed)


def divergent_weights(state: DivergentScaling, k: int) -> tuple[float, float]:
    """Shim for :meth:`DivergentScaling.weights`."""
    return state.weights(k, "L", 0.0, 0.0)
