"""Scaling-factor families defining the trust-region radii.

Two families are supported.  The Adagrad-like family accumulates squared
gradient norms over the linear-step iterations and cubed clipped measures
over the quadratic-step iterations,

    hat_wL_k = (varsigma + sum_{l <= k, l in K^L} ||g_l||^2)^mu,
    hat_wQ_k = (varsigma + sum_{l <= k, l in K^Q} hatphi_l^3)^nu,

and emits a point of [theta * hat_w, hat_w].  The divergent family emits
w^L_k = kappa_w (k+1)^{mu1}, w^Q_k = kappa_w (k+1)^{mu2}, growing without
bound.

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

    Emits a point of the admissible interval [theta * hat_w, hat_w] for both
    weights, alternating deterministically between its two ends via
    w = (theta + (1 - theta) * (k mod 2)) * hat_w; at theta = 1, the
    default, this is hat_w itself (the classic choice).  The accumulators
    ``a_accum`` (L terms) and ``b_accum`` (Q terms) start at 0.
    """

    varsigma: float = 1.0
    mu: float = 0.5
    nu: float = 1.0 / 3.0
    theta: float = 1.0
    a_accum: float = field(default=0.0, init=False)
    b_accum: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.varsigma < math.inf:
            raise ValueError(f"varsigma must be positive and finite, got {self.varsigma!r}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must be in (0, 1), got {self.mu!r}")
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must be in (0, 1), got {self.nu!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta!r}")

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
        factor = self.theta + (1.0 - self.theta) * (k % 2)
        return (
            factor * (self.varsigma + self.a_accum) ** self.mu,
            factor * (self.varsigma + self.b_accum) ** self.nu,
        )


@dataclass
class DivergentScaling:
    """State of the divergent-stepsize scaling family.

    Emits w^L_k = kappa_w (k+1)^{mu1} and w^Q_k = kappa_w (k+1)^{mu2}, the
    top of the paper's band [varsigma (k+1)^nu, kappa_w (k+1)^mu], which is
    what the worst-case replay requires.  Needs 1 <= kappa_w < inf,
    0 < mu1 < 1 and 0 < mu2 < 1/2.
    """

    kappa_w: float = 1.0
    mu1: float = 0.5
    mu2: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.kappa_w < math.inf:
            raise ValueError(f"kappa_w must be finite and >= 1, got {self.kappa_w!r}")
        if not 0.0 < self.mu1 < 1.0:
            raise ValueError(f"mu1 must be in (0, 1), got {self.mu1!r}")
        if not 0.0 < self.mu2 < 0.5:
            raise ValueError(f"mu2 must be in (0, 1/2), got {self.mu2!r}")

    def weights(
        self, k: int, branch: str, g_norm_sq: float, hatphi_cubed: float
    ) -> tuple[float, float]:
        """Emit (w^L_k, w^Q_k) = (kappa_w (k+1)^{mu1}, kappa_w (k+1)^{mu2});
        the branch and the terms do not enter."""
        if k < 0:
            raise ValueError(f"iteration index must be >= 0, got {k!r}")
        base = float(k + 1)
        return self.kappa_w * base ** self.mu1, self.kappa_w * base ** self.mu2


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
