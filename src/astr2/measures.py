"""First- and second-order optimality measures.

The second-order measure of a point is the largest decrease of the local
quadratic model within a ball of radius delta,

    phi2(g, H, delta) = max_{||d|| <= delta} -(g^T d + (1/2) d^T H d),

computed by an exact trust-region solve; it is zero exactly at second-order
stationary points.  The first-order analogue is phi1 = delta * ||g||.  The
combined report adds the clipped measure hatphi = min(phi2, xi), the
composite psi = min(1, max(||g||^2, phi2^3)) and the negative-curvature size
eta = max(0, -lambda_min[H]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .trs import DenseModel, _check_radius, _norm, solve_trs_exact, solve_trs_krylov

Array = np.ndarray


@dataclass(frozen=True)
class OptimalityReport:
    """All measures of one point, computed consistently from (g, H)."""

    phi1: float
    phi2: float
    hatphi: float
    psi: float
    eta: float
    argmin_d: Array


def phi1(g: Array, delta: float) -> float:
    """First-order measure: delta * ||g||."""
    _check_radius(delta)
    return delta * _norm(np.asarray(g, dtype=float))


def phi2(g: Array, H: Array, delta: float) -> tuple[float, Array]:
    """Second-order measure and the model minimizer achieving it."""
    sol = solve_trs_exact(g, H, delta)
    return sol.model_decrease, sol.d


def phi2_subspace(
    g: Array,
    hvp: Callable[[Array], Array],
    delta: float,
    max_dim: int,
) -> tuple[float, int]:
    """Second-order measure restricted to a grown Krylov subspace:
    :func:`~astr2.trs.solve_trs_krylov` with ``max_dim`` >= 1.

    Monotonically nondecreasing in ``max_dim`` and equal to :func:`phi2`
    once the subspace spans the reachable space (max_dim >= n on generic
    instances).
    """
    sol, dim = solve_trs_krylov(g, hvp, delta, max_dim)
    return sol.model_decrease, dim


def combined_measures(g: Array, H: Array, xi: float, delta: float) -> OptimalityReport:
    """Fill an :class:`OptimalityReport` for one point.

    ``xi >= 1`` is the clipping level of hatphi; ``delta > 0`` the ball
    radius (the optimizer always uses delta = 1).  phi2 and eta are read
    from one :class:`~astr2.trs.DenseModel`, so they share one factorisation.
    """
    if not xi >= 1.0:
        raise ValueError(f"xi must be >= 1, got {xi!r}")
    model = DenseModel(g, H)
    sol = model.solve(delta)
    value = sol.model_decrease
    gnorm2 = float(np.vdot(model.g, model.g))  # dot's bits, without its overflow warning
    return OptimalityReport(
        phi1=delta * model.gnorm,
        phi2=value,
        hatphi=min(value, xi),
        psi=min(1.0, max(gnorm2, min(value, 1.0) ** 3)),
        eta=max(0.0, -float(model.lam[0])),
        argmin_d=sol.d,
    )
