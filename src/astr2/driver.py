"""The adaptively scaled trust-region iteration loop.

Per iteration: evaluate g_k and H_k, compute the second-order measure
phi_k at radius 1 and its clip hatphi_k = min(phi_k, xi); decide the branch
by ||g_k||^2 >= hatphi_k^3 (ties go to the linear branch); feed the decided
branch's term to the scaling state and emit the weights; form the radii
Delta^L = ||g||/w^L, Delta^Q = hatphi/w^Q; take either the closed-form
scaled-gradient step s = -g/w^L or a trust-region step of radius Delta^Q;
accept the trial point unconditionally.  The measure and the step are two
solves of one local model: a :class:`~astr2.trs.DenseModel`, which
eigendecomposes H_k once per iteration (a diagonal H_k, which the oracle
gives as its diagonal, by sorting that vector), or in subspace mode a
:class:`~astr2.trs.KrylovModel`, whose one Lanczos run from g_k serves both
radii.  The Krylov space contains g_k, so the subspace step
dominates the Cauchy point and every other point of that space; negative
curvature outside it is seen only by the termination certificate.
The objective value is never read by the step computation; with
``record_f`` set, f is evaluated once per iteration purely for the trace.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .oracle import ProblemOracle
from .scaling import AdagradScaling, DivergentScaling
from .trs import (
    DenseModel,
    KrylovModel,
    LanczosNoConvergence,
    _check_count,
    _check_finite,
    _norm,
    min_eigpair,
)

Array = np.ndarray

_MEASURE_RADIUS = 1.0  # radius of the measures phi1, phi2 and of the eps test
_OVERFLOW = "overflow: ||g||^2, hatphi^3 or a weight is not finite"


class SolverAbort(RuntimeError):
    """Non-finite derivative values, an overflowing ||g||^2, hatphi^3 or
    weight, or a Lanczos eigenpair solve that did not converge; carries the
    trace recorded so far."""

    def __init__(self, reason: str, trace: list["IterateRecord"]):
        super().__init__(reason)
        self.reason = reason
        self.trace = trace


@dataclass
class Astr2Config:
    """Run configuration.

    ``scaling`` is a template state (copied per run).  ``eps1``/``eps2`` are
    optional termination thresholds on the first-/second-order measures at
    radius 1 (both or neither).  ``subspace_max_dim`` switches the measure
    and the quadratic step to Krylov-subspace computations of that dimension.
    ``record_f`` reads the diagnostic objective value into the trace; the
    step computation never sees it.
    """

    scaling: Union[AdagradScaling, DivergentScaling]
    max_iter: int
    xi: float = 1.0
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    subspace_max_dim: Optional[int] = None
    record_f: bool = False

    def __post_init__(self) -> None:
        if not self.xi >= 1.0:
            raise ValueError(f"xi must be >= 1, got {self.xi!r}")
        _check_count("max_iter", self.max_iter)
        if (self.eps1 is None) != (self.eps2 is None):
            raise ValueError("eps1 and eps2 must be supplied together")
        if self.eps1 is not None and not (self.eps1 > 0 and self.eps2 > 0):
            raise ValueError("termination thresholds must be positive")
        if self.subspace_max_dim is not None:
            _check_count("subspace_max_dim", self.subspace_max_dim)


@dataclass(frozen=True)
class IterateRecord:
    """One iteration of the trace.

    ``x`` is the iterate at which the derivatives were evaluated (None when
    parsed back from CSV, which does not serialize x).  ``f`` is the
    diagnostic objective value at x, present only when the run recorded it.
    """

    k: int
    x: Optional[Array]
    norm_g: float
    phi: float
    hatphi: float
    branch: str
    w_l: float
    w_q: float
    delta_l: float
    delta_q: float
    norm_s: float
    dq: float
    f: Optional[float] = None


def astr2_step(
    oracle: ProblemOracle,
    x: Array,
    k: int,
    config: Astr2Config,
    scaling_state: Union[AdagradScaling, DivergentScaling],
) -> tuple[Array, IterateRecord]:
    """One full iteration from x; returns (next iterate, trace record).

    Mutates ``scaling_state`` (accumulator update for the decided branch).
    The derivative values are validated where they are used: the model
    rejects a non-finite g or H, and the Lanczos run checks every
    Hessian-vector product as it is drawn.  Raises ValueError on such
    values and when ||g||^2, hatphi^3 or an emitted weight overflows (the
    step would stall at s = 0; an overflowing ||g||^2 raises before the
    model is built, without a numpy warning), and LanczosNoConvergence
    when the eigenpair of the g = 0 seed fails; :func:`run` converts both to
    :class:`SolverAbort` with the partial trace attached.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(oracle.gradient(x), dtype=float)
    norm_g = _norm(g)
    g_sq = norm_g * norm_g
    if not math.isfinite(g_sq):
        _check_finite("g", g)  # a NaN or infinite entry is not an overflow
        raise ValueError(_OVERFLOW)

    if config.subspace_max_dim is None:
        if oracle.hessian is None:
            raise ValueError(
                f"problem {oracle.name!r} has no dense Hessian; set subspace_max_dim"
            )
        model = DenseModel(g, oracle.hessian(x))
    else:
        seed = None
        if norm_g == 0.0:
            # The Krylov space of g = 0 is {0}; grow it from the eigenvector.
            seed = min_eigpair(lambda v: oracle.hvp(x, v), oracle.n).vector
        model = KrylovModel(g, lambda v: oracle.hvp(x, v), config.subspace_max_dim, seed)
    phi = model.decrease(_MEASURE_RADIUS)

    hatphi = min(phi, config.xi)
    try:
        hatphi_cubed = hatphi ** 3
    except OverflowError:  # a Python float power raises instead of returning inf
        hatphi_cubed = math.inf
    branch = "L" if g_sq >= hatphi_cubed else "Q"
    w_l, w_q = scaling_state.weights(k, branch, g_sq, hatphi_cubed)
    if not all(map(math.isfinite, (hatphi_cubed, w_l, w_q))):
        raise ValueError(_OVERFLOW)
    delta_l = norm_g / w_l
    delta_q = hatphi / w_q

    if branch == "L":
        s, dq = model.gradient_step(w_l)
    else:
        sol = model.solve(delta_q)
        s, dq = sol.d, sol.model_decrease

    x_next = x + s
    f_val: Optional[float] = None
    if config.record_f and oracle.f_diagnostic is not None:
        f_val = float(oracle.f_diagnostic(x))
    record = IterateRecord(
        k=k,
        x=x.copy(),
        norm_g=norm_g,
        phi=phi,
        hatphi=hatphi,
        branch=branch,
        w_l=w_l,
        w_q=w_q,
        delta_l=delta_l,
        delta_q=delta_q,
        norm_s=_norm(s),
        dq=dq,
        f=f_val,
    )
    return x_next, record


def run(oracle: ProblemOracle, x0: Array, config: Astr2Config) -> list[IterateRecord]:
    """Run the iteration from x0; returns the trace.

    Stops after ``max_iter`` iterations, or earlier as soon as the recorded
    iteration satisfies phi1 <= eps1 and phi2 <= eps2/2 at radius 1 (when the
    thresholds are set).

    In subspace mode phi2 is the decrease on the Krylov space grown from
    g_k, and the quadratic step solves the subproblem at radius Delta^Q on
    the same Lanczos run, extended only if that radius needs a larger
    space, so it dominates the Cauchy decrease and the
    Krylov-space decrease, but not the decrease along an eigenvector that
    the space misses.  A saddle whose negative curvature is orthogonal to
    every Krylov space the run grows is therefore not escaped (g along
    x_1 and curvature -1 along x_2, say).  Only the termination certificate
    checks lambda_min: the iterate must also certify
    max(0, -lambda_min)/2 <= eps2/2 with a Lanczos estimate of lambda_min
    (with unit radius, phi2 >= -lambda_min/2), computed only once the
    measured test holds, so such a saddle is refused there.

    The scaling template in ``config`` is copied, so repeated runs from the
    same config are identical.

    Raises
    ------
    SolverAbort
        On non-finite derivative values, on an overflowing ||g||^2, hatphi^3
        or weight, or when a Lanczos eigenpair solve (the certificate, or
        the g = 0 seed) does not converge, whether or not the problem has a
        dense Hessian; the exception carries the partial trace in its
        ``trace`` attribute.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (oracle.n,):
        raise ValueError(f"x0 must have shape ({oracle.n},), got {x.shape}")
    _check_finite("x0", x)
    state = copy.deepcopy(config.scaling)
    trace: list[IterateRecord] = []
    for k in range(config.max_iter):
        try:
            x, record = astr2_step(oracle, x, k, config, state)
            trace.append(record)
            if _terminates(oracle, record, config):
                break
        except (ValueError, LanczosNoConvergence) as exc:
            raise SolverAbort(str(exc), trace) from exc
    return trace


def _terminates(oracle: ProblemOracle, record: IterateRecord, config: Astr2Config) -> bool:
    if config.eps1 is None:
        return False
    if not (record.norm_g * _MEASURE_RADIUS <= config.eps1 and record.phi <= config.eps2 / 2.0):
        return False
    if config.subspace_max_dim is None:
        return True
    pair = min_eigpair(lambda v: oracle.hvp(record.x, v), oracle.n)
    return max(0.0, -pair.value) / 2.0 <= config.eps2 / 2.0


def rate_envelopes(trace: list[IterateRecord]) -> tuple[float, float, float, float]:
    """The four empirical rate envelopes of a trace.

    Returns (sup_k (k+1) * avg_{j<=k} ||g_j||^2,
             sup_k (k+1) * avg_{j<=k} hatphi_j^3,
             sup_k sqrt(k+1) * min_{j<=k} ||g_j||,
             sup_k (k+1)^{1/3} * min_{j<=k} hatphi_j).

    Boundedness of these as the trace grows is the empirical content of the
    O(1/k) average and O(k^{-1/2}), O(k^{-1/3}) min-rate guarantees.
    """
    if not trace:
        raise ValueError("trace must be nonempty")
    gnorms = np.array([r.norm_g for r in trace])
    hatphis = np.array([r.hatphi for r in trace])
    kk = np.arange(1, len(trace) + 1, dtype=float)
    env_avg_g = float(np.max(np.cumsum(gnorms ** 2)))
    env_avg_phi = float(np.max(np.cumsum(hatphis ** 3)))
    env_min_g = float(np.max(np.sqrt(kk) * np.minimum.accumulate(gnorms)))
    env_min_phi = float(np.max(kk ** (1.0 / 3.0) * np.minimum.accumulate(hatphis)))
    return env_avg_g, env_avg_phi, env_min_g, env_min_phi
