"""Worst-case sequence generators and their C^2 realization.

Two families of univariate examples on which the adaptively scaled
iteration provably stalls at the advertised rate: every iterate has zero
gradient and negative curvature -2 (k+1)^{-a}, so the second-order measure
decays exactly like (k+1)^{-a} while the objective values, started at a
Riemann zeta value, telescope down by the model decreases and stay bounded
below.  A piecewise-quintic Hermite interpolant turns the breakpoint data
(f_k, 0, H_k) into a twice continuously differentiable function for
plotting and for finite-difference sanity checks.

The generators take each weight from the same scaling state, by the same
call, as the driver does, so replaying a generated sequence through the
actual iteration loop on a synthetic oracle reproduces it to the last bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .driver import Astr2Config, SolverAbort, run
from .oracle import ProblemOracle
from .scaling import AdagradScaling, DivergentScaling
from .trs import _check_count

Array = np.ndarray

_ZETA_TERMS = 10 ** 6
# Terms per chunk of zeta's direct sum.  Its 64 KB arrays stay below the
# allocator's mmap threshold (128 KB by default in glibc), so they are reused
# from the heap instead of being mapped and page-faulted afresh each chunk:
# 2^16-term chunks made zeta twice as slow in a fresh process.
_ZETA_CHUNK = 1 << 13


class _ReplayDrift(ValueError):
    """Replay iterate strayed from the stored breakpoints."""


def _scaled_sum(x: Array) -> int:
    """2^1075 times the sum of the positive normal doubles x, exactly.

    Each term is m 2^(e-1075), m its 53-bit significand and e its exponent
    field.  Over each run of equal e, m >> 26 and the low 26 bits of m are
    summed in int64 (below 2^40 for up to 2^13 terms); each run sum is then
    shifted by e into one Python int.
    """
    bits = x.view(np.int64)
    e = bits >> 52
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    starts = np.concatenate(([0], np.flatnonzero(e[1:] != e[:-1]) + 1))
    hi = np.add.reduceat(m >> 26, starts).tolist()
    lo = np.add.reduceat(m & ((1 << 26) - 1), starts).tolist()
    return sum(((h << 26) + l) << k for h, l, k in zip(hi, lo, e[starts].tolist()))


def zeta(s: float) -> float:
    """Riemann zeta for real s in (1, 4), within 2 ulp of zeta(s) on a grid.

    The direct part is the correctly rounded sum of the first N = 10^6
    reciprocal powers, each rounded to a double: they are summed exactly as
    integers, in chunks of 2^13 terms, and divided once by 2^1075 (the value
    of math.fsum over the same terms, bit for bit).  The Euler-Maclaurin tail
    at a = N + 1 is added to it:

        a^{1-s}/(s-1) + a^{-s}/2 + s a^{-s-1}/12,

    whose first neglected term is O(s^3 a^{-s-3}).
    """
    if not 1.0 < s < 4.0:
        raise ValueError(f"s must be in (1, 4), got {s!r}")
    total = 0
    for start in range(1, _ZETA_TERMS + 1, _ZETA_CHUNK):
        n = np.arange(start, min(start + _ZETA_CHUNK, _ZETA_TERMS + 1), dtype=float)
        total += _scaled_sum(np.power(n, -s))
    direct = total / (1 << 1075)
    a = float(_ZETA_TERMS + 1)
    tail = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s) + (s / 12.0) * a ** (-s - 1.0)
    return direct + tail


@dataclass
class SharpnessSequence:
    """Breakpoint data of one worst-case run.

    Arrays ``g``, ``hess``, ``phi``, ``s``, ``dq`` hold one entry per
    iteration k = 0..K; ``x`` and ``f`` additionally hold the terminal
    point x_{K+1} = x_K + s_K and its value f_{K+1} = f_K - dq_K.
    ``scaling`` is the fresh scaling state whose weights generated the
    sequence; a run configured with it replays the sequence.
    """

    family: str
    scaling: Union[AdagradScaling, DivergentScaling]
    K: int
    x: Array
    f: Array
    g: Array
    hess: Array
    phi: Array
    s: Array
    dq: Array


def _generate(
    family: str,
    scaling: Union[AdagradScaling, DivergentScaling],
    K: int,
    expo: float,
    f0: float,
) -> SharpnessSequence:
    """The worst-case iterations 0..K shared by both families.

    phi_k = (k+1)^{-expo}; w_k is the quadratic-branch weight that a copy of
    the fresh ``scaling`` state emits for phi_k^3, as in the driver; the step
    is s_k = phi_k / w_k and the decrease dq_k = phi_k s_k^2, telescoped down
    from f_0 = ``f0``.
    """
    state = copy.deepcopy(scaling)
    xs = [0.0]
    fs = [f0]
    phis, ss, dqs = [], [], []
    for k in range(K + 1):
        phi = (k + 1.0) ** (-expo)
        s = phi / state.weights(k, "Q", 0.0, phi ** 3)[1]
        dq = phi * s * s
        phis.append(phi)
        ss.append(s)
        dqs.append(dq)
        xs.append(xs[-1] + s)
        fs.append(fs[-1] - dq)
    phi_arr = np.array(phis)
    return SharpnessSequence(
        family=family,
        scaling=scaling,
        K=K,
        x=np.array(xs),
        f=np.array(fs),
        g=np.zeros(K + 1),
        hess=-2.0 * phi_arr,
        phi=phi_arr,
        s=np.array(ss),
        dq=np.array(dqs),
    )


def gen_adagrad_example(
    mu: float, nu: float, eps: float, varsigma: float, K: int
) -> SharpnessSequence:
    """Worst-case sequence for the Adagrad-like weights, iterations 0..K.

    g_k = 0, H_k = -2 (k+1)^{-(1/3+eps)}, so phi_k = (k+1)^{-(1/3+eps)};
    the step is the full quadratic-branch radius phi_k / w_k with
    w_k = (varsigma + sum_{j<=k} phi_j^3)^nu, the decrease phi_k s_k^2,
    and f_0 = zeta(1+3 eps) so the telescoped values stay positive.
    """
    scaling = AdagradScaling(varsigma=varsigma, mu=mu, nu=nu)
    if not 0.0 < eps < 2.0 / 3.0:
        raise ValueError(f"eps must be in (0, 2/3), got {eps!r}")
    _check_count("K", K)
    return _generate("adagrad", scaling, K, 1.0 / 3.0 + eps, zeta(1.0 + 3.0 * eps))


def gen_divergent_example(
    mu2: float, eps: float, kappa_w: float, K: int
) -> SharpnessSequence:
    """Worst-case sequence for the divergent weights w_k = kappa_w (k+1)^{mu2}.

    With gamma = (1 - 2 mu2)/3 + eps: g_k = 0, H_k = -2 (k+1)^{-gamma},
    phi_k = (k+1)^{-gamma}, s_k = phi_k / w_k = 1/(kappa_w (k+1)^{gamma+mu2}),
    dq_k = phi_k s_k^2 = 1/(kappa_w^2 (k+1)^{3 gamma + 2 mu2}), and
    f_0 = zeta(3 gamma + 2 mu2) = zeta(1 + 3 eps).
    """
    scaling = DivergentScaling(kappa_w=kappa_w, mu2=mu2)
    gamma_floor = (1.0 - 2.0 * mu2) / 3.0
    if not 0.0 < eps < 1.0 - gamma_floor:
        raise ValueError(
            f"eps must be in (0, {1.0 - gamma_floor!r}) for mu2={mu2!r}, got {eps!r}"
        )
    _check_count("K", K)
    gamma = gamma_floor + eps
    return _generate("divergent", scaling, K, gamma, zeta(3.0 * gamma + 2.0 * mu2))


@dataclass(frozen=True)
class PiecewiseQuintic:
    """C^2 piecewise-quintic on breakpoints xs; coeffs[i] are the powers of
    the normalized coordinate t = (x - xs[i]) / (xs[i+1] - xs[i])."""

    xs: Array
    coeffs: Array

    def evaluate(self, x):
        """Value, first and second derivative at x (scalar or array).

        Raises ValueError for points outside [xs[0], xs[-1]].
        """
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        if np.any(xq < self.xs[0]) or np.any(xq > self.xs[-1]):
            raise ValueError(
                f"points outside the interpolation domain "
                f"[{self.xs[0]!r}, {self.xs[-1]!r}]"
            )
        idx = np.clip(np.searchsorted(self.xs, xq, side="right") - 1, 0, len(self.xs) - 2)
        h = self.xs[idx + 1] - self.xs[idx]
        t = (xq - self.xs[idx]) / h
        c = self.coeffs[idx]
        a0, a1, a2, a3, a4, a5 = (c[:, j] for j in range(6))
        p = ((((a5 * t + a4) * t + a3) * t + a2) * t + a1) * t + a0
        dp = (((5.0 * a5 * t + 4.0 * a4) * t + 3.0 * a3) * t + 2.0 * a2) * t + a1
        ddp = ((20.0 * a5 * t + 12.0 * a4) * t + 6.0 * a3) * t + 2.0 * a2
        dp = dp / h
        ddp = ddp / (h * h)
        if scalar:
            return float(p[0]), float(dp[0]), float(ddp[0])
        return p, dp, ddp


def quintic_from_data(xs: Array, fs: Array, gs: Array, hs: Array) -> PiecewiseQuintic:
    """The unique piecewise quintic matching (value, slope, curvature) data.

    On each interval the two endpoint triples give six conditions; in the
    normalized coordinate the closed form is classical (see e.g. Hermite
    two-point quintic interpolation):

        a0 = f_i, a1 = f'_i h, a2 = f''_i h^2 / 2,
        a3 = 10 P - 4 V + A/2, a4 = -15 P + 7 V - A, a5 = 6 P - 3 V + A/2,

    with P, V, A the value/slope/curvature defects of the right endpoint
    relative to the left Taylor polynomial.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("need at least two breakpoints")
    if not (fs.shape == gs.shape == hs.shape == xs.shape):
        raise ValueError("data arrays must match the breakpoints in shape")
    if not np.all(np.isfinite(np.concatenate([xs, fs, gs, hs]))):
        raise ValueError("non-finite interpolation data")
    h = np.diff(xs)
    if not np.all(h > 0.0):
        raise ValueError("breakpoints must be strictly increasing")

    a0 = fs[:-1]
    a1 = gs[:-1] * h
    a2 = 0.5 * hs[:-1] * h * h
    P = fs[1:] - (a0 + a1 + a2)
    V = gs[1:] * h - (a1 + 2.0 * a2)
    A = hs[1:] * h * h - 2.0 * a2
    a3 = 10.0 * P - 4.0 * V + 0.5 * A
    a4 = -15.0 * P + 7.0 * V - A
    a5 = 6.0 * P - 3.0 * V + 0.5 * A
    coeffs = np.column_stack([a0, a1, a2, a3, a4, a5])
    return PiecewiseQuintic(xs=xs, coeffs=coeffs)


def hermite_interpolant(seq: SharpnessSequence) -> PiecewiseQuintic:
    """Interpolant of the breakpoint data over [x_0, x_K].

    Only the K+1 evaluation points enter; the terminal point x_{K+1} lies
    outside the figure window.
    """
    m = seq.K + 1
    return quintic_from_data(seq.x[:m], seq.f[:m], seq.g[:m], seq.hess[:m])


def sample_figure(
    interpolant: PiecewiseQuintic,
    points_per_interval: int,
    f0_shift: Optional[float] = None,
) -> tuple[Array, Array, Array, Array]:
    """Dense (x, f, f', f'') samples of the interpolant for plotting.

    Each interval contributes ``points_per_interval`` samples including its
    left breakpoint; the final breakpoint is appended, so every breakpoint
    appears exactly once.  The f column is shifted by (f0_shift - f_0) when
    a shift is given, f_0 being the first sample: it sits at t = 0 of the
    first piece, where the quintic is exactly the breakpoint value.  The
    construction itself is never shifted.
    """
    p = points_per_interval
    _check_count("points_per_interval", p)
    if f0_shift is not None and not np.isfinite(f0_shift):
        raise ValueError(f"f0_shift must be finite, got {f0_shift!r}")
    xs = interpolant.xs
    # np.linspace(xs[i], xs[i+1], p, endpoint=False) for every i at once, by
    # linspace's own arithmetic: j * ((xs[i+1] - xs[i]) / p) + xs[i].
    step = (xs[1:] - xs[:-1]) / p
    x_samp = np.append(np.arange(p) * step[:, None] + xs[:-1, None], xs[-1])
    f, fp, fpp = interpolant.evaluate(x_samp)
    if f0_shift is not None:
        f = f + (f0_shift - f[0])
    return x_samp, f, fp, fpp


def _replay_oracle(seq: SharpnessSequence) -> ProblemOracle:
    """1-D oracle serving the stored (g, H) at the nearest breakpoint."""
    xs = seq.x[: seq.K + 1]
    hess = seq.hess

    def _index(xq: float) -> int:
        i = int(np.searchsorted(xs, xq))
        best, best_d = -1, np.inf
        for j in (i - 1, i):
            if 0 <= j < len(xs):
                d = abs(xq - xs[j])
                if d < best_d:
                    best, best_d = j, d
        if best_d > 1e-9 * max(1.0, abs(xs[best])):
            raise _ReplayDrift(
                f"iterate {xq!r} is {best_d:.3e} from the nearest breakpoint"
            )
        return best

    def gradient(x: Array) -> Array:
        _index(float(x[0]))
        return np.zeros(1)

    def hessian(x: Array) -> Array:
        return np.array([[hess[_index(float(x[0]))]]])

    def hvp(x: Array, v: Array) -> Array:
        return hess[_index(float(x[0]))] * np.asarray(v, dtype=float)

    return ProblemOracle(
        name=f"sharpness-{seq.family}",
        n=1,
        gradient=gradient,
        hessian=hessian,
        hvp=hvp,
        x0=np.array([seq.x[0]]),
    )


def replay_check(seq: SharpnessSequence) -> bool:
    """Drive the actual iteration loop over the stored breakpoints.

    The run is ``Astr2Config(scaling=seq.scaling, max_iter=seq.K + 1)``:
    no thresholds, the dense model, and xi = 1, which no phi_k <= 1 can
    clip, so hatphi = phi.  Any disagreement of the replayed trace
    (branch, step length, quadratic radius, decrease, or an iterate
    drifting off the breakpoints) returns False; so does a scaling state
    that cannot reproduce the sequence (theta < 1, used accumulators, the
    other family).
    """
    config = Astr2Config(scaling=seq.scaling, max_iter=seq.K + 1)
    try:
        trace = run(_replay_oracle(seq), np.array([seq.x[0]]), config)
    except SolverAbort:
        return False
    if len(trace) != seq.K + 1:
        return False
    for k, rec in enumerate(trace):
        if rec.branch != "Q":
            return False
        if abs(rec.phi - seq.phi[k]) > 1e-10:
            return False
        if abs(rec.norm_s - seq.s[k]) > 1e-10:
            return False
        if abs(rec.delta_q - seq.s[k]) > 1e-10:
            return False
        if abs(rec.dq - seq.dq[k]) > 1e-10:
            return False
    return True
