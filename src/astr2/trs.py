"""Trust-region subproblem machinery.

Everything here is about the problem

    min_{||d|| <= Delta}  g^T d + (1/2) d^T H d

and its certificates: an exact eigendecomposition-based solver with
safeguarded Newton iteration on the secular equation and an explicit
hard-case branch, the classical Cauchy-point and eigen-point decreases, a
minimum-eigenpair routine (dense, or matrix-free Lanczos), a GLTR-style
Krylov model for subspace-restricted solves, and a brute-force reference
used to cross-check the exact solver.

References
----------
.. [1] A. R. Conn, N. I. M. Gould and Ph. L. Toint, "Trust-Region Methods",
       MPS-SIAM Series on Optimization, SIAM, 2000, Chapter 7.
.. [2] J. J. More and D. C. Sorensen, "Computing a trust region step",
       SIAM J. Sci. Stat. Comput. 4 (1983), 553-572.
.. [3] N. I. M. Gould, S. Lucidi, M. Roma and Ph. L. Toint, "Solving the
       trust-region subproblem using the Lanczos method",
       SIAM J. Optim. 9 (1999), 504-525.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Union

import numpy as np

Array = np.ndarray
HvpHandle = Callable[[Array], Array]

_SYM_TOL = 1e-8
_SECULAR_TOL = 1e-13  # |1/||d|| - 1/Delta| * Delta at the accepted root
_HARD_TOL = 1e-12  # relative size of the gradient on the critical eigenspace
_GAP_TOL = 1e-12  # relative eigenvalue gap defining the critical eigenspace
_BRUTE_ANGLES = 10_000  # angle grid of brute_force_decrease for n = 2
_BRUTE_STARTS = 100  # random sphere-ascent restarts of brute_force_decrease for n >= 3
_BRUTE_ITERS = 300  # projected-gradient steps per restart
_LANCZOS_BASIS_BYTES = 2 ** 28  # memory cap of a matrix-free min_eigpair basis


class LanczosNoConvergence(RuntimeError):
    """Lanczos failed to reach the requested residual within the iteration cap."""


@dataclass(frozen=True)
class TrsSolution:
    """A trust-region subproblem answer.

    ``d`` is the step, ``multiplier`` the KKT multiplier lambda >= 0 with
    (H + lambda I) d = -g and H + lambda I PSD, ``model_decrease`` the value
    -(g^T d + (1/2) d^T H d) >= 0, clamped at zero against rounding.
    """

    d: Array
    multiplier: float
    model_decrease: float
    on_boundary: bool
    hard_case: bool


@dataclass(frozen=True)
class EigenPair:
    """An (approximate) minimum eigenpair: unit vector and its Rayleigh quotient bound."""

    value: float
    vector: Array


def _check_radius(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")


def _check_count(name: str, value: int, least: int = 1) -> None:
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_finite(name: str, a: Array) -> Array:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_symmetric(H: Array) -> Array:
    H = _check_finite("H", H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got shape {H.shape}")
    if H.shape[0] == 0:
        raise ValueError("H must be at least 1 x 1")
    if (H == H.T).all():
        # What the symmetrisation returns, but for the sign of a zero paired
        # with a negative zero; at n = 1 this skips two thirds of the cost.
        return H.copy()
    scale = 1.0 + np.max(np.abs(H))
    if np.max(np.abs(H - H.T)) > _SYM_TOL * scale:
        raise ValueError("H is not symmetric within tolerance")
    return _symmetrize(H)


def _symmetrize(H: Array) -> Array:
    # (H + H^T) / 2 without the sum, which overflows for entries above ~9e307.
    H = np.asarray(H, dtype=float)
    return 0.5 * H + 0.5 * H.T


def _flip_sign(u: Array, g: Array) -> Array:
    # Orient u so u^T g <= 0; on ties make the largest-magnitude entry positive.
    s = float(np.dot(u, g))
    if s > 0.0:
        return -u
    if s == 0.0 and u[np.argmax(np.abs(u))] < 0.0:
        return -u
    return u


class DenseModel:
    """The local model g^T d + (1/2) d^T H d of one iterate, factorised once.

    H is symmetry-checked and eigendecomposed here, once; :meth:`solve` then
    answers the subproblem at any radius from the cached ``lam``, ``Q``,
    ``gt = Q^T g`` and ``gnorm = ||g||``, so the measure at radius 1 and the
    step at another radius share one ``eigh``; :meth:`gradient_step` gives
    the linear step and its decrease.

    Parameters
    ----------
    g : ndarray
        Gradient of the model at the center.
    H : ndarray
        Symmetric model Hessian (symmetrized after a tolerance check).
    """

    def __init__(self, g: Array, H: Array):
        g = _check_finite("g", g)
        H = _check_symmetric(H)
        if H.shape[0] != g.shape[0]:
            raise ValueError(f"shape mismatch: g has {g.shape[0]} entries, H is {H.shape}")
        self._factorise(g, H)

    def _factorise(self, g, H):
        # g and H as given: finite, H exactly symmetric (checked by the caller).
        self.g, self.H = g, H
        self.gnorm = math.sqrt(np.dot(g, g))
        self.lam, self.Q = np.linalg.eigh(H)
        self.gt = self.Q.T @ g
        return self

    def gradient_step(self, w_l: float) -> tuple[Array, float]:
        """The scaled gradient step s = -g/w_l and its model decrease."""
        s = -self.g / w_l
        return s, -(float(np.dot(self.g, s)) + 0.5 * float(np.dot(s, self.H @ s)))

    def solve(self, delta: float) -> TrsSolution:
        """Globally solve the trust-region subproblem of radius ``delta`` > 0.

        Safeguarded Newton on the secular equation phi(t) = 1/||d(t)|| -
        1/Delta over t >= max(0, -lambda_min), with the hard case (gradient
        orthogonal to the critical eigenspace and interior pseudo-inverse
        solution) resolved by an explicit eigenvector correction to the
        boundary.  phi is concave and increasing, so a Newton step from the
        left of the root never passes it.  The feasible bracket end is tested
        as a root when the bracket is set up; it is the root when g lies
        along the critical eigenvector (every 1-D model with negative
        curvature), which then costs one evaluation.  A Newton step onto an
        end already rejected bisects instead of evaluating it again.  Near
        the hard case (gradient small but not negligible on the critical
        eigenspace) t cannot always be resolved to the secular tolerance in
        floating point; the Newton iteration then keeps its feasible bracket
        end and reaches the boundary along the critical eigenvector with the
        smaller of the two steps (More-Sorensen), so ||d|| = Delta to
        rounding on every boundary solution.  When ||g||/Delta is below one
        ulp of t_lo the bracket has no width and the critical coordinates are
        dropped before that push.  One evaluation of phi costs a few numpy
        calls on the cached spectrum; the floating-point error state is set
        once per solve.
        """
        _check_radius(delta)
        g, H, lam, Q, gt, gnorm = self.g, self.H, self.lam, self.Q, self.gt, self.gnorm
        n = g.shape[0]
        t_lo = max(0.0, -lam[0])

        def finish(d: Array, t: float, boundary: bool, hard: bool) -> TrsSolution:
            dq = -(float(np.dot(g, d)) + 0.5 * float(np.dot(d, H @ d)))
            return TrsSolution(
                d=d,
                multiplier=float(t),
                model_decrease=max(dq, 0.0),
                on_boundary=boundary,
                hard_case=hard,
            )

        # Pseudo-inverse solution at the left end of the multiplier range.
        # lam ascends, so the critical set is a prefix and the extremes bound |lam|.
        scale = max(1.0, abs(lam[0]), abs(lam[-1]))
        crit = (lam + t_lo) <= _GAP_TOL * scale
        g_crit = math.sqrt(np.dot(gt[crit], gt[crit])) if crit[0] else 0.0

        if g_crit <= _HARD_TOL * max(1.0, gnorm):
            dp = np.zeros(n)
            free = ~crit
            dp[free] = -gt[free] / (lam[free] + t_lo)
            norm_dp = math.sqrt(np.dot(dp, dp))
            if norm_dp <= delta:
                if t_lo == 0.0:
                    # PSD (possibly singular but compatible): interior optimum.
                    return finish(Q @ dp, 0.0, norm_dp >= delta * (1.0 - 1e-12), False)
                # Hard case: push to the boundary along a critical eigenvector.
                u = _flip_sign(Q[:, 0], g)
                if norm_dp == 0.0:
                    theta = delta
                else:
                    theta = math.sqrt(max(0.0, delta * delta - norm_dp * norm_dp))
                return finish(Q @ dp + theta * u, t_lo, True, True)

        # Boundary solution with t strictly above t_lo: safeguarded Newton on
        # phi(t) = 1/||d(t)|| - 1/Delta, increasing with phi(t_lo) <= 0.
        neg_gt, gt2 = -gt, gt * gt

        def phi_and_slope(t: float) -> tuple[float, float, Array]:
            # phi(t), phi'(t) and the coordinates of d(t) in the eigenbasis.
            denom = lam + t
            c = neg_gt / denom
            s3 = gt2 / denom ** 3
            if denom[0] == 0.0:
                # lam ascends and t >= t_lo, so only leading entries vanish.
                # 0/0 means no gradient on a critical direction: contributes
                # nothing.
                zero = (denom == 0.0) & (gt == 0.0)
                c[zero] = 0.0
                s3[zero] = 0.0
            n2 = float(np.dot(c, c))
            if not math.isfinite(n2) or n2 == 0.0:
                return -1.0 / delta, 0.0, c
            nrm = math.sqrt(n2)
            return 1.0 / nrm - 1.0 / delta, float(s3.sum()) / nrm ** 3, c

        lo = t_lo
        hi = t_lo + gnorm / delta
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Guard: widen until phi(hi) >= 0 (covers rounding at the analytic
            # bound).  A bracket of no width cannot be widened by doubling.
            # The end is itself the root when g lies along the critical
            # eigenvector (every 1-D model with negative curvature).
            for _ in range(60):
                val_hi, _, coords = phi_and_slope(hi)
                if abs(val_hi) * delta <= _SECULAR_TOL:
                    return finish(Q @ coords, hi, True, False)
                if val_hi >= 0.0 or hi == t_lo:
                    break
                hi = t_lo + 2.0 * (hi - t_lo)

            t = 0.5 * (lo + hi)
            for _ in range(200):
                val, slope, coords = phi_and_slope(t)
                if abs(val) * delta <= _SECULAR_TOL:
                    return finish(Q @ coords, t, True, False)
                if val < 0.0:
                    lo = t
                else:
                    hi = t
                t_new = t - val / slope if slope > 0.0 and math.isfinite(slope) else t
                # hi has been evaluated and is not a root, so a step onto it
                # bisects instead.
                if not (lo < t_new < hi):
                    t_new = 0.5 * (lo + hi)
                if t_new == t and hi - lo <= 1e-15 * max(1.0, t):
                    break
                t = t_new
            # Near the hard case (t close to -lambda_1, the gradient small on the
            # critical eigenvector) ||d(t)|| changes too fast for t to be resolved
            # in floating point.  Take the feasible end hi and reach the boundary
            # along the critical eigenvector by the root of smaller magnitude,
            # which changes the model least (More-Sorensen).
            _, _, coords = phi_and_slope(hi)
            if hi == t_lo:
                # ||g||/Delta is below one ulp of t_lo: the critical coordinates
                # are -gt/0.  Zero them, keeping the sign of -gt for the push.
                coords[crit] = np.copysign(0.0, neg_gt[crit])
            p = coords[0]
            r = max(0.0, delta * delta - float(np.dot(coords, coords)))
            if r > 0.0:
                coords[0] += math.copysign(r / (abs(p) + math.sqrt(p * p + r)), p)
        return finish(Q @ coords, hi, True, False)


def solve_trs_exact(g: Array, H: Array, delta: float) -> TrsSolution:
    """Globally solve the trust-region subproblem: :meth:`DenseModel.solve`
    on a model factorised for this one call."""
    return DenseModel(g, H).solve(delta)


def cauchy_decrease(g: Array, H: Array, delta: float) -> tuple[float, float]:
    """Best model decrease along the scaled negative gradient.

    Maximizes alpha ||g||^2 - (alpha^2/2) g^T H g over
    {alpha >= 0 : alpha ||g|| <= Delta}; closed form from the sign of the
    curvature along g.

    Returns
    -------
    (alpha, dq_c) : tuple of float
        The maximizing alpha and the achieved decrease (0 when g = 0).
    """
    _check_radius(delta)
    g = np.asarray(g, dtype=float)
    gnorm2 = float(np.dot(g, g))
    if gnorm2 == 0.0:
        return 0.0, 0.0
    gnorm = np.sqrt(gnorm2)
    curv = float(np.dot(g, np.asarray(H, dtype=float) @ g))
    alpha_max = delta / gnorm
    if curv <= 0.0:
        alpha = alpha_max
    else:
        alpha = min(gnorm2 / curv, alpha_max)
    dq = alpha * gnorm2 - 0.5 * alpha * alpha * curv
    return alpha, max(dq, 0.0)


def eigen_decrease(g: Array, H: Array, delta: float) -> tuple[Array, float, float]:
    """Best model decrease along the minimum-curvature direction of a dense H.

    The direction u is the unit minimum eigenvector of H (from
    :func:`min_eigpair`), oriented so that u^T g <= 0.  When lambda_min[H]
    is >= 0 the decrease is defined as 0 (no negative curvature to exploit)
    and u is still returned for inspection.

    Returns
    -------
    (u, alpha, dq_e)
    """
    _check_radius(delta)
    g = np.asarray(g, dtype=float)
    eigpair = min_eigpair(H)
    u = _flip_sign(eigpair.vector, g)
    if eigpair.value >= 0.0:
        return u, 0.0, 0.0
    curv = float(np.dot(u, np.asarray(H, dtype=float) @ u))
    slope = float(np.dot(g, u))  # <= 0 by the sign convention
    if curv < 0.0:
        alpha = delta
    elif curv == 0.0:
        alpha = delta if slope < 0.0 else 0.0
    else:
        alpha = min(-slope / curv, delta) if slope < 0.0 else 0.0
    dq = -(slope * alpha + 0.5 * curv * alpha * alpha)
    return u, alpha, max(dq, 0.0)


def _lanczos(hvp: HvpHandle, v: Array, steps: int) -> Iterator[tuple[Array, Array, float]]:
    """Lanczos with full reorthogonalization, started from the unit vector v.

    After the m-th product with H yields ``(T_m, V_m, beta_m)``: the m x m
    tridiagonal Lanczos matrix, the m basis vectors (leading blocks of one
    tridiagonal and rows of one basis, both preallocated with min(steps, n)
    rows, and never written again once yielded) and the norm of the next
    residual.  Stops after ``steps`` products, n at most, or at breakdown,
    beta_m <= 1e-12 max(1, |alpha_m|), which it reports as beta_m = 0: the
    span of V_m is then invariant under H to rounding.

    Each product is checked once, by its scalars: a NaN or infinite entry
    of H v_m makes alpha_m = v_m^T H v_m non-finite (v_m is finite, and
    0 * inf is NaN), and a product too large for the residual norm makes
    beta_m overflow.  Either raises ValueError, so T_m and V_m stay finite.
    """
    V = np.empty((min(steps, v.shape[0]), v.shape[0]))
    T = np.zeros((len(V), len(V)))
    V[:1] = v  # no row at all when steps = 0
    for m in range(1, len(V) + 1):
        w = np.asarray(hvp(V[m - 1]), dtype=float)
        with np.errstate(all="ignore"):
            a = float(np.dot(V[m - 1], w))
            if not math.isfinite(a):
                raise ValueError("non-finite Hessian-vector product")
            w = w - a * V[m - 1] - (T[m - 1, m - 2] * V[m - 2] if m > 1 else 0.0)
            for u in V[:m]:
                w -= np.dot(w, u) * u
            b = math.sqrt(np.dot(w, w))
        if not math.isfinite(b):
            raise ValueError("Hessian-vector product overflows the Lanczos recurrence")
        T[m - 1, m - 1] = a
        if b <= 1e-12 * max(1.0, abs(a)):
            yield T[:m, :m], V[:m], 0.0
            return
        yield T[:m, :m], V[:m], b
        if m < len(V):
            T[m, m - 1] = T[m - 1, m] = b
            V[m] = w / b


def _combine(y: Array, V: Array) -> Array:
    """sum_i y_i v_i over the basis rows of V, summed row by row (``y @ V``
    sums in another order and moves the last bits of the steps)."""
    d = np.zeros(V.shape[1])
    for coeff, vec in zip(y, V):
        d += coeff * vec
    return d


def min_eigpair(
    H: Union[Array, HvpHandle],
    n: Optional[int] = None,
    tol: float = 1e-8,
) -> EigenPair:
    """Minimum eigenpair of a symmetric matrix, dense or matrix-free.

    Dense path: full symmetric eigendecomposition.  Matrix-free path:
    Lanczos with full reorthogonalization from a deterministic random start,
    stopped when the Ritz residual ||H u - theta u|| = |beta_j * y_j| of the
    smallest Ritz pair is at most ``tol`` (relative to theta when theta > 1),
    at breakdown (beta_j = 0: the Ritz pair is exact on an invariant
    subspace, which need not hold lambda_min; there is no restart), or when
    the basis spans the whole space (the Ritz pair is then exact).  A small
    residual puts theta within ``tol`` of *some* eigenvalue of H, not
    necessarily of lambda_min.  The step cap is n, where the basis spans the
    space, lowered so that the basis of m n-vectors stays within
    ``_LANCZOS_BASIS_BYTES`` (256 MiB; 335 steps at n = 1e5).  As m <= n,
    each m x m Ritz matrix is no larger than the basis.

    Raises
    ------
    LanczosNoConvergence
        Iteration cap reached before the residual test held and before the
        basis spanned the space (matrix-free path only); callers may fall
        back to the dense path.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not callable(H):
        lam, Q = np.linalg.eigh(_check_symmetric(H))
        theta, u = float(lam[0]), Q[:, 0]
    else:
        if n is None:
            raise ValueError("matrix-free min_eigpair needs the dimension n")
        _check_count("n", n)
        maxiter = min(n, _LANCZOS_BASIS_BYTES // (8 * n))
        rng = np.random.default_rng(1842962133)  # fixed seed: deterministic runs
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        theta = 0.0
        for T, V, b in _lanczos(H, v, maxiter):
            ritz_vals, ritz_vecs = np.linalg.eigh(T)
            theta, y = float(ritz_vals[0]), ritz_vecs[:, 0]
            if abs(b * y[-1]) <= (tol if theta < 0.0 else tol * max(1.0, theta)):
                break
        else:
            if maxiter < n:  # else the basis spans the space and the Ritz pair is exact
                raise LanczosNoConvergence(
                    f"no convergence in {maxiter} Lanczos iterations "
                    f"(last Ritz value {theta:.6g})"
                )
        u = _combine(y, V)
        u /= np.linalg.norm(u)
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    return EigenPair(value=theta, vector=u)


class KrylovModel:
    """The local model of one iterate restricted to a Krylov space grown from g.

    GLTR-style [3]: Lanczos from g/||g|| (or from ``seed_direction`` when
    g = 0) with full reorthogonalization.  :meth:`solve` answers the
    subproblem at any radius on the leading tridiagonal blocks and draws
    more Hessian-vector products only when that radius needs a larger
    space, so the measure at radius 1 and the step at another radius share
    one Lanczos run; :meth:`gradient_step` reads its curvature off that run.

    The model keeps the suspended ``_lanczos`` generator, with its basis
    and tridiagonal (min(max_dim, n) rows each, allocated up front), and
    the largest tridiagonal block T drawn so far: O(mn + m^2) memory for a
    space of dimension m, and no per-m tridiagonals or eigendecompositions.
    Each smaller tridiagonal is a leading block of T, bit for bit the
    matrix a fresh run builds, and is solved without the finiteness and
    symmetry checks of ``DenseModel(g, H)``: ``_lanczos`` has checked each
    product.  There is no restart: at breakdown the space is invariant and
    the model stops growing.

    Parameters
    ----------
    g : ndarray
        Gradient of the model at the center.
    hvp : callable
        v -> H v.
    max_dim : int
        Largest subspace dimension (capped at n).
    seed_direction : ndarray, optional
        Start of the space when g = 0.  Without it the space of g = 0 is {0}
        and every solve returns the zero step.
    """

    def __init__(
        self,
        g: Array,
        hvp: HvpHandle,
        max_dim: int,
        seed_direction: Optional[Array] = None,
    ):
        _check_count("max_dim", max_dim)
        self.g = _check_finite("g", g)
        self.gnorm = float(np.linalg.norm(self.g))
        self.dim = 0  # subspace dimension of the last solve
        self._T = self._V = np.empty((0, 0))
        if seed_direction is not None:
            seed_direction = _check_finite("seed_direction", seed_direction)
        v = None
        if self.gnorm > 0.0:
            v = self.g / self.gnorm
        elif seed_direction is not None:
            vn = float(np.linalg.norm(seed_direction))
            if vn == 0.0:
                raise ValueError("seed_direction must be nonzero")
            v = seed_direction / vn
        self._steps = None if v is None else _lanczos(hvp, v, max_dim)

    def _grow(self) -> bool:
        # One more product; False once the space stopped growing.
        step = next(self._steps, None)
        if step is None:
            return False
        self._T, self._V, _ = step
        return True

    def solve(self, delta: float) -> TrsSolution:
        """Solve the subproblem of radius ``delta`` > 0 on the Krylov space.

        After each dimension m the tridiagonal subproblem is solved exactly,
        and the iteration stops when the subspace decrease stagnates
        (relative gain < 1e-8), at breakdown (the current best is exact in
        the invariant space), or at ``max_dim`` (or n).  Sets :attr:`dim`.
        The decrease dominates every feasible point of the final subspace,
        in particular the Cauchy point (the space starts at g) and any
        subspace eigen-point; it does not dominate an eigen-point outside
        the subspace.
        """
        _check_radius(delta)
        if self._steps is None:
            # Krylov space of g = 0 with no seed is {0}: the zero step is optimal there.
            self.dim = 0
            return TrsSolution(np.zeros(self.g.shape[0]), 0.0, 0.0, False, False)
        prev_dq = 0.0
        m = 0
        while m < len(self._T) or self._grow():
            m += 1
            g_sub = np.zeros(m)
            g_sub[0] = self.gnorm
            sol = DenseModel.__new__(DenseModel)._factorise(g_sub, self._T[:m, :m]).solve(delta)
            if m > 1 and sol.model_decrease - prev_dq < 1e-8 * max(sol.model_decrease, 1e-300):
                break
            prev_dq = sol.model_decrease
        self.dim = m
        return replace(sol, d=_combine(sol.d, self._V[:m]))

    def gradient_step(self, w_l: float) -> tuple[Array, float]:
        """The scaled gradient step s = -g/w_l and its model decrease.

        s lies along the first basis vector g/||g||, so its curvature is
        s^T H s = (||g||/w_l)^2 T[0, 0], read off the first Lanczos product:
        after a solve this draws no product, before one it draws that one.
        """
        s = -self.g / w_l
        if self.gnorm == 0.0:
            return s, 0.0
        if not len(self._T):
            self._grow()
        return s, float(-(np.dot(self.g, s) + 0.5 * (self.gnorm / w_l) ** 2 * self._T[0, 0]))


def solve_trs_krylov(
    g: Array, hvp: HvpHandle, delta: float, max_dim: int
) -> tuple[TrsSolution, int]:
    """Solve the subproblem restricted to a grown Krylov subspace:
    :meth:`KrylovModel.solve` on a model built for this one call (the
    Krylov space of g = 0 is {0}, so that case returns the zero step).

    Returns
    -------
    (TrsSolution, subspace_dim)
    """
    model = KrylovModel(g, hvp, max_dim)
    return model.solve(delta), model.dim


def kkt_residuals(g: Array, H: Array, delta: float, sol: TrsSolution) -> dict[str, float]:
    """KKT residuals of a TrsSolution for reporting and tests.

    Keys: ``feasibility`` (||d|| - Delta, positive part), ``complementarity``
    (lambda * (Delta - ||d||)), ``stationarity`` (||(H + lambda I) d + g||),
    ``psd`` (negative part of lambda + lambda_min[H]), ``multiplier_sign``
    (negative part of lambda).  g and H are checked, and lambda_min[H]
    computed, by building their ``DenseModel``; delta is checked as its
    solve checks it.
    """
    _check_radius(delta)
    model = DenseModel(g, H)
    g, H = model.g, model.H
    dnorm = float(np.linalg.norm(sol.d))
    lam_min = float(model.lam[0])
    r = (H + sol.multiplier * np.eye(len(g))) @ sol.d + g
    with np.errstate(over="ignore"):
        stationarity = float(np.linalg.norm(r))
    if stationarity == math.inf:
        stationarity = math.hypot(*r)  # rescaled: finite entries whose squares overflow
    return {
        "feasibility": max(0.0, dnorm - delta),
        "complementarity": abs(sol.multiplier * (delta - dnorm)),
        "stationarity": stationarity,
        "psd": max(0.0, -(sol.multiplier + lam_min)),
        "multiplier_sign": max(0.0, -sol.multiplier),
    }


def _sphere_polish(a: Array, B: Array, u: Array, iters: int = 12) -> Array:
    # Projected Newton for min_{||u||=1} a^T u + (1/2) u^T B u.  The tangent
    # Newton system is solved in the full space with a rank-one term pinning
    # the normal component; lstsq keeps degenerate (hard-case) instances safe.
    n = len(a)
    eye = np.eye(n)
    for _ in range(iters):
        r = a + B @ u
        theta = float(np.dot(u, r))
        grad = r - theta * u
        P = eye - np.outer(u, u)
        M = P @ (B - theta * eye) @ P + np.outer(u, u)
        v, *_ = np.linalg.lstsq(M, -grad, rcond=None)
        v -= np.dot(v, u) * u
        u_new = u + v
        nrm = float(np.linalg.norm(u_new))
        if nrm == 0.0:
            break
        u_new /= nrm
        if float(np.linalg.norm(u_new - u)) <= 1e-15:
            u = u_new
            break
        u = u_new
    return u


def brute_force_decrease(
    g: Array,
    H: Array,
    delta: float,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Brute-force reference value of the best model decrease over the ball.

    Enumerates interior stationary points (linear solve) and optimizes the
    boundary restriction: a dense angle grid for n = 2 (10^4 points), or
    projected-gradient ascent on the sphere (300 steps) restarted from 100
    random seeds for n >= 3; a projected-Newton polish sharpens the best
    boundary candidates to roundoff.  Shares no logic with the secular
    solver, so it can serve as an independent oracle for it.
    """
    g = np.asarray(g, dtype=float)
    H = _symmetrize(H)
    n = len(g)
    if rng is None:
        rng = np.random.default_rng(0)

    def model(d: Array) -> float:
        return float(np.dot(g, d) + 0.5 * np.dot(d, H @ d))

    values = [0.0]  # d = 0
    try:
        d_int = np.linalg.solve(H, -g)
        if np.all(np.isfinite(d_int)) and float(np.linalg.norm(d_int)) <= delta:
            values.append(model(d_int))
    except np.linalg.LinAlgError:
        pass

    if n == 1:
        values.append(model(np.array([delta])))
        values.append(model(np.array([-delta])))
        return max(0.0, -min(values))

    if n == 2:
        th = np.linspace(0.0, 2.0 * np.pi, _BRUTE_ANGLES, endpoint=False)
        D = delta * np.vstack([np.cos(th), np.sin(th)])
        vals = g @ D + 0.5 * np.sum(D * (H @ D), axis=0)
        order = np.argsort(vals)
        candidates = [D[:, i] / delta for i in order[:3]]
    else:
        U = rng.standard_normal((n, _BRUTE_STARTS))
        extra = [g / np.linalg.norm(g)] if np.linalg.norm(g) > 0 else []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            extra.extend([e, -e])
        U = np.column_stack([U] + [e.reshape(-1, 1) for e in extra])
        U /= np.linalg.norm(U, axis=0)
        a = delta * g
        B = (delta * delta) * H
        lip = float(np.linalg.norm(B)) + float(np.linalg.norm(a)) + 1.0
        step = 1.0 / lip
        for _ in range(_BRUTE_ITERS):
            grad = a[:, None] + B @ U
            grad_t = grad - U * np.sum(U * grad, axis=0)
            U = U - step * grad_t
            U /= np.linalg.norm(U, axis=0)
        vals = a @ U + 0.5 * np.sum(U * (B @ U), axis=0)
        order = np.argsort(vals)
        candidates = [U[:, i] for i in order[:5]]

    a = delta * g
    B = (delta * delta) * H
    for u in candidates:
        u = _sphere_polish(a, B, np.array(u, dtype=float))
        values.append(model(delta * u))
    return max(0.0, -min(values))
