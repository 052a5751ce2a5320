"""Trust-region subproblem machinery.

Everything here is about the problem

    min_{||d|| <= Delta}  g^T d + (1/2) d^T H d

and its certificates: an exact eigendecomposition-based solver with a
monotone Newton iteration on the secular equation in 1/(lambda+_min + t)^2,
which keeps the pole of the smallest eigenvalue carrying gradient exact
[5], and an explicit hard-case branch (the critical gap is relative to the
spectral radius of H and the hard-case test to ||g||), the classical Cauchy-point
and eigen-point decreases, a matrix-free Lanczos minimum-eigenpair
routine, a GLTR-style Krylov model for subspace-restricted solves, and a
reference value of the decrease, from one eigenvalue problem of twice the
size [4], used to cross-check the exact solver.  Every dense spectral quantity (the subproblem's
solution, lambda_min and its eigenvector) is read from one
:class:`DenseModel`, whose eigendecomposition is LAPACK's ``eigh``, or, for
a diagonal Hessian, the stable sort of its diagonal.  Every dense entry
point takes H as an n x n matrix or, for a diagonal H, as the n-vector of
its diagonal.

References
----------
.. [1] A. R. Conn, N. I. M. Gould and Ph. L. Toint, "Trust-Region Methods",
       MPS-SIAM Series on Optimization, SIAM, 2000, Chapter 7.
.. [2] J. J. More and D. C. Sorensen, "Computing a trust region step",
       SIAM J. Sci. Stat. Comput. 4 (1983), 553-572.
.. [3] N. I. M. Gould, S. Lucidi, M. Roma and Ph. L. Toint, "Solving the
       trust-region subproblem using the Lanczos method",
       SIAM J. Optim. 9 (1999), 504-525.
.. [4] S. Adachi, S. Iwata, Y. Nakatsukasa and A. Takeda, "Solving the
       trust-region subproblem by a generalized eigenvalue problem",
       SIAM J. Optim. 27 (2017), 269-291.
.. [5] R.-C. Li, "Solving secular equations stably and efficiently",
       technical report, University of California, Berkeley, 1993.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

Array = np.ndarray
HvpHandle = Callable[[Array], Array]

_SYM_TOL = 1e-8
_SECULAR_TOL = 1e-13  # |Delta^2 - ||d||^2| / Delta^2 at the accepted root
_HARD_TOL = 1e-12  # relative size of the gradient on the critical eigenspace
_GAP_TOL = 1e-12  # relative eigenvalue gap defining the critical eigenspace
_LANCZOS_BASIS_BYTES = 2 ** 28  # memory cap of a matrix-free min_eigpair basis
_KRYLOV_GAIN_TOL = 1e-8  # relative decrease gain below which the Krylov space stops growing
_TINY = 2.0 ** -1022  # the smallest normal double


class LanczosNoConvergence(RuntimeError):
    """Lanczos failed to reach the requested residual within the iteration cap.

    The driver ends the run in :class:`~astr2.driver.SolverAbort` on it."""


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


def _check_count(name: str, value: int) -> None:
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_finite(name: str, a: Array) -> Array:
    a = np.asarray(a, dtype=float)
    if np.count_nonzero(np.isfinite(a)) != a.size:  # half the cost of .all()
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _norm(v: Array) -> float:
    # ||v||: sqrt(v^T v), or, where v^T v is below the normal range (its
    # squares may have lost bits or vanished) or overflows, the scale-safe
    # math.hypot.  vdot gives the bits of v.dot(v) without numpy's overflow
    # warning.
    n2 = float(np.vdot(v, v))
    return math.sqrt(n2) if _TINY <= n2 < math.inf else math.hypot(*v.tolist())


def _check_symmetric(H: Array) -> Array:
    # A finite symmetric H, n x n or the n-vector of a diagonal H's diagonal,
    # kept as it is (not copied) where it is exactly symmetric.
    H = _check_finite("H", H)
    if H.ndim not in (1, 2) or H.shape[0] != H.shape[-1]:
        raise ValueError(f"H must be square or a diagonal vector, got shape {H.shape}")
    if H.shape[0] == 0:
        raise ValueError("H must be at least 1 x 1")
    if H.ndim == 1 or (H == H.T).all():
        return H
    if np.max(np.abs(H - H.T)) > _SYM_TOL * np.max(np.abs(H)):
        raise ValueError("H is not symmetric within tolerance")
    return _symmetrize(H)


def _symmetrize(H: Array) -> Array:
    # (H + H^T) / 2 without the sum, which overflows for entries above ~9e307.
    H = np.asarray(H, dtype=float)
    return 0.5 * H + 0.5 * H.T


def _check_model(g: Array, H: Array) -> tuple[Array, Array]:
    # The inputs of every dense model: finite g, finite symmetric H, matching sizes.
    g = _check_finite("g", g)
    H = _check_symmetric(H)
    if H.shape[0] != g.shape[0]:
        raise ValueError(f"shape mismatch: g has {g.shape[0]} entries, H is {H.shape}")
    return g, H


def _times(H: Array, v: Array) -> Array:
    # H v, for H n x n or a diagonal H given as its diagonal.
    return H * v if H.ndim == 1 else H @ v


class DenseModel:
    """The local model g^T d + (1/2) d^T H d of one iterate, factorised once.

    Everything in the subproblem that does not depend on the radius is
    computed here, once (the split of More-Sorensen [2] and [1, ch. 7]): H
    is symmetry-checked and eigendecomposed, giving ``lam`` (ascending),
    ``gt = Q^T g`` and ``gnorm = ||g||``; then t_lo = max(0, -lambda_min),
    the critical set (the leading ``lam`` within 1e-12 max(|lambda_min|,
    |lambda_max|) of -t_lo, a prefix since ``lam`` ascends; every
    eigenvalue at H = 0), the gradient's norm on it and the hard-case test,
    that norm at most 1e-12 ||g||.  Both are relative to the model's own
    scale, with no absolute floor, so the answers are exactly equivariant
    under power-of-two scalings of g, H and the radius.  Where that test
    passes, the pseudo-inverse step ``Q dp`` at t_lo, its norm and the
    downhill critical eigenvector are kept as well.  Where every eigenvalue
    is critical, dp is zero and is set as such, with no division; for a
    diagonal H the eigenvector is +-e_j, j = ``order[0]``, with the sign
    opposite to g[j] (+ where g[j] is zero), set directly.  :meth:`solve`
    then does only the work of one radius, so the measure at radius 1 and
    the step at another radius share one factorisation;
    :meth:`gradient_step` gives the linear step and its decrease.

    A diagonal H, given as the n-vector of its diagonal or as an n x n
    matrix with no nonzero entry off the diagonal, is kept as that vector
    and factorised by the stable sort of its diagonal: ``lam`` is the sorted
    diagonal, bit for bit (also above about 1e146 and below about 1e-146 in
    magnitude, where ``eigh`` scales the matrix and rounds the eigenvalues),
    and the eigenvectors are the permutation ``order`` (the sort's index
    array), so ``Q^T g`` is ``g[order]``, ``Q c`` a scatter and ``H s`` an
    elementwise product: no n x n array is formed.  Any other H goes to
    LAPACK's ``eigh``.  ``Q`` is formed only when read.

    Parameters
    ----------
    g : ndarray
        Gradient of the model at the center.
    H : ndarray
        Symmetric model Hessian (symmetrized after a tolerance check; kept,
        not copied, where it is exactly symmetric), or the n-vector of a
        diagonal Hessian's diagonal.
    """

    def __init__(self, g: Array, H: Array):
        self._factorise(*_check_model(g, H))

    def _factorise(self, g, H):
        # g and H as given: finite, H exactly symmetric or a diagonal vector
        # (checked by the caller).
        if H.ndim == 2 and np.count_nonzero(H) == np.count_nonzero(H.diagonal()):
            H = H.diagonal()
        self.g, self.H = g, H
        self.gnorm = _norm(g)
        if H.ndim == 1:
            self._order, self._vecs = H.argsort(kind="stable"), None
            lam, gt = H[self._order], g[self._order]
        else:
            self._order = None
            lam, self._vecs = np.linalg.eigh(H)
            gt = self._vecs.T @ g
        self.lam, self.gt = lam, gt
        lam_min, lam_max = float(lam[0]), float(lam[-1])
        t_lo = max(0.0, -lam_min)
        # lam ascends, so the critical set is a prefix lam[:k] and the
        # extremes bound |lam|.  At H = 0 every eigenvalue is critical.
        scale = max(abs(lam_min), abs(lam_max))
        k = int((lam + t_lo).searchsorted(_GAP_TOL * scale, side="right"))
        self._t_lo = t_lo
        # (first index j of the gradient's support, lambda+_min = lam[j], sigma =
        # lam[j:] - lambda+_min, the Jensen shift, -gt[j:]), set by the first
        # Newton solve.
        self._support = None
        # (Q dp, ||dp||, downhill critical eigenvector or None at t_lo = 0)
        # where the hard-case test passes, else None.
        self._pinv = None
        if _norm(gt[:k]) <= _HARD_TOL * self.gnorm:
            # Pseudo-inverse solution at the left end of the multiplier
            # range: zero where every eigenvalue is critical (k = n).
            dp = np.zeros(len(lam))
            qdp, norm_dp = dp, 0.0
            if k < len(lam):
                dp[k:] = -gt[k:] / (lam[k:] + t_lo)
                qdp, norm_dp = self._from_eigenbasis(dp), _norm(dp)
            self._pinv = (qdp, norm_dp, self._min_vector() if t_lo != 0.0 else None)
        return self

    @property
    def Q(self) -> Array:
        """The eigenvectors, column j for ``lam[j]``; for a diagonal H the
        permutation matrix of ``order``, formed on each read."""
        if self._vecs is not None:
            return self._vecs
        return self._from_eigenbasis(np.eye(len(self.lam)))

    def _min_vector(self) -> Array:
        # Q[:, 0] oriented so that u^T g <= 0, and on a tie so that its
        # largest-magnitude entry is positive.  For a diagonal H that is e_j,
        # j = order[0], negated where g[j] = gt[0] > 0 (u^T g = g[j], and on
        # a tie the largest entry, 1, is already positive): no Q is formed.
        if self._vecs is None:
            u = np.zeros(len(self.lam))
            u[self._order[0]] = 1.0
            return -u if self.gt[0] > 0.0 else u
        u = self._vecs[:, 0]
        s = float(np.dot(u, self.g))
        return -u if s > 0.0 or (s == 0.0 and u[np.argmax(np.abs(u))] < 0.0) else u

    def _from_eigenbasis(self, c: Array) -> Array:
        # Q c: a scatter for a diagonal H.
        if self._vecs is not None:
            return self._vecs @ c
        d = np.empty_like(c)
        d[self._order] = c
        return d

    def decrease(self, delta: float) -> float:
        """The model decrease of the subproblem of radius ``delta``:
        ``solve(delta).model_decrease``."""
        return self.solve(delta).model_decrease

    def gradient_step(self, w_l: float) -> tuple[Array, float]:
        """The scaled gradient step s = -g/w_l and its model decrease."""
        s = -self.g / w_l
        return s, self._decrease_along(s)

    def _decrease_along(self, d: Array) -> float:
        # -(g^T d + (1/2) d^T H d), unclamped.
        return -(float(self.g.dot(d)) + 0.5 * float(d.dot(_times(self.H, d))))

    def _finish(self, d: Array, t: float, boundary: bool, hard: bool) -> TrsSolution:
        return TrsSolution(
            d=d,
            multiplier=float(t),
            model_decrease=max(self._decrease_along(d), 0.0),
            on_boundary=boundary,
            hard_case=hard,
        )

    def solve(self, delta: float) -> TrsSolution:
        """Globally solve the trust-region subproblem of radius ``delta`` > 0.

        Only the radius-dependent work is done here; the set-up shared by all
        radii is kept from the factorisation.  Where the hard-case test
        passed and the pseudo-inverse step at t_lo fits in the ball, the
        answer is that step (interior, PSD H) or that step pushed to the
        boundary along the critical eigenvector (the hard case).  Otherwise
        the step is on the boundary, at a multiplier t >= t_lo = max(0,
        -lambda_min) found by Newton's method on the secular equation
        ||d||^2 = Delta^2 in a variable that keeps the pole of lambda+_min,
        the smallest ``lam[i]`` with ``gt[i] != 0``, exact [5].  With s =
        lambda+_min + t and sigma_i = lam_i - lambda+_min >= 0 on the
        gradient's support, d has the coordinates c_i = -gt_i/(sigma_i + s),
        and ||d||^2 as a function of u = 1/s^2 is the sum of gt_i^2 u / (1 +
        sigma_i sqrt(u))^2: linear in u for the pole, concave for every other
        term (its slope is gt_i^2 / (1 + sigma_i sqrt(u))^3).  So the Newton
        step s <- s / sqrt(1 + (Delta^2 - ||d||^2) / (s sum c_i^2/(sigma_i +
        s))) lands at or right of the root in t from any start, and from there
        s falls monotonically to the root with every iterate inside the ball.
        The iteration starts at the Jensen bound ||g||/Delta - sum
        (gt_i/||g||)^2 sigma_i, left of the root, where that lies above t_lo,
        and otherwise at ||g||/Delta, inside the ball; a step whose radicand
        is not positive falls back to ||g||/Delta.  Where g lies in one
        eigenspace the start is the root, which costs one evaluation.
        lambda+_min, the sigma_i and the Jensen shift are found at the first
        Newton solve and kept.  The multiplier is s - lambda+_min, held at
        t_lo where rounding puts s below t_lo + lambda+_min.  Should the
        iteration stall short of the secular tolerance, its last iterate,
        which is inside the ball, reaches the boundary along the critical
        eigenvector by the smaller of the two steps (More-Sorensen [2]).
        The Newton part runs on Delta and
        ||g|| scaled by the powers of two that put them in [0.5, 1), and on s
        and sigma in units of the power of two of ||g||/Delta, so ||d|| and s
        keep their precision at every radius and scale of the model, also
        where ||g||/Delta underflows; a radius at which ||g||/Delta overflows
        raises ValueError.
        The norms of g and of the pseudo-inverse step, and the hard-case
        push, are formed without squaring out of the normal range, so the
        interior and hard-case answers keep theirs too, and a gradient
        whose squares overflow keeps a finite ||g||/Delta.
        One evaluation costs a few numpy calls on the cached spectrum: the
        slope is read from the coordinates c that it forms.  The
        floating-point error state is set once per solve.
        Each solution holds its own step array.
        """
        _check_radius(delta)
        lam, gt, t_lo = self.lam, self.gt, self._t_lo
        finish, from_eigenbasis = self._finish, self._from_eigenbasis

        if self._pinv is not None:
            qdp, norm_dp, u = self._pinv
            if norm_dp <= delta:
                if t_lo == 0.0:
                    # PSD (possibly singular but compatible): interior optimum.
                    return finish(qdp.copy(), 0.0, norm_dp >= delta * (1.0 - 1e-12), False)
                # Hard case: push to the boundary along a critical eigenvector.
                if norm_dp == 0.0:
                    theta = delta
                else:
                    # Squared at the scale of Delta in [0.5, 1), where they
                    # neither underflow nor overflow; the power of two moves
                    # no bit.
                    e = math.frexp(delta)[1]
                    r, p = math.ldexp(delta, -e), math.ldexp(norm_dp, -e)
                    theta = math.ldexp(math.sqrt(max(0.0, r * r - p * p)), e)
                return finish(qdp + theta * u, t_lo, True, True)

        # Boundary solution with t above t_lo: Newton on ||d||^2 in u = 1/s^2,
        # s = lambda+_min + t.  The coordinates below lambda+_min carry no
        # gradient and are zero; the ones from it on are the support.
        if self._support is None:
            j = 0 if gt[0] else int(gt.nonzero()[0][0])
            sigma, w = lam[j:] - lam[j], gt[j:] / self.gnorm
            self._support = (j, float(lam[j]), sigma, float(np.dot(w * w, sigma)), -gt[j:])
        j, lam_plus, sigma, shift, neg_gt = self._support
        g_delta = self.gnorm / delta
        if g_delta - lam_plus == math.inf:
            raise ValueError(f"the multiplier ||g||/delta overflows at delta = {delta!r}")
        # Delta and ||g|| are scaled by 2^-e and 2^-h into [0.5, 1), s and
        # sigma by 2^-f, f = h - e, so that d scales by 2^-e and ||g||/Delta
        # becomes top, in (0.5, 2).  A sigma_i that overflows there is inf
        # and its coordinate 0; where ||d||^2 overflows (s tiny next to gt)
        # the radicand is NaN and the step falls back to top.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e, h = math.frexp(delta)[1], math.frexp(self.gnorm)[1]
            f = h - e
            delta = math.ldexp(delta, -e)
            delta2, top = delta * delta, math.ldexp(self.gnorm, -h) / delta
            neg_gt, sigma = np.ldexp(neg_gt, -h), np.ldexp(sigma, -f)

            def phi_and_slope(s: float) -> tuple[float, float, Array]:
                # ||d||^2, s sum c_i^2/(sigma_i + s) (the slope in u over s^2)
                # and the coordinates c of d on the support.
                denom = sigma + s
                c = neg_gt / denom
                return float(np.dot(c, c)), s * float(np.dot(c, c / denom)), c

            s = g_delta - shift  # the Jensen bound, left of the root
            s = math.ldexp(s, -f) if s - lam_plus > t_lo else top
            for _ in range(100):
                n2, slope, c = phi_and_slope(s)
                gap = delta2 - n2
                if abs(gap) <= _SECULAR_TOL * delta2:
                    break
                rad = 1.0 + gap / slope if slope else math.nan
                s_new = s / math.sqrt(rad) if 0.0 < rad < math.inf else top
                if s_new == s:
                    break
                s = s_new
            if j:
                c = np.concatenate((np.zeros(j), c))
            if gap > _SECULAR_TOL * delta2:
                # Stalled inside the ball: reach the boundary along the
                # critical eigenvector by the root of smaller magnitude, which
                # changes the model least (More-Sorensen).
                p = c[0]
                c[0] += math.copysign(gap / (abs(p) + math.sqrt(p * p + gap)), p)
        t = max(t_lo, math.ldexp(s, f) - lam_plus)
        return finish(from_eigenbasis(np.ldexp(c, e)), t, True, False)


def solve_trs_exact(g: Array, H: Array, delta: float) -> TrsSolution:
    """Globally solve the trust-region subproblem: :meth:`DenseModel.solve`
    on a model factorised for this one call."""
    return DenseModel(g, H).solve(delta)


def cauchy_decrease(g: Array, H: Array, delta: float) -> tuple[float, float]:
    """Best model decrease along the scaled negative gradient.

    Maximizes alpha ||g||^2 - (alpha^2/2) g^T H g over
    {alpha >= 0 : alpha ||g|| <= Delta}; closed form from the sign of the
    curvature along g.  The curvature is read along the unit vector
    g/||g|| and ||g|| is taken without squaring out of the normal range,
    so a gradient whose square underflows or overflows keeps its alpha.

    g and H are checked as :class:`DenseModel` checks them.

    Returns
    -------
    (alpha, dq_c) : tuple of float
        The maximizing alpha and the achieved decrease (0 when g = 0).
    """
    _check_radius(delta)
    g, H = _check_model(g, H)
    gnorm = _norm(g)
    if gnorm == 0.0:
        return 0.0, 0.0
    u = g / gnorm
    curv = float(np.dot(u, _times(H, u)))
    # The step length tau = alpha ||g|| maximizes tau ||g|| - (tau^2/2) curv.
    tau = delta if curv <= 0.0 else min(gnorm / curv, delta)
    dq = tau * gnorm - 0.5 * tau * tau * curv
    return tau / gnorm, max(dq, 0.0)


def eigen_decrease(g: Array, H: Array, delta: float) -> tuple[Array, float, float]:
    """Best model decrease along the minimum-curvature direction of a dense H.

    lambda_min and its unit eigenvector u are read from one
    :class:`DenseModel` (which checks g and H), u oriented so that
    u^T g <= 0.  With lambda_min < 0 the model decreases along u all the
    way to the boundary, so alpha = delta; with lambda_min >= 0 the
    decrease is defined as 0 (no negative curvature to exploit) and u is
    still returned for inspection.

    Returns
    -------
    (u, alpha, dq_e)
    """
    _check_radius(delta)
    model = DenseModel(g, H)
    u = model._min_vector()
    lam_min = float(model.lam[0])
    if lam_min >= 0.0:
        return u, 0.0, 0.0
    slope = float(np.dot(model.g, u))  # <= 0 by the sign convention
    dq = -(slope * delta + 0.5 * lam_min * delta * delta)
    return u, delta, max(dq, 0.0)


def _lanczos(hvp: HvpHandle, v: Array, steps: int) -> Iterator[tuple[Array, Array, float]]:
    """Lanczos with full reorthogonalization, started from the unit vector v.

    After the m-th product with H yields ``(T_m, V_m, beta_m)``: the m x m
    tridiagonal Lanczos matrix, the m basis vectors (leading blocks of one
    tridiagonal and rows of one basis, both preallocated with min(steps, n)
    rows, and never written again once yielded) and the norm of the next
    residual.  Stops after ``steps`` products, n at most, or at breakdown,
    beta_m <= 1e-12 max(|alpha_m|, beta_{m-1}) (beta_0 = 0), which it
    reports as beta_m = 0: the span of V_m is then invariant under H to
    rounding.  The test is relative to the recurrence's own scale, so it
    reads the same at every scale of H.

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
            w = w - a * V[m - 1]  # a new array: the product is never written into
            if m > 1:
                w -= T[m - 1, m - 2] * V[m - 2]
            for u in V[:m]:
                w -= np.dot(w, u) * u
            b = math.sqrt(np.dot(w, w))
        if not math.isfinite(b):
            raise ValueError("Hessian-vector product overflows the Lanczos recurrence")
        T[m - 1, m - 1] = a
        if b <= 1e-12 * max(abs(a), T[m - 1, m - 2] if m > 1 else 0.0):
            yield T[:m, :m], V[:m], 0.0
            return
        yield T[:m, :m], V[:m], b
        if m < len(V):
            T[m, m - 1] = T[m - 1, m] = b
            np.divide(w, b, out=V[m])


def _combine(y: Array, V: Array) -> Array:
    """sum_i y_i v_i over the basis rows of V, summed row by row (``y @ V``
    sums in another order and moves the last bits of the steps)."""
    d = np.zeros(V.shape[1])
    for coeff, vec in zip(y, V):
        d += coeff * vec
    return d


def min_eigpair(hvp: HvpHandle, n: int, tol: float = 1e-8) -> EigenPair:
    """Minimum eigenpair of a symmetric n x n matrix given by v -> H v.

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
    each m x m Ritz matrix is no larger than the basis.  The vector is
    oriented so that its largest-magnitude entry is positive.  For a dense
    H, read ``lam[0]`` and ``Q[:, 0]`` of a :class:`DenseModel` instead.

    Raises
    ------
    LanczosNoConvergence
        Iteration cap reached before the residual test held and before the
        basis spanned the space.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _check_count("n", n)
    maxiter = min(n, _LANCZOS_BASIS_BYTES // (8 * n))
    rng = np.random.default_rng(1842962133)  # fixed seed: deterministic runs
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    theta = 0.0
    for T, V, b in _lanczos(hvp, v, maxiter):
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
    one Lanczos run; :meth:`decrease` runs the same solve without forming
    the n-vector step, and :meth:`gradient_step` reads its curvature off
    that run.

    The model keeps the suspended ``_lanczos`` generator, with its basis
    and tridiagonal (min(max_dim, n) rows each, allocated up front), the
    largest tridiagonal block T drawn so far, and the factorised m x m
    :class:`DenseModel` of each dimension m a solve has reached: O(mn +
    m^3) memory for a space of dimension m.  Each smaller
    tridiagonal is a leading block of T, bit for bit the matrix a fresh
    run builds and never written again, so a kept sub-model stays valid
    and a solve at another radius factorises no dimension already
    solved.  The blocks are factorised without the finiteness and
    symmetry checks of ``DenseModel(g, H)``: ``_lanczos`` has checked each
    product.  There is no restart: at breakdown the space is invariant and
    the model stops growing.  Each ``beta_m`` the run yields is kept: with
    the m-th tridiagonal solution y_m, GLTR's identity ||(H + lambda I) d +
    g|| = beta_m |e_m^T y_m| gives the full-space residual of the subspace
    step without another product, and :meth:`solve` stops on it.

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
        self.gnorm = _norm(self.g)
        self.dim = 0  # subspace dimension of the last solve
        self._T, self._V = np.empty((0, 0)), np.empty((0, self.g.shape[0]))
        self._betas = []  # beta_m of each dimension m drawn so far
        self._subs = []  # the factorised m x m model of each dimension m solved so far
        if seed_direction is not None:
            seed_direction = _check_finite("seed_direction", seed_direction)
        v = None
        if self.gnorm > 0.0:
            v = self.g / self.gnorm
        elif seed_direction is not None:
            vn = _norm(seed_direction)
            if vn == 0.0:
                raise ValueError("seed_direction must be nonzero")
            v = seed_direction / vn
        self._steps = None if v is None else _lanczos(hvp, v, max_dim)

    def _grow(self) -> bool:
        # One more product; False once the space stopped growing.
        step = next(self._steps, None)
        if step is None:
            return False
        self._T, self._V, beta = step
        self._betas.append(beta)
        return True

    def solve(self, delta: float) -> TrsSolution:
        """Solve the subproblem of radius ``delta`` > 0 on the Krylov space.

        After each dimension m the tridiagonal subproblem is solved exactly.
        Where lambda + theta_1 > 0 (theta_1 the smallest Ritz value, lambda
        the multiplier), the iteration stops at m when the gain predicted
        from the GLTR residual r = beta_m |e_m^T y_m|, r^2 / (2 (lambda +
        theta_1)), is at most 1e-8 of the decrease, without drawing product
        m + 1.  It is an estimate, not a bound (theta_1 >= lambda_min).
        Elsewhere it stops when the decrease stagnates (relative gain at
        most the same 1e-8 from m - 1 to m), which it sees only after drawing
        product m.  Breakdown (beta_m = 0: the current best is exact in the
        invariant space) and ``max_dim`` (or n) stop it as well.  Sets
        :attr:`dim`.
        The decrease dominates every feasible point of the final subspace,
        in particular the Cauchy point (the space starts at g) and any
        subspace eigen-point; it does not dominate an eigen-point outside
        the subspace.
        """
        sol = self._solve_tridiagonal(delta)
        d = _combine(sol.d, self._V[: self.dim])
        # The products y_i v_i round, so ||d|| can exceed delta by an ulp
        # although ||y|| does not: pull d back inside.
        norm_d = _norm(d)
        while norm_d > delta:
            d *= math.nextafter(delta / norm_d, 0.0)
            norm_d = _norm(d)
        return replace(sol, d=d)

    def decrease(self, delta: float) -> float:
        """``solve(delta).model_decrease``, without combining the step.

        Runs the same loop as :meth:`solve`: it draws the same products and
        sets the same :attr:`dim`, but never forms the n-vector step.
        """
        return self._solve_tridiagonal(delta).model_decrease

    def _solve_tridiagonal(self, delta: float) -> TrsSolution:
        # The loop of solve; the answer's step holds the coordinates y in the
        # Lanczos basis.
        _check_radius(delta)
        if self._steps is None:
            # Krylov space of g = 0 with no seed is {0}: the zero step is optimal there.
            self.dim = 0
            return TrsSolution(np.zeros(0), 0.0, 0.0, False, False)
        prev_dq = 0.0
        m = 0
        while m < len(self._T) or self._grow():
            m += 1
            if m > len(self._subs):
                g_sub = np.zeros(m)
                g_sub[0] = self.gnorm
                self._subs.append(DenseModel.__new__(DenseModel)._factorise(g_sub, self._T[:m, :m]))
            sub = self._subs[m - 1]
            sol = sub.solve(delta)
            tol = _KRYLOV_GAIN_TOL * sol.model_decrease
            shift = sol.multiplier + float(sub.lam[0])
            if shift > 0.0:
                # GLTR residual ||(H + lambda I) d + g|| = beta_m |y_m|, and the
                # gain it predicts for a larger space, drawing no product.
                r = self._betas[m - 1] * abs(float(sol.d[-1]))
                if r * r / (2.0 * shift) <= tol:
                    break
            elif m > 1 and sol.model_decrease - prev_dq <= tol:
                break
            prev_dq = sol.model_decrease
        self.dim = m
        return sol

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
    dnorm = delta * float(np.linalg.norm(sol.d / delta))  # ||d|| ~ delta: no underflow
    lam_min = float(model.lam[0])
    shifted = H + sol.multiplier if H.ndim == 1 else H + sol.multiplier * np.eye(len(g))
    return {
        "feasibility": max(0.0, dnorm - delta),
        "complementarity": abs(sol.multiplier * (delta - dnorm)),
        "stationarity": _norm(_times(shifted, sol.d) + g),
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


def brute_force_decrease(g: Array, H: Array, delta: float) -> float:
    """Reference value of the best model decrease over the ball.

    Built on the result of Adachi, Iwata, Nakatsukasa and Takeda [4]: on the
    boundary, the optimal multiplier is the rightmost eigenvalue of the
    pencil M0 + lambda M1, M0 = [[-I, H], [H, -g g^T / Delta^2]] and M1 =
    [[0, I], [I, 0]].  M1 is its own inverse, so one ``eig`` of the 2n x 2n
    matrix -M1 M0 gives it.  The problem is first taken to unit radius, a =
    Delta g and B = Delta^2 H, and (a, B) scaled by the power of two that
    brings their largest entry to [0.5, 1), which leaves the minimiser
    unchanged and keeps every entry finite up to the largest radii.  The
    multiplier is the largest real part among the eigenvalues (in the hard
    case the pair can be complex), floored at max(0, -lambda_min[B]); u =
    -(B + lambda I)^+ a.  The candidates are d = 0, u where it is feasible
    (the interior Newton point at lambda = 0), and u on the sphere: scaled
    onto it, or, where ||u|| < 1, pushed to it along the lambda_min
    eigenvector by either root.  Near the hard case ``eig`` resolves the
    multiplier poorly, so a projected-Newton polish on the sphere sharpens
    each sphere candidate to roundoff.  The answer is the best decrease of
    the candidates on the unscaled model.  It shares no secular Newton
    iteration with :class:`DenseModel`, so it can serve as an independent
    reference for it; its push along the lambda_min eigenvector resembles
    the solver's hard-case step.  H is an n x n matrix: the vector form of a
    diagonal H is rejected by ``eigh`` (``np.linalg.LinAlgError``, a
    ValueError).
    """
    g = np.asarray(g, dtype=float)
    H = _symmetrize(H)
    n = len(g)

    def model(d: Array) -> float:
        return float(np.dot(g, d) + 0.5 * np.dot(d, H @ d))

    a = delta * g
    B = (delta * delta) * H
    e = np.frexp(max(np.max(np.abs(a)), np.max(np.abs(B))))[1]
    a, B = np.ldexp(a, -e), np.ldexp(B, -e)
    w, V = np.linalg.eigh(B)
    pencil = np.block([[-B, np.outer(a, a)], [np.eye(n), -B]])  # -M1 M0 at unit radius
    lam = max(float(np.max(np.linalg.eigvals(pencil).real)), 0.0, -float(w[0]))
    u = np.linalg.lstsq(B + lam * np.eye(n), -a, rcond=None)[0]
    unorm = float(np.linalg.norm(u))
    values = [0.0]  # d = 0
    if unorm <= 1.0:
        values.append(model(delta * u))
        p = float(np.dot(u, V[:, 0]))
        root = math.sqrt(p * p + (1.0 - unorm) * (1.0 + unorm))
        sphere = [u + (s * root - p) * V[:, 0] for s in (1.0, -1.0)]
    else:
        sphere = [u / unorm]
    for u in sphere:
        values.append(model(delta * _sphere_polish(a, B, u)))
    return max(0.0, -min(values))
