"""Problem interface and built-in smooth test problems.

A :class:`ProblemOracle` supplies the gradient, the Hessian (dense while the
dimension stays moderate) and a Hessian-vector product of a twice continuously
differentiable function.  The objective value itself is only exposed through
``f_diagnostic``: the optimizer never reads it, traces and tests may.

Built-in problems cover the regimes the optimizer cares about: a convex PSD
quadratic, the (chained) Rosenbrock valley, a cubic with a saddle at the
origin, and a bounded-below nonconvex sum of cosines whose gradient and
Hessian Lipschitz constants are known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

# Beyond this dimension the dense Hessian map is dropped and only the
# Hessian-vector product remains (subspace mode must be used then).
DENSE_HESSIAN_MAX_DIM = 1000


@dataclass(frozen=True)
class ProblemOracle:
    """Derivative oracle of a smooth function on R^n.

    Evaluation maps are pure: equal inputs give bitwise-equal outputs.
    ``hessian`` is None when the problem is built in hvp-only mode.
    ``lipschitz_g``/``lipschitz_h`` are the gradient/Hessian Lipschitz
    constants where known, ``f_low`` a known lower bound on f (None when the
    function is unbounded below or the bound is unknown).
    """

    name: str
    n: int
    gradient: Callable[[Array], Array]
    hessian: Optional[Callable[[Array], Array]]
    hvp: Callable[[Array, Array], Array]
    f_diagnostic: Optional[Callable[[Array], float]] = None
    lipschitz_g: Optional[float] = None
    lipschitz_h: Optional[float] = None
    f_low: Optional[float] = None
    x0: Optional[Array] = None


@dataclass(frozen=True)
class FiniteDiffReport:
    """Maximum relative errors of central-difference derivative checks."""

    gradient_error: float
    hessian_error: float
    h: float


def _quadratic_psd(n: int) -> ProblemOracle:
    # f(x) = 0.5 ||x||^2, H = I.
    def f(x: Array) -> float:
        return 0.5 * float(np.dot(x, x))

    def gradient(x: Array) -> Array:
        return np.array(x, dtype=float, copy=True)

    def hessian(x: Array) -> Array:
        return np.eye(n)

    def hvp(x: Array, v: Array) -> Array:
        return np.array(v, dtype=float, copy=True)

    return ProblemOracle(
        name="quadratic_psd",
        n=n,
        gradient=gradient,
        hessian=hessian,
        hvp=hvp,
        f_diagnostic=f,
        lipschitz_g=1.0,
        lipschitz_h=0.0,
        f_low=0.0,
        x0=np.ones(n),
    )


def _rosenbrock(n: int) -> ProblemOracle:
    # Chained Rosenbrock: f = sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2.
    def f(x: Array) -> float:
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def gradient(x: Array) -> Array:
        g = np.zeros(n)
        t = x[1:] - x[:-1] ** 2
        g[:-1] += -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def hessian(x: Array) -> Array:
        H = np.zeros((n, n))
        i = np.arange(n - 1)
        H[i, i] += -400.0 * (x[1:] - 3.0 * x[:-1] ** 2) + 2.0
        H[i + 1, i + 1] += 200.0
        H[i, i + 1] += -400.0 * x[:-1]
        H[i + 1, i] += -400.0 * x[:-1]
        return H

    def hvp(x: Array, v: Array) -> Array:
        out = np.zeros(n)
        d = -400.0 * (x[1:] - 3.0 * x[:-1] ** 2) + 2.0
        off = -400.0 * x[:-1]
        out[:-1] += d * v[:-1] + off * v[1:]
        out[1:] += off * v[:-1] + 200.0 * v[1:]
        return out

    x0 = np.empty(n)
    x0[0::2] = -1.2
    x0[1::2] = 1.0
    return ProblemOracle(
        name="rosenbrock",
        n=n,
        gradient=gradient,
        hessian=hessian,
        hvp=hvp,
        f_diagnostic=f,
        lipschitz_g=None,
        lipschitz_h=None,
        f_low=0.0,
        x0=x0,
    )


def _saddle_cubic(n: int) -> ProblemOracle:
    # f = x1^3/3 - x2^2/2: saddle at the origin with H = diag(0, -1) there.
    # Unbounded below, so f_low stays None; Hessian Lipschitz constant is 2.
    def f(x: Array) -> float:
        return float(x[0] ** 3 / 3.0 - x[1] ** 2 / 2.0)

    def gradient(x: Array) -> Array:
        return np.array([x[0] ** 2, -x[1]])

    def hessian(x: Array) -> Array:
        return np.array([[2.0 * x[0], 0.0], [0.0, -1.0]])

    def hvp(x: Array, v: Array) -> Array:
        return np.array([2.0 * x[0] * v[0], -v[1]])

    return ProblemOracle(
        name="saddle_cubic",
        n=2,
        gradient=gradient,
        hessian=hessian,
        hvp=hvp,
        f_diagnostic=f,
        lipschitz_g=None,
        lipschitz_h=2.0,
        f_low=None,
        x0=np.zeros(2),
    )


def _cosine_sum(n: int) -> ProblemOracle:
    # f = sum_i cos(x_i): bounded below by -n, with ||g||_inf <= 1,
    # L1 = sup ||H||_2 = 1 and L2 = 1 (|cos a - cos b| <= |a - b|).
    def f(x: Array) -> float:
        return float(np.sum(np.cos(x)))

    def gradient(x: Array) -> Array:
        return -np.sin(x)

    def hessian(x: Array) -> Array:
        return np.diag(-np.cos(x))

    def hvp(x: Array, v: Array) -> Array:
        return -np.cos(x) * v

    return ProblemOracle(
        name="cosine_sum",
        n=n,
        gradient=gradient,
        hessian=hessian,
        hvp=hvp,
        f_diagnostic=f,
        lipschitz_g=1.0,
        lipschitz_h=1.0,
        f_low=-float(n),
        x0=0.5 * np.ones(n),
    )


_CATALOG: dict[str, tuple[Callable[[int], ProblemOracle], int, Optional[int]]] = {
    # name -> (factory, min dimension, exact dimension or None)
    "quadratic_psd": (_quadratic_psd, 1, None),
    "rosenbrock": (_rosenbrock, 2, None),
    "saddle_cubic": (_saddle_cubic, 2, 2),
    "cosine_sum": (_cosine_sum, 1, None),
}


def catalog_names() -> list[str]:
    """Names of the built-in problems."""
    return sorted(_CATALOG)


def make_problem(name: str, n: int) -> ProblemOracle:
    """Build a built-in problem oracle.

    Parameters
    ----------
    name : str
        Catalog entry name, one of :func:`catalog_names`.
    n : int
        Problem dimension; must be compatible with the family.

    Returns
    -------
    ProblemOracle
        Oracle with deterministic, side-effect-free evaluation maps; its
        dense Hessian is dropped when n > ``DENSE_HESSIAN_MAX_DIM``.

    Raises
    ------
    ValueError
        Unknown name or incompatible dimension.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown problem {name!r}; choices: {', '.join(catalog_names())}")
    factory, min_n, exact_n = _CATALOG[name]
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if exact_n is not None and n != exact_n:
        raise ValueError(f"problem {name!r} requires n = {exact_n}, got {n}")
    if n < min_n:
        raise ValueError(f"problem {name!r} requires n >= {min_n}, got {n}")
    oracle = factory(int(n))
    if n > DENSE_HESSIAN_MAX_DIM:
        oracle = replace(oracle, hessian=None)
    return oracle


def finite_diff_check(oracle: ProblemOracle, x: Array, h: float) -> FiniteDiffReport:
    """Central-difference consistency check of the oracle at a point.

    Compares the analytic gradient against central differences of
    ``f_diagnostic`` and the analytic Hessian against central differences of
    the gradient, reporting relative errors in the Euclidean/Frobenius norms
    (normalized by max(1, norm of the analytic quantity)).

    Raises
    ------
    ValueError
        If the oracle has no ``f_diagnostic`` or h is not positive and finite.
    """
    if oracle.f_diagnostic is None:
        raise ValueError(f"oracle {oracle.name!r} has no f_diagnostic; cannot finite-difference it")
    if not 0 < h < np.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h!r}")
    x = np.asarray(x, dtype=float)
    n = oracle.n
    f = oracle.f_diagnostic

    g_fd = np.empty(n)
    H_fd = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g_fd[i] = (f(x + e) - f(x - e)) / (2.0 * h)
        H_fd[:, i] = (oracle.gradient(x + e) - oracle.gradient(x - e)) / (2.0 * h)

    g = oracle.gradient(x)
    grad_err = float(np.linalg.norm(g_fd - g) / max(1.0, np.linalg.norm(g)))
    if oracle.hessian is not None:
        H = oracle.hessian(x)
    else:
        H = np.column_stack([oracle.hvp(x, np.eye(n)[:, i]) for i in range(n)])
    hess_err = float(np.linalg.norm(H_fd - H) / max(1.0, np.linalg.norm(H)))
    return FiniteDiffReport(gradient_error=grad_err, hessian_error=hess_err, h=float(h))
