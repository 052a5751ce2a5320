import copy
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from astr2 import (
    AdagradScaling,
    Astr2Config,
    DenseModel,
    KrylovModel,
    astr2_step,
    brute_force_decrease,
    cauchy_decrease,
    combined_measures,
    eigen_decrease,
    make_problem,
    min_eigpair,
    phi2,
    solve_trs_exact,
    solve_trs_krylov,
)
from astr2.trs import (
    LanczosNoConvergence,
    TrsSolution,
    _lanczos,
    _symmetrize,
    kkt_residuals,
)

from conftest import count_calls, random_symmetric, with_counting


def assert_kkt(g, H, delta, sol):
    res = kkt_residuals(g, H, delta, sol)
    gnorm = float(np.linalg.norm(g))
    assert res["feasibility"] <= 1e-10 * delta
    assert res["complementarity"] <= 1e-8 * delta
    assert res["stationarity"] <= 1e-8 * (gnorm + 1.0)
    assert res["psd"] <= 1e-10
    assert res["multiplier_sign"] == 0.0


# --- solve_trs_exact -------------------------------------------------------

def test_negative_curvature_1d_fills_the_radius():
    sol = solve_trs_exact(np.zeros(1), np.array([[-2.0]]), 1.0)
    assert abs(sol.d[0]) == 1.0
    assert sol.model_decrease == 1.0
    assert sol.hard_case and sol.on_boundary
    assert sol.multiplier == pytest.approx(2.0, abs=1e-12)


def test_convex_interior_solution():
    sol = solve_trs_exact(np.array([1.0, 0.0]), np.eye(2), 10.0)
    np.testing.assert_allclose(sol.d, [-1.0, 0.0], atol=1e-14)
    assert sol.model_decrease == pytest.approx(0.5, abs=1e-14)
    assert not sol.on_boundary
    assert sol.multiplier == 0.0


def test_indefinite_boundary_instance_matches_frozen_value():
    # max of -(d1 + (1/2)(-d1^2 + 2 d2^2)) over the unit disk is 1.5 at (-1, 0)
    g = np.array([1.0, 0.0])
    H = np.diag([-1.0, 2.0])
    sol = solve_trs_exact(g, H, 1.0)
    assert sol.model_decrease == pytest.approx(1.5, abs=1e-8)
    np.testing.assert_allclose(sol.d, [-1.0, 0.0], atol=1e-8)
    assert_kkt(g, H, 1.0, sol)


def test_hard_case_with_orthogonal_gradient():
    # g has no weight on the minimal eigenvector: multiplier sticks at -lam1
    # and the step is completed to the boundary along that eigenvector.
    g = np.array([0.0, 1.0])
    H = np.diag([-2.0, 1.0])
    sol = solve_trs_exact(g, H, 1.0)
    assert sol.hard_case
    assert np.linalg.norm(sol.d) == pytest.approx(1.0, abs=1e-12)
    assert sol.multiplier == pytest.approx(2.0, abs=1e-10)
    assert_kkt(g, H, 1.0, sol)
    bf = brute_force_decrease(g, H, 1.0)
    assert sol.model_decrease == pytest.approx(bf, abs=1e-8)


def _trs_check_instance(seed, index, max_n=8, radii=(0.1, 1.0, 10.0)):
    # The index-th instance `astr2 trs-check --seed SEED --max-n MAX_N` draws.
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        n = int(rng.integers(1, max_n + 1))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2.0, 2.0, n)
        delta = radii[int(rng.integers(len(radii)))]
    return g, H, delta


def _solve_counting_evaluations(model, delta):
    # Solve, counting the calls of the secular function inside solve.
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "phi_and_slope":
            calls.append(frame)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        sol = model.solve(delta)
    finally:
        sys.setprofile(previous)
    return sol, len(calls)


def test_near_hard_case_lands_on_the_boundary():
    # t is within 1.1e-5 of -lambda_1 and the gradient's critical component is
    # 1.1e-4, where Newton in t itself could not reach _SECULAR_TOL: the step
    # must reach the boundary and match the Krylov and brute-force values
    # (trs-check --count 500 --max-n 8 --seed 7 failed on this one).
    g, H, delta = _trs_check_instance(7, 224)
    assert (len(g), delta) == (5, 10.0)
    sol = solve_trs_exact(g, H, delta)
    assert np.linalg.norm(sol.d) == pytest.approx(delta, rel=1e-14)
    assert_kkt(g, H, delta, sol)
    kr, _ = solve_trs_krylov(g, lambda v: H @ v, delta, max_dim=len(g))
    assert abs(kr.model_decrease - sol.model_decrease) <= 1e-10
    bf = brute_force_decrease(g, H, delta)
    assert abs(sol.model_decrease - bf) <= 1e-9


@pytest.mark.parametrize("g, H", [
    ([70.0], [[-1.0]]),
    ([1.0], [[-1.0]]),
    ([0.5], [[-2e-3]]),
    ([3.0, 0.0], [[-1.0, 0.0], [0.0, 2.0]]),
])
@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
def test_root_at_the_bracket_end_is_taken_exactly(g, H, delta):
    # g lies along the lambda_min eigenvector, so the secular root is s =
    # lambda_min + t = ||g||/Delta, where Newton starts: it must accept it
    # after one evaluation.
    g, H = np.array(g), np.array(H)
    sol, evaluations = _solve_counting_evaluations(DenseModel(g, H), delta)
    assert sol.multiplier == abs(g[0]) / delta - H[0, 0]
    assert sol.on_boundary and not sol.hard_case
    assert abs(np.linalg.norm(sol.d) - delta) <= 1e-15
    assert evaluations == 1


@pytest.mark.parametrize("g, H, delta", [
    ([0.0, 3.0], [-1.0, 2.0], 0.5),
    ([0.0, 3.0, 4.0], [-1.0, 2.0, 2.0], 1.0),
    ([0.0, 3.0, 0.0], [-1.0, 2.0, 5.0], 0.25),
])
def test_gradient_in_one_eigenspace_takes_one_evaluation(g, H, delta):
    # g lies in one eigenspace above lambda_min, so the Jensen shift is 0 and
    # the start ||g||/Delta - lambda is the root.
    g, H = np.array(g), np.array(H)
    sol, evaluations = _solve_counting_evaluations(DenseModel(g, H), delta)
    assert evaluations == 1
    assert sol.multiplier == np.linalg.norm(g) / delta - 2.0
    assert sol.on_boundary and not sol.hard_case
    assert np.linalg.norm(sol.d) == pytest.approx(delta, rel=1e-15)
    assert_kkt(g, H, delta, sol)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clustered_spectrum_near_a_maximum_takes_at_most_three_evaluations(seed):
    # cosine_sum near its maximum at 0 (the dense benchmark's start): every
    # eigenvalue is within about 1e-11 of -1, so Newton from the Jensen
    # bound meets the root within a few steps.
    oracle = make_problem("cosine_sum", 150)
    x = 1e-6 * np.random.default_rng(seed).standard_normal(150)
    g, H = oracle.gradient(x), oracle.hessian(x)
    sol, evaluations = _solve_counting_evaluations(DenseModel(g, H), 1.0)
    assert evaluations <= 3
    assert sol.on_boundary
    assert_kkt(g, H, 1.0, sol)


@pytest.mark.parametrize("g, H, delta", [
    ([-0.009744053964982612], [[-0.14395634862343704]], 717.9042075827562),
    ([1.6806942019435917e-12], [[-0.08852890525941773]], 0.03937920920350738),
])
def test_unresolved_root_at_the_bracket_end_does_not_stall(g, H, delta):
    # g lies along the lambda_min eigenvector and lambda + t cancels at the
    # root, where Newton in t missed the secular tolerance and re-evaluated
    # (80 and 202 evaluations) or bisected (42 and 23).  In s = lambda + t
    # the root is the start ||g||/Delta: the solve must take it and finish
    # on the boundary.
    g, H = np.array(g), np.array(H)
    sol, evaluations = _solve_counting_evaluations(DenseModel(g, H), delta)
    assert evaluations <= 3
    assert sol.multiplier == abs(g[0]) / delta - H[0, 0]
    assert sol.on_boundary
    assert np.linalg.norm(sol.d) == pytest.approx(delta, rel=1e-14)
    bf = brute_force_decrease(g, H, delta)
    assert abs(sol.model_decrease - bf) <= 1e-9 * max(1.0, bf)


def test_near_hard_case_with_a_degenerate_bracket_stays_finite():
    # ||g||/Delta = 2e-12 is below one ulp of t_lo = 1e5, so lambda_1 + t is
    # 0 to rounding in t, and the critical coordinate -gt/0 there; in s =
    # lambda_1 + t it is -gt/s, finite.
    g = np.array([2e-12, 0.0])
    H = np.diag([-1e5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = DenseModel(g, H).solve(1.0)
        bf = brute_force_decrease(g, H, 1.0)
    assert np.all(np.isfinite(sol.d))
    assert np.linalg.norm(sol.d) == pytest.approx(1.0, rel=1e-14)
    assert abs(sol.model_decrease - bf) <= 1e-9


def test_planted_hard_and_near_hard_cases_match_the_reference():
    # g's weight on the lambda_min eigenvector is scaled by 0 (the hard case
    # up to rounding) or by a small factor (near-hard, where the secular
    # root sits within a hair of -lambda_min and the reference's pencil
    # resolves the multiplier poorly).
    rng = np.random.default_rng(11)
    for n in range(3, 9):
        for weight in (0.0, 1e-12, 1e-8, 1e-4):
            for delta in (0.1, 1.0, 10.0, 1e3):
                Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                w = rng.uniform(-2.0, 2.0, n)
                w[0] *= weight
                H = _symmetrize((Q * np.sort(rng.uniform(-2.0, 2.0, n))) @ Q.T)
                g = Q @ w
                sol = solve_trs_exact(g, H, delta)
                assert_kkt(g, H, delta, sol)
                assert sol.model_decrease == pytest.approx(brute_force_decrease(g, H, delta),
                                                           rel=1e-10)


def test_near_hard_sweep_takes_bounded_secular_work():
    # Planted near-hard models: the gradient's weight on the lambda_min
    # eigenvector scaled by 1e-12, 1e-8 or 1e-4, at radii from 0.1 to 1e8,
    # where the secular root lies close to the pole at -lambda_min.
    counts = []
    for scale in (1e-12, 1e-8, 1e-4):
        rng = np.random.default_rng(1234)
        for i in range(1200):
            n = int(rng.integers(3, 9))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = np.sort(rng.uniform(-2.0, 2.0, n))
            gt = rng.uniform(-2.0, 2.0, n)
            gt[0] *= scale
            H = _symmetrize((Q * lam) @ Q.T)
            g = Q @ gt
            delta = (0.1, 1.0, 10.0, 1e3, 1e5, 1e8)[i % 6]
            sol, evaluations = _solve_counting_evaluations(DenseModel(g, H), delta)
            counts.append(evaluations)
            bf = brute_force_decrease(g, H, delta)
            assert abs(sol.model_decrease - bf) <= 1e-8 * bf
            if sol.on_boundary:
                assert abs(np.linalg.norm(sol.d) - delta) <= 1e-12 * delta
    counts = np.array(counts)
    assert np.count_nonzero(counts > 10) <= 100
    assert counts.max() <= 25


@pytest.mark.parametrize("delta", [3e5, 1e6, 1e8])
def test_a_root_below_lambda_plus_min_keeps_a_nonnegative_multiplier(delta):
    # lambda_min = 5.2e-15 is within the critical gap of lambda_max = 1 and
    # carries more gradient than the hard-case test allows, so the solve
    # goes to the boundary; at these radii s = lambda+_min + t falls below
    # lambda+_min, and the multiplier is held at t_lo = 0, not negative.
    g = np.array([0.6038806561605343, 1.1661375351467504])
    H = np.array([[0.21145930516852018, 0.4083433205357512],
                  [0.4083433205357512, 0.788540694831487]])
    sol = solve_trs_exact(g, H, delta)
    res = kkt_residuals(g, H, delta, sol)
    assert sol.on_boundary and sol.multiplier == 0.0
    assert res["multiplier_sign"] == 0.0 and res["psd"] == 0.0
    assert res["feasibility"] <= 1e-10 * delta


@pytest.mark.parametrize("delta", [1e-120, 1e-200, 1e-300])
def test_tiny_radii_reach_the_boundary(delta):
    # d(t) is about Delta, so its squared norm underflows unless the Newton
    # iteration works at a scaled radius.  ||d|| is measured as ||d / Delta||,
    # which does not underflow.
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            n = int(rng.integers(1, 6))
            H = random_symmetric(rng, n)
            g = rng.uniform(-2.0, 2.0, n)
            sol = solve_trs_exact(g, H, delta)
            assert sol.on_boundary
            assert np.linalg.norm(sol.d / delta) == pytest.approx(1.0, rel=1e-14)
            assert sol.model_decrease == pytest.approx(brute_force_decrease(g, H, delta),
                                                       rel=1e-10)
            # kkt_residuals measures ||d|| without underflow as well.
            res = kkt_residuals(g, H, delta, sol)
            assert res["feasibility"] <= 1e-14 * delta
            assert res["complementarity"] <= 1e-14 * sol.multiplier * delta


@pytest.mark.parametrize("delta", [1e-160, 1e-170, 1e-200, 1e-300])
def test_pseudo_inverse_steps_reach_the_boundary_at_tiny_radii(delta):
    # The norm of the pseudo-inverse step (about Delta) and the boundary
    # push are computed without squaring into the subnormal range: the hard
    # case g = (0, Delta), H = diag(-1, 1), and the singular PSD case
    # g = (3 Delta, 0), H = diag(1, 0), whose step is not interior but on
    # the boundary at multiplier 2.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hard = solve_trs_exact(np.array([0.0, delta]), np.diag([-1.0, 1.0]), delta)
        g, H = np.array([3.0 * delta, 0.0]), np.diag([1.0, 0.0])
        psd = solve_trs_exact(g, H, delta)
        res = kkt_residuals(g, H, delta, psd)
    assert hard.hard_case and hard.on_boundary and hard.multiplier == 1.0
    assert np.linalg.norm(hard.d / delta) == pytest.approx(1.0, rel=1e-14)
    assert psd.on_boundary and not psd.hard_case
    assert psd.multiplier == pytest.approx(2.0, rel=1e-14)
    np.testing.assert_allclose(psd.d / delta, [-1.0, 0.0], rtol=1e-14)
    assert res["feasibility"] <= 1e-14 * delta
    assert res["complementarity"] <= 1e-14 * delta


def test_a_gradient_whose_squares_overflow_keeps_a_finite_norm():
    # g^T g overflows although ||g|| = 1.41e160 does not: the norm falls
    # back to math.hypot, so the multiplier ||g||/Delta = 1.41e30 is finite
    # and the Cauchy step keeps its length, with no overflow warning.  The
    # KKT residuals meet criterion 4's tolerances at the model's scale, the
    # multiplier: t rounds to 1 ulp, so stationarity is ~1e-16 ||g||, not 0.
    g, H, delta = np.array([1e160, 1e160]), np.array([1e20, 2e20]), 1e130
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = DenseModel(g, H).solve(delta)
        res = kkt_residuals(g, H, delta, sol)
        alpha, dq = cauchy_decrease(g, H, delta)
    assert sol.on_boundary and sol.multiplier == pytest.approx(math.sqrt(2.0) * 1e30, rel=1e-9)
    scale, gnorm = sol.multiplier, math.hypot(*g)
    assert res["feasibility"] <= 1e-10 * delta
    assert res["complementarity"] <= 1e-8 * delta * scale
    assert res["stationarity"] <= 1e-8 * (gnorm + scale)
    assert res["psd"] <= 1e-10 * scale
    assert res["multiplier_sign"] == 0.0
    assert alpha == pytest.approx(1e130 / (math.sqrt(2.0) * 1e160), rel=1e-15)
    assert dq == pytest.approx(math.sqrt(2.0) * 1e290, rel=1e-9)


_PUSH_THETA = math.sqrt(1.0 - (1.0 / 3.0) ** 2)  # the push of the [+-1e-14, 1] cases
_HARD_CASE_PUSHES = {
    # (g, diagonal of H, delta, step, push direction): a diagonal hard case
    # pushes along +-e_j, j the index of lambda_min, with the sign opposite
    # to g[j] (a negated e_j, -0.0 off j) and + where g[j] is zero of
    # either sign.
    "zero_1d": ([0.0], [-0.7], 0.5, [0.5], [1.0]),
    "negative_zero_1d": ([-0.0], [-0.7], 0.5, [0.5], [1.0]),
    "zero_3d": ([0.0, 0.0, 0.0], [1.0, -2.0, -1.0], 0.5, [0.0, 0.5, 0.0], [0.0, 1.0, 0.0]),
    "negative_zero_3d": ([-0.0, -0.0, -0.0], [1.0, -2.0, -1.0], 0.5, [0.0, 0.5, 0.0],
                         [0.0, 1.0, 0.0]),
    "positive_critical": ([1e-14, 1.0], [-2.0, 1.0], 1.0, [-_PUSH_THETA, -1.0 / 3.0],
                          [-1.0, -0.0]),
    "negative_critical": ([-1e-14, 1.0], [-2.0, 1.0], 1.0, [_PUSH_THETA, -1.0 / 3.0],
                          [1.0, 0.0]),
}


@pytest.mark.parametrize("case", sorted(_HARD_CASE_PUSHES))
def test_a_diagonal_hard_case_pushes_along_the_signed_unit_vector(case):
    # The push direction of a diagonal H is set as +-e_j, not read from Q:
    # the step and the eigen-point direction are the vectors written out
    # here bit for bit (signed zeros included), for H as a vector and as a
    # matrix.
    g, d, delta, want, u = (np.array(a) for a in _HARD_CASE_PUSHES[case])
    j = int(np.argmin(d))
    for H in (d, np.diag(d)):
        sol = DenseModel(g, H).solve(delta)
        assert sol.hard_case and sol.on_boundary and sol.multiplier == -d[j]
        assert sol.d.tobytes() == want.tobytes(), sol.d
        assert eigen_decrease(g, H, delta)[0].tobytes() == u.tobytes()


def test_singular_psd_compatible_gradient_is_interior():
    # H has a null direction carrying no gradient: pseudo-inverse step,
    # no spurious boundary push.
    g = np.array([1.0, 0.0])
    H = np.diag([1.0, 0.0])
    sol = solve_trs_exact(g, H, 10.0)
    np.testing.assert_allclose(sol.d, [-1.0, 0.0], atol=1e-12)
    assert sol.multiplier == 0.0
    assert not sol.hard_case


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_trs_exact(np.ones(2), np.array([[1.0, 5.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        solve_trs_exact(np.ones(2), np.eye(2), 0.0)
    with pytest.raises(ValueError):
        solve_trs_exact(np.array([np.inf, 0.0]), np.eye(2), 1.0)
    with pytest.raises(ValueError, match="multiplier"):
        # the multiplier, about ||g||/Delta, overflows
        solve_trs_exact(np.ones(2), np.eye(2), 1e-310)
    with pytest.raises(ValueError, match="must be square"):
        solve_trs_exact(np.ones(2), np.ones((2, 3)), 1.0)
    for tol in (0.0, -1e-8):
        with pytest.raises(ValueError, match="tol must be positive"):
            min_eigpair(lambda v: v, 3, tol)


def test_empty_dense_model_is_rejected():
    # n = 0 has no lambda_min; every dense entry point says so instead of
    # indexing an empty spectrum.
    g = np.zeros(0)
    for H in (np.zeros((0, 0)), np.zeros(0)):
        entry_points = (
            lambda: DenseModel(g, H).solve(1.0),
            lambda: solve_trs_exact(g, H, 1.0),
            lambda: phi2(g, H, 1.0),
            lambda: combined_measures(g, H, 1.0, 1.0),
            lambda: cauchy_decrease(g, H, 1.0),
            lambda: eigen_decrease(g, H, 1.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in entry_points:
                with pytest.raises(ValueError, match="at least 1 x 1"):
                    call()


@pytest.mark.parametrize("g, H, delta", [
    (np.zeros(0), np.zeros((0, 0)), 1.0),
    (np.zeros(0), np.zeros(0), 1.0),
    (np.array([np.nan, 0.0]), np.eye(2), 1.0),
    (np.zeros(2), [[1.0, 0.0], [0.0]], 1.0),  # ragged
    (np.zeros(2), np.eye(3), 1.0),
    (np.zeros(2), np.eye(2), 0.0),
    (np.ones(2), np.diag([np.nan, 1.0]), 1.0),
    (np.ones(2), [[1.0, 0.5], [0.0, 1.0]], 1.0),
    (np.zeros(2), np.ones(3), 1.0),
    (np.ones(2), [np.inf, 1.0], 1.0),
    (np.ones(2), np.ones((2, 2, 2)), 1.0),
    (np.ones(2), [[1e-20, 1e-20], [0.0, 1e-20]], 1.0),  # asymmetric at the scale of max |H|
], ids=["empty", "empty_vector", "nan_g", "ragged_H", "shape_mismatch", "zero_radius", "nan_H",
        "asymmetric_H", "vector_shape_mismatch", "inf_vector_H", "three_dimensional_H",
        "tiny_asymmetric_H"])
def test_kkt_residuals_rejects_what_the_dense_model_rejects(g, H, delta):
    # So do the Cauchy and eigen decreases, which check g and H as the model does.
    sol = TrsSolution(np.zeros(len(g)), 0.0, 0.0, False, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: kkt_residuals(g, H, delta, sol),
            lambda: cauchy_decrease(g, H, delta),
            lambda: eigen_decrease(g, H, delta),
        ):
            with pytest.raises(ValueError):
                call()


def test_decrease_dominates_cauchy_and_eigen_points(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        delta = float(rng.choice([0.1, 1.0, 10.0]))
        sol = solve_trs_exact(g, H, delta)
        _, dq_c = cauchy_decrease(g, H, delta)
        _, _, dq_e = eigen_decrease(g, H, delta)
        assert sol.model_decrease >= max(dq_c, dq_e) - 1e-10
        assert_kkt(g, H, delta, sol)
        # The Krylov space starts at g, so every subspace dimension, down to
        # the Cauchy problem at m = 1, dominates the Cauchy point.
        for m in range(1, n + 1):
            kr, _ = solve_trs_krylov(g, lambda v: H @ v, delta, max_dim=m)
            assert kr.model_decrease >= dq_c - 1e-12 * max(1.0, dq_c)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    n=st.integers(min_value=1, max_value=6),
    delta=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_exact_solver_kkt_property(seed, n, delta):
    rng = np.random.default_rng(seed)
    H = random_symmetric(rng, n)
    g = rng.uniform(-2, 2, n)
    sol = solve_trs_exact(g, H, delta)
    assert_kkt(g, H, delta, sol)
    assert sol.model_decrease >= -0.0


# --- cauchy_decrease -------------------------------------------------------

def test_cauchy_convex_instance():
    alpha, dq = cauchy_decrease(np.array([1.0, 0.0]), np.eye(2), 10.0)
    assert alpha == pytest.approx(1.0, abs=1e-15)
    assert dq == pytest.approx(0.5, abs=1e-15)


def test_cauchy_zero_gradient():
    alpha, dq = cauchy_decrease(np.zeros(3), np.eye(3), 1.0)
    assert alpha == 0.0 and dq == 0.0


def test_cauchy_negative_curvature_goes_to_the_boundary():
    alpha, dq = cauchy_decrease(np.array([1.0, 0.0]), np.diag([-1.0, 2.0]), 1.0)
    assert alpha == pytest.approx(1.0, abs=1e-15)
    assert dq == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("gi", [1e-100, 1e-170])
def test_cauchy_gradient_whose_square_underflows_keeps_its_step(gi):
    # ||g||^2 is 1e-200 or underflows to 0; the curvature along g/||g|| does
    # not, so the step is the full Newton step alpha = 1/curvature.
    alpha, dq = cauchy_decrease(np.array([gi]), np.array([1.0]), 1.0)
    assert alpha == 1.0
    assert dq == pytest.approx(0.5 * gi * gi, rel=1e-15, abs=0.0)


def test_cauchy_maximizes_along_the_gradient_ray(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        delta = float(rng.choice([0.1, 1.0, 10.0]))
        alpha, dq = cauchy_decrease(g, H, delta)
        gnorm = np.linalg.norm(g)
        assert 0.0 <= alpha * gnorm <= delta * (1 + 1e-12)
        grid = np.linspace(0.0, delta / gnorm, 2001)
        vals = grid * gnorm ** 2 - 0.5 * grid ** 2 * float(g @ H @ g)
        assert dq >= np.max(vals) - 1e-8


# --- eigen_decrease --------------------------------------------------------

def test_eigen_pure_negative_curvature():
    u, alpha, dq = eigen_decrease(np.zeros(2), np.diag([-1.0, 1.0]), 2.0)
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-12) and u[1] == pytest.approx(0.0, abs=1e-12)
    assert alpha == pytest.approx(2.0, abs=1e-12)
    assert dq == pytest.approx(2.0, abs=1e-12)


def test_eigen_psd_returns_zero():
    _, alpha, dq = eigen_decrease(np.array([3.0, -1.0]), np.eye(2), 5.0)
    assert alpha == 0.0 and dq == 0.0


def test_eigen_semidefinite_with_orthogonal_gradient():
    u, alpha, dq = eigen_decrease(np.array([0.0, 1.0]), np.diag([-1.0, 0.0]), 1.0)
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-12)
    assert float(u @ np.array([0.0, 1.0])) <= 0.0
    assert dq == pytest.approx(0.5, abs=1e-12)


def test_eigen_direction_conditions_hold(rng):
    for _ in range(100):
        n = int(rng.integers(1, 6))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        u, alpha, dq = eigen_decrease(g, H, 1.0)
        lam_min = np.linalg.eigvalsh(H)[0]
        if lam_min >= 0:
            assert dq == 0.0
            continue
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert float(u @ H @ u) <= lam_min + 1e-8
        assert float(u @ g) <= 1e-12
        assert 0.0 <= alpha <= 1.0 + 1e-12
        assert dq >= 0.0


# --- min_eigpair -----------------------------------------------------------

def test_min_eigpair_diagonal():
    pair = min_eigpair(lambda v: np.diag([3.0, -2.0]) @ v, 2)
    assert pair.value == pytest.approx(-2.0, abs=1e-14)
    assert abs(pair.vector[1]) == pytest.approx(1.0, abs=1e-12)


def test_min_eigpair_identity():
    pair = min_eigpair(lambda v: v, 4)
    assert pair.value == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)


def test_min_eigpair_matrix_free_matches_dense(rng):
    for _ in range(30):
        n = int(rng.integers(2, 25))
        H = random_symmetric(rng, n)
        lam_min = DenseModel(np.zeros(n), H).lam[0]
        free = min_eigpair(lambda v: H @ v, n=n, tol=1e-10)
        assert free.value == pytest.approx(lam_min, abs=1e-8)
        assert np.linalg.norm(free.vector) == pytest.approx(1.0, abs=1e-12)
        assert float(free.vector @ H @ free.vector) <= lam_min + 1e-8


def test_min_eigpair_requires_dimension_for_handles():
    for n in (None, 0, 2.5):
        with pytest.raises(ValueError):
            min_eigpair(lambda v: v, n=n)


def test_min_eigpair_without_room_for_one_basis_vector_raises(monkeypatch):
    import astr2.trs

    monkeypatch.setattr(astr2.trs, "_LANCZOS_BASIS_BYTES", 8 * 50 - 1)
    with pytest.raises(LanczosNoConvergence, match="in 0 Lanczos iterations"):
        min_eigpair(lambda v: v, n=50)


def _three_eigenvalue_diagonal():
    # 50 entries taking three distinct values, one negative: every Krylov
    # space has dimension <= 3, so Lanczos breaks down after three products.
    return np.repeat([-1.5, 0.5, 3.0], [10, 15, 25])


def test_min_eigpair_stops_at_breakdown():
    diag = _three_eigenvalue_diagonal()
    calls = {"n": 0}

    def hvp(v):
        calls["n"] += 1
        return diag * v

    # tol far below rounding: only the breakdown can end the iteration early
    pair = min_eigpair(hvp, n=len(diag), tol=1e-300)
    assert calls["n"] == 3
    assert pair.value == pytest.approx(-1.5, abs=1e-12)


def test_lanczos_tridiagonal_blocks_are_exact_and_never_rewritten():
    # Each yielded T_m is, bit for bit, the tridiagonal np.diag builds from
    # the alphas and betas, and later steps leave it as it was yielded.
    H = random_symmetric(np.random.default_rng(3), 8)
    blocks, alphas, betas = [], [], []
    for T, V, b in _lanczos(lambda v: H @ v, np.full(8, 8 ** -0.5), 8):
        alphas.append(float(np.dot(V[-1], H @ V[-1])))
        want = np.diag(alphas)
        idx = np.arange(len(betas))
        want[idx, idx + 1] = want[idx + 1, idx] = betas
        assert T.tobytes() == want.tobytes()
        blocks.append((T, want))
        betas.append(b)
    assert len(blocks) == 8
    for T, want in blocks:
        assert T.tobytes() == want.tobytes()


# --- solve_trs_krylov ------------------------------------------------------

def test_krylov_full_dimension_matches_exact(rng):
    for _ in range(50):
        n = 5
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        delta = float(rng.choice([0.1, 1.0, 10.0]))
        exact = solve_trs_exact(g, H, delta)
        sub, dim = solve_trs_krylov(g, lambda v: H @ v, delta, max_dim=n)
        assert sub.model_decrease == pytest.approx(exact.model_decrease, abs=1e-8)
        assert 1 <= dim <= n


def test_krylov_gradient_on_an_eigenline():
    H = np.diag([-1.0, 2.0, 4.0])
    g = np.array([3.0, 0.0, 0.0])
    sub, dim = solve_trs_krylov(g, lambda v: H @ v, 1.0, max_dim=1)
    assert dim == 1
    # 1-D restriction along g: max of 3a + a^2/2 over |a| <= 1 at a = 1
    assert sub.model_decrease == pytest.approx(3.5, abs=1e-10)
    np.testing.assert_allclose(sub.d, [-1.0, 0.0, 0.0], atol=1e-10)


def test_krylov_zero_gradient_uses_the_seed():
    rng = np.random.default_rng(11)
    H = random_symmetric(rng, 6)
    u_min = DenseModel(np.zeros(6), H).Q[:, 0]
    sub = KrylovModel(np.zeros(6), lambda v: H @ v, 6, u_min).solve(2.0)
    u, alpha, dq_e = eigen_decrease(np.zeros(6), H, 2.0)
    assert sub.model_decrease >= dq_e - 1e-10


def test_krylov_seed_is_normalised_without_overflow():
    # ||seed||^2 overflows for a seed of 1e200; the seed is still scaled to
    # unit length, so it starts the space that [1, 0] starts, with no
    # overflow warning.
    d = np.array([-1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sols = [KrylovModel(np.zeros(2), lambda v: d * v, 2, np.array(seed)).solve(1.0)
                for seed in ([1e200, 0.0], [1.0, 0.0])]
    assert _bits(sols[0]) == _bits(sols[1])
    np.testing.assert_array_equal(sols[0].d, [1.0, 0.0])
    assert sols[0].model_decrease == 0.5


def test_krylov_stops_at_breakdown():
    diag = _three_eigenvalue_diagonal()
    g = np.linspace(0.1, 1.0, len(diag))  # weight on all three eigenvalues
    sub, dim = solve_trs_krylov(g, lambda v: diag * v, 1.0, max_dim=10)
    assert dim == 3
    exact = solve_trs_exact(g, np.diag(diag), 1.0)
    assert sub.model_decrease == pytest.approx(exact.model_decrease, abs=1e-12)


def test_krylov_gradient_step_reads_its_curvature_from_the_first_product():
    H = random_symmetric(np.random.default_rng(4), 6)
    g = np.random.default_rng(5).uniform(-2, 2, 6)
    calls = {"n": 0}

    def hvp(v):
        calls["n"] += 1
        return H @ v

    s, dq = KrylovModel(g, hvp, 6).gradient_step(2.0)  # no solve before it
    want_s, want_dq = DenseModel(g, H).gradient_step(2.0)
    np.testing.assert_array_equal(s, want_s)
    assert dq == pytest.approx(want_dq, rel=1e-14)
    assert calls["n"] == 1
    s, dq = KrylovModel(np.zeros(6), hvp, 6).gradient_step(2.0)
    assert dq == 0.0 and not s.any()
    assert calls["n"] == 1


def test_krylov_model_keeps_a_gradient_whose_square_underflows():
    # ||g||^2 underflows to 0 below about 1e-162; ||g|| must not, or the
    # space of g reads as {0} and the solve returns the zero step.
    g, d = np.array([1e-170, 0.0]), np.array([1.0, 2.0])
    model = KrylovModel(g, lambda v: d * v, 2)
    sol = model.solve(1e-171)
    want = solve_trs_exact(g, d, 1e-171)
    np.testing.assert_array_equal(want.d, [-1e-171, 0.0])
    assert model.gnorm == 1e-170 and model.dim == 1
    np.testing.assert_allclose(sol.d, want.d, rtol=1e-15, atol=0.0)
    assert sol.multiplier == pytest.approx(want.multiplier, rel=1e-15)


def test_krylov_max_dim_must_be_a_positive_integer():
    for max_dim in (0, -1, 2.5):
        with pytest.raises(ValueError):
            solve_trs_krylov(np.ones(3), lambda v: v, 1.0, max_dim=max_dim)


def test_krylov_zero_gradient_without_seed_is_the_zero_step():
    sol, dim = solve_trs_krylov(np.zeros(3), lambda v: v, 1.0, max_dim=3)
    assert dim == 0
    assert sol.model_decrease == 0.0
    np.testing.assert_array_equal(sol.d, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_krylov_rejects_a_non_finite_gradient_or_seed(bad):
    # A NaN gradient has no nonzero norm to start from; it must not read as g = 0.
    g = np.array([bad, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="g contains non-finite entries"):
            KrylovModel(g, lambda v: v, 2)
        with pytest.raises(ValueError, match="g contains non-finite entries"):
            solve_trs_krylov(g, lambda v: v, 1.0, max_dim=2)
        with pytest.raises(ValueError, match="seed_direction contains non-finite entries"):
            KrylovModel(np.zeros(2), lambda v: v, 2, np.array([bad, 1.0]))


def test_krylov_rejects_a_zero_seed():
    with pytest.raises(ValueError, match="seed_direction must be nonzero"):
        KrylovModel(np.zeros(3), lambda v: v, 3, np.zeros(3))


def test_krylov_growth_stops_when_the_decrease_stagnates():
    # g = 0 seeded from the lambda_min eigenvector, perturbed by 1e-6: every
    # tridiagonal model is a hard case at multiplier -theta_1, where the GLTR
    # residual predicts nothing, so the space stops growing once the second
    # dimension adds (almost) no decrease.
    H = random_symmetric(np.random.default_rng(11), 8)
    lam, Q = np.linalg.eigh(H)
    assert lam[0] < 0.0
    seed = Q[:, 0] + 1e-6 * np.random.default_rng(12).standard_normal(8)
    model = KrylovModel(np.zeros(8), lambda v: H @ v, 8, seed)
    sol = model.solve(1.0)
    assert model.dim == 2
    assert sol.model_decrease == pytest.approx(-0.5 * lam[0], rel=1e-10)
    assert np.linalg.norm(sol.d) == pytest.approx(1.0, rel=1e-12)


def _krylov_instances():
    H = random_symmetric(np.random.default_rng(5), 8)
    diag = _three_eigenvalue_diagonal()
    return [
        (np.random.default_rng(6).uniform(-2, 2, 8), lambda v: H @ v, 8),
        (np.linspace(0.1, 1.0, len(diag)), lambda v: diag * v, 10),  # breakdown at 3
    ]


@pytest.mark.parametrize("radii", [(1.0, 1e-3), (1.0, 10.0), (10.0, 1.0)])
@pytest.mark.parametrize("case", [0, 1])
def test_krylov_model_resumes_bit_for_bit(radii, case):
    # Each solve of one model equals a fresh one-shot solve at that radius,
    # and the model draws only the products the larger of the two needs.
    g, hvp, max_dim = _krylov_instances()[case]
    calls = {"n": 0}

    def counted(v):
        calls["n"] += 1
        return hvp(v)

    fresh, counts = [], []
    for delta in radii:
        calls["n"] = 0
        fresh.append(solve_trs_krylov(g, counted, delta, max_dim))
        counts.append(calls["n"])
    calls["n"] = 0
    model = KrylovModel(g, counted, max_dim)
    for delta, (want, want_dim) in zip(radii, fresh):
        got = model.solve(delta)
        np.testing.assert_array_equal(got.d, want.d)
        assert (got.multiplier, got.model_decrease, model.dim) == (
            want.multiplier, want.model_decrease, want_dim)
    assert calls["n"] == max(counts)


def test_krylov_subspace_decrease_is_monotone_in_dimension(rng):
    H = random_symmetric(rng, 8)
    g = rng.uniform(-2, 2, 8)
    vals = [solve_trs_krylov(g, lambda v: H @ v, 1.0, max_dim=m)[0].model_decrease
            for m in range(1, 9)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-10


def _counted(H):
    calls = {"n": 0}

    def hvp(v):
        calls["n"] += 1
        return H @ v

    return hvp, calls


def _spectrum(rng, kind, n):
    if kind == "spd":
        return rng.uniform(0.1, 10.0, n)
    if kind == "indefinite":
        return rng.uniform(-5.0, 5.0, n)
    return -np.cos(3.0 * rng.standard_normal(n))  # cosine_sum's, clustered near +-1


@pytest.mark.parametrize("delta", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("kind", ["spd", "indefinite", "cos"])
def test_krylov_residual_stop_matches_the_dense_decrease(kind, delta):
    # The stop rule is an estimate, not a bound; 5e-8 (relative) is the
    # accuracy the stagnation rule it replaces met on such instances.  The
    # model draws exactly the products of the space it stops in.
    rng = np.random.default_rng(sum(map(ord, kind)) + int(1000 * delta))
    for _ in range(10):
        n = int(rng.integers(5, 61))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = _symmetrize((Q * _spectrum(rng, kind, n)) @ Q.T)
        g = rng.standard_normal(n)
        hvp, calls = _counted(H)
        model = KrylovModel(g, hvp, n)
        got = model.solve(delta).model_decrease
        want = DenseModel(g, H).solve(delta).model_decrease
        assert abs(got - want) <= 5e-8 * want
        assert calls["n"] == model.dim


def test_krylov_residual_stop_draws_two_products_per_matrix_free_iteration():
    # cosine_sum in subspace mode from an N(0, I) start: the measure stops at
    # dimension 2 on GLTR's residual, and the linear step draws no product.
    oracle, log = with_counting(make_problem("cosine_sum", 4000))
    cfg = Astr2Config(scaling=AdagradScaling(), max_iter=30, subspace_max_dim=20)
    state = copy.deepcopy(cfg.scaling)
    x = np.random.default_rng(0).standard_normal(4000)
    for k in range(cfg.max_iter):
        before = log.hvp
        x, record = astr2_step(oracle, x, k, cfg, state)
        assert record.branch == "L"
        assert log.hvp - before == 2


def test_krylov_breakdown_stops_without_an_extra_product():
    # g on two eigenvalues: the space is invariant after two products, the
    # residual beta_2 |y_2| is 0, and the decrease is the dense one.
    diag = np.repeat([1.0, 4.0], 5)
    hvp, calls = _counted(np.diag(diag))
    model = KrylovModel(np.ones(10), hvp, 10)
    sol = model.solve(1.0)
    assert (model.dim, calls["n"]) == (2, 2)
    exact = solve_trs_exact(np.ones(10), np.diag(diag), 1.0)
    assert sol.model_decrease == pytest.approx(exact.model_decrease, rel=1e-12)
    # A seed along a negative eigenvector: lambda + theta_1 = 0, so the
    # stagnation rule decides, and breakdown ends the run after one product.
    H = np.diag(np.repeat([-2.0, 3.0], 5))
    hvp, calls = _counted(H)
    model = KrylovModel(np.zeros(10), hvp, 10, np.eye(10)[0])
    sol = model.solve(1.0)
    assert (model.dim, calls["n"], sol.model_decrease, sol.hard_case) == (1, 1, 1.0, True)


def test_dense_model_solves_every_radius_from_one_factorisation(rng, monkeypatch):
    calls = count_calls(monkeypatch, DenseModel, "_factorise")
    for _ in range(20):
        n = int(rng.integers(1, 7))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        fresh = [solve_trs_exact(g, H, delta) for delta in (1.0, 0.3, 7.0)]
        calls["n"] = 0
        model = DenseModel(g, H)
        solved = [model.solve(delta) for delta in (1.0, 0.3, 7.0)]
        assert calls["n"] == 1
        for a, b in zip(solved, fresh):
            np.testing.assert_array_equal(a.d, b.d)
            assert (a.multiplier, a.model_decrease, a.on_boundary, a.hard_case) == (
                b.multiplier, b.model_decrease, b.on_boundary, b.hard_case)


def _bits(sol):
    return (sol.d.tobytes(), sol.multiplier.hex(), sol.model_decrease.hex(),
            sol.on_boundary, sol.hard_case)


_FACTORISE_ONCE_CASES = {
    "interior_psd": ([1.0, -2.0, 0.5], [[3.0, 1.0, 0.0], [1.0, 4.0, 0.5], [0.0, 0.5, 5.0]]),
    "boundary": ([0.3, -1.2, 0.7], [[-1.0, 0.4, 0.2], [0.4, 0.5, -0.3], [0.2, -0.3, 2.0]]),
    "hard": ([0.0, 1.0, -0.5], np.diag([-1.0, 2.0, 3.0])),
    "hard_1d_zero_gradient": ([0.0], [[-0.7]]),
    "near_hard": ([1e-7, 1.0, -0.5], np.diag([-1.0, 2.0, 3.0])),
    "singular_compatible": ([1.0, 0.0], np.diag([1.0, 0.0])),
}


@pytest.mark.parametrize("radii", [(1e-3, 1.0, 1e3), (1e3, 1.0, 1e-3)], ids=["up", "down"])
@pytest.mark.parametrize("case", sorted(_FACTORISE_ONCE_CASES))
def test_dense_model_answers_each_radius_as_a_fresh_model(case, radii):
    # The set-up shared by every radius is computed at factorisation, so a
    # model solved at several radii, in either order, returns for each the
    # bits of a model built for that one radius; its decrease is that
    # solution's model decrease.
    g, H = (np.array(a, dtype=float) for a in _FACTORISE_ONCE_CASES[case])
    model = DenseModel(g, H)
    for delta in radii:
        fresh = DenseModel(g, H).solve(delta)
        assert _bits(model.solve(delta)) == _bits(fresh)
        assert model.decrease(delta).hex() == fresh.model_decrease.hex()


@pytest.mark.parametrize("case", ["singular_compatible", "hard_1d_zero_gradient"])
def test_each_dense_solution_owns_its_step(case):
    # The interior step is cached at factorisation; no two solves share it.
    g, H = (np.array(a, dtype=float) for a in _FACTORISE_ONCE_CASES[case])
    model = DenseModel(g, H)
    first = model.solve(10.0)
    first.d[:] = 99.0
    assert _bits(model.solve(10.0)) == _bits(DenseModel(g, H).solve(10.0))


def _diagonals(rng, n):
    # Distinct nonzero diagonals (magnitudes from 1e-100 to 1e100), whose
    # order is the one eigh returns, and diagonals with ties or zeros:
    # cosine_sum's near its maximum (-cos of tiny x, often a tie at -1), many
    # ties, one value repeated, and negative zeros.
    zeros = rng.integers(-2, 3, n).astype(float)
    zeros[rng.random(n) < 0.3] = -0.0
    distinct = {
        "distinct": rng.standard_normal(n),
        "wide": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-100, 100, n),
    }
    tied = {
        "near_max": -np.cos(1e-6 * rng.standard_normal(n)),
        "ties": rng.integers(-3, 4, n).astype(float),
        "constant": np.full(n, -0.5),
        "negative_zeros": zeros,
    }
    return distinct, tied


def test_a_diagonal_hessian_is_factorised_by_the_stable_sort(monkeypatch):
    # Every diagonal, as a vector and as a matrix with and without a -0.0
    # off the diagonal, has the stably sorted diagonal for lam, never runs
    # eigh, and the Q formed on read satisfies H Q = Q diag(lam) exactly.
    # With distinct nonzero values these are eigh's bits, on both sides of
    # its divide-and-conquer size (25) and of the blocked reduction (32).
    real_eigh = np.linalg.eigh
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    rng = np.random.default_rng(7)
    for n in [*range(1, 41), 63, 64, 65, 100, 150, 199, 200]:
        distinct, tied = _diagonals(rng, n)
        for kind, d in {**distinct, **tied}.items():
            H = np.diag(d)
            H_zero = H.copy()
            if n > 1:
                i, j = rng.choice(n, 2, replace=False)
                H_zero[i, j] = H_zero[j, i] = -0.0
            order = d.argsort(kind="stable")
            for A in (d, H, H_zero):
                model = DenseModel(np.zeros(n), A)
                assert model.lam.tobytes() == d[order].tobytes(), (n, kind)
                np.testing.assert_array_equal(model.Q, np.eye(n)[:, order])
                np.testing.assert_array_equal(H @ model.Q, model.Q * model.lam)
                if kind in distinct and A is not d:
                    want_lam, want_Q = real_eigh(A)
                    assert model.lam.tobytes() == want_lam.tobytes(), (n, kind)
                    assert model.Q.tobytes() == want_Q.tobytes(), (n, kind)
    assert calls["n"] == 0


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_a_diagonal_beyond_eighs_scaling_range_is_factorised_exactly(scale):
    # eigh scales such a matrix and rounds its eigenvalues; the sort keeps
    # the diagonal as it is.
    d = scale * np.array([3.0, -1.7, 0.3, -1.7, 2.9])
    order = [1, 3, 2, 4, 0]
    for H in (d, np.diag(d)):
        model = DenseModel(np.zeros(5), H)
        assert model.lam.tobytes() == d[order].tobytes()
        np.testing.assert_array_equal(model.Q, np.eye(5)[:, order])


def test_one_off_diagonal_pair_sends_the_hessian_to_eigh(monkeypatch):
    H = np.diag([2.0, -1.0, 0.5, 3.0])
    H[0, 3] = H[3, 0] = 1e-300
    want_lam, want_Q = np.linalg.eigh(H)
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    model = DenseModel(np.zeros(4), H)
    assert calls["n"] == 1
    assert model.lam.tobytes() == want_lam.tobytes() and model.Q.tobytes() == want_Q.tobytes()


_VECTOR_FORM_CASES = {
    # (g, diagonal of H): ties, -0.0 in g and on the diagonal, entries of
    # 1e+-200, and the hard case (no gradient on the critical direction).
    "ties": ([1.0, -2.0, 0.5, 0.0], [-1.0, 2.0, -1.0, 2.0]),
    "negative_zeros": ([0.0, -0.0, 1.0, -1.5], [-0.0, 0.0, -0.0, 3.0]),
    "huge": ([1.0, -1.0, 0.5], [1e200, -1e200, 1e200]),
    "tiny": ([1e-3, 0.0, -2.0], [1e-200, -1e-200, -0.0]),
    "hard": ([0.0, 1.0, -0.5], [-1.0, 2.0, -1.0]),
}


def _hex(values):
    # Floats as their bits (so -0.0 differs from 0.0), arrays as their bytes.
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v.hex() for v in values)


@pytest.mark.parametrize("case", sorted(_VECTOR_FORM_CASES))
def test_a_diagonal_vector_gives_the_answers_of_its_matrix(case):
    g, d = (np.array(a, dtype=float) for a in _VECTOR_FORM_CASES[case])
    for delta in (1e-3, 1.0, 1e3):
        answers = []
        for H in (d, np.diag(d)):
            sol = solve_trs_exact(g, H, delta)
            rep = combined_measures(g, H, 1.0, delta)
            answers.append((
                _bits(DenseModel(g, H).solve(delta)),
                _bits(sol),
                _hex(cauchy_decrease(g, H, delta)),
                _hex(eigen_decrease(g, H, delta)),
                _hex(kkt_residuals(g, H, delta, sol).values()),
                _hex(vars(rep).values()),
            ))
        assert answers[0] == answers[1], delta
    with pytest.raises(ValueError):  # the reference takes H as a matrix only
        brute_force_decrease(g, d, 1.0)


@pytest.mark.parametrize("radii", [(1.0, 1e-3), (1e-3, 1.0), (1.0, 10.0)])
def test_krylov_model_factorises_each_dimension_once(radii, monkeypatch):
    # Each m x m sub-model is kept, so the solves of one model factorise
    # once per dimension the larger of them reaches, and the second solve
    # returns the bits of a fresh model.
    H = random_symmetric(np.random.default_rng(5), 8)
    g = np.random.default_rng(6).uniform(-2, 2, 8)
    fresh = [KrylovModel(g, lambda v: H @ v, 8).solve(delta) for delta in radii]
    calls = count_calls(monkeypatch, DenseModel, "_factorise")
    model = KrylovModel(g, lambda v: H @ v, 8)
    dims = []
    for delta, want in zip(radii, fresh):
        assert _bits(model.solve(delta)) == _bits(want)
        dims.append(model.dim)
    assert calls["n"] == max(dims)


def _decrease_instances():
    # (g, hvp, max_dim, seed_direction): the resumed instances, g = 0 grown
    # from a seed, and g = 0 with none (the space {0}).
    diag = np.repeat([-2.0, 3.0], 5)
    return [*((g, hvp, m, None) for g, hvp, m in _krylov_instances()),
            (np.zeros(10), lambda v: diag * v, 10, np.linspace(1.0, 2.0, 10)),
            (np.zeros(4), lambda v: 2.0 * v, 4, None)]


@pytest.mark.parametrize("radii", [(1.0, 1e-3), (1e-3, 1.0), (1.0, 10.0, 0.1)])
@pytest.mark.parametrize("case", range(4))
def test_krylov_decrease_is_the_solve_decrease_without_the_step(case, radii, monkeypatch):
    # decrease(delta) runs the loop of solve(delta): the same bits, the same
    # dimension and the same products, but it never combines the step.
    g, hvp, max_dim, seed = _decrease_instances()[case]
    counts = {"solve": 0, "decrease": 0}

    def counted(key):
        def product(v):
            counts[key] += 1
            return hvp(v)
        return product

    solved = KrylovModel(g, counted("solve"), max_dim, seed)
    want = []
    for delta in radii:
        want.append((solved.solve(delta).model_decrease.hex(), solved.dim, counts["solve"]))

    def no_combine(*args):
        raise AssertionError("decrease combined a step")

    monkeypatch.setattr("astr2.trs._combine", no_combine)
    measured = KrylovModel(g, counted("decrease"), max_dim, seed)
    for delta, expected in zip(radii, want):
        value = measured.decrease(delta)
        assert (value.hex(), measured.dim, counts["decrease"]) == expected


def test_lanczos_never_writes_into_a_product():
    # An oracle may hand back one read-only array for every product; the run
    # builds the same tridiagonal and basis as from fresh arrays.
    H = random_symmetric(np.random.default_rng(9), 6)
    out = np.empty(6)
    out.setflags(write=False)

    def shared(v):
        out.setflags(write=True)
        np.matmul(H, v, out=out)
        out.setflags(write=False)
        return out

    v = np.ones(6) / math.sqrt(6.0)
    for (T, V, b), (T2, V2, b2) in zip(_lanczos(shared, v, 6), _lanczos(lambda u: H @ u, v, 6)):
        assert (T.tobytes(), V.tobytes(), b) == (T2.tobytes(), V2.tobytes(), b2)


def test_symmetrization_does_not_overflow_near_the_largest_double():
    # (H + H^T) / 2 overflows for entries above ~9e307; 0.5 H + 0.5 H^T does not.
    g = np.ones(2)
    symmetric = np.array([[1e308, 0.0], [0.0, 1.0]])
    asymmetric = np.array([[1e308, 0.0], [1e290, 1.0]])  # within the symmetry tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in (symmetric, asymmetric):
            sol = DenseModel(g, H).solve(1.0)
            assert np.isfinite(sol.multiplier)
            assert float(np.linalg.norm(sol.d)) == pytest.approx(1.0, rel=1e-15)
            assert 0.0 < sol.model_decrease < np.inf
            bf = brute_force_decrease(g, H, 1.0)
            assert bf == pytest.approx(sol.model_decrease, rel=1e-12)
        # the Newton point -H^{-1} g lies on the unit sphere
        sol = DenseModel(g, symmetric).solve(1.0)
        np.testing.assert_array_equal(sol.d, [-1e-308, -1.0])
        assert sol.model_decrease == 0.5
        assert_kkt(g, symmetric, 1.0, sol)
        assert combined_measures(g, symmetric, 1.0, 1.0).phi2 == 0.5


def _scale_models():
    # (g, H), n = 2..6: random, near-hard (the gradient's weight on the
    # lambda_min eigenvector times 1e-8), PSD and planted hard-case models.
    rng = np.random.default_rng(2027)
    for kind in ("random", "near_hard", "psd", "hard"):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            if kind == "random":
                yield rng.uniform(-2.0, 2.0, n), random_symmetric(rng, n)
                continue
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = np.sort(rng.uniform(-2.0, 2.0, n))
            c = rng.uniform(-2.0, 2.0, n)
            if kind == "psd":
                lam = np.sort(np.abs(lam))
            elif kind == "near_hard":
                c[0] *= 1e-8
            else:
                c[0] = 0.0
            yield Q @ c, _symmetrize((Q * lam) @ Q.T)


def _scale_steps(g, H, delta):
    # The dense step and the full-dimension Krylov step.
    return (DenseModel(g, H).solve(delta).d,
            KrylovModel(g, lambda v: H @ v, len(g)).solve(delta).d)


@pytest.mark.parametrize("p", [-200, -60, 60, 200])
def test_the_subproblem_is_equivariant_under_power_of_two_scalings(p):
    # Every tolerance in the dense and Krylov solves is relative to the
    # model's own scale.  So (g, H) -> (2^p g, 2^p H) keeps the bits of d,
    # and (g, H, Delta) -> (g, 2^-p H, 2^p Delta) scales d by 2^p exactly.
    s = 2.0 ** p
    for g, H in _scale_models():
        for delta in (0.1, 1.0, 10.0):
            want = [d.tobytes() for d in _scale_steps(g, H, delta)]
            assert [d.tobytes() for d in _scale_steps(s * g, s * H, delta)] == want
            assert [(d / s).tobytes() for d in _scale_steps(g, H / s, s * delta)] == want


@pytest.mark.parametrize("delta", [1e43, 1e50, 1e60])
def test_a_tiny_positive_definite_model_takes_its_newton_step(delta):
    # H near 1e-51 is positive definite; no eigenvalue of it is critical, so
    # every radius above ||H^-1 g|| = 3.345e42 gets the interior Newton step.
    g = np.array([1.2868115401868337e-08, -3.945349753622063e-09])
    H = np.array([[3.8718052204477655e-51, -1.3044056818263849e-51],
                  [-1.3044056818263849e-51, 6.833039574642451e-51]])
    sol = DenseModel(g, H).solve(delta)
    assert not sol.on_boundary and not sol.hard_case and sol.multiplier == 0.0
    np.testing.assert_allclose(H @ sol.d, -g, rtol=1e-12)
    assert float(np.linalg.norm(sol.d)) == pytest.approx(3.345e42, rel=1e-3)
    assert sol.model_decrease == pytest.approx(2.13958e34, rel=1e-5)


@pytest.mark.parametrize("scale", [1.0, 1e-200])
@pytest.mark.parametrize("form", ["vector", "matrix"])
def test_a_zero_hessian_steps_along_the_gradient_to_the_boundary(form, scale):
    # At H = 0 every eigenvalue is critical and the gradient is not
    # negligible on them, so Newton ends at its first evaluation with
    # d = -Delta g / ||g||, also where the squares of g underflow.
    g = scale * np.array([3.0, -4.0])
    H = np.zeros(2) if form == "vector" else np.zeros((2, 2))
    sol, evaluations = _solve_counting_evaluations(DenseModel(g, H), 2.0)
    assert evaluations == 1 and sol.on_boundary and not sol.hard_case
    np.testing.assert_allclose(sol.d, [-1.2, 1.6], rtol=1e-15)
    assert sol.multiplier == pytest.approx(2.5 * scale, rel=1e-15)


# --- brute_force_decrease --------------------------------------------------

def test_brute_force_convex_interior_closed_form():
    g = np.array([1.0, 2.0])
    H = np.diag([2.0, 4.0])
    bf = brute_force_decrease(g, H, 10.0)
    assert bf == pytest.approx(0.5 * float(g @ np.linalg.solve(H, g)), abs=1e-10)


def test_brute_force_one_dimensional():
    bf = brute_force_decrease(np.zeros(1), np.array([[-2.0]]), 1.0)
    assert bf == pytest.approx(1.0, abs=1e-12)


def test_brute_force_never_beats_the_exact_solver_by_much(rng):
    for _ in range(60):
        n = int(rng.integers(1, 6))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        delta = float(rng.choice([0.1, 1.0, 10.0]))
        sol = solve_trs_exact(g, H, delta)
        bf = brute_force_decrease(g, H, delta)
        assert abs(sol.model_decrease - bf) <= 1e-8


def test_brute_force_polish_does_not_overflow_just_below_the_radius_limit():
    # |H_ii - theta| reaches 11.4 here, beyond the 2 n = 10 the trs-check
    # radius limit allows for; unscaled, the polish's B - theta I overflowed.
    H = -2.0 * np.ones((5, 5))
    H[4, 4] = 2.0
    g = 0.5 * np.ones(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bf = brute_force_decrease(g, H, 4e153)
        exact = solve_trs_exact(g, H, 4e153).model_decrease
    assert bf == pytest.approx(exact, rel=1e-12)
