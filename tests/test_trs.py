import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from astr2 import (
    DenseModel,
    KrylovModel,
    brute_force_decrease,
    cauchy_decrease,
    combined_measures,
    eigen_decrease,
    min_eigpair,
    phi2,
    solve_trs_exact,
    solve_trs_krylov,
)
from astr2.trs import LanczosNoConvergence, TrsSolution, _lanczos, kkt_residuals

from conftest import random_symmetric


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
    bf = brute_force_decrease(g, H, 1.0, rng=np.random.default_rng(0))
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
    # 1.1e-4, so the secular equation cannot be solved to _SECULAR_TOL: the
    # step must still reach the boundary and match the Krylov and brute-force
    # values (trs-check --count 500 --max-n 8 --seed 7 failed on this one).
    g, H, delta = _trs_check_instance(7, 224)
    assert (len(g), delta) == (5, 10.0)
    sol = solve_trs_exact(g, H, delta)
    assert np.linalg.norm(sol.d) == pytest.approx(delta, rel=1e-14)
    assert_kkt(g, H, delta, sol)
    kr, _ = solve_trs_krylov(g, lambda v: H @ v, delta, max_dim=len(g))
    assert abs(kr.model_decrease - sol.model_decrease) <= 1e-10
    bf = brute_force_decrease(g, H, delta, rng=np.random.default_rng([7, 224]))
    assert abs(sol.model_decrease - bf) <= 1e-9


@pytest.mark.parametrize("g, H", [
    ([70.0], [[-1.0]]),
    ([1.0], [[-1.0]]),
    ([0.5], [[-2e-3]]),
    ([3.0, 0.0], [[-1.0, 0.0], [0.0, 2.0]]),
])
@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
def test_root_at_the_bracket_end_is_taken_exactly(g, H, delta):
    # g lies along the lambda_min eigenvector, so the secular root is the
    # bracket end t_lo + ||g||/Delta itself; Newton must accept it rather
    # than bisect towards it.
    g, H = np.array(g), np.array(H)
    sol, evaluations = _solve_counting_evaluations(DenseModel(g, H), delta)
    assert sol.multiplier == abs(g[0]) / delta - H[0, 0]
    assert sol.on_boundary and not sol.hard_case
    assert abs(np.linalg.norm(sol.d) - delta) <= 1e-15
    assert evaluations == 1


@pytest.mark.parametrize("g, H, delta", [
    ([-0.009744053964982612], [[-0.14395634862343704]], 717.9042075827562),
    ([1.6806942019435917e-12], [[-0.08852890525941773]], 0.03937920920350738),
])
def test_unresolved_root_at_the_bracket_end_does_not_stall(g, H, delta):
    # The root is the bracket end, but lambda + t cancels there, so phi misses
    # the secular tolerance at it.  Newton steps from the left keep landing
    # on that end; they must bisect towards it rather than re-evaluate it
    # (which took 80 and 202 evaluations) and finish on the boundary.
    g, H = np.array(g), np.array(H)
    sol, evaluations = _solve_counting_evaluations(DenseModel(g, H), delta)
    assert evaluations <= 45
    assert sol.multiplier == abs(g[0]) / delta - H[0, 0]
    assert sol.on_boundary
    assert np.linalg.norm(sol.d) == pytest.approx(delta, rel=1e-14)
    bf = brute_force_decrease(g, H, delta, rng=np.random.default_rng(0))
    assert abs(sol.model_decrease - bf) <= 1e-9 * max(1.0, bf)


def test_near_hard_case_with_a_degenerate_bracket_stays_finite():
    # ||g||/Delta = 2e-12 is below one ulp of t_lo = 1e5, so the bracket
    # [t_lo, t_lo + ||g||/Delta] has no width and the critical coordinate is
    # -gt/0 there.
    g = np.array([2e-12, 0.0])
    H = np.diag([-1e5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = DenseModel(g, H).solve(1.0)
        bf = brute_force_decrease(g, H, 1.0, rng=np.random.default_rng(0))
    assert np.all(np.isfinite(sol.d))
    assert np.linalg.norm(sol.d) == pytest.approx(1.0, rel=1e-14)
    assert abs(sol.model_decrease - bf) <= 1e-9


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


def test_empty_dense_model_is_rejected():
    # n = 0 has no lambda_min; every dense entry point says so instead of
    # indexing an empty spectrum.
    g, H = np.zeros(0), np.zeros((0, 0))
    entry_points = (
        lambda: DenseModel(g, H).solve(1.0),
        lambda: solve_trs_exact(g, H, 1.0),
        lambda: phi2(g, H, 1.0),
        lambda: combined_measures(g, H, 1.0, 1.0),
        lambda: min_eigpair(H),
        lambda: eigen_decrease(g, H, 1.0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in entry_points:
            with pytest.raises(ValueError, match="at least 1 x 1"):
                call()


@pytest.mark.parametrize("g, H, delta", [
    (np.zeros(0), np.zeros((0, 0)), 1.0),
    (np.array([np.nan, 0.0]), np.eye(2), 1.0),
    (np.zeros(2), [[1.0, 0.0], [0.0]], 1.0),  # ragged
    (np.zeros(2), np.eye(3), 1.0),
    (np.zeros(2), np.eye(2), 0.0),
], ids=["empty", "nan_g", "ragged_H", "shape_mismatch", "zero_radius"])
def test_kkt_residuals_rejects_what_the_dense_model_rejects(g, H, delta):
    sol = TrsSolution(np.zeros(len(g)), 0.0, 0.0, False, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            kkt_residuals(g, H, delta, sol)


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
    pair = min_eigpair(np.diag([3.0, -2.0]))
    assert pair.value == pytest.approx(-2.0, abs=1e-14)
    assert abs(pair.vector[1]) == pytest.approx(1.0, abs=1e-12)


def test_min_eigpair_identity():
    pair = min_eigpair(np.eye(4))
    assert pair.value == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)


def test_min_eigpair_matrix_free_matches_dense(rng):
    for _ in range(30):
        n = int(rng.integers(2, 25))
        H = random_symmetric(rng, n)
        dense = min_eigpair(H)
        free = min_eigpair(lambda v: H @ v, n=n, tol=1e-10)
        assert free.value == pytest.approx(dense.value, abs=1e-8)
        assert np.linalg.norm(free.vector) == pytest.approx(1.0, abs=1e-12)
        assert float(free.vector @ H @ free.vector) <= dense.value + 1e-8


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
    pair = min_eigpair(H)
    sub = KrylovModel(np.zeros(6), lambda v: H @ v, 6, pair.vector).solve(2.0)
    u, alpha, dq_e = eigen_decrease(np.zeros(6), H, 2.0)
    assert sub.model_decrease >= dq_e - 1e-10


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


def test_dense_model_solves_every_radius_from_one_eigh(rng, monkeypatch):
    calls = {"n": 0}
    real_eigh = np.linalg.eigh

    def eigh(a):
        calls["n"] += 1
        return real_eigh(a)

    for _ in range(20):
        n = int(rng.integers(1, 7))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        fresh = [solve_trs_exact(g, H, delta) for delta in (1.0, 0.3, 7.0)]
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        calls["n"] = 0
        model = DenseModel(g, H)
        solved = [model.solve(delta) for delta in (1.0, 0.3, 7.0)]
        monkeypatch.setattr(np.linalg, "eigh", real_eigh)
        assert calls["n"] == 1
        for a, b in zip(solved, fresh):
            np.testing.assert_array_equal(a.d, b.d)
            assert (a.multiplier, a.model_decrease, a.on_boundary, a.hard_case) == (
                b.multiplier, b.model_decrease, b.on_boundary, b.hard_case)


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
            bf = brute_force_decrease(g, H, 1.0, rng=np.random.default_rng(3))
            assert bf == pytest.approx(sol.model_decrease, rel=1e-12)
        # the Newton point -H^{-1} g lies on the unit sphere
        sol = DenseModel(g, symmetric).solve(1.0)
        np.testing.assert_array_equal(sol.d, [-1e-308, -1.0])
        assert sol.model_decrease == 0.5
        assert_kkt(g, symmetric, 1.0, sol)
        assert combined_measures(g, symmetric, 1.0, 1.0).phi2 == 0.5


# --- brute_force_decrease --------------------------------------------------

def test_brute_force_convex_interior_closed_form():
    g = np.array([1.0, 2.0])
    H = np.diag([2.0, 4.0])
    bf = brute_force_decrease(g, H, 10.0, rng=np.random.default_rng(1))
    assert bf == pytest.approx(0.5 * float(g @ np.linalg.solve(H, g)), abs=1e-10)


def test_brute_force_one_dimensional():
    bf = brute_force_decrease(np.zeros(1), np.array([[-2.0]]), 1.0,
                              rng=np.random.default_rng(2))
    assert bf == pytest.approx(1.0, abs=1e-12)


def test_brute_force_never_beats_the_exact_solver_by_much(rng):
    for _ in range(60):
        n = int(rng.integers(1, 6))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        delta = float(rng.choice([0.1, 1.0, 10.0]))
        sol = solve_trs_exact(g, H, delta)
        bf = brute_force_decrease(g, H, delta, rng=np.random.default_rng(7))
        assert abs(sol.model_decrease - bf) <= 1e-8
