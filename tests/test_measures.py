import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from astr2 import combined_measures, phi1, phi2, phi2_subspace, solve_trs_exact
from astr2.trs import DenseModel, _symmetrize, kkt_residuals

from conftest import random_symmetric


def test_phi1_is_delta_times_gradient_norm():
    g = np.array([3.0, 0.0])
    assert phi1(g, 0.5) == 1.5
    assert phi1(np.zeros(4), 2.0) == 0.0
    assert phi1(g, 1.0) == 3.0
    with pytest.raises(ValueError):
        phi1(g, 0.0)
    with pytest.raises(ValueError):
        phi1(g, np.inf)


def test_phi1_keeps_a_gradient_whose_square_underflows():
    # ||g||^2 is below the smallest double; the norm does not square.
    assert phi1(np.array([1e-170]), 1.0) == 1e-170
    assert phi1(np.array([3e-170, 4e-170]), 1.0) == pytest.approx(5e-170, rel=1e-15)


def test_phi2_negative_curvature_1d():
    value, d = phi2(np.zeros(1), np.array([[-2.0]]), 1.0)
    assert value == 1.0
    assert abs(d[0]) == 1.0


def test_phi2_zero_at_second_order_points():
    value, d = phi2(np.zeros(3), np.diag([0.5, 1.0, 2.0]), 1.0)
    assert value == 0.0
    np.testing.assert_allclose(d, np.zeros(3), atol=1e-12)


def test_phi2_matches_frozen_indefinite_instance():
    value, d = phi2(np.array([1.0, 0.0]), np.diag([-1.0, 2.0]), 1.0)
    assert value == pytest.approx(1.5, abs=1e-8)


def test_phi2_argmin_achieves_the_value(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        delta = float(rng.choice([0.5, 1.0, 3.0]))
        value, d = phi2(g, H, delta)
        assert np.linalg.norm(d) <= delta * (1 + 1e-10)
        attained = -(float(g @ d) + 0.5 * float(d @ H @ d))
        assert attained == pytest.approx(value, abs=1e-10)


def test_phi2_subspace_brackets_and_reaches_the_dense_value(rng):
    for _ in range(30):
        H = random_symmetric(rng, 5)
        g = rng.uniform(-2, 2, 5)
        dense, _ = phi2(g, H, 1.0)
        prev = 0.0
        for m in range(1, 6):
            val, dim = phi2_subspace(g, lambda v: H @ v, 1.0, m)
            assert val >= prev - 1e-10
            assert val <= dense + 1e-8
            assert dim <= m
            prev = val
        assert prev == pytest.approx(dense, abs=1e-8)


def test_phi2_subspace_degenerate_dimension_zero():
    # the space {0} is not a form of the measure: max_dim = 0 is rejected
    with pytest.raises(ValueError, match=r"max_dim must be an integer >= 1, got 0"):
        phi2_subspace(np.ones(3), lambda v: v, 1.0, 0)


def test_phi2_subspace_rejects_a_nan_gradient():
    with pytest.raises(ValueError, match="g contains non-finite entries"):
        phi2_subspace(np.array([np.nan, 1.0]), lambda v: v, 1.0, 2)


def test_phi2_subspace_max_dim_must_be_a_nonnegative_integer():
    # negatives and non-integers (True among them) are rejected; 0 is
    # rejected as well, see test_phi2_subspace_degenerate_dimension_zero
    for max_dim in (-1, 0, 2.5, True):
        with pytest.raises(ValueError, match="max_dim must be an integer >= 1"):
            phi2_subspace(np.ones(3), lambda v: v, 1.0, max_dim)


def test_combined_measures_clipping_and_clamping():
    # phi = 5 with xi = 1 clips hatphi to 1
    g = np.zeros(1)
    H = np.array([[-10.0]])
    rep = combined_measures(g, H, 1.0, 1.0)
    assert rep.phi2 == pytest.approx(5.0, abs=1e-10)
    assert rep.hatphi == 1.0
    assert rep.eta == 10.0
    # ||g|| = 2 with small phi clamps psi at 1
    rep2 = combined_measures(np.array([2.0, 0.0]), np.zeros((2, 2)), 1.0, 0.05)
    assert rep2.psi == 1.0


def test_combined_measures_eta_zero_on_psd():
    rep = combined_measures(np.ones(2), np.eye(2), 1.0, 1.0)
    assert rep.eta == 0.0
    assert rep.phi1 == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_reporting_helpers_survive_huge_finite_curvature():
    # phi2 is about 1.25e271 here: its cube and the squares of the KKT
    # residual overflow, though every reported value is finite.
    g = np.array([1.0, 1.0])
    H = np.array([[1e308, 0.0], [1e290, 1.0]])
    sol = solve_trs_exact(g, H, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = combined_measures(g, H, 1.0, 1.0)
        res = kkt_residuals(g, H, 1.0, sol)
    assert rep.phi2 > 1e270 and rep.psi == 1.0 and rep.hatphi == 1.0
    r = (_symmetrize(H) + sol.multiplier * np.eye(2)) @ sol.d + g
    scale = np.abs(r).max()
    assert res["stationarity"] == pytest.approx(scale * np.linalg.norm(r / scale), rel=1e-15)


def test_combined_measures_psi_formula(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        H = random_symmetric(rng, n)
        g = rng.uniform(-2, 2, n)
        rep = combined_measures(g, H, 1.0, 1.0)
        gnorm2 = float(g @ g)
        assert rep.psi == min(1.0, max(gnorm2, rep.phi2 ** 3))
        assert rep.eta == max(0.0, -float(DenseModel(g, H).lam[0]))


def test_combined_measures_validates_parameters():
    with pytest.raises(ValueError):
        combined_measures(np.ones(2), np.eye(2), 0.5, 1.0)
    with pytest.raises(ValueError):
        combined_measures(np.ones(2), np.eye(2), 1.0, -1.0)
    with pytest.raises(ValueError):
        combined_measures(np.ones(2), np.eye(2), 1.0, np.inf)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
       n=st.integers(min_value=1, max_value=5))
def test_phi2_convex_bound_property(seed, n):
    # on convex models the ball of radius 1 cannot beat the gradient norm
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (n + 2, n))
    H = A.T @ A
    g = rng.uniform(-2, 2, n)
    value, _ = phi2(g, H, 1.0)
    assert value <= np.linalg.norm(g) + 1e-10


def test_phi2_scaling_in_delta_for_pure_curvature():
    # with g = 0, phi2 scales as delta^2 on a fixed negative eigenvalue
    H = np.array([[-2.0]])
    v1, _ = phi2(np.zeros(1), H, 1.0)
    v2, _ = phi2(np.zeros(1), H, 2.0)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)
