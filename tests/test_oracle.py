import numpy as np
import pytest

from astr2 import catalog_names, finite_diff_check, make_problem


def test_catalog_contains_the_builtins():
    names = catalog_names()
    for name in ("quadratic_psd", "rosenbrock", "saddle_cubic", "cosine_sum"):
        assert name in names


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        make_problem("no_such_problem", 4)


def test_saddle_cubic_is_two_dimensional_only():
    make_problem("saddle_cubic", 2)
    with pytest.raises(ValueError):
        make_problem("saddle_cubic", 3)


def test_rosenbrock_needs_two_variables():
    with pytest.raises(ValueError):
        make_problem("rosenbrock", 1)


def test_dense_hessian_is_dropped_above_the_cap():
    for name in ("quadratic_psd", "rosenbrock", "cosine_sum"):
        assert make_problem(name, 1000).hessian is not None
        assert make_problem(name, 1001).hessian is None


def test_quadratic_psd_closed_forms():
    oracle = make_problem("quadratic_psd", 5)
    x = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    assert oracle.f_diagnostic(x) == pytest.approx(0.5 * np.dot(x, x), abs=0)
    np.testing.assert_array_equal(oracle.gradient(x), x)
    np.testing.assert_array_equal(oracle.hessian(x), np.eye(5))
    assert oracle.lipschitz_g == 1.0
    assert oracle.lipschitz_h == 0.0
    assert oracle.f_low == 0.0


def test_cosine_sum_closed_forms():
    oracle = make_problem("cosine_sum", 3)
    x = np.array([0.3, -1.2, 2.0])
    assert oracle.f_diagnostic(x) == pytest.approx(np.sum(np.cos(x)), rel=1e-15)
    np.testing.assert_allclose(oracle.gradient(x), -np.sin(x), rtol=1e-15)
    np.testing.assert_allclose(oracle.hessian(x), np.diag(-np.cos(x)), rtol=1e-15)
    assert oracle.f_low == -3.0
    assert oracle.lipschitz_g == 1.0 and oracle.lipschitz_h == 1.0


def test_saddle_cubic_derivatives():
    oracle = make_problem("saddle_cubic", 2)
    x = np.array([1.5, -0.7])
    assert oracle.f_diagnostic(x) == pytest.approx(1.5 ** 3 / 3.0 - 0.5 * 0.7 ** 2)
    np.testing.assert_allclose(oracle.gradient(x), [1.5 ** 2, 0.7], rtol=1e-15)
    np.testing.assert_allclose(oracle.hessian(x), [[3.0, 0.0], [0.0, -1.0]], rtol=1e-15)


@pytest.mark.parametrize("name,n", [
    ("quadratic_psd", 6),
    ("rosenbrock", 6),
    ("saddle_cubic", 2),
    ("cosine_sum", 6),
])
def test_finite_differences_confirm_analytic_derivatives(name, n, rng):
    oracle = make_problem(name, n)
    x = 0.5 * rng.standard_normal(n)
    report = finite_diff_check(oracle, x, 1e-5)
    assert report.gradient_error < 1e-7
    assert report.hessian_error < 1e-7


@pytest.mark.parametrize("name,n", [
    ("quadratic_psd", 7),
    ("rosenbrock", 7),
    ("saddle_cubic", 2),
    ("cosine_sum", 7),
])
def test_hvp_matches_dense_hessian(name, n, rng):
    oracle = make_problem(name, n)
    x = rng.standard_normal(n)
    H = oracle.hessian(x)
    for _ in range(3):
        v = rng.standard_normal(n)
        np.testing.assert_allclose(oracle.hvp(x, v), H @ v, rtol=1e-13, atol=1e-13)


def test_default_starting_points_have_the_right_shape():
    for name in catalog_names():
        n = 2 if name == "saddle_cubic" else 8
        oracle = make_problem(name, n)
        assert oracle.x0.shape == (n,)
        assert np.all(np.isfinite(oracle.x0))


def test_rosenbrock_minimum_at_ones():
    oracle = make_problem("rosenbrock", 4)
    x_star = np.ones(4)
    assert oracle.f_diagnostic(x_star) == 0.0
    np.testing.assert_allclose(oracle.gradient(x_star), np.zeros(4), atol=1e-14)
    lam = np.linalg.eigvalsh(oracle.hessian(x_star))
    assert lam[0] > 0


def test_finite_diff_check_validates_inputs():
    oracle = make_problem("quadratic_psd", 3)
    with pytest.raises(ValueError):
        finite_diff_check(oracle, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        finite_diff_check(oracle, np.zeros(3), np.inf)
    import dataclasses

    stripped = dataclasses.replace(oracle, f_diagnostic=None)
    with pytest.raises(ValueError):
        finite_diff_check(stripped, np.zeros(3), 1e-5)
