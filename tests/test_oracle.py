import dataclasses
import tracemalloc

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


@pytest.mark.parametrize("n", [2.5, 4.0, "4", 0, -3, True])
def test_dimension_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        make_problem("cosine_sum", n)


def test_saddle_cubic_is_two_dimensional_only():
    make_problem("saddle_cubic", 2)
    with pytest.raises(ValueError):
        make_problem("saddle_cubic", 3)


def test_rosenbrock_needs_two_variables():
    with pytest.raises(ValueError):
        make_problem("rosenbrock", 1)


def test_dense_hessian_is_dropped_above_the_cap():
    # Only the non-diagonal rosenbrock loses its Hessian; a diagonal problem
    # keeps its diagonal at every n.
    for name in ("quadratic_psd", "rosenbrock", "cosine_sum"):
        assert make_problem(name, 1000).hessian is not None
        assert (make_problem(name, 1001).hessian is None) == (name == "rosenbrock")
    assert make_problem("cosine_sum", 1001).hessian(np.zeros(1001)).shape == (1001,)


@pytest.mark.parametrize("name", catalog_names())
def test_a_diagonal_hessian_is_the_diagonal_of_the_dense_one(name, rng):
    # Every problem but rosenbrock has a diagonal Hessian and gives it as an
    # n-vector: the diagonal of the n x n Hessian that the hvps of the
    # coordinate vectors assemble (off its diagonal, +0.0 or -0.0).
    n = 2 if name == "saddle_cubic" else 7
    oracle = make_problem(name, n)
    for _ in range(3):
        x = rng.standard_normal(n)
        H = oracle.hessian(x)
        if name == "rosenbrock":
            assert H.shape == (n, n)
            continue
        dense = np.column_stack([oracle.hvp(x, e) for e in np.eye(n)])
        assert H.shape == (n,)
        np.testing.assert_array_equal(np.diag(H), dense)
        v = rng.standard_normal(n)
        np.testing.assert_array_equal(oracle.hvp(x, v), H * v)


def test_quadratic_psd_closed_forms():
    oracle = make_problem("quadratic_psd", 5)
    x = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    assert oracle.f_diagnostic(x) == pytest.approx(0.5 * np.dot(x, x), abs=0)
    np.testing.assert_array_equal(oracle.gradient(x), x)
    np.testing.assert_array_equal(oracle.hessian(x), np.ones(5))
    assert oracle.lipschitz_g == 1.0
    assert oracle.lipschitz_h == 0.0
    assert oracle.f_low == 0.0


def test_cosine_sum_closed_forms():
    oracle = make_problem("cosine_sum", 3)
    x = np.array([0.3, -1.2, 2.0])
    assert oracle.f_diagnostic(x) == pytest.approx(np.sum(np.cos(x)), rel=1e-15)
    np.testing.assert_allclose(oracle.gradient(x), -np.sin(x), rtol=1e-15)
    np.testing.assert_allclose(oracle.hessian(x), -np.cos(x), rtol=1e-15)
    assert oracle.f_low == -3.0
    assert oracle.lipschitz_g == 1.0 and oracle.lipschitz_h == 1.0


def test_saddle_cubic_derivatives():
    oracle = make_problem("saddle_cubic", 2)
    x = np.array([1.5, -0.7])
    assert oracle.f_diagnostic(x) == pytest.approx(1.5 ** 3 / 3.0 - 0.5 * 0.7 ** 2)
    np.testing.assert_allclose(oracle.gradient(x), [1.5 ** 2, 0.7], rtol=1e-15)
    np.testing.assert_allclose(oracle.hessian(x), [3.0, -1.0], rtol=1e-15)


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
    if H.ndim == 1:
        H = np.diag(H)
    for _ in range(3):
        v = rng.standard_normal(n)
        np.testing.assert_allclose(oracle.hvp(x, v), H @ v, rtol=1e-13, atol=1e-13)


def test_finite_diff_check_on_an_hvp_only_oracle(rng):
    # Without a dense Hessian the check assembles it from hvps of the
    # coordinate vectors.
    oracle = make_problem("cosine_sum", 6)
    x = 0.5 * rng.standard_normal(6)
    dense = finite_diff_check(oracle, x, 1e-5)
    hvp_only = finite_diff_check(dataclasses.replace(oracle, hessian=None), x, 1e-5)
    assert hvp_only == dense


@pytest.mark.parametrize("form", ["diagonal", "hvp_only"])
def test_finite_diff_check_keeps_linear_memory(form, rng):
    # The Hessian is compared column by column: at n = 2000 an n x n
    # difference matrix alone would take 32 MB.
    oracle = make_problem("cosine_sum", 2000)
    if form == "hvp_only":
        oracle = dataclasses.replace(oracle, hessian=None)
    x = 0.5 * rng.standard_normal(2000)
    tracemalloc.start()
    try:
        report = finite_diff_check(oracle, x, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert report.hessian_error < 1e-7


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
    stripped = dataclasses.replace(oracle, f_diagnostic=None)
    with pytest.raises(ValueError):
        finite_diff_check(stripped, np.zeros(3), 1e-5)


def _hvp_bits(oracle, x, v):
    # The product's shape, dtype and bits, or the error it raised (a point
    # of another shape does not broadcast in every oracle).
    try:
        out = oracle.hvp(x, v)
    except ValueError as exc:
        return str(exc)
    return out.shape, out.dtype, out.tobytes()


@pytest.mark.parametrize("name", catalog_names())
def test_hvp_matches_a_fresh_oracle_bit_for_bit(name):
    # A catalogue hvp may keep the factor of its last point; it must never
    # serve it at another point: interleaved points, an x changed in place
    # between calls, +-0.0 entries and the same bits in another shape.
    n = 2 if name == "saddle_cubic" else 6
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    v = rng.standard_normal(n)
    v[0] = -0.0
    oracle = make_problem(name, n)

    def check(x):
        assert _hvp_bits(oracle, x, v) == _hvp_bits(make_problem(name, n), x.copy(), v)

    x = a.copy()
    for point in (a, b, a, x, b, x):
        check(point)
    x[1] += 1.0  # changed in place since the last product at x
    check(x)
    x[:] = b
    check(x)
    for point in (np.zeros(n), np.full(n, -0.0), np.zeros(n)):
        check(point)
    zero_mix = a.copy()
    zero_mix[0] = 0.0
    check(zero_mix)
    zero_mix[0] = -0.0
    check(zero_mix)
    for point in (a, a.reshape(1, n), a, a.reshape(n, 1), a):
        check(point)


def test_cosine_sum_hvp_computes_its_curvature_once_per_point(monkeypatch):
    # Every product of one iterate is taken at the same x: after the first,
    # each is one multiply.
    calls = {"n": 0}
    real_cos = np.cos

    def cos(x):
        calls["n"] += 1
        return real_cos(x)

    oracle = make_problem("cosine_sum", 5)
    monkeypatch.setattr(np, "cos", cos)
    x = np.linspace(-1.0, 1.0, 5)
    for v in np.eye(5):
        oracle.hvp(x, v)
    assert calls["n"] == 1
    oracle.hvp(x + 1.0, np.ones(5))
    oracle.hvp(x, np.ones(5))
    assert calls["n"] == 3


def test_diagonal_hvp_reads_the_diagonal_once_per_point():
    # One diagonal call per point over many v; a fresh call for a new point,
    # for an x changed in place and for the same bits in another shape.
    from astr2.oracle import _diagonal_hvp

    points = []

    def diagonal(x):
        points.append(x.copy())
        return np.arange(1.0, x.size + 1.0).reshape(x.shape)

    hvp = _diagonal_hvp(diagonal)
    x = np.array([0.5, -1.0, 2.0])
    for v in np.eye(3):
        np.testing.assert_array_equal(hvp(x, v), np.arange(1.0, 4.0) * v)
    assert len(points) == 1
    hvp(x + 1.0, np.ones(3))
    hvp(x, np.ones(3))
    assert len(points) == 3
    x[0] = -0.5  # changed in place since the last product at x
    hvp(x, np.ones(3))
    hvp(x, np.ones(3))
    assert len(points) == 4
    np.testing.assert_array_equal(points[-1], [-0.5, -1.0, 2.0])
    hvp(x.reshape(3, 1), np.ones((3, 1)))
    assert len(points) == 5 and points[-1].shape == (3, 1)
