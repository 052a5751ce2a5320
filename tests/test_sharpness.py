import dataclasses
import math

import mpmath
import numpy as np
import pytest

from astr2 import (
    AdagradScaling,
    DivergentScaling,
    PiecewiseQuintic,
    gen_adagrad_example,
    gen_divergent_example,
    hermite_interpolant,
    quintic_from_data,
    replay_check,
    sample_figure,
    zeta,
)


# --- zeta ------------------------------------------------------------------

def test_zeta_frozen_value_at_1_03():
    assert zeta(1.03) == pytest.approx(33.91272910377198, abs=1e-12)


def test_zeta_against_mpmath_on_a_grid():
    mpmath.mp.dps = 30
    for s in (1.01, 1.03, 1.15, 1.5, 1.9, 1.99, 2.5, 3.5):
        assert zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)


def test_zeta_domain():
    for s in (1.0, 0.5, 4.0, -2.0):
        with pytest.raises(ValueError):
            zeta(s)


_ZETA_POINTS = (
    [1.0 + 1e-9, 1.03, 2.0, 3.999]
    + [1.0 + 3.0 * eps for eps in np.linspace(0.009, 0.011, 5).tolist()]
)


def _zeta_reference(s):
    # DLMF 25.2.9 at a = 10 with 8 corrections, added by math.fsum; the
    # Bernoulli ratios and rising factorials come from mpmath, rounded once.
    a = 10.0
    terms = [k ** -s for k in range(1, 10)]
    terms += [a ** (1.0 - s) / (s - 1.0), 0.5 * a ** -s]
    for j in range(1, 9):
        c = float(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j))
        terms.append(c * float(mpmath.rf(s, 2 * j - 1)) * a ** (1.0 - s - 2 * j))
    return math.fsum(terms)


@pytest.mark.parametrize("s", _ZETA_POINTS)
def test_zeta_equals_the_fsum_expression_bit_for_bit(s):
    assert zeta(s) == _zeta_reference(s)


def _ulp_test_points():
    # Seeded uniform points, points at 1e-15 .. 1e-1 from either end of the
    # domain, and the points of the bit-for-bit test.
    offsets = np.geomspace(1e-15, 1e-1, 29)
    return (
        np.random.default_rng(14).uniform(1.0, 4.0, 150).tolist()
        + (1.0 + offsets).tolist()
        + (4.0 - offsets).tolist()
        + _ZETA_POINTS
    )


def test_zeta_within_two_ulp_of_mpmath():
    points = _ulp_test_points()
    assert len(points) >= 200 and all(1.0 < s < 4.0 for s in points)
    with mpmath.workdps(40):
        for s in points:
            ref = mpmath.zeta(s)
            assert abs(mpmath.mpf(zeta(s)) - ref) <= 2 * math.ulp(float(ref)), s


# --- generators ------------------------------------------------------------

def test_adagrad_sequence_closed_forms():
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    assert seq.phi[0] == 1.0
    assert seq.hess[0] == -2.0
    assert seq.phi[1] == 0.7882180359792376          # 2^{-(1/3 + 0.01)}
    assert seq.f[0] == pytest.approx(33.91272910377198, abs=1e-12)
    assert np.all(np.diff(seq.f) < 0)
    assert 0.0 < seq.f[-1] < seq.f[0]
    assert np.all(np.diff(seq.x) > 0)
    np.testing.assert_allclose(np.diff(seq.x), seq.s, rtol=1e-13)
    np.testing.assert_array_equal(seq.g, np.zeros(11))
    np.testing.assert_array_equal(seq.hess, -2.0 * seq.phi)
    assert len(seq.x) == len(seq.f) == 12
    assert len(seq.s) == len(seq.dq) == len(seq.phi) == 11


def test_adagrad_sequence_scaling_identity():
    seq = gen_adagrad_example(1.0 / 3.0, 0.05, 1.0, 50)
    k = np.arange(51) + 1.0
    np.testing.assert_allclose(seq.phi * k ** (1.0 / 3.0 + 0.05), 1.0, rtol=1e-12)


def test_adagrad_step_recursion():
    # s_k = phi_k / (varsigma + sum_{j<=k} phi_j^3)^nu, accumulator inclusive
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 5)
    b = 0.0
    for k in range(6):
        b += seq.phi[k] ** 3
        assert seq.s[k] == seq.phi[k] / (0.01 + b) ** (1.0 / 3.0)
        assert seq.dq[k] == seq.phi[k] * seq.s[k] * seq.s[k]


def test_adagrad_decrease_bound():
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 200)
    k = np.arange(201) + 1.0
    assert np.all(seq.dq <= k ** (-(1.0 + 3 * 0.01)) + 1e-15)


def test_adagrad_average_measure_lower_bound():
    eps = 0.01
    seq = gen_adagrad_example(1.0 / 3.0, eps, 0.01, 200)
    k = np.arange(201)
    avg = np.cumsum(seq.phi) / (k + 1.0)
    bound = (3.0 / (2.0 * (2.0 + 3.0 * eps))) * (
        (k + 1.0) ** (-(1.0 / 3.0 + eps)) - 2.0 / (k + 1.0)
    )
    assert np.all(avg >= bound - 1e-10)


def test_adagrad_parameter_validation():
    good = dict(nu=1.0 / 3.0, eps=0.01, varsigma=0.01, K=5)
    for bad in (dict(nu=0.0), dict(eps=0.0), dict(eps=2.0 / 3.0),
                dict(varsigma=0.0), dict(K=0)):
        kw = {**good, **bad}
        with pytest.raises(ValueError):
            gen_adagrad_example(**kw)
    with pytest.raises(TypeError):   # the replay takes no linear step
        gen_adagrad_example(**good, mu=0.5)


def test_divergent_sequence_closed_forms():
    mu2, eps = 1.0 / 3.0, 0.01
    gamma = (1.0 - 2.0 * mu2) / 3.0 + eps
    seq = gen_divergent_example(mu2, eps, 1.0, 10)
    assert seq.s[7] == 8.0 ** (-(gamma + mu2))
    k = np.arange(11) + 1.0
    np.testing.assert_allclose(seq.phi, k ** (-gamma), rtol=1e-15)
    np.testing.assert_allclose(seq.s, 1.0 / (1.0 * k ** (gamma + mu2)), rtol=1e-12)
    np.testing.assert_allclose(seq.dq, 1.0 / (1.0 * k ** (3 * gamma + 2 * mu2)),
                               rtol=1e-12)
    # 3*gamma + 2*mu2 telescopes back to 1 + 3*eps
    assert seq.f[0] == pytest.approx(zeta(1.0 + 3.0 * eps), abs=1e-12)
    assert np.all(np.diff(seq.f) < 0) and seq.f[-1] > 0


def test_divergent_parameter_validation():
    good = dict(mu2=1.0 / 3.0, eps=0.01, kappa_w=1.0, K=5)
    for bad in (dict(mu2=0.0), dict(mu2=0.5), dict(eps=0.0),
                dict(eps=1.0 - (1.0 - 2.0 / 3.0) / 3.0),
                dict(kappa_w=0.5), dict(kappa_w=np.inf), dict(K=0)):
        kw = {**good, **bad}
        with pytest.raises(ValueError):
            gen_divergent_example(**kw)
    with pytest.raises(TypeError):   # the band's lower end is not a setting
        gen_divergent_example(**good, varsigma=1.0)


def test_sequences_carry_the_scaling_that_replays_them():
    for seq in (gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 20),
                gen_divergent_example(0.25, 0.01, 2.0, 20)):
        assert replay_check(seq)
    # the stored template is left fresh by the generator and by the replay
    assert seq.scaling == DivergentScaling(kappa_w=2.0, mu2=0.25)
    ada = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 5).scaling
    assert ada.a_accum == 0.0 and ada.b_accum == 0.0


# --- quintic interpolation -------------------------------------------------

def vandermonde_quintic(h, f0, f1, g0, g1, h0, h1):
    # independent oracle: solve the 6x6 Hermite system in t = x - x0
    def rows(t):
        p = [t ** j for j in range(6)]
        dp = [0.0] + [j * t ** (j - 1) for j in range(1, 6)]
        ddp = [0.0, 0.0] + [j * (j - 1) * t ** (j - 2) for j in range(2, 6)]
        return p, dp, ddp

    r0 = rows(0.0)
    r1 = rows(h)
    V = np.array([r0[0], r0[1], r0[2], r1[0], r1[1], r1[2]])
    rhs = np.array([f0, g0, h0, f1, g1, h1])
    return np.linalg.solve(V, rhs)


def test_quintic_constant_data():
    xs = np.array([0.0, 1.0, 2.5])
    interp = quintic_from_data(xs, np.full(3, 7.0), np.zeros(3), np.zeros(3))
    x = np.linspace(0, 2.5, 101)
    p, dp, ddp = interp.evaluate(x)
    np.testing.assert_allclose(p, 7.0, atol=1e-12)
    np.testing.assert_allclose(dp, 0.0, atol=1e-12)
    np.testing.assert_allclose(ddp, 0.0, atol=1e-12)


def test_quintic_linear_data_is_the_identity():
    xs = np.array([0.0, 0.7, 1.1, 3.0])
    interp = quintic_from_data(xs, xs, np.ones(4), np.zeros(4))
    x = np.linspace(0, 3, 151)
    p, dp, ddp = interp.evaluate(x)
    np.testing.assert_allclose(p, x, atol=1e-12)
    np.testing.assert_allclose(dp, 1.0, atol=1e-12)
    np.testing.assert_allclose(ddp, 0.0, atol=1e-11)


def test_quintic_matches_independent_vandermonde_solve():
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    interp = hermite_interpolant(seq)
    for i in range(10):
        x0, x1 = seq.x[i], seq.x[i + 1]
        coef = vandermonde_quintic(x1 - x0, seq.f[i], seq.f[i + 1],
                                   0.0, 0.0, seq.hess[i], seq.hess[i + 1])
        ts = np.linspace(x0, x1, 37)
        p, dp, ddp = interp.evaluate(ts)
        ref = np.polyval(coef[::-1], ts - x0)
        np.testing.assert_allclose(p, ref, atol=1e-9)
        dref = np.polyval(np.polyder(coef[::-1]), ts - x0)
        np.testing.assert_allclose(dp, dref, atol=1e-9)


def test_quintic_breakpoint_residuals():
    for seq in (gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10),
                gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 10)):
        interp = hermite_interpolant(seq)
        m = seq.K + 1
        p, dp, ddp = interp.evaluate(seq.x[:m])
        np.testing.assert_allclose(p, seq.f[:m], atol=1e-9, rtol=0)
        np.testing.assert_allclose(dp, np.zeros(m), atol=1e-9)
        np.testing.assert_allclose(ddp, seq.hess[:m], atol=1e-9, rtol=0)


def test_quintic_domain_and_data_validation():
    xs = np.array([0.0, 1.0])
    interp = quintic_from_data(xs, np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        interp.evaluate(-1e-9)
    with pytest.raises(ValueError):
        interp.evaluate(np.array([0.5, 1.0 + 1e-9]))
    for nan in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="outside the interpolation domain"):
            interp.evaluate(nan)
    with pytest.raises(ValueError):
        quintic_from_data(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        quintic_from_data(xs, np.zeros(3), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        quintic_from_data(xs, np.array([np.nan, 0.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="at least two breakpoints"):
        quintic_from_data(xs[:1], np.zeros(1), np.zeros(1), np.zeros(1))


def test_quintic_evaluates_a_scalar_as_floats():
    # A scalar point gives Python floats, the entries of its 1-point array.
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 5)
    interp = hermite_interpolant(seq)
    x = 0.5 * (seq.x[1] + seq.x[2])
    got = interp.evaluate(x)
    assert all(type(v) is float for v in got)
    assert got == tuple(float(v[0]) for v in interp.evaluate(np.array([x])))


def test_telescoping_sum():
    for seq in (gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 200),
                gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 200)):
        assert abs(math.fsum(seq.dq) - (seq.f[0] - seq.f[-1])) <= 1e-12


# --- figure sampling -------------------------------------------------------

def test_sample_figure_hits_breakpoints_and_shifts():
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    interp = hermite_interpolant(seq)
    x, f, fp, fpp = sample_figure(interp, 20, f0_shift=100.0)
    assert len(x) == 10 * 20 + 1
    assert f[0] == pytest.approx(100.0, abs=1e-12)
    # every breakpoint appears with the interpolation data (shifted f)
    shift = 100.0 - seq.f[0]
    for k in range(11):
        j = np.argmin(np.abs(x - seq.x[k]))
        assert x[j] == seq.x[k]
        assert f[j] == pytest.approx(seq.f[k] + shift, abs=1e-9)
        assert fp[j] == pytest.approx(0.0, abs=1e-9)
        assert fpp[j] == pytest.approx(seq.hess[k], abs=1e-9)


def test_sample_figure_curvature_stays_bounded():
    # between breakpoints the quintic must swing positive (f' returns to 0
    # while f drops), but the swing is uniformly bounded
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    interp = hermite_interpolant(seq)
    _, _, fp, fpp = sample_figure(interp, 200)
    assert np.max(np.abs(fpp)) < 7.0
    assert fpp[0] == pytest.approx(-2.0, abs=1e-9)
    assert np.min(fp) > -2.0


def test_sample_figure_validates_sampling_density():
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 3)
    interp = hermite_interpolant(seq)
    for bad in (0, 2.5):
        with pytest.raises(ValueError):
            sample_figure(interp, bad)


@pytest.mark.parametrize("family", ["adagrad", "divergent"])
@pytest.mark.parametrize("points", [1, 2, 7, 20])
def test_sample_figure_equals_per_interval_linspace(family, points):
    if family == "adagrad":
        seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 60)
    else:
        seq = gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 60)
    interp = hermite_interpolant(seq)
    xs = interp.xs
    x_ref = np.concatenate(
        [np.linspace(xs[i], xs[i + 1], points, endpoint=False) for i in range(len(xs) - 1)]
        + [xs[-1:]]
    )
    x, f, fp, fpp = sample_figure(interp, points)
    np.testing.assert_array_equal(x, x_ref)
    for got, want in zip((f, fp, fpp), interp.evaluate(x_ref)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("points", [1, 7, 20])
def test_sample_figure_shift_is_taken_from_the_first_breakpoint(points):
    # f[0] is the value at t = 0 of the first piece, exactly f_0.
    for seq in (gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 30),
                gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 30)):
        interp = hermite_interpolant(seq)
        _, f, _, _ = sample_figure(interp, points)
        _, shifted, _, _ = sample_figure(interp, points, f0_shift=-7.25)
        assert f[0] == seq.f[0]
        np.testing.assert_array_equal(shifted, f + (-7.25 - seq.f[0]))


def test_second_derivative_difference_quotients_stay_bounded():
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    interp = hermite_interpolant(seq)
    x, _, _, fpp = sample_figure(interp, 1000)
    quotients = np.abs(np.diff(fpp)) / np.diff(x)
    assert np.all(np.isfinite(quotients))
    assert np.max(quotients) < 1e3


# --- replay ----------------------------------------------------------------

def test_replay_adagrad_figure_parameters():
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    assert replay_check(seq) is True


def test_replay_divergent_figure_parameters():
    seq = gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 10)
    assert replay_check(seq) is True


def test_replay_detects_perturbed_varsigma():
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    perturbed = dataclasses.replace(seq, scaling=AdagradScaling(varsigma=0.011))
    assert replay_check(perturbed) is False


def test_replay_detects_perturbed_divergent_coefficient():
    seq = gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 10)
    perturbed = dataclasses.replace(seq, scaling=DivergentScaling(kappa_w=1.1))
    assert replay_check(perturbed) is False


def test_replay_structural_mismatches_return_false():
    # A scaling state that cannot reproduce the sequence replays to a mismatch.
    adagrad = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 5)
    divergent = gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 5)
    stale = AdagradScaling(varsigma=0.01)
    stale.b_accum = 3.0
    for seq, scaling in (
        (adagrad, AdagradScaling(varsigma=0.01, theta=0.5)),
        (adagrad, stale),
        (adagrad, DivergentScaling()),
        (divergent, AdagradScaling(varsigma=0.01)),
    ):
        assert replay_check(dataclasses.replace(seq, scaling=scaling)) is False
    # the unperturbed sequences replay
    assert replay_check(adagrad) and replay_check(divergent)


def _tampered(seq, field, k, change):
    values = getattr(seq, field).copy()
    values[k] = change(values[k])
    return dataclasses.replace(seq, **{field: values})


@pytest.mark.parametrize("field, change", [
    ("x", lambda v: v + 1e-6),  # the iterate drifts off the breakpoint
    ("phi", lambda v: v * (1.0 + 1e-6)),
    ("hess", lambda v: -v),  # positive curvature: phi = 0 and an L branch
    ("s", lambda v: v * (1.0 + 1e-6)),
], ids=["x", "phi", "hess", "s"])
def test_replay_detects_a_tampered_sequence(field, change):
    seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    assert replay_check(seq) is True
    assert replay_check(_tampered(seq, field, 3, change)) is False


@pytest.mark.parametrize("family", ["adagrad", "divergent"])
def test_replay_looks_each_iterate_up_once(family, monkeypatch):
    # The driver asks for the gradient and the Hessian at each of the K + 1
    # iterates; both are served by one breakpoint lookup.
    if family == "adagrad":
        seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 50)
    else:
        seq = gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 50)
    calls = {"n": 0}
    real_searchsorted = np.searchsorted

    def searchsorted(*args, **kwargs):
        calls["n"] += 1
        return real_searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", searchsorted)
    assert replay_check(seq) is True
    assert calls["n"] == seq.K + 1


@pytest.mark.parametrize("family", ["adagrad", "divergent"])
def test_replay_oracle_hvp_is_the_hessian_times_v(family):
    # The replay oracle's product is derived from its diagonal Hessian: the
    # bits of hessian(x) * v at every breakpoint, and the drift error off them.
    from astr2.sharpness import _replay_oracle

    if family == "adagrad":
        seq = gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 10)
    else:
        seq = gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 10)
    oracle = _replay_oracle(seq)
    for v in (np.array([1.0]), np.array([-0.0]), np.array([-3.7])):
        for xk in seq.x[: seq.K + 1]:
            x = np.array([xk])
            assert oracle.hvp(x, v).tobytes() == (oracle.hessian(x) * v).tobytes()
    with pytest.raises(ValueError, match="from the nearest breakpoint"):
        oracle.hvp(np.array([seq.x[4] + 1e-6]), np.ones(1))
