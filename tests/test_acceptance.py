"""End-to-end acceptance checks of the advertised behavior.

Each test pins one externally stated guarantee: exactness of the worst-case
sequences under driver replay, figure-table consistency, subproblem solver
equivalence against a brute-force oracle, boundedness of the rate envelopes,
the per-iteration decrease inequalities, the optimality-measure lemmas, the
no-objective-evaluation contract, and subspace-mode agreement.
"""

import math
import time

import numpy as np
import pytest

from astr2 import (
    AdagradScaling,
    Astr2Config,
    DivergentScaling,
    KrylovModel,
    brute_force_decrease,
    combined_measures,
    gen_adagrad_example,
    gen_divergent_example,
    hermite_interpolant,
    make_problem,
    phi1,
    phi2,
    phi2_subspace,
    replay_check,
    run,
    solve_trs_exact,
)
from astr2.oracle import ProblemOracle
from astr2.trs import kkt_residuals

from conftest import random_symmetric, with_counting


def oracle_from_breakpoints(seq):
    """One-dimensional oracle serving the prescribed derivative sequence at
    its breakpoints; evaluation anywhere else is an error."""
    xs = np.asarray(seq.x[: seq.K + 1])
    hs = np.asarray(seq.hess[: seq.K + 1])

    def locate(x):
        v = float(np.asarray(x)[0])
        j = int(np.argmin(np.abs(xs - v)))
        if abs(v - xs[j]) > 1e-9 * max(1.0, abs(xs[j])):
            raise ValueError(f"evaluation off the breakpoint grid at {v!r}")
        return j

    def gradient(x):
        locate(x)
        return np.zeros(1)

    def hessian(x):
        return np.array([[hs[locate(x)]]])

    return ProblemOracle(
        name=f"breakpoints-{seq.family}",
        n=1,
        gradient=gradient,
        hessian=hessian,
        hvp=lambda x, v: hessian(x) @ v,
    )


def replay_bundle(seq, scaling):
    t0 = time.perf_counter()
    oracle, log = with_counting(oracle_from_breakpoints(seq))
    config = Astr2Config(scaling=scaling, max_iter=seq.K + 1)
    trace = run(oracle, np.array([seq.x[0]]), config)
    ok = replay_check(seq)
    return {
        "seq": seq,
        "trace": trace,
        "log": log,
        "replay_ok": ok,
        "seconds": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def adagrad_replay():
    seq = gen_adagrad_example(nu=1.0 / 3.0, eps=0.01, varsigma=0.01, K=200)
    return replay_bundle(seq, AdagradScaling(varsigma=0.01, mu=0.5, nu=1.0 / 3.0))


@pytest.fixture(scope="module")
def divergent_replay():
    seq = gen_divergent_example(mu2=1.0 / 3.0, eps=0.01, kappa_w=1.0, K=200)
    return replay_bundle(seq, DivergentScaling(kappa_w=1.0))


@pytest.fixture(scope="module")
def envelope_run():
    t0 = time.perf_counter()
    oracle, log = with_counting(make_problem("cosine_sum", 10))
    config = Astr2Config(
        scaling=AdagradScaling(varsigma=1.0, mu=0.5, nu=1.0 / 3.0, theta=1.0),
        max_iter=10_000,
        xi=1.0,
    )
    trace = run(oracle, np.asarray(oracle.x0, dtype=float), config)
    return {
        "trace": trace,
        "log": log,
        "config": config,
        "seconds": time.perf_counter() - t0,
    }


def test_criterion_1_sharp_rate_generated_and_replayed(adagrad_replay):
    seq = adagrad_replay["seq"]
    k = np.arange(seq.K + 1) + 1.0
    rate = k ** (1.0 / 3.0 + 0.01)

    generated = np.minimum(seq.phi, 1.0)
    assert np.max(np.abs(generated * rate - 1.0)) <= 1e-10

    trace = adagrad_replay["trace"]
    assert len(trace) == seq.K + 1
    replayed = np.array([r.hatphi for r in trace])
    assert np.max(np.abs(replayed * rate - 1.0)) <= 1e-10
    assert all(r.branch == "Q" for r in trace)
    assert adagrad_replay["replay_ok"] is True
    assert adagrad_replay["seconds"] < 1.0


def test_criterion_2_divergent_sharp_rate(divergent_replay):
    seq = divergent_replay["seq"]
    gamma = (1.0 - 2.0 / 3.0) / 3.0 + 0.01
    k = np.arange(seq.K + 1) + 1.0
    rate = k ** gamma

    generated = np.minimum(seq.phi, 1.0)
    assert np.max(np.abs(generated * rate - 1.0)) <= 1e-10
    psi = generated ** 3
    assert np.max(np.abs(psi ** (1.0 / 3.0) * rate - 1.0)) <= 1e-10

    trace = divergent_replay["trace"]
    assert len(trace) == seq.K + 1
    replayed = np.array([r.hatphi for r in trace])
    assert np.max(np.abs(replayed * rate - 1.0)) <= 1e-10
    psi_replayed = np.minimum(1.0, np.maximum(
        np.array([r.norm_g for r in trace]) ** 2, replayed ** 3))
    assert np.max(np.abs(psi_replayed ** (1.0 / 3.0) * rate - 1.0)) <= 1e-10
    assert divergent_replay["replay_ok"] is True
    assert divergent_replay["seconds"] < 1.0


def test_criterion_3_figure_tables_interpolate_and_telescope():
    t0 = time.perf_counter()
    for seq in (
        gen_adagrad_example(nu=1.0 / 3.0, eps=0.01, varsigma=0.01, K=10),
        gen_divergent_example(mu2=1.0 / 3.0, eps=0.01, kappa_w=1.0, K=10),
    ):
        interp = hermite_interpolant(seq)
        m = seq.K + 1
        p, dp, ddp = interp.evaluate(seq.x[:m])
        assert np.max(np.abs(p - seq.f[:m])) <= 1e-9
        assert np.max(np.abs(dp)) <= 1e-9
        assert np.max(np.abs(ddp - seq.hess[:m])) <= 1e-9
        assert abs(math.fsum(seq.dq) - (seq.f[0] - seq.f[-1])) <= 1e-12
        assert np.all(np.diff(seq.f) < 0)
    assert time.perf_counter() - t0 < 1.0


def _criterion_4_instances(count):
    # (g, H, delta) of criterion 4: n = 1..5, entries uniform in [-2, 2].
    rng = np.random.default_rng(42)
    radii = (0.1, 1.0, 10.0)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        A = rng.uniform(-2.0, 2.0, (n, n))
        H = 0.5 * (A + A.T)
        g = rng.uniform(-2.0, 2.0, n)
        yield g, H, radii[int(rng.integers(len(radii)))]


def _assert_criterion_4(g, H, delta, sol, scale=1.0):
    # Criterion 4's KKT tolerances for a model scaled by ``scale``: the
    # multiplier and the residual scale with it, the step does not.
    res = kkt_residuals(g, H, delta, sol)
    gnorm = float(np.linalg.norm(g))
    assert res["feasibility"] <= 1e-10 * delta
    assert res["complementarity"] <= 1e-8 * delta * scale
    assert res["stationarity"] <= 1e-8 * (gnorm + scale)
    assert res["psd"] <= 1e-10 * scale
    assert res["multiplier_sign"] == 0.0


def test_criterion_4_trs_solver_matches_brute_force_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for g, H, delta in _criterion_4_instances(1000):
        sol = solve_trs_exact(g, H, delta)
        reference = brute_force_decrease(g, H, delta)
        worst = max(worst, abs(sol.model_decrease - reference))
        _assert_criterion_4(g, H, delta, sol)
    assert worst <= 1e-8
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.parametrize("scale", [1e-18, 1e-13, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e18])
def test_criterion_4_holds_at_every_scale_of_the_model(scale):
    # (g, H) -> (s g, s H) leaves the minimiser and scales the decrease by s.
    # Every tolerance of the dense solver is relative to the model's own
    # scale, so criterion 4 holds, scaled by s, far below and above unit
    # scale; the Krylov solve in the full space follows the dense one.
    for g0, H0, delta in _criterion_4_instances(200):
        g, H = scale * g0, scale * H0
        sol = solve_trs_exact(g, H, delta)
        assert abs(sol.model_decrease - brute_force_decrease(g, H, delta)) <= 1e-8 * scale
        _assert_criterion_4(g, H, delta, sol, scale)
        krylov = KrylovModel(g, lambda v: H @ v, len(g)).solve(delta)
        assert abs(krylov.model_decrease - sol.model_decrease) <= 1e-7 * scale


def test_criterion_5_rate_envelopes_flatten(envelope_run):
    trace = envelope_run["trace"]
    assert len(trace) == 10_000
    gnorm = np.array([r.norm_g for r in trace])
    hatphi = np.array([r.hatphi for r in trace])
    k1 = np.arange(len(trace)) + 1.0

    envelopes = (
        np.cumsum(gnorm ** 2),
        np.cumsum(hatphi ** 3),
        np.maximum.accumulate(np.sqrt(k1) * np.minimum.accumulate(gnorm)),
        np.maximum.accumulate(k1 ** (1.0 / 3.0) * np.minimum.accumulate(hatphi)),
    )
    for env in envelopes:
        window = env[5000:]
        running_max = float(np.max(env))
        assert running_max > 0
        assert float(np.max(window) - np.min(window)) < 0.05 * running_max

    branches = np.array([r.branch for r in trace])
    a = np.cumsum(np.where(branches == "L", gnorm ** 2, 0.0))
    b = np.cumsum(np.where(branches == "Q", hatphi ** 3, 0.0))
    assert a[-1] > 0
    assert (a[-1] - a[5000]) / a[-1] < 0.05
    if b[-1] > 0:
        assert (b[-1] - b[5000]) / b[-1] < 0.05

    # recorded weights must agree with the accumulators rebuilt from the trace
    w_l = np.array([r.w_l for r in trace])
    w_q = np.array([r.w_q for r in trace])
    np.testing.assert_allclose(w_l, (1.0 + a) ** 0.5, rtol=1e-12)
    np.testing.assert_allclose(w_q, (1.0 + b) ** (1.0 / 3.0), rtol=1e-12)

    assert envelope_run["seconds"] < 60.0


def audit_decrease_inequalities(oracle, trace, xi):
    L1 = oracle.lipschitz_g
    L2 = oracle.lipschitz_h
    audited_l = audited_q = 0
    for rec, nxt in zip(trace, trace[1:]):
        drop = nxt.f - rec.f
        if rec.branch == "L":
            bound = (-(rec.norm_g ** 2) / rec.w_l
                     + 0.5 * L1 * rec.norm_g ** 2 / rec.w_l ** 2)
            audited_l += 1
        else:
            lead = min(1.0 / (2.0 * (1.0 + L1)), 1.0 / rec.w_q,
                       1.0 / rec.w_q ** 2)
            # tau = 1: the dense step solves the subproblem exactly.
            bound = (-(1.0 / (4.0 * xi)) * lead * rec.hatphi ** 3
                     + (L2 / 6.0) * rec.hatphi ** 3 / rec.w_q ** 3)
            audited_q += 1
        assert drop <= bound + 1e-8
    return audited_l, audited_q


def test_criterion_6_per_iteration_decrease_inequalities():
    setups = (
        ("quadratic_psd", np.ones(10), 1.0, 300),
        ("cosine_sum", None, 1.0, 300),
        ("cosine_sum", 1e-3 * np.ones(10), 1.0, 60),
        ("cosine_sum", 1e-3 * np.ones(10), 200.0, 60),
    )
    total_l = total_q = 0
    for name, x0, varsigma, iters in setups:
        oracle = make_problem(name, 10)
        config = Astr2Config(
            scaling=AdagradScaling(varsigma=varsigma, mu=0.5, nu=1.0 / 3.0),
            max_iter=iters,
            record_f=True,
        )
        start = np.asarray(oracle.x0, dtype=float) if x0 is None else x0
        trace = run(oracle, start, config)
        nl, nq = audit_decrease_inequalities(oracle, trace, config.xi)
        total_l += nl
        total_q += nq
    assert total_l > 0
    assert total_q > 0


def test_criterion_7_measure_lemmas():
    rng = np.random.default_rng(7)

    # psd curvature: the measure never beats the gradient norm at radius one
    for _ in range(200):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((n, n))
        g = rng.standard_normal(n)
        val, _ = phi2(g, A.T @ A, 1.0)
        assert val <= float(np.linalg.norm(g)) + 1e-10

    # mild negative curvature: the measure is at most twice the gradient norm
    kept = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        H = random_symmetric(rng, n)
        g = 3.0 * rng.standard_normal(n)
        report = combined_measures(g, H, xi=1e6, delta=1.0)
        if 0.0 < report.eta <= 0.5 * report.phi2:
            kept += 1
            assert report.phi2 <= 2.0 * float(np.linalg.norm(g)) + 1e-10
    assert kept >= 30

    # the first-order measure is exactly radius times gradient norm
    for _ in range(50):
        n = int(rng.integers(1, 7))
        g = rng.standard_normal(n)
        delta = float(rng.uniform(0.1, 3.0))
        assert phi1(g, delta) == delta * float(np.linalg.norm(g))

    # zero measure exactly characterizes second-order points
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        psd = A.T @ A
        for delta in (0.5, 1.0, 2.0):
            val, _ = phi2(np.zeros(n), psd, delta)
            assert val <= 1e-10
            val, _ = phi2(1e-12 * rng.standard_normal(n), psd, delta)
            assert val <= 1e-10
        g = rng.standard_normal(n)
        g *= 1e-3 / np.linalg.norm(g)
        val, _ = phi2(g, psd, 1.0)
        assert val > 1e-10
        dent = psd - (np.linalg.eigvalsh(psd)[0] + 1e-3) * np.eye(n)
        val, _ = phi2(np.zeros(n), dent, 1.0)
        assert val > 1e-10

    # a small measure certifies an eigenvalue bound
    qualified = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for eps2 in (1e-3, 1e-2, 1e-1):
            for delta in (0.1, 1.0, 2.0):
                lams = rng.uniform(0.1, 1.0, n)
                lams[0] = -eps2 * rng.uniform(0.0, 2.0)
                H = (Q * lams) @ Q.T
                g = 1e-12 * rng.standard_normal(n)
                val, _ = phi2(g, H, delta)
                if val <= 0.5 * eps2 * delta * delta:
                    qualified += 1
                    assert float(np.linalg.eigvalsh(H)[0]) >= -eps2 - 1e-8
    assert qualified >= 100


def test_criterion_8_no_objective_evaluations(adagrad_replay, divergent_replay,
                                              envelope_run):
    for bundle in (adagrad_replay, divergent_replay, envelope_run):
        log = bundle["log"]
        assert log.f == 0
        assert log.gradient > 0
        assert log.hessian + log.hvp > 0


def test_criterion_9_subspace_measure_brackets_the_dense_one():
    rng = np.random.default_rng(9)
    for _ in range(100):
        H = random_symmetric(rng, 5)
        g = rng.standard_normal(5)
        delta = float((0.5, 1.0, 2.0)[int(rng.integers(3))])
        dense, _ = phi2(g, H, delta)
        values = [
            phi2_subspace(g, lambda v: H @ v, delta, max_dim=m)[0]
            for m in range(1, 6)
        ]
        assert abs(values[-1] - dense) <= 1e-8
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12
        assert max(values) <= dense + 1e-8
