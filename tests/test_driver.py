import copy
import dataclasses
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from astr2 import (
    AdagradScaling,
    Astr2Config,
    DenseModel,
    DivergentScaling,
    KrylovModel,
    SolverAbort,
    astr2_step,
    cauchy_decrease,
    eigen_decrease,
    make_problem,
    rate_envelopes,
    run,
)
from astr2.driver import IterateRecord
from astr2.oracle import ProblemOracle

from conftest import count_calls, rotated, with_counting


def adagrad_config(**kw):
    kw.setdefault("scaling", AdagradScaling(varsigma=1.0, mu=0.5, nu=1.0 / 3.0))
    kw.setdefault("max_iter", 50)
    return Astr2Config(**kw)


def constant_oracle(g_vec, H_mat, name="synthetic"):
    g_vec = np.asarray(g_vec, dtype=float)
    H_mat = np.asarray(H_mat, dtype=float)
    return ProblemOracle(
        name=name,
        n=len(g_vec),
        gradient=lambda x: g_vec.copy(),
        hessian=lambda x: H_mat.copy(),
        hvp=lambda x, v: H_mat @ v,
    )


def test_config_validation():
    with pytest.raises(TypeError):
        adagrad_config(tau=0.9)                   # no such setting
    with pytest.raises(ValueError):
        adagrad_config(xi=0.5)
    with pytest.raises(ValueError):
        adagrad_config(max_iter=0)
    with pytest.raises(ValueError):
        adagrad_config(eps1=1e-6)                 # eps2 missing
    with pytest.raises(ValueError):
        adagrad_config(eps1=1e-6, eps2=-1.0)
    for dim in (0, 2.5, True):
        with pytest.raises(ValueError):
            adagrad_config(subspace_max_dim=dim)


def test_branch_rule_ties_go_to_the_linear_step():
    # ||g||^2 = 1 and hatphi = min(phi, 1) = 1: equality must pick L.
    oracle = constant_oracle([1.0, 0.0], -3.0 * np.eye(2))
    cfg = adagrad_config(max_iter=1)
    trace = run(oracle, np.zeros(2), cfg)
    assert trace[0].hatphi == 1.0
    assert trace[0].norm_g == 1.0
    assert trace[0].branch == "L"


def test_linear_step_is_the_scaled_negative_gradient():
    oracle = make_problem("quadratic_psd", 4)
    cfg = adagrad_config(max_iter=3)
    trace = run(oracle, np.array([2.0, 0.0, 0.0, 0.0]), cfg)
    r0 = trace[0]
    assert r0.branch == "L"
    # w_L = (1 + ||g||^2)^mu with g = x0
    assert r0.w_l == (1.0 + 4.0) ** 0.5
    assert r0.norm_s == pytest.approx(2.0 / r0.w_l, rel=1e-15)
    assert r0.delta_l == pytest.approx(2.0 / r0.w_l, rel=1e-15)
    # second iterate continues from x0 + s
    assert trace[1].norm_g == pytest.approx(2.0 - 2.0 / r0.w_l, rel=1e-12)


def test_radii_definitions():
    oracle = make_problem("cosine_sum", 6)
    cfg = adagrad_config(max_iter=20)
    trace = run(oracle, 0.3 * np.ones(6), cfg)
    for r in trace:
        assert r.delta_l == pytest.approx(r.norm_g / r.w_l, rel=5e-16)
        assert r.delta_q == pytest.approx(r.hatphi / r.w_q, rel=5e-16)
        assert r.hatphi == min(r.phi, cfg.xi)


def test_quadratic_step_meets_the_model_decrease_floor():
    oracle = make_problem("cosine_sum", 8)
    cfg = adagrad_config(max_iter=40)
    trace = run(oracle, 1e-3 * np.ones(8), cfg)
    q_rows = [r for r in trace if r.branch == "Q"]
    assert q_rows, "expected quadratic iterations near the maximizer"
    for r in q_rows:
        H = oracle.hessian(r.x)
        g = oracle.gradient(r.x)
        assert r.norm_s <= r.delta_q * (1 + 1e-10)
        _, dq_c = cauchy_decrease(g, H, r.delta_q)
        _, _, dq_e = eigen_decrease(g, H, r.delta_q)
        assert r.dq >= max(dq_c, dq_e) - 1e-10


def test_every_step_is_accepted():
    oracle = make_problem("rosenbrock", 4)
    cfg = adagrad_config(max_iter=30)
    trace = run(oracle, oracle.x0, cfg)
    for a, b in zip(trace, trace[1:]):
        assert np.linalg.norm(b.x - a.x) == pytest.approx(a.norm_s, abs=1e-14)


def test_runs_are_deterministic_and_do_not_share_state():
    oracle = make_problem("cosine_sum", 5)
    cfg = adagrad_config(max_iter=25)
    t1 = run(oracle, oracle.x0, cfg)
    t2 = run(oracle, oracle.x0, cfg)
    assert all(a.w_l == b.w_l and a.w_q == b.w_q and a.norm_g == b.norm_g
               and a.dq == b.dq for a, b in zip(t1, t2))
    assert cfg.scaling.a_accum == 0.0 and cfg.scaling.b_accum == 0.0


def test_termination_checks_the_recorded_measures():
    oracle = make_problem("quadratic_psd", 6)
    cfg = adagrad_config(max_iter=500, eps1=1e-6, eps2=1e-6)
    trace = run(oracle, oracle.x0, cfg)
    assert len(trace) < 500
    last = trace[-1]
    assert last.norm_g <= 1e-6 and last.phi <= 0.5e-6
    for r in trace[:-1]:
        assert r.norm_g > 1e-6 or r.phi > 0.5e-6


def test_record_f_gates_the_diagnostic_objective():
    oracle = make_problem("quadratic_psd", 3)
    plain = run(oracle, oracle.x0, adagrad_config(max_iter=5))
    assert all(r.f is None for r in plain)
    audited = run(oracle, oracle.x0, adagrad_config(max_iter=5, record_f=True))
    assert all(isinstance(r.f, float) for r in audited)
    assert audited[0].f == pytest.approx(1.5, abs=0)   # 0.5 * ||ones(3)||^2


def test_abort_carries_the_partial_trace():
    calls = {"n": 0}

    def gradient(x):
        calls["n"] += 1
        if calls["n"] > 3:
            return np.array([np.nan, 0.0])
        return np.array([1.0, 1.0])

    oracle = ProblemOracle(name="breaks", n=2, gradient=gradient,
                           hessian=lambda x: np.eye(2),
                           hvp=lambda x, v: v)
    with pytest.raises(SolverAbort) as info:
        run(oracle, np.zeros(2), adagrad_config(max_iter=10))
    assert len(info.value.trace) == 3
    assert "non-finite" in info.value.reason


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dense_hessian_aborts_with_the_trace(bad):
    # Injected into either form: cosine_sum's diagonal and the n x n matrix
    # of that diagonal.
    base = make_problem("cosine_sum", 3)
    for real, index in ((base.hessian, 1), (lambda x: np.diag(base.hessian(x)), (1, 1))):
        calls = {"n": 0}

        def hessian(x):
            calls["n"] += 1
            H = real(x)
            if calls["n"] == 3:
                H[index] = bad
            return H

        oracle = dataclasses.replace(base, hessian=hessian)
        with pytest.raises(SolverAbort) as info:
            run(oracle, base.x0, adagrad_config(max_iter=5))
        assert [r.k for r in info.value.trace] == [0, 1], index
        assert "non-finite" in info.value.reason


@pytest.mark.filterwarnings("error")
def test_nan_gradient_in_subspace_mode_aborts_with_the_trace():
    # A NaN gradient must not read as g = 0 (which would draw an eigenpair).
    base = make_problem("cosine_sum", 5)
    calls = {"n": 0}

    def gradient(x):
        calls["n"] += 1
        g = base.gradient(x)
        if calls["n"] == 3:
            g[0] = np.nan
        return g

    oracle = dataclasses.replace(base, gradient=gradient, hessian=None)
    with pytest.raises(SolverAbort) as info:
        run(oracle, base.x0, adagrad_config(max_iter=5, subspace_max_dim=2))
    assert [r.k for r in info.value.trace] == [0, 1]
    assert "non-finite" in info.value.reason


def _bowl_beyond_the_lanczos_budget(monkeypatch):
    # The measured test holds at x0 (tiny g on a positive definite Hessian),
    # so the certificate runs min_eigpair; a basis budget of three vectors
    # cannot resolve 50 distinct eigenvalues.
    import astr2.trs

    n = 50
    diag = np.linspace(1.0, 2.0, n)
    monkeypatch.setattr(astr2.trs, "_LANCZOS_BASIS_BYTES", 3 * 8 * n)
    oracle = ProblemOracle(name="matrix_free_bowl", n=n,
                           gradient=lambda x: np.full(n, 1e-6),
                           hessian=None,
                           hvp=lambda x, v: diag * v)
    cfg = adagrad_config(max_iter=10, eps1=1e-3, eps2=1e-3, subspace_max_dim=5)
    return oracle, np.zeros(n), cfg


def test_lanczos_failure_without_dense_hessian_aborts_with_the_trace(monkeypatch):
    # The certificate's Lanczos failure aborts the run with the first record.
    oracle, x0, cfg = _bowl_beyond_the_lanczos_budget(monkeypatch)
    with pytest.raises(SolverAbort) as info:
        run(oracle, x0, cfg)
    assert [r.k for r in info.value.trace] == [0]
    assert "no convergence in 3 Lanczos iterations" in info.value.reason


def test_an_overflowing_accumulator_aborts_with_the_trace():
    # ||g||^2 = 1e308 is finite at k = 0; at k = 1 the Adagrad accumulator
    # reaches 2e308 = inf, and w_L = inf would stall the run at s = 0.
    with pytest.raises(SolverAbort) as info:
        run(make_problem("quadratic_psd", 1), np.array([1e154]), adagrad_config(max_iter=5))
    assert [r.k for r in info.value.trace] == [0]
    assert "overflow" in info.value.reason


@pytest.mark.parametrize("subspace_max_dim", [None, 1])
@pytest.mark.parametrize("x0", [1e300, 1e160])
def test_an_overflowing_gradient_aborts_before_the_model_is_built(x0, subspace_max_dim):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverAbort) as info:
            run(make_problem("quadratic_psd", 1), np.array([x0]),
                adagrad_config(subspace_max_dim=subspace_max_dim))
    assert info.value.trace == []
    assert info.value.reason == "overflow: ||g||^2, hatphi^3 or a weight is not finite"


def test_subspace_linear_step_draws_no_product_so_a_nan_surfaces_in_the_next_measure():
    # With max_dim 1 the measure spends the first hvp and the linear step
    # reads its curvature from it; the second product is iteration 1's
    # measure, whose NaN aborts the run after one record.
    base = make_problem("cosine_sum", 5)
    calls = {"n": 0}

    def hvp(x, v):
        calls["n"] += 1
        if calls["n"] == 2:
            return np.full(5, np.nan)
        return base.hvp(x, v)

    oracle = dataclasses.replace(base, hessian=None, hvp=hvp)
    with pytest.raises(SolverAbort) as info:
        run(oracle, base.x0, adagrad_config(max_iter=5, subspace_max_dim=1))
    assert calls["n"] == 2
    assert [(r.k, r.branch) for r in info.value.trace] == [(0, "L")]
    assert "non-finite Hessian-vector product" in info.value.reason


def _diagonal_bowl(bad_product):
    # f = sum_i d_i x_i^2 / 2 from x0 = (0, 1, 2, 3): g_0 = d_0 x_0 stays 0,
    # so entry 0 of every Krylov basis vector is 0.  The products at x0 are
    # exact; the first one at any other iterate is bad_product(H v).
    d = np.arange(1.0, 5.0)
    x0 = np.arange(4.0)

    def hvp(x, v):
        w = d * v
        return w if np.array_equal(x, x0) else bad_product(w)

    return ProblemOracle(name="diagonal_bowl", n=4, gradient=lambda x: d * x,
                         hessian=None, hvp=hvp), x0


def _with_entry(i, value):
    def bad(w):
        w = w.copy()
        w[i] = value
        return w

    return bad


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad_product, reason", [
    (_with_entry(1, np.nan), "non-finite Hessian-vector product"),
    (_with_entry(1, np.inf), "non-finite Hessian-vector product"),
    (_with_entry(0, np.inf), "non-finite Hessian-vector product"),  # 0 * inf in v^T H v
    (lambda w: 1e300 * w, "overflows"),  # finite, but beta overflows
], ids=["nan", "inf", "inf_where_the_basis_vector_is_0", "finite_overflow"])
def test_bad_hessian_vector_product_aborts_with_the_trace(bad_product, reason):
    oracle, x0 = _diagonal_bowl(bad_product)
    with pytest.raises(SolverAbort) as info:
        run(oracle, x0, adagrad_config(max_iter=5, subspace_max_dim=4))
    assert [r.k for r in info.value.trace] == [0]
    assert reason in info.value.reason


def test_subspace_linear_iterations_draw_only_their_lanczos_products(monkeypatch):
    # Frozen subspace_l run of test_golden.py: 20 L iterations.  Each draws
    # one product per dimension of its measure's Krylov space and none for
    # the step, whose curvature along g is the tridiagonal's T[0, 0].  The
    # measure is the model's decrease at radius 1.
    import astr2.driver

    dims = []

    class RecordingModel(KrylovModel):
        def decrease(self, delta):
            value = super().decrease(delta)
            dims.append(self.dim)
            return value

    monkeypatch.setattr(astr2.driver, "KrylovModel", RecordingModel)
    oracle, log = with_counting(make_problem("cosine_sum", 100))
    cfg = adagrad_config(max_iter=20, subspace_max_dim=20)
    trace = run(oracle, np.random.default_rng(0).standard_normal(100), cfg)
    assert "".join(r.branch for r in trace) == "L" * 20
    assert len(dims) == 20
    assert log.hvp == sum(dims) == 80  # dimension 4 each: the residual stop draws no fifth


def test_subspace_termination_needs_a_curvature_certificate():
    # At x0 the Krylov space grown from g = (1e-8, 0) misses the curvature -1
    # along x2: the subspace phi2 is 2.5e-13, the dense one 0.5.  The run must
    # not certify the strict saddle as second-order critical.
    oracle = make_problem("saddle_cubic", 2)
    cfg = adagrad_config(max_iter=5, eps1=1e-3, eps2=1e-3, subspace_max_dim=20)
    trace = run(oracle, np.array([1e-4, 0.0]), cfg)
    assert trace[0].phi < 1e-12
    assert len(trace) == 5


def test_divergent_scaling_drives_the_radii_down():
    oracle = make_problem("cosine_sum", 4)
    scaling = DivergentScaling(kappa_w=1.0)
    cfg = Astr2Config(scaling=scaling, max_iter=40)
    trace = run(oracle, 0.4 * np.ones(4), cfg)
    for r in trace:
        assert r.w_l == (r.k + 1.0) ** 0.5
        assert r.w_q == (r.k + 1.0) ** (1.0 / 3.0)


def test_subspace_mode_matches_dense_mode_on_smooth_runs():
    oracle = make_problem("cosine_sum", 10)
    base = dict(scaling=AdagradScaling(varsigma=1.0, mu=0.5, nu=1.0 / 3.0),
                max_iter=60)
    dense = run(oracle, oracle.x0, Astr2Config(**base))
    sub = run(oracle, oracle.x0, Astr2Config(**base, subspace_max_dim=10))
    for a, b in zip(dense, sub):
        assert a.branch == b.branch
        assert b.norm_g == pytest.approx(a.norm_g, rel=1e-12, abs=1e-12)
        assert b.dq == pytest.approx(a.dq, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    problem=st.sampled_from(["cosine_sum", "rosenbrock", "quadratic_psd"]),
    n=st.integers(min_value=2, max_value=6),
    varsigma=st.sampled_from([1e-3, 1.0, 1e6]),
)
def test_full_dimension_subspace_step_matches_the_dense_step(seed, problem, n, varsigma):
    # With subspace_max_dim = n the Krylov space can reach the whole space,
    # so the measure and the step agree with the dense solves.  cosine_sum
    # entries in [0.1, 3] keep every sin x_i away from 0, which keeps the
    # models away from the hard case.
    rng = np.random.default_rng(seed)
    if problem == "cosine_sum":
        x = rng.uniform(0.1, 3.0, n)
    else:
        x = rng.uniform(-2.0, 2.0, n)
    oracle = make_problem(problem, n)
    scaling = AdagradScaling(varsigma=varsigma)
    _, dense = astr2_step(oracle, x, 0, adagrad_config(scaling=scaling),
                          copy.deepcopy(scaling))
    _, sub = astr2_step(oracle, x, 0, adagrad_config(scaling=scaling, subspace_max_dim=n),
                        copy.deepcopy(scaling))
    assert sub.branch == dense.branch
    assert sub.phi == pytest.approx(dense.phi, rel=1e-8)
    assert sub.dq == pytest.approx(dense.dq, rel=1e-10)


def test_subspace_quadratic_steps_need_no_eigenpair(monkeypatch):
    # min_eigpair serves only the g = 0 seed and the termination certificate.
    # Frozen subspace_q_small run of test_golden.py: 30 Q iterations.
    import astr2.driver

    callers = []
    real_min_eigpair = astr2.driver.min_eigpair

    def min_eigpair(*args, **kw):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_min_eigpair(*args, **kw)

    monkeypatch.setattr(astr2.driver, "min_eigpair", min_eigpair)
    oracle, log = with_counting(make_problem("cosine_sum", 30))
    x0 = 1e-6 * np.random.default_rng(2).standard_normal(30)
    cfg = Astr2Config(scaling=AdagradScaling(varsigma=1e6), max_iter=30, subspace_max_dim=5)
    trace = run(oracle, x0, cfg)
    assert "".join(r.branch for r in trace) == "Q" * 30
    assert callers == []
    assert log.hvp == 55  # the step reuses the measure's Lanczos run

    # With eps set, the certificate runs once per iterate that passes the
    # measured test; here only the last one, after two Q iterations.
    x0 = 1e-6 * np.random.default_rng(1).standard_normal(10)
    cfg = Astr2Config(scaling=AdagradScaling(), max_iter=200, eps1=1e-2, eps2=1e-2,
                      subspace_max_dim=20)
    trace = run(make_problem("cosine_sum", 10), x0, cfg)
    assert [r.branch for r in trace].count("Q") == 2
    assert len(trace) < 200
    assert callers == ["_terminates"]


def test_zero_gradient_start_grows_the_krylov_space_from_the_eigenvector():
    # At x = 0, g = 0 and H = -I: the seed eigenpair costs one product and the
    # measure one more (breakdown), and the step reuses the measure's space.
    oracle, log = with_counting(make_problem("cosine_sum", 8))
    x0 = np.zeros(8)
    (dense,) = run(oracle, x0, adagrad_config(max_iter=1))
    log.hvp = 0
    (sub,) = run(oracle, x0, adagrad_config(max_iter=1, subspace_max_dim=3))
    assert log.hvp == 2
    assert sub.branch == dense.branch == "Q"
    assert sub.phi == pytest.approx(0.5, rel=1e-12)
    for field in ("phi", "dq", "delta_q"):
        assert getattr(sub, field) == pytest.approx(getattr(dense, field), rel=1e-12)
    # The Krylov step lies along one combined basis row, whose rounded
    # products put it 1 ulp above delta_q unless pulled back.
    assert sub.norm_s <= sub.delta_q
    assert sub.norm_s == pytest.approx(sub.delta_q, rel=1e-15)


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_subspace_quadratic_step_stays_inside_its_radius_near_a_maximum(n):
    # At k = 0 the Krylov step's tridiagonal solve is near the hard case; it
    # used to overshoot delta_q by 1.5e-12 to 4.9e-12 relative.
    x0 = 1e-6 * np.random.default_rng(1).standard_normal(n)
    cfg = Astr2Config(scaling=AdagradScaling(), max_iter=1, subspace_max_dim=20)
    (rec,) = run(make_problem("cosine_sum", n), x0, cfg)
    assert rec.branch == "Q"
    assert rec.norm_s <= rec.delta_q
    assert rec.norm_s == pytest.approx(rec.delta_q, rel=1e-14)


def test_subspace_mode_required_when_no_dense_hessian():
    base = make_problem("quadratic_psd", 4)
    oracle = dataclasses.replace(base, hessian=None)
    with pytest.raises(SolverAbort):
        run(oracle, base.x0, adagrad_config(max_iter=3))
    trace = run(oracle, base.x0, adagrad_config(max_iter=3, subspace_max_dim=4))
    assert len(trace) == 3
    # Above the cap, rosenbrock is built without its n x n Hessian.
    oracle = make_problem("rosenbrock", 1001)
    with pytest.raises(SolverAbort, match="no dense Hessian; set subspace_max_dim"):
        run(oracle, oracle.x0, adagrad_config(max_iter=1))


def test_dense_mode_calls_a_replaced_hessian_once_per_iteration():
    # with_counting replaces the diagonal problem's hessian by a counted copy.
    oracle, log = with_counting(make_problem("cosine_sum", 5))
    trace = run(oracle, oracle.x0, adagrad_config(max_iter=5))
    assert len(trace) == 5
    assert log.hessian == 5


def test_dense_iteration_factorises_its_hessian_once(monkeypatch):
    # Frozen dense_q run of test_golden.py: 30 Q iterations, each needing the
    # measure at radius 1 and the step at delta_q from a single
    # factorisation.  cosine_sum's Hessian is diagonal, so it is factorised
    # by sorting its diagonal, and no iteration runs eigh.
    factorisations = count_calls(monkeypatch, DenseModel, "_factorise")
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    x0 = 1e-6 * np.random.default_rng(1).standard_normal(20)
    cfg = Astr2Config(scaling=AdagradScaling(varsigma=1e6), max_iter=30)
    trace = run(make_problem("cosine_sum", 20), x0, cfg)
    assert "".join(r.branch for r in trace) == "Q" * 30
    assert factorisations["n"] == 30
    assert eighs["n"] == 0


def test_a_diagonal_dense_iteration_forms_no_n_by_n_array():
    # Above the cap, where rosenbrock has no Hessian, cosine_sum still runs
    # in dense mode from its diagonal, in O(n) memory.
    n = 3000
    oracle = make_problem("cosine_sum", n)
    assert oracle.hessian(oracle.x0).shape == (n,)
    x0 = 1e-6 * np.random.default_rng(1).standard_normal(n)
    cfg = Astr2Config(scaling=AdagradScaling(varsigma=1e6), max_iter=1)
    tracemalloc.start()
    try:
        _, rec = astr2_step(oracle, x0, 0, cfg, copy.deepcopy(cfg.scaling))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.branch == "Q" and rec.norm_s == pytest.approx(rec.delta_q, rel=1e-14)
    assert peak < n * n * 8 / 100


def test_a_gradient_whose_square_underflows_keeps_its_norm():
    # ||g||^2 underflows to 0 below about 1e-162; the recorded ||g|| and the
    # linear step's ||s|| (s = -g at k = 0) must not, in either mode.
    d = np.array([1.0, 2.0])
    oracle = ProblemOracle(name="tiny_gradient", n=2,
                           gradient=lambda x: np.array([1e-170, 0.0]),
                           hessian=lambda x: d,
                           hvp=lambda x, v: d * v)
    for subspace_max_dim in (None, 2):
        cfg = adagrad_config(subspace_max_dim=subspace_max_dim)
        _, rec = astr2_step(oracle, np.zeros(2), 0, cfg, copy.deepcopy(cfg.scaling))
        assert rec.norm_g == 1e-170
        assert rec.branch == "L" and rec.norm_s == 1e-170


def test_x0_validation():
    oracle = make_problem("quadratic_psd", 3)
    with pytest.raises(ValueError):
        run(oracle, np.zeros(2), adagrad_config())
    with pytest.raises(ValueError):
        run(oracle, np.array([np.inf, 0.0, 0.0]), adagrad_config())


def test_single_step_api_matches_run():
    oracle = make_problem("cosine_sum", 4)
    cfg = adagrad_config(max_iter=4)
    state = dataclasses.replace(cfg.scaling)
    x = oracle.x0.copy()
    records = []
    for k in range(4):
        x, rec = astr2_step(oracle, x, k, cfg, state)
        records.append(rec)
    full = run(oracle, oracle.x0, cfg)
    for a, b in zip(records, full):
        assert a.norm_g == b.norm_g and a.w_l == b.w_l and a.dq == b.dq


def test_rate_envelopes_hand_example():
    def row(k, norm_g, hatphi):
        return IterateRecord(k=k, x=None, norm_g=norm_g, phi=hatphi,
                             hatphi=hatphi, branch="L", w_l=1.0, w_q=1.0,
                             delta_l=norm_g, delta_q=hatphi, norm_s=0.0, dq=0.0)

    trace = [row(0, 2.0, 1.0), row(1, 1.0, 0.5), row(2, 0.5, 0.25)]
    e1, e2, e3, e4 = rate_envelopes(trace)
    assert e1 == pytest.approx(4.0 + 1.0 + 0.25)
    assert e2 == pytest.approx(1.0 + 0.125 + 0.015625)
    assert e3 == pytest.approx(2.0)      # sqrt(1)*2 beats sqrt(2)*1, sqrt(3)*0.5
    assert e4 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rate_envelopes([])


_ROTATION_RUNS = {
    # (problem, n, start, varsigma, Q steps in 300 iterations): the
    # cosine_sum run starts near a maximum, the others at the catalogue starts.
    "cosine_sum": ("cosine_sum", 10, 1e-6 * np.random.default_rng(1).standard_normal(10), 1e6, 124),
    "rosenbrock": ("rosenbrock", 6, make_problem("rosenbrock", 6).x0, 1.0, 1),
    "saddle_cubic": ("saddle_cubic", 2, make_problem("saddle_cubic", 2).x0, 1.0, 2),
}


@pytest.mark.parametrize("subspace", [False, True], ids=["dense", "subspace"])
@pytest.mark.parametrize("case", sorted(_ROTATION_RUNS))
def test_a_rotated_problem_gives_the_rotated_trace(case, subspace):
    # The weights read ||g|| and phi, which a rotation y = Q^T x keeps, and
    # the subproblem rotates with the variables, so the run on the rotated
    # problem is the run on the problem, rotated.  Its Hessian is not
    # diagonal, so the dense run factorises it by eigh.
    name, n, x0, varsigma, q_steps = _ROTATION_RUNS[case]
    oracle = make_problem(name, n)
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))
    traces = [
        run(problem, start, adagrad_config(scaling=AdagradScaling(varsigma=varsigma), max_iter=300,
                                           subspace_max_dim=n if subspace else None))
        for problem, start in ((oracle, x0), (rotated(oracle, Q), Q.T @ x0))
    ]
    branches = [r.branch for r in traces[0]]
    assert branches == [r.branch for r in traces[1]] and branches.count("Q") == q_steps
    np.testing.assert_allclose([r.x for r in traces[0]], [Q @ r.x for r in traces[1]],
                               rtol=0.0, atol=1e-10)
    np.testing.assert_allclose([r.phi for r in traces[0]], [r.phi for r in traces[1]],
                               rtol=1e-10, atol=0.0)
