import numpy as np
import pytest

from astr2 import AdagradScaling, DivergentScaling, adagrad_weights, divergent_weights


def test_adagrad_validation():
    with pytest.raises(ValueError):
        AdagradScaling(varsigma=0.0)
    with pytest.raises(ValueError):
        AdagradScaling(mu=1.0)
    with pytest.raises(ValueError):
        AdagradScaling(nu=0.0)
    with pytest.raises(ValueError):
        AdagradScaling(theta=0.0)
    with pytest.raises(ValueError):
        AdagradScaling(theta=1.5)
    with pytest.raises(ValueError):
        AdagradScaling(varsigma=np.inf)
    with pytest.raises(ValueError):
        AdagradScaling(varsigma=np.nan)
    # One theta for both weights; the accumulators are state, not settings.
    for removed in ("theta_l", "theta_q", "a_accum", "b_accum"):
        with pytest.raises(TypeError):
            AdagradScaling(**{removed: 1.0})


def test_adagrad_upper_weights_follow_the_accumulators():
    state = AdagradScaling(varsigma=1.0, mu=0.5, nu=1.0 / 3.0)
    w_l, w_q = adagrad_weights(state, 0, "L", 4.0, 0.0)
    assert w_l == (1.0 + 4.0) ** 0.5
    assert w_q == (1.0 + 0.0) ** (1.0 / 3.0)
    w_l, w_q = adagrad_weights(state, 1, "Q", 0.0, 8.0)
    assert w_l == 5.0 ** 0.5          # untouched by the Q branch
    assert w_q == 9.0 ** (1.0 / 3.0)
    assert state.a_accum == 4.0 and state.b_accum == 8.0


def test_adagrad_branch_term_is_included_before_emitting():
    state = AdagradScaling(varsigma=0.25, mu=0.5, nu=0.5)
    w_l, _ = adagrad_weights(state, 0, "L", 1.0, 123.0)
    assert w_l == (0.25 + 1.0) ** 0.5
    assert state.b_accum == 0.0


def test_adagrad_rejects_unknown_branch():
    state = AdagradScaling()
    with pytest.raises(ValueError):
        adagrad_weights(state, 0, "X", 1.0, 1.0)


def test_adagrad_oscillate_policy_alternates_the_band():
    state = AdagradScaling(varsigma=1.0, mu=0.5, nu=0.5, theta=0.25)
    w_l0, w_q0 = adagrad_weights(state, 0, "L", 3.0, 0.0)
    assert w_l0 == 0.25 * 2.0 and w_q0 == 0.25 * 1.0
    w_l1, w_q1 = adagrad_weights(state, 1, "L", 5.0, 0.0)
    assert w_l1 == 3.0 and w_q1 == 1.0


def test_adagrad_weights_never_decrease_under_upper_policy(rng):
    state = AdagradScaling(varsigma=0.1, mu=0.7, nu=0.3)
    prev_l, prev_q = 0.0, 0.0
    for k in range(100):
        branch = "L" if rng.uniform() < 0.5 else "Q"
        w_l, w_q = adagrad_weights(state, k, branch, float(rng.uniform(0, 2)),
                                   float(rng.uniform(0, 2)))
        assert w_l >= prev_l and w_q >= prev_q
        prev_l, prev_q = w_l, w_q


def test_divergent_validation():
    with pytest.raises(ValueError):
        DivergentScaling(kappa_w=0.5)          # below 1
    with pytest.raises(ValueError):
        DivergentScaling(kappa_w=np.inf)
    with pytest.raises(ValueError):
        DivergentScaling(kappa_w=np.nan)
    with pytest.raises(ValueError):
        DivergentScaling(mu1=1.0)
    with pytest.raises(ValueError):
        DivergentScaling(mu1=0.0)
    with pytest.raises(ValueError):
        DivergentScaling(mu2=0.5)              # must stay below 1/2
    with pytest.raises(ValueError):
        DivergentScaling(mu2=0.0)
    # The weights are the band's top: its lower end and the second names
    # of kappa_w, mu1 and mu2 are not settings.
    for removed in ("varsigma", "nu1", "nu2", "coeff", "e1", "e2"):
        with pytest.raises(TypeError):
            DivergentScaling(**{removed: 0.5})


def test_divergent_weights_power_law():
    state = DivergentScaling(kappa_w=2.0, mu1=0.5, mu2=1.0 / 3.0)
    for k in (0, 1, 7, 99):
        w_l, w_q = divergent_weights(state, k)
        assert w_l == 2.0 * (k + 1.0) ** 0.5
        assert w_q == 2.0 * (k + 1.0) ** (1.0 / 3.0)


def test_divergent_coefficient_and_exponents_default_to_the_band_top():
    state = DivergentScaling(kappa_w=3.0, mu1=0.75, mu2=0.4)
    # The coefficient and exponents are kappa_w, mu1 and mu2 themselves.
    for removed in ("coeff", "e1", "e2"):
        assert not hasattr(state, removed)
    w_l, w_q = divergent_weights(state, 3)
    assert w_l == 3.0 * 4.0 ** 0.75
    assert w_q == 3.0 * 4.0 ** 0.4


def test_divergent_rejects_negative_iteration():
    state = DivergentScaling()
    with pytest.raises(ValueError):
        divergent_weights(state, -1)
