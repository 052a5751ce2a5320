import dataclasses

import numpy as np
import pytest

from astr2.oracle import ProblemOracle


class CallLog:
    """Call counts of a wrapped oracle; f must stay 0 during optimization."""

    def __init__(self):
        self.f = 0
        self.gradient = 0
        self.hessian = 0
        self.hvp = 0


def with_counting(oracle: ProblemOracle):
    """Wrap an oracle so every entry point counts its calls.

    A diagnostic objective is installed even when the base oracle has none,
    so a zero f-count proves the caller never asked for objective values
    rather than merely having none available.
    """
    log = CallLog()
    base_f = oracle.f_diagnostic
    base_g = oracle.gradient
    base_h = oracle.hessian
    base_hvp = oracle.hvp

    def f(x):
        log.f += 1
        return 0.0 if base_f is None else base_f(x)

    def gradient(x):
        log.gradient += 1
        return base_g(x)

    def hvp(x, v):
        log.hvp += 1
        return base_hvp(x, v)

    kwargs = {"f_diagnostic": f, "gradient": gradient, "hvp": hvp}
    if base_h is not None:
        def hessian(x):
            log.hessian += 1
            return base_h(x)

        kwargs["hessian"] = hessian
    return dataclasses.replace(oracle, **kwargs), log


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (a function, or a method of a class)
    for the rest of the test; returns the dict whose ``"n"`` is the count."""
    calls = {"n": 0}
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def random_symmetric(rng, n, scale=2.0):
    A = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (A + A.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
