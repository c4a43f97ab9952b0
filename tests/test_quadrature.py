"""Contract tests for the adaptive panel integrator."""

import math

import numpy as np
import pytest

from hetnetsim.quadrature import integrate


def run(fn, a, b, breakpoints=(), **kw):
    return integrate(fn, (a, b), breakpoints, **kw)


def test_linear_exact():
    res = run(lambda x: x, 0.0, 1.0)
    assert abs(res.value - 0.5) <= 1e-12
    assert res.converged


def test_step_with_breakpoint_exact():
    res = run(lambda x: (x > 1.0).astype(float), 0.0, 2.0, breakpoints=[1.0])
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_truncated_exponential():
    res = run(lambda x: np.exp(-x), 0.0, 50.0)
    assert abs(res.value - (1.0 - math.exp(-50.0))) <= 1e-9


def test_polynomial_exactness():
    # the embedded rule integrates low-degree polynomials to roundoff
    coef = np.arange(1.0, 11.0)
    exact = sum(c / (k + 1) for k, c in enumerate(coef))
    res = run(lambda x: np.polyval(coef[::-1], x) * x ** 0, 0.0, 1.0)
    assert abs(res.value - exact) <= 1e-13 * abs(exact)


def test_error_estimate_honest():
    cases = [
        (lambda x: np.sin(3.0 * x), 0.0, 2.0 * math.pi,
         (1.0 - math.cos(6.0 * math.pi)) / 3.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0, 2.0 * math.atan(4.0)),
        (lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, 2.0 / 3.0),
    ]
    for fn, a, b, exact in cases:
        res = run(fn, a, b, abs_tol=1e-10, rel_tol=1e-10)
        assert abs(res.value - exact) <= max(10.0 * res.error, 1e-9)


def test_tightening_tolerance_never_raises_error_estimate():
    fn = lambda x: np.exp(-x) * np.sin(5.0 * x)
    prev = None
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        res = run(fn, 0.0, 10.0, abs_tol=tol, rel_tol=tol)
        if prev is not None:
            assert res.error <= prev * (1.0 + 1e-12)
        prev = res.error


def test_breakpoints_outside_support_ignored():
    res = run(lambda x: x, 0.0, 1.0, breakpoints=[-3.0, 0.0, 1.0, 7.0])
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_empty_interval():
    res = run(lambda x: x, 2.0, 2.0)
    assert res.value == 0.0 and res.error == 0.0 and res.converged


def test_unbounded_support_rejected():
    with pytest.raises(ValueError):
        run(lambda x: np.exp(-x), 0.0, math.inf)
    with pytest.raises(ValueError):
        run(lambda x: x, math.nan, 1.0)


def test_nonconvergence_flagged():
    # a kink not declared as a breakpoint, starved of panels
    res = run(lambda x: np.abs(x - 1.0 / 3.0) ** 0.2, 0.0, 1.0,
              abs_tol=1e-15, rel_tol=1e-15, max_panels=4)
    assert not res.converged
    assert np.isfinite(res.value)


def test_evaluator_receives_arrays():
    seen = []

    def fn(x):
        seen.append(np.ndim(x))
        return np.ones_like(x)

    res = run(fn, 0.0, 3.0)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert all(d == 1 for d in seen)


def test_deterministic():
    fn = lambda x: np.cos(7.0 * x) / (1.0 + x)
    a = run(fn, 0.0, 5.0)
    b = run(fn, 0.0, 5.0)
    assert a.value == b.value and a.error == b.error
