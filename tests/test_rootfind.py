import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

import hardymeans
from hardymeans import rootfind
from hardymeans.errors import (BracketError, DomainError, NoBracketError,
                               NoConvergenceError)
from hardymeans.rootfind import RootResult, bracketed_root, expand_bracket_up


def _counted(f):
    """f, and the list of points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def test_cosine_root():
    res = bracketed_root(math.cos, 0.0, 3.0)
    assert abs(res.root - math.pi / 2.0) < 1e-12
    assert abs(res.residual) < 1e-12
    assert res.bracket == (0.0, 3.0)
    assert res.iterations >= 1


def test_endpoint_zero_short_circuits():
    res = bracketed_root(lambda x: x, 0.0, 1.0)
    assert res == RootResult(0.0, 0.0, (0.0, 1.0), 0)
    f, points = _counted(math.sin)
    assert bracketed_root(f, 0.0, 1.0, flo=0.0).root == 0.0
    assert points == []


def test_no_sign_change_raises():
    with pytest.raises(BracketError):
        bracketed_root(lambda x: x * x + 1.0, 0.0, 1.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tiny_same_sign_endpoint_values_raise(sign):
    # the product of the endpoint values underflows to zero
    def f(x):
        return sign * 1e-200
    with pytest.raises(BracketError):
        bracketed_root(f, 2.0, 3.0)
    with pytest.raises(BracketError):
        bracketed_root(f, 2.0, 3.0, flo=sign * 1e-200, fhi=sign * 1e-300)


def test_expand_bracket_skips_tiny_same_sign_values():
    # 1e-200 * 1e-200 underflows; the sign change is the one at c = 8
    lo, hi, flo, fhi = expand_bracket_up(
        lambda c: 1e-200 if c < 7.0 else -1e-200)
    assert (lo, hi, flo, fhi) == (4.0, 8.0, 1e-200, -1e-200)


def test_xtol_controls_accuracy():
    res = bracketed_root(math.sin, 3.0, 3.3, xtol=1e-14)
    assert abs(res.root - math.pi) < 1e-13


@pytest.mark.parametrize("xtol", [math.inf, math.nan, 0.0, -1.0])
def test_xtol_must_be_positive_and_finite(xtol):
    # xtol = inf returned the bracket end 2.0 after one iteration
    with pytest.raises(DomainError):
        bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0, xtol=xtol)


def test_expand_bracket_finds_decreasing_crossing():
    lo, hi, flo, fhi = expand_bracket_up(lambda c: 10.0 - c)
    assert lo < 10.0 <= hi
    assert (10.0 - lo) * (10.0 - hi) <= 0.0
    assert (flo, fhi) == (10.0 - lo, 10.0 - hi)


def test_expand_bracket_gives_up_at_cap():
    with pytest.raises(NoBracketError):
        expand_bracket_up(lambda c: 1.0, cap=1e3)


def test_expand_then_solve_composes():
    f, points = _counted(lambda c: math.log(1e6) - math.log(c))
    lo, hi, flo, fhi = expand_bracket_up(f)
    searched = len(points)
    res = bracketed_root(f, lo, hi, flo=flo, fhi=fhi)
    assert abs(res.root - 1e6) < 1e-4
    # the solver reuses the values the search found at lo and hi
    assert len(points) - searched == res.iterations - 1


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_cubic_roots(t):
    res = bracketed_root(lambda x: x ** 3 - t, -4.0, 4.0)
    assert abs(res.root - math.copysign(abs(t) ** (1.0 / 3.0), t)) < 1e-9


# -- Brent's iteration against SciPy's brentq (a test-only reference) -------

BRENT_CASES = [
    (math.cos, 0.0, 3.0, {}),
    (math.sin, 3.0, 3.3, {"xtol": 1e-14}),
    (lambda x: x ** 3 - 7.0, -4.0, 4.0, {}),
    (lambda x: x ** 3 + 0.001, -4.0, 4.0, {}),
    (lambda c: math.log(1e6) - math.log(c), 524288.0, 1048576.0,
     {"xtol": 1e-12}),
    (lambda y: 4.0 * math.log(2.0 / y) + math.log(9.0 / y), 2.0, 9.0,
     {"xtol": 2e-13}),
    # stiff: a near step, a flat cubic, a root at a subnormal scale, a
    # wide bracket, a steep exponential and a high power
    (lambda x: math.tanh(1e4 * (x - 0.123)), 0.0, 1.0, {}),
    (lambda x: x ** 3 - 1e-12, -1.0, 1.0, {}),
    (lambda x: x - 1e-300, -1.0, 1.0, {"xtol": 5e-324}),
    (lambda x: math.log(x) - 5.0, 1e-10, 1e10, {}),
    (lambda x: math.exp(50.0 * x) - 2.0, -1.0, 1.0, {"rtol": 1e-10}),
    (lambda x: x ** 20 - 0.5, 0.0, 2.0, {}),
]


@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brent_matches_scipy_brentq(case):
    f, lo, hi, kw = BRENT_CASES[case]
    kw = {"xtol": 1e-12, **kw}
    res = bracketed_root(f, lo, hi, **kw)
    root, report = brentq(f, lo, hi, full_output=True, **kw)
    assert res.root == root
    assert res.iterations == report.iterations


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_brent_matches_scipy_brentq_on_cubics(t):
    f = lambda x: x ** 3 - t
    root, report = brentq(f, -4.0, 4.0, xtol=1e-12, full_output=True)
    res = bracketed_root(f, -4.0, 4.0)
    assert (res.root, res.iterations) == (root, report.iterations)


# -- no value is computed twice ----------------------------------------------


def test_supplied_endpoint_values_are_not_recomputed():
    f, points = _counted(math.cos)
    res = bracketed_root(f, 0.0, 3.0, flo=1.0, fhi=math.cos(3.0))
    assert 0.0 not in points and 3.0 not in points
    # one evaluation per iteration but the last, which only checks the
    # bracket; the residual is the value already computed at the root
    assert len(points) == res.iterations - 1
    assert res.root in points and res.residual == math.cos(res.root)


def test_endpoint_values_are_computed_once_when_left_out():
    f, points = _counted(math.cos)
    res = bracketed_root(f, 0.0, 3.0)
    assert points[:2] == [0.0, 3.0]
    assert len(points) == res.iterations + 1


# -- safeguarded Newton ------------------------------------------------------


def _one_lane(f, df, lo, hi, x0=None, xtol=1e-12):
    """A one-lane newton_lanes solve of f (derivative df) on [lo, hi]:
    the root, the value there, the iterations, and the points f was
    evaluated at by the solver (the endpoint values are passed in)."""
    points = []

    def lane(x, lanes):
        points.append(float(x[0]))
        return np.array([f(x[0])]), np.array([df(x[0])])

    roots, values, iterations = rootfind.newton_lanes(
        lane, [lo], [f(lo)], [hi], [f(hi)], None if x0 is None else [x0],
        xtol, rootfind.RTOL_FLOOR)
    return float(roots[0]), float(values[0]), int(iterations[0]), points


@pytest.mark.parametrize("x0", [None, 0.1, 2.9, 1.5])
def test_newton_converges_from_any_start(x0):
    root, value, iterations, points = _one_lane(
        math.cos, lambda x: -math.sin(x), 0.0, 3.0, x0, xtol=1e-14)
    assert abs(root - math.pi / 2.0) < 1e-14
    assert len(points) == iterations <= 8
    assert value == math.cos(root)


@pytest.mark.parametrize("slope", [
    lambda x: math.sin(x),
    lambda x: 0.0,
    lambda x: math.nan,
], ids=["wrong-sign", "zero", "nan"])
def test_newton_stays_inside_the_bracket_with_a_bad_derivative(slope):
    root, _, iterations, points = _one_lane(math.cos, slope, 0.5, 3.0, 1.0,
                                            xtol=1e-13)
    assert all(0.5 < x < 3.0 for x in points)
    # every Newton step is refused, so this is bisection
    assert abs(root - math.pi / 2.0) < 1e-12
    assert len(points) == iterations <= 60


def test_newton_on_a_linear_function_needs_one_step_and_a_check():
    root, _, _, points = _one_lane(lambda x: 3.0 - 2.0 * x, lambda x: -2.0,
                                   -10.0, 10.0, 7.0)
    assert root == 1.5 and len(points) == 2


def test_newton_lanes_run_as_their_one_lane_solves():
    # x**3 - c on [0, 4] per lane, from assorted starts: every lane takes
    # the iterates, stop and count of its solve alone
    c = np.array([0.5, 2.0, 8.0, 27.0, 1e-9, 3.0])
    x0 = np.array([np.nan, 1.0, 3.9, 0.1, 2.0, 1.44224957030740838])
    calls = []

    def f(x, lanes):
        calls.append(lanes)
        return x ** 3 - c[lanes], 3.0 * x ** 2

    roots, values, iterations = rootfind.newton_lanes(
        f, np.zeros(6), -c, np.full(6, 4.0), 64.0 - c, x0, 1e-15,
        rootfind.RTOL_FLOOR)
    for i in range(6):
        alone = _one_lane(lambda x: x ** 3 - c[i], lambda x: 3.0 * x ** 2,
                          0.0, 4.0, None if np.isnan(x0[i]) else x0[i],
                          xtol=1e-15)
        assert (roots[i], values[i], iterations[i]) == alone[:3]
        # a lane is evaluated until it stops, then never again
        assert sum(i in lanes for lanes in calls) == iterations[i]
    assert max(iterations) == len(calls)


# -- failure -----------------------------------------------------------------


def test_brent_raises_no_convergence_at_maxiter(monkeypatch):
    monkeypatch.setattr(rootfind, "_MAXITER", 3)
    with pytest.raises(NoConvergenceError):
        bracketed_root(math.cos, 0.0, 3.0, xtol=1e-15)


def test_newton_raises_no_convergence_at_maxiter(monkeypatch):
    monkeypatch.setattr(rootfind, "_MAXITER", 10)
    with pytest.raises(NoConvergenceError):
        _one_lane(math.cos, lambda x: 0.0, 0.0, 3.0, xtol=1e-15)  # bisection


def test_nan_value_is_a_domain_error():
    with pytest.raises(DomainError):
        bracketed_root(lambda x: math.nan if x > 0.5 else 1.0, 0.0, 1.0,
                       fhi=-1.0)


def test_importing_the_package_loads_no_scipy():
    src = pathlib.Path(hardymeans.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, hardymeans; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
