"""Scaling-ladder homogenization and kernel normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardymeans.errors import NoConvergenceError, NotNormalizableError
from hardymeans.generators import (QuasideviationKernel, dev_power,
                                   difference_kernel, exp_gen, log_gen,
                                   power_gap_kernel, ratio_kernel)
from hardymeans.homogenize import h_of_kernel, homogenize, normalize_kernel
from hardymeans.means import (Deviation, Gini, HomogeneousDeviation, Power,
                              QuasiArithmetic)


def quadratic_drift_kernel():
    # E(x, y) = (x - y) + (x - y)^2 min(x, y, 1): the quadratic term decays
    # one order faster down the ladder, leaving the arithmetic mean
    def fn(x, y):
        x = np.asarray(x, dtype=float)
        return (x - y) + (x - y) ** 2 * np.minimum(np.minimum(x, y), 1.0)

    return QuasideviationKernel(fn=fn, family=("custom",), label="quadratic drift")


def wiggle_kernel():
    # E(x, y) = x - y (1 + sin(ln y)/4): the scaling limit does not exist,
    # the ladder oscillates with period 2*pi in ln t
    def fn(x, y):
        return np.asarray(x, dtype=float) - y * (1.0 + 0.25 * math.sin(math.log(y)))

    return QuasideviationKernel(fn=fn, family=("custom",), label="log-periodic")


# -- homogenize ------------------------------------------------------------


@pytest.mark.parametrize("spec, expected", [
    (Power(0.5), 2.25),
    (Gini(0.5, -0.5), 2.0),
    (HomogeneousDeviation(dev_power(0.5)), 2.25),
])
def test_homogeneous_means_are_fixed_points(spec, expected):
    est = homogenize(spec, (1.0, 4.0), (1.0, 1.0))
    assert est.converged
    assert est.value == pytest.approx(expected, abs=1e-8)
    assert est.spread <= 1e-8


def test_quadratic_kernel_homogenizes_to_arithmetic_mean():
    est = homogenize(Deviation(quadratic_drift_kernel()), (1.0, 2.0), (1.0, 1.0))
    assert est.converged
    assert est.value == pytest.approx(1.5, abs=1e-8)


def test_exp_quasiarithmetic_homogenizes_to_arithmetic_mean():
    # first-order expansion of ln(sum e^{t x_i} / n) / t
    est = homogenize(QuasiArithmetic(exp_gen()), (1.0, 3.0), (1.0, 1.0))
    assert est.converged
    assert est.value == pytest.approx(2.0, abs=1e-8)


def test_ladder_shape():
    est = homogenize(Power(2.0), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
    assert est.t_values[0] == 0.25
    assert np.all(np.diff(est.t_values) < 0)
    assert est.ladder.shape == est.t_values.shape
    # the extrapolant trail stops at acceptance
    assert 3 <= est.extrapolants.size <= est.ladder.size - 1


def test_nonconvergence_is_reported_not_raised():
    est = homogenize(Deviation(wiggle_kernel()), (1.0, 9.0), (1.0, 1.0))
    assert not est.converged
    assert len(est.ladder) == 20
    assert est.spread > 0.5
    assert math.isfinite(est.value)


def test_ladder_stops_at_a_library_error_and_passes_other_faults_on():
    from dataclasses import dataclass

    from hardymeans.errors import DomainError
    from hardymeans.means import MeanSpec

    @dataclass(frozen=True)
    class Failing(MeanSpec):
        exc: type

        def evaluate(self, x, lam):
            raise self.exc("from a rung")

    est = homogenize(Failing(DomainError), (1.0, 4.0), (1.0, 1.0))
    assert not est.converged and est.ladder.size == 0
    with pytest.raises(TypeError, match="from a rung"):
        homogenize(Failing(TypeError), (1.0, 4.0), (1.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(
    xs=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=6),
    p=st.floats(-2.0, 1.0),
)
def test_concave_mean_below_its_homogenization(xs, p):
    x = np.asarray(xs)
    lam = np.ones_like(x)
    # tol sits above the eps/p noise floor of near-zero orders
    est = homogenize(Power(p), x, lam, tol=1e-6)
    m = Power(p).evaluate(x, lam)
    assert est.converged
    scale = max(1.0, abs(m))
    assert m <= est.value + 1e-5 * scale
    assert est.value == pytest.approx(m, rel=1e-5)


# -- normalize_kernel -------------------------------------------------------


def test_difference_kernel_is_already_normalized():
    star = normalize_kernel(difference_kernel())
    xs = np.geomspace(0.1, 10.0, 7)
    for y in (0.5, 2.0, 20.0):
        np.testing.assert_allclose(star.fn(xs, y), xs - y, rtol=0, atol=1e-12)


def test_power_gap_normalizes_to_gap_over_slope():
    star = normalize_kernel(power_gap_kernel(2.0))
    # E = x^2 - y^2 has diagonal slope -2y, so E* = (x^2 - y^2) / (2y)
    assert float(star.fn(np.array([3.0]), 2.0)[0]) == pytest.approx(1.25)
    assert float(star.fn(np.array([1.0]), 2.0)[0]) == pytest.approx(-0.75)


def test_log_ratio_normalizes_to_scaled_ratio():
    star = normalize_kernel(ratio_kernel(log_gen()))
    xs = np.geomspace(0.2, 5.0, 9)
    for y in (0.5, 1.0, 3.0):
        np.testing.assert_allclose(star.fn(xs, y), y * np.log(xs / y),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("make", [
    lambda: normalize_kernel(power_gap_kernel(2.0)),
    lambda: normalize_kernel(quadratic_drift_kernel()),
])
def test_normalization_is_idempotent(make):
    star = make()
    twice = normalize_kernel(star)
    xs = np.geomspace(1e-2, 1e2, 11)
    for y in (0.1, 1.0, 10.0):
        np.testing.assert_allclose(twice.fn(xs, y), star.fn(xs, y),
                                   rtol=0, atol=1e-8 * max(1.0, y))


def test_positive_diagonal_slope_is_rejected():
    rising = QuasideviationKernel(fn=lambda x, y: np.asarray(x, dtype=float) + y)
    with pytest.raises(NotNormalizableError):
        normalize_kernel(rising)
    declared = QuasideviationKernel(
        fn=lambda x, y: np.asarray(x, dtype=float) - y,
        d2_diag=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    with pytest.raises(NotNormalizableError):
        normalize_kernel(declared)


# -- h_of_kernel -------------------------------------------------------------


def test_trace_of_difference_kernel():
    kern = difference_kernel()
    assert h_of_kernel(kern, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert h_of_kernel(kern, 3.0) == pytest.approx(2.0, abs=1e-12)


def test_trace_of_scaled_log_kernel():
    star = normalize_kernel(ratio_kernel(log_gen()))
    assert h_of_kernel(star, math.e) == pytest.approx(1.0, abs=1e-10)
    assert h_of_kernel(star, 4.0) == pytest.approx(math.log(4.0), abs=1e-10)


def test_trace_of_normalized_power_gap():
    star = normalize_kernel(power_gap_kernel(2.0))
    assert h_of_kernel(star, 3.0) == pytest.approx(4.0, abs=1e-9)


def test_trace_sign_matches_sign_of_x_minus_one():
    star = normalize_kernel(power_gap_kernel(2.0))
    for x in (0.1, 0.5):
        assert h_of_kernel(star, x) < 0.0
    assert abs(h_of_kernel(star, 1.0)) <= 1e-10
    for x in (2.0, 10.0):
        assert h_of_kernel(star, x) > 0.0


def test_oscillating_trace_raises_with_ladder_attached():
    with pytest.raises(NoConvergenceError) as excinfo:
        h_of_kernel(wiggle_kernel(), 3.0)
    ladder = excinfo.value.ladder
    assert len(ladder) == 20
    vals = [v for _, v in ladder]
    assert max(vals) - min(vals) > 0.3
