"""Closed-form constants, the series F, and the characteristic equation."""

import functools
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardymeans.empirical import genA_limit
from hardymeans.errors import (DerivativeUnavailableError, DomainError,
                               LimitNotDetected, NoConvergenceError,
                               NotIntegrableError, PGeqOne, TailBoundFailure,
                               ZeroDerivativeError)
from hardymeans.generators import (GeneratorFunction, dev_gini, dev_power,
                                   difference_kernel, exp_gen, log_gen,
                                   power_gen)
from hardymeans.hardy import (C_of, F_eval, chi_f, constant_closed,
                              constant_root, detect_order, gini_constant,
                              power_constant, qa_order, solve_cef)
from hardymeans.means import (Deviation, Gini, HomogeneousDeviation, Power,
                              QuasiArithmetic)
from hardymeans.quadrature import tanh_sinh

# grids reused by the closed-form cross-checks
R_GRID = [-2.0, -1.0, -0.5, -0.1, 0.3, 0.5, 0.9]
ETA_GRID = [0.0, 0.25, 0.5, 0.9]


def mp_power_constant(r, eta):
    """Direct 50-digit evaluation of the four-branch closed form."""
    with mpmath.workdps(50):
        r, eta = mpmath.mpf(repr(r)), mpmath.mpf(repr(eta))
        if eta == 0:
            val = mpmath.e if r == 0 else (1 - r) ** (-1 / r)
        elif r == 0:
            val = (1 - eta) ** (1 - 1 / eta)
        else:
            val = (eta / (1 - (1 - eta) ** (1 - r))) ** (1 / r)
        return float(val)


def mp_gini_constant(p, q, eta):
    with mpmath.workdps(50):
        p, q = mpmath.mpf(repr(p)), mpmath.mpf(repr(q))
        eta = mpmath.mpf(repr(eta))
        if p == q:
            return mp_power_constant(0.0, float(eta))
        if eta == 0:
            val = ((1 - q) / (1 - p)) ** (1 / (p - q))
        else:
            a = 1 - eta
            val = ((1 - a ** (1 - q)) / (1 - a ** (1 - p))) ** (1 / (p - q))
        return float(val)


# -- classical table ---------------------------------------------------------


@pytest.mark.parametrize("p, expected", [
    (-math.inf, 1.0),
    (-2.0, math.sqrt(3.0)),
    (-1.0, 2.0),
    (-0.5, 2.25),
    (0.0, math.e),
    (0.5, 4.0),
    (0.9, 0.1 ** (-1.0 / 0.9)),
    (1.0, math.inf),
    (2.0, math.inf),
    (math.inf, math.inf),
])
def test_classical_table(p, expected):
    assert power_constant(p, 0.0) == pytest.approx(expected, rel=1e-14,
                                                   abs=0.0)


def test_classical_rejects_nan():
    with pytest.raises(DomainError):
        power_constant(math.nan, 0.0)


# -- weighted closed form ----------------------------------------------------


def test_weighted_constant_small_cases():
    assert C_of(0.5, 0.0) == pytest.approx(4.0, rel=1e-15, abs=0.0)
    assert C_of(0.0, 0.0) == pytest.approx(math.e, rel=1e-15, abs=0.0)
    assert C_of(0.0, 0.5) == pytest.approx(2.0, rel=1e-15, abs=0.0)
    assert C_of(0.5, 0.5) == pytest.approx(
        (0.5 / (1.0 - 2.0 ** -0.5)) ** 2, rel=1e-14)


@pytest.mark.parametrize("r", R_GRID + [0.0])
@pytest.mark.parametrize("eta", ETA_GRID)
def test_weighted_constant_matches_high_precision(r, eta):
    assert C_of(r, eta) == pytest.approx(mp_power_constant(r, eta),
                                         rel=1e-13, abs=0.0)


@pytest.mark.parametrize("r, eta", [
    (1.0, 0.0), (1.5, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
    (math.nan, 0.0), (0.5, -0.01), (0.5, 1.0), (0.5, 1.5), (0.5, math.nan),
])
def test_weighted_constant_domain(r, eta):
    with pytest.raises(DomainError):
        C_of(r, eta)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.7])
def test_weighted_constant_increasing_in_order(eta):
    grid = np.linspace(-3.0, 0.95, 17)
    vals = [C_of(float(r), eta) for r in grid]
    assert np.all(np.diff(vals) > 0)


def test_weighted_constant_branch_continuity():
    # the closed form drifts O(delta) near a branch edge, so approaching
    # within 1e-6 must land well inside 1e-4
    for r in R_GRID:
        assert abs(C_of(r, 1e-6) - C_of(r, 0.0)) <= 1e-4
    assert abs(C_of(0.0, 1e-6) - math.e) <= 1e-4
    for eta in (0.0, 0.5):
        assert abs(C_of(1e-6, eta) - C_of(0.0, eta)) <= 1e-4
        assert abs(C_of(-1e-6, eta) - C_of(0.0, eta)) <= 1e-4


@pytest.mark.parametrize("r", [1e-9, -1e-9, 1e-13, -1e-13])
@pytest.mark.parametrize("eta", [1e-6, 0.1, 0.5, 0.9])
def test_weighted_constant_near_order_zero_matches_high_precision(r, eta):
    # (log eta - log denom) / r cancelled to 8.5e-8 relative at r = -1e-9
    # and 4.3e-4 at r = 1e-13; the log1p form keeps full precision
    assert C_of(r, eta) == pytest.approx(mp_power_constant(r, eta),
                                         rel=1e-15, abs=0.0)


def test_weighted_constant_near_order_zero_hand_value():
    # 50-digit value 2.0000000009609060...
    assert C_of(1e-9, 0.5) == pytest.approx(2.000000000960906, rel=1e-15,
                                            abs=0.0)


@pytest.mark.parametrize("r", [0.5, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("eta", [1e-9, 0.5, 0.999])
def test_weighted_constant_near_order_one_matches_high_precision(r, eta):
    assert C_of(r, eta) == pytest.approx(mp_power_constant(r, eta),
                                         rel=1e-14, abs=0.0)


# -- Gini closed form --------------------------------------------------------


def test_gini_constant_small_cases():
    assert gini_constant(0.0, 0.0, 0.0) == pytest.approx(math.e, rel=1e-15,
                                                         abs=0.0)
    assert gini_constant(0.5, -0.5, 0.0) == pytest.approx(3.0, rel=1e-14,
                                                          abs=0.0)
    assert gini_constant(0.0, -1.0, 0.0) == pytest.approx(2.0, rel=1e-14,
                                                          abs=0.0)
    # eta = 1/2 hand value: ((1 - 0.5**1.5) / (1 - 0.5**0.5)) ** 1
    assert gini_constant(0.5, -0.5, 0.5) == pytest.approx(
        (1.0 - 0.5 ** 1.5) / (1.0 - 0.5 ** 0.5), rel=1e-14, abs=0.0)
    assert gini_constant(0.0, 0.0, 0.5) == pytest.approx(2.0, rel=1e-15,
                                                         abs=0.0)


@pytest.mark.parametrize("p, q", [(-1.0, 0.5), (-0.5, 0.5), (-2.0, 0.9),
                                  (-0.5, 0.0)])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.8])
def test_gini_constant_matches_high_precision(p, q, eta):
    got = gini_constant(p, q, eta)
    assert got == pytest.approx(mp_gini_constant(p, q, eta), rel=1e-13,
                                abs=0.0)
    assert gini_constant(q, p, eta) == pytest.approx(got, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p, q", [(1e-9, -1e-9), (-1e-9, 1e-9),
                                  (1e-9, -0.5), (0.5, -1e-9), (0.9, -1e-9),
                                  (1e-9, 0.0)])
@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_gini_constant_near_zero_exponents_matches_high_precision(p, q, eta):
    # differencing log d_p and log d_q lost 6e-8 relative at (1e-9, -1e-9)
    got = gini_constant(p, q, eta)
    assert got == pytest.approx(mp_gini_constant(p, q, eta), rel=1e-14,
                                abs=0.0)


@pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 0.9])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.8])
def test_gini_zero_exponent_collapses_to_power(p, eta):
    assert gini_constant(p, 0.0, eta) == C_of(p, eta)


# the power constant is the q = 0 case of the Gini constant, bit for bit
ORDER_GRID = [-1e6, -5.0, -1.0, -1e-9, -0.0, 0.0, 1e-12, 1e-9, 0.5, 0.95,
              0.999999]


@pytest.mark.parametrize("r", ORDER_GRID)
@pytest.mark.parametrize("eta", [0.0, 1e-12, 1e-6, 0.5, 0.9, 0.999999])
def test_power_constant_is_the_gini_q_zero_case_bit_for_bit(r, eta):
    assert C_of(r, eta) == gini_constant(r, 0.0, eta)
    assert Power(r).closed_constant(eta) == C_of(r, eta)
    if eta == 0.0:
        assert power_constant(r, 0.0) == C_of(r, 0.0)


@pytest.mark.parametrize("p, expected", [(-math.inf, 1.0), (1.0, math.inf),
                                         (2.0, math.inf)])
def test_power_constant_edges(p, expected):
    assert power_constant(p, 0.0) == expected
    for eta in (0.0, 0.5):
        assert Power(p).closed_constant(eta) == expected
    with pytest.raises(DomainError):
        C_of(p, 0.0)


def test_power_constant_rejects_nan_order():
    with pytest.raises(DomainError):
        power_constant(math.nan, 0.0)
    with pytest.raises(DomainError):
        Power(math.nan).closed_constant(0.5)


@pytest.mark.parametrize("r", ORDER_GRID)
def test_subnormal_eta_gives_the_eta_zero_constant(r):
    # (1 - eta) / eta overflows below the smallest normal eta: C_of gave
    # inf, gini_constant NaN, and orders above 1/2 a bare ValueError
    for eta in (5e-324, 1e-320, 2.2250738585072e-308):
        assert C_of(r, eta) == C_of(r, 0.0)
        assert gini_constant(0.0, r, eta) == C_of(r, 0.0)
    assert gini_constant(0.5, -0.5, 5e-324) == gini_constant(0.5, -0.5, 0.0)


@pytest.mark.parametrize("p, q, eta", [
    (0.5, 0.2, 0.0),     # both positive
    (-1.0, -0.5, 0.0),   # both negative
    (1.0, -1.0, 0.0),    # max not below 1
    (1.5, -1.0, 0.0),
    (0.3, 0.3, 0.0),     # nonzero diagonal cannot straddle 0
    (math.nan, 0.0, 0.0),
    (math.inf, -1.0, 0.0),
    (0.5, -0.5, 1.0),
])
def test_gini_constant_domain(p, q, eta):
    with pytest.raises(DomainError):
        gini_constant(p, q, eta)


# -- d_s / eta on all of 0 <= eta < 1 ----------------------------------------
#
# gini_constant and genA_limit both read d_s/eta = (1 - (1-eta)**(1-s))/eta
# from one statement.  The references take 700 digits: 1 + 1e-300 and
# (1 - 5e-324)**(1 - 1e-300) round to 1 at fewer.


@functools.lru_cache(maxsize=4096)
def mp_log_d_over_eta(s, eta):
    """log(d_s / eta) to 700 digits, as an mpf."""
    with mpmath.workdps(700):
        s, eta = mpmath.mpf(s), mpmath.mpf(eta)
        if eta == 0:
            return mpmath.log(1 - s)
        return mpmath.log(-mpmath.expm1((1 - s) * mpmath.log1p(-eta)) / eta)


def mp_rel_err(got, p, q, eta):
    """Relative error of gini_constant's value `got` at (p, q, eta)."""
    with mpmath.workdps(700):
        if p == q:
            e = mpmath.mpf(eta)
            ell = 1 if eta == 0 else -mpmath.log1p(-e) / e
            log_c = (1 - e) * ell
        else:
            log_c = ((mp_log_d_over_eta(q, eta) - mp_log_d_over_eta(p, eta))
                     / (mpmath.mpf(p) - mpmath.mpf(q)))
        want = mpmath.exp(log_c)
        return float(abs(got - want) / want)


def mp_probe_limit_rel_err(got, p, eta):
    """Relative error of genA_limit's value `got`: eta / d_p, and eta
    itself at p = -inf."""
    with mpmath.workdps(700):
        if p == -math.inf:
            want = mpmath.mpf(eta)
        else:
            want = mpmath.exp(-mp_log_d_over_eta(p, eta))
        if want == 0:
            return 0.0 if got == 0.0 else math.inf
        return float(abs(got - want) / want)


G_ETA = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-305, 1e-300,
         1e-200, 1e-100, 1e-30, 1e-16, 1e-12, 1e-8, 1e-4, 0.1, 0.5, 0.9,
         1.0 - 2.0 ** -53]
G_P = [0.0, 1e-300, 1e-100, 1e-20, 1e-12, 1e-9, 1e-6, 0.1, 0.5, 0.9,
       0.999999, 1.0 - 2.0 ** -53]
G_Q = [0.0, -1e-300, -1e-100, -1e-12, -1e-9, -0.5, -1.0, -5.0, -1e6,
       -1e100, -1e300, -1e308, -1.7976931348623157e308]


@pytest.mark.parametrize("eta", G_ETA)
def test_closed_constant_and_probe_limit_on_the_eta_grid(eta):
    # where s * eta underflows, the closed form gave exactly 1.0 or raised
    # a bare ValueError (log of 0), and genA_limit divided by zero
    bad = []
    for p in G_P:
        for q in G_Q:
            got = gini_constant(p, q, eta)
            err = mp_rel_err(got, p, q, eta)
            if not err <= 1e-13:
                bad.append(f"C({p!r}, {q!r}) = {got!r}: {err:.1e}")
    for p in sorted(set(G_P + G_Q)) + [0.4999999999999999, -math.inf]:
        got = genA_limit(p, eta)
        err = mp_probe_limit_rel_err(got, p, eta)
        if not err <= 1e-15:
            bad.append(f"genA_limit({p!r}) = {got!r}: {err:.1e}")
    assert not bad, f"eta = {eta!r}: " + "; ".join(bad)


def _decades(lo, hi):
    """m * 10**-k, m in [1, 10), k in [lo, hi]: log-uniform on decades."""
    return st.builds(lambda m, k: m * 10.0 ** -k,
                     st.floats(1.0, 10.0, exclude_max=True),
                     st.integers(lo, hi))


# the decades near 0, down to the subnormals, and the values just below 1
_NEAR_ZERO = st.one_of(_decades(1, 323), st.sampled_from([0.0, 5e-324]))
_NEAR_ONE = st.builds(lambda m, k: 1.0 - m * 2.0 ** -k,
                      st.floats(1.0, 2.0, exclude_max=True),
                      st.integers(1, 53))
# eta and the exponent in [0, 1), and the exponent in [-1e300, 0]: half
# of each on the edges
_BELOW_ONE = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                       st.one_of(_NEAR_ZERO, _NEAR_ONE))
_NONPOSITIVE = st.one_of(st.floats(0.0, 1e300), _NEAR_ZERO).map(lambda v: -v)


@st.composite
def _band_pairs(draw):
    """(p, q) with p in [-1e300, 1) and q in the band: one exponent
    <= 0 <= the other < 1."""
    pair = (draw(_BELOW_ONE), draw(_NONPOSITIVE))
    return pair if draw(st.booleans()) else pair[::-1]


@settings(max_examples=300, deadline=None)
@given(_band_pairs(), _BELOW_ONE)
def test_closed_constant_and_probe_limit_match_mpmath(pq, eta):
    p, q = pq
    got = gini_constant(p, q, eta)
    assert mp_rel_err(got, p, q, eta) <= 1e-13, (p, q, eta, got)
    for s in pq:
        got = genA_limit(s, eta)
        assert mp_probe_limit_rel_err(got, s, eta) <= 1e-15, (s, eta, got)


# -- the series F(x, q) ------------------------------------------------------


def test_series_log_closed_form():
    # sum q^k ln(q^-k) = -ln(q) q/(1-q)^2 = 2 ln 2 at q = 1/2
    se = F_eval(log_gen(), 1.0, 0.5, tol=1e-12)
    assert se.tail_bound <= 1e-12
    assert se.partial == pytest.approx(2.0 * math.log(2.0), abs=5e-12)
    assert se.terms > 20


@pytest.mark.parametrize("q", [0.5, 1.0 / 3.0])
def test_series_log_root_location(q):
    # F(., q) vanishes at x = q^(q/(1-q))
    x_root = q ** (q / (1.0 - q))
    se = F_eval(log_gen(), x_root, q, tol=1e-12)
    assert abs(se.partial) <= 1e-10


def test_series_nondecreasing_in_x():
    parts = [F_eval(log_gen(), x, 0.5, tol=1e-12).partial
             for x in (0.3, 0.7, 1.0)]
    assert parts[0] < parts[1] < parts[2]


def _integral_bounds(f, x, q):
    lower = q / (1.0 - q) * tanh_sinh(lambda t: f.fn(x / t), 0.0, 1.0 / q,
                                      tol=1e-11).value
    upper = 1.0 / (1.0 - q) * tanh_sinh(lambda t: f.fn(x / t), 0.0, 1.0,
                                        tol=1e-11).value
    return lower, upper


@pytest.mark.parametrize("f", [log_gen(), dev_power(0.5)],
                         ids=["log", "sqrt"])
@pytest.mark.parametrize("x", [0.3, 0.6, 1.0])
@pytest.mark.parametrize("q", [0.3, 0.7])
def test_series_between_integral_bounds(f, x, q):
    se = F_eval(f, x, q, tol=1e-12)
    lower, upper = _integral_bounds(f, x, q)
    slack = se.tail_bound + 1e-9
    assert lower - slack <= se.partial <= upper + slack


@pytest.mark.parametrize("c", [1.5, math.e, 4.0])
def test_series_equiconvergent_with_integral(c):
    # with phi(t) = f(1/(c t)), the k >= 1 part of F(1/c, q) obeys
    # q/(1-q) * int_0^1 phi <= sum <= 1/(1-q) * int_0^q phi
    f, q = log_gen(), 0.5
    series = (F_eval(f, 1.0 / c, q, tol=1e-12).partial
              - float(f.fn(np.array([1.0 / c]))[0]))
    lo_int = tanh_sinh(lambda t: f.fn(1.0 / (c * t)), 0.0, 1.0, tol=1e-11)
    hi_int = tanh_sinh(lambda t: f.fn(1.0 / (c * t)), 0.0, q, tol=1e-11)
    assert q / (1.0 - q) * lo_int.value - 1e-9 <= series
    assert series <= 1.0 / (1.0 - q) * hi_int.value + 1e-9


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_series_tail_never_closes_for_linear_profile():
    # f(u) = u - 1 makes the terms approach 1, so no tail bound can close
    linear = replace(dev_power(1.0), recip_integrable=True)
    with pytest.raises(TailBoundFailure):
        F_eval(linear, 1.0, 0.5, tol=1e-10)


@pytest.mark.parametrize("x, q", [
    (0.0, 0.5), (-1.0, 0.5), (1.5, 0.5), (math.nan, 0.5),
    (0.5, 0.0), (0.5, 1.0), (0.5, -0.2),
])
def test_series_domain(x, q):
    with pytest.raises(DomainError):
        F_eval(log_gen(), x, q)


@pytest.mark.parametrize("tol", [math.inf, 0.0, -1e-12, math.nan])
def test_series_rejects_a_tolerance_not_positive_and_finite(tol):
    # an infinite tol closed the tail after the first terms
    with pytest.raises(DomainError):
        F_eval(log_gen(), 0.5, 0.5, tol=tol)


# -- characteristic equation -------------------------------------------------


def test_characteristic_log_reproduces_e():
    res = solve_cef(log_gen(), 0.0)
    assert res.value == pytest.approx(math.e, rel=1e-10)
    assert res.value == pytest.approx(power_constant(0.0, 0.0), rel=1e-10)
    assert res.method == "root-integral"


def test_characteristic_sqrt_reproduces_four():
    res = solve_cef(dev_power(0.5), 0.0)
    assert res.value == pytest.approx(4.0, rel=1e-9)


def test_characteristic_log_weighted():
    res = solve_cef(log_gen(), 0.5)
    assert res.value == pytest.approx(2.0, rel=1e-9)
    assert res.method == "root-series"


def test_characteristic_gini_profile_weighted():
    res = solve_cef(dev_gini(0.5, -0.5), 0.5)
    assert res.value == pytest.approx(gini_constant(0.5, -0.5, 0.5),
                                      rel=1e-9)


@pytest.mark.parametrize("f, eta", [
    (log_gen(), 0.0),
    (dev_power(0.5), 0.0),
    (dev_power(-1.0), 0.3),
    (dev_gini(0.5, -0.5), 0.5),
])
def test_characteristic_result_invariants(f, eta):
    res = solve_cef(f, eta)
    assert res.value > 1.0
    assert res.bracket[0] <= res.value <= res.bracket[1]
    assert res.residual <= 1e-10
    assert res.eta == eta


def test_characteristic_raises_on_unconverged_quadrature():
    # near p = 1 the integral of x**-0.999 stops at the level cap around
    # c = 500; its unconverged value once gave a root of 506.7, where the
    # constant is 1006.9
    with pytest.raises(NoConvergenceError):
        constant_root(Power(0.999), 0.0)


def test_characteristic_rejects_nonintegrable_profile():
    with pytest.raises(NotIntegrableError):
        solve_cef(dev_power(1.0), 0.0)


def test_characteristic_rejects_nonconcave_profile():
    bent = replace(dev_power(0.5), concave=False)
    with pytest.raises(DomainError):
        solve_cef(bent, 0.0)


@pytest.mark.parametrize("eta", [-0.1, 1.0, math.nan])
def test_characteristic_eta_domain(eta):
    with pytest.raises(DomainError):
        solve_cef(log_gen(), eta)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_characteristic_rejects_a_tolerance_not_positive_and_finite(tol, eta):
    # tol = inf stopped Brent at the bracket end: a root of 4 at eta = 0.5,
    # where the constant is 2.91
    with pytest.raises(DomainError):
        solve_cef(dev_power(0.5), eta, tol=tol)


# closed form vs root solve, power profiles (the module's central claim)
@pytest.mark.parametrize("p", [-1.0, 0.0, 0.5])
@pytest.mark.parametrize("eta", [0.0, 0.4])
def test_both_routes_agree_on_power_profiles(p, eta):
    closed = C_of(p, eta)
    root = solve_cef(dev_power(p), eta).value
    assert root == pytest.approx(closed, rel=1e-8)


# -- chi and order detection -------------------------------------------------


def test_chi_constant_on_power_transforms():
    for x in (0.3, 1.0, 5.0):
        assert chi_f(power_gen(2.0), x) == pytest.approx(2.0, rel=1e-12)
        assert chi_f(log_gen(), x) == pytest.approx(0.0, abs=1e-12)
    assert chi_f(power_gen(0.5), 7.0) == pytest.approx(0.5, rel=1e-12)


def test_chi_falls_back_to_differences():
    bare = GeneratorFunction(fn=lambda x: np.asarray(x, dtype=float) ** 2,
                             label="x^2 bare")
    assert chi_f(bare, 1.3) == pytest.approx(2.0, abs=1e-5)


def test_chi_zero_derivative():
    flat = GeneratorFunction(
        fn=lambda x: (np.asarray(x, dtype=float) - 1.0) ** 2,
        d1=lambda x: 2.0 * (np.asarray(x, dtype=float) - 1.0),
        d2=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        label="(x-1)^2")
    with pytest.raises(ZeroDerivativeError):
        chi_f(flat, 1.0)


@pytest.mark.parametrize("p", [1e-305, 3e-308])
def test_chi_of_a_tiny_power_order_is_that_order(p):
    # f'(0.1) = p 0.1**(p - 1) is about 10 p, far below any absolute
    # floor, while chi = 0.1 f''/f' + 1 = p is well defined
    assert chi_f(power_gen(p), 0.1) == pytest.approx(p, abs=1e-15)
    spec = QuasiArithmetic(power_gen(p))
    closed = constant_closed(spec, 0.5)
    assert closed == pytest.approx(2.0, rel=1e-15, abs=0.0)
    assert abs(constant_root(spec, 0.5).value - closed) <= 1e-12


def test_chi_keeps_overflowing_declared_derivatives_quiet():
    # d1 = -300 x**-301 overflows at every probe; the warning escaped an
    # "error" filter in place of the typed error
    g = replace(power_gen(-300.0), family=("custom",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DerivativeUnavailableError):
            constant_closed(QuasiArithmetic(g), 0.5)


def test_chi_domain():
    with pytest.raises(DomainError):
        chi_f(log_gen(), 0.0)
    with pytest.raises(DomainError):
        chi_f(log_gen(), -2.0)


def test_order_detection_on_powers():
    assert detect_order(power_gen(0.7)) == pytest.approx(0.7, abs=1e-9)
    assert detect_order(log_gen()) == pytest.approx(0.0, abs=1e-9)


def test_order_detection_rejects_oscillation():
    # chi(x) = sin(ln x) + 1 by construction: never three stable probes
    wavy = GeneratorFunction(
        fn=lambda x: np.asarray(x, dtype=float),
        d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        d2=lambda x: np.sin(np.log(np.asarray(x, dtype=float)))
        / np.asarray(x, dtype=float),
        label="wavy")
    with pytest.raises(LimitNotDetected):
        detect_order(wavy)


@pytest.mark.parametrize("p", [0.3, -0.7, -1.0, 1e-9, 2.5e-8, 1e-305,
                               -100.0, -300.0])
def test_qa_order_of_a_power_generator_is_its_stated_order(p):
    # the chi ladder was ulps off at 0.3, -0.7, -1; 1e-6 off (relative) at
    # 1e-9; and raised DerivativeUnavailableError from -100 on
    assert qa_order(power_gen(p)) == p


_QA_ORDERS = [0.5, -1.0, 0.3, -0.7, 0.9, 0.999, -5.0, 1e-9, 2.5e-8, 1e-305,
              -100.0, -300.0]


def _constant_or_error(route, spec, eta):
    try:
        return route(spec, eta)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("p", _QA_ORDERS)
def test_qa_constants_of_a_power_generator_are_the_power_means(p):
    # QuasiArithmetic(power_gen(p)) is Power(p) by its prefix, and by its
    # constants too, bit for bit, in both routes
    qa = QuasiArithmetic(power_gen(p))
    routes = (constant_closed, lambda spec, eta: constant_root(spec, eta).value)
    for eta in (0.0, 0.1, 0.5, 0.9):
        for route in routes:
            assert (_constant_or_error(route, qa, eta)
                    == _constant_or_error(route, Power(p), eta)), (eta, route)


def test_qa_constant_cube_root():
    value = constant_closed(QuasiArithmetic(power_gen(1.0 / 3.0)), 0.0)
    assert value == pytest.approx(3.375, rel=1e-9)


def test_qa_constant_log_weighted():
    assert constant_closed(QuasiArithmetic(log_gen()), 0.5) == pytest.approx(
        2.0, rel=1e-9)


def test_qa_constant_exponential_detects_order_one():
    # chi of exp is x + 1, limit 1 at 0+: no finite constant
    with pytest.raises(PGeqOne) as excinfo:
        qa_order(exp_gen())
    assert excinfo.value.p == pytest.approx(1.0, abs=1e-6)
    assert constant_closed(QuasiArithmetic(exp_gen()), 0.0) == math.inf


# -- family dispatch ---------------------------------------------------------


def test_dispatch_closed_forms():
    assert constant_closed(Power(0.5), 0.0) == pytest.approx(4.0)
    assert constant_closed(Power(-math.inf), 0.0) == 1.0
    assert constant_closed(Power(-math.inf), 0.5) == 1.0
    assert constant_closed(Power(1.0), 0.0) == math.inf
    assert constant_closed(Power(2.0), 0.3) == math.inf
    assert constant_closed(Gini(0.5, -0.5), 0.0) == pytest.approx(3.0)
    assert constant_closed(QuasiArithmetic(power_gen(1.0 / 3.0)),
                           0.0) == pytest.approx(3.375)
    assert constant_closed(QuasiArithmetic(exp_gen()), 0.0) == math.inf
    assert constant_closed(HomogeneousDeviation(log_gen()),
                           0.5) == pytest.approx(2.0)
    assert constant_closed(HomogeneousDeviation(dev_power(0.5)),
                           0.0) == pytest.approx(4.0)
    assert constant_closed(HomogeneousDeviation(dev_gini(0.5, -0.5)),
                           0.0) == pytest.approx(3.0)


def test_dispatch_raw_kernel_points_at_composition():
    with pytest.raises(DomainError, match="normalize"):
        constant_closed(Deviation(difference_kernel()), 0.0)


def test_dispatch_root_route():
    res = constant_root(Power(0.5), 0.0)
    assert res.value == pytest.approx(4.0, rel=1e-9)
    res = constant_root(Gini(0.5, -0.5), 0.3)
    assert res.value == pytest.approx(gini_constant(0.5, -0.5, 0.3),
                                      rel=1e-8)
    res = constant_root(QuasiArithmetic(power_gen(0.5)), 0.0)
    assert res.value == pytest.approx(4.0, rel=1e-8)


def test_dispatch_root_route_rejects_order_one():
    with pytest.raises(NotIntegrableError):
        constant_root(Power(1.0), 0.0)


@pytest.mark.parametrize("p", [-math.inf, -2.0, -0.5, 0.0, 1e-9, 0.3, 0.5,
                               0.9, 1.0, 2.0, 9e-13, -9e-13, 1e-13, 1e-300,
                               5e-324])
def test_power_profile_shares_the_power_constant(p):
    # the homogeneous deviation mean of dev_power(p) is the power mean
    for eta in (0.0, 0.1, 0.5, 0.9):
        want = constant_closed(Power(p), eta)
        got = constant_closed(HomogeneousDeviation(dev_power(p)), eta)
        assert got == want


@pytest.mark.parametrize("p,q", [(0.5, -0.5), (0.0, -1.0), (0.3, 0.0),
                                 (-0.5, 0.9), (0.999, -0.5), (1e-9, -1e-9),
                                 (0.0, 0.0), (0.25, 0.25), (1.5, -1.0),
                                 (9e-13, 0.0), (5e-13, -4e-13),
                                 (1e-300, -1e-300)])
def test_gini_profile_shares_the_gini_constant(p, q):
    # the homogeneous deviation mean of dev_gini(p, q) is the Gini mean;
    # off the band both routes raise
    for eta in (0.0, 0.1, 0.5, 0.9):
        try:
            want = constant_closed(Gini(p, q), eta)
        except DomainError:
            with pytest.raises(DomainError):
                constant_closed(HomogeneousDeviation(dev_gini(p, q)), eta)
            continue
        assert constant_closed(HomogeneousDeviation(dev_gini(p, q)),
                               eta) == want


@pytest.mark.parametrize("p", [9e-13, -9e-13])
@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_routes_agree_at_tiny_power_orders(p, eta):
    # both routes read dev_power(p), which keeps p from 2**-1022 on
    closed = constant_closed(Power(p), eta)
    assert abs(constant_root(Power(p), eta).value - closed) <= 1e-12


def test_importing_hardy_loads_no_means():
    # a bare package module stands in for hardymeans/__init__.py (which
    # imports every module), so only hardy's own imports are loaded
    import os
    import subprocess
    import sys

    import hardymeans

    pkg = os.path.dirname(os.path.abspath(hardymeans.__file__))
    code = ("import sys, types\n"
            "pkg = types.ModuleType('hardymeans')\n"
            f"pkg.__path__ = [{pkg!r}]\n"
            "sys.modules['hardymeans'] = pkg\n"
            "import hardymeans.hardy\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('hardymeans.')))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    loaded = eval(out)
    assert "hardymeans.hardy" in loaded
    assert "hardymeans.means" not in loaded
