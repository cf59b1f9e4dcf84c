import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from hardymeans.errors import DomainError
from hardymeans.generators import (LINEAR_GAP, dev_gini, dev_power,
                                   difference_kernel, exp_gen, log_gen,
                                   power_gap_kernel, power_gen, ratio_kernel,
                                   scaled_ratio_kernel, validate_generator,
                                   validate_kernel)
from hardymeans.means import Gini, parse_mean, prefix_values


def _scalar(fn, x):
    return float(np.asarray(fn(np.array([float(x)])), dtype=float)[0])


def test_dev_power_values_and_derivatives():
    f = dev_power(0.5)
    assert abs(_scalar(f.fn, 4.0) - 2.0) < 1e-14          # (2-1)/0.5
    assert abs(_scalar(f.d1, 4.0) - 0.5) < 1e-14          # u**-0.5
    assert abs(_scalar(f.d2, 4.0) + 0.0625) < 1e-14       # -(1/2) u**-1.5
    assert f.concave and f.sign_like and f.recip_integrable


def test_dev_power_zero_is_log():
    # only exponents below the smallest normal float snap to log; above
    # it (u**p - 1)/p is exact, and tiny p keep their own profile
    assert dev_power(0.0).family == ("log",)
    assert dev_power(5e-324).family == ("log",)
    assert dev_power(-1e-310).family == ("log",)
    assert dev_power(2.0 ** -1022).family == ("power", 2.0 ** -1022)
    assert dev_power(1e-15).family == ("power", 1e-15)


def test_dev_power_flags_track_order():
    assert not dev_power(1.5).concave
    assert not dev_power(1.0).recip_integrable
    assert dev_power(0.99).recip_integrable


_POWER_ORDERS = [0.5, -1.0, 0.3, -0.7, 0.9, 2.0, 1e15, -1e15, 2.0 ** -970,
                 1e-300, -100.0, -300.0]
_POWER_GRID = np.concatenate([
    np.geomspace(1e-300, 1e300, 801),
    [0.5, 1.5, 0.0, 5e-324, 1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, np.inf]])


@pytest.mark.parametrize("p", _POWER_ORDERS)
def test_dev_power_is_dev_gini_at_q_zero_bit_for_bit(p):
    # dev_power(p) is dev_gini(p, 0) under its own family and label; its
    # values are (u**p - 1)/p in the expm1 form, ln u for |p| < 2**-969,
    # including the finite ends u = 0 and u = inf for p < 0
    f = dev_power(p)
    with np.errstate(all="ignore"):
        t = np.log(_POWER_GRID)
        want = t if abs(p) < LINEAR_GAP else np.expm1(p * t) / p
        assert np.array_equal(f.fn(_POWER_GRID), want, equal_nan=True)
        gini = dev_gini(p, 0.0)
        for mine, its in ((f.fn, gini.fn), (f.d1, gini.d1), (f.d2, gini.d2)):
            assert np.array_equal(mine(_POWER_GRID), its(_POWER_GRID),
                                  equal_nan=True)
    assert f.family == ("power", p)
    assert f.label == f"(u^{p:g} - 1)/{p:g}"
    assert (f.concave, f.sign_like, f.recip_integrable) == (p <= 1.0, True,
                                                            p < 1.0)


def test_dev_gini_values():
    f = dev_gini(0.5, -0.5)
    # (sqrt(u) - 1/sqrt(u)) / 1 at u = 4
    assert abs(_scalar(f.fn, 4.0) - 1.5) < 1e-14
    assert f.concave and f.sign_like


def test_dev_gini_near_one_avoids_cancellation():
    # u**0.5 - u**-0.5 loses ~7 digits to cancellation near u = 1 when
    # subtracted directly; the factored form must stay relative-accurate.
    # Independent oracle: (u^{1/2} - u^{-1/2})/1 = 2 sinh(ln(u)/2).
    f = dev_gini(0.5, -0.5)
    for u in (1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-13):
        truth = 2.0 * math.sinh(0.5 * math.log(u))
        assert abs(_scalar(f.fn, u) - truth) < 1e-13 * abs(truth)


def test_dev_gini_diagonal_limit():
    f = dev_gini(0.5, 0.5)
    u = math.e ** 2
    assert abs(_scalar(f.fn, u) - 2.0 * math.e) < 1e-12  # u**0.5 * ln u
    assert dev_gini(0.0, 0.0).family == ("log",)


@pytest.mark.parametrize("r", [0.3, -0.5])
def test_dev_gini_diagonal_profile_generates_the_gini_mean(r):
    # u**r ln u has the sign of u - 1 for every r: the diagonal profile
    # was declared sign-like at r = 0 only, so its deviation mean raised
    f = dev_gini(r, r)
    assert f.sign_like and not f.concave
    with mpmath.workdps(30):
        for u in (0.1, 1.3, 42.0):
            def g(v):
                return v ** r * mpmath.log(v)
            for d, order in ((f.d1, 1), (f.d2, 2)):
                want = float(mpmath.diff(g, mpmath.mpf(u), order))
                assert _scalar(d, u) == pytest.approx(want, rel=1e-13)
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(-3.0, 3.0, 20))
    lam = rng.uniform(0.1, 2.0, 20)
    got = prefix_values(parse_mean(f"devmean:f=gini:{r},{r}"), x, lam)
    want = prefix_values(Gini(r, r), x, lam)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p, q", [
    # p - q of 2e-12 and 1e-14, where the differences of two powers of u
    # lose digits
    (0.3, 0.3 - 2e-12), (0.3, 0.3 - 1e-14), (0.5, 0.5 - 2e-12),
    (-0.5, -0.5 - 2e-12), (1e-12, -1e-12), (1e-14, 0.0),
    # ordinary pairs, where p E + 1 would cancel or e**((q-1) t) leave
    # float range far from u = 1
    (0.5, -0.5), (0.25, -0.75), (0.5, 0.0), (-0.5, 0.5), (0.0, -1.0),
    (0.5, -1e-10)])
def test_dev_gini_values_and_derivatives_match_mpmath(p, q):
    f = dev_gini(p, q)
    us = np.concatenate([np.geomspace(1e-300, 1e300, 61),
                         [1.0 - 1e-9, 1.0 + 1e-9]])
    with mpmath.workdps(50):
        mp, mq = mpmath.mpf(p), mpmath.mpf(q)
        for u in us:
            mu = mpmath.mpf(u)
            # e**(s ln u) carries the rounding of ln u, eps |s ln u|
            tol = 1e-13 * max(1.0, abs(math.log(u)) / 230.0)
            for fn, a, b, k in ((f.fn, 1, 1, 0), (f.d1, mp, mq, 1),
                                (f.d2, mp * (mp - 1), mq * (mq - 1), 2)):
                want = (a * mu ** (mp - k) - b * mu ** (mq - k)) / (mp - mq)
                if not 1e-300 < abs(want) < 1e300:
                    continue
                got = _scalar(fn, u)
                assert abs(got - want) <= tol * abs(want), (fn, u)


# Exponents and gaps from the smallest normal float up to 2**-969, where
# d ln u is subnormal for u near 1, and a few past it
TINY_GAPS = [2.0 ** -1022, 3e-308, 1e-305, 2.0 ** -970, 2.0 ** -969, 1e-290]
NEAR_ONE = [1.0 - 2.0 ** -53, 1.0 - 1e-15, 1.0 + 2.0 ** -52, 1.0 + 1e-12,
            1.0 - 1e-9, 0.5, 2.0, 1e-100, 1e100]


@pytest.mark.parametrize("d", TINY_GAPS + [-x for x in TINY_GAPS])
def test_profiles_at_tiny_exponent_gaps_match_mpmath(d):
    # (e**(d t) - 1)/d took expm1 of a subnormal d t: dev_power(3e-308) was
    # 0.48 off at u = 1 - 1e-15; below 2**-969 it is t to within an ulp
    pairs = [(d, 0.0), (0.0, -d), (2.0 ** -1000 + d, 2.0 ** -1000)]
    with mpmath.workdps(80):
        for u in NEAR_ONE:
            t = mpmath.log(mpmath.mpf(u))
            tol = 1e-15 * max(1.0, abs(math.log(u)))
            e = mpmath.expm1(mpmath.mpf(d) * t) / mpmath.mpf(d)
            assert abs(_scalar(dev_power(d).fn, u) - e) <= tol * abs(e), u
            for p, q in pairs:
                f = dev_gini(p, q)
                mp, mq = mpmath.mpf(p), mpmath.mpf(q)
                e = mpmath.expm1((mp - mq) * t) / (mp - mq)
                for fn, want in (
                        (f.fn, mpmath.exp(mq * t) * e),
                        (f.d1, mpmath.exp((mq - 1) * t) * (mp * e + 1)),
                        (f.d2, mpmath.exp((mq - 2) * t)
                         * (mp * (mp - 1) * e + mp + mq - 1))):
                    got = _scalar(fn, u)
                    assert abs(got - want) <= tol * abs(want), (p, q, u)


@pytest.mark.parametrize("d", [2.0 ** -969, -(2.0 ** -969), 1e-290, 0.5])
def test_profiles_from_2_to_the_minus_969_keep_expm1(d):
    u = np.geomspace(1e-300, 1e300, 41)
    t = np.log(u)
    assert np.array_equal(dev_power(d).fn(u), np.expm1(d * t) / d)
    q = 0.25 if abs(d) == 0.5 else 0.0
    assert np.array_equal(dev_gini(q + d, q).fn(u),
                          np.exp(q * t) * np.expm1(d * t) / d)


def test_dev_gini_band_flags():
    assert dev_gini(0.5, -2.0).concave
    assert not dev_gini(0.5, 0.25).concave  # both positive: off the band
    assert not dev_gini(1.5, -1.0).recip_integrable


def test_analytic_derivatives_match_finite_differences():
    # second differences need a wider step (eps**(1/4) scale) than first
    # differences or roundoff swamps them
    for f in (dev_power(0.5), dev_power(-1.0), dev_gini(0.3, -0.7), log_gen()):
        for x in (0.1, 1.3, 42.0):
            h1 = 1e-6 * x
            fd1 = (_scalar(f.fn, x + h1) - _scalar(f.fn, x - h1)) / (2 * h1)
            h2 = 1e-4 * x
            fd2 = ((_scalar(f.fn, x + h2) - 2 * _scalar(f.fn, x)
                    + _scalar(f.fn, x - h2)) / (h2 * h2))
            assert abs(fd1 - _scalar(f.d1, x)) < 1e-6 * max(1, abs(fd1))
            assert abs(fd2 - _scalar(f.d2, x)) < 1e-4 * max(1, abs(fd2))


def test_power_gen_family_and_flags():
    g = power_gen(2.0)
    assert g.family == ("pow-map", 2.0) and g.label == "x^2"
    assert _scalar(g.fn, 3.0) == 9.0
    assert power_gen(0.0).family == ("log",)
    assert not power_gen(2.0).sign_like
    assert power_gen(0.5).concave and not power_gen(2.0).concave


def test_exp_gen_family_and_flags():
    g = exp_gen()
    assert g.family == ("exp-map",) and _scalar(g.fn, 0.0) == 1.0
    assert not (g.concave or g.sign_like or g.recip_integrable)


def test_log_gen_both_roles():
    g = log_gen()
    assert g.concave and g.sign_like and g.recip_integrable


# -- kernels --------------------------------------------------------------


def test_difference_kernel_diagonal_slope():
    E = difference_kernel()
    assert _scalar(lambda y: E.d2_diag(y), 7.0) == -1.0
    assert float(E.fn(np.array([3.0]), 1.0)[0]) == 2.0


def test_power_gap_kernel():
    E = power_gap_kernel(2.0)
    assert float(E.fn(np.array([3.0]), 1.0)[0]) == 8.0
    # dE/dy at (y, y) is -r y**(r-1) = -2 * 5
    assert _scalar(lambda y: E.d2_diag(y), 5.0) == -10.0
    with pytest.raises(DomainError):
        power_gap_kernel(0.0)


def test_ratio_kernel_requires_sign_property():
    with pytest.raises(DomainError):
        ratio_kernel(power_gen(2.0))
    E = ratio_kernel(log_gen())
    assert abs(float(E.fn(np.array([2.0]), 1.0)[0]) - math.log(2.0)) < 1e-15
    # d2_diag = -f'(1)/y = -1/y for f = ln
    assert abs(_scalar(lambda y: E.d2_diag(y), 4.0) + 0.25) < 1e-15


def test_scaled_ratio_kernel_diagonal():
    E = scaled_ratio_kernel(dev_power(0.5))
    # d/dy [y f(x/y)] at x=y is -f'(1) = -1
    assert abs(_scalar(lambda y: E.d2_diag(y), 11.0) + 1.0) < 1e-15


# -- declared-property diagnostics ----------------------------------------


def test_validate_generator_clean():
    rep = validate_generator(dev_power(0.5))
    assert rep["sign_ok"] and rep["concave_ok"]
    assert rep["violations"] == []


def test_validate_generator_flags_bad_declarations():
    liar = replace(power_gen(2.0), sign_like=True, concave=True)
    rep = validate_generator(liar)
    assert not rep["sign_ok"]      # u**2 > 0 below u = 1
    assert not rep["concave_ok"]   # convex
    assert len(rep["violations"]) == 2


def test_validate_kernel_clean():
    rep = validate_kernel(difference_kernel())
    assert rep["sign_ok"] and rep["continuity_ok"] and rep["ratio_monotone_ok"]


def test_validate_kernel_flags_sign_violation():
    from hardymeans.generators import QuasideviationKernel
    broken = QuasideviationKernel(
        fn=lambda x, y: np.asarray(x, dtype=float) + y, label="x + y")
    rep = validate_kernel(broken)
    assert not rep["sign_ok"]


def test_validate_kernel_flags_discontinuity():
    from hardymeans.generators import QuasideviationKernel

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        # drops by 5x once y passes 2x; sign property survives the step
        return x - y - np.where(y >= 2.0 * x, 5.0 * x, 0.0)

    rep = validate_kernel(QuasideviationKernel(fn=fn, label="stepped"))
    assert not rep["continuity_ok"]
