"""Mean families: hand oracles, cross-family identities, structural laws."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from hardymeans import means
from hardymeans.empirical import _draw_trials, verify_inequality
from hardymeans.errors import (BracketError, DomainError, HardyMeansError,
                               InversionError, UsageError)
from hardymeans.generators import (GeneratorFunction, QuasideviationKernel,
                                   dev_gini, dev_power, difference_kernel,
                                   exp_gen, log_gen, power_gap_kernel,
                                   power_gen, ratio_kernel,
                                   scaled_ratio_kernel)
from hardymeans.means import (Deviation, Gini, HomogeneousDeviation, Power,
                              QuasiArithmetic, parse_mean, prefix_values)
from hardymeans.rootfind import newton_lanes
from hardymeans.weights import WeightSequence

ONES2 = np.array([1.0, 1.0])
X14 = np.array([1.0, 4.0])


def _custom(f, **fields):
    """f with no named family, so that its deviation mean is the raw
    kernel f(x / y)'s, solved by the lane solver."""
    return replace(f, family=("custom",), **fields)


# -- hand-computed values ---------------------------------------------------


def test_power_mean_small_cases():
    assert Power(0.0).evaluate(X14, ONES2) == pytest.approx(2.0, abs=1e-14)
    assert Power(0.5).evaluate(X14, ONES2) == pytest.approx(2.25, abs=1e-14)
    assert Power(1.0).evaluate([1.0, 2.0], [2.0, 1.0]) == pytest.approx(
        4.0 / 3.0)


def test_power_mean_limits():
    x = [0.5, 3.0, 2.0]
    lam = [1.0, 1.0, 2.0]
    assert Power(math.inf).evaluate(x, lam) == 3.0
    assert Power(-math.inf).evaluate(x, lam) == 0.5
    assert Power(1e16).evaluate(x, lam) == 3.0  # beyond the overflow threshold
    assert Power(-1e16).evaluate(x, lam) == 0.5


def test_power_mean_wide_dynamic_range():
    # naive x**p at p = 0.9 would overflow for x ~ 1e300
    x = np.array([1e-300, 1e300])
    val = Power(0.9).evaluate(x, ONES2)
    assert np.isfinite(val)
    # dominated by the large sample: (x2**0.9 / 2)**(1/0.9)
    want = math.exp((0.9 * math.log(1e300) - math.log(2.0)) / 0.9)
    assert val == pytest.approx(want, rel=1e-12)


def test_gini_mean_small_cases():
    assert Gini(1.0, 0.0).evaluate([1.0, 2.0], [2.0, 1.0]) == pytest.approx(
        4.0 / 3.0)
    assert Gini(0.0, 0.0).evaluate(X14, ONES2) == pytest.approx(2.0)
    # (sum x**1/2) / (sum x**-1/2) = 3 / 1.5
    assert Gini(0.5, -0.5).evaluate(X14, ONES2) == pytest.approx(2.0,
                                                                 abs=1e-14)


def test_gini_mean_is_symmetric_in_pq():
    x = np.array([0.3, 5.0, 2.0])
    lam = np.array([1.0, 2.0, 0.5])
    assert Gini(0.7, -1.3).evaluate(x, lam) == pytest.approx(
        Gini(-1.3, 0.7).evaluate(x, lam), rel=1e-15, abs=0.0)


def test_gini_diagonal_oracle():
    # p = q limit: exp( sum lam x**p ln x / sum lam x**p )
    x = np.array([0.5, 2.0, 7.0])
    lam = np.array([1.0, 3.0, 0.25])
    w = lam * x ** 2.0
    want = math.exp(float(np.dot(w, np.log(x)) / w.sum()))
    assert Gini(2.0, 2.0).evaluate(x, lam) == pytest.approx(want, rel=1e-14,
                                                            abs=0.0)


def test_quasiarithmetic_small_cases():
    assert QuasiArithmetic(log_gen()).evaluate(X14, ONES2) == pytest.approx(
        2.0)
    # identity generator: weighted arithmetic mean
    assert QuasiArithmetic(power_gen(1.0)).evaluate(
        [1.0, 2.0], [2.0, 1.0]) == pytest.approx(4.0 / 3.0)
    assert QuasiArithmetic(power_gen(0.5)).evaluate(
        X14, ONES2) == pytest.approx(Power(0.5).evaluate(X14, ONES2),
                                     rel=1e-14, abs=0.0)


def test_quasiarithmetic_without_inverse_roots():
    # a generator of no named family, so the mean is g's own, by the lane
    # solver in log y
    g = replace(power_gen(0.5), inverse=None, family=("custom",))
    got = QuasiArithmetic(g).evaluate(X14, ONES2)
    assert got == pytest.approx(2.25, rel=1e-10)


def test_quasiarithmetic_nonmonotone_generator_fails_to_invert():
    from hardymeans.generators import GeneratorFunction

    g = GeneratorFunction(fn=lambda x: (np.asarray(x, dtype=float) - 2.0) ** 2,
                          label="(x-2)^2")
    # (x-2)^2 on (1,2,3) averages to 2/3, below the value at both endpoints,
    # so no bracket exists on [min x, max x]
    with pytest.raises(InversionError):
        QuasiArithmetic(g).evaluate([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])


def test_quasiarithmetic_tiny_unbracketed_values_fail_to_invert():
    from hardymeans.generators import GeneratorFunction

    # the same shape scaled to 1e-200: the product of the two endpoint
    # values underflows to zero, their signs still agree
    g = GeneratorFunction(
        fn=lambda x: 1e-200 * (np.asarray(x, dtype=float) - 2.0) ** 2,
        label="1e-200 (x-2)^2")
    with pytest.raises(InversionError):
        QuasiArithmetic(g).evaluate([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])


def test_quasideviation_small_cases():
    assert Deviation(difference_kernel()).evaluate(
        [1.0, 3.0], ONES2) == pytest.approx(2.0)
    assert Deviation(difference_kernel()).evaluate(
        [1.0, 2.0], [2.0, 1.0]) == pytest.approx(4.0 / 3.0)
    assert Deviation(ratio_kernel(log_gen())).evaluate(
        X14, ONES2) == pytest.approx(2.0)
    # kernels at scales where a secant step through the kernel values, or
    # the values themselves, under- or overflow in y; the custom difference
    # kernel is not declared homogeneous
    custom = QuasideviationKernel(fn=lambda x, y: x - y)
    for scale in (1e-160, 1e-300, 1e290):
        x = [scale, scale / 10.0]
        for kernel in (difference_kernel(), custom):
            assert Deviation(kernel).evaluate(x, [1.0, 0.5]) \
                == pytest.approx(0.7 * scale, rel=1e-13, abs=0.0)
        # (x**2 - y**2 = 0): y**2 = (1 + 0.005) / 1.5 scale**2
        assert Deviation(power_gap_kernel(2.0)).evaluate(x, [1.0, 0.5]) \
            == pytest.approx(math.sqrt(1.005 / 1.5) * scale, rel=1e-13,
                             abs=0.0)


@pytest.mark.parametrize("kernel, p", [
    (ratio_kernel(log_gen()), 0.0), (scaled_ratio_kernel(log_gen()), 0.0),
    (ratio_kernel(dev_power(0.5)), 0.5),
    (scaled_ratio_kernel(dev_power(0.5)), 0.5),
    (power_gap_kernel(0.5), 0.5), (power_gap_kernel(2.0), 2.0),
    (difference_kernel(), 1.0),
], ids=["ratio-log", "scaled-ratio-log", "ratio-pow", "scaled-ratio-pow",
        "power-gap", "power-gap-2", "difference"])
@pytest.mark.parametrize("e", [200, 300])
def test_raw_kernels_at_extreme_samples_warn_nothing(kernel, p, e):
    # x / y overflows inside the lane solver, but no RuntimeWarning leaks
    # (the test filter would make it an error): each call gives the power
    # mean the kernel generates, or a typed error
    for x in ([10.0 ** -e, 10.0 ** e], [10.0 ** e, 10.0 ** -e],
              [10.0 ** -e, 3 * 10.0 ** -e], [10.0 ** e, 10.0 ** e / 3]):
        try:
            got = Deviation(kernel).evaluate(x, ONES2)
        except HardyMeansError:
            continue
        assert got == pytest.approx(Power(p).evaluate(x, ONES2), rel=1e-12,
                                    abs=0.0)


def test_quasideviation_rejects_sign_violating_kernel():
    from hardymeans.generators import QuasideviationKernel
    bogus = QuasideviationKernel(fn=lambda x, y: np.asarray(x) + y)
    with pytest.raises(BracketError):
        Deviation(bogus).evaluate(X14, ONES2)


def test_homogeneous_devmean_small_cases():
    assert HomogeneousDeviation(dev_power(0.5)).evaluate(
        X14, ONES2) == pytest.approx(2.25, rel=1e-12)
    assert HomogeneousDeviation(log_gen()).evaluate(
        X14, ONES2) == pytest.approx(2.0, rel=1e-12)
    # f = (u**-1/2 - u**1/2)/(-1) is the Gini(1/2,-1/2) profile
    assert HomogeneousDeviation(dev_gini(-0.5, 0.5)).evaluate(
        X14, ONES2) == pytest.approx(2.0, rel=1e-12)


def test_homogeneous_devmean_needs_sign_property():
    with pytest.raises(DomainError):
        HomogeneousDeviation(power_gen(0.5)).evaluate(X14, ONES2)


# -- input validation -------------------------------------------------------


@pytest.mark.parametrize("x,lam", [
    ([], []),
    ([1.0, -2.0], [1.0, 1.0]),
    ([1.0, 0.0], [1.0, 1.0]),
    ([1.0, 2.0], [1.0, -1.0]),
    ([1.0, 2.0], [0.0, 0.0]),
    ([1.0, 2.0], [1.0]),
    ([1.0, math.nan], [1.0, 1.0]),
    # not NumPy's bare ValueError or TypeError
    (["a"], [1.0]),
    ([1.0, 2.0], [1.0, "w"]),
    ([[1.0], [1.0, 2.0]], [1.0, 1.0]),
    ("constant:c=1", [1.0]),
    ([1.0], [object()]),
])
def test_rejects_bad_inputs(x, lam):
    with pytest.raises(DomainError):
        Power(1.0).evaluate(x, lam)


def test_rejects_bad_orders():
    with pytest.raises(DomainError):
        Power(math.nan).evaluate(X14, ONES2)
    with pytest.raises(DomainError):
        Gini(math.inf, 0.0).evaluate(X14, ONES2)


def test_zero_weight_samples_are_ignored():
    x = np.array([1.0, 500.0, 4.0])
    lam = np.array([1.0, 0.0, 1.0])
    assert Power(0.5).evaluate(x, lam) == Power(0.5).evaluate(X14, ONES2)
    assert Power(math.inf).evaluate(x, lam) == 4.0


# -- structural laws (randomized) ------------------------------------------

SPECS = [
    Power(0.5), Power(0.0), Power(-1.0), Power(2.0),
    Gini(0.5, -0.5), Gini(0.0, -1.0), Gini(0.3, 0.3),
    QuasiArithmetic(log_gen()), QuasiArithmetic(power_gen(2.0)),
    HomogeneousDeviation(dev_power(0.5)),
    HomogeneousDeviation(dev_gini(0.5, -0.5)),
    Deviation(difference_kernel()),
    Deviation(power_gap_kernel(0.5)),
]

MONOTONE_SPECS = [s for s in SPECS if s.symmetric_monotone]


@st.composite
def samples_and_weights(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    logx = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    lam = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    lam[draw(st.integers(0, n - 1))] = draw(st.floats(0.5, 1.0))
    return np.array([10.0 ** v for v in logx]), np.array(lam)


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(), st.sampled_from(SPECS))
def test_internality(xlam, spec):
    x, lam = xlam
    v = spec.evaluate(x, lam)
    sup = x[lam > 0]
    assert sup.min() <= v <= sup.max()


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(), st.sampled_from(SPECS),
       st.floats(min_value=-6.0, max_value=6.0))
# a first weight hundreds of e-folds below the rest, within and beyond
# the range where the prefix sums need a shift
@example((np.array([1.0, 100.0]), np.array([9.7e-110, 1.0])), Power(0.5), 1.0)
@example((np.array([10.0, 1.0, 1.0]), np.array([2.2e-311, 1e-52, 1e-52])),
         Power(0.5), 0.5)
def test_weight_scaling_invariance(xlam, spec, logt):
    x, lam = xlam
    t = 10.0 ** logt
    a = spec.evaluate(x, lam)
    b = spec.evaluate(x, t * lam)
    # deviation families re-solve a root and are limited by its xtol;
    # closed families hold 1e-14
    tol = 1e-14 if isinstance(spec, (Power, Gini, QuasiArithmetic)) else 5e-13
    assert abs(a - b) <= tol * abs(a)


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(max_n=6), st.sampled_from(SPECS), st.randoms())
def test_symmetry_under_joint_permutation(xlam, spec, rnd):
    x, lam = xlam
    order = list(range(x.size))
    rnd.shuffle(order)
    a = spec.evaluate(x, lam)
    b = spec.evaluate(x[order], lam[order])
    assert abs(a - b) <= 1e-13 * abs(a)


HOMOGENEOUS_SPECS = [s for s in SPECS if s.homogeneous]


@settings(max_examples=40, deadline=None)
@given(samples_and_weights(max_n=6), st.sampled_from(HOMOGENEOUS_SPECS),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_degree_one_homogeneity(xlam, spec, t):
    x, lam = xlam
    a = spec.evaluate(t * x, lam)
    b = t * spec.evaluate(x, lam)
    assert abs(a - b) <= 1e-12 * abs(b)


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(max_n=6), st.sampled_from(MONOTONE_SPECS),
       st.integers(0, 5), st.floats(1.01, 3.0))
def test_monotone_in_each_sample(xlam, spec, idx, factor):
    x, lam = xlam
    i = idx % x.size
    before = spec.evaluate(x, lam)
    bumped = x.copy()
    bumped[i] *= factor
    after = spec.evaluate(bumped, lam)
    assert after >= before - 1e-11 * abs(before)


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(), st.sampled_from([-2.0, -0.5, 0.0, 0.5, 0.9, 3.0]))
def test_gini_p_zero_is_power_mean_bitwise(xlam, p):
    x, lam = xlam
    assert Gini(p, 0.0).evaluate(x, lam) == Power(p).evaluate(x, lam)


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(), st.sampled_from([-2.0, -0.5, 0.5, 2.0]))
def test_quasiarithmetic_power_generator_matches_power_mean(xlam, p):
    x, lam = xlam
    a = QuasiArithmetic(power_gen(p)).evaluate(x, lam)
    b = Power(p).evaluate(x, lam)
    assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 2e-12])
def test_quasiarithmetic_power_generators_near_zero_match_mpmath(p):
    # g^-1 of the mean of x**p cancels as p -> 0, Power(p)'s path does not
    x = 10.0 ** np.random.default_rng(23).uniform(-3.0, 3.0, 20)
    with mpmath.workdps(60):
        pm = mpmath.mpf(p)
        want = (mpmath.fsum(mpmath.mpf(float(v)) ** pm for v in x)
                / len(x)) ** (1 / pm)
        got = QuasiArithmetic(power_gen(p)).evaluate(x, np.ones(20))
        assert abs(got - want) <= 1e-15 * want


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(),
       st.sampled_from([(0.5, -0.5), (1.0, 0.5), (-2.0, 0.3), (2.0, -1.0)]))
def test_gini_factorization(xlam, pq):
    # G_{p,q} = P_p**(p/(p-q)) * P_q**(q/(q-p)) for p != q
    x, lam = xlam
    p, q = pq
    g = Gini(p, q).evaluate(x, lam)
    want = (Power(p).evaluate(x, lam) ** (p / (p - q))
            * Power(q).evaluate(x, lam) ** (q / (q - p)))
    assert abs(g - want) <= 1e-12 * abs(want)


# -- prefix evaluation -------------------------------------------------------


EVERY_FAMILY = SPECS + [
    Power(1e-9), Power(-1e-9), Power(math.inf), Power(-math.inf),
    Gini(-0.5, -0.5), QuasiArithmetic(replace(log_gen(), inverse=None)),
    HomogeneousDeviation(log_gen()),
    HomogeneousDeviation(_custom(dev_power(0.5), d1=None)),
]


def _outcome(call):
    """call()'s value, or the type of the library error it raises."""
    try:
        return call()
    except HardyMeansError as exc:
        return type(exc)


def _prefix_cases():
    """(x, lam) pairs of 40 samples: one row in [1e-2, 1e2] and two wide
    rows, which start at 1e-300 and hold one sample near 1e300 among
    samples near 1e-300, each under two weights; the second weights grow
    to 2**975, so a later weight is always the largest."""
    rng = np.random.default_rng(7)
    lam = rng.uniform(0.0, 1.0, 40)
    lam[0] = 0.7
    wide = 10.0 ** rng.uniform(-300.0, -299.0, (2, 40))
    wide[:, 0] = 1e-300
    wide[:, 23] = 10.0 ** rng.uniform(299.0, 300.0, 2)
    return [(x, w) for x in [10.0 ** rng.uniform(-2, 2, 40), *wide]
            for w in (lam, np.ldexp(lam, 25 * np.arange(40)))]


@pytest.mark.parametrize("spec", EVERY_FAMILY, ids=repr)
def test_prefix_values_match_per_prefix_evaluation(spec):
    # the mean of a prefix depends on that prefix alone: the whole run of
    # prefixes, one requested prefix and evaluate on the prefix give the
    # same bits, or the same error
    for x, w in _prefix_cases():
        one = [_outcome(lambda: prefix_values(spec, x, w, ns=[n])[0])
               for n in range(1, 41)]
        for n in range(1, 41):
            alone = _outcome(lambda: spec.evaluate(x[:n], w[:n]))
            assert alone == one[n - 1]
        every = _outcome(lambda: list(prefix_values(spec, x, w)))
        assert every == one if isinstance(every, list) else every in one


def test_inverse_free_quasiarithmetic_spans_wide_rows():
    # g(y) = log y is inverted by the lane solver in log y, so every prefix
    # of the wide rows solves; the target log y ~ -656 fixes y only to its
    # float spacing, 5.7e-14 relative
    free = QuasiArithmetic(replace(log_gen(), inverse=None))
    for x, w in _prefix_cases():
        want = prefix_values(QuasiArithmetic(log_gen()), x, w)
        got = prefix_values(free, x, w)
        assert np.all(np.abs(got - want) <= 1e-13 * want)


def _newton_calls(monkeypatch):
    """A list that grows by one entry per means.newton_lanes call: the
    number of lanes it solves."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.size(args[1]))
        return newton_lanes(*args, **kwargs)

    monkeypatch.setattr(means, "newton_lanes", counting)
    return calls


def test_raw_and_inverse_free_prefixes_are_lanes(monkeypatch):
    # every prefix of one row is a lane of one chunk: two Newton solves
    # (the coarse one about 2**k and the one about its root) for a raw
    # kernel and for a generator without an inverse, none per prefix
    calls = _newton_calls(monkeypatch)
    x = 10.0 ** np.random.default_rng(3).uniform(-2.0, 2.0, 50)
    for spec in (Deviation(difference_kernel()),
                 Deviation(scaled_ratio_kernel(log_gen())),
                 QuasiArithmetic(replace(log_gen(), inverse=None))):
        calls.clear()
        prefix_values(spec, x, np.ones(50))
        assert calls == [49, 49]
    # a batch of rows: two solves per chunk of lanes
    calls.clear()
    x = 10.0 ** np.random.default_rng(4).uniform(-2.0, 2.0, (40, 50))
    got = Deviation(difference_kernel()).prefix(x, np.ones(50),
                                                np.arange(50))
    assert 2 < len(calls) < 100 and len(calls) % 2 == 0
    assert sum(calls[::2]) == 40 * 49
    assert np.array_equal(got[7], prefix_values(Deviation(
        difference_kernel()), x[7], np.ones(50)))


def _mp_power_mean(x, lam, p):
    """The weighted power mean of order p (0: geometric) of x at 40
    digits: the root of sum lam (x**p - y**p) or of sum lam ln(x / y)."""
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(v)) for v in x]
        ws = [mpmath.mpf(float(v)) for v in lam]
        if p == 0:
            return mpmath.exp(mpmath.fsum(w * mpmath.log(v)
                                          for w, v in zip(ws, xs))
                              / mpmath.fsum(ws))
        p = mpmath.mpf(p)
        return (mpmath.fsum(w * v ** p for w, v in zip(ws, xs))
                / mpmath.fsum(ws)) ** (1 / p)


@pytest.mark.parametrize("kernel, p", [
    (difference_kernel(), 1.0), (power_gap_kernel(0.5), 0.5),
    (power_gap_kernel(3.0), 3.0), (ratio_kernel(log_gen()), 0.0),
    (scaled_ratio_kernel(log_gen()), 0.0),
], ids=["x-y", "x^0.5-y^0.5", "x^3-y^3", "ln(x/y)", "y ln(x/y)"])
def test_deviation_prefixes_match_mpmath_roots(kernel, p):
    # rows of 20 samples over 4, 60 and 200 decades near 1, 1e-200 and
    # 1e150, under random and unit weights
    rng = np.random.default_rng(29)
    for centre, spread in ((0.0, 2.0), (-200.0, 30.0), (150.0, 100.0)):
        x = 10.0 ** (centre + rng.uniform(-spread, spread, 20))
        lam = rng.uniform(0.0, 1.0, 20)
        lam[0] = 0.6
        for w in (lam, np.ones(20)):
            got = prefix_values(Deviation(kernel), x, w)
            for n in range(1, 21):
                want = _mp_power_mean(x[:n], w[:n], p)
                assert abs(got[n - 1] - want) <= 1e-13 * want, (centre, n)


def _wide_samples():
    """180 samples of 5 values log-uniform on [1e-E, 1e+E], E uniform on
    [10, 300]."""
    rng = np.random.default_rng(7)
    samples = []
    for _ in range(180):
        e = rng.uniform(10.0, 300.0)
        samples.append(10.0 ** rng.uniform(-e, e, 5))
    return samples


def test_log_kernels_over_wide_samples_are_right_or_raise():
    # each log kernel gives the geometric mean, or DomainError exactly
    # where the samples' spread max / min passes float range, which
    # ln(x / y) cannot span (43 samples)
    samples = _wide_samples()
    for kernel in (ratio_kernel(log_gen()), scaled_ratio_kernel(log_gen())):
        failed = 0
        for x in samples:
            with np.errstate(over="ignore"):
                past = math.isinf(x.max() / x.min())
            if past:
                with pytest.raises(DomainError):
                    Deviation(kernel).evaluate(x, np.ones(5))
                failed += 1
                continue
            got = Deviation(kernel).evaluate(x, np.ones(5))
            want = _mp_power_mean(x, np.ones(5), 0)
            assert abs(got - want) <= 1e-13 * want
        assert failed == 43


def _mp_gini_mean(x, p, q):
    """The unweighted Gini mean of x at 50 digits."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) for v in x]
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        return (mpmath.fsum(v ** p for v in xs)
                / mpmath.fsum(v ** q for v in xs)) ** (1 / (p - q))


@pytest.mark.parametrize("f, p, q, failed", [
    (dev_power(0.5), 0.5, 0.0, 43), (dev_power(-2.0), -2.0, 0.0, 104),
    (dev_gini(0.5, -0.5), 0.5, -0.5, 43), (log_gen(), None, None, 43),
], ids=["pow:0.5", "pow:-2", "gini:0.5,-0.5", "log"])
def test_custom_profiles_over_wide_samples_are_right_or_raise(f, p, q,
                                                              failed):
    # a custom profile is a raw-kernel lane: on the wide samples it gives
    # its mean within 1e-13 of mpmath, or DomainError where a kernel sum
    # leaves float range, and never a wrong value
    spec = HomogeneousDeviation(_custom(f))
    raised = 0
    for x in _wide_samples():
        try:
            got = spec.evaluate(x, np.ones(5))
        except DomainError:
            raised += 1
            continue
        want = (_mp_power_mean(x, np.ones(5), 0) if p is None
                else _mp_gini_mean(x, p, q))
        assert abs(got - want) <= 1e-13 * want, (x, got, want)
    assert raised == failed


def test_deviation_evaluate_is_one_newton_solve(monkeypatch):
    # a custom profile's mean is one lane solve: two Newton calls (the
    # coarse one about 2**k and the one about its root) of one lane
    calls = _newton_calls(monkeypatch)
    x = 10.0 ** np.random.default_rng(3).uniform(-2.0, 2.0, 50)
    for f in (dev_power(0.5), dev_gini(0.5, -0.5), log_gen()):
        calls.clear()
        HomogeneousDeviation(_custom(f)).evaluate(x, np.ones(50))
        assert calls == [1, 1]


CUSTOM_POWER = [_custom(dev_power(0.5)), _custom(dev_power(0.5), d1=None)]


@pytest.mark.parametrize("f", CUSTOM_POWER, ids=["d1", "no-d1"])
def test_one_row_of_deviation_prefixes_is_one_newton_solve(monkeypatch, f):
    # all prefixes of one row are lanes of one lane solve (two Newton
    # calls), with or without f'; the one-sample prefix is no lane
    calls = _newton_calls(monkeypatch)
    x = 10.0 ** np.random.default_rng(3).uniform(-2.0, 2.0, 50)
    prefix_values(HomogeneousDeviation(f), x, np.ones(50))
    assert calls == [49, 49]


@pytest.mark.parametrize("f", CUSTOM_POWER, ids=["d1", "no-d1"])
def test_deviation_prefixes_over_several_chunks_match_evaluate(monkeypatch,
                                                               f):
    # a lane's value does not depend on the lanes that share its chunk
    spec = HomogeneousDeviation(f)
    rng = np.random.default_rng(19)
    x = 10.0 ** rng.uniform(-3.0, 3.0, 400)
    lam = rng.uniform(0.0, 1.0, 400)
    lam[[0, 7, 8, 399]] = (0.9, 0.0, 0.0, 0.0)
    calls = _newton_calls(monkeypatch)
    got = prefix_values(spec, x, lam)
    # several chunks of two Newton calls each, not one solve per prefix
    assert 2 < len(calls) < 100 and len(calls) % 2 == 0
    assert calls[::2] == calls[1::2] and sum(calls[::2]) == 399
    want = [spec.evaluate(x[:n], lam[:n]) for n in range(1, 401)]
    assert np.array_equal(got, want)


def test_unsorted_deviation_prefixes_equal_sorted_ones(monkeypatch):
    spec = HomogeneousDeviation(_custom(dev_gini(0.5, -0.5)))
    rng = np.random.default_rng(23)
    x = 10.0 ** rng.uniform(-3.0, 3.0, 50)
    lam = rng.uniform(0.1, 1.0, 50)
    ns = rng.permutation(np.arange(1, 51))
    calls = _newton_calls(monkeypatch)
    got = prefix_values(spec, x, lam, ns=ns)
    assert calls == [49, 49]
    assert np.array_equal(got[np.argsort(ns)], prefix_values(spec, x, lam))


def test_verify_solves_only_the_trials_own_prefixes(monkeypatch):
    # a verify block pads its trials to N; the padded prefixes make no
    # lanes, and each prefix of a trial whose samples differ makes one
    # lane of each of its chunk's two Newton calls
    calls = _newton_calls(monkeypatch)
    verify_inequality(HomogeneousDeviation(_custom(log_gen())),
                      WeightSequence.ones(), math.e, trials=40, N=50, seed=3)
    x, lengths = _draw_trials(3, 0, 40, 50)
    assert lengths.min() < 50
    want = sum(x[r, :n].min() < x[r, :n].max()
               for r, length in enumerate(lengths)
               for n in range(1, length + 1))
    assert len(calls) % 2 == 0 and calls[::2] == calls[1::2]
    assert sum(calls[::2]) == want


NAMED_DEVMEANS = [
    ("log", Power(0.0)), ("pow:0.5", Power(0.5)), ("pow:-1", Power(-1.0)),
    ("pow:2", Power(2.0)), ("gini:0.5,-0.5", Gini(0.5, -0.5)),
    ("gini:-0.5,-0.5", Gini(-0.5, -0.5)),
]


@pytest.mark.parametrize("name, mean", NAMED_DEVMEANS,
                         ids=[n for n, _ in NAMED_DEVMEANS])
def test_named_devmean_prefixes_are_their_power_or_gini_means(name, mean):
    spec = parse_mean(f"devmean:f={name}")
    for x, w in _prefix_cases():
        assert np.array_equal(prefix_values(spec, x, w),
                              prefix_values(mean, x, w))
        assert spec.evaluate(x, w) == mean.evaluate(x, w)


def test_named_devmeans_make_no_newton_calls(monkeypatch):
    calls = _newton_calls(monkeypatch)
    x = 10.0 ** np.random.default_rng(3).uniform(-2.0, 2.0, 50)
    for name, _ in NAMED_DEVMEANS:
        spec = parse_mean(f"devmean:f={name}")
        spec.evaluate(x, np.ones(50))
        prefix_values(spec, x, np.ones(50))
        verify_inequality(spec, WeightSequence.ones(), math.inf, trials=20,
                          N=50, seed=3)
    assert calls == []


def test_named_gini_devmean_of_a_wide_sample_is_right():
    # the mean of (1e-140, 1e140, 1e140, 1e140) is 3, 280 decades apart
    x = np.array([1e-140, 1e140, 1e140, 1e140])
    spec = parse_mean("devmean:f=gini:0.5,-0.5")
    assert abs(spec.evaluate(x, np.ones(4)) - 3.0) <= 1e-13 * 3.0
    assert abs(prefix_values(spec, x, np.ones(4))[-1] - 3.0) <= 1e-13 * 3.0


# -- shifted prefix sums ------------------------------------------------------


def _shifted_sums_batch(n, seed):
    """Rows of log terms t whose shifts move several times (a climb to
    +5000), that fall to e**-5000 (a shift of (0, 0) throughout, terms
    that underflow), that stay small and that carry zero weights (-inf),
    with growing weight exponents k and positive values v."""
    rng = np.random.default_rng(seed)
    ramp = np.linspace(0.0, 1.0, n)
    t = np.stack([5000.0 * ramp ** 2 + rng.normal(0.0, 20.0, n),
                  -5000.0 * ramp + rng.normal(0.0, 20.0, n),
                  rng.normal(0.0, 3.0, n),
                  np.where(rng.random(n) < 0.3, -np.inf,
                           700.0 * np.sin(9.0 * ramp))])
    t[:, 0] = 0.0
    k = np.arange(n) // 3
    v = rng.uniform(0.5, 2.0, t.shape)
    return t, k, v


def _array_terms(t, k, values):
    """The terms of means._shifted_sums from whole arrays t, k, values."""
    return lambda cols: (t[..., cols], k[cols], [v[..., cols] for v in values])


def _exact_sums(t, k, v, idx):
    """mpmath prefix sums of e**t 2**k, and the weighted means of v, at
    the columns idx."""
    with mpmath.workdps(40):
        terms = [mpmath.exp(mpmath.mpf(float(a))) * mpmath.mpf(2) ** int(b)
                 for a, b in zip(t, k)]
        sums = np.cumsum(np.array(terms, dtype=object))
        dots = np.cumsum(np.array([w * mpmath.mpf(float(x))
                                   for w, x in zip(terms, v)], dtype=object))
        return sums[idx], dots[idx] / sums[idx]


def test_shifted_sums_match_mpmath_and_move_each_row_alone():
    t, k, v = _shifted_sums_batch(300, 5)
    idx = np.array([299, 0, 150, 37, 150, 298, 1, 200, 200, 64])
    (c, j), s, (m,) = means._shifted_sums(
        _array_terms(t, k, [v]), idx)
    c, j = np.broadcast_to(c, s.shape), np.broadcast_to(j, s.shape)
    assert np.unique(c[0]).size >= 4 and not c[1:3].any()
    with mpmath.workdps(40):
        for r in range(len(t)):
            sums, want = _exact_sums(t[r], k, v[r], idx)
            for i in range(idx.size):
                log_s = (mpmath.mpf(float(c[r, i])) + int(j[r, i])
                         * mpmath.log(2) + mpmath.log(float(s[r, i])))
                log_want = mpmath.log(sums[i])
                assert abs(log_s - log_want) <= 1e-14 * max(1, abs(log_want))
                assert abs(m[r, i] - want[i]) <= 1e-14 * want[i]
    # each row alone, and as a 1-d call, gives the bits of the batch
    for r in range(len(t)):
        for rows, vals in ((t[r:r + 1], v[r:r + 1]), (t[r], v[r])):
            (c1, j1), s1, (m1,) = means._shifted_sums(
                _array_terms(rows, k, [vals]), idx)
            for got, want in ((c1, c), (j1, j), (s1, s), (m1, m)):
                got = np.broadcast_to(got, s1.shape).reshape(-1)
                assert np.array_equal(got, want[r])


def test_shifted_sums_of_a_shared_row_take_per_row_values():
    t, k, v = _shifted_sums_batch(300, 6)
    idx = np.array([5, 299, 5, 120, 0])
    for shared in t:
        (c, j), s, (m,) = means._shifted_sums(
            _array_terms(shared, k, [v]), idx)
        assert s.shape == idx.shape and m.shape == v[:, idx].shape
        for r in range(len(v)):
            (c1, j1), s1, (m1,) = means._shifted_sums(
                _array_terms(shared, k, [v[r]]), idx)
            assert np.array_equal(s1, s) and np.array_equal(m1, m[r])
            assert np.array_equal(np.broadcast_to(c1, s.shape),
                                  np.broadcast_to(c, s.shape))
            _, want = _exact_sums(shared, k, v[r], idx)
            for got, w in zip(m[r], want):
                assert abs(got - w) <= 1e-14 * w


@pytest.mark.parametrize("n", [300, 2 * means._CHUNK + 77])
def test_shifted_sums_at_idx_are_the_full_prefixes_read_at_idx(n):
    t, k, v = _shifted_sums_batch(n, 7)
    rng = np.random.default_rng(8)
    idx = rng.integers(0, n, 40)
    idx[:3] = [n - 1, 0, n - 1]
    (c, j), s, means_at = means._shifted_sums(
        _array_terms(t, k, [v, 1.0 / v]), idx)
    every = np.arange(n)
    (c_all, j_all), s_all, means_all = means._shifted_sums(
        _array_terms(t, k, [v, 1.0 / v]), every)
    assert np.array_equal(np.broadcast_to(c, s.shape),
                          np.broadcast_to(c_all, s_all.shape)[:, idx])
    assert np.array_equal(np.broadcast_to(j, s.shape),
                          np.broadcast_to(j_all, s_all.shape)[:, idx])
    assert np.array_equal(s, s_all[:, idx])
    for m, m_all in zip(means_at, means_all):
        assert np.array_equal(m, m_all[:, idx])


CHUNK_EDGE_SPECS = [Power(0.5), Power(0.0), Power(-1.0), Power(0.3),
                    Power(1e7), Gini(0.5, -0.5), Gini(-0.5, -0.5),
                    Gini(60.0, -60.0)]


@pytest.mark.parametrize("spec", CHUNK_EDGE_SPECS, ids=repr)
def test_prefixes_at_chunk_edges_are_the_truncated_means(spec):
    # evaluate drops the zero weights of the gapped row, so its chunks
    # start at other samples: a ratio or a weight taken against a chunk's
    # first column instead of the row's would part the two
    chunk = means._CHUNK
    n = 2 * chunk + 77
    x = 10.0 ** np.random.default_rng(12).uniform(-3.0, 3.0, n)
    cols = np.arange(n)
    ns = [chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, n]
    for lam in (np.ones(n), (cols + 1.0) ** 3,
                np.where(cols % 7 == 3, 0.0, 1.0 + cols % 5)):
        got = prefix_values(spec, x, lam, ns)
        for m, want_n in zip(got, ns):
            assert m == spec.evaluate(x[:want_n], lam[:want_n])



# -- one evaluation path --------------------------------------------------


@pytest.mark.parametrize("spec", EVERY_FAMILY, ids=repr)
def test_evaluate_is_the_last_prefix_bit_for_bit(spec):
    # zero weights inside the sequence and at its end: evaluate sees only
    # the weighted samples, prefix_values sees all of them
    rng = np.random.default_rng(5)
    x = 10.0 ** rng.uniform(-3.0, 3.0, 30)
    lam = rng.uniform(0.0, 1.0, 30)
    lam[[0, 4, 5, 17, 29]] = (0.8, 0.0, 0.0, 0.0, 0.0)
    assert spec.evaluate(x, lam) == prefix_values(spec, x, lam)[-1]


def _fsum_power_mean(x, lam, p):
    """(sum lam x**p / sum lam) ** (1/p), or the geometric mean at p = 0,
    with math.fsum sums."""
    if p == 0.0:
        return math.exp(math.fsum(lam * np.log(x)) / math.fsum(lam))
    return (math.fsum(lam * x ** p) / math.fsum(lam)) ** (1.0 / p)


@pytest.mark.parametrize("spec", [Power(0.0), Power(0.5), Gini(0.5, -0.5)],
                         ids=repr)
def test_weights_beyond_float_range_give_one_answer(spec):
    # geometric weights 2**(n-1) up to 2**1023: their total overflows,
    # the prefix sums are shifted; both paths give the true mean
    x = 10.0 ** np.random.default_rng(1).uniform(-3.0, 3.0, 1024)
    lam = np.ldexp(1.0, np.arange(1024))
    got = prefix_values(spec, x, lam)[-1]
    assert got == spec.evaluate(x, lam)
    scaled = np.ldexp(lam, -1023)  # the same weights, in float range
    if isinstance(spec, Power):
        want = _fsum_power_mean(x, scaled, spec.p)
    else:
        want = (_fsum_power_mean(x, scaled, 0.5)
                * _fsum_power_mean(x, scaled, -0.5)) ** 0.5
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_terms_whose_weight_and_sample_leave_float_range_apart():
    # relative to the second term, the third is e**1381 by its sample and
    # 2**-1200 by its weight: neither factor is a float, their product is
    x = np.array([1e-300, 1e-300, 1e300])
    lam = np.array([1.0, 2.0 ** 1000, 2.0 ** -200])
    with mpmath.workdps(40):
        want = float(mpmath.fsum(mpmath.mpf(v) * mpmath.mpf(w)
                                 for v, w in zip(x, lam))
                     / mpmath.fsum(mpmath.mpf(w) for w in lam))
    got = prefix_values(Power(1.0), x, lam)
    assert got[:2].tolist() == [1e-300, 1e-300]
    # log(1e300 / 1e-300) = 1381.6 carries up to 1.1e-13 of rounding
    assert got[2] == pytest.approx(want, rel=2e-13, abs=0.0)


def test_huge_equal_weights_leave_the_deviation_root_unmoved():
    spec = parse_mean("devmean:f=pow:0.5")
    x, lam = np.array([1.0, 2.0, 3.0]), np.full(3, 1e308)
    got = prefix_values(spec, x, lam)
    assert got[-1] == spec.evaluate(x, lam)
    want = [_fsum_power_mean(x[:n], np.ones(n), 0.5) for n in (1, 2, 3)]
    np.testing.assert_allclose(got, want, rtol=1e-13)
    assert want[-1] == pytest.approx(1.9101675806, rel=1e-10)


def test_overflowing_generator_values_are_a_domain_error_on_both_paths():
    spec = QuasiArithmetic(exp_gen())
    x, lam = np.array([1.0, 800.0]), np.ones(2)
    with pytest.raises(DomainError):
        spec.evaluate(x, lam)
    with pytest.raises(DomainError):
        prefix_values(spec, x, lam)
    # e**800 carries no weight: the mean of the rest
    assert QuasiArithmetic(exp_gen()).evaluate(x, [1.0, 0.0]) == 1.0


@pytest.mark.parametrize("p", [1e-12, -1e-12, 1e-9, -1e-9, 5e-8, -5e-8,
                               1e-6, -1e-6, 1e-4, -1e-4, 1e-2, -1e-2])
def test_power_means_near_order_zero_keep_their_digits(p):
    rng = np.random.default_rng(13)
    x = 10.0 ** rng.uniform(-3.0, 3.0, 200)
    lam = rng.uniform(0.1, 1.0, 200)
    with mpmath.workdps(60):
        xm = [mpmath.mpf(float(v)) for v in x]
        wm = [mpmath.mpf(float(v)) for v in lam]
        pm = mpmath.mpf(p)
        want = [(mpmath.fsum(w * v ** pm for w, v in zip(wm[:n], xm))
                 / mpmath.fsum(wm[:n])) ** (1 / pm) for n in (2, 50, 200)]
    got = prefix_values(Power(p), x, lam, ns=[2, 50, 200])
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * w
    assert Power(p).evaluate(x, lam) == got[-1]


@pytest.mark.parametrize("p", [5e-324, -5e-324, 1e-320, 3e-310, -2e-308])
def test_power_means_at_subnormal_orders_are_the_geometric_mean(p):
    # expm1(p r) keeps few digits of a subnormal p r: the prefix means were
    # up to 51% off, and the mean of (1, 4) was 1
    rng = np.random.default_rng(13)
    x = 10.0 ** rng.uniform(-3.0, 3.0, 200)
    for w in (WeightSequence.ones(), WeightSequence.power_law(1.0)):
        lam = w.lam_array(200)
        np.testing.assert_array_equal(prefix_values(Power(p), x, lam),
                                      prefix_values(Power(0.0), x, lam))
    assert Power(p).evaluate(X14, ONES2) == 2.0


@pytest.mark.parametrize("r, s", [(1e-320, 2e-320), (0.0, 1e-320),
                                  (-3e-310, -2e-310),
                                  (2.0 ** -1022, 2.0 ** -1022 + 5e-324)])
def test_gini_means_a_subnormal_gap_apart_are_the_diagonal_mean(r, s):
    rng = np.random.default_rng(13)
    x = 10.0 ** rng.uniform(-3.0, 3.0, 200)
    lam = rng.uniform(0.1, 1.0, 200)
    want = prefix_values(Gini(s, s), x, lam)
    for p, q in ((r, s), (s, r)):
        np.testing.assert_array_equal(prefix_values(Gini(p, q), x, lam), want)


@pytest.mark.parametrize("spec", [
    Power(0.5), Power(-1.0), Power(0.0), Gini(0.5, -0.5),
    QuasiArithmetic(power_gen(0.5)),
], ids=repr)
def test_long_prefixes_match_fsum_references(spec):
    rng = np.random.default_rng(17)
    n = 10 ** 5
    x = 10.0 ** rng.uniform(-3.0, 3.0, n)
    lam = rng.uniform(0.1, 1.0, n)
    ns = [1, 10, 1000, 54321, n]
    got = prefix_values(spec, x, lam, ns=ns)
    for k, g in zip(ns, got):
        xs, ws = x[:k], lam[:k]
        if isinstance(spec, Gini):
            want = (math.fsum(ws * xs ** 0.5)
                    / math.fsum(ws * xs ** -0.5))
        else:
            want = _fsum_power_mean(xs, ws, 0.5 if isinstance(
                spec, QuasiArithmetic) else spec.p)
        assert abs(g - want) <= 2e-14 * want, f"n={k}"


# Deviation prefixes: the named profiles' power and Gini means, and
# lane-wise Newton in log y for a custom profile without d1 and for a raw
# kernel.
DEVIATION_PREFIX_SPECS = [
    HomogeneousDeviation(log_gen()),
    HomogeneousDeviation(dev_power(0.5)),
    HomogeneousDeviation(dev_power(-1.0)),
    HomogeneousDeviation(dev_gini(0.5, -0.5)),
    HomogeneousDeviation(dev_gini(0.25, -0.75)),
    HomogeneousDeviation(_custom(dev_power(0.5), d1=None)),
    Deviation(difference_kernel()),
]


@st.composite
def prefix_samples(draw, centres, max_n=24):
    """Samples with repeated values and leading constant runs, weights with
    zeros after a positive first one, and requested prefix lengths in any
    order.  The samples spread over up to six decades around 10**c for a
    c drawn from `centres`."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    centre = draw(st.sampled_from(centres))
    pool = draw(st.lists(st.floats(centre - 3.0, centre + 3.0), min_size=1,
                         max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                          max_size=n))
    run = draw(st.integers(1, n))
    logx = [pool[picks[0]]] * run + [pool[i] for i in picks[run:]]
    lam = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                        min_size=n, max_size=n))
    lam[0] = draw(st.floats(0.5, 1.0))
    ns = draw(st.one_of(st.none(),
                        st.lists(st.integers(1, n), min_size=1, max_size=n)))
    return np.array([10.0 ** v for v in logx]), np.array(lam), ns


def _deviation_reference(spec, x, lam):
    """The mean of x, solved on its own by SciPy's brentq: the arithmetic
    mean for the difference kernel, else the root t = log(y / x[0]) of
    sum lam f(x / y) with fsum sums."""
    keep = lam > 0.0
    xs, ws = x[keep], lam[keep]
    if isinstance(spec, Deviation):
        return math.fsum(ws * xs) / math.fsum(ws)
    r = np.log(xs / xs[0])
    if r.min() == r.max():
        return xs[0]
    t = brentq(lambda t: math.fsum(ws * spec.f.fn(np.exp(r - t))),
               r.min(), r.max(), xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
    return xs[0] * math.exp(t)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DEVIATION_PREFIX_SPECS), st.data())
def test_deviation_prefixes_match_per_prefix_evaluation(spec, data):
    x, lam, ns = data.draw(prefix_samples([0.0, -290.0, 290.0]))
    got = prefix_values(spec, x, lam, ns=ns)
    want_ns = range(1, x.size + 1) if ns is None else ns
    for n, v in zip(want_ns, got):
        direct = _deviation_reference(spec, x[:n], lam[:n])
        assert abs(v - direct) <= 1e-13 * direct, f"n={n}"


@pytest.mark.parametrize("spec", DEVIATION_PREFIX_SPECS[:2]
                         + DEVIATION_PREFIX_SPECS[-2:])
def test_deviation_prefixes_with_one_weighted_sample_are_that_sample(spec):
    x = np.array([3.0, 0.1, 50.0, 7.0])
    got = prefix_values(spec, x, np.array([0.4, 0.0, 0.0, 0.0]))
    assert np.array_equal(got, np.full(4, 3.0))
    got = prefix_values(spec, np.full(4, 2.5), np.ones(4))
    assert np.array_equal(got, np.full(4, 2.5))


def _reversed_log(**fields):
    # declared sign-like, but sign f(u) = sign(1 - u)
    return GeneratorFunction(fn=lambda u: -np.log(u), sign_like=True,
                             **fields)


@pytest.mark.parametrize("spec", [
    HomogeneousDeviation(_reversed_log(d1=lambda u: -1.0 / u)),
    HomogeneousDeviation(_reversed_log()),
    Deviation(QuasideviationKernel(fn=lambda x, y: y - x)),
], ids=["newton", "newton-no-d1", "raw-kernel"])
def test_deviation_prefixes_reject_a_broken_sign_property(spec):
    x = np.array([1.0, 2.0, 8.0])
    # the one-sample prefix is its sample; the first mixed one raises
    assert prefix_values(spec, x, np.ones(3), ns=[1])[0] == 1.0
    with pytest.raises(BracketError):
        prefix_values(spec, x, np.ones(3))


BATCH_SPECS = SPECS + [
    Power(1e-9), Power(math.inf), Gini(-0.5, -0.5),
    QuasiArithmetic(replace(log_gen(), inverse=None)),
    HomogeneousDeviation(log_gen()),
    HomogeneousDeviation(_custom(dev_power(0.5), d1=None)),
]


@pytest.mark.parametrize("spec", BATCH_SPECS, ids=repr)
def test_batch_rows_match_one_row_prefixes(spec):
    # each row of a batch is evaluated as if it were alone, bit for bit,
    # whatever rows are beside it; rows mix constant runs and wide spreads
    rng = np.random.default_rng(11)
    x = 10.0 ** rng.uniform(-3, 3, (9, 30))
    x[1] = 2.5
    x[2, :12] = x[2, 0]
    lam = rng.uniform(0.0, 1.0, 30)
    lam[[0, 5, 6]] = (0.6, 0.0, 0.0)
    idx = np.array([0, 1, 4, 5, 6, 17, 29])
    got = spec.prefix(x, lam, idx)
    assert got.shape == (9, idx.size)
    for row in range(9):
        assert np.array_equal(got[row], spec.prefix(x[row], lam, idx))
    assert np.array_equal(spec.prefix(x[3:5], lam, idx), got[3:5])
    # and each column as if it were the only prefix requested
    for k in range(idx.size):
        assert np.array_equal(got[:, k:k + 1],
                              spec.prefix(x, lam, idx[k:k + 1]))


# wider than three passes of the chunked prefix sums
WIDE = 3 * 2 ** 15 + 17


@pytest.mark.parametrize("spec", [
    Power(0.5), Power(0.25), Power(0.0), Power(-1.0), Power(math.inf),
    Power(-math.inf), Gini(0.5, -0.5), Gini(-0.5, -0.5), Gini(0.3, 0.3),
    QuasiArithmetic(power_gen(0.5)), QuasiArithmetic(log_gen()),
], ids=repr)
def test_rows_wider_than_a_chunk_match_evaluate(spec):
    # two rows share one weight row with zeros; Power(0.25), Power(0) and
    # the quasiarithmetic means sum one shared row of terms times values
    # of each row.  Prefixes are requested out of order and repeated, and
    # end mid-row or at its last column; each is evaluate on its prefix,
    # bit for bit
    rng = np.random.default_rng(29)
    x = 10.0 ** rng.uniform(-3.0, 3.0, (2, WIDE))
    lam = rng.uniform(0.0, 1.0, WIDE)
    lam[rng.integers(1, WIDE, 300)] = 0.0
    lam[[0, 2 ** 16 + 5]] = (0.8, 0.0)
    for idx in ([2 ** 16 + 5, 3, 2 ** 15 - 1, 2 ** 15, 3, 2 ** 15 + 9],
                [WIDE - 1, 0, 2 ** 16 + 3, WIDE - 1]):
        idx = np.array(idx)
        got = spec.prefix(x, lam, idx)
        for r in range(2):
            want = [spec.evaluate(x[r, :i + 1], lam[:i + 1]) for i in idx]
            assert np.array_equal(got[r], want), (r, idx)


def test_prefix_values_subset_and_validation():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    got = prefix_values(Power(1.0), x, np.ones(4), ns=[2, 4])
    assert got == pytest.approx([1.5, 2.5])
    with pytest.raises(DomainError):
        prefix_values(Power(1.0), x, np.array([0.0, 1, 1, 1]))
    with pytest.raises(DomainError):
        prefix_values(Power(1.0), x, np.ones(4), ns=[0])
    with pytest.raises(DomainError):
        prefix_values(Power(1.0), x, np.ones(4), ns=[5])


def test_prefix_extreme_orders_track_running_extrema():
    x = np.array([2.0, 9.0, 1.0, 5.0])
    lam = np.ones(4)
    assert np.array_equal(prefix_values(Power(math.inf), x, lam),
                          [2.0, 9.0, 9.0, 9.0])
    assert np.array_equal(prefix_values(Power(-math.inf), x, lam),
                          [2.0, 2.0, 1.0, 1.0])


def test_prefix_gini_diagonal_long_run_stays_stable():
    # the p = q accumulators shift with the running max of log lam + p log x
    # and rescale what they carry; samples drifting across 600 decades
    # (at p = 50 the shift moves dozens of times on the rising run),
    # a fifth of them with zero weight, must neither overflow nor drift
    # from the 40-digit value
    rng = np.random.default_rng(3)
    n = 400
    for p in (2.0, -3.0, -0.5, -1e-3, 0.7, 50.0):
        for trend in (1.0, -1.0):
            logx = np.clip(trend * np.linspace(-295.0, 295.0, n)
                           + rng.uniform(-5.0, 5.0, n), -300.0, 300.0)
            x = 10.0 ** logx
            lam = np.where(rng.random(n) < 0.2, 0.0,
                           rng.uniform(0.0, 1.0, n))
            lam[0] = 1.0
            got = prefix_values(Gini(p, p), x, lam)
            assert np.all(np.isfinite(got))
            assert got[-1] == pytest.approx(Gini(p, p).evaluate(x, lam),
                                            rel=1e-11)
            with mpmath.workdps(40):
                xm = [mpmath.mpf(float(v)) for v in x]
                wm = [mpmath.mpf(float(l)) * v ** p for l, v in zip(lam, xm)]
                for k in (1, 2, 3, 17, 100, 201, 399, 400):
                    want = mpmath.exp(
                        mpmath.fsum(w * mpmath.log(v)
                                    for w, v in zip(wm[:k], xm))
                        / mpmath.fsum(wm[:k]))
                    assert abs(got[k - 1] - want) <= 1e-12 * want, \
                        f"p={p}, trend={trend}, n={k}"


# -- family predicates and specifier text ------------------------------------


def test_is_homogeneous_classification():
    assert Power(0.5).homogeneous
    assert Gini(2.0, 1.0).homogeneous
    assert QuasiArithmetic(power_gen(2.0)).homogeneous
    assert not QuasiArithmetic(__import__(
        "hardymeans.generators", fromlist=["exp_gen"]).exp_gen()).homogeneous
    assert Deviation(difference_kernel()).homogeneous
    assert HomogeneousDeviation(dev_power(0.5)).homogeneous


def test_is_symmetric_monotone_classification():
    assert Power(2.0).symmetric_monotone
    assert Gini(0.5, -0.5).symmetric_monotone
    assert not Gini(2.0, 1.0).symmetric_monotone  # off the band
    assert HomogeneousDeviation(dev_power(0.5)).symmetric_monotone
    assert not Deviation(difference_kernel()).symmetric_monotone


@pytest.mark.parametrize("text,want", [
    ("power:p=0.5", Power(0.5)),
    ("power:p=inf", Power(math.inf)),
    ("power:p=-inf", Power(-math.inf)),
    ("gini:p=0.5,q=-0.5", Gini(0.5, -0.5)),
])
def test_parse_mean_value_families(text, want):
    assert parse_mean(text) == want


def test_parse_mean_generator_families():
    spec = parse_mean("qa:g=log")
    assert isinstance(spec, QuasiArithmetic) and spec.g.family == ("log",)
    spec = parse_mean("qa:g=pow:2")
    assert spec.g.family == ("pow-map", 2.0)
    spec = parse_mean("devmean:f=pow:0.5")
    assert isinstance(spec, HomogeneousDeviation)
    assert spec.f.family == ("power", 0.5)
    spec = parse_mean("devmean:f=gini:0.5,-0.5")
    assert spec.f.family == ("gini", 0.5, -0.5)


@pytest.mark.parametrize("bad", [
    "power:p=abc", "power:q=1", "nonsense", "gini:p=1", "qa:g=盒",
    "devmean:f=exp", "power:p=nan",
])
def test_parse_mean_rejects(bad):
    with pytest.raises(UsageError):
        parse_mean(bad)


@pytest.mark.parametrize("text", [
    "power:p=0.5", "power:p=inf", "gini:p=0.5,q=-0.5", "qa:g=log",
    "qa:g=pow:2", "qa:g=exp", "devmean:f=log", "devmean:f=pow:0.5",
    "devmean:f=gini:0.5,-0.5",
])
def test_canonical_round_trip(text):
    spec = parse_mean(text)
    assert parse_mean(spec.canonical()).__class__ is spec.__class__
    assert parse_mean(spec.canonical()).canonical() == spec.canonical()


# -- the family table ------------------------------------------------------

# (spec, canonical text or None, homogeneous, symmetric monotone,
#  closed constant at eta = 0 or None when the closed route raises)
FAMILY_TABLE = [
    (Power(0.5), "power:p=0.5", True, True, 4.0),
    (Gini(0.5, -0.5), "gini:p=0.5,q=-0.5", True, True, 3.0),
    (Gini(0.25, 0.25), "gini:p=0.25,q=0.25", True, False, None),
    (QuasiArithmetic(power_gen(2.0)), "qa:g=pow:2", True, True, math.inf),
    (QuasiArithmetic(replace(power_gen(0.5), inverse=None)), "qa:g=pow:0.5",
     True, True, 4.0),
    (HomogeneousDeviation(log_gen()), "devmean:f=log", True, True, math.e),
    (HomogeneousDeviation(dev_power(0.5)), "devmean:f=pow:0.5", True, True,
     4.0),
    (HomogeneousDeviation(dev_gini(0.5, -0.5)), "devmean:f=gini:0.5,-0.5",
     True, True, 3.0),
    (HomogeneousDeviation(replace(dev_power(0.5), d1=None)),
     "devmean:f=pow:0.5", True, True, 4.0),
    (Deviation(difference_kernel()), None, True, False, None),
]


@pytest.mark.parametrize("spec,text,homogeneous,monotone,closed",
                         FAMILY_TABLE, ids=[
                             "power", "gini", "gini-diagonal", "qa",
                             "qa-no-inverse", "devmean-log", "devmean-pow",
                             "devmean-gini", "devmean-no-d1", "difference"])
def test_family_table(spec, text, homogeneous, monotone, closed):
    from hardymeans.hardy import constant_closed

    if text is None:
        with pytest.raises(UsageError):
            spec.canonical()
    else:
        assert spec.canonical() == text
        assert parse_mean(spec.canonical()).canonical() == spec.canonical()
    assert spec.homogeneous is homogeneous
    assert spec.symmetric_monotone is monotone
    if closed is None:
        with pytest.raises(DomainError):
            constant_closed(spec, 0.0)
    else:
        assert constant_closed(spec, 0.0) == pytest.approx(closed, rel=1e-9)
    x = np.array([1.0, 4.0, 2.0, 9.0])
    lam = np.array([1.0, 0.5, 0.0, 2.0])
    got = prefix_values(spec, x, lam)
    for n in range(1, 5):
        assert got[n - 1] == pytest.approx(spec.evaluate(x[:n], lam[:n]),
                                           rel=1e-11)


def test_minimal_family_needs_only_prefix():
    from dataclasses import dataclass

    from hardymeans.hardy import constant_closed, constant_root
    from hardymeans.means import MeanSpec

    @dataclass(frozen=True)
    class Midrange(MeanSpec):
        def prefix(self, x, lam, idx, lengths=None):
            sup = np.where(lam > 0.0, x, np.nan)
            return 0.5 * (np.fmin.accumulate(sup, axis=-1)
                          + np.fmax.accumulate(sup, axis=-1))[..., idx]

    spec = Midrange()
    x = np.array([3.0, 1.0, 7.0, 2.0])
    lam = np.array([1.0, 1.0, 0.0, 1.0])
    np.testing.assert_array_equal(prefix_values(spec, x, lam),
                                  [3.0, 2.0, 2.0, 2.0])
    np.testing.assert_array_equal(prefix_values(spec, x, lam, ns=[4, 1]),
                                  [2.0, 3.0])
    assert spec.evaluate(x, lam) == 2.0
    assert spec.evaluate([7.0, 3.0], [0.0, 1.0]) == 3.0
    assert not spec.homogeneous and not spec.symmetric_monotone
    with pytest.raises(DomainError):
        constant_closed(spec, 0.5)
    with pytest.raises(DomainError):
        constant_root(spec, 0.5)
    with pytest.raises(UsageError):
        spec.canonical()

    @dataclass(frozen=True)
    class Bare(MeanSpec):
        pass

    with pytest.raises(DomainError, match="unknown mean spec"):
        prefix_values(Bare(), x, lam)
    with pytest.raises(DomainError, match="unknown mean spec"):
        Bare().evaluate(x, lam)


def test_custom_deviation_profile_has_a_closed_constant_only_at_inf():
    # a profile that names no family: +inf when its reciprocal profile is
    # not integrable, and otherwise a pointer to the root route
    f = replace(dev_power(0.5), family=("custom",))
    spec = HomogeneousDeviation(replace(f, recip_integrable=False))
    assert spec.closed_constant(0.5) == math.inf
    with pytest.raises(DomainError, match="use the root route"):
        HomogeneousDeviation(f).closed_constant(0.5)
