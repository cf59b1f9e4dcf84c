"""Mean families: hand oracles, cross-family identities, structural laws."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from hardymeans import means
from hardymeans.errors import (BracketError, DomainError, HardyMeansError,
                               InversionError, UsageError)
from hardymeans.generators import (GeneratorFunction, QuasideviationKernel,
                                   dev_gini, dev_power, difference_kernel,
                                   exp_gen, log_gen, power_gap_kernel,
                                   power_gen, ratio_kernel)
from hardymeans.means import (Deviation, Gini, HomogeneousDeviation, Power,
                              QuasiArithmetic, gini_mean, homogeneous_devmean,
                              parse_mean, power_mean, prefix_values,
                              quasiarithmetic_mean, quasideviation_mean)
from hardymeans.rootfind import newton_lanes

ONES2 = np.array([1.0, 1.0])
X14 = np.array([1.0, 4.0])


# -- hand-computed values ---------------------------------------------------


def test_power_mean_small_cases():
    assert power_mean(X14, ONES2, 0.0) == pytest.approx(2.0, abs=1e-14)
    assert power_mean(X14, ONES2, 0.5) == pytest.approx(2.25, abs=1e-14)
    assert power_mean([1.0, 2.0], [2.0, 1.0], 1.0) == pytest.approx(4.0 / 3.0)


def test_power_mean_limits():
    x = [0.5, 3.0, 2.0]
    lam = [1.0, 1.0, 2.0]
    assert power_mean(x, lam, math.inf) == 3.0
    assert power_mean(x, lam, -math.inf) == 0.5
    assert power_mean(x, lam, 1e16) == 3.0  # beyond the overflow threshold
    assert power_mean(x, lam, -1e16) == 0.5


def test_power_mean_wide_dynamic_range():
    # naive x**p at p = 0.9 would overflow for x ~ 1e300
    x = np.array([1e-300, 1e300])
    val = power_mean(x, ONES2, 0.9)
    assert np.isfinite(val)
    # dominated by the large sample: (x2**0.9 / 2)**(1/0.9)
    want = math.exp((0.9 * math.log(1e300) - math.log(2.0)) / 0.9)
    assert val == pytest.approx(want, rel=1e-12)


def test_gini_mean_small_cases():
    assert gini_mean([1.0, 2.0], [2.0, 1.0], 1.0, 0.0) == pytest.approx(4.0 / 3.0)
    assert gini_mean(X14, ONES2, 0.0, 0.0) == pytest.approx(2.0)
    # (sum x**1/2) / (sum x**-1/2) = 3 / 1.5
    assert gini_mean(X14, ONES2, 0.5, -0.5) == pytest.approx(2.0, abs=1e-14)


def test_gini_mean_is_symmetric_in_pq():
    x = np.array([0.3, 5.0, 2.0])
    lam = np.array([1.0, 2.0, 0.5])
    assert gini_mean(x, lam, 0.7, -1.3) == pytest.approx(
        gini_mean(x, lam, -1.3, 0.7), rel=1e-15)


def test_gini_diagonal_oracle():
    # p = q limit: exp( sum lam x**p ln x / sum lam x**p )
    x = np.array([0.5, 2.0, 7.0])
    lam = np.array([1.0, 3.0, 0.25])
    w = lam * x ** 2.0
    want = math.exp(float(np.dot(w, np.log(x)) / w.sum()))
    assert gini_mean(x, lam, 2.0, 2.0) == pytest.approx(want, rel=1e-14)


def test_quasiarithmetic_small_cases():
    assert quasiarithmetic_mean(X14, ONES2, log_gen()) == pytest.approx(2.0)
    # identity generator: weighted arithmetic mean
    assert quasiarithmetic_mean([1.0, 2.0], [2.0, 1.0],
                                power_gen(1.0)) == pytest.approx(4.0 / 3.0)
    assert quasiarithmetic_mean(X14, ONES2, power_gen(0.5)) == pytest.approx(
        power_mean(X14, ONES2, 0.5), rel=1e-14)


def test_quasiarithmetic_without_inverse_roots():
    g = replace(power_gen(0.5), inverse=None)
    got = quasiarithmetic_mean(X14, ONES2, g)
    assert got == pytest.approx(2.25, rel=1e-10)


def test_quasiarithmetic_nonmonotone_generator_fails_to_invert():
    from hardymeans.generators import GeneratorFunction

    g = GeneratorFunction(fn=lambda x: (np.asarray(x, dtype=float) - 2.0) ** 2,
                          label="(x-2)^2")
    # (x-2)^2 on (1,2,3) averages to 2/3, below the value at both endpoints,
    # so no bracket exists on [min x, max x]
    with pytest.raises(InversionError):
        quasiarithmetic_mean([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], g)


def test_quasiarithmetic_tiny_unbracketed_values_fail_to_invert():
    from hardymeans.generators import GeneratorFunction

    # the same shape scaled to 1e-200: the product of the two endpoint
    # values underflows to zero, their signs still agree
    g = GeneratorFunction(
        fn=lambda x: 1e-200 * (np.asarray(x, dtype=float) - 2.0) ** 2,
        label="1e-200 (x-2)^2")
    with pytest.raises(InversionError):
        quasiarithmetic_mean([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], g)


def test_quasideviation_small_cases():
    assert quasideviation_mean([1.0, 3.0], ONES2,
                               difference_kernel()) == pytest.approx(2.0)
    assert quasideviation_mean([1.0, 2.0], [2.0, 1.0],
                               difference_kernel()) == pytest.approx(4.0 / 3.0)
    assert quasideviation_mean(X14, ONES2,
                               ratio_kernel(log_gen())) == pytest.approx(2.0)
    # homogeneous kernels at scales where Brent's secant step, or the
    # kernel values themselves, under- or overflow in y
    for scale in (1e-160, 1e-300, 1e290):
        x = [scale, scale / 10.0]
        assert quasideviation_mean(x, [1.0, 0.5], difference_kernel()) \
            == pytest.approx(0.7 * scale, rel=1e-13)
        # (x**2 - y**2 = 0): y**2 = (1 + 0.005) / 1.5 scale**2
        assert quasideviation_mean(x, [1.0, 0.5], power_gap_kernel(2.0)) \
            == pytest.approx(math.sqrt(1.005 / 1.5) * scale, rel=1e-13)


def test_quasideviation_rejects_sign_violating_kernel():
    from hardymeans.generators import QuasideviationKernel
    bogus = QuasideviationKernel(fn=lambda x, y: np.asarray(x) + y)
    with pytest.raises(BracketError):
        quasideviation_mean(X14, ONES2, bogus)


def test_homogeneous_devmean_small_cases():
    assert homogeneous_devmean(X14, ONES2, dev_power(0.5)) == pytest.approx(
        2.25, rel=1e-12)
    assert homogeneous_devmean(X14, ONES2, log_gen()) == pytest.approx(
        2.0, rel=1e-12)
    # f = (u**-1/2 - u**1/2)/(-1) is the Gini(1/2,-1/2) profile
    assert homogeneous_devmean(X14, ONES2, dev_gini(-0.5, 0.5)) == pytest.approx(
        2.0, rel=1e-12)


def test_homogeneous_devmean_needs_sign_property():
    with pytest.raises(DomainError):
        homogeneous_devmean(X14, ONES2, power_gen(0.5))


# -- input validation -------------------------------------------------------


@pytest.mark.parametrize("x,lam", [
    ([], []),
    ([1.0, -2.0], [1.0, 1.0]),
    ([1.0, 0.0], [1.0, 1.0]),
    ([1.0, 2.0], [1.0, -1.0]),
    ([1.0, 2.0], [0.0, 0.0]),
    ([1.0, 2.0], [1.0]),
    ([1.0, math.nan], [1.0, 1.0]),
])
def test_rejects_bad_inputs(x, lam):
    with pytest.raises(DomainError):
        power_mean(x, lam, 1.0)


def test_rejects_bad_orders():
    with pytest.raises(DomainError):
        power_mean(X14, ONES2, math.nan)
    with pytest.raises(DomainError):
        gini_mean(X14, ONES2, math.inf, 0.0)


def test_zero_weight_samples_are_ignored():
    x = np.array([1.0, 500.0, 4.0])
    lam = np.array([1.0, 0.0, 1.0])
    assert power_mean(x, lam, 0.5) == power_mean(X14, ONES2, 0.5)
    assert power_mean(x, lam, math.inf) == 4.0


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
    assert gini_mean(x, lam, p, 0.0) == power_mean(x, lam, p)


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(), st.sampled_from([-2.0, -0.5, 0.5, 2.0]))
def test_quasiarithmetic_power_generator_matches_power_mean(xlam, p):
    x, lam = xlam
    a = quasiarithmetic_mean(x, lam, power_gen(p))
    b = power_mean(x, lam, p)
    assert abs(a - b) <= 1e-12 * abs(b)


@settings(max_examples=60, deadline=None)
@given(samples_and_weights(),
       st.sampled_from([(0.5, -0.5), (1.0, 0.5), (-2.0, 0.3), (2.0, -1.0)]))
def test_gini_factorization(xlam, pq):
    # G_{p,q} = P_p**(p/(p-q)) * P_q**(q/(q-p)) for p != q
    x, lam = xlam
    p, q = pq
    g = gini_mean(x, lam, p, q)
    want = (power_mean(x, lam, p) ** (p / (p - q))
            * power_mean(x, lam, q) ** (q / (q - p)))
    assert abs(g - want) <= 1e-12 * abs(want)


# -- prefix evaluation -------------------------------------------------------


EVERY_FAMILY = SPECS + [
    Power(1e-9), Power(-1e-9), Power(math.inf), Power(-math.inf),
    Gini(-0.5, -0.5), QuasiArithmetic(replace(log_gen(), inverse=None)),
    HomogeneousDeviation(log_gen()),
    HomogeneousDeviation(replace(dev_power(0.5), d1=None)),
]


def _outcome(call):
    """call()'s value, or the type of the library error it raises."""
    try:
        return call()
    except HardyMeansError as exc:
        return type(exc)


@pytest.mark.parametrize("spec", EVERY_FAMILY, ids=repr)
def test_prefix_values_match_per_prefix_evaluation(spec):
    # the mean of a prefix depends on that prefix alone: the whole run of
    # prefixes, one requested prefix and evaluate on the prefix give the
    # same bits, or the same error.  The wide rows start at 1e-300 and
    # hold one sample near 1e300 among samples near 1e-300; the second
    # weights grow to 2**975, so a later weight is always the largest.
    rng = np.random.default_rng(7)
    lam = rng.uniform(0.0, 1.0, 40)
    lam[0] = 0.7
    wide = 10.0 ** rng.uniform(-300.0, -299.0, (2, 40))
    wide[:, 0] = 1e-300
    wide[:, 23] = 10.0 ** rng.uniform(299.0, 300.0, 2)
    for x in [10.0 ** rng.uniform(-2, 2, 40), *wide]:
        for w in (lam, np.ldexp(lam, 25 * np.arange(40))):
            one = [_outcome(lambda: prefix_values(spec, x, w, ns=[n])[0])
                   for n in range(1, 41)]
            for n in range(1, 41):
                alone = _outcome(lambda: spec.evaluate(x[:n], w[:n]))
                assert alone == one[n - 1]
            every = _outcome(lambda: list(prefix_values(spec, x, w)))
            assert every == one if isinstance(every, list) else every in one


def test_deviation_evaluate_is_one_newton_solve(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return newton_lanes(*args, **kwargs)

    monkeypatch.setattr(means, "newton_lanes", counting)
    x = 10.0 ** np.random.default_rng(3).uniform(-2.0, 2.0, 50)
    for f in (dev_power(0.5), dev_gini(0.5, -0.5), log_gen()):
        calls.clear()
        HomogeneousDeviation(f).evaluate(x, np.ones(50))
        assert len(calls) == 1


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
    assert quasiarithmetic_mean(x, [1.0, 0.0], exp_gen()) == 1.0


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
    assert power_mean(x, lam, p) == got[-1]


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


# Deviation prefixes: Newton in log y for profiles with a declared f',
# Brent in y for the rest (a profile without d1, a raw kernel).
DEVIATION_PREFIX_SPECS = [
    HomogeneousDeviation(log_gen()),
    HomogeneousDeviation(dev_power(0.5)),
    HomogeneousDeviation(dev_power(-1.0)),
    HomogeneousDeviation(dev_gini(0.5, -0.5)),
    HomogeneousDeviation(dev_gini(0.25, -0.75)),
    HomogeneousDeviation(replace(dev_power(0.5), d1=None)),
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
], ids=["newton", "brent-profile", "brent-kernel"])
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
    HomogeneousDeviation(replace(dev_power(0.5), d1=None)),
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


def test_minimal_family_needs_only_evaluate():
    from dataclasses import dataclass

    from hardymeans.hardy import constant_closed, constant_root
    from hardymeans.means import MeanSpec

    @dataclass(frozen=True)
    class Midrange(MeanSpec):
        def evaluate(self, x, lam):
            sup = np.asarray(x)[np.asarray(lam) > 0.0]
            return 0.5 * float(sup.min() + sup.max())

    spec = Midrange()
    x = np.array([3.0, 1.0, 7.0, 2.0])
    lam = np.array([1.0, 1.0, 0.0, 1.0])
    np.testing.assert_array_equal(prefix_values(spec, x, lam),
                                  [3.0, 2.0, 2.0, 2.0])
    np.testing.assert_array_equal(prefix_values(spec, x, lam, ns=[4, 1]),
                                  [2.0, 3.0])
    assert not spec.homogeneous and not spec.symmetric_monotone
    with pytest.raises(DomainError):
        constant_closed(spec, 0.5)
    with pytest.raises(DomainError):
        constant_root(spec, 0.5)
    with pytest.raises(UsageError):
        spec.canonical()
