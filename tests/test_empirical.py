"""Witness traces, partial limit sums, and the fuzzing harness."""

import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardymeans import empirical, hardy
from hardymeans.empirical import (EmpiricalTrace, PowerProbe, VerifyReport,
                                  est_lower_bound, genA_limit, genA_partial,
                                  hardy_ratio, make_sequence,
                                  verify_inequality)
from hardymeans.errors import DomainError, UsageError, ViolationFound
from hardymeans.generators import difference_kernel, log_gen
from hardymeans.hardy import C_of, gini_constant
from hardymeans.means import (Deviation, Gini, Power, QuasiArithmetic,
                              parse_mean, prefix_values)
from hardymeans.rootfind import RTOL_FLOOR
from hardymeans.weights import WeightSequence, parse_weights

ONES = WeightSequence.ones()
GEO2 = WeightSequence.geometric(2.0)


# -- hardy_ratio -------------------------------------------------------------


def test_ratio_of_constants_is_one():
    assert hardy_ratio(Power(1.0), ONES, "constant:c=1", 10) == pytest.approx(
        1.0, rel=1e-14)


def test_ratio_of_reciprocals_stays_below_e():
    # x_n = 1/n is the witness sequence for ones weights
    ratio = hardy_ratio(Power(0.0), ONES, "witness:y=1", 10 ** 5)
    assert ratio <= math.e
    assert ratio > 1.0


def test_ratio_matches_direct_summation_at_witness():
    N = 10 ** 4
    k = np.arange(1, N + 1, dtype=float)
    root_sums = np.cumsum(k ** -0.5)
    means = (root_sums / k) ** 2
    direct = means.sum() / (1.0 / k).sum()
    got = hardy_ratio(Power(0.5), ONES, "witness:y=1", N)
    assert got == pytest.approx(direct, rel=1e-10)
    # the per-prefix estimate (Lambda_n) M_n is the quantity that closes
    # in on the constant at this depth, not the ratio of the two sums
    assert N * means[-1] == pytest.approx(4.0, rel=0.02)


def test_ratio_requires_length_for_rules():
    with pytest.raises(DomainError):
        hardy_ratio(Power(0.5), ONES, "constant:c=1")


def test_ratio_rejects_nonpositive_samples():
    with pytest.raises(DomainError):
        hardy_ratio(Power(0.5), ONES, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        hardy_ratio(Power(0.5), ONES, np.array([1.0, -3.0]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40))
def test_ratio_never_exceeds_the_constant(xs):
    x = np.asarray(xs)
    assert hardy_ratio(Power(0.5), ONES, x) <= 4.0 * (1.0 + 1e-9)
    assert (hardy_ratio(Power(0.5), GEO2, x)
            <= C_of(0.5, 0.5) * (1.0 + 1e-9))


# -- est_lower_bound ---------------------------------------------------------


def test_witness_trace_approaches_four():
    trace = est_lower_bound(Power(0.5), ONES, 1.0, 10 ** 6)
    assert np.all(np.diff(trace.ns) > 0)
    assert np.all(np.isfinite(trace.values))
    # nondecreasing toward the constant, never past it
    assert np.all(np.diff(trace.values) > -1e-10)
    assert np.all(trace.values <= 4.0 * (1.0 + 1e-9))
    assert 3.98 <= trace.tail_inf() <= 4.0


def test_witness_trace_geometric_weights():
    trace = est_lower_bound(Power(0.0), GEO2, 1.0, 200)
    assert trace.tail_inf() == pytest.approx(2.0, rel=1e-3)


def test_witness_trace_diverges_for_arithmetic_mean():
    trace = est_lower_bound(Power(1.0), ONES, 1.0, 100)
    assert np.all(np.diff(trace.values) > 0)
    # the trace is the harmonic number H_n
    assert trace.values[-1] == pytest.approx(
        np.sum(1.0 / np.arange(1, 101.0)), rel=1e-12)
    assert trace.values[-1] > 5.0


def test_witness_trace_input_validation():
    with pytest.raises(DomainError):
        est_lower_bound(Power(0.5), ONES, 0.0, 100)
    with pytest.raises(DomainError):
        est_lower_bound(Power(0.5), ONES, 1.0, 0)
    # 2**1100 overflows the prefix sums; that is an error, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="prefix sums leave float range"):
            est_lower_bound(Power(0.0), WeightSequence.geometric(2.0), 1.0,
                            1100)
        with pytest.raises(DomainError, match="prefix sums leave float range"):
            make_sequence("witness:y=1", WeightSequence.geometric(2.0), 1100)


def test_tail_inf_reads_second_half():
    trace = EmpiricalTrace(
        ns=np.arange(1, 11),
        values=np.array([5.0, 4.0, 3.0, 2.0, 1.0, 2.0, 0.5, 3.0, 4.0, 5.0]),
        label="probe")
    assert trace.tail_inf() == 0.5


def test_trace_csv_format():
    trace = est_lower_bound(Power(0.5), ONES, 1.0, 50, grid=10)
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == trace.ns.size + 1
    n, v = lines[1].split(",")
    assert int(n) == int(trace.ns[0])
    assert float(v) == pytest.approx(trace.values[0], rel=1e-15)


# -- genA --------------------------------------------------------------------


def test_partial_sum_of_identity_is_exact():
    # phi(u) = u: sum k/n^2 = (n+1)/(2n)
    assert genA_partial(PowerProbe(-1.0), ONES, 100) == pytest.approx(
        0.505, abs=1e-15)
    assert genA_partial(PowerProbe(-1.0), ONES, 10 ** 5) == pytest.approx(
        (10 ** 5 + 1) / (2 * 10 ** 5), rel=1e-12)


def test_partial_sum_single_term():
    assert genA_partial(PowerProbe(0.5), ONES, 1) == pytest.approx(1.0)


def test_partial_sum_inverse_root_against_direct_summation():
    n = 10 ** 4
    ks = np.arange(1, n + 1, dtype=float)
    direct = float(np.sum(np.sqrt(n / ks)) / n)
    got = genA_partial(PowerProbe(0.5), ONES, n)
    assert got == pytest.approx(direct, rel=1e-12)
    assert got == pytest.approx(1.9854, abs=5e-4)


def test_partial_sum_geometric_reaches_its_limit():
    got = genA_partial(PowerProbe(0.5), GEO2, 100)
    assert got == pytest.approx(genA_limit(0.5, 0.5), rel=1e-12)


def test_partial_sum_survives_overflowing_weights():
    # 2**5000 is far beyond float range; the log-space path must not care
    got = genA_partial(PowerProbe(0.5), GEO2, 5000)
    assert got == pytest.approx(genA_limit(0.5, 0.5), rel=1e-12)


def test_partial_sum_keeps_its_digits_on_geometric_weights_at_depth():
    # lam_k = 2**(k-1) and Lam_k = 2**k - 1, each term to 30 digits; the
    # terms below k = n - 1000 sum to under 2**-500
    n, p = 10 ** 6, 0.5
    with mpmath.workdps(30):
        two = mpmath.mpf(2)
        lam_n = two ** n - 1
        want = math.fsum(float(two ** (k - 1) / lam_n
                               * ((two ** k - 1) / lam_n) ** -p)
                         for k in range(n - 1000, n + 1))
    got = genA_partial(PowerProbe(p), GEO2, n)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert want == pytest.approx(1.0 + 0.5 ** 0.5, rel=1e-15, abs=0.0)


def test_partial_sum_generic_callable_agrees_with_probe():
    def phi(u):
        return np.sqrt(1.0 / np.asarray(u, dtype=float))

    a = genA_partial(phi, ONES, 1000)
    b = genA_partial(PowerProbe(0.5), ONES, 1000)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_partial_sum_rejects_bad_phi_values():
    with pytest.raises(DomainError):
        genA_partial(lambda u: np.log(np.asarray(u) - 0.5), ONES, 100)
    with pytest.raises(DomainError):
        genA_partial(PowerProbe(0.5), ONES, 0)


def test_limit_values():
    assert genA_limit(0.5, 0.0) == pytest.approx(2.0, rel=1e-15)
    assert genA_limit(0.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert genA_limit(0.0, 0.7) == pytest.approx(1.0, rel=1e-15)
    assert genA_limit(0.5, 0.5) == pytest.approx(
        0.5 / (1.0 - 2.0 ** -0.5), rel=1e-14)
    assert genA_limit(-1.0, 0.0) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("p, eta", [
    (1.0, 0.0), (1.5, 0.0), (math.nan, 0.0),
    (0.5, 1.0), (0.5, -0.1), (0.5, math.nan),
])
def test_limit_domain(p, eta):
    with pytest.raises(DomainError):
        genA_limit(p, eta)


# -- make_sequence -----------------------------------------------------------


def test_sequence_rules(tmp_path):
    assert np.all(make_sequence("constant:c=2.5", ONES, 4) == 2.5)
    np.testing.assert_allclose(make_sequence("witness:y=2", GEO2, 3),
                               [2.0 / 1.0, 2.0 / 3.0, 2.0 / 7.0])
    a = make_sequence("random:seed=11", ONES, 64)
    b = make_sequence("random:seed=11", ONES, 64)
    c = make_sequence("random:seed=12", ONES, 64)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 1e-3) & (a <= 1e3))

    path = tmp_path / "xs.txt"
    path.write_text("1.5\n\n2.5\n3.5\n")
    np.testing.assert_array_equal(
        make_sequence(f"file:{path}", ONES, 3), [1.5, 2.5, 3.5])

    np.testing.assert_array_equal(
        make_sequence([1.0, 2.0], ONES, 2), [1.0, 2.0])


def test_sequence_rule_validation():
    with pytest.raises(DomainError):
        make_sequence([1.0, 2.0], ONES, 3)
    with pytest.raises(UsageError):
        make_sequence("cantor:q=3", ONES, 5)
    with pytest.raises(UsageError):
        make_sequence("constant:k=1", ONES, 5)
    with pytest.raises(DomainError):
        make_sequence("witness:y=0", ONES, 5)


# -- verify_inequality -------------------------------------------------------


def test_fuzzing_passes_at_the_sharp_constant():
    report = verify_inequality(Power(0.5), ONES, 4.0, trials=200, seed=0,
                               N=50)
    assert report.passed
    assert report.max_ratio <= 4.0 * (1.0 + 1e-9)
    assert report.max_ratio > 1.0
    assert 0 <= report.max_ratio_trial < 200
    assert report.ones_constant == pytest.approx(4.0)
    assert report.eta == 0.0


def test_fuzzing_passes_for_weighted_gini():
    constant = gini_constant(0.5, -0.5, 0.5)
    report = verify_inequality(Gini(0.5, -0.5), GEO2, constant,
                               trials=200, seed=0, N=50)
    assert report.passed
    assert report.max_ratio <= constant * (1.0 + 1e-9)
    assert report.eta == pytest.approx(0.5)
    # the unweighted constant dominates every weighted one (envelope)
    assert report.ones_constant == pytest.approx(gini_constant(0.5, -0.5,
                                                               0.0))


def test_fuzzing_is_deterministic():
    kw = dict(trials=60, seed=7, N=30)
    r1 = verify_inequality(Power(0.5), ONES, 4.0, **kw)
    r2 = verify_inequality(Power(0.5), ONES, 4.0, **kw)
    assert r1 == r2
    assert r1.to_dict() == r2.to_dict()


def test_fuzzing_reports_a_witness_when_the_constant_is_too_small():
    with pytest.raises(ViolationFound) as excinfo:
        verify_inequality(Power(0.5), ONES, 1.0, trials=200, seed=0, N=50)
    exc = excinfo.value
    assert exc.ratio is not None and exc.ratio > 1.0 * (1.0 + 1e-9)
    assert exc.check == "constant"
    assert exc.trial is not None and exc.trial >= 0
    assert exc.sequence and all(v > 0 for v in exc.sequence)
    # the stored witness reproduces the reported ratio
    assert hardy_ratio(Power(0.5), ONES,
                       np.asarray(exc.sequence)) == pytest.approx(exc.ratio)


def test_fuzzing_skips_envelope_for_asymmetric_means():
    report = verify_inequality(Deviation(difference_kernel()), ONES,
                               math.inf, trials=10, seed=1, N=20)
    assert report.ones_constant is None
    assert math.isnan(report.to_dict()["ones_constant"])


def test_fuzzing_input_validation():
    with pytest.raises(DomainError):
        verify_inequality(Power(0.5), ONES, 4.0, trials=0)
    with pytest.raises(DomainError):
        verify_inequality(Power(0.5), ONES, 4.0, N=0)


# -- batched trials ----------------------------------------------------------

# The fuzz families, and one of each family that evaluates its rows one by
# one: the Gini diagonal, a quasiarithmetic mean without an inverse and a
# raw deviation kernel.
BATCH_FAMILIES = [
    (parse_mean("power:p=0.5"), True), (parse_mean("gini:p=0.5,q=-0.5"), True),
    (parse_mean("qa:g=log"), True), (parse_mean("devmean:f=log"), False),
    (parse_mean("devmean:f=pow:0.5"), False), (Gini(-0.5, -0.5), True),
    (QuasiArithmetic(replace(log_gen(), inverse=None)), False),
    (Deviation(difference_kernel()), False),
]
# Two prefix solves within 1e-13 lo/hi + RTOL_FLOOR (1 + |log(y/x_1)|)
# of the root each, samples within six decades: a ratio of such means
# moves by at most twice that.
DEVIATION_RTOL = 2.0 * (1e-13 + RTOL_FLOOR * (1.0 + math.log(1e6)))


def _loop_ratio(spec, w, x):
    """R(x) as one prefix_values call and two dot products."""
    lam = w.lam_array(x.size)
    return float(np.dot(lam, prefix_values(spec, x, lam))
                 / np.dot(lam, x))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), first=st.integers(0, 10 ** 6))
@pytest.mark.parametrize("weights", ["ones", "geometric:a=2",
                                     "powerlaw:alpha=1"])
@pytest.mark.parametrize("spec,closed", BATCH_FAMILIES,
                         ids=[repr(s) for s, _ in BATCH_FAMILIES])
def test_batched_ratios_match_one_trial_at_a_time(spec, closed, weights,
                                                  seed, first):
    w = parse_weights(weights)
    x, lengths = empirical._draw_trials(seed, first, first + 12, 30)
    ratios = empirical._ratios(spec, x, lengths, w.lam_array(30))
    rtol = 1e-15 if closed else DEVIATION_RTOL
    for j, n in enumerate(lengths):
        row = x[j, :n]
        for want in (hardy_ratio(spec, w, row), _loop_ratio(spec, w, row)):
            assert abs(ratios[j] - want) <= rtol * want, f"trial {first + j}"


def _fsum_ratio_power_half(x, lam):
    """R(x) for Power(1/2) with math.fsum sums."""
    terms = list(lam * np.sqrt(x))
    weights = list(lam)
    means = [(math.fsum(terms[:n]) / math.fsum(weights[:n])) ** 2
             for n in range(1, x.size + 1)]
    return math.fsum(lam * np.array(means)) / math.fsum(lam * x)


def test_ratios_with_weight_sums_beyond_float_range_stay_finite():
    # geometric weights up to 2**1023 at N = 1024: sum lam x overflows
    # unless lam is scaled first; trial 110 of seed 1 fills all of N
    N, trials = 1024, 200
    lam = GEO2.lam_array(N)
    scaled = np.ldexp(lam, -1023)  # the same weights, in float range
    x, lengths = empirical._draw_trials(1, 0, trials, N)
    report = verify_inequality(Power(0.5), GEO2, C_of(0.5, 0.5),
                               trials=trials, seed=1, N=N)
    j = report.max_ratio_trial
    best = x[j, :lengths[j]]
    assert report.max_ratio == pytest.approx(
        _fsum_ratio_power_half(best, scaled[:best.size]), rel=1e-13)
    assert lengths[110] == N
    assert hardy_ratio(Power(0.5), GEO2, x[110]) == pytest.approx(
        _fsum_ratio_power_half(x[110], scaled), rel=1e-13)


def test_a_ratio_that_is_not_finite_is_a_domain_error():
    with pytest.raises(DomainError):
        hardy_ratio(Power(0.5), ONES, np.full(4, 1e308))


def test_violation_is_the_first_crossing_in_trial_order():
    # a constant between the best ratio before trial j and the ratio of
    # trial j, for a j in a later block: that trial must be reported
    # (at seed 5, trial 681 beats every trial before it)
    x, lengths = empirical._draw_trials(5, 0, 700, 40)
    ratios = [hardy_ratio(Power(0.5), ONES, x[j, :n])
              for j, n in enumerate(lengths)]
    j = 681
    before = max(ratios[:j])
    assert ratios[j] > before
    constant = math.sqrt(before * ratios[j]) / (1.0 + 1e-9)
    assert before <= constant * (1.0 + 1e-9) < ratios[j]
    with pytest.raises(ViolationFound) as excinfo:
        verify_inequality(Power(0.5), ONES, constant, trials=700, seed=5,
                          N=40)
    exc = excinfo.value
    assert (exc.trial, exc.check) == (j, "constant")
    assert exc.ratio == pytest.approx(ratios[j], rel=1e-15)
    assert exc.sequence == list(x[j, :lengths[j]])


def test_a_trial_crossing_both_limits_reports_the_constant(monkeypatch):
    # an envelope of 1 is crossed by every trial with a ratio above 1
    monkeypatch.setattr(hardy, "constant_closed", lambda spec, eta: 1.0)
    with pytest.raises(ViolationFound) as both:
        verify_inequality(Power(0.5), ONES, 1.0, trials=50, seed=0, N=30)
    with pytest.raises(ViolationFound) as envelope:
        verify_inequality(Power(0.5), ONES, 4.0, trials=50, seed=0, N=30)
    assert both.value.check == "constant"
    assert envelope.value.check == "unweighted-envelope"
    assert "unweighted envelope 1" in str(envelope.value)
    assert both.value.trial == envelope.value.trial


@pytest.mark.parametrize("spec", [Power(0.5), parse_mean("devmean:f=log")],
                         ids=repr)
def test_block_boundaries_change_nothing(spec):
    # one trial either side of a block's end, and past two and four blocks
    block = empirical._BLOCK
    x, lengths = empirical._draw_trials(5, 0, 4 * block + 1, 20)
    ratios = empirical._ratios(spec, x, lengths, ONES.lam_array(20))
    for trials in (block - 1, block, block + 1, 2 * block + 1, 4 * block,
                   4 * block + 1):
        rep = verify_inequality(spec, ONES, math.inf, trials=trials, seed=5,
                                N=20)
        best = int(np.argmax(ratios[:trials]))
        assert (rep.max_ratio, rep.max_ratio_trial) == (ratios[best], best)


@pytest.mark.parametrize("trials,N", [(20000, 50), (100, 20000)])
def test_verify_memory_is_bounded_by_the_block(trials, N):
    # many trials, or long ones: either way a block is a few arrays of at
    # most 8192 floats, or of one row
    tracemalloc.start()
    try:
        verify_inequality(Power(0.5), ONES, 4.0, trials=trials, N=N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_margin_is_max_ratio_over_the_constant():
    rep = verify_inequality(Power(0.5), ONES, 4.0, trials=50, seed=2, N=30)
    assert rep.margin == rep.max_ratio / 4.0
    assert 0.0 < rep.margin < 1.0
    assert rep.to_dict()["margin"] == rep.margin
    rep = verify_inequality(Power(0.5), ONES, math.inf, trials=5)
    assert math.isnan(rep.margin)
