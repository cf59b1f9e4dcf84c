"""Witness traces, partial limit sums, and the fuzzing harness."""

import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardymeans import empirical, hardy
from hardymeans.empirical import (EmpiricalTrace, PowerProbe,
                                  est_lower_bound, genA_limit, genA_partial,
                                  hardy_ratio, verify_inequality)
from hardymeans.errors import DomainError, ViolationFound
from hardymeans.generators import (difference_kernel, dev_power, exp_gen,
                                   log_gen)
from hardymeans.hardy import C_of, gini_constant
from hardymeans.means import (Deviation, Gini, HomogeneousDeviation, Power,
                              QuasiArithmetic, parse_mean, prefix_values)
from hardymeans.rootfind import RTOL_FLOOR
from hardymeans.weights import WeightSequence, parse_weights

ONES = WeightSequence.ones()
GEO2 = WeightSequence.geometric(2.0)


# -- hardy_ratio -------------------------------------------------------------


def test_ratio_of_constants_is_one():
    assert hardy_ratio(Power(1.0), ONES, np.ones(10)) == pytest.approx(
        1.0, rel=1e-14, abs=0.0)


def test_ratio_of_reciprocals_stays_below_e():
    # x_n = 1/n is the witness sequence for ones weights
    ratio = hardy_ratio(Power(0.0), ONES, 1.0 / np.arange(1, 10 ** 5 + 1))
    assert ratio <= math.e
    assert ratio > 1.0


def test_ratio_matches_direct_summation_at_witness():
    N = 10 ** 4
    k = np.arange(1, N + 1, dtype=float)
    root_sums = np.cumsum(k ** -0.5)
    means = (root_sums / k) ** 2
    direct = means.sum() / (1.0 / k).sum()
    got = hardy_ratio(Power(0.5), ONES, 1.0 / k)
    assert got == pytest.approx(direct, rel=1e-10)
    # the per-prefix estimate (Lambda_n) M_n is the quantity that closes
    # in on the constant at this depth, not the ratio of the two sums
    assert N * means[-1] == pytest.approx(4.0, rel=0.02)


def test_ratio_needs_a_nonempty_1d_sequence():
    # N is the length of x, whose samples are checked before the weights
    # of that length are built; text is not a NumPy error
    for x in (np.array([]), np.ones((2, 3)), "constant:c=1", ["a", "b"]):
        with pytest.raises(DomainError, match="samples"):
            hardy_ratio(Power(0.5), ONES, x)


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


def test_witness_trace_at_a_tiny_level_matches_level_one():
    # x_n = 1e-300 / Lambda_n is subnormal; the trace does not depend on y
    w = parse_weights("powerlaw:alpha=3")
    tiny = est_lower_bound(Power(0.5), w, 1e-300, 2000)
    unit = est_lower_bound(Power(0.5), w, 1.0, 2000)
    assert np.all(np.isfinite(tiny.values))
    np.testing.assert_allclose(tiny.values, unit.values, rtol=1e-14, atol=0)
    assert tiny.meta["y"] == 1e-300


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
        # a mean that is not homogeneous takes the witness at y itself
        with pytest.raises(DomainError, match="prefix sums leave float range"):
            est_lower_bound(QuasiArithmetic(exp_gen()),
                            WeightSequence.geometric(2.0), 1.0, 1100)


@pytest.mark.parametrize("call,match", [
    (lambda: est_lower_bound(Power(0.5), ONES, 1.0, 1.5), "N must"),
    (lambda: est_lower_bound(Power(0.5), ONES, 1.0, 100, grid=-1),
     "grid must"),
    (lambda: est_lower_bound(Power(0.5), ONES, 1.0, 100, grid=0),
     "grid must"),
    (lambda: genA_partial(PowerProbe(0.5), ONES, 1.5), "n must"),
    (lambda: verify_inequality(Power(0.5), ONES, 4.0, trials=1.5),
     "trials must"),
    (lambda: verify_inequality(Power(0.5), ONES, 4.0, N=2.5), "N must"),
    (lambda: verify_inequality(Power(0.5), ONES, 4.0, seed=1.5),
     "seed must"),
    (lambda: prefix_values(Power(0.5), [1.0, 2.0, 3.0], np.ones(3),
                           ns=[2.5]), "prefix length must"),
    (lambda: est_lower_bound(Power(0.5), ONES, math.nan, 5), "witness level"),
    (lambda: est_lower_bound(QuasiArithmetic(exp_gen()), ONES, math.inf, 5),
     "witness level"),
], ids=["est-N", "est-grid-negative", "est-grid-zero", "genA-n",
        "verify-trials", "verify-N", "verify-seed", "prefix-ns",
        "witness-nan", "witness-inf"])
def test_sizes_and_levels_that_are_not_valid_raise(call, match):
    # refused with the library's error, not truncated to an integer,
    # passed on as NaN or inf, or refused by NumPy or a later check
    with pytest.raises(DomainError, match=match):
        call()


def test_tail_inf_reads_second_half():
    trace = EmpiricalTrace(
        ns=np.arange(1, 11),
        values=np.array([5.0, 4.0, 3.0, 2.0, 1.0, 2.0, 0.5, 3.0, 4.0, 5.0]),
        label="probe")
    assert trace.tail_inf() == 0.5


def test_verify_report_weights_parse_back():
    w = parse_weights("geometric:a=1.0000001")
    report = verify_inequality(Power(0.5), w, C_of(0.5, w.eta()), trials=5)
    assert parse_weights(report.weights).a == w.a


def test_trace_csv_bytes(tmp_path):
    trace = EmpiricalTrace(ns=np.array([1, 2, 10, 1000]),
                           values=np.array([0.1, 1 / 3, 1e300, math.inf]),
                           label="probe")
    want = ("n,value\n1,0.10000000000000001\n2,0.33333333333333331\n"
            "10,1.0000000000000001e+300\n1000,inf\n")
    buf = io.StringIO()
    trace.to_csv(buf)
    assert buf.getvalue() == want
    trace.to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


def test_trace_csv_format():
    trace = est_lower_bound(Power(0.5), ONES, 1.0, 50, grid=10)
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == trace.ns.size + 1
    n, v = lines[1].split(",")
    assert int(n) == int(trace.ns[0])
    assert float(v) == pytest.approx(trace.values[0], rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize("spec", ["ones", "geometric:a=2",
                                  "powerlaw:alpha=1"])
def test_partial_sum_at_minus_inf_is_the_last_weight_ratio(spec):
    # u**inf is 0 below u = 1 and 1 at it, so the sum is lam_n / Lam_n,
    # whose limit genA_limit gives as eta; -p log u alone is inf * 0 there
    probe = PowerProbe(-math.inf)
    assert probe(1.0) == 1.0 and probe(0.5) == 0.0
    w = parse_weights(spec)
    for n in (1, 10, 1000):
        lam = w.lam_array(n)
        got = genA_partial(probe, w, n)
        assert got == pytest.approx(lam[-1] / math.fsum(lam), rel=1e-13,
                                    abs=0.0)
    assert genA_partial(probe, w, 10 ** 5) == pytest.approx(
        genA_limit(-math.inf, w.eta()), rel=1e-4, abs=1e-4)


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


# an explicit list, repeated past its end by its last value
EXPLICIT = WeightSequence.explicit([3.0, 0.5, 2.0, 1e-3, 7.0, 1.0])


def _mp_lam(w, k):
    if w.kind == "powerlaw":
        return mpmath.mpf(k) ** mpmath.mpf(w.alpha)
    return mpmath.mpf(w.values[min(k, len(w.values)) - 1])


@pytest.mark.parametrize("w", [WeightSequence.power_law(1.0),
                               WeightSequence.power_law(3.0), EXPLICIT],
                         ids=lambda w: w.spec_text())
@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("p", [0.5, -1.0, 0.9])
def test_partial_sum_on_powerlaw_and_explicit_weights_matches_mpmath(w, n,
                                                                     p):
    with mpmath.workdps(40):
        lam = [_mp_lam(w, k) for k in range(1, n + 1)]
        total = mpmath.fsum(lam)
        want, prefix = mpmath.mpf(0), mpmath.mpf(0)
        for lam_k in lam:
            prefix += lam_k
            want += lam_k / total * (prefix / total) ** -p
        want = float(want)

    def phi(u):
        return np.asarray(u, dtype=float) ** -p

    assert genA_partial(PowerProbe(p), w, n) == pytest.approx(
        want, rel=1e-13, abs=0.0)
    assert genA_partial(phi, w, n) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_limit_values():
    assert genA_limit(0.5, 0.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)
    assert genA_limit(0.0, 0.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert genA_limit(0.0, 0.7) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert genA_limit(0.5, 0.5) == pytest.approx(
        0.5 / (1.0 - 2.0 ** -0.5), rel=1e-14, abs=0.0)
    assert genA_limit(-1.0, 0.0) == pytest.approx(0.5, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p, eta", [
    (1.0, 0.0), (1.5, 0.0), (math.nan, 0.0),
    (0.5, 1.0), (0.5, -0.1), (0.5, math.nan),
])
def test_limit_domain(p, eta):
    with pytest.raises(DomainError):
        genA_limit(p, eta)


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


def test_fuzzing_takes_the_envelope_from_the_root_route_without_a_closed_form():
    # relabelled, the u**0.5 profile has no closed form, so the unweighted
    # envelope comes from solve_cef; the fuzzing is the named profile's
    named = HomogeneousDeviation(dev_power(0.5))
    custom = HomogeneousDeviation(replace(dev_power(0.5), family=("custom",)))
    constant = C_of(0.5, GEO2.eta())
    got = verify_inequality(custom, GEO2, constant, trials=50, seed=1)
    want = verify_inequality(named, GEO2, constant, trials=50, seed=1)
    assert got.ones_constant == pytest.approx(4.0, rel=1e-12, abs=0.0)
    assert want.ones_constant == 4.0
    assert replace(got, mean=want.mean, ones_constant=4.0) == want


def test_fuzzing_input_validation():
    with pytest.raises(DomainError):
        verify_inequality(Power(0.5), ONES, 4.0, trials=0)
    with pytest.raises(DomainError):
        verify_inequality(Power(0.5), ONES, 4.0, N=0)
    with pytest.raises(DomainError):
        verify_inequality(Power(0.5), ONES, 4.0, seed=-1)
    # a NaN constant would pass every trial, and -1 fail trial 0
    for constant in (math.nan, -1.0, 0.0):
        with pytest.raises(DomainError):
            verify_inequality(Power(0.5), ONES, constant, trials=5)


# -- the (seed, trial) stream ------------------------------------------------


def fuzz_trial(seed, trial, N):
    """The sample of one trial, by verify_inequality's documented rule:
    a generator seeded with [seed, trial] draws a length in 1..N, then
    that many exponents uniform on [-3, 3]."""
    rng = np.random.default_rng([int(seed), int(trial)])
    length = int(rng.integers(1, int(N) + 1))
    return 10.0 ** rng.uniform(-3.0, 3.0, length)


def _assert_stream(seed, first, stop, N):
    x, lengths = empirical._draw_trials(seed, first, stop, N)
    assert x.shape == (stop - first, N)
    for row, i in enumerate(range(first, stop)):
        want = fuzz_trial(seed, i, N)
        assert lengths[row] == want.size, (seed, N, i)
        assert np.array_equal(x[row, :want.size].view(np.uint64),
                              want.view(np.uint64)), (seed, N, i)
        assert np.all(x[row, want.size:] == 1.0)


STREAM_SEEDS = [0, 1, 7, 12345, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32,
                2 ** 64 + 3, 2 ** 100 + 17]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("N", [1, 2, 7, 50, 64, 200])
@pytest.mark.parametrize("first", [0, 128, 4096])
def test_draw_trials_is_the_default_rng_stream_bit_for_bit(seed, N, first):
    # the block's seeding, raw words, lengths and samples are NumPy's own
    # arithmetic redone over arrays; a change of the stream fails here
    _assert_stream(seed, first, first + 20, N)


def test_draw_trials_past_two_to_the_31():
    # a block past 2**31, and one that crosses 2**32, where a trial index
    # takes a second entropy word
    _assert_stream(3, 2 ** 31 + 5, 2 ** 31 + 25, 50)
    _assert_stream(3, 2 ** 32 - 6, 2 ** 32 + 2, 50)


def test_draw_trials_redraws_a_rejected_length(monkeypatch):
    # a raw low word of 0 gives leftover 0 < 2**32 mod 50 = 46, where
    # NumPy's bounded draw rejects and draws again; the row must still
    # be the stream's own, drawn by default_rng itself
    seed, trial, N = 5, 3, 50
    bits = np.random.PCG64(np.random.SeedSequence([seed, trial]))
    bits.random_raw(1)
    state = bits.state["state"]["state"]  # the state that outputs word 0
    target = (np.uint64(state >> 64), np.uint64(state & (2 ** 64 - 1)))
    xsl_rr = empirical._xsl_rr

    def rejecting(hi, lo):
        raw = xsl_rr(hi, lo)
        raw[(hi == target[0]) & (lo == target[1])] &= ~np.uint64(0xFFFFFFFF)
        return raw

    monkeypatch.setattr(empirical, "_xsl_rr", rejecting)
    calls = []
    default_rng = np.random.default_rng

    def spy(*args):
        calls.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", spy)
    x, lengths = empirical._draw_trials(seed, 0, 8, N)
    assert calls == [([seed, trial],)]
    monkeypatch.undo()
    # accepted, the zeroed word would have given that trial length 1
    want = fuzz_trial(seed, trial, N)
    assert want.size != 1
    assert lengths[trial] == want.size
    assert np.array_equal(x[trial, :want.size], want)
    _assert_stream(seed, 0, 8, N)


class _FixedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is the given words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _kernel_words(words, K):
    """Raw words 0..K-1 (K <= _JUMP + 1) of each row of seed words
    (rows, 4), by the draw's jump-ahead kernel."""
    states = empirical._start_states(np.asarray(words, dtype=np.uint64))
    rows, k = states.shape[1], np.arange(K - 1)
    raw = empirical._raw_words(np.repeat(states, k.size, axis=1),
                               np.tile(k, rows))
    word0 = empirical._xsl_rr(states[0], states[1])
    return np.column_stack([word0, raw.reshape(rows, k.size)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1), trial=st.integers(0, 2 ** 32 - 1),
       K=st.integers(1, 80))
def test_raw_word_kernel_is_pcg64(seed, trial, K):
    words = empirical._seed_words(seed, np.array([trial]))
    want = np.random.PCG64(np.random.SeedSequence([seed, trial])).random_raw(K)
    assert np.array_equal(words[0], np.random.SeedSequence(
        [seed, trial]).generate_state(4, np.uint64))
    assert np.array_equal(_kernel_words(words, K)[0], want)


def test_raw_word_kernel_carries_through_every_half():
    # words of zeros, ones and all-ones halves, in every position: the
    # seeding's additions and shift, and the 32-bit partial sums of each
    # 128-bit product, carry at their widest; K reaches the last column
    # of the jump table
    halves = [0, 1, 2 ** 32 - 1, 2 ** 63, 2 ** 64 - 2 ** 32, 2 ** 64 - 1]
    words = np.array([[a, b, c, d] for a in halves for b in halves
                      for c in halves[::-1] for d in halves],
                     dtype=np.uint64)
    K = empirical._JUMP + 1
    got = _kernel_words(words, K)
    for row, w in enumerate(words):
        want = np.random.PCG64(_FixedWords(w)).random_raw(K)
        assert np.array_equal(got[row], want), w


@pytest.mark.parametrize("N", [empirical._JUMP, empirical._JUMP + 1, 20000])
def test_draw_trials_as_wide_as_the_jump_table_and_wider(N):
    # the widest rows drawn by jump-ahead, and rows drawn by default_rng
    _assert_stream(7, 0, 5, N)


def test_trial_blocks_are_the_draw_across_spans(monkeypatch):
    # blocks cut at span boundaries that fall inside a block
    monkeypatch.setattr(empirical, "_SPAN", 50)
    x, lengths = empirical._draw_trials(2, 0, 130, 30)
    firsts = []
    for first, bx, blengths in empirical._trial_blocks(2, 130, 30):
        firsts.append(first)
        stop = first + blengths.size
        assert np.array_equal(bx, x[first:stop])
        assert np.array_equal(blengths, lengths[first:stop])
    assert firsts == [0, 50, 100]


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
    """R(x) as one prefix_values call and two exact sums (math.fsum): a
    np.dot reference was itself up to 7.8e-16 off the exact ratio."""
    lam = w.lam_array(x.size)
    return (math.fsum(lam * prefix_values(spec, x, lam))
            / math.fsum(lam * x))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), first=st.integers(0, 10 ** 6))
# trial 140: np.dot sums put the reference 1.007e-15 off the batched ratio
@example(seed=375782, first=129)
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
        _fsum_ratio_power_half(best, scaled[:best.size]), rel=1e-13, abs=0.0)
    assert lengths[110] == N
    assert hardy_ratio(Power(0.5), GEO2, x[110]) == pytest.approx(
        _fsum_ratio_power_half(x[110], scaled), rel=1e-13, abs=0.0)


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
    assert exc.ratio == pytest.approx(ratios[j], rel=1e-15, abs=0.0)
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


def _peak_floats(fn):
    """The peak of the memory that fn() allocates, in 8-byte floats."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 8


WORKING_SET_SPECS = [Power(0.5), Power(0.0), Power(-1.0), Gini(0.5, -0.5),
                     Gini(-0.5, -0.5)]


@pytest.mark.parametrize("spec", WORKING_SET_SPECS, ids=repr)
def test_prefix_values_hold_no_full_length_temporaries(spec):
    # the inputs aside, the working set is the chunks' arrays: at most two
    # arrays of N floats on the grid of prefixes that est reads
    n = 2 ** 18 + 3
    x = 10.0 ** np.random.default_rng(13).uniform(-5.0, 5.0, n)
    ns = np.unique(np.geomspace(1, n, 60).round().astype(int))
    for lam in (np.ones(n), np.arange(1.0, n + 1.0)):
        assert _peak_floats(lambda: prefix_values(spec, x, lam, ns)) <= 2 * n


def test_genA_partial_forms_its_exponents_in_place():
    # the log weights, their log prefix sums and one array of exponents
    n = 2 ** 18 + 3
    for w in (ONES, GEO2, WeightSequence.power_law(1.0)):
        assert _peak_floats(lambda: genA_partial(PowerProbe(0.5), w, n)) \
            <= 3.5 * n


@pytest.mark.parametrize("spec", WORKING_SET_SPECS
                         + [parse_mean("qa:g=pow:0.5")], ids=repr)
def test_est_holds_the_witness_and_no_full_length_temporaries(spec):
    # weights, prefix sums and witness samples, and the prefix means'
    # chunks: neither the prefix sums nor the means form a temporary of N
    n = 2 ** 18 + 3
    for w in (ONES, WeightSequence.power_law(1.0)):
        assert _peak_floats(lambda: est_lower_bound(spec, w, 0.5, n)) \
            <= 5 * n


def test_margin_is_max_ratio_over_the_constant():
    rep = verify_inequality(Power(0.5), ONES, 4.0, trials=50, seed=2, N=30)
    assert rep.margin == rep.max_ratio / 4.0
    assert 0.0 < rep.margin < 1.0
    assert rep.to_dict()["margin"] == rep.margin
    rep = verify_inequality(Power(0.5), ONES, math.inf, trials=5)
    assert math.isnan(rep.margin)
