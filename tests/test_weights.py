"""Weight families, their terms, prefix sums and declared eta."""

import math
import sys
import threading

import numpy as np
import pytest

from hardymeans.errors import DomainError, UsageError
from hardymeans.weights import WeightSequence, parse_weights


# -- term and prefix arithmetic -----------------------------------------


def test_ones_terms_and_prefixes():
    w = WeightSequence.ones()
    assert w.lam(1) == 1.0
    assert w.lam(17) == 1.0
    assert w.Lam(5) == 5.0
    assert np.array_equal(w.prefix_array(4), [1.0, 2.0, 3.0, 4.0])


def test_geometric_matches_series_formula():
    w = WeightSequence.geometric(2.0)
    assert w.lam(5) == 16.0
    # Lambda_n = (a**n - 1) / (a - 1)
    assert w.Lam(10) == 1023.0
    assert abs(w.log_lam_array(50)[0] + 49.0 * math.log(2.0)) < 1e-12


def test_powerlaw_terms():
    w = WeightSequence.power_law(0.5)
    assert w.lam(9) == 3.0
    assert abs(w.Lam(3) - (1.0 + math.sqrt(2.0) + math.sqrt(3.0))) < 1e-14


def test_explicit_extends_with_final_value():
    w = WeightSequence.explicit([5.0, 3.0, 2.0])
    assert w.lam(3) == 2.0
    assert w.lam(100) == 2.0
    assert w.Lam(5) == 5.0 + 3.0 + 2.0 * 3.0


@pytest.mark.parametrize("w", [
    WeightSequence.ones(), WeightSequence.geometric(1.1),
    WeightSequence.geometric(2.0), WeightSequence.power_law(0.5),
    WeightSequence.power_law(1.3), WeightSequence.power_law(2.7),
    WeightSequence.explicit([1e-8, 3.0, 1e5, 0.1, 7e12, 2.5]),
], ids=["ones", "geometric1.1", "geometric2", "powerlaw0.5", "powerlaw1.3",
        "powerlaw2.7", "explicit"])
def test_single_term_is_last_array_entry(w):
    # lam(n) is the same formula as lam_array, bit for bit
    n = 20_000
    terms = w.lam_array(n)
    got = np.array([w.lam(k) for k in range(1, n + 1)])
    assert np.array_equal(got.view(np.uint64), terms.view(np.uint64))
    assert w.lam(n) == w.lam_array(n)[-1]


def test_single_term_past_float_range_is_inf():
    assert WeightSequence.geometric(1.1).lam(8000) == math.inf


def test_kahan_prefix_consistency():
    # Lam(n) - Lam(n-1) must reproduce lam(n) far better than naive
    # accumulation would at this length.
    w = WeightSequence.power_law(0.5)
    n = 100_000
    diff = w.Lam(n) - w.Lam(n - 1)
    assert abs(diff - w.lam(n)) < 1e-9 * w.lam(n)


def test_prefix_cache_is_incremental():
    # every prefix sum is the same bits whatever was asked for before
    for make in (lambda: WeightSequence.geometric(1.5),
                 lambda: WeightSequence.power_law(0.5),
                 lambda: WeightSequence.explicit([1e-8, 3.0, 1e5, 0.1])):
        w = make()
        first = w.Lam(50)
        w.Lam(200)  # extend
        assert w.Lam(50) == first
        late = make()
        late.Lam(10 ** 5)
        assert late.Lam(50) == first
        stepped = make()
        for n in (7, 8, 90, 200):
            stepped.prefix_array(n)
        assert np.array_equal(stepped.prefix_array(200), w.prefix_array(200))
        assert np.array_equal(late.prefix_array(200), w.prefix_array(200))
        # weights handed in by the caller give the same bits
        handed = make()
        handed.prefix_array(7, lam=handed.lam_array(7))
        got = handed.prefix_array(200, lam=handed.lam_array(200))
        assert np.array_equal(got, w.prefix_array(200))


def test_prefix_cache_is_thread_safe():
    # threads extending one shared cache in interleaved steps must all read
    # the bits a single-threaded sequence gives
    shared = WeightSequence.power_law(0.5)
    want = WeightSequence.power_law(0.5).prefix_array(20_000)
    seen = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for n in rng.integers(1, 20_001, 40):
            seen.append((int(n), shared.Lam(int(n)),
                         shared.prefix_array(int(n))[-1]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 40
    for n, lam_n, last in seen:
        assert lam_n == last == want[n - 1]


@pytest.mark.parametrize("w", [
    WeightSequence.power_law(1.0), WeightSequence.power_law(0.5),
    WeightSequence.geometric(1.0001),
    WeightSequence.explicit([1e-8, 3.0, 1e5, 0.1, 7e12, 2.5]),
], ids=["powerlaw1", "powerlaw0.5", "geometric", "explicit"])
def test_prefix_sums_within_one_ulp_of_fsum(w):
    N = 10 ** 6
    got = w.prefix_array(N)
    lams = w.lam_array(N)
    for n in (1, 2, 3, 6, 7, 1000, 65_537, 500_000, N):
        want = math.fsum(lams[:n])
        assert abs(got[n - 1] - want) <= math.ulp(want), f"n={n}"


def test_family_validation():
    with pytest.raises(DomainError):
        WeightSequence.geometric(1.0)
    with pytest.raises(DomainError):
        WeightSequence.power_law(-0.5)
    with pytest.raises(DomainError):
        WeightSequence.explicit([])
    with pytest.raises(DomainError):
        WeightSequence.explicit([1.0, -2.0])
    with pytest.raises(DomainError):
        WeightSequence.ones().lam(0)


def test_declared_eta():
    assert WeightSequence.ones().eta() == 0.0
    assert WeightSequence.geometric(2.0).eta() == 0.5
    assert WeightSequence.geometric(4.0).eta() == 0.75
    assert WeightSequence.power_law(2.0).eta() == 0.0
    assert WeightSequence.explicit([3.0, 1.0]).eta() == 0.0


# -- CLI specifier parsing ------------------------------------------------


def test_parse_weights_named_families():
    assert parse_weights("ones").kind == "ones"
    w = parse_weights("geometric:a=2.5")
    assert w.kind == "geometric" and w.a == 2.5
    w = parse_weights("powerlaw:alpha=1.5")
    assert w.kind == "powerlaw" and w.alpha == 1.5


def test_parse_weights_explicit_file(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1.0\n2.0\n\n0.5\n")
    w = parse_weights(f"explicit:file={path}")
    assert w.values == (1.0, 2.0, 0.5)


@pytest.mark.parametrize("bad", [
    "bogus", "geometric:a=1.0", "geometric:b=2", "powerlaw:alpha=-1",
    "explicit:file=/nonexistent/path", "geometric:a=abc",
])
def test_parse_weights_rejects(bad):
    with pytest.raises(UsageError):
        parse_weights(bad)


def test_spec_text_round_trips():
    for text in ("ones", "geometric:a=3", "powerlaw:alpha=0.5"):
        w = parse_weights(text)
        again = parse_weights(w.spec_text())
        assert again.kind == w.kind
        assert again.a == w.a and again.alpha == w.alpha
