"""Weight families, their terms, prefix sums and declared eta."""

import math

import numpy as np
import pytest

from hardymeans.errors import DomainError, UsageError
from hardymeans.weights import WeightSequence, parse_weights


# -- term and prefix arithmetic -----------------------------------------


def test_ones_terms_and_prefixes():
    w = WeightSequence.ones()
    assert w.lam(1) == 1.0
    assert w.lam(17) == 1.0
    assert w.prefix_array(5)[-1] == 5.0
    assert np.array_equal(w.prefix_array(4), [1.0, 2.0, 3.0, 4.0])


def test_geometric_matches_series_formula():
    w = WeightSequence.geometric(2.0)
    assert w.lam(5) == 16.0
    # Lambda_n = (a**n - 1) / (a - 1)
    assert w.prefix_array(10)[-1] == 1023.0
    assert abs(w.log_lam_array(50)[0] + 49.0 * math.log(2.0)) < 1e-12


def test_powerlaw_terms():
    w = WeightSequence.power_law(0.5)
    assert w.lam(9) == 3.0
    assert abs(w.prefix_array(3)[-1] - (1.0 + math.sqrt(2.0) + math.sqrt(3.0))) < 1e-14


def test_explicit_extends_with_final_value():
    w = WeightSequence.explicit([5.0, 3.0, 2.0])
    assert w.lam(3) == 2.0
    assert w.lam(100) == 2.0
    assert w.prefix_array(5)[-1] == 5.0 + 3.0 + 2.0 * 3.0


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
    # Lambda_n - Lambda_(n-1) must reproduce lam(n) far better than naive
    # accumulation would at this length.
    w = WeightSequence.power_law(0.5)
    n = 100_000
    diff = w.prefix_array(n)[-1] - w.prefix_array(n - 1)[-1]
    assert abs(diff - w.lam(n)) < 1e-9 * w.lam(n)


def test_prefix_sums_of_handed_weights_are_the_same_bits():
    # weights handed in by the caller give the bits of the sequence's own
    for w in (WeightSequence.geometric(1.5), WeightSequence.power_law(0.5),
              WeightSequence.explicit([1e-8, 3.0, 1e5, 0.1])):
        got = w.prefix_array(200, lam=w.lam_array(200))
        assert np.array_equal(got, w.prefix_array(200))
        assert np.array_equal(w.prefix_array(7), got[:7])
        # a weight array of another length is an error, not fewer sums
        with pytest.raises(DomainError):
            w.prefix_array(5, lam=w.lam_array(3))


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


@pytest.mark.parametrize("v", [1.0000001, 0.123456789, 1 + 2 ** -40])
def test_spec_text_keeps_every_bit(v):
    # ":g" printed geometric:a=1.0000001 as geometric:a=1, which
    # parse_weights rejects, and alpha=0.123456789 as 0.123457
    if v > 1.0:
        assert parse_weights(WeightSequence.geometric(v).spec_text()).a == v
    assert parse_weights(WeightSequence.power_law(v).spec_text()).alpha == v
