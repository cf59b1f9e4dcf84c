"""Checks of every benchmark output against computations made apart from
hardymeans.

Nothing here imports hardymeans.  The references are:

* constants: the paper's closed forms evaluated in 40-digit mpmath --
  C(r, eta), (1 - r)**(-1/r), e, and the Gini band formula;
* traces on unit weights: n**(1 - 1/p) * (zeta(p) - zeta(p, n + 1))**(1/p)
  (exp(log n - lgamma(n + 1)/n) at p = 0) and the probe sum
  n**(p - 1) * (zeta(p) - zeta(p, n + 1)), in 40-digit mpmath;
* traces on other weights: the same quantities summed term by term with
  math.fsum at sampled n, and every trace with a finite constant must be
  nondecreasing and stay below C * (1 + 1e-9);
* fuzz: each trial is drawn again from (seed, trial) by the rule in
  verify_inequality's docstring and its ratio recomputed with direct
  prefix sums; the reported max_ratio must match the recomputed ratio of
  the reported trial and the maximum over all trials.  The deviation
  families are recomputed as the power means they generate.

Each check returns None when the output passes and a one-line reason when
it does not.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

CONSTANT_RTOL = 1e-12
# Accumulated rounding over 1e6 prefix terms reaches 2.8e-12 today (over
# every witness level y = 2**k the seed can draw); this leaves headroom
# while still failing a 1e-9 perturbation.
TRACE_RTOL = 5e-12
# Direct and library ratios agree to ~2e-15 (deviation means are roots
# solved to ~1e-13 relative of the smallest sample).
FUZZ_RTOL = 1e-12
ENVELOPE_SLACK = 1e-9
TRACE_SAMPLES = 6


# -- specifiers, parsed independently of the library ------------------------

def mean_params(family: str) -> tuple:
    """('power', p) or ('gini', p, q) for the mean a specifier denotes.

    Quasiarithmetic means with g = x**p and deviation means with
    f = (u**p - 1)/p are the power mean of order p; g = f = log is p = 0.
    """
    head, _, rest = family.partition(":")
    if head == "power":
        return ("power", _val(rest, "p"))
    if head == "gini":
        pp, _, qq = rest.partition(",")
        p, q = _val(pp, "p"), _val(qq, "q")
        if q == 0.0:
            return ("power", p)
        if p == 0.0:
            return ("power", q)
        return ("gini", p, q)
    if head in ("qa", "devmean"):
        gen = rest.partition("=")[2]
        if gen == "log":
            return ("power", 0.0)
        if gen.startswith("pow:"):
            return ("power", float(gen[4:]))
    raise ValueError(f"no reference for mean {family!r}")


def _val(body: str, key: str) -> float:
    name, _, val = body.partition("=")
    if name != key:
        raise ValueError(f"expected {key}=<value> in {body!r}")
    return float(val)


def weight_params(text: str) -> tuple:
    if text == "ones":
        return ("ones",)
    head, _, rest = text.partition(":")
    val = float(rest.partition("=")[2])
    if head == "geometric":
        return ("geometric", val)
    if head == "powerlaw":
        return ("powerlaw", val)
    raise ValueError(f"no reference for weights {text!r}")


def weight_eta(w: tuple) -> float:
    return (w[1] - 1.0) / w[1] if w[0] == "geometric" else 0.0


def lam_direct(w: tuple, n: int) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=float)
    if w[0] == "ones":
        return np.ones(n)
    if w[0] == "geometric":
        return w[1] ** (k - 1.0)
    return k ** w[1]


# -- constants --------------------------------------------------------------

def power_constant(r, eta):
    """C(r, eta) for the power mean of order r < 1, in mpmath."""
    r, eta = mp.mpf(r), mp.mpf(eta)
    if eta == 0:
        return mp.e if r == 0 else (1 - r) ** (-1 / r)
    if r == 0:
        return (1 - eta) ** (1 - 1 / eta)
    return (eta / (1 - (1 - eta) ** (1 - r))) ** (1 / r)


def gini_constant(p, q, eta):
    """The Gini band formula, min(p, q) <= 0 <= max(p, q) < 1, p != q."""
    p, q, eta = mp.mpf(p), mp.mpf(q), mp.mpf(eta)
    if eta == 0:
        return ((1 - q) / (1 - p)) ** (1 / (p - q))
    return (((1 - (1 - eta) ** (1 - q)) / (1 - (1 - eta) ** (1 - p)))
            ** (1 / (p - q)))


def constant_reference(family: str, eta: float):
    """Sharp constant of `family` at weight limit `eta`, or None when the
    mean has no finite constant (a Gini pair outside the band)."""
    m = mean_params(family)
    if m[0] == "power":
        return power_constant(m[1], eta)
    p, q = m[1], m[2]
    if not (min(p, q) <= 0.0 <= max(p, q) < 1.0) or p == q:
        return None
    return gini_constant(p, q, eta)


def _rel(value, ref) -> float:
    if not (isinstance(value, float) and math.isfinite(value)):
        return math.inf
    return float(abs(mp.mpf(value) - ref) / abs(ref))


def check_constant(op: dict, out: dict, ref):
    if "error" in out:
        return out["error"]
    for route in ("closed", "root"):
        err = _rel(out[route], ref)
        if not err <= CONSTANT_RTOL:
            return (f"{route} route {out[route]!r} is off the 40-digit "
                    f"reference {mp.nstr(ref, 17)} by {err:.2e} relative")
    return None


# -- traces -----------------------------------------------------------------

def trace_reference(op: dict) -> dict:
    """Reference values for a traces operation: {n: value} at the checked
    n, plus the constant the trace must approach from below (or None)."""
    if op["call"] == "genA":
        n, p = op["N"], op["p"]
        w = weight_params(op["weights"])
        if w[0] == "ones":
            ref = mp.mpf(n) ** (p - 1) * _zeta_head(p, n)
        else:
            ref = _genA_direct(p, w, n)
        return {"points": {n: ref}, "constant": None}
    m = mean_params(op["family"])
    w = weight_params(op["weights"])
    ns = _grid(op["N"])
    if w[0] == "ones" and m[0] == "power":
        points = {n: _ones_power_trace(m[1], n) for n in ns}
    else:
        step = max(1, len(ns) // TRACE_SAMPLES)
        sample = sorted(set(ns[::-step][:TRACE_SAMPLES]))
        points = {n: _direct_trace(m, w, n) for n in sample}
    return {"points": points,
            "constant": constant_reference(op["family"], weight_eta(w))}


def _grid(N: int) -> list[int]:
    # the prefix lengths est_lower_bound reports (60 log-spaced points)
    return [int(n) for n in np.unique(
        np.round(np.geomspace(1, N, num=min(60, N))).astype(int))]


def _zeta_head(p, n):
    """sum_{k <= n} k**-p, exactly as zeta(p) - zeta(p, n + 1)."""
    p = mp.mpf(p)
    return mp.zeta(p) - mp.zeta(p, n + 1)


def _ones_power_trace(p, n):
    if p == 0.0:
        return mp.exp(mp.log(n) - mp.loggamma(n + 1) / n)
    return mp.mpf(n) ** (1 - 1 / mp.mpf(p)) * _zeta_head(p, n) ** (1 / mp.mpf(p))


def _direct_trace(m: tuple, w: tuple, n: int):
    """Lambda_n * M(1/Lambda_1, ..., 1/Lambda_n) by math.fsum sums.

    Only ones and power-law weights with alpha = 1 are covered: there
    Lambda_k is n or n(n+1)/2, exact in floating point.
    """
    k = np.arange(1, n + 1, dtype=float)
    if w[0] == "ones":
        lam, Lam = np.ones(n), k
    elif w == ("powerlaw", 1.0):
        lam, Lam = k, k * (k + 1.0) / 2.0
    else:
        raise ValueError(f"no direct trace for weights {w!r}")
    Lam_n = float(Lam[-1])
    logL = np.log(Lam)
    if m[0] == "power" and m[1] == 0.0:
        return mp.mpf(Lam_n) * mp.exp(-mp.mpf(math.fsum(lam * logL)) / Lam_n)
    if m[0] == "power":
        p = m[1]
        s = math.fsum(lam * np.exp(-p * logL))
        return mp.mpf(Lam_n) * (mp.mpf(s) / Lam_n) ** (1 / mp.mpf(p))
    p, q = m[1], m[2]
    if p == q:
        # Gini diagonal: exp of the x**p-weighted mean of log x, x = 1/Lambda
        wts = lam * np.exp(-p * logL)
        return mp.mpf(Lam_n) * mp.exp(
            -mp.mpf(math.fsum(wts * logL)) / mp.mpf(math.fsum(wts)))
    sp = math.fsum(lam * np.exp(-p * logL))
    sq = math.fsum(lam * np.exp(-q * logL))
    return mp.mpf(Lam_n) * (mp.mpf(sp) / mp.mpf(sq)) ** (1 / (mp.mpf(p) - q))


def _genA_direct(p, w: tuple, n: int):
    """sum_{k <= n} (lam_k / Lam_n) (Lam_k / Lam_n)**-p for geometric(a)
    weights: each term in 40 digits, rounded, summed with math.fsum from
    k = n downward until the terms underflow to zero."""
    a, p = mp.mpf(w[1]), mp.mpf(p)
    Lam_n = (a ** n - 1) / (a - 1)
    terms = []
    for k in range(n, 0, -1):
        Lam_k = (a ** k - 1) / (a - 1)
        term = float(a ** (k - 1) / Lam_n * (Lam_k / Lam_n) ** -p)
        if term == 0.0:
            break
        terms.append(term)
    return mp.mpf(math.fsum(terms))


def check_trace(op: dict, out: dict, ref: dict):
    if "error" in out:
        return out["error"]
    if op["call"] == "genA":
        err = _rel(out["value"], ref["points"][op["N"]])
        if not err <= TRACE_RTOL:
            return f"probe sum {out['value']!r} off by {err:.2e} relative"
        return None
    ns, values = out["ns"], out["values"]
    if ns != _grid(op["N"]):
        return "trace grid differs from the geomspace grid"
    at = dict(zip(ns, values))
    for n, r in ref["points"].items():
        err = _rel(at[n], r)
        if not err <= TRACE_RTOL:
            return (f"trace at n={n} is {at[n]!r}, reference "
                    f"{mp.nstr(r, 17)} ({err:.2e} relative)")
    C = ref["constant"]
    if C is not None:
        if any(b < a for a, b in zip(values, values[1:])):
            return "trace decreases"
        top = max(values)
        if not top <= C * (1 + ENVELOPE_SLACK):
            return f"trace reaches {top!r} above the constant {mp.nstr(C, 17)}"
    return None


# -- fuzz -------------------------------------------------------------------

def fuzz_trial(seed: int, trial: int, N: int) -> np.ndarray:
    """The sample of one trial, by verify_inequality's documented rule:
    a generator seeded with [seed, trial] draws a length in 1..N, then
    that many exponents uniform on [-3, 3]."""
    rng = np.random.default_rng([int(seed), int(trial)])
    length = int(rng.integers(1, int(N) + 1))
    return 10.0 ** rng.uniform(-3.0, 3.0, length)


def direct_ratio(m: tuple, w: tuple, x: np.ndarray) -> float:
    """sum_n lam_n M(x_1..x_n) / sum_n lam_n x_n with running sums."""
    lam = lam_direct(w, x.size)
    cl = np.cumsum(lam)
    if m[0] == "power" and m[1] == 0.0:
        means = np.exp(np.cumsum(lam * np.log(x)) / cl)
    elif m[0] == "power":
        p = m[1]
        means = (np.cumsum(lam * x ** p) / cl) ** (1.0 / p)
    else:
        p, q = m[1], m[2]
        means = (np.cumsum(lam * x ** p)
                 / np.cumsum(lam * x ** q)) ** (1.0 / (p - q))
    return math.fsum(lam * means) / math.fsum(lam * x)


def fuzz_reference(op: dict) -> dict:
    m = mean_params(op["family"])
    w = weight_params(op["weights"])
    ratios = [direct_ratio(m, w, fuzz_trial(op["seed"], i, op["N"]))
              for i in range(op["trials"])]
    return {"ratios": ratios,
            "constant": constant_reference(op["family"], weight_eta(w))}


def check_fuzz(op: dict, out: dict, ref: dict):
    if "error" in out:
        return out["error"]
    for key in ("trials", "N", "seed"):
        if out[key] != op[key]:
            return f"report {key} {out[key]!r} != requested {op[key]!r}"
    err = _rel(out["constant"], ref["constant"])
    if not err <= CONSTANT_RTOL:
        return f"constant {out['constant']!r} off by {err:.2e} relative"
    ratio, trial = out["max_ratio"], out["trial"]
    ratios = ref["ratios"]
    if not 0 <= trial < len(ratios):
        return f"max_ratio_trial {trial} outside the trials"
    if not abs(ratio - ratios[trial]) <= FUZZ_RTOL * ratios[trial]:
        return (f"max_ratio {ratio!r} != recomputed ratio {ratios[trial]!r} "
                f"of trial {trial}")
    top = max(ratios)
    if not abs(ratio - top) <= FUZZ_RTOL * top:
        return f"max_ratio {ratio!r} != recomputed maximum {top!r}"
    if not ratio <= ref["constant"] * (1 + ENVELOPE_SLACK):
        return f"max_ratio {ratio!r} exceeds the constant"
    return None


# -- dispatch ---------------------------------------------------------------

def reference(op: dict):
    """The reference an operation's outputs are checked against; every
    round repeats the operation, so one reference serves all rounds."""
    if op["call"] == "constant":
        return constant_reference(op["family"], op["eta"])
    if op["call"] == "verify":
        return fuzz_reference(op)
    return trace_reference(op)


def check(op: dict, out: dict, ref):
    if op["call"] == "constant":
        return check_constant(op, out, ref)
    if op["call"] == "verify":
        return check_fuzz(op, out, ref)
    return check_trace(op, out, ref)
