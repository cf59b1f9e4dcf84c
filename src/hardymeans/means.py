"""Weighted mean families and their prefix evaluations.

All means take a positive sample vector x and a nonnegative weight
vector lam (first entry positive, positive total) and return a value
between the smallest and largest sample carrying positive weight.

A family computes its values in one place, ``MeanSpec.prefix``: the
mean of prefix i depends on x[..., :i+1] and lam[:i+1] alone, bit for
bit, whatever else is requested, and ``evaluate`` asks for the last
prefix only.  Power and Gini means, and the weighted means of
quasiarithmetic generators, are shifted compensated prefix sums, so wide
dynamic ranges, large exponents and weights past float range neither
overflow nor lose digits.  Deviation means are bracketed roots, by
lane-wise Newton from each prefix's osculating power mean when the
profile has a derivative, and by Brent's method otherwise.  A batch of
sample rows that share one weight vector is evaluated in one pass.

Each family is a :class:`MeanSpec` subclass that also carries its sharp
constant, by closed form and by characteristic root (computed in
:mod:`~hardymeans.hardy`), and its specifier text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (BracketError, DomainError, InversionError, PGeqOne,
                     UsageError)
from .formatting import fmt_real, parse_kv
from .generators import (GeneratorFunction, QuasideviationKernel, dev_gini,
                         dev_power, exp_gen, log_gen, power_gen)
from .hardy import (C_of, HardyConstantResult, detect_order, gini_constant,
                    qa_constant, solve_cef)
from .rootfind import RTOL_FLOOR, bracketed_root, newton_lanes
from .weights import compensated_cumsum, unit_scaled

# Past this magnitude the power mean is the max/min limit to within ulp.
_P_EXTREME = 1e15
# Largest exponent of a term of the shifted prefix sums: a million terms
# of e**600 stay far below overflow.
_HEADROOM = 600.0
# Widest log spread of the samples of a homogeneous deviation prefix: the
# ratios x / y of its root, within e**709, stay in float range.
_LOG_SPREAD_MAX = 709.0
_LN2 = math.log(2.0)
# log 2 in two parts, the first with 21 trailing zero bits, so that k times
# it is exact for |k| < 2**21 (Cody & Waite; the split of fdlibm's exp)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def check_xlam(x, lam) -> tuple[np.ndarray, np.ndarray]:
    """x and lam as float arrays, after checking that they are nonempty,
    1-d, of one length, with positive finite samples and nonnegative
    finite weights of positive total; DomainError otherwise."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if x.ndim != 1 or lam.ndim != 1 or x.size == 0:
        raise DomainError("x and lam must be nonempty 1-d arrays")
    if x.shape != lam.shape:
        raise DomainError(f"length mismatch: {x.size} samples, {lam.size} weights")
    check_samples(x)
    check_weights(lam)
    return x, lam


def check_samples(x: np.ndarray) -> None:
    """Raise DomainError unless every entry of x is positive and finite."""
    if not np.isfinite(x).all() or (x <= 0.0).any():
        raise DomainError("samples must be positive finite reals")


def check_weights(lam: np.ndarray) -> None:
    """Raise DomainError unless lam is nonnegative, finite and has a
    positive total."""
    if not np.isfinite(lam).all() or (lam < 0.0).any():
        raise DomainError("weights must be nonnegative finite reals")
    if not (lam > 0.0).any():
        raise DomainError("weights must have positive total")


def power_mean(x, lam, p: float) -> float:
    """Weighted power mean of order p; p = 0 is the geometric mean and
    p = +/-inf the weighted max/min."""
    return Power(float(p)).evaluate(x, lam)


def gini_mean(x, lam, p: float, q: float) -> float:
    """Weighted Gini mean with exponent pair (p, q).

    For p != q this is (sum lam x**p / sum lam x**q) ** (1/(p-q)); the
    diagonal p = q is the continuous limit.  Gini(p, 0) is power_mean(p),
    bit for bit.
    """
    return Gini(float(p), float(q)).evaluate(x, lam)


def quasiarithmetic_mean(x, lam, g: GeneratorFunction) -> float:
    """Weighted quasiarithmetic mean with strictly monotone generator g.

    Uses g's analytic inverse when present, otherwise inverts by
    bracketed root finding between min x and max x.
    """
    return QuasiArithmetic(g).evaluate(x, lam)


def quasideviation_mean(x, lam, kernel: QuasideviationKernel) -> float:
    """Root y of sum(lam_i * E(x_i, y)) = 0 on [min x, max x].

    The sign property of E makes the endpoint values straddle zero; a
    violated straddle raises BracketError (the kernel is then not a
    quasideviation on this sample).
    """
    return Deviation(kernel).evaluate(x, lam)


def homogeneous_devmean(x, lam, f: GeneratorFunction) -> float:
    """Deviation mean with ratio kernel E(x, y) = f(x/y).

    Requires f to declare the sign property sign f(u) = sign (u - 1);
    the result is then positively homogeneous in x.
    """
    return HomogeneousDeviation(f).evaluate(x, lam)


def _require_sign_like(f: GeneratorFunction) -> None:
    if not f.sign_like:
        raise DomainError("homogeneous deviation mean needs a sign-like "
                          "generator (sign f(u) = sign(u-1))")


def _ratio_kernel_fn(f: GeneratorFunction):
    """E(x, y) = f(x / y) for a sign-like profile f."""
    _require_sign_like(f)

    def efn(xs, y):
        return f.fn(np.asarray(xs, dtype=float) / y)

    return efn


def _solve_deviation(xs: np.ndarray, ws: np.ndarray, lo: float, hi: float,
                     efn, homogeneous: bool) -> float:
    """Root y in [lo, hi] = [min xs, max xs] of sum(ws * efn(xs, y)) = 0,
    by Brent's method; ws > 0.

    A homogeneous kernel (one whose mean is homogeneous) is solved for
    y / 2**e on the samples scaled alike, exactly, with 2**e between lo
    and hi: at sample scales near 1e-160 Brent's secant step f * dy
    underflows, and the scaled problem has values of order one.
    """
    if lo == hi:
        return lo
    if homogeneous:
        e = (math.frexp(lo)[1] + math.frexp(hi)[1]) // 2
        y = _solve_deviation(np.ldexp(xs, -e), ws, math.ldexp(lo, -e),
                             math.ldexp(hi, -e), efn, False)
        return math.ldexp(y, e)

    def g(y):
        return float(np.dot(ws, np.asarray(efn(xs, y), dtype=float)))

    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    _check_sign_property(glo, ghi, lo, hi)
    return bracketed_root(g, lo, hi, xtol=max(1e-13 * lo, 5e-324),
                          rtol=RTOL_FLOOR, flo=glo, fhi=ghi).root


def _check_sign_property(glo: float, ghi: float, lo: float, hi: float):
    if glo < 0.0 or ghi > 0.0:
        raise BracketError(
            f"kernel violates the sign property on [{lo:g}, {hi:g}]: "
            f"g(lo)={glo:g}, g(hi)={ghi:g}")


# -- mean families ------------------------------------------------------


class MeanSpec:
    """A weighted mean family with its parameters.

    Everything that depends on the family lives on its subclass: prefix
    evaluation, the closed and root routes to the sharp constant,
    specifier text, and the structural facts ``homogeneous``
    (M(t x) = t M(x)) and ``symmetric_monotone`` (symmetric,
    nondecreasing in each sample).  A family computes its values in
    ``prefix`` alone, and ``evaluate`` is the last prefix.  A new family
    overrides what it has: ``prefix``, or only ``evaluate``, which the
    base prefix path then calls once per prefix.  The base supplies
    False for both facts and raises for the rest.
    """

    homogeneous = False
    symmetric_monotone = False

    def evaluate(self, x, lam) -> float:
        """The weighted mean of x: ``prefix`` of the samples with positive
        weight, asked for the last prefix only, and so bit for bit
        ``prefix_values(self, x, lam)[-1]`` when lam[0] > 0."""
        x, lam = check_xlam(x, lam)
        keep = lam > 0.0
        xs, ws = x[keep], lam[keep]
        return float(self.prefix(xs, ws, np.array([xs.size - 1]))[0])

    def prefix(self, x: np.ndarray, lam: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        """Means of x[..., :i+1] for each i in idx, along the last axis.

        x is one sample row of shape (N,) or a batch of rows (rows, N);
        lam has shape (N,), lam[0] > 0, and the inputs are already
        validated.  The mean of prefix i of a row depends on its x[:i+1]
        and lam[:i+1] alone, bit for bit, not on other rows or columns or
        idx; a prefix with no mean raises.  This generic path, for a
        family that defines only ``evaluate``, loops over the rows and
        evaluates each prefix on its own.
        """
        if x.ndim > 1:
            return np.array([self.prefix(row, lam, idx) for row in x])
        if type(self).evaluate is MeanSpec.evaluate:
            raise DomainError(f"unknown mean spec {self!r}")
        return np.array([self.evaluate(x[:i + 1], lam[:i + 1]) for i in idx],
                        dtype=float)

    def closed_constant(self, eta: float) -> float:
        """Closed-form sharp constant at weight limit eta (already checked
        to lie in [0, 1))."""
        raise DomainError(f"unknown mean spec {self!r}")

    def root_constant(self, eta: float, tol: float) -> HardyConstantResult:
        """The sharp constant as a root of the characteristic equation."""
        raise DomainError(f"no root route for {self!r}")

    def canonical(self) -> str:
        """Canonical specifier text; parse_mean(s.canonical()) equals s."""
        raise UsageError(f"no canonical text for {self!r}")


@dataclass(frozen=True)
class Power(MeanSpec):
    p: float

    homogeneous = True
    symmetric_monotone = True

    def prefix(self, x, lam, idx):
        p = self.p
        if math.isnan(p):
            raise DomainError("power mean order must not be NaN")
        if abs(p) >= _P_EXTREME:
            lo, hi = _running_bounds(x, lam)
            return (hi if p > 0.0 else lo)[..., idx]
        return _prefix_gini(x, lam, p, 0.0, idx)

    def closed_constant(self, eta):
        p = self.p
        if math.isnan(p):
            raise DomainError("order must not be NaN")
        if p == -math.inf:
            return 1.0
        if p >= 1.0:
            return math.inf
        return C_of(p, eta)

    def root_constant(self, eta, tol):
        return solve_cef(dev_power(self.p), eta, tol=tol)

    def canonical(self):
        return f"power:p={fmt_real(self.p)}"


@dataclass(frozen=True)
class Gini(MeanSpec):
    p: float
    q: float

    homogeneous = True

    @property
    def symmetric_monotone(self):
        return min(self.p, self.q) <= 0.0 <= max(self.p, self.q)

    def prefix(self, x, lam, idx):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError("Gini exponents must be finite")
        return _prefix_gini(x, lam, self.p, self.q, idx)

    def closed_constant(self, eta):
        return gini_constant(self.p, self.q, eta)

    def root_constant(self, eta, tol):
        return solve_cef(dev_gini(self.p, self.q), eta, tol=tol)

    def canonical(self):
        return f"gini:p={fmt_real(self.p)},q={fmt_real(self.q)}"


@dataclass(frozen=True)
class QuasiArithmetic(MeanSpec):
    g: GeneratorFunction

    symmetric_monotone = True

    @property
    def homogeneous(self):
        return self.g.family[0] in ("pow-map", "log")

    def prefix(self, x, lam, idx):
        return _prefix_qa(x, lam, self.g, idx)

    def closed_constant(self, eta):
        try:
            return qa_constant(self.g, eta).value
        except PGeqOne:
            return math.inf

    def root_constant(self, eta, tol):
        p = detect_order(self.g)
        if p >= 1.0:
            raise PGeqOne(
                f"detected order {p:.9g} >= 1: constant is +inf", p=p)
        return solve_cef(dev_power(p), eta, tol=tol)

    def canonical(self):
        return "qa:g=" + _generator_text(_QA_GENERATORS, self.g)


@dataclass(frozen=True)
class Deviation(MeanSpec):
    kernel: QuasideviationKernel

    @property
    def homogeneous(self):
        return self.kernel.family[0] in ("difference", "power-gap", "ratio",
                                         "scaled-ratio")

    def prefix(self, x, lam, idx):
        if x.ndim > 1:
            return super().prefix(x, lam, idx)
        return _prefix_deviation(x, lam, self.kernel.fn, idx,
                                 self.homogeneous)

    def closed_constant(self, eta):
        raise DomainError(
            "no direct constant for a raw kernel: normalize_kernel, take "
            "h_of_kernel, and solve with that profile")


@dataclass(frozen=True)
class HomogeneousDeviation(MeanSpec):
    f: GeneratorFunction

    homogeneous = True

    @property
    def symmetric_monotone(self):
        return self.f.concave and self.f.sign_like

    def prefix(self, x, lam, idx):
        lo, hi = (np.log(b[..., idx]) for b in _running_bounds(x, lam))
        if (hi - lo > _LOG_SPREAD_MAX).any():
            raise DomainError("prefix samples span more than e**709")
        if self.f.d1 is not None:
            return _prefix_devmean_newton(x, lam, self.f, idx)
        if x.ndim > 1:
            return super().prefix(x, lam, idx)
        return _prefix_deviation(x, lam, _ratio_kernel_fn(self.f), idx,
                                 True)

    def _classical(self) -> Optional[MeanSpec]:
        """The power or Gini mean this is, for the log, power and Gini
        profiles (which generate exactly those means), or None."""
        fam = self.f.family
        if fam == ("log",):
            return Power(0.0)
        if fam[0] == "power":
            return Power(fam[1])
        if fam[0] == "gini":
            return Gini(fam[1], fam[2])
        return None

    def closed_constant(self, eta):
        same = self._classical()
        if same is not None:
            return same.closed_constant(eta)
        if not self.f.recip_integrable:
            return math.inf
        raise DomainError(
            f"no closed form for profile {self.f.label!r}; use the root route")

    def root_constant(self, eta, tol):
        return solve_cef(self.f, eta, tol=tol)

    def canonical(self):
        return "devmean:f=" + _generator_text(_DEV_GENERATORS, self.f)


# -- prefix evaluation ----------------------------------------------------


def prefix_values(spec: MeanSpec, x, lam,
                  ns: Optional[Sequence[int]] = None) -> np.ndarray:
    """Mean of the first n samples for each n in `ns` (default: all n).

    x and lam are one 1-d sample vector and its weights, validated here
    once, not once per prefix.  The work is ``spec.prefix`` (see the
    module docstring), which also takes a batch of sample rows sharing
    lam.
    """
    x, lam = check_xlam(x, lam)
    if lam[0] <= 0.0:
        raise DomainError("prefix evaluation needs lam[0] > 0")
    n_total = x.size
    if ns is None:
        ns_arr = np.arange(1, n_total + 1)
    else:
        ns_arr = np.asarray(list(ns), dtype=int)
        if ns_arr.size == 0 or ns_arr.min() < 1 or ns_arr.max() > n_total:
            raise DomainError("prefix indices must lie in 1..len(x)")
    return spec.prefix(x, lam, ns_arr - 1)


def _running_bounds(x, lam):
    lo = np.minimum.accumulate(np.where(lam > 0.0, x, math.inf), axis=-1)
    hi = np.maximum.accumulate(np.where(lam > 0.0, x, -math.inf), axis=-1)
    return lo, hi


def _log_ratios(x):
    """r = log(x / x[..., 0]) along the last axis.

    r is formed from the mantissas and exponents of x, so it is finite
    for any spread and, for samples scaled alike by a power of two, does
    not depend on the scale; r[..., 0] = 0 exactly."""
    mx, ex = np.frexp(x)
    mx /= mx[..., :1]
    r = np.log(mx, out=mx)
    ex -= ex[..., :1]
    r += ex * _LN2
    return r


def _log_weights(lam):
    """lam / lam[0] as e**t 2**k from mantissas and exponents: |t| < log 2
    (-inf where lam = 0) and k exact, so weight sums take no rounding from
    the weights' magnitude (:func:`_shifted_sums`)."""
    t, k = np.frexp(lam)
    t /= t[0]  # in place: a new array of the weights' size costs more
    with np.errstate(divide="ignore"):
        np.log(t, out=t)
    k -= k[0]
    # equal exponents, as unit weights have, need no array of zeros
    return t, (k if k.any() else np.broadcast_to(0, k.shape))


def _fold(e):
    """e as d + k log 2: k = 0 where |e| < 700, else the integer that brings
    d within log 2 of 0, with d keeping e's digits (two-part log 2)."""
    if -700.0 < e.min() and e.max() < 700.0:
        return e, 0
    far = (np.abs(e) >= 700.0) & np.isfinite(e)
    k = np.where(far, np.rint(e / _LN2), 0.0)
    return (e - k * _LN2_HI) - k * _LN2_LO, k.astype(int)


def _times_exp(a, e):
    """a * exp(e), entry by entry, as 2**k a exp(d) (:func:`_fold`), so
    that exp(e) may leave float range while the product does not."""
    d, k = _fold(e)
    v = a * np.exp(d)
    return np.ldexp(v, k, out=v)


def _shifted_sums(t, k, values, idx):
    """Prefix sums of the terms e**t 2**k, and the term-weighted prefix
    means of each v in `values`, along the last axis at the columns idx.

    t is (N,) or (rows, N) with t[..., 0] = 0, and k is one shared row of
    integers with k[0] = 0; a v has t's shape, or rows of its own when t
    is one shared row.  Each sum comes as a shift (c, j) and the
    compensated sum (:func:`compensated_cumsum`) s of the terms over
    e**c 2**j, with s at least e**-_HEADROOM and at most N e**_HEADROOM:
    two sums compare as (c - c') + (j - j') log 2 plus the log of s / s'.
    Where |t| and every term stay within e**_HEADROOM, all rows go in one
    pass with shift (0, 0); else each row goes alone
    (:func:`_segmented_sums`), with the same bits up to its first shift.
    An overflowing term times v_i makes that mean inf or NaN from i on.
    """
    rows = np.atleast_2d(t)
    vals = [np.atleast_2d(v) for v in values]
    with np.errstate(over="ignore", invalid="ignore"):
        if (rows.min() >= -_HEADROOM and rows.max() + k.max() * _LN2
                <= _HEADROOM):
            e = np.exp(rows)
            if k.any():
                np.ldexp(e, k, out=e)
            sums = compensated_cumsum(e)[0][..., idx]
            c, j = np.zeros((len(rows), 1)), np.zeros((len(rows), 1), int)
            means = [compensated_cumsum(e * v)[0][..., idx] / sums
                     for v in vals]
        else:
            parts = [_segmented_sums(
                row, k, [v if len(rows) == 1 else v[r:r + 1] for v in vals],
                idx) for r, row in enumerate(rows)]
            c, j, sums = (np.array([part[i] for part in parts])
                          for i in range(3))
            means = [np.concatenate([part[3][m] for part in parts])
                     for m in range(len(vals))]
    if np.ndim(t) == 1:
        c, j, sums = c[0], j[0], sums[0]
        means = [m[0] if np.ndim(v) == 1 else m
                 for v, m in zip(values, means)]
    return (c, j), sums, means


def _exp_diff(a, b, k):
    """e**(a - b) 2**k for a finite b, with the rounding of a - b restored
    (TwoSum): the error is that of exp alone however large a - b is, and
    e**(a - b) may leave float range (:func:`_fold`); 0 where a = -inf."""
    d = a - b
    z = d - a
    lo = (a - (d - z)) - (b + z)
    d, move = _fold(d)
    e = np.ldexp(np.exp(d), k + move)
    return np.fmax(e + e * lo, 0.0)


def _segmented_sums(row, k, vals, idx):
    """_shifted_sums of one row of t.  The shift (c, j) starts at (0, 0),
    the first term; it moves to the term of the running maximum of
    t + k log 2, and the carried sums are rescaled, when that maximum
    passes the shift's by _HEADROOM, so no term exceeds e**_HEADROOM and
    the Python loop is over segments.  A row that needs no move gives the
    bits of the one-pass path."""
    n = row.size
    top = np.maximum.accumulate(row + k * _LN2)
    s0, shift_c, shift_j = np.empty(n), np.empty(n), np.empty(n, int)
    sums = [np.empty(v.shape) for v in vals]
    carries = [(0.0, 0.0)] * (1 + len(vals))
    i, c, j = 0, 0.0, 0
    while i < n:
        end = int(np.searchsorted(top, top[i] + _HEADROOM, side="right"))
        e = _exp_diff(row[i:end], c, k[i:end] - j)
        s0[i:end], carries[0] = compensated_cumsum(e, carries[0])
        for m, (v, s) in enumerate(zip(vals, sums), 1):
            s[..., i:end], carries[m] = compensated_cumsum(
                e * v[..., i:end], carries[m])
        shift_c[i:end], shift_j[i:end] = c, j
        if end < n:
            scale = _exp_diff(c, row[end], j - k[end])
            carries = [(a * scale, b * scale) for a, b in carries]
            c, j = row[end], k[end]
        i = end
    s0 = s0[idx]
    return shift_c[idx], shift_j[idx], s0, [s[..., idx] / s0 for s in sums]


def _prefix_gini(x, lam, p, q, idx):
    """Gini(p, q) of the prefixes idx: x[0] e**(:func:`_gini_exponent`)."""
    lo, hi = _running_bounds(x, lam)
    e = _gini_exponent(_log_ratios(x), _log_weights(lam), p, q, idx)
    vals = _times_exp(x[..., :1], e)
    return np.minimum(np.maximum(vals, lo[..., idx]), hi[..., idx])


def _gini_exponent(r, log_lam, p, q, idx):
    """e = log(M / x[0]) of the Gini(p, q) mean of the prefixes idx, from
    r = log(x / x[0]) (:func:`_log_ratios`) and log_lam, the log weights
    up to a common shift; the mean is symmetric in (p, q), which are
    ordered so that p >= q, and Power(p) is Gini(p, 0).

    With weights lam e**(q r), e is the weighted mean of r when p = q.
    Otherwise it is log1p(m) / (p - q) for the weighted mean m of
    expm1((p - q) r) when p - q < 1/2: the form of
    :func:`~hardymeans.hardy.C_of`, which has no cancellation as
    p - q -> 0.  For p - q >= 1/2, and wherever m < -1/2 (1 + m is then
    a cancelled difference) or m overflows, e is the log of the ratio of
    the sums of lam e**(p r) and lam e**(q r), over p - q: that divides
    its rounding by p - q > log 2 / max |r|.
    """
    q, p = sorted((float(p), float(q)))
    d = p - q
    log_w, k = log_lam
    # log(lam x**s / (lam[0] x[0]**s)) less k log 2; the weights' own row
    # when s = 0
    t_p, t_q = (log_w + s * r if s else log_w for s in (p, q))
    if d == 0.0:
        _, _, (e,) = _shifted_sums(t_p, k, [r], idx)
    else:
        with np.errstate(over="ignore"):
            grown = [np.expm1(d * r)] if d < 0.5 else []
        (c_q, j_q), s_q, means = _shifted_sums(t_q, k, grown, idx)
        if means:
            (m,) = means
            e = np.log1p(np.maximum(m, -0.5)) / d
            far = ~np.isfinite(m) | (m < -0.5)
        if not means or far.any():
            (c_p, j_p), s_p, _ = _shifted_sums(t_p, k, [], idx)
            ratio = ((c_p - c_q) + (j_p - j_q) * _LN2
                     + np.log(s_p / s_q)) / d
            e = np.where(far, ratio, e) if means else ratio
    return e


def _prefix_qa(x, lam, g, idx):
    """g^-1 of the weighted prefix means of g(x), by g's inverse or, for
    a generator without one, by one Brent root per requested prefix."""
    with np.errstate(all="ignore"):
        vals = np.asarray(g.fn(x), dtype=float)
    vals = np.where(lam > 0.0, vals, 0.0)
    _, _, (target,) = _shifted_sums(*_log_weights(lam), [vals], idx)
    if not np.isfinite(target).all():
        raise DomainError("generator values or their weighted mean are not "
                          "finite on the sample")
    vlo, vhi = _running_bounds(vals, lam)
    target = np.minimum(np.maximum(target, vlo[..., idx]), vhi[..., idx])
    lo, hi = (b[..., idx] for b in _running_bounds(x, lam))
    if g.inverse is not None:
        ys = np.asarray(g.inverse(target), dtype=float)
    else:
        ys = np.empty(target.shape)
        for k in np.ndindex(target.shape):
            ys[k] = _invert(g, float(target[k]), float(lo[k]), float(hi[k]))
    return np.minimum(np.maximum(ys, lo), hi)


def _invert(g: GeneratorFunction, target: float, lo: float, hi: float
            ) -> float:
    """y in [lo, hi] with g(y) = target, by Brent's method."""
    if lo == hi:
        return lo

    def h(y):
        return float(np.asarray(g.fn(np.array([y])), dtype=float)[0]) - target

    hlo, hhi = h(lo), h(hi)
    if hlo != 0.0 and hhi != 0.0 and (hlo < 0.0) == (hhi < 0.0):
        raise InversionError(
            f"target {target:g} not bracketed by g on [{lo:g}, {hi:g}]")
    return bracketed_root(h, lo, hi, xtol=max(1e-13 * lo, 5e-324),
                          rtol=RTOL_FLOOR, flo=hlo, fhi=hhi).root


def _prefix_deviation(x, lam, efn, idx, homogeneous):
    """Brent root per prefix, on the leading count[i] positive-weight
    samples and their weights scaled by :func:`unit_scaled`."""
    lo, hi = _running_bounds(x, lam)
    support = lam > 0.0
    count = np.cumsum(support)
    xs, ws = x[support], lam[support]
    out = np.empty(idx.size)
    for j, i in enumerate(idx):
        k = count[i]
        out[j] = _solve_deviation(xs[:k], unit_scaled(ws[:k]), float(lo[i]),
                                  float(hi[i]), efn, homogeneous)
    return out


def _prefix_devmean_newton(x, lam, f, idx):
    """Homogeneous deviation mean per prefix, solved for t = log(y / x[0]).

    With r = log(x / x[0]) and u = exp(r - t) = x / y, g(t) = sum w f(u)
    decreases from g(min r) >= 0 to g(max r) <= 0, with
    g'(t) = -sum w u f'(u).  Each requested prefix is one safeguarded
    Newton solve with the rows as lanes (:func:`rootfind.newton_lanes`),
    started at t of the prefix's osculating power mean, of order
    p0 = 1 + f''(1) / f'(1): the root itself for the power and log
    profiles, and within second order of it for Gini (kept on a bracket
    end where rounding puts it).  No state passes from one prefix to the
    next.  x[0] is in every prefix's support, so t and u carry errors set
    by the spread of the samples, not by their magnitude; each prefix's
    weights are scaled by a power of two
    (:func:`~hardymeans.weights.unit_scaled`) so that g stays in range.
    The bracket ends are the running extremes of r, and the solve stops
    once |dt| is within 1e-13 lo / hi + RTOL_FLOOR (1 + |t|).  A row whose
    prefix has equal extremes, or a zero of g at an extreme, takes that
    value without a solve.
    """
    _require_sign_like(f)
    fn, d1 = f.fn, f.d1
    rows = np.atleast_2d(x)
    lo, hi = _running_bounds(rows, lam)
    support = lam > 0.0
    count = np.cumsum(support)
    x_ref = rows[:, 0]
    r_all = _log_ratios(rows)
    # p0 is p for dev_power(p), 0 for log and p + q for dev_gini(p, q);
    # 0 without f'' or when not finite
    with np.errstate(all="ignore"):
        p0 = 1.0 + np.float64(f.d2(1.0)) / f.d1(1.0) if f.d2 else 0.0
    start = _gini_exponent(r_all, _log_weights(lam),
                           float(p0) if np.isfinite(p0) else 0.0, 0.0, idx)
    rx = np.compress(support, r_all, axis=-1)
    ws = lam[support]
    rlo = np.minimum.accumulate(rx, axis=-1)
    rhi = np.maximum.accumulate(rx, axis=-1)
    out = np.empty((rows.shape[0], idx.size))
    for j, i in enumerate(idx):
        k = count[i]
        a, b = rlo[:, k - 1], rhi[:, k - 1]
        lo_i, hi_i = lo[:, i], hi[:, i]
        out[:, j] = np.minimum(np.maximum(x_ref, lo_i), hi_i)  # a == b == 0
        live = np.flatnonzero(a != b)
        if live.size == 0:
            continue
        r, w = _take_rows(rx[:, :k], live), unit_scaled(ws[:k])
        ga = _row_dot(fn(np.exp(r - a[live, None])), w)
        gb = _row_dot(fn(np.exp(r - b[live, None])), w)
        at_lo, at_hi = ga == 0.0, (ga != 0.0) & (gb == 0.0)
        out[live[at_lo], j] = lo_i[live[at_lo]]
        out[live[at_hi], j] = hi_i[live[at_hi]]
        solve = ~(at_lo | at_hi)
        bad = solve & ((ga < 0.0) | (gb > 0.0))
        if bad.any():
            m = bad.argmax()
            _check_sign_property(float(ga[m]), float(gb[m]),
                                 float(lo_i[live[m]]), float(hi_i[live[m]]))
        r, lanes = _take_rows(r, np.flatnonzero(solve)), live[solve]
        if lanes.size == 0:
            continue

        def g_slope(s, sub):
            u = np.exp(_take_rows(r, sub) - s[:, None])
            return _row_dot(fn(u), w), -_row_dot(u * d1(u), w)

        a, b = a[lanes], b[lanes]
        t, _, _ = newton_lanes(
            g_slope, a, ga[solve], b, gb[solve],
            np.minimum(np.maximum(start[lanes, j], a), b),
            xtol=1e-13 * lo_i[lanes] / hi_i[lanes] + RTOL_FLOOR,
            rtol=RTOL_FLOOR)
        out[lanes, j] = np.minimum(
            np.maximum(_times_exp(x_ref[lanes], t), lo_i[lanes]), hi_i[lanes])
    return out if x.ndim > 1 else out[0]


def _take_rows(a, rows):
    """a[rows] for ascending distinct row indices; a itself, not a copy,
    when they are all the rows."""
    return a if rows.size == a.shape[0] else a[rows]


def _row_dot(a, w):
    """sum(a * w) along the last axis.  Not matmul: BLAS rounds a row
    differently by its position in the batch, and each row's value must
    depend on that row alone."""
    return np.einsum("ij,j->i", a, w)


# -- CLI specifier parsing ------------------------------------------------


def parse_mean(text: str) -> MeanSpec:
    """Parse a mean specifier.

    Forms: ``power:p=<real>`` (inf / -inf allowed), ``gini:p=<real>,q=<real>``,
    ``qa:g=<gen>`` with gen in {log, pow:<p>, exp}, ``devmean:f=<gen>`` with
    gen in {log, pow:<p>, gini:<p>,<q>}.
    """
    body = text.strip()
    head, _, rest = body.partition(":")
    try:
        if head == "power":
            return Power(p=parse_kv(rest, "p", _real))
        if head == "gini":
            pp, _, qq = rest.partition(",")
            return Gini(p=parse_kv(pp, "p", _real), q=parse_kv(qq, "q", _real))
        if head == "qa":
            name = parse_kv(rest, "g", str)
            return QuasiArithmetic(g=_generator(_QA_GENERATORS, name))
        if head == "devmean":
            name = parse_kv(rest, "f", str)
            return HomogeneousDeviation(f=_generator(_DEV_GENERATORS, name))
    except (UsageError, DomainError):
        raise
    except Exception as exc:
        raise UsageError(f"bad mean specifier {text!r}: {exc}") from exc
    raise UsageError(f"unknown mean specifier {text!r}")


def _real(s: str) -> float:
    v = float(s)
    if math.isnan(v):
        raise ValueError("NaN is not a valid parameter")
    return v


# The named generators of each role: specifier name -> (constructor, kind),
# where kind is the first entry of the generator's family; the parameters
# follow the name as ``name:p`` or ``name:p,q``.
_QA_GENERATORS = {"log": (log_gen, "log"), "exp": (exp_gen, "exp-map"),
                  "pow": (power_gen, "pow-map")}
_DEV_GENERATORS = {"log": (log_gen, "log"), "pow": (dev_power, "power"),
                   "gini": (dev_gini, "gini")}


def _generator(table: dict, text: str) -> GeneratorFunction:
    name, sep, args = text.partition(":")
    if name not in table:
        raise UsageError(f"unknown generator {text!r}")
    return table[name][0](*(_real(a) for a in args.split(",") if sep))


def _generator_text(table: dict, g: GeneratorFunction) -> str:
    kind, *params = g.family
    for name, (_, named_kind) in table.items():
        if named_kind == kind:
            args = ",".join(map(fmt_real, params))
            return f"{name}:{args}" if args else name
    raise UsageError(f"no canonical text for generator {g.label!r}")
