"""Weighted mean families and their prefix evaluations.

All means take a positive sample vector x and a nonnegative weight
vector lam (first entry positive, positive total) and return a value
between the smallest and largest sample carrying positive weight.

A family computes its values in one place, its prefix evaluation
``MeanSpec.prefix``; ``evaluate`` is the last prefix.  Power and Gini
means, and the weighted means of quasiarithmetic generators, are shifted
compensated prefix sums, so wide dynamic ranges, large exponents and
weights past float range neither overflow nor lose digits.  Deviation
means are roots of a one-dimensional strictly bracketed equation, by
lane-wise Newton when the profile has a derivative, warm-started from
the previous prefix, and by Brent's method otherwise.  Prefix evaluation
works along the last axis, so a batch of sample rows that share one
weight vector is evaluated in one pass.

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
_LN2 = math.log(2.0)


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
        """The weighted mean of x: the last of the prefix means of the
        samples with positive weight, bit for bit
        ``prefix_values(self, x, lam)[-1]`` when lam[0] > 0."""
        x, lam = check_xlam(x, lam)
        keep = lam > 0.0
        xs, ws = x[keep], lam[keep]
        return float(self.prefix(xs, ws, np.arange(xs.size))[-1])

    def prefix(self, x: np.ndarray, lam: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        """Means of x[..., :i+1] for each i in idx, along the last axis.

        x is one sample row of shape (N,) or a batch of rows (rows, N);
        lam has shape (N,), lam[0] > 0, and the inputs are already
        validated.  Prefix means are causal: entries past column i do not
        change the mean of prefix i.  This generic path, for a family
        that defines only ``evaluate``, loops over the rows and evaluates
        each prefix on its own.
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


def _times_exp(a, e):
    """a * exp(e); once |e| nears the float range of exp, as
    2**k a exp(e - k log 2), so that exp(e) may leave that range while
    the product does not."""
    if (np.abs(e) < 700.0).all():
        return a * np.exp(e)
    k = np.rint(e / _LN2)
    return np.ldexp(a * np.exp(e - k * _LN2), k.astype(int))


def _shifted_sums(t, values, idx):
    """Prefix sums of e**t, and the e**t-weighted prefix means of each v
    in `values`, along the last axis at the columns idx.

    t is (N,) or (rows, N) with t[..., 0] finite; a v has t's shape, or
    rows of its own when t is one shared row.  Each sum comes as a shift
    c and the compensated sum (:func:`compensated_cumsum`) s of
    e**(t - c), with s at least e**-_HEADROOM and at most N e**_HEADROOM:
    two sums compare as the difference of their shifts plus the log of
    s / s'.  If every t_0 and every entry of t is within _HEADROOM of 0,
    c = 0, e**t is exact to rounding and all rows go in one pass; else
    each row goes alone (:func:`_segmented_sums`).  An overflowing term
    e**t_i v_i makes that mean inf or NaN from i on.
    """
    rows = np.atleast_2d(t)
    vals = [np.atleast_2d(v) for v in values]
    with np.errstate(over="ignore", invalid="ignore"):
        if ((np.abs(rows[:, 0]) <= _HEADROOM)
                & (rows.max(axis=-1) <= _HEADROOM)).all():
            e = np.exp(rows)
            sums = compensated_cumsum(e)[0][..., idx]
            shift = np.zeros((len(rows), 1))
            means = [compensated_cumsum(e * v)[0][..., idx] / sums
                     for v in vals]
        else:
            parts = [_segmented_sums(
                row, [v if len(rows) == 1 else v[k:k + 1] for v in vals], idx)
                for k, row in enumerate(rows)]
            shift, sums = (np.array([part[i] for part in parts])
                           for i in (0, 1))
            means = [np.concatenate([part[2][m] for part in parts])
                     for m in range(len(vals))]
    if np.ndim(t) == 1:
        shift, sums = shift[0], sums[0]
        means = [m[0] if np.ndim(v) == 1 else m
                 for v, m in zip(values, means)]
    return shift, sums, means


def _exp_diff(a, b):
    """e**(a - b) for a finite b, with the rounding of a - b restored
    (TwoSum), so that the error is that of exp alone however large
    a - b is; 0 where a = -inf."""
    d = a - b
    z = d - a
    lo = (a - (d - z)) - (b + z)
    e = np.exp(d)
    return np.fmax(e + e * lo, 0.0)


def _segmented_sums(row, vals, idx):
    """_shifted_sums of one row of t.  The shift c starts at 0, or at t_0
    when that is farther than _HEADROOM from 0; it moves to the running
    maximum of t, and the carried sums are rescaled, when that passes
    c + _HEADROOM, so no term exceeds e**_HEADROOM and the Python loop is
    over segments.  A row that needs no move gives the bits of the
    one-pass path."""
    n = row.size
    tmax = np.maximum.accumulate(row)
    s0, shift = np.empty(n), np.empty(n)
    sums = [np.empty(v.shape) for v in vals]
    carries = [(0.0, 0.0)] * (1 + len(vals))
    i, c = 0, (0.0 if abs(row[0]) <= _HEADROOM else row[0])
    while i < n:
        j = int(np.searchsorted(tmax, c + _HEADROOM, side="right"))
        e = _exp_diff(row[i:j], c)
        s0[i:j], carries[0] = compensated_cumsum(e, carries[0])
        for k, (v, s) in enumerate(zip(vals, sums), 1):
            s[..., i:j], carries[k] = compensated_cumsum(e * v[..., i:j],
                                                         carries[k])
        shift[i:j] = c
        if j < n:
            scale = _exp_diff(c, tmax[j])
            carries = [(a * scale, b * scale) for a, b in carries]
            c = tmax[j]
        i = j
    s0 = s0[idx]
    return shift[idx], s0, [s[..., idx] / s0 for s in sums]


def _prefix_gini(x, lam, p, q, idx):
    """Gini(p, q) of every prefix; the mean is symmetric in (p, q), which
    are ordered so that p >= q, and Power(p) is Gini(p, 0).

    With r = log(x / x[0]) (:func:`_log_ratios`) and weights lam e**(q r),
    the exponent e = log(M / x[0]) is the weighted mean of r when p = q.
    Otherwise it is log1p(m) / (p - q) for the weighted mean m of
    expm1((p - q) r) when p - q < 1/2: the form of
    :func:`~hardymeans.hardy.C_of`, which has no cancellation as
    p - q -> 0.  For p - q >= 1/2, and wherever m < -1/2 (1 + m is then
    a cancelled difference) or m overflows, e is the log of the ratio of
    the sums of lam e**(p r) and lam e**(q r), over p - q: that divides
    its rounding by p - q > log 2 / max |r|.
    """
    q, p = sorted((float(p), float(q)))
    lo, hi = _running_bounds(x, lam)
    r = _log_ratios(x)
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    d = p - q
    # log(lam x**s / x[0]**s); the weights' own row when s = 0
    t_p, t_q = (log_lam + s * r if s else log_lam for s in (p, q))
    if d == 0.0:
        _, _, (e,) = _shifted_sums(t_p, [r], idx)
    else:
        with np.errstate(over="ignore"):
            grown = [np.expm1(d * r)] if d < 0.5 else []
        c_q, s_q, means = _shifted_sums(t_q, grown, idx)
        if means:
            (m,) = means
            e = np.log1p(np.maximum(m, -0.5)) / d
            far = ~np.isfinite(m) | (m < -0.5)
        if not means or far.any():
            c_p, s_p, _ = _shifted_sums(t_p, [], idx)
            ratio = ((c_p - c_q) + np.log(s_p / s_q)) / d
            e = np.where(far, ratio, e) if means else ratio
    vals = _times_exp(x[..., :1], e)
    return np.minimum(np.maximum(vals, lo[..., idx]), hi[..., idx])


def _prefix_qa(x, lam, g, idx):
    """g^-1 of the weighted prefix means of g(x), by g's inverse or, for
    a generator without one, by one Brent root per requested prefix."""
    with np.errstate(all="ignore"):
        vals = np.asarray(g.fn(x), dtype=float)
    vals = np.where(lam > 0.0, vals, 0.0)
    if not np.isfinite(vals).all():
        raise DomainError("generator produced non-finite values on the sample")
    with np.errstate(divide="ignore"):
        _, _, (target,) = _shifted_sums(np.log(lam), [vals], idx)
    if not np.isfinite(target).all():
        raise DomainError("weighted mean of the generator values overflows")
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
    """Brent root per prefix.  The support of prefix i is the leading
    count[i] positive-weight samples, so the mask is taken once."""
    lo, hi = _running_bounds(x, lam)
    support = lam > 0.0
    count = np.cumsum(support)
    xs, ws = x[support], unit_scaled(lam[support])
    out = np.empty(idx.size)
    for j, i in enumerate(idx):
        k = count[i]
        out[j] = _solve_deviation(xs[:k], ws[:k], float(lo[i]), float(hi[i]),
                                  efn, homogeneous)
    return out


def _prefix_devmean_newton(x, lam, f, idx):
    """Homogeneous deviation mean per prefix, solved for t = log(y / x[0]).

    With r = log(x / x[0]) and u = exp(r - t) = x / y, g(t) = sum w f(u)
    decreases from g(min r) >= 0 to g(max r) <= 0, with
    g'(t) = -sum w u f'(u).  Each requested prefix is one safeguarded
    Newton solve with the rows as lanes (:func:`rootfind.newton_lanes`),
    each row warm-started from its last solved root, moved by the change
    in the weighted mean of r since (the whole change when f = log).
    x[0] is in every prefix's support, so t and u carry errors set by the
    spread of the samples, not by their magnitude; the weights are scaled
    by a power of two (:func:`~hardymeans.weights.unit_scaled`) so that g
    stays in range.  The bracket ends are the running extremes of r, and
    the solve stops once |dt| is within 1e-13 lo / hi + RTOL_FLOOR
    (1 + |t|).  A row whose prefix has equal extremes, or a zero of g at
    an extreme, takes that value without a solve; a prefix with the
    weighted samples of the one before it takes that one's means, so
    zero weights neither add a solve nor change the chain of warm starts.
    """
    _require_sign_like(f)
    fn, d1 = f.fn, f.d1
    rows = np.atleast_2d(x)
    lo, hi = _running_bounds(rows, lam)
    support = lam > 0.0
    count = np.cumsum(support)
    x_ref = rows[:, 0]
    rx = np.compress(support, _log_ratios(rows), axis=-1)
    _, _, (r_mean,) = _shifted_sums(np.log(lam[support]), [rx],
                                    np.arange(rx.shape[-1]))
    ws = unit_scaled(lam[support])
    rlo = np.minimum.accumulate(rx, axis=-1)
    rhi = np.maximum.accumulate(rx, axis=-1)
    out = np.empty((rows.shape[0], idx.size))
    t = np.full(rows.shape[0], np.nan)  # last solved root of each row
    k_solved = np.zeros(rows.shape[0], dtype=int)
    k_prev = 0
    for j, i in enumerate(idx):
        k = count[i]
        if k == k_prev:
            out[:, j] = out[:, j - 1]
            continue
        k_prev = k
        a, b = rlo[:, k - 1], rhi[:, k - 1]
        lo_i, hi_i = lo[:, i], hi[:, i]
        out[:, j] = np.minimum(np.maximum(x_ref, lo_i), hi_i)  # a == b == 0
        live = np.flatnonzero(a != b)
        if live.size == 0:
            continue
        r, w = _take_rows(rx[:, :k], live), ws[:k]
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

        x0 = t[lanes] + (r_mean[lanes, k - 1]
                         - r_mean[lanes, k_solved[lanes] - 1])
        t[lanes], _, _ = newton_lanes(
            g_slope, a[lanes], ga[solve], b[lanes], gb[solve], x0,
            xtol=1e-13 * lo_i[lanes] / hi_i[lanes] + RTOL_FLOOR,
            rtol=RTOL_FLOOR)
        k_solved[lanes] = k
        out[lanes, j] = np.minimum(
            np.maximum(_times_exp(x_ref[lanes], t[lanes]), lo_i[lanes]),
            hi_i[lanes])
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
