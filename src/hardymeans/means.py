"""Weighted mean families and their prefix evaluations.

All means take a positive sample vector x and a nonnegative weight
vector lam (first entry positive, positive total) and return a value
between the smallest and largest sample carrying positive weight.

Power and Gini means are evaluated through weighted log-sum-exp, so
wide dynamic ranges and large exponents do not overflow.  Deviation
means are roots of a one-dimensional strictly bracketed equation; the
prefix evaluator reuses closed forms where they exist, and solves the
deviation prefixes one root each, warm-started from the previous one.
Prefix evaluation works along the last axis, so a batch of sample rows
that share one weight vector is evaluated in one pass.

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
from .weights import compensated_cumsum

# Past this magnitude the power mean is the max/min limit to within ulp.
_P_EXTREME = 1e15
# below this order the direct formula's eps/p rounding noise exceeds the
# geometric branch's p * Var(ln x) / 2 truncation error
_P_GEOMETRIC = 1e-7
# Largest exponent of a term of the Gini p = q prefix sums: a million
# terms of e**600 stay far below overflow.
_GINI_HEADROOM = 600.0
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
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("samples must be positive finite reals")


def check_weights(lam: np.ndarray) -> None:
    """Raise DomainError unless lam is nonnegative, finite and has a
    positive total."""
    if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
        raise DomainError("weights must be nonnegative finite reals")
    if not np.sum(lam) > 0.0:
        raise DomainError("weights must have positive total")


def _support(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return x[lam > 0.0]


def _weighted_lse(log_lam: np.ndarray, shift: np.ndarray) -> float:
    """log sum of lam * exp(shift), stable under any magnitudes."""
    t = log_lam + shift
    m = np.max(t)
    if m == -math.inf:
        return -math.inf
    return float(m + np.log(np.sum(np.exp(t - m))))


def power_mean(x, lam, p: float) -> float:
    """Weighted power mean of order p; p = 0 is the geometric mean and
    p = +/-inf the weighted max/min."""
    x, lam = check_xlam(x, lam)
    if math.isnan(p):
        raise DomainError("power mean order must not be NaN")
    return _power_mean_checked(x, lam, float(p))


def _power_mean_checked(x: np.ndarray, lam: np.ndarray, p: float) -> float:
    sup = _support(x, lam)
    lo, hi = float(sup.min()), float(sup.max())
    if lo == hi:
        return lo
    if p == math.inf or p >= _P_EXTREME:
        return hi
    if p == -math.inf or p <= -_P_EXTREME:
        return lo
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    logx = np.log(x)
    if abs(p) < _P_GEOMETRIC:
        w = np.exp(log_lam - _weighted_lse(log_lam, np.zeros_like(logx)))
        return float(min(max(math.exp(float(np.dot(w, logx))), lo), hi))
    val = math.exp((_weighted_lse(log_lam, p * logx)
                    - _weighted_lse(log_lam, np.zeros_like(logx))) / p)
    return float(min(max(val, lo), hi))


def gini_mean(x, lam, p: float, q: float) -> float:
    """Weighted Gini mean with exponent pair (p, q).

    For p != q this is (sum lam x**p / sum lam x**q) ** (1/(p-q)); the
    diagonal p = q is the continuous limit.  Gini(p, 0) evaluates through
    the same arithmetic as power_mean(p).
    """
    x, lam = check_xlam(x, lam)
    p, q = float(p), float(q)
    if math.isnan(p) or math.isnan(q) or math.isinf(p) or math.isinf(q):
        raise DomainError("Gini exponents must be finite")
    # a zero exponent reduces to a power mean; delegating keeps the two
    # families bit-identical there, not merely close
    if q == 0.0:
        return _power_mean_checked(x, lam, p)
    if p == 0.0:
        return _power_mean_checked(x, lam, q)
    sup = _support(x, lam)
    lo, hi = float(sup.min()), float(sup.max())
    if lo == hi:
        return lo
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    logx = np.log(x)
    if p == q:
        # limit: exp of the x**p-weighted average of log x
        t = log_lam + p * logx
        m = np.max(t)
        w = np.exp(t - m)
        val = math.exp(float(np.dot(w, logx) / np.sum(w)))
    else:
        val = math.exp((_weighted_lse(log_lam, p * logx)
                        - _weighted_lse(log_lam, q * logx)) / (p - q))
    return float(min(max(val, lo), hi))


def quasiarithmetic_mean(x, lam, g: GeneratorFunction) -> float:
    """Weighted quasiarithmetic mean with strictly monotone generator g.

    Uses g's analytic inverse when present, otherwise inverts by
    bracketed root finding between min x and max x.
    """
    x, lam = check_xlam(x, lam)
    sup = _support(x, lam)
    lo, hi = float(sup.min()), float(sup.max())
    if lo == hi:
        return lo
    vals = np.asarray(g.fn(x), dtype=float)
    if not np.all(np.isfinite(vals[lam > 0.0])):
        raise DomainError("generator produced non-finite values on the sample")
    total = float(np.sum(lam))
    target = float(np.dot(lam, vals) / total)
    vsup = vals[lam > 0.0]
    target = min(max(target, float(vsup.min())), float(vsup.max()))
    if g.inverse is not None:
        y = float(np.asarray(g.inverse(target), dtype=float))
    else:
        def h(t):
            return float(np.asarray(g.fn(np.array([t])), dtype=float)[0]) - target
        hlo, hhi = h(lo), h(hi)
        if hlo == 0.0:
            return lo
        if hhi == 0.0:
            return hi
        if (hlo < 0.0) == (hhi < 0.0):
            raise InversionError(
                f"target {target:g} not bracketed by g on [{lo:g}, {hi:g}]")
        y = bracketed_root(h, lo, hi, xtol=max(1e-13 * lo, 5e-324),
                           rtol=RTOL_FLOOR, flo=hlo, fhi=hhi).root
    return float(min(max(y, lo), hi))


def quasideviation_mean(x, lam, kernel: QuasideviationKernel,
                        tol: Optional[float] = None) -> float:
    """Root y of sum(lam_i * E(x_i, y)) = 0 on [min x, max x].

    The sign property of E makes the endpoint values straddle zero; a
    violated straddle raises BracketError (the kernel is then not a
    quasideviation on this sample).
    """
    x, lam = check_xlam(x, lam)
    return _deviation_root(x, lam, kernel.fn, tol,
                           Deviation(kernel).homogeneous)


def homogeneous_devmean(x, lam, f: GeneratorFunction,
                        tol: Optional[float] = None) -> float:
    """Deviation mean with ratio kernel E(x, y) = f(x/y).

    Requires f to declare the sign property sign f(u) = sign (u - 1);
    the result is then positively homogeneous in x.
    """
    x, lam = check_xlam(x, lam)
    return _deviation_root(x, lam, _ratio_kernel_fn(f), tol, True)


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


def _deviation_root(x: np.ndarray, lam: np.ndarray, efn, tol,
                    homogeneous: bool) -> float:
    mask = lam > 0.0
    xs, ws = x[mask], lam[mask]
    return _solve_deviation(xs, ws, float(xs.min()), float(xs.max()), efn,
                            tol, homogeneous)


def _solve_deviation(xs: np.ndarray, ws: np.ndarray, lo: float, hi: float,
                     efn, tol, homogeneous: bool) -> float:
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
                             math.ldexp(hi, -e), efn,
                             None if tol is None else math.ldexp(tol, -e),
                             False)
        return math.ldexp(y, e)

    def g(y):
        return float(np.dot(ws, np.asarray(efn(xs, y), dtype=float)))

    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    _check_sign_property(glo, ghi, lo, hi)
    xtol = tol if tol is not None else max(1e-13 * lo, 5e-324)
    return bracketed_root(g, lo, hi, xtol=xtol, rtol=RTOL_FLOOR,
                          flo=glo, fhi=ghi).root


def _check_sign_property(glo: float, ghi: float, lo: float, hi: float):
    if glo < 0.0 or ghi > 0.0:
        raise BracketError(
            f"kernel violates the sign property on [{lo:g}, {hi:g}]: "
            f"g(lo)={glo:g}, g(hi)={ghi:g}")


# -- mean families ------------------------------------------------------


class MeanSpec:
    """A weighted mean family with its parameters.

    Everything that depends on the family lives on its subclass:
    evaluation, prefix evaluation, the closed and root routes to the
    sharp constant, specifier text, and the structural facts
    ``homogeneous`` (M(t x) = t M(x)) and ``symmetric_monotone``
    (symmetric, nondecreasing in each sample).  A new family overrides
    what it has; the base supplies the generic prefix path, False for
    both facts, and raises for the rest.
    """

    homogeneous = False
    symmetric_monotone = False

    def evaluate(self, x, lam, tol: Optional[float] = None) -> float:
        """The weighted mean of x; tol bounds the root of deviation means."""
        raise DomainError(f"unknown mean spec {self!r}")

    def prefix(self, x: np.ndarray, lam: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        """Means of x[..., :i+1] for each i in idx, along the last axis.

        x is one sample row of shape (N,) or a batch of rows (rows, N);
        lam has shape (N,), lam[0] > 0, and the inputs are already
        validated.  Prefix means are causal: entries past column i do not
        change the mean of prefix i.  This generic path loops over the
        rows and evaluates each prefix on its own.
        """
        if x.ndim > 1:
            return np.array([self.prefix(row, lam, idx) for row in x])
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

    def evaluate(self, x, lam, tol=None):
        return power_mean(x, lam, self.p)

    def prefix(self, x, lam, idx):
        return _prefix_power(x, lam, self.p, idx)

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

    def evaluate(self, x, lam, tol=None):
        return gini_mean(x, lam, self.p, self.q)

    def prefix(self, x, lam, idx):
        if x.ndim > 1 and self.p == self.q != 0.0:
            return super().prefix(x, lam, idx)
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

    def evaluate(self, x, lam, tol=None):
        return quasiarithmetic_mean(x, lam, self.g)

    def prefix(self, x, lam, idx):
        if self.g.inverse is None:
            return super().prefix(x, lam, idx)
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

    def evaluate(self, x, lam, tol=None):
        return quasideviation_mean(x, lam, self.kernel, tol=tol)

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

    def evaluate(self, x, lam, tol=None):
        return homogeneous_devmean(x, lam, self.f, tol=tol)

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
    once, not once per prefix.  The work is ``spec.prefix``, which also
    takes a batch of sample rows sharing lam: closed families (power,
    Gini with p != q, invertible quasiarithmetic) run on cumulative
    accumulators along the last axis in one vectorized pass; homogeneous
    deviation means with a derivative solve each requested prefix of
    every row in one lane-wise Newton solve, warm-started from the row's
    previous root; the rest evaluate each prefix of each row on its own.
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


def _prefix_deviation(x, lam, efn, idx, homogeneous):
    """Brent root per prefix.  The support of prefix i is the leading
    count[i] positive-weight samples, so the mask is taken once."""
    lo, hi = _running_bounds(x, lam)
    support = lam > 0.0
    count = np.cumsum(support)
    xs, ws = x[support], lam[support]
    out = np.empty(idx.size)
    for j, i in enumerate(idx):
        k = count[i]
        out[j] = _solve_deviation(xs[:k], ws[:k], float(lo[i]), float(hi[i]),
                                  efn, None, homogeneous)
    return out


def _prefix_devmean_newton(x, lam, f, idx):
    """Homogeneous deviation mean per prefix, solved for t = log(y / x[0]).

    With r = log(x / x[0]) and u = exp(r - t) = x / y, g(t) = sum w f(u)
    decreases from g(min r) >= 0 to g(max r) <= 0 and
    g'(t) = -sum w u f'(u), so each root is a safeguarded Newton solve
    warm-started from the previous prefix's root, moved by the change in
    the weighted mean of r between the two prefixes (the whole change
    when f = log).  x[0] has positive weight, so it is in every prefix's
    support: |t| <= log(hi / lo), and t and u carry errors set by the
    spread of the samples, not by their magnitude.  The bracket ends are
    the running extremes of r, where the extreme sample has
    u = exp(0) = 1 exactly.  The solve stops once |dt| is within
    1e-13 lo / hi + RTOL_FLOOR (1 + |t|), so the relative error of y is
    within that of the one-prefix solve, 1e-13 lo / y + RTOL_FLOOR, plus
    RTOL_FLOOR log(hi / lo).

    The rows of a batch are independent lanes of one Newton solve per
    requested prefix (:func:`~hardymeans.rootfind.newton_lanes`); a row
    whose prefix has equal extremes, or a zero of g at an extreme, takes
    that value without a solve, and each row warm-starts from its own
    last solved root.
    """
    _require_sign_like(f)
    fn, d1 = f.fn, f.d1
    rows = np.atleast_2d(x)
    lo, hi = _running_bounds(rows, lam)
    support = lam > 0.0
    count = np.cumsum(support)
    x_ref = rows[:, 0]
    rx = np.log(np.compress(support, rows, axis=-1) / x_ref[:, None])
    ws = lam[support]
    rlo = np.minimum.accumulate(rx, axis=-1)
    rhi = np.maximum.accumulate(rx, axis=-1)
    r_mean = np.cumsum(ws * rx, axis=-1) / np.cumsum(ws)
    out = np.empty((rows.shape[0], idx.size))
    t = np.full(rows.shape[0], np.nan)  # last solved root of each row
    k_solved = np.zeros(rows.shape[0], dtype=int)
    for j, i in enumerate(idx):
        k = count[i]
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
            np.maximum(x_ref[lanes] * np.exp(t[lanes]), lo_i[lanes]),
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


def _prefix_power(x, lam, p, idx):
    p = float(p)
    if math.isnan(p):
        raise DomainError("power mean order must not be NaN")
    lo, hi = _running_bounds(x, lam)
    if p == math.inf or p >= _P_EXTREME:
        return hi[..., idx]
    if p == -math.inf or p <= -_P_EXTREME:
        return lo[..., idx]
    with np.errstate(divide="ignore"):
        ll = np.log(lam)
    logx = np.log(x)
    lse0 = np.logaddexp.accumulate(ll)
    if abs(p) < _P_GEOMETRIC:
        num = np.cumsum(lam * logx, axis=-1)
        den = np.cumsum(lam)
        vals = np.exp(num / den)
    else:
        lsep = np.logaddexp.accumulate(ll + p * logx, axis=-1)
        vals = np.exp((lsep - lse0) / p)
    return np.minimum(np.maximum(vals, lo), hi)[..., idx]


def _prefix_gini(x, lam, p, q, idx):
    p, q = float(p), float(q)
    if any(map(math.isnan, (p, q))) or any(map(math.isinf, (p, q))):
        raise DomainError("Gini exponents must be finite")
    if q == 0.0:
        return _prefix_power(x, lam, p, idx)
    if p == 0.0:
        return _prefix_power(x, lam, q, idx)
    lo, hi = _running_bounds(x, lam)
    if p == q:
        vals = _prefix_gini_diagonal(x, lam, p)
    else:
        with np.errstate(divide="ignore"):
            ll = np.log(lam)
        logx = np.log(x)
        lsep = np.logaddexp.accumulate(ll + p * logx, axis=-1)
        lseq = np.logaddexp.accumulate(ll + q * logx, axis=-1)
        vals = np.exp((lsep - lseq) / (p - q))
    return np.minimum(np.maximum(vals, lo), hi)[..., idx]


def _prefix_gini_diagonal(x, lam, p):
    """Gini(p, p) of every prefix: exp of the lam x**p-weighted mean of
    log x.

    With r = log(x / x[0]) and t = log lam + p r, the prefix sums
    S0 = sum e**(t - c) and S1 = sum e**(t - c) r are compensated cumsums
    and each mean is exp(log x[0] + S1 / S0).  r is formed from the
    mantissas and exponents of x, so it is finite for any spread and, for
    samples scaled alike by a power of two, does not depend on the scale.
    The shift c is the running max of t where a segment starts; it moves,
    and the carried sums are rescaled, only when the running max passes
    c + _GINI_HEADROOM, so no term exceeds e**_GINI_HEADROOM and the
    only Python loop is over those segments.
    """
    mx, ex = np.frexp(x)
    r = np.log(mx / mx[0]) + (ex - ex[0]) * _LN2
    with np.errstate(divide="ignore"):
        t = np.log(lam) + p * r
    tmax = np.maximum.accumulate(t)  # finite: lam[0] > 0
    mean_r = np.empty(x.size)
    carry0 = carry1 = (0.0, 0.0)
    i, c = 0, float(tmax[0])
    while i < x.size:
        j = int(np.searchsorted(tmax, c + _GINI_HEADROOM, side="right"))
        e = np.exp(t[i:j] - c)
        s0, carry0 = compensated_cumsum(e, carry0)
        s1, carry1 = compensated_cumsum(e * r[i:j], carry1)
        mean_r[i:j] = s1 / s0
        if j < x.size:
            shift = float(tmax[j])
            scale = math.exp(c - shift)
            carry0 = (carry0[0] * scale, carry0[1] * scale)
            carry1 = (carry1[0] * scale, carry1[1] * scale)
            c = shift
        i = j
    return np.exp(math.log(x[0]) + mean_r)


def _prefix_qa(x, lam, g, idx):
    lo, hi = _running_bounds(x, lam)
    vals = np.asarray(g.fn(x), dtype=float)
    vlo, vhi = _running_bounds(vals, lam)
    target = np.cumsum(lam * vals, axis=-1) / np.cumsum(lam)
    target = np.minimum(np.maximum(target, vlo), vhi)
    ys = np.asarray(g.inverse(target), dtype=float)
    return np.minimum(np.maximum(ys, lo), hi)[..., idx]


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
