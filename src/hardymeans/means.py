"""Weighted mean families and their prefix evaluations.

All means take a positive sample vector x and a nonnegative weight
vector lam (first entry positive, positive total) and return a value
between the smallest and largest sample carrying positive weight.

Power and Gini means are evaluated through weighted log-sum-exp, so
wide dynamic ranges and large exponents do not overflow.  Deviation
means are roots of a one-dimensional strictly bracketed equation; the
prefix evaluator reuses closed forms where they exist, and solves the
deviation prefixes one root each, warm-started from the previous one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BracketError, DomainError, InversionError, UsageError
from .generators import (GeneratorFunction, QuasideviationKernel, dev_gini,
                         dev_power, exp_gen, log_gen, power_gen)
from .rootfind import RTOL_FLOOR, bracketed_root

# Past this magnitude the power mean is the max/min limit to within ulp.
_P_EXTREME = 1e15
# below this order the direct formula's eps/p rounding noise exceeds the
# geometric branch's p * Var(ln x) / 2 truncation error
_P_GEOMETRIC = 1e-7


def _check_xlam(x, lam) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if x.ndim != 1 or lam.ndim != 1 or x.size == 0:
        raise DomainError("x and lam must be nonempty 1-d arrays")
    if x.shape != lam.shape:
        raise DomainError(f"length mismatch: {x.size} samples, {lam.size} weights")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("samples must be positive finite reals")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
        raise DomainError("weights must be nonnegative finite reals")
    if not np.sum(lam) > 0.0:
        raise DomainError("weights must have positive total")
    return x, lam


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
    x, lam = _check_xlam(x, lam)
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
    x, lam = _check_xlam(x, lam)
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
    x, lam = _check_xlam(x, lam)
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
    x, lam = _check_xlam(x, lam)
    return _deviation_root(x, lam, kernel.fn, tol)


def homogeneous_devmean(x, lam, f: GeneratorFunction,
                        tol: Optional[float] = None) -> float:
    """Deviation mean with ratio kernel E(x, y) = f(x/y).

    Requires f to declare the sign property sign f(u) = sign (u - 1);
    the result is then positively homogeneous in x.
    """
    x, lam = _check_xlam(x, lam)
    return _deviation_root(x, lam, _ratio_kernel_fn(f), tol)


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


def _deviation_root(x: np.ndarray, lam: np.ndarray, efn, tol) -> float:
    mask = lam > 0.0
    xs, ws = x[mask], lam[mask]
    return _solve_deviation(xs, ws, float(xs.min()), float(xs.max()), efn,
                            tol)


def _solve_deviation(xs: np.ndarray, ws: np.ndarray, lo: float, hi: float,
                     efn, tol) -> float:
    """Root y in [lo, hi] = [min xs, max xs] of sum(ws * efn(xs, y)) = 0,
    by Brent's method; ws > 0."""
    if lo == hi:
        return lo

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


# -- mean family specifiers ---------------------------------------------


class MeanSpec:
    """Base of the dispatchable mean family descriptors."""

    def evaluate(self, x, lam, tol: Optional[float] = None) -> float:
        return evaluate_mean(self, x, lam, tol=tol)


@dataclass(frozen=True)
class Power(MeanSpec):
    p: float


@dataclass(frozen=True)
class Gini(MeanSpec):
    p: float
    q: float


@dataclass(frozen=True)
class QuasiArithmetic(MeanSpec):
    g: GeneratorFunction


@dataclass(frozen=True)
class Deviation(MeanSpec):
    kernel: QuasideviationKernel


@dataclass(frozen=True)
class HomogeneousDeviation(MeanSpec):
    f: GeneratorFunction


def evaluate_mean(spec: MeanSpec, x, lam, tol: Optional[float] = None) -> float:
    if isinstance(spec, Power):
        return power_mean(x, lam, spec.p)
    if isinstance(spec, Gini):
        return gini_mean(x, lam, spec.p, spec.q)
    if isinstance(spec, QuasiArithmetic):
        return quasiarithmetic_mean(x, lam, spec.g)
    if isinstance(spec, HomogeneousDeviation):
        return homogeneous_devmean(x, lam, spec.f, tol=tol)
    if isinstance(spec, Deviation):
        return quasideviation_mean(x, lam, spec.kernel, tol=tol)
    raise DomainError(f"unknown mean spec {spec!r}")


def is_homogeneous(spec: MeanSpec) -> bool:
    """Whether M(t x) = t M(x) holds structurally for this family."""
    if isinstance(spec, (Power, Gini, HomogeneousDeviation)):
        return True
    if isinstance(spec, QuasiArithmetic):
        return spec.g.family.startswith("pow-map") or spec.g.family == "log"
    if isinstance(spec, Deviation):
        fam = spec.kernel.family
        return (fam in ("difference",) or fam.startswith("power-gap")
                or fam.startswith("ratio[") or fam.startswith("scaled-ratio["))
    return False


def is_symmetric_monotone(spec: MeanSpec) -> bool:
    """Whether the mean is symmetric and nondecreasing in each sample."""
    if isinstance(spec, Power):
        return True
    if isinstance(spec, Gini):
        return min(spec.p, spec.q) <= 0.0 <= max(spec.p, spec.q)
    if isinstance(spec, QuasiArithmetic):
        return True
    if isinstance(spec, HomogeneousDeviation):
        return spec.f.concave and spec.f.sign_like
    return False


# -- prefix evaluation ----------------------------------------------------


def prefix_values(spec: MeanSpec, x, lam,
                  ns: Optional[Sequence[int]] = None) -> np.ndarray:
    """Mean of the first n samples for each n in `ns` (default: all n).

    Closed families (power, Gini, invertible quasiarithmetic) run on
    cumulative accumulators in one vectorized pass; deviation families
    solve one root per requested prefix, which costs O(n) work each.
    The inputs are validated once, not once per prefix.
    """
    x, lam = _check_xlam(x, lam)
    if lam[0] <= 0.0:
        raise DomainError("prefix evaluation needs lam[0] > 0")
    n_total = x.size
    if ns is None:
        ns_arr = np.arange(1, n_total + 1)
    else:
        ns_arr = np.asarray(list(ns), dtype=int)
        if ns_arr.size == 0 or ns_arr.min() < 1 or ns_arr.max() > n_total:
            raise DomainError("prefix indices must lie in 1..len(x)")
    idx = ns_arr - 1

    if isinstance(spec, Power):
        return _prefix_power(x, lam, spec.p, idx)
    if isinstance(spec, Gini):
        return _prefix_gini(x, lam, spec.p, spec.q, idx)
    if isinstance(spec, QuasiArithmetic) and spec.g.inverse is not None:
        return _prefix_qa(x, lam, spec.g, idx)
    if isinstance(spec, HomogeneousDeviation):
        if spec.f.d1 is not None:
            return _prefix_devmean_newton(x, lam, spec.f, idx)
        return _prefix_deviation(x, lam, _ratio_kernel_fn(spec.f), idx)
    if isinstance(spec, Deviation):
        return _prefix_deviation(x, lam, spec.kernel.fn, idx)
    # generic slow path: one evaluation per requested prefix
    out = np.empty(idx.size)
    for j, i in enumerate(idx):
        out[j] = evaluate_mean(spec, x[:i + 1], lam[:i + 1])
    return out


def _running_bounds(x, lam):
    lo = np.minimum.accumulate(np.where(lam > 0.0, x, math.inf))
    hi = np.maximum.accumulate(np.where(lam > 0.0, x, -math.inf))
    return lo, hi


def _prefix_deviation(x, lam, efn, idx):
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
                                  efn, None)
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
    """
    _require_sign_like(f)
    fn, d1 = f.fn, f.d1
    lo, hi = _running_bounds(x, lam)
    support = lam > 0.0
    count = np.cumsum(support)
    x_ref = float(x[0])
    rx, ws = np.log(x[support] / x_ref), lam[support]
    rlo = np.minimum.accumulate(rx)
    rhi = np.maximum.accumulate(rx)
    r_mean = np.cumsum(ws * rx) / np.cumsum(ws)
    out = np.empty(idx.size)
    t = t0 = None
    for j, i in enumerate(idx):
        k = count[i]
        a, b = float(rlo[k - 1]), float(rhi[k - 1])
        lo_i, hi_i = float(lo[i]), float(hi[i])
        if a == b:
            out[j] = min(max(x_ref, lo_i), hi_i)  # a == b == 0
            continue
        r, w = rx[:k], ws[:k]

        def g_slope(s):
            u = np.exp(r - s)
            return float(np.dot(w, fn(u))), -float(np.dot(w, u * d1(u)))

        ga, gb = (float(np.dot(w, fn(np.exp(r - s)))) for s in (a, b))
        if ga == 0.0:
            out[j] = lo_i
            continue
        if gb == 0.0:
            out[j] = hi_i
            continue
        _check_sign_property(ga, gb, lo_i, hi_i)
        if t is not None:
            t0 = t + (r_mean[k - 1] - r_mean[k_solved - 1])
        t = bracketed_root(g_slope, a, b,
                           xtol=1e-13 * lo_i / hi_i + RTOL_FLOOR,
                           rtol=RTOL_FLOOR, flo=ga, fhi=gb, fprime=True,
                           x0=t0).root
        k_solved = k
        out[j] = min(max(x_ref * math.exp(t), lo_i), hi_i)
    return out


def _prefix_power(x, lam, p, idx):
    p = float(p)
    if math.isnan(p):
        raise DomainError("power mean order must not be NaN")
    lo, hi = _running_bounds(x, lam)
    if p == math.inf or p >= _P_EXTREME:
        return hi[idx].copy()
    if p == -math.inf or p <= -_P_EXTREME:
        return lo[idx].copy()
    with np.errstate(divide="ignore"):
        ll = np.log(lam)
    logx = np.log(x)
    lse0 = np.logaddexp.accumulate(ll)
    if abs(p) < _P_GEOMETRIC:
        num = np.cumsum(lam * logx)
        den = np.cumsum(lam)
        vals = np.exp(num / den)
    else:
        lsep = np.logaddexp.accumulate(ll + p * logx)
        vals = np.exp((lsep - lse0) / p)
    return np.minimum(np.maximum(vals, lo), hi)[idx]


def _prefix_gini(x, lam, p, q, idx):
    p, q = float(p), float(q)
    if any(map(math.isnan, (p, q))) or any(map(math.isinf, (p, q))):
        raise DomainError("Gini exponents must be finite")
    if q == 0.0:
        return _prefix_power(x, lam, p, idx)
    if p == 0.0:
        return _prefix_power(x, lam, q, idx)
    lo, hi = _running_bounds(x, lam)
    logx = np.log(x)
    if p == q:
        # running rescaled accumulators: shift tracks the prefix max of
        # p*log(x) so the exponentials never overflow
        vals = np.empty(x.size)
        m = -math.inf
        sw = swl = 0.0
        for i in range(x.size):
            t = p * logx[i]
            li = lam[i]
            if li > 0.0 and t > m:
                scale = math.exp(m - t) if m > -math.inf else 0.0
                sw *= scale
                swl *= scale
                m = t
            e = li * math.exp(t - m) if li > 0.0 else 0.0
            sw += e
            swl += e * logx[i]
            vals[i] = math.exp(swl / sw)
    else:
        with np.errstate(divide="ignore"):
            ll = np.log(lam)
        lsep = np.logaddexp.accumulate(ll + p * logx)
        lseq = np.logaddexp.accumulate(ll + q * logx)
        vals = np.exp((lsep - lseq) / (p - q))
    return np.minimum(np.maximum(vals, lo), hi)[idx]


def _prefix_qa(x, lam, g, idx):
    lo, hi = _running_bounds(x, lam)
    vals = np.asarray(g.fn(x), dtype=float)
    vlo = np.minimum.accumulate(np.where(lam > 0.0, vals, math.inf))
    vhi = np.maximum.accumulate(np.where(lam > 0.0, vals, -math.inf))
    target = np.cumsum(lam * vals) / np.cumsum(lam)
    target = np.minimum(np.maximum(target, vlo), vhi)
    ys = np.asarray(g.inverse(target), dtype=float)
    return np.minimum(np.maximum(ys, lo), hi)[idx]


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
            return Power(p=_kv(rest, "p", _real))
        if head == "gini":
            pp, _, qq = rest.partition(",")
            return Gini(p=_kv(pp, "p", _real), q=_kv(qq, "q", _real))
        if head == "qa":
            name = _kv(rest, "g", str)
            return QuasiArithmetic(g=_qa_generator(name))
        if head == "devmean":
            name = _kv(rest, "f", str)
            return HomogeneousDeviation(f=_dev_generator(name))
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


def _kv(body: str, key: str, conv):
    name, _, val = body.partition("=")
    if name != key or not val:
        raise UsageError(f"expected {key}=<value>, got {body!r}")
    return conv(val)


def _qa_generator(name: str) -> GeneratorFunction:
    if name == "log":
        return log_gen()
    if name == "exp":
        return exp_gen()
    if name.startswith("pow:"):
        return power_gen(_real(name[4:]))
    raise UsageError(f"unknown quasiarithmetic generator {name!r}")


def _dev_generator(name: str) -> GeneratorFunction:
    if name == "log":
        return log_gen()
    if name.startswith("pow:"):
        return dev_power(_real(name[4:]))
    if name.startswith("gini:"):
        pp, _, qq = name[5:].partition(",")
        return dev_gini(_real(pp), _real(qq))
    raise UsageError(f"unknown deviation generator {name!r}")


def canonical(spec: MeanSpec) -> str:
    """Canonical specifier text; parse_mean(canonical(s)) equals s."""
    if isinstance(spec, Power):
        return f"power:p={_fmt_param(spec.p)}"
    if isinstance(spec, Gini):
        return f"gini:p={_fmt_param(spec.p)},q={_fmt_param(spec.q)}"
    if isinstance(spec, QuasiArithmetic):
        fam = spec.g.family
        if fam == "log":
            return "qa:g=log"
        if fam == "exp-map":
            return "qa:g=exp"
        if fam.startswith("pow-map:"):
            return f"qa:g=pow:{_fmt_param(float(fam.split(':')[1]))}"
        raise UsageError(f"no canonical text for generator {fam!r}")
    if isinstance(spec, HomogeneousDeviation):
        fam = spec.f.family
        if fam == "log":
            return "devmean:f=log"
        if fam.startswith("power:"):
            return f"devmean:f=pow:{_fmt_param(float(fam.split(':')[1]))}"
        if fam.startswith("gini:"):
            pq = fam.split(":")[1].split(",")
            return (f"devmean:f=gini:{_fmt_param(float(pq[0]))},"
                    f"{_fmt_param(float(pq[1]))}")
        raise UsageError(f"no canonical text for generator {fam!r}")
    raise UsageError(f"no canonical text for {spec!r}")


def _fmt_param(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return f"{v:.17g}"
