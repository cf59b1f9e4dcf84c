"""Weighted mean families and their prefix evaluations.

All means take a positive sample vector x and a nonnegative weight
vector lam (first entry positive, positive total) and return a value
between the smallest and largest sample carrying positive weight.

A family computes its values in one place, ``MeanSpec.prefix``: the
mean of prefix i depends on x[..., :i+1] and lam[:i+1] alone, bit for
bit, whatever else is requested, and ``evaluate`` asks for the last
prefix only.  Power and Gini means, and the weighted means of
quasiarithmetic generators, are shifted compensated prefix sums (the
generator x**p takes the power mean's own), so wide dynamic ranges,
large exponents and weights past float range neither overflow nor lose
digits; one loop runs every row of a batch over cache-sized chunks of
columns up to the last requested prefix, forming each chunk's terms
there alone, each row with its own shift, which moves where the row's
terms grow past e**600, and the sums are read at the requested prefixes
only.  The homogeneous deviation means of the named profiles ln u,
(u**p - 1)/p and (u**p - u**q)/(p - q) are the geometric, power and
Gini means, by those means' prefix.  Every other mean is a root, of a
raw deviation kernel (a custom profile f gives the kernel f(x / y)) or
of a generator without an inverse, and each (row, prefix) pair is one
lane of one solver, safeguarded Newton in log y (:func:`_log_lanes`).
The running extremes of the samples, which bound every mean, are also
taken at the requested prefixes only.  A batch of rows that share one
weight vector is one pass, and its rows may hold sequences of their own
lengths, whose padded prefixes the root-solving families skip.

Each family is a :class:`MeanSpec` subclass that also carries the
deviation profile that fixes its sharp constant, from which the base
class takes the constant by closed form and by characteristic root
(computed in :mod:`~hardymeans.hardy`), and its specifier text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (BracketError, DomainError, InversionError, PGeqOne,
                     UsageError)
from .formatting import fmt_real, parse_kv
from .generators import (PROFILE_SNAP, GeneratorFunction,
                         QuasideviationKernel, dev_gini, dev_power, exp_gen,
                         log_gen, power_gen, ratio_kernel)
from .hardy import (HardyConstantResult, profile_constant, qa_order,
                    solve_cef)
from .rootfind import RTOL_FLOOR, newton_lanes
from .weights import _CHUNK, check_int, compensated_cumsum

# Past this magnitude the power mean is the max/min limit to within ulp.
_P_EXTREME = 1e15
# Largest exponent of a term of the shifted prefix sums: a million terms
# of e**600 stay far below overflow.
_HEADROOM = 600.0
# Most lanes times widest prefix of one chunk of the lane solver, which
# bounds its working set.
_LANE_CELLS = 2 ** 12
# Step in t (a log of y) of the forward-difference slope of a lane
# function without a declared derivative.
_SLOPE_STEP = 2.0 ** -26
_LN2 = math.log(2.0)
# log 2 in two parts, the first with 21 trailing zero bits, so that k times
# it is exact for |k| < 2**21 (Cody & Waite; the split of fdlibm's exp)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def check_xlam(x, lam) -> tuple[np.ndarray, np.ndarray]:
    """x and lam as float arrays, after checking that they are nonempty,
    1-d, of one length, with positive finite samples and nonnegative
    finite weights of positive total; DomainError otherwise."""
    x, lam = check_sequence(x), check_sequence(lam, "weights")
    if x.shape != lam.shape:
        raise DomainError(f"length mismatch: {x.size} samples, {lam.size} weights")
    check_samples(x)
    check_weights(lam)
    return x, lam


def check_sequence(a, what: str = "samples") -> np.ndarray:
    """a as a nonempty 1-d float array; DomainError otherwise."""
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be real numbers: {exc}") from None
    if a.ndim != 1 or a.size == 0:
        raise DomainError(f"{what} must be a nonempty 1-d array")
    return a


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


# -- mean families ------------------------------------------------------


class MeanSpec:
    """A weighted mean family with its parameters.

    Everything that depends on the family lives on its subclass: prefix
    evaluation, the ``profile`` that fixes the sharp constant, specifier
    text, and the structural facts ``homogeneous`` (M(t x) = t M(x)) and
    ``symmetric_monotone`` (symmetric, nondecreasing in each sample).  A
    family computes its values in ``prefix`` alone, and ``evaluate`` is
    the last prefix.  A new family states ``prefix`` and whatever else
    it has.  The base states both routes to the constant once, from the
    profile: ``closed_constant`` reads its closed form and
    ``root_constant`` solves its characteristic equation.  The base
    supplies False for both facts and raises for the rest.
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

    def prefix(self, x: np.ndarray, lam: np.ndarray, idx: np.ndarray,
               lengths: Optional[np.ndarray] = None) -> np.ndarray:
        """Means of x[..., :i+1] for each i in idx, along the last axis.

        x is one sample row of shape (N,) or a batch of rows (rows, N);
        lam has shape (N,), lam[0] > 0, idx is a nonempty integer array
        of columns, and the inputs are already validated.  The mean of
        prefix i of a row depends on its x[:i+1] and lam[:i+1] alone, bit
        for bit, not on other rows or columns or idx; a prefix with no
        mean raises.  lengths, for a batch, holds the length of each
        row's own sequence: the entries of prefixes i >= lengths[row] are
        then unspecified, and the root-solving families skip them.
        """
        raise DomainError(f"unknown mean spec {self!r}")

    def profile(self) -> GeneratorFunction:
        """The homogeneous deviation profile that fixes the sharp constant
        (which depends on eta and on the mean near zero alone): dev_power
        or dev_gini of the exponents, dev_power of a generator's order
        (hardy.qa_order: stated for x**p, detected otherwise), f itself;
        PGeqOne where that constant is +inf."""
        raise DomainError(f"unknown mean spec {self!r}")

    def closed_constant(self, eta: float) -> float:
        """profile_constant of the profile at eta (already checked to lie
        in [0, 1)), or +inf where the profile raises PGeqOne."""
        try:
            f = self.profile()
        except PGeqOne:
            return math.inf
        return profile_constant(f, eta)

    def root_constant(self, eta: float, tol: float) -> HardyConstantResult:
        """The root of the profile's characteristic equation."""
        return solve_cef(self.profile(), eta, tol=tol)

    def canonical(self) -> str:
        """Canonical specifier text; parse_mean(s.canonical()) equals s."""
        raise UsageError(f"no canonical text for {self!r}")


@dataclass(frozen=True)
class Power(MeanSpec):
    """Weighted power mean of order p; p = 0 is the geometric mean and
    p = +/-inf the weighted max/min."""

    p: float

    homogeneous = True
    symmetric_monotone = True

    def prefix(self, x, lam, idx, lengths=None):
        p = self.p
        if math.isnan(p):
            raise DomainError("power mean order must not be NaN")
        if abs(p) >= _P_EXTREME:
            lo, hi = _running_extremes(x, lam, idx)
            return hi if p > 0.0 else lo
        return _prefix_gini(x, lam, p, 0.0, idx)

    def profile(self):
        return dev_power(self.p)

    def canonical(self):
        return f"power:p={fmt_real(self.p)}"


@dataclass(frozen=True)
class Gini(MeanSpec):
    """Weighted Gini mean (sum lam x**p / sum lam x**q) ** (1/(p-q)), and
    its limit at p = q; Gini(p, 0) is Power(p), bit for bit, for |p| < 1e15."""

    p: float
    q: float

    homogeneous = True

    @property
    def symmetric_monotone(self):
        return min(self.p, self.q) <= 0.0 <= max(self.p, self.q)

    def prefix(self, x, lam, idx, lengths=None):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError("Gini exponents must be finite")
        return _prefix_gini(x, lam, self.p, self.q, idx)

    def profile(self):
        return dev_gini(self.p, self.q)

    def canonical(self):
        return f"gini:p={fmt_real(self.p)},q={fmt_real(self.q)}"


@dataclass(frozen=True)
class QuasiArithmetic(MeanSpec):
    """Weighted quasiarithmetic mean of a strictly monotone generator g:
    by g's inverse when present, else by a bracketed root in [min x, max x].
    The generator x**p of power_gen gives Power(p), by Power's prefix, and
    its constants are Power(p)'s: the profile is dev_power of g's order,
    stated for x**p and detected otherwise (hardy.qa_order)."""

    g: GeneratorFunction

    symmetric_monotone = True

    @property
    def homogeneous(self):
        return self.g.family[0] in ("pow-map", "log")

    def prefix(self, x, lam, idx, lengths=None):
        if self.g.family[0] == "pow-map":
            return Power(self.g.family[1]).prefix(x, lam, idx)
        return _prefix_qa(x, lam, self.g, idx, lengths)

    def profile(self):
        return dev_power(qa_order(self.g))

    def canonical(self):
        return "qa:g=" + _generator_text(_QA_GENERATORS, self.g)


@dataclass(frozen=True)
class Deviation(MeanSpec):
    """Deviation mean of a raw kernel E: the root y of sum lam E(x, y) = 0."""

    kernel: QuasideviationKernel

    @property
    def homogeneous(self):
        family = self.kernel.family
        while family[0] == "normalized":  # E / -dE/dy(y, y) has E's mean
            family = family[1]
        return family[0] in ("difference", "power-gap", "ratio",
                             "scaled-ratio")

    def prefix(self, x, lam, idx, lengths=None):
        """Each prefix of a row's own (see MeanSpec.prefix) is a lane of
        :func:`_log_lanes`, in chunks (:func:`_prefix_lanes`); a
        homogeneous kernel sees its samples and y scaled exactly by 2**-k,
        2**k between the prefix's extremes, so its values are of order 1."""
        fn, homogeneous = self.kernel.fn, self.homogeneous
        rows = np.atleast_2d(x)
        lo, hi = _running_extremes(rows, lam, idx)
        xs = np.compress(lam > 0.0, rows, axis=-1)

        def chunk(rr, cc, end, w):
            lo_l, hi_l = lo[rr, cc], hi[rr, cc]
            # 2**k between the extremes; k = 0 unless the kernel is homogeneous
            k = (np.frexp(lo_l)[1] + np.frexp(hi_l)[1]) // 2 * homogeneous
            with np.errstate(over="ignore"):  # an inf sum raises
                x_l = np.ldexp(xs[rr, :end[-1] + 1], -k[:, None])

            def sums(y, lanes):
                n = end[lanes[-1]] + 1
                v = fn(_take_rows(x_l, lanes)[:, :n],
                       np.ldexp(y, -k[lanes])[:, np.newaxis])
                return (_lane_sums(v, _take_rows(w, lanes)[:, :n], end[lanes]),
                        None)

            return _log_lanes(sums, lo_l, hi_l, BracketError)

        out = _prefix_lanes(rows, lam, idx, lengths, lo, hi, lo != hi, chunk)
        return out if x.ndim > 1 else out[0]

    def profile(self):
        raise DomainError(
            "no direct constant for a raw kernel: normalize_kernel, take "
            "h_of_kernel, and solve with that profile")


@dataclass(frozen=True)
class HomogeneousDeviation(MeanSpec):
    """Deviation mean of the kernel f(x/y), for f that declares the sign
    property sign f(u) = sign(u - 1) (DomainError otherwise).  The mean
    of a named profile is the mean it generates, by that mean's prefix:
    log_gen gives Power(0), dev_power(p) Power(p) and dev_gini(p, q)
    Gini(p, q); any other profile's is Deviation(ratio_kernel(f))'s."""

    f: GeneratorFunction

    homogeneous = True

    @property
    def symmetric_monotone(self):
        return self.f.concave and self.f.sign_like

    def prefix(self, x, lam, idx, lengths=None):
        f = self.f
        if not f.sign_like:
            raise DomainError("homogeneous deviation mean needs a sign-like "
                              "generator (sign f(u) = sign(u-1))")
        kind, *params = f.family
        if kind == "log":
            return Power(0.0).prefix(x, lam, idx)
        if kind == "power":
            return Power(*params).prefix(x, lam, idx)
        if kind == "gini":
            return Gini(*params).prefix(x, lam, idx)
        return Deviation(ratio_kernel(f)).prefix(x, lam, idx, lengths)

    def profile(self):
        return self.f

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
        ns_arr = np.array([check_int(n, "prefix length") for n in ns],
                          dtype=int)
        if ns_arr.size == 0 or ns_arr.max() > n_total:
            raise DomainError("prefix indices must lie in 1..len(x)")
    return spec.prefix(x, lam, ns_arr - 1)


def _own(idx, lengths):
    """Which prefixes idx are each row's own (see MeanSpec.prefix): a mask
    that broadcasts against (rows, idx.size), all True without lengths."""
    return idx < (math.inf if lengths is None else lengths[:, np.newaxis])


def _running_extremes(x, lam, idx):
    """The least and the greatest positive-weight sample of x[..., :i+1]
    for each i in idx, along the last axis.

    Each is the min (max) over the segments that the sorted requested
    columns cut from x[..., :max(idx)+1], then running over those few
    segments; with every column requested the segments are the columns.
    Min and max are exact, so these are the bits of a running min (max)
    along the whole row read at idx."""
    stop = int(idx.max()) + 1
    x, support = x[..., :stop], lam[:stop] > 0.0
    everywhere = support.all()
    if (idx[1:] > idx[:-1]).all():
        cols, back = idx, None
    else:
        cols, back = np.unique(idx, return_inverse=True)
    out = []
    for ufunc, none in ((np.minimum, math.inf), (np.maximum, -math.inf)):
        v = x if everywhere else np.where(support, x, none)
        if cols.size < stop:  # segments that start after each column
            v = ufunc.reduceat(v, np.concatenate(([0], cols[:-1] + 1)),
                               axis=-1)
        v = ufunc.accumulate(v, axis=-1)
        out.append(v if back is None else v[..., back])
    return out


def _log_ratios(x, base):
    """r = log(x / base), base broadcasting against x.

    r is formed from the mantissas and exponents of x and base, so it is
    finite for any spread and, for x and base scaled alike by a power of
    two, does not depend on the scale; r = 0 exactly where x = base."""
    (mx, ex), (mb, eb) = np.frexp(x), np.frexp(base)
    mx /= mb
    r = np.log(mx, out=mx)
    ex -= eb
    r += ex * _LN2
    return r


def _log_weights(lam, base):
    """lam / base as e**t 2**k from mantissas and exponents: |t| < log 2
    (-inf where lam = 0) and k exact, so weight sums take no rounding from
    the weights' magnitude (:func:`_shifted_sums`)."""
    (t, k), (mb, eb) = np.frexp(lam), np.frexp(base)
    t /= mb
    with np.errstate(divide="ignore"):
        np.log(t, out=t)
    k -= eb
    return t, k


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


def _shifted_sums(terms, idx):
    """Prefix sums of the terms e**t 2**k, and the term-weighted prefix
    means of each v in `values`, along the last axis at the columns idx.

    terms(cols) gives t, k and `values` on the columns of a slice cols, at
    most _CHUNK of them, asked for once each and in order up to max(idx),
    with overflow ignored: t is (m,) or (rows, m) and k one shared row of
    integers, both 0 at column 0, and a v has t's shape, or rows of its own
    when t is one shared row.  Each sum comes as a shift (c, j) and the
    compensated sum (:func:`compensated_cumsum`) s of the terms over
    e**c 2**j, with s at least e**-_HEADROOM and at most N e**_HEADROOM:
    two sums compare as (c - c') + (j - j') log 2 plus the log of s / s'.
    Each chunk is a pass that continues the carries of the one before, so
    the bits are those of one pass.  A row's shift starts at (0, 0) and
    moves, cutting the pass, to the first term that passes it by
    e**_HEADROOM, whereupon the row's carries are rescaled
    (:func:`_exp_diff`).  An overflowing term times v_i makes that mean
    inf or NaN from i on."""
    stop = int(idx.max()) + 1
    shifts = order = None  # the shifts at idx, once some shift moves
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, stop, _CHUNK):
            t, kc, values = terms(slice(first, min(first + _CHUNK, stop)))
            tc, vals = np.atleast_2d(t), [np.atleast_2d(v) for v in values]
            if not first:
                n = len(tc)
                # each row's shift, and the t + k log 2 that moves it
                c, j = np.zeros(n), np.zeros(n, int)
                top, floor = c + _HEADROOM, _HEADROOM
                carries = [(0.0, 0.0)] * (1 + len(vals))
            pos, cut, hi = 0, kc.size, tc.max()
            # exp(t) 2**k is _exp_diff(t, 0, k), bit for bit, where |t| < 700
            plain = -700.0 < tc.min() and hi < 700.0
            if hi + kc.max() * _LN2 > floor:
                # each row's next move in the chunk; the running maximum
                # is, at a move, the term that the shift moves to
                run = np.maximum.accumulate(tc + kc * _LN2, axis=1)
                nxt = np.where(run[:, -1] > top,
                               (run > top[:, None]).argmax(axis=1), cut)
                cut = nxt.min()
            while pos < kc.size:
                if pos == cut:  # the shifts of the rows r move here
                    r = np.flatnonzero(nxt == pos)
                    scale = np.ones(n)
                    scale[r] = _exp_diff(c[r], tc[r, pos], j[r] - kc[pos])
                    carries = [(a * scale, b * scale) for a, b in carries]
                    c[r], j[r] = tc[r, pos], kc[pos]
                    top[r] = run[r, pos] + _HEADROOM
                    for i in r:
                        nxt[i] = run[i].searchsorted(top[i], side="right")
                    cut, floor = nxt.min(), top.min()
                    shifts = shifts or [np.zeros((n, idx.size)),
                                        np.zeros((n, idx.size), int)]
                e = tc[:, pos:cut]
                if shifts is None and plain:
                    e = np.exp(e)
                    if kc.any():
                        np.ldexp(e, kc[pos:cut], out=e)
                else:
                    e = _exp_diff(e, c[:, None], kc[pos:cut] - j[:, None])
                sums = []
                for m, v in enumerate([None] + vals):
                    s, carries[m] = compensated_cumsum(
                        e if v is None else e * v[:, pos:cut], carries[m])
                    sums.append(s)
                cols = slice(first + pos, first + cut)
                if cols.start == 0:
                    # every requested column; those past this pass are
                    # overwritten by the passes that hold them
                    picked = [s[:, np.minimum(idx, cut - 1)] for s in sums]
                else:
                    if order is None:  # idx sorted, for the later passes
                        order = np.argsort(idx, kind="stable")
                        ordered = idx[order]
                    # the requested columns of this pass
                    here, end = ordered.searchsorted([cols.start, cols.stop])
                    sel, at = order[here:end], ordered[here:end] - cols.start
                    for p, s in zip(picked, sums):
                        p[:, sel] = s[:, at]
                    for p, s in zip(shifts or (), (c, j)):
                        p[:, sel] = s[:, None]
                pos = cut
        sums = picked[0]
        means = [p / sums for p in picked[1:]]
    c, j = shifts or (np.zeros((n, 1)), np.zeros((n, 1), int))
    if np.ndim(t) == 1:  # t and values have every chunk's dimensions
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


def _prefix_gini(x, lam, p, q, idx):
    """Gini(p, q) of the prefixes idx: x[0] e**(:func:`_gini_exponent`)."""
    lo, hi = _running_extremes(x, lam, idx)
    vals = _times_exp(x[..., :1], _gini_exponent(x, lam, p, q, idx))
    return np.minimum(np.maximum(vals, lo), hi)


def _gini_exponent(x, lam, p, q, idx):
    """e = log(M / x[0]) of the Gini(p, q) mean of the prefixes idx, from
    each chunk's r = log(x / x[0]) (:func:`_log_ratios`) and log weights
    (:func:`_log_weights`); the mean is symmetric in (p, q), which are
    ordered so that p >= q, and Power(p) is Gini(p, 0).

    With weights lam e**(p r), e is the weighted mean of r when p - q is
    below PROFILE_SNAP, the smallest normal float, as the profiles snap:
    there it is within far less than an ulp of the mean of r, where
    expm1((p - q) r) would keep few digits.  Otherwise it is log1p(m) / (p - q) for the weighted mean m of
    expm1((p - q) r) when p - q < 1/2: the form of
    :func:`~hardymeans.hardy.C_of`, which has no cancellation as
    p - q -> 0.  For p - q >= 1/2, and wherever m < -1/2 (1 + m is then
    a cancelled difference) or m overflows, e is the log of the ratio of
    the sums of lam e**(p r) and lam e**(q r), over p - q: that divides
    its rounding by p - q > log 2 / max |r|.
    """
    q, p = sorted((float(p), float(q)))
    d = p - q
    last = [None]  # the last chunk's columns, r and log weights

    def terms(s, values=lambda r: []):
        def chunk(cols):
            if last[0] != cols:  # a second sum may start where one ended
                last[:] = (cols, _log_ratios(x[..., cols], x[..., :1]),
                           *_log_weights(lam[cols], lam[0]))
            _, r, log_w, k = last
            # log(lam x**s / (lam[0] x[0]**s)) less k log 2; the weights'
            # own row when s = 0
            return (log_w + s * r if s else log_w), k, values(r)
        return chunk

    if d < PROFILE_SNAP:
        _, _, (e,) = _shifted_sums(terms(p, lambda r: [r]), idx)
    else:
        (c_q, j_q), s_q, means = _shifted_sums(terms(
            q, lambda r: [np.expm1(d * r)] if d < 0.5 else []), idx)
        if means:
            (m,) = means
            e = np.log1p(np.maximum(m, -0.5)) / d
            far = ~np.isfinite(m) | (m < -0.5)
        if not means or far.any():
            (c_p, j_p), s_p, _ = _shifted_sums(terms(p), idx)
            ratio = ((c_p - c_q) + (j_p - j_q) * _LN2
                     + np.log(s_p / s_q)) / d
            e = np.where(far, ratio, e) if means else ratio
    return e


def _prefix_qa(x, lam, g, idx, lengths=None):
    """g^-1 of the weighted prefix means of g(x), by g's inverse or, for a
    generator without one, by :func:`_log_lanes` on g(y) - target, every
    requested prefix of a row's own (see MeanSpec.prefix) one lane; a
    target that g does not reach on [lo, hi] raises InversionError."""
    with np.errstate(all="ignore"):
        vals = np.asarray(g.fn(x), dtype=float)
    _, _, (target,) = _shifted_sums(lambda cols: (
        *_log_weights(lam[cols], lam[0]),
        [np.where(lam[cols] > 0.0, vals[..., cols], 0.0)]), idx)
    if not np.isfinite(target).all():
        raise DomainError("generator values or their weighted mean are not "
                          "finite on the sample")
    vlo, vhi = _running_extremes(vals, lam, idx)
    target = np.minimum(np.maximum(target, vlo), vhi)
    lo, hi = _running_extremes(x, lam, idx)
    if g.inverse is not None:
        return np.minimum(np.maximum(
            np.asarray(g.inverse(target), dtype=float), lo), hi)
    ys = lo.copy()
    lanes = np.nonzero((lo != hi) & _own(idx, lengths))
    lo, hi, target = lo[lanes], hi[lanes], target[lanes]
    # oriented to fall through zero from lo to hi, as a kernel's sum does
    with np.errstate(all="ignore"):
        down = np.where(g.fn(hi) > g.fn(lo), -1.0, 1.0)

    def h(y, k):
        return (down[k] * (np.asarray(g.fn(y), dtype=float) - target[k]),
                None if g.d1 is None else down[k] * y * g.d1(y))

    if target.size:
        ys[lanes] = _log_lanes(h, lo, hi, InversionError)
    return ys


# -- the lane solver ------------------------------------------------------


def _prefix_lanes(rows, lam, idx, lengths, lo, hi, solve, chunk):
    """Means of the prefixes idx of the rows (2-d): the (row, prefix) pairs
    of a row's own (see MeanSpec.prefix) that `solve` marks are lanes,
    in chunks by prefix length of at most _LANE_CELLS lanes times widest
    prefix, or one lane; the rest take x[0] within [lo, hi].
    chunk(rr, cc, end, w) solves the lanes at rows rr and columns cc: end
    is the last positive-weight sample of each prefix, and w the positive
    weights, each lane's scaled by a power of two to a largest in
    [1/2, 1).  Sums read off running sums (:func:`_lane_sums`) keep a
    lane's bits independent of its chunk."""
    support = lam > 0.0
    end = np.cumsum(support)[idx] - 1  # last support sample of each prefix
    ws = lam[support]
    shift = -np.frexp(np.maximum.accumulate(ws))[1][end]
    out = np.minimum(np.maximum(rows[:, :1], lo), hi)
    row, col = np.nonzero(solve & _own(idx, lengths))
    order = np.argsort(end[col], kind="stable")
    row, col = row[order], col[order]
    first = 0
    while first < row.size:
        # as many lanes as fit _LANE_CELLS at the widest, and at least one
        widths = end[col[first:first + _LANE_CELLS]] + 1
        fits = np.arange(1, widths.size + 1) * widths <= _LANE_CELLS
        rr, cc = (v[first:first + max(1, np.count_nonzero(fits))]
                  for v in (row, col))
        first += rr.size
        e = end[cc]
        out[rr, cc] = chunk(rr, cc, e, np.ldexp(ws[:e[-1] + 1],
                                                shift[cc, None]))
    return out


def _log_lanes(g, lo, hi, error):
    """Roots y in [lo, hi], lo < hi, of the lanes of g(y, lanes), which
    gives their values at y of the lanes (indices, ascending) and their
    slopes in log y (None: a forward difference of step _SLOPE_STEP, of
    values scaled by the power of two that brings the larger end value
    near one, so it stays finite).

    The values fall through zero, a deviation kernel's sign property: a
    zero at an end gives that end, and end values g(lo) < 0 or
    g(hi) > 0 raise `error`.  The ends are read at lo and hi themselves;
    a value that is not finite raises DomainError, as an overflow could
    end in a wrong root.  The other lanes take two newton_lanes calls in
    t = log(y / c) from t = 0, each to its xtol + RTOL_FLOOR |t|: to 1e-6
    about c = 2**k between lo and hi, then about that root, so the float
    spacing of t does not limit the result."""

    def values(y, lanes):
        with np.errstate(all="ignore"):
            v, dv = g(y, lanes)
        if not np.isfinite(v if dv is None else (v, dv)).all():
            raise DomainError("lane value not finite: the samples "
                              "span past the float range of the mean")
        return v, dv

    every = np.arange(lo.size)
    (ga, _), (gb, _) = values(lo, every), values(hi, every)
    at_lo, at_hi = ga == 0.0, (ga != 0.0) & (gb == 0.0)
    live = np.flatnonzero(~(at_lo | at_hi))
    bad = live[(ga[live] < 0.0) | (gb[live] > 0.0)]
    if bad.size:
        i = bad[0]
        raise error(f"values do not fall through zero on [{lo[i]:g}, "
                    f"{hi[i]:g}]: g(lo)={ga[i]:g}, g(hi)={gb[i]:g}")
    y = np.where(at_lo, lo, hi)
    if not live.size:
        return y
    lo_l, hi_l, ga, gb = lo[live], hi[live], ga[live], gb[live]
    m = -np.frexp(np.maximum(np.abs(ga), np.abs(gb)))[1]
    c = np.ldexp(1.0, (np.frexp(lo_l)[1] + np.frexp(hi_l)[1]) // 2)
    for xtol in (1e-6, RTOL_FLOOR):
        a, b = _log_ratios(lo_l, c), _log_ratios(hi_l, c)
        b = np.maximum(b, np.nextafter(a, np.inf))  # two ends, if adjacent

        def f(s, sub):
            def at(s):
                return values(np.where(s == a[sub], lo_l[sub], np.where(
                    s == b[sub], hi_l[sub], _times_exp(c[sub], s))), live[sub])

            v, dv = at(s)
            if dv is not None:
                return v, dv
            m_l, h = m[sub], (s + _SLOPE_STEP) - s
            v = np.ldexp(v, m_l, out=v)
            return v, (np.ldexp(at(s + h)[0], m_l) - v) / h

        t, _, _ = newton_lanes(f, a, ga, b, gb, np.clip(0.0, a, b),
                               xtol=xtol, rtol=RTOL_FLOOR)
        c = np.minimum(np.maximum(_times_exp(c, t), lo_l), hi_l)
    y[live] = c
    return y


def _lane_sums(v, w, end):
    """sum(v * w) of each lane (row) over its columns up to end, read from
    the running sum along the row: not a sum over the padded width, which
    would round a lane differently by the width of its chunk."""
    v = v * w
    np.cumsum(v, axis=-1, out=v)
    return v[np.arange(end.size), end]


def _take_rows(a, rows):
    """a[rows] for ascending distinct row indices; a itself, not a copy,
    when they are all the rows."""
    return a if rows.size == a.shape[0] else a[rows]


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
