"""Sharp constants for weighted Hardy-type mean inequalities.

For a mean M and weights lambda, the constant of interest is the
smallest C with

    sum_n lambda_n M(x_1..x_n)  <=  C * sum_n lambda_n x_n

over positive sequences.  When the weight ratio lambda_n / Lambda_n
converges to eta in [0, 1), the sharp constant for the power family of
order r < 1 is

    C(r, eta) = (eta / d_r) ** (1/r),      d_s = 1 - (1-eta)**(1-s),

with the limits (1-r)**(-1/r) at eta = 0, where d_s/eta = 1 - s,
(1-eta)**(1 - 1/eta) at r = 0, and e at both.  It is the q = 0 case of
the two-exponent (Gini) constant

    C(p, q, eta) = ((d_q/eta) / (d_p/eta)) ** (1/(p-q)),

and d_s/eta is stated once, in _d_over_eta and its log
_log_d_over_eta, which gini_constant and empirical.genA_limit (the
probe-sum limit eta/d_p) read, on all of 0 <= eta < 1.

The same constants arise as the root c of a characteristic equation
built from the mean's generator profile f:

    integral_0^c f(1/x) dx = 0                (eta = 0)
    F(1/c, 1-eta) = 0                         (eta > 0)

where F(x, q) = sum_k q**k f(q**-k x).  This module provides both
routes: the closed forms, a rigorously tail-bounded evaluator for F,
and root solvers for the characteristic equation, plus qa_order, which
maps a quasiarithmetic generator onto the power scale: the order is
stated for x**p, and detected otherwise, as the limit of chi at 0+.

Both routes read one profile f per mean (means.MeanSpec.profile):
solve_cef solves it, and profile_constant reads its family's closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, LimitNotDetected, NoConvergenceError,
                     NotIntegrableError, PGeqOne, TailBoundFailure,
                     ZeroDerivativeError, DerivativeUnavailableError)
from .generators import PROFILE_SNAP, GeneratorFunction
from .quadrature import tanh_sinh
from .rootfind import bracketed_root, check_tol, expand_bracket_up

_BRACKET_CAP = 1e9
_TERM_CAP = 10 ** 6


def power_constant(p: float, eta: float) -> float:
    """Sharp weighted constant of the power mean of any order p: C_of,
    and the edges 1 at p = -inf and +inf from p = 1 on."""
    if p == -math.inf:
        return 1.0
    if p >= 1.0:
        return math.inf
    return C_of(p, eta)


def C_of(r: float, eta: float) -> float:
    """Sharp weighted constant C(r, eta) = (eta / d_r) ** (1/r) for the
    power family, r < 1: gini_constant(r, 0, eta), bit for bit, which
    reads d_r / eta from _log_d_over_eta, its one statement."""
    return gini_constant(r, 0.0, eta)


# below it, expm1(x)/x is 1 + x/2 to within an ulp
_SERIES = 2.0 ** -26


def _log_q(eta: float) -> tuple[float, float]:
    """L = log(1 - eta) and ell = -L/eta, which is 1 at eta = 0."""
    log_q = math.log1p(-eta)
    return log_q, (-log_q / eta if eta else 1.0)


def _d_over_eta(s: float, eta: float) -> float:
    """d_s / eta for d_s = 1 - (1-eta)**(1-s), s < 1 and eta in [0, 1).

    With y = (1-s) L, it is -expm1(y)/eta = (1-s) ell expm1(y)/y, and the
    second form, with 1 + y/2 for expm1(y)/y, neither under- nor
    overflows as y -> 0; at eta = 0 it is 1 - s.
    """
    log_q, ell = _log_q(eta)
    y = (1.0 - s) * log_q
    if abs(y) < _SERIES:
        return (1.0 - s) * ell * (1.0 + 0.5 * y)
    return -math.expm1(y) / eta


def _log_d_over_eta(s: float, eta: float) -> float:
    """log(d_s / eta), in the form that keeps the digits of s.

    For s <= 1/2, with x = -s L, d_s/eta = 1 - t for
    t = (1-eta)/eta expm1(x) = (1-eta) s ell expm1(x)/x, so log1p(-t) is
    O(s) without cancellation as s -> 0 or eta -> 0; dividing by eta
    last keeps it finite at a subnormal eta.  For s > 1/2, t nears 1, and
    the log of _d_over_eta is the accurate form instead.
    """
    if s > 0.5:
        return math.log(_d_over_eta(s, eta))
    log_q, ell = _log_q(eta)
    x = -s * log_q
    t = ((1.0 - eta) * s * ell * (1.0 + 0.5 * x) if abs(x) < _SERIES
         else (1.0 - eta) * math.expm1(x) / eta)
    return math.log1p(-t)


def gini_constant(p: float, q: float, eta: float) -> float:
    """Sharp weighted constant for the Gini family on its finite band,
    C(p, q, eta) = exp((log(d_q/eta) - log(d_p/eta)) / (p - q)).

    Requires min(p, q) <= 0 <= max(p, q) < 1; outside that band no
    finite sharp constant is available.  This is the one statement of
    the power-family formula too: C_of(p, eta) is gini_constant(p, 0,
    eta), and p = q = 0 is the geometric mean's limit.
    """
    _check_eta(eta)
    if not (math.isfinite(p) and math.isfinite(q)):
        raise DomainError(f"exponents must be finite, got ({p!r}, {q!r})")
    if not (min(p, q) <= 0.0 <= max(p, q) < 1.0):
        raise DomainError(
            f"(p, q) = ({p:g}, {q:g}) outside the band min <= 0 <= max < 1")
    if abs(p - q) < PROFILE_SNAP:
        # p = q forces p = q = 0 in the band, the geometric mean, with
        # log C = -d/ds log(d_s/eta) at s = 0 = (1 - eta) ell; exponents
        # a subnormal apart are within far less than an ulp of it, where
        # the quotient below would divide two subnormal numbers
        return math.exp((1.0 - eta) * _log_q(eta)[1])
    # log d_q - log d_p, with the common log eta cancelled exactly
    return math.exp((_log_d_over_eta(q, eta) - _log_d_over_eta(p, eta))
                    / (p - q))


def _check_eta(eta: float) -> None:
    if math.isnan(eta) or not 0.0 <= eta < 1.0:
        raise DomainError(f"eta must lie in [0, 1), got {eta!r}")


# -- the series F(x, q) ---------------------------------------------------


@dataclass(frozen=True)
class SeriesEval:
    """Partial sum of F(x, q) with a rigorous tail enclosure.

    The true value of F lies within [partial, partial + tail_bound]:
    once the summation index passes the sign change of the terms, the
    remaining tail is nonnegative and bounded above by the reported
    quadrature majorant.
    """

    partial: float
    terms: int
    tail_bound: float
    x: float
    q: float


def F_eval(f: GeneratorFunction, x: float, q: float, tol: float = 1e-12,
           _majorant_cache: dict | None = None) -> SeriesEval:
    """Evaluate F(x, q) = sum_{k>=0} q**k f(q**-k x) with tail control.

    Parameters
    ----------
    f : GeneratorFunction
        Nondecreasing profile with sign f(u) = sign(u - 1); integrability
        of u -> f(1/u) near 0 makes the tail bound close.
    x : float in (0, 1]
    q : float in (0, 1)
    tol : float
        Target bound on the neglected tail.

    The term count doubles until the tail majorant
    (1/(1-q)) * integral_0^{q**K} f(x/t) dt drops below `tol`; if that
    has not happened by 10**6 terms (or term evaluation leaves float
    range) TailBoundFailure is raised.  A supplied `_majorant_cache`
    replaces x by 1 in the majorant (valid for x <= 1 and f
    nondecreasing) so repeated evaluations at nearby x can share bounds.
    """
    x = float(x)
    q = float(q)
    if not 0.0 < x <= 1.0:
        raise DomainError(f"series argument x must be in (0, 1], got {x!r}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"series ratio q must be in (0, 1), got {q!r}")
    check_tol(tol)

    log_q = math.log(q)
    # index of the first term with argument above 1 (terms positive after it)
    k_settle = max(0, math.floor(math.log(x) / log_q) + 1)
    quad_tol = 0.1 * tol * (1.0 - q)

    def tail_majorant(K: int) -> float:
        if _majorant_cache is not None:
            hit = _majorant_cache.get(K)
            if hit is not None:
                return hit
            top = 1.0
        else:
            top = x
        upper = q ** K
        if upper == 0.0:
            return 0.0
        res = tanh_sinh(lambda t: f.fn(top / t), 0.0, upper, tol=quad_tol)
        bound = (res.value + res.error) / (1.0 - q)
        if not (res.converged and math.isfinite(bound)):
            bound = math.inf
        if _majorant_cache is not None:
            _majorant_cache[K] = bound
        return bound

    partial = 0.0
    done = 0
    K = max(16, 2 * k_settle, 2)
    while True:
        K = min(K, _TERM_CAP)
        ks = np.arange(done, K, dtype=float)
        with np.errstate(all="ignore"):
            args = np.exp(math.log(x) - ks * log_q)
            terms = np.exp(ks * log_q) * np.asarray(f.fn(args), dtype=float)
        if not np.all(np.isfinite(terms)):
            raise TailBoundFailure(
                f"term evaluation left float range near k={done + int(np.argmax(~np.isfinite(terms)))}; "
                "the series has no closable tail at this tolerance")
        partial += float(terms.sum())
        done = K
        if K > k_settle:
            bound = tail_majorant(K)
            if bound <= tol:
                return SeriesEval(partial=partial, terms=done,
                                  tail_bound=bound, x=x, q=q)
        if K >= _TERM_CAP:
            raise TailBoundFailure(
                f"tail bound still above {tol:g} after {_TERM_CAP} terms")
        K = 2 * K


# -- characteristic equation ----------------------------------------------


@dataclass(frozen=True)
class HardyConstantResult:
    """A root-solved sharp constant with provenance (closed forms are
    plain floats): method is "root-integral" for eta = 0 and "root-series"
    for eta > 0, residual the characteristic function value at the root,
    bracket the interval handed to the root finder.
    """

    value: float
    method: str
    residual: float
    bracket: tuple[float, float]
    eta: float


def solve_cef(f: GeneratorFunction, eta: float,
              tol: float = 1e-12) -> HardyConstantResult:
    """Root c of the characteristic equation for the profile f.

    eta = 0 solves integral_0^c f(1/x) dx = 0; eta > 0 solves
    F(1/c, 1-eta) = 0.  Requires f concave with the sign property and a
    declared integrable reciprocal profile (NotIntegrableError
    otherwise).  The bracket starts at (1, 2) and slides upward by
    doubling; no sign change below 1e9 raises NoBracketError.  The root
    is then solved by Brent's method (rootfind.bracketed_root), which
    reuses the characteristic values the bracket search computed.  A
    quadrature that stops at its level cap without meeting its tolerance
    raises NoConvergenceError rather than feeding the root finder an
    unconverged value.
    """
    _check_eta(eta)
    if not f.recip_integrable:
        raise NotIntegrableError(
            f"{f.label}: reciprocal profile declared non-integrable on (0, 1]")
    if not (f.sign_like and f.concave):
        raise DomainError(
            f"{f.label}: characteristic equation needs a concave profile "
            "with sign f(u) = sign(u - 1)")
    check_tol(tol)

    inner_tol = 0.1 * min(tol, 1e-12)
    if eta == 0.0:
        def charfun(c):
            res = tanh_sinh(lambda t: f.fn(1.0 / t), 0.0, c, tol=inner_tol)
            if not res.converged:
                raise NoConvergenceError(
                    f"{f.label}: integral of f(1/x) over (0, {c:g}) did not "
                    f"converge in {res.levels} levels (error {res.error:.3g})")
            return res.value

        method = "root-integral"
    else:
        q = 1.0 - eta
        cache: dict = {}

        def charfun(c):
            return F_eval(f, 1.0 / c, q, tol=inner_tol,
                          _majorant_cache=cache).partial

        method = "root-series"

    lo, hi, flo, fhi = expand_bracket_up(charfun, 1.0, 2.0, cap=_BRACKET_CAP)
    res = bracketed_root(charfun, lo, hi, xtol=tol, flo=flo, fhi=fhi)
    return HardyConstantResult(value=res.root, method=method,
                               residual=abs(res.residual),
                               bracket=res.bracket, eta=eta)


# -- quasiarithmetic order detection --------------------------------------


def chi_f(f: GeneratorFunction, x: float) -> float:
    """The order indicator chi(x) = x f''(x)/f'(x) + 1.

    Constant equal to p on the power transforms x -> x**p; its limit at
    0+ is the power scale a generator lives on.  Analytic derivatives
    are used when declared, central differences (step 1e-5 x) otherwise.
    """
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"chi probe point must be positive, got {x!r}")
    if f.d1 is not None and f.d2 is not None:
        # a value out of float range is the typed error below
        with np.errstate(all="ignore"):
            d1 = float(np.asarray(f.d1(np.array([x])), dtype=float)[0])
            d2 = float(np.asarray(f.d2(np.array([x])), dtype=float)[0])
    else:
        h = 1e-5 * x
        try:
            with np.errstate(all="ignore"):
                vals = np.asarray(
                    f.fn(np.array([x - h, x, x + h])), dtype=float)
        except Exception as exc:
            raise DerivativeUnavailableError(
                f"finite differences failed at x={x:g}: {exc}") from exc
        if not np.all(np.isfinite(vals)):
            raise DerivativeUnavailableError(
                f"finite differences hit non-finite values at x={x:g}")
        d1 = float((vals[2] - vals[0]) / (2.0 * h))
        d2 = float((vals[2] - 2.0 * vals[1] + vals[0]) / (h * h))
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise DerivativeUnavailableError(
            f"derivatives not finite at x={x:g}")
    if d1 == 0.0 or not math.isfinite(x * d2 / d1):
        raise ZeroDerivativeError(f"f'(x) vanished at x={x:g}")
    return x * d2 / d1 + 1.0


# chi-limit detection at 0+: chi is probed at 10**-j for j in
# _PROBE_POWERS, and the limit is accepted once _PROBE_AGREE successive
# values match within _PROBE_TOL
_PROBE_POWERS = range(1, 13)
_PROBE_AGREE = 3
_PROBE_TOL = 1e-6


def detect_order(g: GeneratorFunction) -> float:
    """Limit of chi(x) as x -> 0+, detected over the probe ladder.

    Raises LimitNotDetected when no _PROBE_AGREE successive probe values
    match within _PROBE_TOL.
    """
    chis: list[float] = []
    for j in _PROBE_POWERS:
        chis.append(chi_f(g, 10.0 ** -j))
        if len(chis) >= _PROBE_AGREE:
            window = chis[-_PROBE_AGREE:]
            if all(abs(window[i + 1] - window[i]) <= _PROBE_TOL
                   for i in range(len(window) - 1)):
                return window[-1]
    raise LimitNotDetected(
        f"chi values {chis} never stabilized within {_PROBE_TOL:g}")


def qa_order(g: GeneratorFunction) -> float:
    """The power order of a quasiarithmetic generator: p, stated, for
    x**p (a ("pow-map", p) generator), detect_order(g) otherwise;
    PGeqOne when it is >= 1, where the constant is +inf."""
    stated = g.family[0] == "pow-map"
    p = g.family[1] if stated else detect_order(g)
    if p >= 1.0:
        order = "order" if stated else "detected order"
        raise PGeqOne(f"{order} {p:.9g} >= 1: constant is +inf", p=p)
    return p


# -- family dispatch -------------------------------------------------------


def profile_constant(f: GeneratorFunction, eta: float) -> float:
    """Closed-form sharp constant for the profile f, by its family:
    power_constant for log and power, gini_constant for Gini, +inf for
    another profile with a non-integrable reciprocal; else DomainError."""
    kind, *params = f.family
    if kind in ("log", "power"):
        return power_constant(params[0] if params else 0.0, eta)
    if kind == "gini":
        return gini_constant(*params, eta)
    if not f.recip_integrable:
        return math.inf
    raise DomainError(
        f"no closed form for profile {f.label!r}; use the root route")


def constant_closed(spec, eta: float) -> float:
    """Closed-form sharp constant of the mean `spec` (a means.MeanSpec)
    at weight limit eta: profile_constant of spec.profile(), or +inf
    where profile() raises PGeqOne.  Raw deviation kernels have no
    profile here: normalize and take the kernel trace first."""
    _check_eta(eta)
    return spec.closed_constant(eta)


def constant_root(spec, eta: float,
                  tol: float = 1e-12) -> HardyConstantResult:
    """Characteristic-equation route to the same constants, which
    cross-checks the closed forms: solve_cef of spec.profile()."""
    _check_eta(eta)
    return spec.root_constant(eta, tol)
