"""Bracketed root finding, in pure Python and NumPy.

Two solvers, for functions whose values straddle zero on a bracket:

* :func:`bracketed_root`, Brent's method (R. P. Brent, *Algorithms for
  Minimization without Derivatives*, 1973, ch. 4), for one scalar f
  without a derivative, which now serves ``hardy.solve_cef`` alone:
  inverse quadratic interpolation and secant steps, falling back to
  bisection whenever they do not shrink the bracket fast enough, with
  the iterates and iteration counts of SciPy's ``brentq``, step for step.
* :func:`newton_lanes`, which solves every mean that is a root,
  safeguarded Newton when f also returns its derivative (or an estimate
  of it) on many independent brackets ("lanes") at once, in the
  manner of the lane-wise safeguarded solvers (T. R. Chandrupatla,
  *Adv. Eng. Software* 28, 1997): Newton steps from a start point, with
  a bisection step whenever the Newton step would leave the current
  bracket or fails to halve the step before last, each lane with its
  own bracket updates, fallback and stop.  A wrong-signed, vanishing or
  NaN derivative therefore costs speed, never the bracket.  The
  stopping test (a Newton step within tolerance) trusts the
  derivative's magnitude.  One scalar solve is a batch of one lane.

Neither evaluates f twice at one point: endpoint values the caller
already holds are passed in, and the reported residual is the value
already computed at the returned root.  :func:`expand_bracket_up` is a
slide-and-double bracket search for roots of decreasing functions on
(1, inf) that hands back the endpoint values it found.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, DomainError, NoBracketError,
                     NoConvergenceError)

# Floor on the relative tolerance (SciPy's brentq floor); gives near
# machine-relative roots.
RTOL_FLOOR = 4.0 * sys.float_info.epsilon
# Iteration cap of Brent and of each Newton lane (SciPy's brentq default).
_MAXITER = 100


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


def check_tol(tol: float, name: str = "tol") -> float:
    """tol, checked to be positive and finite (DomainError otherwise)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {tol!r}")
    return tol


def bracketed_root(f, lo: float, hi: float, xtol: float = 1e-12,
                   rtol: float = RTOL_FLOOR, *, flo: float | None = None,
                   fhi: float | None = None) -> RootResult:
    """Root of f on [lo, hi] by Brent's method, where f(lo) and f(hi)
    must straddle zero.

    flo, fhi -- values of f at lo and hi the caller already holds; each
                one left out is evaluated here.
    xtol, rtol -- the root is returned once it is known to within
                xtol + rtol * |root|; rtol is floored at RTOL_FLOOR.

    Raises DomainError when xtol is not positive and finite or f returns
    NaN, BracketError when the endpoint values share a sign and
    NoConvergenceError after _MAXITER iterations.  Endpoint zeros are
    returned directly with 0 iterations.
    """
    lo, hi = float(lo), float(hi)
    check_tol(xtol, "xtol")
    rtol = max(rtol, RTOL_FLOOR)

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise DomainError(f"function value is NaN at x={x!r}")
        return fx

    flo = value(lo) if flo is None else float(flo)
    if flo == 0.0:
        return RootResult(lo, 0.0, (lo, hi), 0)
    fhi = value(hi) if fhi is None else float(fhi)
    if fhi == 0.0:
        return RootResult(hi, 0.0, (lo, hi), 0)
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}]: "
            f"f(lo)={flo:g}, f(hi)={fhi:g}")
    root, residual, iterations = _brent(value, lo, flo, hi, fhi, xtol, rtol)
    return RootResult(root, residual, (lo, hi), iterations)


def _brent(f, xpre: float, fpre: float, xcur: float, fcur: float,
           xtol: float, rtol: float) -> tuple[float, float, int]:
    """Brent's iteration from a straddling pair with nonzero values.

    The same steps as SciPy's brentq: xcur is the best estimate, xblk
    the other end of the bracket, xpre the previous estimate; spre and
    scur are the step before last and the last step.
    """
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, _MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur, iterations

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise NoConvergenceError(
        f"Brent iteration did not converge in {_MAXITER} iterations; "
        f"last estimate {xcur!r}")


def newton_lanes(f, a, fa, b, fb, x0, xtol, rtol
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton on many independent brackets ("lanes") at once.

    Lane i solves on [a[i], b[i]], where fa[i] and fb[i] are nonzero and
    of opposite signs.  f(x, lanes) takes the current points of the
    lanes still running (indices into the inputs, ascending) and returns
    arrays of the values and derivatives there.  x0 holds the start
    points, in [a, b], an end included (None, NaN or a point outside the
    bracket means the secant point of the bracket, then its midpoint when
    that is not inside); xtol may be an array of per-lane tolerances.

    Per lane, as for one bracket: every evaluated point replaces the
    bracket end of its sign, so the bracket only shrinks.  A Newton step
    that points away from the root side, would leave the bracket, or is
    not under half the step before last is replaced by bisection.  The
    point is returned once the Newton step from it, or half the bracket,
    is within xtol + rtol * |x|; a lane stops there and is not evaluated
    again.  Returns (roots, values at the roots, iterations per lane).

    Raises DomainError when f returns NaN and NoConvergenceError when a
    lane runs _MAXITER iterations.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    fa = np.asarray(fa, dtype=float)
    # every point that replaces a takes f's sign at a, so that sign is fixed
    negative = fa < 0.0
    n = a.size
    xtol = np.asarray(xtol, dtype=float) + np.zeros(n)
    lanes = np.arange(n)
    roots, values = np.empty(n), np.empty(n)
    iterations = np.zeros(n, dtype=int)
    # a zero derivative makes the Newton step infinite, which is never
    # taken and never within tolerance, so its sign does not matter
    with np.errstate(all="ignore"):
        x = np.full(n, np.nan) if x0 is None else np.array(x0, dtype=float)
        secant = a - fa * (b - a) / (np.asarray(fb, dtype=float) - fa)
        secant = np.where((a < secant) & (secant < b), secant, 0.5 * (a + b))
        x = np.where((a <= x) & (x <= b), x, secant)
        step = step_old = b - a
        for it in range(1, _MAXITER + 1):
            fx, dfx = f(x, lanes)
            fx = np.asarray(fx, dtype=float)
            nan = np.isnan(fx)
            if nan.any():
                raise DomainError(
                    f"function value is NaN at x={float(x[nan.argmax()])!r}")
            below = (fx < 0.0) == negative
            a = np.where(below, x, a)
            b = np.where(below, b, x)
            tol = xtol + rtol * np.abs(x)
            newton = fx / np.asarray(dfx, dtype=float)
            # x is now a bracket end: the root lies toward the other end
            inward = np.where(x == a, newton <= 0.0, newton >= 0.0)
            landing = x - newton
            take = (inward & (a < landing) & (landing < b)
                    & (2.0 * np.abs(newton) <= np.abs(step_old)))
            step_old, step = step, np.where(take, newton, x - 0.5 * (a + b))
            done = ((fx == 0.0) | (inward & (np.abs(newton) <= tol))
                    | (~take & (np.abs(step) <= tol)))
            if done.any():
                finished = lanes[done]
                roots[finished], values[finished] = x[done], fx[done]
                iterations[finished] = it
                keep = ~done
                if not keep.any():
                    return roots, values, iterations
                lanes, x, a, b, negative, xtol, step, step_old = (
                    v[keep] for v in (lanes, x, a, b, negative, xtol, step,
                                      step_old))
            x = x - step
    raise NoConvergenceError(
        f"Newton iteration did not converge in {_MAXITER} iterations; "
        f"last estimate {float(x[0])!r}")


def expand_bracket_up(f, lo: float = 1.0, hi: float = 2.0, cap: float = 1e9
                      ) -> tuple[float, float, float, float | None]:
    """Slide and double [lo, hi] upward until f changes sign.

    Returns (lo, hi, f(lo), f(hi)) for the first interval whose endpoint
    values straddle (or touch) zero; f(hi) is None when f(lo) is already
    zero, since hi is then never evaluated.  Raises NoBracketError once
    hi exceeds `cap`.
    """
    flo = float(f(lo))
    if flo == 0.0:
        return float(lo), float(hi), flo, None
    while hi <= cap:
        fhi = float(f(hi))
        if fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
            return float(lo), float(hi), flo, fhi
        lo, flo = hi, fhi
        hi = hi * 2.0
    raise NoBracketError(f"no sign change found below {cap:g}")
