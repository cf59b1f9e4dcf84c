"""Homogenization of means and normalization of deviation kernels.

A mean M is homogenized by following M(t x)/t down a geometric ladder
t = 4**-k and extrapolating; for a homogeneous family the ladder is
constant and the estimate reproduces the mean itself.  The same ladder
applied to a normalized kernel E*(x t, t)/t recovers the kernel's
homogeneous trace h(x), the profile that controls its sharp constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import HardyMeansError, NoConvergenceError, NotNormalizableError
from .generators import QuasideviationKernel
from .means import MeanSpec

_LADDER_DEPTH = 20
_FD_SCALE = 1e-6
_PROBE_YS = np.geomspace(1e-3, 1e3, 25)


@dataclass(frozen=True)
class HomogenizationEstimate:
    """Ladder of scaled evaluations and its extrapolated limit.

    ``converged`` is False when three successive extrapolants never
    agreed within tolerance; the ladder is still returned so the caller
    can inspect whether the upper and lower accumulation points differ
    (the scaling limit need not exist).  ``value`` is then the last
    extrapolant, reported for continuity rather than as a certified
    limit.
    """

    value: float
    converged: bool
    t_values: np.ndarray
    ladder: np.ndarray
    extrapolants: np.ndarray
    spread: float


def _extrapolate(values: np.ndarray, tol: float):
    """One Richardson step on a 4**-k ladder plus a 3-point agreement test.

    values[k] is assumed to behave like L + c * t_k + O(t_k**2) with
    t_k = 4**-(k+1), so (4 v[k+1] - v[k]) / 3 cancels the linear term.
    """
    if values.size < 2:
        return math.nan, False, np.empty(0), math.inf
    extr = (4.0 * values[1:] - values[:-1]) / 3.0
    for j in range(2, extr.size):
        window = extr[j - 2:j + 1]
        if not np.all(np.isfinite(window)):
            continue
        # agreement means max-min of the window, so a converged estimate
        # always carries spread <= tol
        spread = float(window.max() - window.min())
        if spread <= tol:
            return float(extr[j]), True, extr[:j + 1], spread
    tail = extr[np.isfinite(extr)]
    spread = (float(tail[-3:].max() - tail[-3:].min())
              if tail.size >= 3 else math.inf)
    last = float(extr[-1]) if extr.size else math.nan
    return last, False, extr, spread


def homogenize(spec: MeanSpec, x, lam,
               tol: float = 1e-8) -> HomogenizationEstimate:
    """Estimate the homogenization M_#(x) = lim M(t x)/t of a mean.

    Evaluates the mean down the ladder t = 4**-k, k = 1..20, applies one
    Richardson step, and accepts once three successive extrapolants
    agree within `tol`.  Non-convergence is a report, not a failure:
    check the ``converged`` flag.  A library error from a rung ends the
    ladder there; any other exception is a fault and propagates.
    """
    x = np.asarray(x, dtype=float)
    ts, us = [], []
    for k in range(1, _LADDER_DEPTH + 1):
        t = 4.0 ** -k
        try:
            u = spec.evaluate(t * x, lam) / t
        except HardyMeansError:
            break
        ts.append(t)
        us.append(u)
        if not math.isfinite(u):
            break
    ts_arr = np.asarray(ts)
    us_arr = np.asarray(us)
    value, converged, extr, spread = _extrapolate(us_arr, tol)
    return HomogenizationEstimate(value=value, converged=converged,
                                  t_values=ts_arr, ladder=us_arr,
                                  extrapolants=extr, spread=spread)


def _diag_derivative(E: QuasideviationKernel, y: float) -> float:
    """dE/dy at (y, y), analytic when declared, else central differences."""
    if E.d2_diag is not None:
        return float(np.asarray(E.d2_diag(np.asarray(y, dtype=float))))
    h = _FD_SCALE * max(1.0, abs(y))
    up = float(np.asarray(E.fn(np.array([y]), y + h), dtype=float)[0])
    dn = float(np.asarray(E.fn(np.array([y]), y - h), dtype=float)[0])
    return (up - dn) / (2.0 * h)


def normalize_kernel(E: QuasideviationKernel) -> QuasideviationKernel:
    """Rescale E to E*(x, y) = E(x, y) / (-dE/dy (y, y)).

    The normalized kernel defines the same mean and has diagonal
    derivative exactly -1, which makes normalization idempotent.  Raises
    NotNormalizableError when the diagonal derivative fails to be
    negative and finite on the probe grid, or when the spot-check of the
    normalized kernel misses -1 by more than 1e-6.
    """
    for y in _PROBE_YS:
        d = _diag_derivative(E, float(y))
        if not math.isfinite(d) or d >= 0.0:
            raise NotNormalizableError(
                f"diagonal derivative {d:g} at y={y:g} is not negative")

    def fn(x, y):
        return np.asarray(E.fn(x, y), dtype=float) / (-_diag_derivative(E, y))

    star = QuasideviationKernel(
        fn=fn, d2_diag=lambda y: -np.ones_like(np.asarray(y, dtype=float)),
        family=("normalized", E.family), label=f"normalized {E.label}")

    for y in (_PROBE_YS[0], _PROBE_YS[len(_PROBE_YS) // 2], _PROBE_YS[-1]):
        h = _FD_SCALE * max(1.0, y)
        up = float(np.asarray(star.fn(np.array([y]), y + h), dtype=float)[0])
        dn = float(np.asarray(star.fn(np.array([y]), y - h), dtype=float)[0])
        slope = (up - dn) / (2.0 * h)
        if abs(slope + 1.0) > 1e-6:
            raise NotNormalizableError(
                f"normalized kernel slope {slope:.9g} at y={y:g} is not -1")
    return star


def h_of_kernel(E_star: QuasideviationKernel, x: float,
                tol: float = 1e-8) -> float:
    """Homogeneous trace h(x) = lim E*(x t, t)/t of a normalized kernel.

    The caller declares that the limit exists (E* normalized, limit 0 at
    the origin along the diagonal direction); the ladder only certifies
    numerical agreement and raises NoConvergenceError otherwise.
    """
    x = float(x)
    ts = 4.0 ** -np.arange(1, _LADDER_DEPTH + 1)
    vals = np.array([
        float(np.asarray(E_star.fn(np.array([x * t]), t), dtype=float)[0]) / t
        for t in ts])
    value, converged, extr, spread = _extrapolate(vals, tol)
    if not converged:
        raise NoConvergenceError(
            f"trace ladder did not settle within {tol:g} at x={x:g} "
            f"(spread {spread:.3e})", ladder=list(zip(ts, vals)))
    return value
