"""Tanh-sinh quadrature on finite intervals.

The double-exponential substitution x = tanh((pi/2) sinh t) pushes the
integration nodes toward the endpoints at a double-exponential rate, so
integrands with integrable endpoint singularities (x**-0.9, log x, ...)
are handled without any special casing.  Nodes are parameterized by their
*distance* to the nearer endpoint, which keeps that distance accurate in
floating point down to ~1e-300 instead of rounding to the endpoint itself.

Levels halve the step size and reuse all previous evaluations; each level
roughly doubles the number of correct digits for analytic integrands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# sinh(6.1) * pi/2 ~ 345, so endpoint offsets stay representable (~1e-300).
_T_MAX = 6.1

# Contributions carrying less weight than this may be zeroed when the
# integrand evaluates to inf/nan in the far singular tail.
_NEGLIGIBLE_WEIGHT = 1e-250

_MACHINE_STALL = 8.0 * np.finfo(float).eps

# Cap on refinement levels (node spacing 2**-_MAX_LEVEL).
_MAX_LEVEL = 12


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive tanh-sinh integration.

    value      -- the final level's estimate
    error      -- |change| between the last two levels (inf if only one)
    levels     -- index of the deepest level evaluated
    converged  -- whether the target tolerance was met before the level cap
    """

    value: float
    error: float
    levels: int
    converged: bool


@functools.cache
def _pair_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint offsets and weights for the node pairs new at `level`.

    Each entry stands for the symmetric pair t = +/- j*h; the center node
    t = 0 is not included.  Offsets are distances from the nearer endpoint
    of the reference interval [-1, 1].
    """
    h = 2.0 ** -level
    if level == 0:
        j = np.arange(1, int(_T_MAX / h) + 1)
    else:
        j = np.arange(1, int(_T_MAX / h) + 1, 2)
    t = j * h
    u = 0.5 * math.pi * np.sinh(t)
    # 1 - tanh(u) and sech(u)**2 written in exp form: cosh(u) overflows
    # near u ~ 350 while exp(-2u) stays clean.
    e = np.exp(-2.0 * u)
    offsets = 2.0 * e / (1.0 + e)
    weights = 0.5 * math.pi * np.cosh(t) * 4.0 * e / (1.0 + e) ** 2
    keep = offsets > 0.0
    return offsets[keep], weights[keep]


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12) -> QuadratureResult:
    """Integrate a vectorized callable f over the finite interval [a, b].

    Parameters
    ----------
    f : callable
        Maps a numpy array of points in (a, b) to an array of values.
        Integrable endpoint singularities are fine; interior ones are not.
    a, b : float
        Integration bounds; a > b flips the sign of the result.
    tol : float
        Absolute tolerance on the level-to-level change.

    Refinement stops once the inter-level change drops below `tol` or
    below machine-relative stall; otherwise the level cap is reported
    through ``converged=False`` and the last estimate is still returned.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    half = 0.5 * (b - a)
    mid = a + half

    total = math.nan
    err = math.inf
    converged = False
    level = 0
    for level in range(_MAX_LEVEL + 1):
        offsets, weights = _pair_nodes(level)
        xs = np.concatenate((a + half * offsets, b - half * offsets))
        ws = np.concatenate((weights, weights))
        with np.errstate(all="ignore"):
            vals = np.asarray(f(xs), dtype=float)
            contrib = (half * ws) * vals
        bad = ~np.isfinite(contrib)
        if bad.any():
            droppable = bad & (half * ws < _NEGLIGIBLE_WEIGHT)
            contrib = np.where(droppable, 0.0, contrib)
            if (bad & ~droppable).any():
                return QuadratureResult(math.nan, math.inf, level, False)
        new_sum = float(contrib.sum())
        if level == 0:
            with np.errstate(all="ignore"):
                center = float(np.asarray(f(np.array([mid])), dtype=float)[0])
            if not math.isfinite(center):
                return QuadratureResult(math.nan, math.inf, level, False)
            total = new_sum + half * (0.5 * math.pi) * center
        else:
            h = 2.0 ** -level
            prev = total
            total = 0.5 * prev + h * new_sum
            err = abs(total - prev)
            if level >= 2 and err <= max(tol, _MACHINE_STALL * abs(total)):
                converged = True
                break
    return QuadratureResult(sign * total, err, level, converged)
