"""Generator functions and quasideviation kernels.

Two kinds of building blocks feed the mean families:

* a :class:`GeneratorFunction` is a scalar function on (0, inf), used
  either as the transform of a quasiarithmetic mean (then it must be
  strictly monotone and invertible) or as the profile of a homogeneous
  deviation mean (then it must be concave with sign f(u) = sign (u - 1));

* a :class:`QuasideviationKernel` is a two-place function E(x, y) whose
  sign matches sign(x - y), defining a mean as the root in y of
  sum(lambda_i * E(x_i, y)) = 0.

Named constructors carry analytic derivatives and inverses where they
exist, plus the declared structural properties downstream code relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

# Profile exponents, and exponent gaps, below this, the smallest normal
# float, snap to their limit, where quotients by them would lose digits;
# above it a profile keeps its own exponents, which both routes to the
# sharp constant (hardy) read.  power_gen snaps at it too.
PROFILE_SNAP = 2.0 ** -1022
# Below this exponent or gap d, d ln u is subnormal for some float u near
# 1, and (e**(d ln u) - 1)/d rounds to ln u for every float u: the
# profiles take ln u there.  From it on, d ln u is normal or zero.
LINEAR_GAP = 2.0 ** -969


@dataclass(frozen=True)
class GeneratorFunction:
    """A function on (0, inf) with optional derivatives and inverse.

    The boolean fields are declarations, not computed facts: callers are
    trusted to set them correctly for custom generators (named
    constructors set them right).  ``recip_integrable`` declares that
    x -> fn(1/x) is integrable on (0, 1].  ``family`` names the
    constructor and its parameters, e.g. ``("power", p)`` or
    ``("gini", p, q)``, so they are read back without parsing text.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    inverse: Optional[Callable] = None
    concave: bool = False
    sign_like: bool = False
    recip_integrable: bool = False
    family: tuple = ("custom",)
    label: str = "custom"

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self) -> str:
        return f"GeneratorFunction({self.label})"


def dev_power(p: float) -> GeneratorFunction:
    """Normalized power profile u -> (u**p - 1)/p: dev_gini's profile at
    q = 0 under its own family and label, and ln for |p| < PROFILE_SNAP.

    The homogeneous deviation mean it generates is the p-th power mean.
    Concave for p <= 1; its reciprocal profile is integrable iff p < 1.
    """
    p = float(p)
    if abs(p) < PROFILE_SNAP:
        return log_gen()
    return _gini_profile(p, 0.0, ("power", p), f"(u^{p:g} - 1)/{p:g}")


def dev_gini(p: float, q: float) -> GeneratorFunction:
    """Two-exponent profile u -> (u**p - u**q)/(p - q), which generates
    the Gini mean with exponents (p, q).

    With t = ln u and E = expm1((p - q) t)/(p - q) it is e**(q t) E, with
    d1 = e**((q-1) t) (p E + 1) and d2 = e**((q-2) t) (p (p-1) E + p + q - 1),
    accurate as p -> q (:func:`_power_gap`) and through p = q, where it is
    the limit u**p ln u; a pair within PROFILE_SNAP of (0, 0) is ln.
    Declared concave on the band min(p,q) <= 0 <= max(p,q) <= 1, which
    covers the region where a finite sharp constant exists.
    """
    p, q = float(p), float(q)
    if abs(p - q) < PROFILE_SNAP and abs(0.5 * (p + q)) < PROFILE_SNAP:
        return log_gen()
    label = (f"u^{p:g} ln u" if p - q == 0.0
             else f"(u^{p:g} - u^{q:g})/({p:g} - {q:g})")
    return _gini_profile(p, q, ("gini", p, q), label)


def _gini_profile(p, q, family, label):
    """dev_gini's profile of (p, q), under the given family and label."""
    d = p - q

    def fn(u):
        t = np.log(np.asarray(u, dtype=float))
        # e^{pt} - e^{qt} factored to avoid cancellation near u = 1; at
        # q = 0 the factor is 1, as e**(0 t) is NaN at u = 0 and u = inf
        scale = np.exp(q * t) if q else 1.0
        if abs(d) < LINEAR_GAP:
            return scale * t
        return scale * np.expm1(d * t) / d

    def d1(u):
        t = np.log(np.asarray(u, dtype=float))
        return _power_gap(t, d, p - 1.0, q - 1.0, p, q, 1.0)

    def d2(u):
        t = np.log(np.asarray(u, dtype=float))
        return _power_gap(t, d, p - 2.0, q - 2.0, p * (p - 1.0),
                          q * (q - 1.0), (p - 1.0) + q)

    lo, hi = min(p, q), max(p, q)
    return GeneratorFunction(fn=fn, d1=d1, d2=d2,
                             concave=lo <= 0.0 <= hi <= 1.0, sign_like=True,
                             recip_integrable=hi < 1.0,
                             family=family, label=label)


def _power_gap(t, d, s, r, a, b, lead):
    """(a e**(s t) - b e**(r t)) / d for s - r = d and lead = (a - b) / d:
    e**(r t) (a expm1(d t) / d + lead) where |d t| < 1/2, with t for
    expm1(d t) / d when |d| < LINEAR_GAP, and elsewhere the two terms,
    each dropped where its coefficient is 0, which then cancel only near a
    zero of the value and stay in float range where e**(r t) alone does
    not; at d = 0 (a p = q profile) the near form is the value.  The form
    not taken may overflow, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        grown = a * t if abs(d) < LINEAR_GAP else a * np.expm1(d * t) / d
        near = np.exp(r * t) * (grown + lead)
        if d == 0.0:
            return near
        far = sum(c / d * np.exp(e * t) for c, e in ((a, s), (-b, r)) if c)
    return np.where(np.abs(d * t) < 0.5, near, far)


def log_gen() -> GeneratorFunction:
    """Natural log: invertible, concave, sign-like, both roles."""

    def fn(u):
        return np.log(np.asarray(u, dtype=float))

    def d1(u):
        return 1.0 / np.asarray(u, dtype=float)

    def d2(u):
        u = np.asarray(u, dtype=float)
        return -1.0 / (u * u)

    return GeneratorFunction(fn=fn, d1=d1, d2=d2, inverse=np.exp,
                             concave=True, sign_like=True,
                             recip_integrable=True, family=("log",),
                             label="ln u")


def power_gen(p: float) -> GeneratorFunction:
    """Monotone transform x -> x**p, with analytic inverse, and ln for
    |p| < PROFILE_SNAP.

    This is the quasiarithmetic role: it does not vanish at 1 for p != 0,
    so it is not a deviation profile.
    """
    p = float(p)
    if abs(p) < PROFILE_SNAP:
        return log_gen()

    def fn(x):
        return np.asarray(x, dtype=float) ** p

    def inverse(v):
        return np.asarray(v, dtype=float) ** (1.0 / p)

    def d1(x):
        return p * np.asarray(x, dtype=float) ** (p - 1.0)

    def d2(x):
        return p * (p - 1.0) * np.asarray(x, dtype=float) ** (p - 2.0)

    return GeneratorFunction(fn=fn, d1=d1, d2=d2, inverse=inverse,
                             concave=0.0 < p <= 1.0, sign_like=False,
                             recip_integrable=False,
                             family=("pow-map", p), label=f"x^{p:g}")


def exp_gen() -> GeneratorFunction:
    """x -> e**x with inverse ln; quasiarithmetic role only."""

    def fn(x):
        return np.exp(np.asarray(x, dtype=float))

    return GeneratorFunction(fn=fn, d1=fn, d2=fn, inverse=np.log,
                             concave=False, sign_like=False,
                             recip_integrable=False, family=("exp-map",),
                             label="e^x")


@dataclass(frozen=True)
class QuasideviationKernel:
    """Two-place kernel E(x, y) on (0, inf)^2 with sign(E) = sign(x - y).

    ``fn(x, y)`` works elementwise on arrays x and y that broadcast: a
    mean solves many lanes, each with its own y, at once.  ``d2_diag``,
    when supplied, is the analytic diagonal derivative
    y -> dE/dy (x, y)|_{x=y}; normalization falls back to central
    differences without it.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2_diag: Optional[Callable] = None
    family: tuple = ("custom",)
    label: str = "custom"

    def __call__(self, x, y):
        return self.fn(x, y)

    def __repr__(self) -> str:
        return f"QuasideviationKernel({self.label})"


def difference_kernel() -> QuasideviationKernel:
    """E(x, y) = x - y; its mean is the weighted arithmetic mean."""
    return QuasideviationKernel(
        fn=lambda x, y: np.asarray(x, dtype=float) - y,
        d2_diag=lambda y: -np.ones_like(np.asarray(y, dtype=float)),
        family=("difference",), label="x - y")


def power_gap_kernel(r: float) -> QuasideviationKernel:
    """E(x, y) = x**r - y**r for r > 0; its mean is the r-th power mean."""
    r = float(r)
    if r <= 0.0:
        raise DomainError("power gap kernel needs r > 0")
    return QuasideviationKernel(
        fn=lambda x, y: np.asarray(x, dtype=float) ** r - np.float64(y) ** r,
        d2_diag=lambda y: -r * np.asarray(y, dtype=float) ** (r - 1.0),
        family=("power-gap", r), label=f"x^{r:g} - y^{r:g}")


def ratio_kernel(f: GeneratorFunction) -> QuasideviationKernel:
    """E(x, y) = f(x / y) for a sign-like profile f."""
    if not f.sign_like:
        raise DomainError("ratio kernel needs a generator with the sign "
                          "property f(u) ~ sign(u - 1)")
    d2_diag = None
    if f.d1 is not None:
        fp1 = float(np.asarray(f.d1(np.array([1.0])), dtype=float)[0])
        d2_diag = lambda y: -fp1 / np.asarray(y, dtype=float)
    return QuasideviationKernel(
        fn=lambda x, y: f.fn(np.asarray(x, dtype=float) / y),
        d2_diag=d2_diag, family=("ratio", f.family),
        label=f"f(x/y), f = {f.label}")


def scaled_ratio_kernel(f: GeneratorFunction) -> QuasideviationKernel:
    """E(x, y) = y * f(x / y), the homogeneous normalized form."""
    if not f.sign_like:
        raise DomainError("scaled ratio kernel needs a sign-like generator")
    d2_diag = None
    if f.d1 is not None:
        # d/dy [y f(x/y)] at x = y is f(1) - f'(1) = -f'(1)
        fp1 = float(np.asarray(f.d1(np.array([1.0])), dtype=float)[0])
        d2_diag = lambda y: -fp1 * np.ones_like(np.asarray(y, dtype=float))
    return QuasideviationKernel(
        fn=lambda x, y: y * f.fn(np.asarray(x, dtype=float) / y),
        d2_diag=d2_diag, family=("scaled-ratio", f.family),
        label=f"y f(x/y), f = {f.label}")


# -- declared-property diagnostics -------------------------------------

_GRID = np.geomspace(1e-3, 1e3, 64)


def validate_generator(f: GeneratorFunction) -> dict:
    """Spot-check the declared properties of f on a fixed log grid.

    Returns a report dict with boolean verdicts and the first offending
    points.  Purely diagnostic: nothing is raised.
    """
    vals = np.asarray(f.fn(_GRID), dtype=float)
    report: dict = {"sign_ok": True, "concave_ok": True, "violations": []}
    if f.sign_like:
        want = np.sign(_GRID - 1.0)
        bad = np.sign(vals) != want
        if bad.any():
            report["sign_ok"] = False
            report["violations"].append(
                ("sign", float(_GRID[bad][0]), float(vals[bad][0])))
    if f.concave:
        # midpoint concavity between adjacent grid nodes
        amid = 0.5 * (_GRID[:-1] + _GRID[1:])
        fmid = np.asarray(f.fn(amid), dtype=float)
        chord = 0.5 * (vals[:-1] + vals[1:])
        bad = fmid < chord - 1e-9 * np.maximum(1.0, np.abs(chord))
        if bad.any():
            report["concave_ok"] = False
            report["violations"].append(
                ("concavity", float(amid[bad][0]), float(fmid[bad][0])))
    return report


def validate_kernel(E: QuasideviationKernel, seed: int = 0) -> dict:
    """Sample-based diagnostic of the kernel requirements.

    Checks the sign property on a seeded grid of (x, y) pairs, scans for
    jumps in y at fixed x (continuity), and samples the two-point ratio
    monotonicity that makes the deviation comparable.  Diagnostic only;
    a clean report is evidence, not proof.
    """
    rng = np.random.default_rng(seed)
    xs = 10.0 ** rng.uniform(-3, 3, 48)
    ys = 10.0 ** rng.uniform(-3, 3, 48)
    report: dict = {"sign_ok": True, "continuity_ok": True,
                    "ratio_monotone_ok": True, "violations": []}
    for y in ys[:16]:
        v = np.asarray(E.fn(xs, float(y)), dtype=float)
        bad = np.sign(v) != np.sign(xs - y)
        if bad.any():
            report["sign_ok"] = False
            report["violations"].append(
                ("sign", float(xs[bad][0]), float(y)))
            break
    for x in xs[:8]:
        grid = np.geomspace(x * 1e-2, x * 1e2, 512)
        v = np.asarray([float(E.fn(np.array([x]), float(y))[0]) for y in grid])
        jumps = np.abs(np.diff(v))
        # a jump is a diff that dwarfs both neighboring diffs; comparing
        # against |v| would misfire at every zero crossing
        vscale = float(np.max(np.abs(v))) or 1.0
        neighbors = np.maximum(jumps[:-2], jumps[2:])
        if np.any(jumps[1:-1] > 10.0 * neighbors + 1e-9 * vscale):
            report["continuity_ok"] = False
            report["violations"].append(("continuity", float(x), 0.0))
            break
    # ratio comparability: for x1 < y < x2 fixed, E(x1,y)/E(x2,y) should
    # vary monotonically in y between consecutive sample points
    for _ in range(8):
        x1, x2 = np.sort(10.0 ** rng.uniform(-2, 2, 2))
        if x2 / x1 < 10.0:
            x2 = x1 * 10.0
        ygrid = np.geomspace(x1 * 1.01, x2 * 0.99, 128)
        e1 = np.asarray([float(E.fn(np.array([x1]), float(y))[0]) for y in ygrid])
        e2 = np.asarray([float(E.fn(np.array([x2]), float(y))[0]) for y in ygrid])
        ratio = e1 / e2
        d = np.diff(ratio)
        if not (np.all(d <= 1e-9) or np.all(d >= -1e-9)):
            report["ratio_monotone_ok"] = False
            report["violations"].append(("ratio", float(x1), float(x2)))
            break
    return report
