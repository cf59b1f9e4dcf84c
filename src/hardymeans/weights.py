"""Weight sequences and their tail profile.

A weight sequence lambda has lambda_1 > 0 and lambda_n >= 0.  The ratio
r_n = lambda_n / Lambda_n (Lambda_n the n-th prefix sum) controls which
sharp constant applies, through its limit eta; `profile` estimates eta
from a finite horizon and reports the monotonicity and divergence facts
that the constant formulas assume.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconclusiveProfile, UsageError
from .formatting import parse_kv

_KINDS = ("ones", "geometric", "powerlaw", "explicit")

# Below this spread over the trailing window the ratio counts as settled.
_PROFILE_TOL = 1e-6
# Slack for "nonincreasing" in the presence of rounding.
_TIE_TOL = 1e-14


class WeightSequence:
    """One of the supported weight families, with cached prefix sums.

    Construct through :meth:`ones`, :meth:`geometric`, :meth:`power_law`
    or :meth:`explicit`.  Indexing is 1-based throughout.  Explicit lists
    extend past their end by repeating the final value.

    Prefix sums are accumulated with a compensated cumsum
    (:func:`compensated_cumsum`) and cached, so Lam(n) - Lam(n-1)
    reproduces lam(n) to ulp scale even for very long sequences.  The
    cache grows from its end with the carried running sum and error, so
    Lam(n) does not depend on which prefixes were asked for before.
    Instances are safe to share across threads.
    """

    def __init__(self, kind: str, *, a: float | None = None,
                 alpha: float | None = None, values=None):
        if kind not in _KINDS:
            raise DomainError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.a = None
        self.alpha = None
        self.values: tuple[float, ...] | None = None
        if kind == "geometric":
            a = float(a)
            if not math.isfinite(a) or a <= 1.0:
                raise DomainError("geometric weights need ratio a > 1")
            self.a = a
        elif kind == "powerlaw":
            alpha = float(alpha)
            if not math.isfinite(alpha) or alpha < 0.0:
                raise DomainError("power-law weights need exponent alpha >= 0")
            self.alpha = alpha
        elif kind == "explicit":
            vals = tuple(float(v) for v in values)
            if not vals:
                raise DomainError("explicit weights need a nonempty list")
            if any(not math.isfinite(v) or v <= 0.0 for v in vals):
                raise DomainError("explicit weights must be positive and finite")
            self.values = vals
        self._lock = threading.Lock()
        # read-only, replaced (never written) when it grows
        self._prefix = np.empty(0)
        self._carry = (0.0, 0.0)

    @classmethod
    def ones(cls) -> "WeightSequence":
        return cls("ones")

    @classmethod
    def geometric(cls, a: float) -> "WeightSequence":
        return cls("geometric", a=a)

    @classmethod
    def power_law(cls, alpha: float) -> "WeightSequence":
        return cls("powerlaw", alpha=alpha)

    @classmethod
    def explicit(cls, values) -> "WeightSequence":
        return cls("explicit", values=values)

    # -- single terms -------------------------------------------------

    def lam(self, n: int) -> float:
        """The n-th weight, n >= 1."""
        n = _check_index(n)
        if self.kind == "ones":
            return 1.0
        if self.kind == "geometric":
            return self.a ** (n - 1)
        if self.kind == "powerlaw":
            return float(n) ** self.alpha
        return self.values[min(n, len(self.values)) - 1]

    def log_lam(self, n: int) -> float:
        """log of the n-th weight, exact in the exponent (no overflow)."""
        n = _check_index(n)
        if self.kind == "ones":
            return 0.0
        if self.kind == "geometric":
            return (n - 1) * math.log(self.a)
        if self.kind == "powerlaw":
            return self.alpha * math.log(n)
        return math.log(self.values[min(n, len(self.values)) - 1])

    # -- vectorized views ----------------------------------------------

    def lam_array(self, n: int) -> np.ndarray:
        """Weights 1..n as a float array.  Overflows to inf for huge
        geometric indices; use :meth:`log_lam_array` beyond float range."""
        n = _check_index(n)
        if self.kind == "ones":
            return np.ones(n)
        if self.kind == "geometric":
            with np.errstate(over="ignore"):
                return self.a ** np.arange(n, dtype=float)
        if self.kind == "powerlaw":
            return np.arange(1, n + 1, dtype=float) ** self.alpha
        vals = np.asarray(self.values, dtype=float)
        if n <= vals.size:
            return vals[:n].copy()
        out = np.empty(n)
        out[:vals.size] = vals
        out[vals.size:] = vals[-1]
        return out

    def log_lam_array(self, n: int) -> np.ndarray:
        n = _check_index(n)
        if self.kind == "ones":
            return np.zeros(n)
        if self.kind == "geometric":
            return np.arange(n, dtype=float) * math.log(self.a)
        if self.kind == "powerlaw":
            return self.alpha * np.log(np.arange(1, n + 1, dtype=float))
        return np.log(self.lam_array(n))

    # -- prefix sums ----------------------------------------------------

    def Lam(self, n: int) -> float:
        """Prefix sum Lambda_n = lambda_1 + ... + lambda_n."""
        n = _check_index(n)
        if self.kind == "ones":
            return float(n)
        return float(self._ensure(n)[n - 1])

    def prefix_array(self, n: int, *, lam: np.ndarray | None = None
                     ) -> np.ndarray:
        """Prefix sums Lambda_1..Lambda_n (a read-only view of the cache
        for all kinds but ones).

        lam -- lam_array(n), when the caller already holds it; a cache
               that must grow then grows from it instead of building the
               weights again.  The sums are the same bits either way.
        """
        n = _check_index(n)
        if self.kind == "ones":
            return np.arange(1, n + 1, dtype=float)
        return self._ensure(n, lam)[:n]

    def _ensure(self, n: int, lam: np.ndarray | None = None) -> np.ndarray:
        """The cached prefix sums, extended to at least n terms (from lam,
        which is lam_array(n), when given)."""
        prefix = self._prefix
        if prefix.size >= n:
            return prefix
        with self._lock:
            prefix = self._prefix
            if prefix.size >= n:
                return prefix
            if lam is None:
                lam = self.lam_array(n)
            sums, self._carry = compensated_cumsum(lam[prefix.size:n],
                                                   self._carry)
            prefix = np.concatenate((prefix, sums))
            prefix.flags.writeable = False
            self._prefix = prefix
            return prefix

    # -- tail facts -----------------------------------------------------

    def eta(self) -> float:
        """Limit of lambda_n / Lambda_n implied by the family.

        ones and power-law weights: 0.  Geometric(a): (a-1)/a.  Explicit
        lists: 0, because the extension rule repeats the final value.
        """
        if self.kind == "geometric":
            return (self.a - 1.0) / self.a
        return 0.0

    def spec_text(self) -> str:
        """Canonical CLI specifier for this sequence."""
        if self.kind == "ones":
            return "ones"
        if self.kind == "geometric":
            return f"geometric:a={self.a:g}"
        if self.kind == "powerlaw":
            return f"powerlaw:alpha={self.alpha:g}"
        return "explicit:<list of %d>" % len(self.values)

    def __repr__(self) -> str:
        return f"WeightSequence({self.spec_text()})"


def compensated_cumsum(v: np.ndarray, carry: tuple[float, float] = (0.0, 0.0)
                       ) -> tuple[np.ndarray, tuple[float, float]]:
    """Prefix sums of v, each as accurate as if accumulated in twice the
    working precision and then rounded.

    ``np.cumsum`` gives the floating-point running sums s_i; the TwoSum
    error of each step (s_{i-1} + v_i = s_i + err_i exactly) is
    accumulated by a second cumsum and added back (Ogita, Rump & Oishi,
    "Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005).

    carry -- (running sum, accumulated error) after the terms before v,
             as returned by an earlier call; the sums then continue that
             one, bit for bit as if v had been appended to its input.

    Returns the prefix sums and the carry after the last term.  Once the
    running sum overflows, the prefix sums are that running sum (inf or
    NaN), with no floating-point warning.
    """
    run = np.concatenate(([carry[0]], v))
    err = np.empty_like(run)
    err[0] = carry[1]
    prev, s, e = run[:-1], run[1:], err[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(run, out=run)
        b = s - prev
        # e = (prev - (s - b)) + (v - b), without further temporaries
        np.subtract(s, b, out=e)
        np.subtract(prev, e, out=e)
        np.subtract(v, b, out=b)
        e += b
        np.cumsum(err, out=err)
        carry = (float(run[-1]), float(err[-1]))
        e += s
    np.copyto(e, s, where=~np.isfinite(s))
    return e, carry


def _check_index(n) -> int:
    m = int(n)
    if m != n or m < 1:
        raise DomainError(f"index must be a positive integer, got {n!r}")
    return m


def ratio_diag_array(w: WeightSequence, n: int) -> np.ndarray:
    """Ratios lambda_k / Lambda_k for k = 1..n, computed in log space.

    Stays finite for weight families whose raw terms overflow float range
    (large geometric indices).
    """
    log_lam = w.log_lam_array(n)
    log_prefix = np.logaddexp.accumulate(log_lam)
    return np.exp(log_lam - log_prefix)


@dataclass(frozen=True)
class WeightProfile:
    """Finite-horizon summary of the weight tail.

    eta is the detected limit of lambda_n / Lambda_n, or None when the
    ratio is still drifting monotonically at the horizon ("not
    convergent" within this horizon).
    """

    eta: float | None
    ratio_nonincreasing: bool
    lambda_divergent: bool
    horizon: int
    window_spread: float


def profile(w: WeightSequence, horizon: int = 1000) -> WeightProfile:
    """Estimate eta and tail facts from the first `horizon` ratios.

    The trailing quarter of the ratio sequence is the decision window:
    a spread below 1e-6 reports its mean; a monotone decay that has at
    least halved (geometrically) since mid-horizon reports 0; a window
    already below 1e-6 reports 0; a monotone but unsettled drift reports
    None.  Anything that oscillates beyond tolerance raises
    InconclusiveProfile, as does a disagreement between the divergence
    of Lambda and of the ratio series, which must diverge together.
    """
    horizon = _check_index(horizon)
    if horizon < 100:
        raise DomainError("profile horizon must be at least 100")

    r = ratio_diag_array(w, horizon)
    diffs = np.diff(r)
    nonincreasing = bool(np.all(diffs <= _TIE_TOL))

    # Divergence of Lambda, judged in log space over the trailing quarter.
    log_prefix = np.logaddexp.accumulate(w.log_lam_array(horizon))
    start = (3 * horizon) // 4
    lam_growth = float(log_prefix[-1] - log_prefix[start - 1])
    lam_divergent = lam_growth > _PROFILE_TOL

    # The ratio series sum(lambda_n / Lambda_n) diverges iff Lambda does.
    ratio_partials = np.cumsum(r)
    ratio_growth = float(ratio_partials[-1] - ratio_partials[start - 1])
    ratio_divergent = ratio_growth > _PROFILE_TOL
    if lam_divergent != ratio_divergent:
        raise InconclusiveProfile(
            "divergence cross-check disagrees at horizon "
            f"{horizon}: Lambda growth {lam_growth:.3e}, "
            f"ratio-series growth {ratio_growth:.3e}")

    window = r[start:]
    spread = float(window.max() - window.min())
    wdiffs = np.diff(window)
    window_noninc = bool(np.all(wdiffs <= _TIE_TOL))
    window_nondec = bool(np.all(wdiffs >= -_TIE_TOL))

    eta: float | None
    if spread < _PROFILE_TOL:
        eta = float(window.mean())
    elif window_noninc and r[-1] <= 0.9 * r[horizon // 2 - 1]:
        # Still shrinking geometrically at the horizon: limit 0.
        eta = 0.0
    elif float(window.max()) < _PROFILE_TOL:
        eta = 0.0
    elif window_noninc or window_nondec:
        eta = None
    else:
        raise InconclusiveProfile(
            f"ratio oscillates with spread {spread:.3e} over the trailing "
            f"window at horizon {horizon}")
    return WeightProfile(eta=eta, ratio_nonincreasing=nonincreasing,
                         lambda_divergent=lam_divergent, horizon=horizon,
                         window_spread=spread)


def parse_weights(text: str) -> WeightSequence:
    """Parse a CLI weight specifier.

    Accepted forms: ``ones``, ``geometric:a=<real>``,
    ``powerlaw:alpha=<real>``, ``explicit:file=<path>`` (one positive
    real per line, blank lines ignored).
    """
    body = text.strip()
    if body == "ones":
        return WeightSequence.ones()
    head, _, rest = body.partition(":")
    try:
        if head == "geometric":
            return WeightSequence.geometric(parse_kv(rest, "a", float))
        if head == "powerlaw":
            return WeightSequence.power_law(parse_kv(rest, "alpha", float))
        if head == "explicit":
            path = parse_kv(rest, "file", str)
            with open(path) as fh:
                vals = [float(line) for line in fh if line.strip()]
            return WeightSequence.explicit(vals)
    except (UsageError, DomainError, OSError, ValueError) as exc:
        raise UsageError(f"bad weight specifier {text!r}: {exc}") from exc
    raise UsageError(f"unknown weight specifier {text!r}")
