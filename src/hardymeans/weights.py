"""Weight sequences.

A weight sequence lambda has lambda_1 > 0 and lambda_n >= 0.  The sharp
constants depend on it only through eta, the limit of lambda_n /
Lambda_n (Lambda_n the n-th prefix sum), which each family declares
through `WeightSequence.eta`; the empirical checks use its weights, log
weights and prefix sums as arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UsageError
from .formatting import fmt_real, parse_kv

_KINDS = ("ones", "geometric", "powerlaw", "explicit")
# Most columns per pass of a long running sum (:func:`compensated_cumsum`,
# and the shifted prefix sums of the means), whose working arrays then
# stay in cache: the passes of a sum of 10**6 terms hold no array of 10**6.
_CHUNK = 2 ** 15


class WeightSequence:
    """One of the supported weight families; it holds no state beyond its
    parameters.

    Construct through :meth:`ones`, :meth:`geometric`, :meth:`power_law`
    or :meth:`explicit`.  Indexing is 1-based throughout.  Explicit lists
    extend past their end by repeating the final value.
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

    # -- weights --------------------------------------------------------

    def _terms(self, first: int, last: int) -> np.ndarray:
        """Weights first..last (1-based, inclusive): the one place each
        family states its formula."""
        if self.kind == "ones":
            return np.ones(last - first + 1)
        if self.kind == "geometric":
            with np.errstate(over="ignore"):
                return self.a ** np.arange(first - 1, last, dtype=float)
        if self.kind == "powerlaw":
            return np.arange(first, last + 1, dtype=float) ** self.alpha
        out = np.full(last - first + 1, self.values[-1])
        head = self.values[first - 1:last]
        out[:len(head)] = head
        return out

    def lam(self, n: int) -> float:
        """The n-th weight, n >= 1: bit for bit ``lam_array(n)[-1]``, and
        inf where that is inf."""
        n = check_int(n)
        return float(self._terms(n, n)[0])

    def lam_array(self, n: int) -> np.ndarray:
        """Weights 1..n as a float array; its last entry is ``lam(n)``.
        Overflows to inf for huge geometric indices; use
        :meth:`log_lam_array` beyond float range."""
        return self._terms(1, check_int(n))

    def log_lam_array(self, n: int) -> np.ndarray:
        """log(lam_k / lam_n), k = 1..n: small, and exact to rounding, near
        k = n, however far lam_n is beyond float range."""
        n = check_int(n)
        if self.kind == "ones":
            return np.zeros(n)
        if self.kind == "geometric":
            return np.arange(1 - n, 1, dtype=float) * math.log(self.a)
        if self.kind == "powerlaw":
            return self.alpha * np.log(np.arange(1, n + 1, dtype=float) / n)
        log_lam = np.log(self.lam_array(n))
        return log_lam - log_lam[-1]

    # -- prefix sums ----------------------------------------------------

    def prefix_array(self, n: int, *, lam: np.ndarray | None = None
                     ) -> np.ndarray:
        """Prefix sums Lambda_1..Lambda_n, by a compensated cumsum
        (:func:`compensated_cumsum`), so Lambda_n - Lambda_(n-1)
        reproduces lam(n) to ulp scale even for very long sequences.

        lam -- lam_array(n), when the caller already holds it (n entries,
               DomainError otherwise); the sums are the same bits either
               way.
        """
        n = check_int(n)
        if lam is not None and np.shape(lam) != (n,):
            raise DomainError(f"lam must have {n} entries, got "
                              f"{np.shape(lam)}")
        if self.kind == "ones":
            return np.arange(1, n + 1, dtype=float)
        return compensated_cumsum(self.lam_array(n) if lam is None
                                  else np.asarray(lam, dtype=float))[0]

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
        """Canonical CLI specifier, which parse_weights reads back exactly."""
        if self.kind == "ones":
            return "ones"
        if self.kind == "geometric":
            return f"geometric:a={fmt_real(self.a)}"
        if self.kind == "powerlaw":
            return f"powerlaw:alpha={fmt_real(self.alpha)}"
        return "explicit:<list of %d>" % len(self.values)

    def __repr__(self) -> str:
        return f"WeightSequence({self.spec_text()})"


def compensated_cumsum(v: np.ndarray, carry=(0.0, 0.0)):
    """Prefix sums of v, or of each row of a 2-d v, each as accurate as
    if accumulated in twice the working precision and then rounded.

    ``np.cumsum`` gives the floating-point running sums s_i; the TwoSum
    error of each step (s_{i-1} + v_i = s_i + err_i exactly) is
    accumulated by a second cumsum and added back (Ogita, Rump & Oishi,
    "Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005).
    Each row of a 2-d v is summed as if it were alone.

    carry -- (running sum, accumulated error) after the terms before v,
             numbers or arrays of one entry per row, as returned by an
             earlier call; the sums then continue that one, bit for bit
             as if v had been appended to its input.

    Returns the prefix sums and the carry after the last term.  Once the
    running sum overflows, the prefix sums are that running sum (inf or
    NaN), with no floating-point warning.  Past _CHUNK columns, v runs in
    passes of _CHUNK that carry on from each other: the bits of one pass.
    """
    if v.shape[-1] > _CHUNK:  # only the sums are as long as v
        out = np.empty(v.shape)
        for first in range(0, v.shape[-1], _CHUNK):
            cols = np.s_[..., first:first + _CHUNK]
            out[cols], carry = compensated_cumsum(v[cols], carry)
        return out, carry
    # the sums run down axis 0 of the transposed layout, so that for a
    # batch every step is one contiguous operation across the rows
    v = v.T
    run = np.empty((v.shape[0] + 1,) + v.shape[1:])
    run[0] = carry[0]
    run[1:] = v
    err = np.empty_like(run)
    err[0] = carry[1]
    prev, s, e = run[:-1], run[1:], err[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(run, axis=0, out=run)
        b = s - prev
        # e = (prev - (s - b)) + (v - b), without further temporaries
        np.subtract(s, b, out=e)
        np.subtract(prev, e, out=e)
        np.subtract(v, b, out=b)
        e += b
        np.cumsum(err, axis=0, out=err)
        carry = (run[-1].copy(), err[-1].copy())
        e += s
    # a running sum that overflows stays inf or NaN, so a finite last sum
    # means finite sums throughout
    if not np.isfinite(carry[0]).all():
        np.copyto(e, s, where=~np.isfinite(s))
    return e.T, carry


def unit_scaled(w: np.ndarray) -> np.ndarray:
    """w times the power of two that brings max(w) into [1/2, 1): sums of
    w times values of order one stay in float range, and their ratios
    and roots do not move."""
    return np.ldexp(w, -math.frexp(float(w.max()))[1])


def check_int(n, what: str = "index", least: int = 1) -> int:
    """n as an int, after checking that it is an integer, or a float of
    integral value, of at least `least`; DomainError otherwise."""
    try:
        m = int(n)
    except (TypeError, ValueError, OverflowError):
        m = None
    if m is None or m != n or m < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {n!r}")
    return m


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
