"""Empirical verification of the sharp constants at desk scale.

Two complementary probes:

* witness traces: feeding the extremal sequence x_n = y / Lambda_n into
  the weighted mean sum produces values that approach the sharp constant
  from below, so the tail of the trace is a certified lower estimate;

* fuzzing: random positive sequences must keep the ratio of the two
  sides of the inequality below the constant (within a numerical slack),
  and any crossing is a genuine counterexample worth keeping.

Both work on the ratio

    R(x) = sum_n lambda_n M(x_1..x_n) / sum_n lambda_n x_n.

Ratios are computed for a batch of sequences at once: each sequence is a
row of a (rows, N) array, padded past its length with 1.0, and one call
of the family's prefix evaluation gives every prefix mean of every row.
Prefix means are causal, so the padding changes none of a row's own
prefixes; masked row sums then form each ratio.  :func:`hardy_ratio` is
a batch of one, and :func:`verify_inequality` runs its trials in blocks
of at most _BLOCK rows, so its working set does not grow with the number
of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import hardy
from .errors import DomainError, HardyMeansError, UsageError, ViolationFound
from .formatting import fmt_real, parse_kv
from .means import (MeanSpec, check_samples, check_weights, check_xlam,
                    prefix_values)
from .weights import WeightSequence, unit_scaled

_SLACK = 1e-9
# Trials per block of verify_inequality, at most _BLOCK and at most
# _BLOCK_CELLS / N (but one at least): the working set is a few arrays of
# that many rows of N floats, whatever the number of trials.  At N = 50,
# blocks of 256 rows raised the peak RSS of the fuzz workload by about
# 0.7 MiB and blocks of 128 by 0.3 MiB, and 128 ran the closed families
# no slower.
_BLOCK = 128
_BLOCK_CELLS = 8192


@dataclass(frozen=True)
class PowerProbe:
    """The probe family phi(u) = u**-p; callable like a plain function."""

    p: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            return np.exp(-self.p * np.log(u))


@dataclass(frozen=True)
class EmpiricalTrace:
    """Values of a running estimate on a grid of prefix lengths n."""

    ns: np.ndarray
    values: np.ndarray
    label: str
    meta: dict = field(default_factory=dict)

    def tail_inf(self) -> float:
        """Infimum over the second half of the n-range: a conservative
        finite proxy for the liminf the sharpness statements are about."""
        cut = self.ns[-1] / 2
        return float(self.values[self.ns >= cut].min())

    def to_csv(self, target) -> None:
        """Write rows ``n,value`` (17 significant digits) to a path or
        a writable file object."""
        rows = ["n,value"]
        rows.extend(f"{int(n)},{fmt_real(v)}"
                    for n, v in zip(self.ns, self.values))
        text = "\n".join(rows) + "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", newline="") as fh:
                fh.write(text)


def _spec_label(spec: MeanSpec) -> str:
    try:
        return spec.canonical()
    except HardyMeansError:
        return repr(spec)


def make_sequence(rule: Union[str, Sequence[float], np.ndarray],
                  w: WeightSequence, N: int) -> np.ndarray:
    """Materialize a positive test sequence of length N.

    String forms: ``constant:c=<v>``, ``witness:y=<v>`` (the extremal
    sequence y / Lambda_n), ``random:seed=<s>`` (log-uniform on
    [1e-3, 1e3]), ``file:<path>`` (one value per line).  Anything
    array-like passes through with a length check.
    """
    if not isinstance(rule, str):
        x = np.asarray(rule, dtype=float)
        if x.size != N:
            raise DomainError(f"sequence length {x.size} != N = {N}")
        return x
    head, _, rest = rule.partition(":")
    if head == "constant":
        return np.full(N, parse_kv(rest, "c", float))
    if head == "witness":
        y = parse_kv(rest, "y", float)
        if y <= 0:
            raise DomainError("witness level y must be positive")
        prefixes = w.prefix_array(N)
        if not np.all(np.isfinite(prefixes)):
            raise DomainError(
                "prefix sums leave float range at this N; shrink N")
        return y / prefixes
    if head == "random":
        seed = int(parse_kv(rest, "seed", float))
        rng = np.random.default_rng(seed)
        return 10.0 ** rng.uniform(-3.0, 3.0, N)
    if head == "file":
        with open(rest) as fh:
            vals = [float(line) for line in fh if line.strip()]
        return make_sequence(vals, w, N)
    raise UsageError(f"unknown sequence rule {rule!r}")


def hardy_ratio(spec: MeanSpec, w: WeightSequence, x,
                N: Optional[int] = None) -> float:
    """Ratio of the weighted mean sum to the weighted sum for sequence x.

    x may be an array or a sequence rule (see :func:`make_sequence`).
    The sequence is validated, then evaluated as a batch of one row, by
    the same code that evaluates the fuzzing trials: closed mean families
    take all prefixes in one vectorized pass, deviation families one
    Newton root per prefix, which is quadratic in N overall.
    """
    if N is None:
        if isinstance(x, str):
            raise DomainError("N is required when x is given as a rule")
        N = int(np.asarray(x).size)
    xs = make_sequence(x, w, N)
    xs, lam = check_xlam(xs, _weights(w, N))
    return float(_ratios(spec, xs[np.newaxis], np.array([N]), lam)[0])


def _weights(w: WeightSequence, N: int) -> np.ndarray:
    lam = w.lam_array(N)
    if not np.all(np.isfinite(lam)):
        raise DomainError("weights leave float range at this N; shrink N")
    return lam


def _ratios(spec: MeanSpec, x: np.ndarray, lengths: np.ndarray,
            lam: np.ndarray) -> np.ndarray:
    """R of each row of x (rows, N), whose sequence fills its first
    lengths[j] entries and is padded with 1.0 after; lam (N,) is
    validated and lam[0] > 0 (true of every WeightSequence).  The sums
    take lam scaled by a power of two (:func:`unit_scaled`), which keeps
    each ratio; one that is still not finite raises DomainError."""
    means = spec.prefix(x, lam, np.arange(lam.size))
    lam = unit_scaled(lam)
    inside = np.arange(lam.size) < lengths[:, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.where(inside, lam * means, 0.0).sum(axis=-1)
        den = np.where(inside, lam * x, 0.0).sum(axis=-1)
        ratios = num / den
    if not np.all(np.isfinite(ratios)):
        raise DomainError("weighted sums leave float range at this N; "
                          "shrink N")
    return ratios


def est_lower_bound(spec: MeanSpec, w: WeightSequence, y: float,
                    N: int, grid: int = 60) -> EmpiricalTrace:
    """Witness trace: the running constant estimate along x_n = y/Lambda_n.

    Reports (Lambda_n / y) * M(x_1..x_n) on a log-spaced grid of prefix
    lengths up to N.  For the families with a sharp constant these
    values increase toward it, so :meth:`EmpiricalTrace.tail_inf` is a
    certified-from-below estimate up to floating-point error.
    """
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError("witness level y must be positive")
    N = int(N)
    if N < 1:
        raise DomainError("N must be at least 1")
    lam = w.lam_array(N)
    prefixes = w.prefix_array(N, lam=lam)
    if not np.all(np.isfinite(prefixes)):
        raise DomainError("prefix sums leave float range at this N; shrink N")
    xs = y / prefixes
    ns = np.unique(np.round(np.geomspace(1, N, num=min(grid, N))).astype(int))
    means = prefix_values(spec, xs, lam, ns=ns)
    values = prefixes[ns - 1] / y * means
    return EmpiricalTrace(
        ns=ns, values=values, label=f"est[{_spec_label(spec)}]",
        meta={"weights": w.spec_text(), "y": y, "N": N})


def genA_partial(phi, w: WeightSequence, n: int) -> float:
    """Partial sum sum_{k<=n} (lam_k/Lam_n) phi(Lam_k/Lam_n).

    phi must be nonincreasing on (0, 1].  All ratios are formed in log
    space, so weight families far beyond float range still evaluate; a
    :class:`PowerProbe` phi additionally keeps the *products* in log
    space, which matters when individual factors underflow.  For a
    generic callable, terms whose weight ratio underflows to zero are
    dropped (combined true value below ~n * 1e-15).
    """
    n = int(n)
    if n < 1:
        raise DomainError("n must be at least 1")
    log_lam = w.log_lam_array(n)
    log_prefix = np.logaddexp.accumulate(log_lam)
    if isinstance(phi, PowerProbe):
        exponents = (log_lam - log_prefix[-1]
                     - phi.p * (log_prefix - log_prefix[-1]))
        return float(np.exp(exponents).sum())
    weight = np.exp(log_lam - log_prefix[-1])
    ratio = np.exp(log_prefix - log_prefix[-1])
    keep = weight > 0.0
    vals = np.asarray(phi(ratio[keep]), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("phi produced non-finite values on the ratio grid")
    return float(np.dot(weight[keep], vals))


def genA_limit(p: float, eta: float) -> float:
    """Limit of the partial sums for phi(u) = u**-p, p < 1.

    1/(1-p) at eta = 0 and eta / (1 - (1-eta)**(1-p)) for eta > 0.
    """
    p = float(p)
    if math.isnan(p) or p >= 1.0:
        raise DomainError(f"probe order must be < 1, got {p!r}")
    hardy._check_eta(eta)
    if eta == 0.0:
        return 1.0 / (1.0 - p)
    return eta / -math.expm1((1.0 - p) * math.log1p(-eta))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a fuzzing run that found no violation."""

    mean: str
    weights: str
    constant: float
    ones_constant: Optional[float]
    eta: float
    trials: int
    N: int
    seed: int
    max_ratio: float
    max_ratio_trial: int
    passed: bool = True

    @property
    def margin(self) -> float:
        """Detection margin max_ratio / constant: how close the fuzzer
        came to the constant; NaN when the constant is infinite."""
        if not math.isfinite(self.constant):
            return math.nan
        return self.max_ratio / self.constant

    def to_dict(self) -> dict:
        out = {
            "mean": self.mean, "weights": self.weights,
            "constant": self.constant,
            "ones_constant": (math.nan if self.ones_constant is None
                              else self.ones_constant),
            "eta": self.eta, "trials": self.trials, "N": self.N,
            "seed": self.seed, "max_ratio": self.max_ratio,
            "max_ratio_trial": self.max_ratio_trial, "margin": self.margin,
            "passed": self.passed,
        }
        return out


def verify_inequality(spec: MeanSpec, w: WeightSequence, constant: float,
                      trials: int = 200, seed: int = 0,
                      N: int = 50) -> VerifyReport:
    """Fuzz the inequality: random sequences must respect the constant.

    Each trial draws its own generator from (seed, trial index), picks a
    length in 1..N and log-uniform samples in [1e-3, 1e3], and checks
    ratio <= constant * (1 + 1e-9).  For symmetric monotone means the
    unweighted constant is an envelope for every weight sequence, so a
    second check compares against it.

    The weights are built and validated once per call.  Trials run in
    blocks of at most _BLOCK (fewer when N is large), each drawn into a
    padded array, validated once and evaluated in one batch (see the
    module docstring).  The first crossing in trial order raises
    ViolationFound carrying the witness sequence, its ratio and its
    trial; a trial that crosses both limits reports the "constant"
    check.  Identical inputs give bit-identical reports, and a trial's
    ratio does not depend on how many trials are run.
    """
    if trials < 1 or N < 1:
        raise DomainError("trials and N must be positive")
    trials, seed, N = int(trials), int(seed), int(N)
    constant = float(constant)
    eta = w.eta()
    ones_c: Optional[float] = None
    if spec.symmetric_monotone:
        try:
            ones_c = hardy.constant_closed(spec, 0.0)
        except HardyMeansError:
            try:
                ones_c = hardy.constant_root(spec, 0.0).value
            except HardyMeansError:
                ones_c = None
    # a ratio crosses a limit exactly when it exceeds the smaller one
    limit = min((c for c in (constant, ones_c)
                 if c is not None and math.isfinite(c)),
                default=math.inf) * (1.0 + _SLACK)
    lam = _weights(w, N)
    check_weights(lam)
    block = min(_BLOCK, max(1, _BLOCK_CELLS // N))
    max_ratio = -math.inf
    max_trial = -1
    for first in range(0, trials, block):
        x, lengths = _draw_trials(seed, first, min(first + block, trials), N)
        check_samples(x)
        ratios = _ratios(spec, x, lengths, lam)
        above = np.flatnonzero(ratios > max_ratio)
        if above.size:
            j = above[np.argmax(ratios[above])]
            max_ratio, max_trial = float(ratios[j]), first + int(j)
        crossed = np.flatnonzero(ratios > limit)
        if crossed.size:
            j = int(crossed[0])
            ratio, i = float(ratios[j]), first + j
            sequence = x[j, :lengths[j]]
            if math.isfinite(constant) and ratio > constant * (1.0 + _SLACK):
                raise ViolationFound(
                    f"trial {i}: ratio {ratio:.12g} exceeds constant "
                    f"{constant:.12g}", sequence=sequence, ratio=ratio,
                    trial=i, check="constant")
            raise ViolationFound(
                f"trial {i}: ratio {ratio:.12g} exceeds the unweighted "
                f"envelope {ones_c:.12g}", sequence=sequence, ratio=ratio,
                trial=i, check="unweighted-envelope")
    return VerifyReport(mean=_spec_label(spec), weights=w.spec_text(),
                        constant=constant, ones_constant=ones_c, eta=eta,
                        trials=trials, N=N, seed=seed,
                        max_ratio=max_ratio, max_ratio_trial=max_trial)


def _draw_trials(seed: int, first: int, stop: int, N: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Trials first..stop-1 of the (seed, trial) stream: rows of a
    (stop - first, N) array padded with 1.0, and their lengths."""
    x = np.ones((stop - first, N))
    lengths = np.empty(stop - first, dtype=int)
    for row, i in enumerate(range(first, stop)):
        rng = np.random.default_rng([seed, i])
        n = lengths[row] = rng.integers(1, N + 1)
        x[row, :n] = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return x, lengths
