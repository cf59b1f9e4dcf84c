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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import hardy
from .errors import DomainError, HardyMeansError, UsageError, ViolationFound
from .formatting import fmt_real, parse_kv
from .means import MeanSpec, prefix_values
from .weights import WeightSequence

_SLACK = 1e-9


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
    Closed mean families evaluate all prefixes in one vectorized pass;
    deviation families solve one root per prefix, which is quadratic in
    N overall.
    """
    if N is None:
        if isinstance(x, str):
            raise DomainError("N is required when x is given as a rule")
        N = int(np.asarray(x).size)
    xs = make_sequence(x, w, N)
    lam = w.lam_array(N)
    if not np.all(np.isfinite(lam)):
        raise DomainError("weights leave float range at this N; shrink N")
    means = prefix_values(spec, xs, lam)
    num = float(np.dot(lam, means))
    den = float(np.dot(lam, xs))
    return num / den


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
    prefixes = w.prefix_array(N)
    if not np.all(np.isfinite(prefixes)):
        raise DomainError("prefix sums leave float range at this N; shrink N")
    xs = y / prefixes
    lam = w.lam_array(N)
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

    def to_dict(self) -> dict:
        out = {
            "mean": self.mean, "weights": self.weights,
            "constant": self.constant,
            "ones_constant": (math.nan if self.ones_constant is None
                              else self.ones_constant),
            "eta": self.eta, "trials": self.trials, "N": self.N,
            "seed": self.seed, "max_ratio": self.max_ratio,
            "max_ratio_trial": self.max_ratio_trial, "passed": self.passed,
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
    second check compares against it.  The first crossing raises
    ViolationFound carrying the witness sequence; identical inputs give
    bit-identical reports.
    """
    if trials < 1 or N < 1:
        raise DomainError("trials and N must be positive")
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
    max_ratio = -math.inf
    max_trial = -1
    for i in range(int(trials)):
        rng = np.random.default_rng([int(seed), i])
        length = int(rng.integers(1, int(N) + 1))
        x = 10.0 ** rng.uniform(-3.0, 3.0, length)
        ratio = hardy_ratio(spec, w, x)
        if ratio > max_ratio:
            max_ratio, max_trial = ratio, i
        if math.isfinite(constant) and ratio > constant * (1.0 + _SLACK):
            raise ViolationFound(
                f"trial {i}: ratio {ratio:.12g} exceeds constant "
                f"{constant:.12g}", sequence=x, ratio=ratio, trial=i,
                check="constant")
        if (ones_c is not None and math.isfinite(ones_c)
                and ratio > ones_c * (1.0 + _SLACK)):
            raise ViolationFound(
                f"trial {i}: ratio {ratio:.12g} exceeds the unweighted "
                f"envelope {ones_c:.12g}", sequence=x, ratio=ratio, trial=i,
                check="unweighted-envelope")
    return VerifyReport(mean=_spec_label(spec), weights=w.spec_text(),
                        constant=constant, ones_constant=ones_c, eta=eta,
                        trials=int(trials), N=int(N), seed=int(seed),
                        max_ratio=max_ratio, max_ratio_trial=max_trial)
