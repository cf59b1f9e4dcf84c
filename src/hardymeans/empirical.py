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
of the family's prefix evaluation, given the rows' lengths, gives every
prefix mean of every row.  Prefix means are causal, so the padding
changes none of a row's own prefixes; the root-solving families skip
the padded ones, which the masked row sums that form each ratio never
read.  :func:`hardy_ratio` is a batch of one, and
:func:`verify_inequality` runs its trials in blocks of at most _BLOCK
rows, so its working set does not grow with the number of trials.
Trial i is what np.random.default_rng([seed, i]) draws, bit for bit,
but a block is drawn in array passes with no bit generator per trial:
PCG64 is a 128-bit linear congruential generator, so each word of each
trial is a closed-form jump from the trial's start state
(:func:`_draw_trials`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import hardy
from .errors import DomainError, HardyMeansError, ViolationFound
from .formatting import render_csv
from .means import (MeanSpec, check_samples, check_sequence, check_weights,
                    check_xlam, prefix_values)
from .weights import WeightSequence, check_int, unit_scaled

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

    def exponent(self, log_u):
        """log phi(u) = -p log u; at p = +/-inf, log u times -/+2**4096:
        an infinity of the right sign where u != 1, and 0 at u = 1."""
        if not math.isinf(self.p):
            return -self.p * log_u
        with np.errstate(over="ignore"):
            e = np.ldexp(log_u, 4096)
        return np.negative(e, out=e) if self.p > 0.0 else e

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            return np.exp(self.exponent(np.log(u)))


@dataclass(frozen=True)
class EmpiricalTrace:
    """Values of a running estimate on a grid of prefix lengths n."""

    ns: np.ndarray
    values: np.ndarray
    label: str
    meta: dict = field(default_factory=dict)

    @property
    def tail_start(self) -> int:
        """The least n >= ns[-1] / 2: the second half of the n-range."""
        return -(-int(self.ns[-1]) // 2)

    def tail_inf(self) -> float:
        """Infimum over n >= tail_start: a conservative finite proxy for
        the liminf the sharpness statements are about."""
        return float(self.values[self.ns >= self.tail_start].min())

    def to_csv(self, target) -> None:
        """Write rows ``n,value`` (17 significant digits) to a path or
        a writable file object."""
        text = render_csv("n,value", zip(self.ns, self.values))
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


def _witness(w: WeightSequence, y: float, N: int, lam=None) -> tuple:
    """The witness sequence y / Lambda_n, n = 1..N, and the prefix sums
    Lambda_n; lam is w.lam_array(N) when the caller holds it."""
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError("witness level y must be positive and finite")
    prefixes = w.prefix_array(N, lam=lam)
    if not np.all(np.isfinite(prefixes)):
        raise DomainError("prefix sums leave float range at this N; shrink N")
    return y / prefixes, prefixes


def hardy_ratio(spec: MeanSpec, w: WeightSequence, x) -> float:
    """Ratio of the weighted mean sum to the weighted sum for the sequence
    x, an array whose length is N.

    The sequence is validated, then evaluated as a batch of one row, by
    the same code that evaluates the fuzzing trials (see the module
    docstring): a mean of shifted prefix sums takes every prefix in one
    pass, and a mean that is a root solves each prefix as a lane, over the
    whole prefix, which is quadratic in N overall.
    """
    x = check_sequence(x)
    xs, lam = check_xlam(x, _weights(w, x.size))
    return float(_ratios(spec, xs[np.newaxis], np.array([xs.size]), lam)[0])


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
    means = spec.prefix(x, lam, np.arange(lam.size), lengths)
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

    A homogeneous mean is taken at the level frexp(y)[0] in [1/2, 1)
    instead of y: that rescale by a power of two is exact, so subnormal
    witness samples cost no digits.  The ratio M / level lies in
    [1/Lambda_N, 1/Lambda_1] and is taken first, so no level overflows.
    """
    N, grid = check_int(N, "N"), check_int(grid, "grid")
    lam = w.lam_array(N)
    level = math.frexp(y)[0] if spec.homogeneous else y
    xs, prefixes = _witness(w, level, N, lam)
    ns = np.unique(np.round(np.geomspace(1, N, num=min(grid, N))).astype(int))
    means = prefix_values(spec, xs, lam, ns=ns)
    values = prefixes[ns - 1] * (means / level)
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
    n = check_int(n, "n")
    log_lam = w.log_lam_array(n)
    log_prefix = np.logaddexp.accumulate(log_lam)
    # log(lam_k / Lam_n) and log(Lam_k / Lam_n), in place
    log_lam -= log_prefix[-1]
    log_prefix -= log_prefix[-1]
    if isinstance(phi, PowerProbe):
        log_lam += phi.exponent(log_prefix)
        return float(np.exp(log_lam, out=log_lam).sum())
    weight = np.exp(log_lam)
    ratio = np.exp(log_prefix)
    keep = weight > 0.0
    vals = np.asarray(phi(ratio[keep]), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("phi produced non-finite values on the ratio grid")
    return float(np.dot(weight[keep], vals))


def genA_limit(p: float, eta: float) -> float:
    """Limit of the partial sums for phi(u) = u**-p, p < 1.

    eta / (1 - (1-eta)**(1-p)), the reciprocal of hardy's d_p / eta
    (1/(1-p) at eta = 0); eta itself at p = -inf.
    """
    p = float(p)
    if math.isnan(p) or p >= 1.0:
        raise DomainError(f"probe order must be < 1, got {p!r}")
    hardy._check_eta(eta)
    return eta if p == -math.inf else 1.0 / hardy._d_over_eta(p, eta)


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

    Trial i takes the sequence np.random.default_rng([seed, i]) draws: a
    length in 1..N, then log-uniform samples in [1e-3, 1e3]; the seed
    must be nonnegative and the constant positive (inf allowed).  Each
    trial checks ratio <= constant * (1 + 1e-9).  For symmetric monotone
    means the unweighted constant is an envelope for every weight
    sequence, so a second check compares against it.

    The weights are built and validated once per call.  Trials run in
    blocks of at most _BLOCK (fewer when N is large), each drawn into a
    padded array in array passes, bit for bit that rule
    (:func:`_draw_trials`), validated once and evaluated in one batch
    (see the module docstring).  The first crossing in trial order raises
    ViolationFound carrying the witness sequence, its ratio and its
    trial; a trial that crosses both limits reports the "constant"
    check.  Identical inputs give bit-identical reports, and a trial's
    ratio does not depend on how many trials are run.
    """
    trials, N = check_int(trials, "trials"), check_int(N, "N")
    seed = check_int(seed, "seed", least=0)
    constant = float(constant)
    if not constant > 0.0:
        raise DomainError(f"constant must be positive, got {constant!r}")
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
    max_ratio = -math.inf
    max_trial = -1
    for first, x, lengths in _trial_blocks(seed, trials, N):
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


def _trial_blocks(seed: int, trials: int, N: int):
    """Trials 0..trials-1 of the (seed, trial) stream as blocks
    (first, x, lengths) of :func:`_draw_trials`, each of at most _BLOCK
    rows and at most _BLOCK_CELLS / N (one at least).  The start states
    of _SPAN trials at a time are seeded in one pass and each block takes
    its slice of them."""
    block = min(_BLOCK, max(1, _BLOCK_CELLS // N))
    for start in range(0, trials, _SPAN):
        span = np.arange(start, min(start + _SPAN, trials))
        states = _start_states(_seed_words(seed, span))
        for lo in range(0, span.size, block):
            yield (start + lo, *_draw_rows(seed, span[lo:lo + block],
                                           states[:, lo:lo + block], N))


def _draw_trials(seed: int, first: int, stop: int, N: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Trials first..stop-1 of the (seed, trial) stream: rows of a
    (stop - first, N) array padded with 1.0, and their lengths.

    Trial i is what np.random.default_rng([seed, i]) draws: a length by
    integers(1, N + 1), then that many exponents of 10 by
    uniform(-3, 3).  The block is drawn bit for bit alike in array
    passes, with no bit generator per row: each row's PCG64 start state
    comes from its SeedSequence words (:func:`_seed_words`,
    :func:`_start_states`), and NumPy's transforms run on the raw 64-bit
    words over the whole block:

    * the length is 1 + (lo * N >> 32), Lemire's bounded draw on the low
      32 bits lo of word 0; for N = 1 it draws no word;
    * each exponent is -3 + 6 * (w >> 11) * 2**-53 for the next word w.

    PCG64 steps a 128-bit linear congruential state s -> a s + inc, so
    k steps from s reach A_k s + G_k inc (mod 2**128), with A_k = a**k
    and G_k = sum_{j<k} a**j (Brown's jump-ahead).  Word k of a row is
    XSL-RR of that state (:func:`_raw_words`), taken only for the words
    inside the row's length.

    A row whose Lemire draw NumPy would reject and redraw
    (lo * N mod 2**32 < 2**32 mod N, about once in 1e8 trials at
    N = 50), whose trial index takes a second seed word (i >= 2**32), or
    that may be longer than the jump table (N > _JUMP) is drawn by
    default_rng([seed, i]) itself: past a thousand or so words a row,
    NumPy's own generator is the faster.
    """
    trials = np.arange(first, stop)
    states = _start_states(_seed_words(seed, trials))
    return _draw_rows(seed, trials, states, N)


def _draw_rows(seed: int, trials: np.ndarray, states: np.ndarray, N: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_draw_trials` of the given trials, whose states (4, rows)
    are those of :func:`_start_states`."""
    x = np.ones((trials.size, N))
    lengths = np.ones(trials.size, dtype=int)
    redo = (trials > _M32) | (N > _JUMP)
    word0 = _xsl_rr(states[0], states[1])
    if N == 1:
        x[:, 0] = 10.0 ** _exponents(word0)
    elif N <= _JUMP:
        m = (word0 & _U_M32) * np.uint64(N)
        lengths = (m >> _U32).astype(int) + 1
        redo |= (m & _U_M32) < np.uint64(2 ** 32 % N)
        inside = np.arange(N) < lengths[:, np.newaxis]
        k = np.broadcast_to(np.arange(N), inside.shape)[inside]
        raw = _raw_words(np.repeat(states, lengths, axis=1), k)
        x[inside] = 10.0 ** _exponents(raw)
    for row in np.flatnonzero(redo):
        rng = np.random.default_rng([seed, int(trials[row])])
        n = lengths[row] = rng.integers(1, N + 1)
        x[row] = 1.0
        x[row, :n] = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return x, lengths


def _exponents(raw: np.ndarray) -> np.ndarray:
    """uniform(-3, 3) of each raw word, as NumPy forms it."""
    return -3.0 + 6.0 * ((raw >> _U11) * 2.0 ** -53)


# PCG64 as NumPy runs it (O'Neill's pcg_setseq_128_xsl_rr_64): the state
# steps s -> a s + inc mod 2**128, then outputs XSL-RR of the new state.
# 128-bit values are (hi, lo) pairs of uint64 arrays; every operand is
# an np.uint64 array or scalar, so no NumPy version promotes one to float.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64 = 2 ** 64 - 1
_M128 = 2 ** 128 - 1
_U1, _U11, _U32 = np.uint64(1), np.uint64(11), np.uint64(32)
_U58, _U63, _U64 = np.uint64(58), np.uint64(63), np.uint64(64)
_U_M32 = np.uint64(0xFFFFFFFF)
# Trials seeded in one pass, so the working set stays a fixed size.
_SPAN = 4096
# Columns of the jump table: the widest rows drawn by jump-ahead.  On 2
# shared cores, 2000 trials at N = 1000 took as long by jump-ahead as by
# default_rng row by row, and at N = 1500 1.4 times as long.
_JUMP = 1024


def _start_states(words: np.ndarray) -> np.ndarray:
    """Rows (s_hi, s_lo, inc_hi, inc_lo) of a (4, rows) array: the PCG64
    state s that outputs word 0, and its increment, for each row of
    SeedSequence words w (rows, 4) (:func:`_seed_words`).

    NumPy seeds PCG64 with initstate = w0:w1 and initseq = w2:w3:
    inc = initseq << 1 | 1 and state (inc + initstate) a + inc; word 0
    comes one step on.
    """
    inc_hi = (words[:, 2] << _U1) | (words[:, 3] >> _U63)
    inc_lo = (words[:, 3] << _U1) | _U1
    t_lo = inc_lo + words[:, 1]
    t_hi = inc_hi + words[:, 0] + (t_lo < inc_lo)
    states = np.stack([t_hi, t_lo, inc_hi, inc_lo])
    # two steps: the seeding's own, then the one to word 0
    hi, lo = _mul_add(*_jump_table()[:, 1], states)
    return np.stack([hi, lo, inc_hi, inc_lo])


@functools.cache
def _jump_table() -> np.ndarray:
    """Rows (A_hi, A_lo, G_hi, G_lo) of a (4, _JUMP) array: column k
    holds A = a**(k+1) and G = sum_{j<=k} a**j, mod 2**128, which move
    a state k + 1 steps on."""
    A, G, cols = 1, 0, []
    for _ in range(_JUMP):
        A, G = A * _MULT & _M128, (G * _MULT + 1) & _M128
        cols.append((A >> 64, A & _M64, G >> 64, G & _M64))
    table = np.array(cols, dtype=np.uint64).T.copy()
    table.setflags(write=False)  # every caller shares it
    return table


def _raw_words(states: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Word k + 1 of each cell's stream, for states (4, cells) that
    output word 0 and k < _JUMP: XSL-RR(A s + G inc) with column k of
    the jump table."""
    a_hi, a_lo, g_hi, g_lo = np.take(_jump_table(), k, axis=1)
    return _xsl_rr(*_mul_add(a_hi, a_lo, g_hi, g_lo, states))


def _mul_add(a_hi, a_lo, g_hi, g_lo, states):
    """(hi, lo) of A s + G inc mod 2**128, for A = a_hi:a_lo,
    G = g_hi:g_lo and the states' rows s_hi, s_lo, inc_hi, inc_lo."""
    s_hi, s_lo, i_hi, i_lo = states
    p = a_lo * s_lo
    lo = p + g_lo * i_lo
    hi = (a_hi * s_lo + a_lo * s_hi + g_hi * i_lo + g_lo * i_hi
          + _mul_hi(a_lo, s_lo) + _mul_hi(g_lo, i_lo) + (lo < p))
    return hi, lo


def _mul_hi(x, y):
    """The high 64 bits of the 128-bit products x * y, from 32-bit
    halves; no partial sum leaves uint64."""
    x0, x1 = x & _U_M32, x >> _U32
    y0, y1 = y & _U_M32, y >> _U32
    mid = x1 * y0 + (x0 * y0 >> _U32)
    return x1 * y1 + (mid >> _U32) + (x0 * y1 + (mid & _U_M32) >> _U32)


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG's XSL-RR output of the 128-bit states hi:lo: hi ^ lo rotated
    right by the top 6 bits of hi."""
    v = hi ^ lo
    r = hi >> _U58
    return (v >> r) | (v << ((_U64 - r) & _U63))


# numpy.random.SeedSequence's hash constants (after O'Neill's
# seed_seq_fe) for its pool of four 32-bit words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _seed_words(seed: int, trials: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) for each
    trial index i < 2**32, as the rows of a (trials.size, 4) array.

    This is NumPy's mixing of the entropy words (the seed's 32-bit words,
    least significant first, then i) into the pool and of the pool into
    the state, in uint32 arithmetic over all rows at once: every row has
    the same number of words, so the hash constants run alike.
    """
    entropy = [np.full(trials.size, seed >> 32 * k & _M32, np.uint32)
               for k in range(max(1, -(-seed.bit_length() // 32)))]
    entropy.append(trials.astype(np.uint32))
    entropy += [np.zeros(trials.size, np.uint32)] * (_POOL - len(entropy))
    const = _INIT_A

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * _MULT_A & _M32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    def mix(v, w):
        v = np.uint32(_MIX_L) * v - np.uint32(_MIX_R) * w
        return v ^ (v >> np.uint32(16))

    pool = [hashmix(v) for v in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for v in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(v))
    const = _INIT_B
    state = np.empty((trials.size, 2 * _POOL), np.uint32)
    for k in range(2 * _POOL):
        v = pool[k % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        v = v * np.uint32(const)
        state[:, k] = v ^ (v >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)

