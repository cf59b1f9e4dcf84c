"""Digests of the shifted prefix sums, of everything built on them, and of
the sharp constants.

    PYTHONPATH=src python3 scripts/means_digest.py

Prints one SHA-256 line per group of outputs, then one over all groups.
Run it on two checkouts (PYTHONPATH pointing at each one's ``src``): equal
lines mean the same bits.  The groups are

- ``shifted_sums``: 400 direct calls of ``means._shifted_sums`` on log
  terms t up to several thousand in size and growing weight exponents k,
  with per-row and shared t, sorted and unsorted, repeated requested
  columns, 8 of them over more than two chunks of columns; the shift
  (c, j) is hashed after broadcasting to the sums;
- ``prefix_values``: 11 mean families x 4 weight vectors x N in
  {50, 900, 3000} on wide log-uniform samples;
- ``verify``: 12 ``verify_inequality`` reports;
- ``est``: 12 ``est_lower_bound`` traces;
- ``constants``: the closed and the root constant of every cell of the
  benchmark's ``constants`` workload, its fault cells included
  (``perfbench/workloads.py``);
- ``lanes``: ``prefix`` of 10 means solved by the lane solver (raw
  kernels, custom profiles and a custom generator) on batches of 3 rows
  at 2, 50 and 300 decades, under ones, arange and gapped weights, with
  the rows' own ``lengths``, for every prefix and for unsorted ``idx``;
  the prefixes past a row's length are unspecified and hashed as 0.

An input that raises a HardyMeansError contributes the error's class
name and message.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from hardymeans import (Deviation, HardyMeansError, HomogeneousDeviation,
                        QuasiArithmetic, QuasideviationKernel,
                        constant_closed, constant_root, dev_gini, dev_power,
                        difference_kernel, est_lower_bound, log_gen,
                        parse_mean, parse_weights, power_gap_kernel,
                        power_gen, prefix_values, ratio_kernel,
                        scaled_ratio_kernel, verify_inequality)
from hardymeans.means import _shifted_sums

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CONSTANT_ETAS, CONSTANT_FAMILIES, FAULT_CELLS  # noqa: E402

FAMILIES = ["power:p=0.5", "power:p=0", "power:p=-100", "power:p=1e7",
            "gini:p=0.5,q=-0.5", "gini:p=60,q=-60", "gini:p=2,q=2",
            "qa:g=log", "qa:g=pow:0.5", "devmean:f=log",
            "devmean:f=pow:0.5"]


def feed(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())


def guarded(h, fn):
    try:
        return fn()
    except HardyMeansError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return None


def shifted_sums(h):
    rng = np.random.default_rng(2024)
    for call in range(400):
        rows, n = int(rng.integers(1, 6)), int(rng.integers(2, 400))
        if call % 50 == 49:  # past two chunks of columns
            n = 2 * 2 ** 15 + int(rng.integers(1, 400))
        size = [1.0, 50.0, 700.0, 3000.0][call % 4]
        # a random walk, so that the running maximum climbs by steps
        t = np.cumsum(rng.normal(0.0, size / 20, (rows, n)), axis=1)
        t -= t[:, :1]
        if call % 5 == 0:
            t[:, 1::7] = -np.inf  # zero weights
        k = np.cumsum(rng.integers(0, 3 if call % 3 else 40, n))
        k -= k[0]
        if call % 6 == 1:
            k = np.broadcast_to(0, (n,))
        shared = call % 4 == 3
        if shared:
            t = t[0]
        values = [rng.normal(size=(rows, n)),
                  np.exp(rng.normal(size=(rows, n)))][:call % 3]
        if shared and call % 8 == 3:
            values = [v[0] for v in values]
        if call % 2:
            idx = rng.integers(0, n, int(rng.integers(1, 30)))
        else:
            idx = np.arange(int(rng.integers(1, n + 1)))
        (c, j), sums, means = _shifted_sums(lambda cols: (
            t[..., cols], k[cols], [v[..., cols] for v in values]), idx)
        feed(h, np.broadcast_to(c, sums.shape),
             np.broadcast_to(j, sums.shape), sums, *means)


def prefix_groups(h):
    rng = np.random.default_rng(7)
    weights = {name: parse_weights(name).lam_array
               for name in ("ones", "geometric:a=1.01", "powerlaw:alpha=3")}
    weights["gapped"] = lambda n: np.where(np.arange(n) % 7 == 3, 0.0,
                                           1.0 + np.arange(n) % 5)
    for family in FAMILIES:
        spec = parse_mean(family)
        for lam_of in weights.values():
            for n in (50, 900, 3000):
                x = 10.0 ** rng.uniform(-30.0, 30.0, n)
                out = guarded(h, lambda: prefix_values(spec, x, lam_of(n)))
                if out is not None:
                    feed(h, out)


def verify_group(h):
    for i, (family, weights) in enumerate(
            (f, w) for f in ("power:p=0.5", "power:p=-100",
                             "gini:p=60,q=-60", "qa:g=pow:0.5",
                             "devmean:f=log", "power:p=3")
            for w in ("ones", "geometric:a=1e6")):
        rep = guarded(h, lambda: verify_inequality(
            parse_mean(family), parse_weights(weights), math.inf,
            trials=300, seed=i))
        if rep is not None:
            h.update(repr(rep.to_dict()).encode())


def est_group(h):
    for family in ("power:p=0.5", "power:p=-50", "power:p=40",
                   "gini:p=0.5,q=-0.5", "qa:g=pow:0.5", "devmean:f=log"):
        for weights, y in (("ones", 1.0), ("powerlaw:alpha=3", 0.5)):
            trace = guarded(h, lambda: est_lower_bound(
                parse_mean(family), parse_weights(weights), y, 20000))
            if trace is not None:
                feed(h, trace.ns, trace.values)


def constants_group(h):
    cells = [(f, eta) for f in CONSTANT_FAMILIES for eta in CONSTANT_ETAS]
    cells += [(f, eta) for f, eta, _ in FAULT_CELLS]
    for family, eta in cells:
        spec = parse_mean(family)
        for route in (constant_closed,
                      lambda s, e: constant_root(s, e).value):
            value = guarded(h, lambda: route(spec, eta))
            if value is not None:
                h.update(repr(value).encode())


def lanes(h):
    def custom(g, **fields):
        return replace(g, family=("custom",), **fields)

    specs = [Deviation(k) for k in (
        difference_kernel(), power_gap_kernel(2.0), ratio_kernel(log_gen()),
        scaled_ratio_kernel(dev_power(0.5)),
        QuasideviationKernel(fn=lambda x, y: x - y))]
    specs += [HomogeneousDeviation(custom(f, **d1)) for f in (
        dev_power(0.5), dev_gini(0.5, -0.5)) for d1 in ({}, {"d1": None})]
    specs.append(QuasiArithmetic(custom(power_gen(0.5))))
    rng = np.random.default_rng(11)
    n = 120
    weights = [np.ones(n), np.arange(1.0, n + 1),
               np.where(np.arange(n) % 7 == 3, 0.0, 1.0 + np.arange(n) % 5)]
    lengths = np.array([n, 61, 9])
    for spec in specs:
        for decades in (2, 50, 300):
            x = 10.0 ** rng.uniform(-decades / 2, decades / 2, (3, n))
            for lam in weights:
                for idx in (np.arange(n), rng.permutation(n)[:40]):
                    out = guarded(h, lambda: spec.prefix(x, lam, idx, lengths))
                    if out is not None:
                        feed(h, np.where(idx < lengths[:, None], out, 0.0))


def main():
    total = hashlib.sha256()
    for group in (shifted_sums, prefix_groups, verify_group, est_group,
                  constants_group, lanes):
        h = hashlib.sha256()
        with np.errstate(all="ignore"):
            group(h)
        print(f"{group.__name__:15s} {h.hexdigest()}")
        total.update(h.digest())
    print(f"{'all':15s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
