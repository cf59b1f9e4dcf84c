"""The operations of the three benchmark workloads, as plain data.

An operation is a dict with a ``kind`` (the label its latency is grouped
under), a ``call`` naming what the worker runs, and the call's inputs.
A workload's operations form one *round*; every run repeats whole rounds
of the same operations, so per-operation counts and the share of failed
operations do not depend on how many rounds fit in the run.  The seed
chooses the order of the operations in each round and, where a workload
has free inputs, their values; the same seed gives the same operations.

This module does not import hardymeans: the parent process builds the
operation list for its checks, and only the worker runs it.
"""

from __future__ import annotations

import re

import numpy as np

WORKLOADS = ("constants", "fuzz", "traces")

# -- constants --------------------------------------------------------------

CONSTANT_FAMILIES = (
    "power:p=-5", "power:p=-1", "power:p=0", "power:p=0.5", "power:p=0.9",
    "gini:p=0.5,q=-0.5", "gini:p=0.25,q=-0.75", "gini:p=0.9,q=-0.2",
    "devmean:f=log", "devmean:f=pow:0.5", "devmean:f=pow:-1",
    "qa:g=log", "qa:g=pow:0.5", "qa:g=pow:-1",
)
# An odd number of cells per family keeps each family's median latency
# inside one cell's cluster instead of between two.
CONSTANT_ETAS = (0.0, 0.1, 0.3, 0.6, 0.9)

# (family, eta, what goes wrong today).  These cells stay in the round and
# count as failed until the program is mended; the check needs no change.
FAULT_CELLS = (
    ("power:p=0.999", 0.0,
     "root route returns 506.73 (true 1006.94): solve_cef ignores "
     "QuadratureResult.converged"),
    ("power:p=-1000000", 0.0,
     "root route raises NoBracketError (true 1.0000138156): the bracket "
     "starts at (1, 2)"),
    ("gini:p=0.5,q=-60", 0.0,
     "root route raises NoBracketError (true 1.0826430354): the bracket "
     "starts at (1, 2)"),
    ("gini:p=0.999,q=-0.5", 0.2,
     "root route raises TailBoundFailure (true 117.95134496)"),
    ("power:p=1e-9", 0.5,
     "closed route returns 2.0000000515 (true 2.0000000009609): "
     "cancellation in C_of"),
)

# -- fuzz -------------------------------------------------------------------

FUZZ_CLOSED = ("power:p=0.5", "gini:p=0.5,q=-0.5", "qa:g=log")
FUZZ_DEVIATION = ("devmean:f=log", "devmean:f=pow:0.5")
FUZZ_WEIGHTS = ("ones", "geometric:a=2", "powerlaw:alpha=1")
FUZZ_N = 50
# Sized so that the closed and the deviation kinds each take about half of
# a round: a closed trial costs ~0.1 ms, a deviation trial ~4.5 ms.
FUZZ_TRIALS_CLOSED = 1000
FUZZ_TRIALS_DEVIATION = 40

# -- traces -----------------------------------------------------------------

TRACE_N = 10 ** 6
TRACE_EST = (
    ("power:p=0.5", "ones"), ("power:p=0", "ones"), ("power:p=-1", "ones"),
    ("power:p=0.5", "powerlaw:alpha=1"), ("power:p=0", "powerlaw:alpha=1"),
    ("power:p=-1", "powerlaw:alpha=1"),
    ("gini:p=0.5,q=-0.5", "powerlaw:alpha=1"),
    ("gini:p=-0.5,q=-0.5", "ones"),
    ("qa:g=pow:0.5", "ones"),
)
TRACE_GENA_P = 0.5
TRACE_GENA_WEIGHTS = ("ones", "geometric:a=2")
# Probe sums that miss the reference today, by weights; counted as failed
# like the constants fault cells.
TRACE_FAULTS = {
    "geometric:a=2":
        "genA_partial returns 1.7071067811389917 (true 1.7071067811865475, "
        "2.8e-11 relative): its log-space exponents are ~n log a = 6.9e5 "
        "and carry ~1e-10 absolute rounding",
}
# The witness level y is a power of two, so x_n = y / Lambda_n is an exact
# rescaling and the checks need not depend on it.
TRACE_Y_EXPONENTS = (-20, 20)


def metric_label(text: str) -> str:
    """A family or weight specifier made safe for a metric name."""
    return re.sub(r"[^A-Za-z0-9.-]+", "_", text).strip("_")


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one round of `workload` for `seed`, unordered."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    if workload == "constants":
        ops = [{"kind": metric_label(fam), "call": "constant",
                "family": fam, "eta": eta}
               for fam in CONSTANT_FAMILIES for eta in CONSTANT_ETAS]
        ops += [{"kind": metric_label(fam), "call": "constant",
                 "family": fam, "eta": eta, "fault": why}
                for fam, eta, why in FAULT_CELLS]
        return ops
    if workload == "fuzz":
        ops = []
        for fam in FUZZ_CLOSED + FUZZ_DEVIATION:
            trials = (FUZZ_TRIALS_DEVIATION if fam in FUZZ_DEVIATION
                      else FUZZ_TRIALS_CLOSED)
            for ws in FUZZ_WEIGHTS:
                ops.append({"kind": f"{metric_label(fam)}.{metric_label(ws)}",
                            "call": "verify", "family": fam, "weights": ws,
                            "trials": trials, "N": FUZZ_N,
                            "seed": int(rng.integers(0, 2 ** 31))})
        return ops
    if workload == "traces":
        lo, hi = TRACE_Y_EXPONENTS
        ops = [{"kind": f"est.{metric_label(fam)}.{metric_label(ws)}",
                "call": "est", "family": fam, "weights": ws, "N": TRACE_N,
                "y": 2.0 ** int(rng.integers(lo, hi + 1))}
               for fam, ws in TRACE_EST]
        for ws in TRACE_GENA_WEIGHTS:
            op = {"kind": f"genA.{metric_label(ws)}", "call": "genA",
                  "p": TRACE_GENA_P, "weights": ws, "N": TRACE_N}
            if ws in TRACE_FAULTS:
                op["fault"] = TRACE_FAULTS[ws]
            ops.append(op)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def round_orders(n_ops: int, seed: int, workload: str):
    """Endless per-round permutations of range(n_ops), fixed by the seed."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), 1])
    while True:
        yield [int(i) for i in rng.permutation(n_ops)]


def kinds(workload: str) -> list[str]:
    """Operation kinds of a workload, in a fixed order (seed-independent)."""
    seen: dict[str, None] = {}
    for op in build(workload, 0):
        seen.setdefault(op["kind"])
    return list(seen)
