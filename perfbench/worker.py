"""Benchmark worker: runs one workload's operations against hardymeans.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--trace-out PATH]

Runs whole rounds of the workload's operations, one at a time, until
`S` seconds have passed (a closed loop with one caller).  With
``--trace 1`` the untraced loop runs for S/2 seconds and a second loop of
S/2 seconds runs with the layer tracer installed.  Prints one JSON
object: for each loop the duration of every round and every operation's
latency and output (or error), the trace totals, and the worker's peak
resident memory.  Outputs are
checked by the parent process, outside the timed region.

Needs ``hardymeans`` importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def make_runner(op: dict):
    """A no-argument callable that performs `op` and returns its output.

    The constants workload times the two routes on a parsed spec; fuzz
    and traces operations parse their own mean and weights, as one CLI
    call does, so no operation reuses a weight cache filled by another.
    """
    import hardymeans
    from hardymeans import empirical, hardy

    call = op["call"]
    if call == "constant":
        spec = hardymeans.parse_mean(op["family"])
        eta = op["eta"]

        def run():
            closed = hardy.constant_closed(spec, eta)
            root = hardy.constant_root(spec, eta).value
            return {"closed": closed, "root": root}
    elif call == "verify":
        def run():
            spec = hardymeans.parse_mean(op["family"])
            w = hardymeans.parse_weights(op["weights"])
            constant = hardy.constant_closed(spec, w.eta())
            rep = empirical.verify_inequality(
                spec, w, constant, trials=op["trials"], seed=op["seed"],
                N=op["N"])
            return {"constant": rep.constant, "max_ratio": rep.max_ratio,
                    "trial": rep.max_ratio_trial, "trials": rep.trials,
                    "N": rep.N, "seed": rep.seed}
    elif call == "est":
        def run():
            spec = hardymeans.parse_mean(op["family"])
            w = hardymeans.parse_weights(op["weights"])
            tr = empirical.est_lower_bound(spec, w, op["y"], op["N"])
            return {"ns": tr.ns.tolist(), "values": tr.values.tolist()}
    elif call == "genA":
        def run():
            w = hardymeans.parse_weights(op["weights"])
            return {"value": empirical.genA_partial(
                empirical.PowerProbe(op["p"]), w, op["N"])}
    else:
        raise ValueError(f"unknown call {call!r}")
    return run


def timed_loop(workload: str, seed: int, seconds: float, ops: list[dict],
               tracer=None) -> dict:
    """Run whole rounds until `seconds` have passed; see the module doc."""
    runners = [make_runner(op) for op in ops]
    orders = workloads.round_orders(len(ops), seed, workload)
    latency_ns: list[list[int]] = [[] for _ in ops]
    outputs: list[list] = [[] for _ in ops]
    clock = time.perf_counter_ns
    round_s: list[float] = []
    seq = 0
    start = clock()
    deadline = start + int(seconds * 1e9)
    while True:
        round_start = clock()
        for i in next(orders):
            if tracer is not None:
                tracer.begin_op(seq, ops[i]["kind"])
            t0 = clock()
            try:
                out = runners[i]()
            except Exception as exc:  # a failing operation is a result
                out = {"error": f"{type(exc).__name__}: {exc}"}
            t1 = clock()
            if tracer is not None:
                tracer.end_op()
            latency_ns[i].append(t1 - t0)
            outputs[i].append(out)
            seq += 1
        now = clock()
        round_s.append((now - round_start) / 1e9)
        if now >= deadline:
            break
    return {"rounds": len(round_s), "round_s": round_s,
            "latency_ns": latency_ns, "outputs": outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import hardymeans  # noqa: F401  (fail before any timing if missing)

    ops = workloads.build(args.workload, args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = {"untraced": timed_loop(args.workload, args.seed, seconds, ops)}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = timed_loop(args.workload, args.seed,
                                          seconds, ops, tracer=tracer)
        finally:
            tracer.uninstall()
        result["trace_totals"] = tracer.totals()
        if args.trace_out:
            tracer.write(args.trace_out)
    result["peak_rss_kib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
