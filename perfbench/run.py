"""hardymeans benchmark: one workload per invocation.

    python3 perfbench/run.py --workload constants|fuzz|traces \
        --seed N --seconds S --trace 0|1

Run from anywhere; the library is taken from ``src/`` next to this
directory.  Steps:

1. ``setup_s``: the median wall time of several fresh interpreters, run one
   after another, that import hardymeans and exit (``--trace 0``), or the
   ``-X importtime`` split of that import (``--trace 1``).
2. One worker process runs the workload for ``S`` seconds (see worker.py);
   with ``--trace 1`` it runs it for S/2 seconds, then S/2 seconds more with
   the layer tracer.
3. Every output is checked against references computed apart from the
   library (checks.py), outside the timed region.

Prints the metrics by name and unit, then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  Exits 2
without a result when the library is not there, 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 150
OUT_DIR = HERE / "out"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def import_cmd(*flags: str) -> list[str]:
    return [sys.executable, *flags, "-c", "import hardymeans"]


# -- set-up -----------------------------------------------------------------

def measure_setup(env: dict) -> float:
    """Median wall time to start a fresh interpreter, import hardymeans and
    exit.  One untimed import first writes any missing bytecode caches,
    which an installed package has already."""
    subprocess.run(import_cmd(), env=env, check=True,
                   timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(import_cmd(), env=env, check=True,
                       timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_importtime(text: str) -> dict:
    """Milliseconds of the hardymeans import spent in hardymeans (all of
    it), in SciPy and in NumPy.  A package's time is the cumulative time
    of each of its modules imported from outside the package."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cum)))
    out = {}
    for pkg in ("hardymeans", "scipy", "numpy"):
        total = 0
        for i, (depth, name, cum) in enumerate(rows):
            if name != pkg and not name.startswith(pkg + "."):
                continue
            parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
            if parent != pkg and not parent.startswith(pkg + "."):
                total += cum
        out[pkg] = total / 1000.0
    return out


def measure_importtime(env: dict) -> dict:
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(import_cmd("-X", "importtime"), env=env,
                              check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
                              capture_output=True, text=True)
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{pkg}_ms": statistics.median(r[pkg] for r in runs)
            for pkg in ("hardymeans", "scipy", "numpy")}


# -- checks and metrics -----------------------------------------------------

def check_loop(ops: list[dict], refs: list, loop: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) of one timed loop.  An operation
    fails when it raises or its output misses the reference; a failure
    outside the known fault cells is also a problem, which makes the
    run incorrect."""
    attempted = failed = 0
    problems = []
    for op, ref, outs in zip(ops, refs, loop["outputs"]):
        for out in outs:
            attempted += 1
            reason = checks.check(op, out, ref)
            if reason is None:
                continue
            failed += 1
            if "fault" not in op:
                problems.append(f"{op['kind']}: {reason}")
    return attempted, failed, problems


def kind_latencies_ms(ops: list[dict], loop: dict) -> dict[str, list[float]]:
    by_kind: dict[str, list[float]] = {}
    for op, lat in zip(ops, loop["latency_ns"]):
        by_kind.setdefault(op["kind"], []).extend(t / 1e6 for t in lat)
    return by_kind


def ops_per_s(loop: dict) -> float:
    """Operations completed per second of the timed loop."""
    return len(loop["latency_ns"]) * loop["rounds"] / sum(loop["round_s"])


def tail_ms(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, once
    there are 40 samples; the median below that."""
    s = sorted(samples)
    if len(s) < 40:
        return statistics.median(s)
    return s[len(s) - 11]


def end_to_end(ops, loop, setup_s, peak_rss_kib) -> dict:
    medians = [statistics.median(v)
               for v in kind_latencies_ms(ops, loop).values()]
    gmean = math.exp(sum(math.log(m) for m in medians) / len(medians))
    return {"setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s(loop), "1/s"),
            "op_gmean_ms": (gmean, "ms"),
            "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB")}


# (metric, source, unit): source is ("calls" | "self_ms" | count key)
LAYER_METRICS = (
    ("quadrature.tanh_sinh.calls", "calls", "count/op"),
    ("quadrature.tanh_sinh.self_ms", "self_ms", "ms/op"),
    ("quadrature.tanh_sinh.levels", "count", "count/op"),
    ("quadrature.tanh_sinh.unconverged", "count", "count/op"),
    ("hardy.solve_cef.calls", "calls", "count/op"),
    ("hardy.solve_cef.self_ms", "self_ms", "ms/op"),
    ("hardy.F_eval.calls", "calls", "count/op"),
    ("hardy.F_eval.self_ms", "self_ms", "ms/op"),
    ("hardy.F_eval.terms", "count", "count/op"),
    ("hardy.constant_closed.self_ms", "self_ms", "ms/op"),
    ("hardy.detect_order.self_ms", "self_ms", "ms/op"),
    ("rootfind.bracketed_root.calls", "calls", "count/op"),
    ("rootfind.bracketed_root.self_ms", "self_ms", "ms/op"),
    ("rootfind.bracketed_root.iterations", "count", "count/op"),
    ("rootfind.bracketed_root.fevals", "count", "count/op"),
    ("rootfind.expand_bracket_up.calls", "calls", "count/op"),
    ("rootfind.expand_bracket_up.self_ms", "self_ms", "ms/op"),
    ("rootfind.expand_bracket_up.fevals", "count", "count/op"),
    ("means.prefix_values.calls", "calls", "count/op"),
    ("means.prefix_values.self_ms", "self_ms", "ms/op"),
    ("weights.prefix_array.calls", "calls", "count/op"),
    ("weights.prefix_array.self_ms", "self_ms", "ms/op"),
    ("weights.lam_array.self_ms", "self_ms", "ms/op"),
    ("empirical.verify_inequality.self_ms", "self_ms", "ms/op"),
    ("empirical.hardy_ratio.calls", "calls", "count/op"),
    ("empirical.hardy_ratio.self_ms", "self_ms", "ms/op"),
    ("empirical.est_lower_bound.self_ms", "self_ms", "ms/op"),
    ("empirical.genA_partial.self_ms", "self_ms", "ms/op"),
)


def layer_metrics(ops, traced, totals) -> tuple[dict, list[str]]:
    """Per-operation layer figures from the traced loop, and problems.
    Every round runs the same operations, so a count's total must divide
    exactly by the number of rounds; the per-operation value then repeats
    exactly between runs."""
    rounds, per_round = traced["rounds"], len(ops)
    out, problems = {}, []
    for metric, source, unit in LAYER_METRICS:
        span = metric.rsplit(".", 1)[0]
        if source == "self_ms":
            out[metric] = (totals["self_ns"].get(span, 0) / 1e6
                           / (rounds * per_round), unit)
            continue
        total = (totals["calls"].get(span, 0) if source == "calls"
                 else totals["counts"].get(metric, 0))
        if total % rounds:
            problems.append(f"{metric}: {total} does not repeat over "
                            f"{rounds} identical rounds")
        out[metric] = (total / rounds / per_round, unit)
    return out, problems


def kind_metrics(workload, ops, loop) -> dict:
    """p50 and tail latency of every kind of every workload; the kinds of
    the other workloads read 0, since this run does not time them."""
    lat = kind_latencies_ms(ops, loop)
    out = {}
    for wl in workloads.WORKLOADS:
        for kind in workloads.kinds(wl):
            s = lat.get(kind) if wl == workload else None
            out[f"{wl}.{kind}.p50_ms"] = (statistics.median(s) if s else 0.0,
                                          "ms")
            out[f"{wl}.{kind}.tail_ms"] = (tail_ms(s) if s else 0.0, "ms")
    return out


# -- main -------------------------------------------------------------------

def run_worker(args, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT_DIR / f"trace-{args.workload}.npz")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hardymeans" / "__init__.py").is_file():
        print(f"no hardymeans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.trace:
            import_ms = measure_importtime(env)
        else:
            setup_s = measure_setup(env)
        result = run_worker(args, env)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = workloads.build(args.workload, args.seed)
    refs = [checks.reference(op) for op in ops]
    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = failed = 0
    problems: list[str] = []
    for loop in loops:
        a, f, p = check_loop(ops, refs, loop)
        attempted, failed = attempted + a, failed + f
        problems += p

    untraced = result["untraced"]
    if args.trace:
        metrics = {k: (v, "ms") for k, v in import_ms.items()}
        layers, layer_problems = layer_metrics(ops, result["traced"],
                                               result["trace_totals"])
        metrics.update(layers)
        problems += layer_problems
        metrics.update(kind_metrics(args.workload, ops, untraced))
        base = ops_per_s(untraced)
        metrics["trace.overhead_pct"] = (
            100.0 * (base - ops_per_s(result["traced"])) / base, "%")
    else:
        metrics = end_to_end(ops, untraced, setup_s, result["peak_rss_kib"])

    for reason in sorted(set(problems)):
        print(f"INCORRECT {reason}")
    print(f"{args.workload}: seed {args.seed}, {untraced['rounds']} rounds "
          f"of {len(ops)} operations; attempted {attempted}, "
          f"failed {failed}")
    for name, (value, unit) in metrics.items():
        if value or not args.trace:
            print(f"  {name:<50} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
