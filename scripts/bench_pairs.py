"""Compare two checkouts on the perfbench workloads in alternating pairs.

    python3 scripts/bench_pairs.py --base DIR --head DIR --out BENCH_n.json

DIR is a checkout (the parent commit, the change) holding ``perfbench/``
and ``src/``; each side runs with its own copy of the benchmark.  The
workloads and the run length are those the base's ``BENCHMARK.json``
declares.  Pair i of PAIRS runs every workload on both sides with seed
i + 1, the base first in even
pairs and the head first in odd ones, so a slow spell of the machine falls
on both sides.  Then each side makes one traced run (``--trace 1``, seed 1)
per workload for the per-layer counts.

The output records, per workload and end-to-end metric, each side's median
and quartiles over the pairs, every run's value, and how many pairs the
head won (ties count for neither side).  A gain is ``claimable`` when the
head wins at least nine tenths of the pairs and the medians differ by more
than the base's interquartile range.  The file is rewritten after every
pair, so an interrupted comparison keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, better: dict) -> dict:
    """Per workload and metric: both sides' quartiles, the pair wins and
    the claim verdict."""
    out = {}
    for workload, pairs in runs.items():
        rows = {}
        for name, lower_is_better in better.items():
            base = [p["base"]["metrics"][name]["value"] for p in pairs]
            head = [p["head"]["metrics"][name]["value"] for p in pairs]
            sign = -1.0 if lower_is_better else 1.0
            wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
            losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
            qb, qh = quartiles(base), quartiles(head)
            gain = sign * (qh["median"] - qb["median"])
            rows[name] = {
                "unit": pairs[0]["base"]["metrics"][name]["unit"],
                "better": "lower" if lower_is_better else "higher",
                "base": {**qb, "runs": base}, "head": {**qh, "runs": head},
                "head_minus_base_rel": (qh["median"] - qb["median"])
                / qb["median"],
                "head_wins": wins, "head_losses": losses, "pairs": len(pairs),
                "claimable": (wins >= 0.9 * len(pairs)
                              and gain > qb["q3"] - qb["q1"]),
            }
        sides = {side: {"correct": [p[side]["correct"] for p in pairs],
                        "failed_per_attempted": [
                            p[side]["failed"] / p[side]["attempted"]
                            for p in pairs]}
                 for side in ("base", "head")}
        out[workload] = {"metrics": rows, **sides,
                         "seeds": [p["seed"] for p in pairs]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--head", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    record = {"seconds": seconds, "command": spec["command"],
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    runs: dict[str, list] = {w: [] for w in workloads}

    def write():
        record["end_to_end"] = summarize(
            {w: p for w, p in runs.items() if p}, better)
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            pair = {"seed": i + 1, "first": order[0]}
            for side in order:
                pair[side] = run_bench(sides[side], workload, i + 1,
                                       seconds, 0)
            runs[workload].append(pair)
        write()
        print(f"pair {i + 1}/{PAIRS} done", flush=True)

    record["traced"] = {
        workload: {side: {k: v["value"] for k, v in run_bench(
            sides[side], workload, 1, seconds, 1)["metrics"].items()
            if v["unit"] == "count/op" or k.startswith("import.")}
            for side in ("base", "head")}
        for workload in workloads}
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
