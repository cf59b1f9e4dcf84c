"""Command-line interface.

Subcommands: constant, solve, verify, est, gena, sweep, homogenize.
Results print as a single JSON object (or CSV where a table is the
natural shape) on stdout; computational failures print a JSON error
object on stderr and exit 1; usage problems exit 2.  Reals carry 17
significant digits and infinities print as the literal ``inf``.
``est`` also prints one line on stderr comparing the tail of its trace
with the closed-form constant.

A ``--config <file>`` of ``key=value`` lines (keys are the long flag
names) is read as ``--key=value`` flags placed before the command-line
flags: it is checked like them, and a flag given on the command line
always wins.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import empirical, hardy
from .errors import DomainError, HardyMeansError, UsageError, ViolationFound
from .homogenize import homogenize as _scaling_ladder
from .formatting import fmt_real, render_json
from .means import parse_mean
from .weights import parse_weights

# Largest `sweep --eta` grid; a finer step is a usage error.
_MAX_GRID_POINTS = 10 ** 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardymeans",
        description="Sharp constants for weighted Hardy-type mean "
                    "inequalities, and empirical checks of them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="file of key=value flag lines")
        return p

    p = command("constant", "closed-form or root-solved constant")
    p.add_argument("--family", required=True,
                   help="mean specifier, e.g. power:p=0.5")
    p.add_argument("--eta", default="0", help="weight ratio limit in [0, 1)")
    p.add_argument("--method", choices=("closed", "root", "both"),
                   default="closed")
    p.add_argument("--tol", type=float, default=1e-12)

    p = command("solve", "root of the characteristic equation")
    p.add_argument("--family", required=True)
    p.add_argument("--eta", default="0")
    p.add_argument("--tol", type=float, default=1e-12)

    p = command("verify", "fuzz the inequality at a constant")
    p.add_argument("--mean", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--constant", default="auto",
                   help="'auto' or a positive real")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--N", type=int, default=50)

    p = command("est", "witness trace toward the constant")
    p.add_argument("--mean", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--y", type=float, default=1.0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", help="CSV path (default stdout)")

    p = command("gena", "weighted probe sums and their limit")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--N", type=int, required=True)

    p = command("sweep", "constants over an eta grid, as CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--eta", required=True, help="grid start:stop:step")
    p.add_argument("--method", choices=("closed", "root"), default="closed")
    p.add_argument("--out")

    p = command("homogenize", "scaling ladder of a mean")
    p.add_argument("--mean", required=True)
    p.add_argument("--x", required=True,
                   help="comma-separated positive samples")
    p.add_argument("--lam", required=True,
                   help="comma-separated nonnegative weights")
    p.add_argument("--tol", type=float, default=1e-8)
    return parser


def _with_config(argv: list[str], parser: argparse.ArgumentParser
                 ) -> list[str]:
    """argv with the lines of its --config file inserted after the
    subcommand as --key=value flags, so that the subcommand's parser
    checks them as it checks the others, and a flag given on the command
    line, which comes later, wins."""
    for i, token in enumerate(argv):
        if token.startswith("--config="):
            path = token.partition("=")[2]
        elif token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        else:
            continue
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            parser.error(f"cannot read config {path!r}: {exc}")
        flags = []
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key = key.strip()
            if not sep or not key or key == "config":
                parser.error(f"malformed config line {line!r}")
            flags.append(f"--{key}={val.strip()}")
        return argv[:1] + flags + argv[1:]
    return argv


def _parse_eta(text, parser) -> float:
    try:
        eta = float(text)
        hardy._check_eta(eta)
    except (TypeError, ValueError):  # DomainError is a ValueError
        parser.error(f"--eta must be a real in [0, 1), got {text!r}")
    return eta


def _parse_eta_grid(text, parser) -> list[float]:
    parts = str(text).split(":")
    if len(parts) != 3:
        parser.error("--eta grid must be start:stop:step")
    try:
        start, stop, step = (float(t) for t in parts)
    except ValueError:
        parser.error(f"bad grid numbers in {text!r}")
    if not (step > 0 and stop >= start):  # also rejects NaN
        parser.error("grid needs step > 0 and stop >= start")
    span = (stop - start) / step
    if not span <= _MAX_GRID_POINTS - 1:  # also rejects an infinite span
        parser.error(f"grid has more than {_MAX_GRID_POINTS} points")
    count = int(round(span)) + 1
    etas = [start + i * step for i in range(count)]
    etas = [e for e in etas if e <= stop + 1e-12 * max(1.0, abs(stop))]
    for e in etas:
        try:
            hardy._check_eta(e)
        except DomainError:
            parser.error(f"grid value {e:g} outside [0, 1)")
    return etas


def _emit(text: str, out_path=None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_json(exc: HardyMeansError) -> str:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ViolationFound):
        payload["ratio"] = exc.ratio
        payload["trial"] = exc.trial
        payload["check"] = exc.check
        payload["sequence"] = exc.sequence
    return render_json(payload)


def _cmd_constant(args, parser) -> int:
    spec = parse_mean(args.family)
    eta = _parse_eta(args.eta, parser)
    if args.method == "closed":
        value = hardy.constant_closed(spec, eta)
        out = {"value": value, "method": "closed", "residual": 0.0,
               "eta": eta}
    elif args.method == "root":
        res = hardy.constant_root(spec, eta, tol=args.tol)
        out = {"value": res.value, "method": res.method,
               "residual": res.residual, "eta": eta}
    else:
        closed = hardy.constant_closed(spec, eta)
        res = hardy.constant_root(spec, eta, tol=args.tol)
        out = {"closed": closed, "root": res.value,
               "abs_diff": abs(closed - res.value), "eta": eta}
    _emit(render_json(out) + "\n")
    return 0


def _cmd_solve(args, parser) -> int:
    args.method = "root"
    return _cmd_constant(args, parser)


def _cmd_verify(args, parser) -> int:
    spec = parse_mean(args.mean)
    w = parse_weights(args.weights)
    eta = w.eta()
    if args.constant == "auto":
        constant = hardy.constant_closed(spec, eta)
    else:
        try:
            constant = float(args.constant)
        except ValueError:
            parser.error(f"--constant must be 'auto' or a real, got "
                         f"{args.constant!r}")
        if math.isnan(constant) or constant <= 0.0:
            parser.error("--constant must be positive")
    report = empirical.verify_inequality(spec, w, constant,
                                         trials=args.trials, seed=args.seed,
                                         N=args.N)
    _emit(render_json(report.to_dict()) + "\n")
    return 0


def _cmd_est(args, parser) -> int:
    spec = parse_mean(args.mean)
    w = parse_weights(args.weights)
    trace = empirical.est_lower_bound(spec, w, args.y, args.N)
    trace.to_csv(args.out or sys.stdout)
    tail = trace.tail_inf()
    summary = f"tail inf over n >= {trace.ns[-1] // 2}: {tail:.9g}"
    try:
        target = hardy.constant_closed(spec, w.eta())
        summary += f"; closed-form constant {target:.9g}"
        if math.isfinite(target):
            summary += f"; gap {abs(tail - target) / target:.3%}"
    except HardyMeansError:
        summary += "; no closed-form constant for this family"
    sys.stderr.write(summary + "\n")
    return 0


def _cmd_gena(args, parser) -> int:
    w = parse_weights(args.weights)
    eta = w.eta()
    partial = empirical.genA_partial(empirical.PowerProbe(args.p), w, args.N)
    limit = empirical.genA_limit(args.p, eta)
    out = {"p": args.p, "weights": w.spec_text(), "n": args.N,
           "eta": eta, "partial": partial, "limit": limit,
           "abs_diff": abs(partial - limit)}
    _emit(render_json(out) + "\n")
    return 0


def _cmd_sweep(args, parser) -> int:
    spec = parse_mean(args.family)
    etas = _parse_eta_grid(args.eta, parser)
    rows = ["eta,value"]
    for eta in etas:
        if args.method == "closed":
            value = hardy.constant_closed(spec, eta)
        else:
            value = hardy.constant_root(spec, eta).value
        rows.append(f"{fmt_real(eta)},{fmt_real(value)}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_homogenize(args, parser) -> int:
    spec = parse_mean(args.mean)
    try:
        x = np.array([float(t) for t in str(args.x).split(",")])
        lam = np.array([float(t) for t in str(args.lam).split(",")])
    except ValueError:
        parser.error("--x and --lam must be comma-separated reals")
    est = _scaling_ladder(spec, x, lam, tol=args.tol)
    rows = ["t,value"]
    rows.extend(f"{fmt_real(t)},{fmt_real(v)}"
                for t, v in zip(est.t_values, est.ladder))
    rows.append(f"0,{fmt_real(est.value)}")
    _emit("\n".join(rows) + "\n")
    if not est.converged:
        sys.stderr.write(render_json(
            {"warning": "NoConvergence",
             "message": "ladder spread still above tolerance; the final "
                        "row extrapolates the unsettled tail",
             "spread": est.spread}) + "\n")
    return 0


_HANDLERS = {
    "constant": _cmd_constant, "solve": _cmd_solve, "verify": _cmd_verify,
    "est": _cmd_est, "gena": _cmd_gena, "sweep": _cmd_sweep,
    "homogenize": _cmd_homogenize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_with_config(
            list(sys.argv[1:] if argv is None else argv), parser))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, parser)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except ViolationFound as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 1
    except HardyMeansError as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
