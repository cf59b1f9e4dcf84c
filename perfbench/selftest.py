"""Self-tests of the benchmark's checks.

    python3 perfbench/selftest.py

Each check must accept the library's real output and reject the same
output perturbed: a constant off by 1e-9 relative, a trace point off by
1e-9, a fuzz ratio that does not match its trial.  Every known fault
operation must be counted as failed, and nothing else.
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import make_runner  # noqa: E402

PERTURB = 1.0 + 1e-9


def op_of(workload: str, kind: str) -> dict:
    return next(op for op in workloads.build(workload, 0)
                if op["kind"] == kind)


def run_once(ops: list[dict]) -> dict:
    """One untimed round, shaped like a worker loop."""
    outputs = []
    for op in ops:
        try:
            outputs.append([make_runner(op)()])
        except Exception as exc:
            outputs.append([{"error": f"{type(exc).__name__}: {exc}"}])
    return {"outputs": outputs}


class ConstantCheck(unittest.TestCase):
    def test_rejects_constant_off_by_1e9(self):
        op = {"call": "constant", "family": "gini:p=0.5,q=-0.5", "eta": 0.3}
        ref = checks.reference(op)
        exact = float(ref)
        self.assertIsNone(checks.check(op, {"closed": exact, "root": exact},
                                       ref))
        for route in ("closed", "root"):
            out = {"closed": exact, "root": exact}
            out[route] = exact * PERTURB
            self.assertIsNotNone(checks.check(op, out, ref), route)

    def test_rejects_error(self):
        op = {"call": "constant", "family": "power:p=0.5", "eta": 0.0}
        ref = checks.reference(op)
        self.assertIsNotNone(checks.check(op, {"error": "NoBracketError"},
                                          ref))


class TraceCheck(unittest.TestCase):
    def assert_point_perturbation_rejected(self, kind):
        op = op_of("traces", kind)
        ref = checks.reference(op)
        out = make_runner(op)()
        self.assertIsNone(checks.check(op, out, ref))
        checked = max(ref["points"])
        i = out["ns"].index(checked)
        bad = dict(out, values=list(out["values"]))
        bad["values"][i] *= PERTURB
        self.assertIsNotNone(checks.check(op, bad, ref))
        return op, out, ref

    def test_zeta_reference_rejects_point_off_by_1e9(self):
        self.assert_point_perturbation_rejected("est.power_p_0.5.ones")

    def test_fsum_reference_rejects_point_off_by_1e9(self):
        op, out, ref = self.assert_point_perturbation_rejected(
            "est.power_p_-1.powerlaw_alpha_1")
        # without point references, a decrease and a value above the
        # constant are still rejected
        bare = dict(ref, points={})
        self.assertIsNone(checks.check(op, out, bare))
        down = dict(out, values=list(out["values"]))
        down["values"][30] = down["values"][29] * (1 - 1e-9)
        self.assertIsNotNone(checks.check(op, down, bare))
        up = dict(out, values=list(out["values"]))
        up["values"][-1] = float(ref["constant"]) * (1 + 2e-9)
        self.assertIsNotNone(checks.check(op, up, bare))

    def test_probe_sum_off_by_1e9(self):
        op = op_of("traces", "genA.ones")
        ref = checks.reference(op)
        out = make_runner(op)()
        self.assertIsNone(checks.check(op, out, ref))
        self.assertIsNotNone(checks.check(
            op, {"value": out["value"] * PERTURB}, ref))


class FuzzCheck(unittest.TestCase):
    def test_rejects_mismatched_ratio(self):
        for kind in ("gini_p_0.5_q_-0.5.geometric_a_2",
                     "devmean_f_pow_0.5.powerlaw_alpha_1"):
            op = op_of("fuzz", kind)
            ref = checks.reference(op)
            out = make_runner(op)()
            self.assertIsNone(checks.check(op, out, ref), kind)
            self.assertIsNotNone(checks.check(
                op, dict(out, max_ratio=out["max_ratio"] * PERTURB), ref),
                kind)
            other = (out["trial"] + 1) % op["trials"]
            self.assertIsNotNone(checks.check(
                op, dict(out, trial=other), ref), kind)

    def test_direct_ratio_of_a_constant_sequence_is_one(self):
        x = checks.fuzz_trial(7, 3, 50)
        self.assertTrue(1 <= x.size <= 50)
        self.assertTrue(all(1e-3 <= v <= 1e3 for v in x))
        const = [2.5] * 50
        for m in (("power", 0.5), ("power", 0.0), ("gini", 0.5, -0.5)):
            for w in (("ones",), ("geometric", 2.0), ("powerlaw", 1.0)):
                ratio = checks.direct_ratio(m, w, checks.np.array(const))
                self.assertTrue(math.isclose(ratio, 1.0, rel_tol=1e-14),
                                (m, w, ratio))


class FaultCells(unittest.TestCase):
    def assert_only_faults_fail(self, workload, n_faults):
        ops = workloads.build(workload, 0)
        refs = [checks.reference(op) for op in ops]
        loop = run_once(ops)
        attempted, failed, problems = run.check_loop(ops, refs, loop)
        self.assertEqual(problems, [])
        self.assertEqual((attempted, failed), (len(ops), n_faults))
        for op, ref, outs in zip(ops, refs, loop["outputs"]):
            failing = checks.check(op, outs[0], ref) is not None
            self.assertEqual(failing, "fault" in op, op["kind"])

    def test_constants_fault_cells_counted_failed(self):
        self.assert_only_faults_fail("constants", len(workloads.FAULT_CELLS))

    def test_traces_fault_counted_failed(self):
        self.assert_only_faults_fail("traces", len(workloads.TRACE_FAULTS))


if __name__ == "__main__":
    unittest.main()
