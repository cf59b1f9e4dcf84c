"""Release gate: one test per sign-off criterion, one printed line each.

Every test prints ``[accept] <name>: PASS/FAIL (elapsed; margin)`` so a
plain ``pytest -v`` run doubles as the sign-off sheet.  Expected values
are derived independently of the code under test: branch arithmetic is
redone in 40-digit mpmath, sums are taken directly, and the dual-route
checks pit the root solver against the closed forms.

The probe-sum gate accounts for the approach to the limit.  With unit
weights the partial sum at depth n is exactly
n**(p-1) * (zeta(p) - zeta(p, n+1)), whose expansion is
1/(1-p) + zeta(p) n**(p-1) + 1/(2n) + O(n**(p-2)); for p = 1/2 the
zeta term alone is ~4.6e-3 at n = 1e5.  So the unit-weight cells check
the partial sum against that Hurwitz-zeta value at 1e-12 relative, and
the limit against the partial sum less its zeta term at 1e-3.  The
geometric cell approaches like 2**-n and is checked against the bare
limit.
"""
import math
import time

import mpmath as mp
import numpy as np
import pytest

from hardymeans.empirical import (PowerProbe, est_lower_bound, genA_limit,
                                  genA_partial, verify_inequality)
from hardymeans.errors import DomainError, ViolationFound
from hardymeans.generators import (dev_gini, dev_power, difference_kernel,
                                   log_gen, power_gap_kernel, ratio_kernel,
                                   scaled_ratio_kernel)
from hardymeans.hardy import (C_of, F_eval, gini_constant, power_constant,
                              solve_cef)
from hardymeans.homogenize import h_of_kernel, homogenize, normalize_kernel
from hardymeans.means import (Deviation, Gini, HomogeneousDeviation, Power,
                              QuasiArithmetic)
from hardymeans.quadrature import tanh_sinh
from hardymeans.rootfind import bracketed_root
from hardymeans.weights import WeightSequence

ONES = WeightSequence.ones()
GEO2 = WeightSequence.geometric(2.0)

ETA_GRID = [k / 10 for k in range(10)]


def _report(name, failures, t0, budget=None, note=""):
    elapsed = time.monotonic() - t0
    if budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {budget:g}s budget")
    verdict = "PASS" if not failures else "FAIL"
    tail = f"; {note}" if note and not failures else ""
    if failures:
        tail = " — " + "; ".join(failures[:4])
    print(f"[accept] {name}: {verdict} ({elapsed:.2f}s{tail})")
    assert not failures, f"{name}: " + "; ".join(failures)


# -- 1. closed-form table --------------------------------------------------


def _table_value(p, eta):
    # the four branches recomputed at 40 digits, no expm1/log1p routing
    with mp.workdps(40):
        pp, ee = mp.mpf(p), mp.mpf(eta)
        if eta == 0.0:
            v = mp.e if p == 0.0 else (1 - pp) ** (-1 / pp)
        elif p == 0.0:
            v = (1 - ee) ** (1 - 1 / ee)
        else:
            v = (ee / (1 - (1 - ee) ** (1 - pp))) ** (1 / pp)
        return float(v)


def test_closed_form_table():
    t0 = time.monotonic()
    failures = []
    worst = 0.0
    for p in (-math.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 0.9, 1.0):
        if p == -math.inf or p >= 1.0:
            want = 1.0 if p == -math.inf else math.inf
            if power_constant(p, 0.0) != want:
                failures.append(f"power_constant({p:g}, 0) != {want:g}")
            for eta in ETA_GRID:
                try:
                    C_of(p, eta)
                    failures.append(f"C_of({p:g}, {eta:g}) accepted out-of-range order")
                except DomainError:
                    pass
            continue
        for eta in ETA_GRID:
            want = _table_value(p, eta)
            got = C_of(p, eta)
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
            if err > 1e-12:
                failures.append(f"C_of({p:g}, {eta:g}) = {got!r}, want {want!r}")
        err = abs(power_constant(p, 0.0) - _table_value(p, 0.0))
        worst = max(worst, err)
        if err > 1e-12:
            failures.append(f"power_constant({p:g}, 0) off by {err:.1e}")
    for got, want in ((C_of(0.5, 0.0), 4.0), (C_of(0.0, 0.5), 2.0),
                      (C_of(0.0, 0.0), math.e)):
        if abs(got - want) > 1e-12 * want:
            failures.append(f"anchor value {got!r} != {want!r}")
    _report("closed-form table", failures, t0, budget=1.0,
            note=f"worst rel err {worst:.1e}")


# -- 2. root solver against the closed forms -------------------------------


def test_root_solver_matches_closed_forms():
    t0 = time.monotonic()
    failures = []
    worst = 0.0
    for p in (-2.0, -1.0, -0.5, -0.1, 0.0, 0.3, 0.5, 0.9):
        for eta in ETA_GRID:
            diff = abs(solve_cef(dev_power(p), eta).value - C_of(p, eta))
            worst = max(worst, diff)
            if diff > 1e-8:
                failures.append(f"power p={p:g} eta={eta:g}: |diff|={diff:.2e}")
    for p, q in ((-1.0, 0.5), (-0.5, 0.5), (-2.0, 0.9), (-0.5, 0.0)):
        for eta in (0.0, 0.3, 0.5, 0.8):
            diff = abs(solve_cef(dev_gini(p, q), eta).value
                       - gini_constant(p, q, eta))
            worst = max(worst, diff)
            if diff > 1e-8:
                failures.append(f"gini ({p:g},{q:g}) eta={eta:g}: |diff|={diff:.2e}")
    _report("root solver vs closed forms", failures, t0, budget=10.0,
            note=f"96 solves, worst |diff| {worst:.1e}")


# -- 3. sharpness witnesses at finite depth --------------------------------


def test_witness_tails_approach_constants():
    t0 = time.monotonic()
    failures = []
    notes = []
    cases = [
        (Power(0.5), ONES, 10 ** 6, 4.0, 0.01),
        (Power(0.0), GEO2, 300, 2.0, 0.001),
        (Gini(0.5, -0.5), ONES, 10 ** 6, 3.0, 0.02),
    ]
    for spec, w, N, target, rel in cases:
        tail = est_lower_bound(spec, w, 1.0, N).tail_inf()
        gap = abs(tail - target) / target
        notes.append(f"{target:g}:{gap:.1%}")
        if gap > rel:
            failures.append(
                f"N={N:g} tail {tail:.6f} misses {target:g} by {gap:.2%} > {rel:.1%}")
    _report("sharpness witnesses", failures, t0, budget=60.0,
            note="gaps " + " ".join(notes))


# -- 4. inequality fuzzing --------------------------------------------------


def test_fuzzed_inequality_has_no_violations():
    t0 = time.monotonic()
    failures = []
    cases = [
        (Power(0.5), ONES, 4.0),
        (Power(0.0), ONES, math.e),
        (Gini(0.5, -0.5), GEO2, gini_constant(0.5, -0.5, GEO2.eta())),
        (HomogeneousDeviation(log_gen()), GEO2, 2.0),
    ]
    worst = 0.0
    for spec, w, constant in cases:
        try:
            rep = verify_inequality(spec, w, constant, trials=200, seed=0, N=50)
        except ViolationFound as exc:
            failures.append(f"{spec!r}: trial {exc.trial} ratio {exc.ratio:.6f}")
            continue
        worst = max(worst, rep.max_ratio / constant)
        if not rep.passed:
            failures.append(f"{spec!r}: report not marked passed")
    _report("inequality fuzzing", failures, t0, budget=30.0,
            note=f"800 trials, max ratio/constant {worst:.6f}")


# -- 5. probe-sum convergence ----------------------------------------------


def _unit_probe_sum(p, n):
    # sum_{k<=n} (1/n) (k/n)**-p = n**(p-1) (zeta(p) - zeta(p, n+1)) at 40
    # digits, and its approach term zeta(p) n**(p-1)
    with mp.workdps(40):
        pp, nn = mp.mpf(p), mp.mpf(n)
        scale = nn ** (pp - 1)
        return (float(scale * (mp.zeta(pp) - mp.zeta(pp, n + 1))),
                float(scale * mp.zeta(pp)))


def test_probe_sums_near_limits():
    t0 = time.monotonic()
    failures = []
    diffs = []
    n = 10 ** 5
    for p, w in ((-1.0, ONES), (0.0, ONES), (0.5, ONES), (0.5, GEO2)):
        cell = f"(p={p:g}, {w.spec_text()})"
        partial = genA_partial(PowerProbe(p), w, n)
        approach = 0.0  # geometric weights: the gap decays like 2**-n
        if w is ONES:
            exact, approach = _unit_probe_sum(p, n)
            rel = abs(partial - exact) / abs(exact)
            if rel > 1e-12:
                failures.append(
                    f"{cell}: partial {partial!r} vs Hurwitz-zeta value "
                    f"{exact!r}, rel err {rel:.1e} > 1e-12")
        diff = abs(partial - genA_limit(p, w.eta()) - approach)
        diffs.append(f"{cell}:{diff:.1e}")
        if diff > 1e-3:
            failures.append(
                f"{cell}: |partial - limit - approach| = {diff:.2e} > 1e-3 "
                f"(approach {approach:.2e}); the unit-weight sum is "
                "1/(1-p) + zeta(p) n^(p-1) + 1/(2n) + O(n^(p-2))")
    _report("probe-sum convergence", failures, t0, budget=10.0,
            note=" ".join(diffs))


# -- 6. series evaluator analytics ------------------------------------------


def test_series_root_and_integral_bounds():
    t0 = time.monotonic()
    failures = []
    root = bracketed_root(
        lambda xx: F_eval(log_gen(), xx, 0.5, tol=1e-13).partial,
        0.3, 0.7, xtol=1e-12).root
    if abs(root - 0.5) > 1e-10:
        failures.append(f"series root {root!r} not within 1e-10 of 0.5")
    rng = np.random.default_rng(6)
    pairs = [(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.1, 0.9)))
             for _ in range(20)]
    for f in (log_gen(), dev_power(0.5)):
        for x, q in pairs:
            se = F_eval(f, x, q, tol=1e-12)
            lower = q / (1.0 - q) * tanh_sinh(
                lambda t: f.fn(x / t), 0.0, 1.0 / q, tol=1e-11).value
            upper = 1.0 / (1.0 - q) * tanh_sinh(
                lambda t: f.fn(x / t), 0.0, 1.0, tol=1e-11).value
            slack = se.tail_bound + 1e-9
            if not (lower - slack <= se.partial <= upper + slack):
                failures.append(
                    f"{f.family} x={x:.3f} q={q:.3f}: "
                    f"{lower:.6f} <= {se.partial:.6f} <= {upper:.6f} fails")
    _report("series root and envelope", failures, t0,
            note=f"root err {abs(root - 0.5):.1e}, 40 envelope cells")


# -- 7. quasideviation layer reproduces the classical means -----------------


def test_quasideviation_reproduces_classical_means():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(7)
    worst_mean, worst_ident = 0.0, 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        x = 10.0 ** rng.uniform(-3.0, 3.0, n)
        lam = 10.0 ** rng.uniform(-2.0, 1.0, n)
        p = float(rng.uniform(-2.0, 0.9))
        gp = float(rng.uniform(0.05, 0.9))
        gq = float(rng.uniform(-2.0, -0.05))

        want = Power(p).evaluate(x, lam)
        got = Deviation(ratio_kernel(dev_power(p))).evaluate(x, lam)
        err = abs(got - want) / abs(want)
        worst_mean = max(worst_mean, err)
        if err > 1e-10:
            failures.append(f"trial {trial}: power p={p:.3f} rel err {err:.1e}")

        want = Gini(gp, gq).evaluate(x, lam)
        got = Deviation(ratio_kernel(dev_gini(gp, gq))).evaluate(x, lam)
        err = abs(got - want) / abs(want)
        worst_mean = max(worst_mean, err)
        if err > 1e-10:
            failures.append(
                f"trial {trial}: gini ({gp:.3f},{gq:.3f}) rel err {err:.1e}")

        # G_{p,q}^{p-q} = P_p^p / P_q^q
        lhs = Gini(gp, gq).evaluate(x, lam) ** (gp - gq)
        rhs = (Power(gp).evaluate(x, lam) ** gp
               / Power(gq).evaluate(x, lam) ** gq)
        err = abs(lhs - rhs) / abs(rhs)
        worst_ident = max(worst_ident, err)
        if err > 1e-12:
            failures.append(f"trial {trial}: factorization rel err {err:.1e}")
        if len(failures) > 8:
            break
    _report("quasideviation vs classical means", failures, t0,
            note=f"worst rel err {worst_mean:.1e}, identity {worst_ident:.1e}")


# -- 8. homogenization ------------------------------------------------------


def test_homogenization_layer():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(8)
    homogeneous = [Power(0.5), Power(0.0), Power(-1.0), Gini(0.5, -0.5),
                   QuasiArithmetic(log_gen()),
                   HomogeneousDeviation(dev_power(0.5))]
    for spec in homogeneous:
        for _ in range(5):
            n = int(rng.integers(2, 8))
            x = 10.0 ** rng.uniform(-1.0, 1.0, n)
            lam = 10.0 ** rng.uniform(-1.0, 1.0, n)
            m = spec.evaluate(x, lam)
            est = homogenize(spec, x, lam)
            if not est.converged or abs(est.value - m) > 1e-8:
                failures.append(
                    f"{spec!r}: homogenize {est.value!r} vs mean {m!r}")

    kernels = [difference_kernel(), power_gap_kernel(2.0),
               power_gap_kernel(0.5), ratio_kernel(log_gen()),
               scaled_ratio_kernel(dev_power(0.5))]
    stars = []
    for kern in kernels:
        star = normalize_kernel(kern)
        stars.append(star)
        twice = normalize_kernel(star)
        for xx in (0.3, 1.0, 3.0):
            for yy in (0.5, 2.0):
                a = float(star.fn(np.array([xx]), yy)[0])
                b = float(twice.fn(np.array([xx]), yy)[0])
                if abs(a - b) > 1e-8 * max(1.0, abs(a), yy):
                    failures.append(
                        f"{kern.label}: normalize not idempotent at "
                        f"({xx:g},{yy:g}): {a!r} vs {b!r}")
    for kern, star in zip(kernels, stars):
        for xx in (0.25, 0.5):
            if not h_of_kernel(star, xx) < 0.0:
                failures.append(f"{kern.label}: h({xx:g}) not negative")
        if abs(h_of_kernel(star, 1.0)) > 1e-10:
            failures.append(f"{kern.label}: h(1) not ~0")
        for xx in (2.0, 4.0):
            if not h_of_kernel(star, xx) > 0.0:
                failures.append(f"{kern.label}: h({xx:g}) not positive")
    _report("homogenization layer", failures, t0,
            note="6 families, 5 kernels")


# -- 9. structural invariants -----------------------------------------------


def _draw_spec(rng, monotone_only=False):
    kinds = 4 if monotone_only else 5
    kind = int(rng.integers(0, kinds))
    if kind == 0:
        return Power(float(rng.uniform(-3.0, 3.0)))
    if kind == 1:
        return Gini(float(rng.uniform(0.0, 0.9)), float(rng.uniform(-2.0, 0.0)))
    if kind == 2:
        return QuasiArithmetic(log_gen())
    if kind == 3:
        return HomogeneousDeviation(dev_power(float(rng.uniform(-2.0, 1.0))))
    return Deviation(difference_kernel())


def test_structural_invariants():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(9)

    for trial in range(1000):  # internality
        spec = _draw_spec(rng)
        n = int(rng.integers(1, 9))
        x = 10.0 ** rng.uniform(-2.0, 2.0, n)
        lam = 10.0 ** rng.uniform(-2.0, 1.0, n)
        m = spec.evaluate(x, lam)
        lo, hi = float(x.min()), float(x.max())
        if not (lo * (1 - 1e-12) <= m <= hi * (1 + 1e-12)):
            failures.append(f"internality trial {trial}: {m!r} not in [{lo!r}, {hi!r}]")
            break

    for trial in range(1000):  # weight scale invariance
        spec = _draw_spec(rng)
        n = int(rng.integers(1, 9))
        x = 10.0 ** rng.uniform(-2.0, 2.0, n)
        lam = 10.0 ** rng.uniform(-2.0, 1.0, n)
        c = 10.0 ** float(rng.uniform(-2.0, 2.0))
        a, b = spec.evaluate(x, lam), spec.evaluate(x, c * lam)
        if abs(a - b) > 1e-10 * max(1.0, abs(a)):
            failures.append(f"weight-scale trial {trial}: {a!r} vs {b!r}")
            break

    for trial in range(1000):  # symmetry
        spec = _draw_spec(rng)
        n = int(rng.integers(2, 9))
        x = 10.0 ** rng.uniform(-2.0, 2.0, n)
        lam = 10.0 ** rng.uniform(-2.0, 1.0, n)
        perm = rng.permutation(n)
        a, b = spec.evaluate(x, lam), spec.evaluate(x[perm], lam[perm])
        if abs(a - b) > 1e-10 * max(1.0, abs(a)):
            failures.append(f"symmetry trial {trial}: {a!r} vs {b!r}")
            break

    for trial in range(1000):  # monotonicity in each sample
        spec = _draw_spec(rng, monotone_only=True)
        assert spec.symmetric_monotone
        n = int(rng.integers(2, 9))
        x = 10.0 ** rng.uniform(-2.0, 2.0, n)
        lam = 10.0 ** rng.uniform(-2.0, 1.0, n)
        x2 = x.copy()
        j = int(rng.integers(n))
        x2[j] *= 1.0 + float(rng.uniform(0.01, 1.0))
        a, b = spec.evaluate(x, lam), spec.evaluate(x2, lam)
        if b < a * (1 - 1e-10):
            failures.append(f"monotonicity trial {trial}: {a!r} -> {b!r}")
            break

    _report("structural invariants", failures, t0, note="4 x 1000 trials")
