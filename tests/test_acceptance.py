"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 1 asserts the documented short-time scaling targets for
all four probe classes; the squeezed-vacuum target is asserted as stated
even though exact number-resolved dynamics is known to disagree there (its
empty odd levels fill at a rate proportional to t, which makes the
information growth linear rather than quadratic at these times - see the
README physics notes). The printed report carries the measured value.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from oracle import apply, propagator

from fockthermo.bath import BathParams, rates
from fockthermo.bounds import bound_fock_linear
from fockthermo.dynamics import evolve, short_time_populations
from fockthermo.fisher import FisherMethod, qfi_curve, qfi_point
from fockthermo.probes import ProbeSpec, energy_match, make_state
from fockthermo.sweep import (
    SweepAxis,
    SweepMethod,
    SweepSpec,
    fit_scaling_exponent,
    run_sweep,
)

BATH = BathParams()  # omega=1, T=0.5, gamma=0.1, g=0.05, markovian
RATES = rates(BATH)
ASINH_1 = 0.881373587019543


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# Criterion 1: short-time scaling exponents, Gamma0 t in [1e-4, 1e-2]
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scaling_curves():
    ts = np.logspace(-3, -1, 9)  # Gamma0 = 0.1
    started = time.monotonic()
    slopes = {}
    for label, probe, dim in (
        ("fock1", ProbeSpec.fock(1), 40),
        ("fock3", ProbeSpec.fock(3), 40),
        ("coherent1", ProbeSpec.coherent(1.0), 40),
        # dim=40 cannot hold the squeezed tail within the leakage budget;
        # the auto-chosen dimension (68) is the smallest compliant one
        ("squeezed1", ProbeSpec.squeezed(ASINH_1), None),
    ):
        records = qfi_curve(probe, BATH, ts, FisherMethod.CFI_NUMBER, dim=dim)
        fit = fit_scaling_exponent(ts, [r.value for r in records])
        slopes[label] = fit
    elapsed = time.monotonic() - started
    return slopes, elapsed


def test_criterion_1a_fock_and_coherent_slopes(scaling_curves):
    slopes, elapsed = scaling_curves
    detail = (
        f"slopes fock1={slopes['fock1'].slope:.3f} fock3={slopes['fock3'].slope:.3f} "
        f"coherent1={slopes['coherent1'].slope:.3f} (targets 1.00, 1.00, 2.00 +/- 0.05); "
        f"all four curves in {elapsed:.1f} s (budget 60 s)"
    )
    ok = (
        abs(slopes["fock1"].slope - 1.0) <= 0.05
        and abs(slopes["fock3"].slope - 1.0) <= 0.05
        and abs(slopes["coherent1"].slope - 2.0) <= 0.05
        and elapsed <= 60.0
    )
    report("1a (fock/coherent scaling + runtime)", ok, detail)
    assert abs(slopes["fock1"].slope - 1.0) <= 0.05, detail
    assert abs(slopes["fock3"].slope - 1.0) <= 0.05, detail
    assert abs(slopes["coherent1"].slope - 2.0) <= 0.05, detail
    assert elapsed <= 60.0, detail


def test_criterion_1b_squeezed_slope(scaling_curves):
    slopes, _ = scaling_curves
    measured = slopes["squeezed1"].slope
    ok = abs(measured - 2.0) <= 0.05
    detail = (
        f"squeezed1 slope={measured:.3f} vs target 2.00 +/- 0.05 "
        f"(r^2={slopes['squeezed1'].r_squared:.4f}). Exact dynamics fills the "
        f"initially empty odd levels at rate ~ t, so the measured growth is "
        f"linear in this window; see README physics notes."
    )
    report("1b (squeezed scaling)", ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# Criterion 2: simulated CFI against the linear closed form
# --------------------------------------------------------------------------

def test_criterion_2_linear_bound_agreement():
    rows = []
    ok = True
    for g0t, tol in ((1e-4, 0.01), (1e-3, 0.05)):
        t = g0t / RATES.gamma0
        for n in (0, 1, 2, 3):
            cfi = qfi_point(ProbeSpec.fock(n), BATH, t, FisherMethod.CFI_NUMBER).value
            ratio = cfi / bound_fock_linear(n, BATH, t)
            ok = ok and abs(ratio - 1.0) <= tol
            rows.append(f"n={n}@{g0t:g}:{ratio:.4f}")
    report("2 (linear-law agreement 1%/5%)", ok, " ".join(rows))
    assert ok, rows


# --------------------------------------------------------------------------
# Criterion 3: first-order populations from the exact propagator
# --------------------------------------------------------------------------

def test_criterion_3_short_time_populations():
    t = 1e-3 / RATES.gamma0
    rho = make_state(ProbeSpec.fock(1), 40)
    p = evolve(rho, RATES, t).populations
    pred = short_time_populations(1, RATES, t)
    band = 10.0 * RATES.gamma0 * t
    below = p[0] / pred.p_below
    above = p[2] / pred.p_above
    ok = abs(below - 1.0) <= band and abs(above - 1.0) <= band
    report(
        "3 (first-order populations)",
        ok,
        f"p(n-1) ratio {below:.5f}, p(n+1) ratio {above:.5f}, band +/-{band:g}",
    )
    assert ok


# --------------------------------------------------------------------------
# Criterion 4: quantum value reduces to the number-basis value
# --------------------------------------------------------------------------

def test_criterion_4_qfi_reduces_to_cfi():
    rng = np.random.default_rng(20260808)
    probes = [ProbeSpec.fock(1), ProbeSpec.fock(2), ProbeSpec.thermal(0.5),
              ProbeSpec.thermal(1.2)]
    worst = 0.0
    for i in range(10):
        T = float(rng.uniform(0.3, 1.2))
        t = float(rng.uniform(0.1, 0.5))
        probe = probes[i % len(probes)]
        bath = BATH.with_temperature(T)
        c = qfi_point(probe, bath, t, FisherMethod.CFI_NUMBER).value
        q = qfi_point(probe, bath, t, FisherMethod.QFI_SLD).value
        worst = max(worst, abs(q - c) / c)
    ok = worst <= 1e-8
    report("4 (QFI = CFI for diagonal probes)", ok, f"worst relative gap {worst:.2e} over 10 points")
    assert ok


# --------------------------------------------------------------------------
# Criterion 5: excitation ordering at t = 0.5
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def excitation_table():
    t = 0.5
    table = {}
    for n in range(1, 6):
        match = energy_match(float(n))
        fock = qfi_point(ProbeSpec.fock(n), BATH, t, FisherMethod.QFI_SLD).value
        coh = qfi_point(ProbeSpec.coherent(match.alpha_mod), BATH, t, FisherMethod.QFI_SLD).value
        sq = qfi_point(ProbeSpec.squeezed(match.r), BATH, t, FisherMethod.QFI_SLD).value
        table[n] = (fock, coh, sq)
    return table


def test_criterion_5_excitation_ordering(excitation_table):
    lines = ["n  fock        coherent    squeezed"]
    for n, (fock, coh, sq) in excitation_table.items():
        lines.append(f"{n}  {fock:.6f}  {coh:.6f}  {sq:.6f}")
    focks = [row[0] for row in excitation_table.values()]
    cohs = [row[1] for row in excitation_table.values()]
    increasing = all(b > a for a, b in zip(focks, focks[1:]))
    beats_coherent = all(f > c for f, c in zip(focks, cohs))
    ok = increasing and beats_coherent
    # the squeezed column is recorded and reported, not asserted: the
    # quadratic closed form for it disagrees with exact dynamics here
    report(
        "5 (excitation ordering at t=0.5)",
        ok,
        f"fock increasing: {increasing}, fock > coherent at each n: {beats_coherent}\n"
        + "\n".join(lines),
    )
    assert increasing
    assert beats_coherent


# --------------------------------------------------------------------------
# Criterion 6: temperature response is unimodal
# --------------------------------------------------------------------------

def test_criterion_6_temperature_unimodal():
    Ts = np.geomspace(0.05, 5.0, 33)
    vals = [
        qfi_point(ProbeSpec.fock(2), BATH.with_temperature(float(T)), 0.5,
                  FisherMethod.CFI_NUMBER).value
        for T in Ts
    ]
    signs = np.sign(np.diff(vals))
    runs = 1 + int(np.sum(signs[1:] != signs[:-1]))
    rising_then_falling = runs == 2 and signs[0] > 0 and signs[-1] < 0
    peak_T = Ts[int(np.argmax(vals))]
    report(
        "6 (single interior maximum vs T)",
        rising_then_falling,
        f"{runs} monotone runs over T in [0.05, 5], peak near T={peak_T:.3f}",
    )
    assert rising_then_falling


# --------------------------------------------------------------------------
# Criterion 7: physics invariant suite at stated tolerances
# --------------------------------------------------------------------------

def test_criterion_7_invariant_suite(selfcheck_run):
    # the registry behind ``validate``, from the run the per-check tests share
    results, elapsed = selfcheck_run
    failures = [f"{r.group}.{r.name}: {r.detail}" for r in results if not r.passed]
    ok = not failures and elapsed <= 120.0
    report(
        "7 (physics invariant suite)",
        ok,
        f"{len(results)} registered checks in {elapsed:.1f} s (budget 120 s); "
        + ("; ".join(failures) or "all invariants hold"),
    )
    assert not failures, failures
    assert elapsed <= 120.0


# --------------------------------------------------------------------------
# Criterion 8: propagator versus the full-Liouvillian oracle
# --------------------------------------------------------------------------

def test_criterion_8_oracle_equivalence():
    # dim 24 keeps the dim^2 x dim^2 oracle exponential cheap and still
    # resolves each probe within the construction and leakage budgets
    probes = (ProbeSpec.fock(1), ProbeSpec.thermal(0.5), ProbeSpec.coherent(1.0),
              ProbeSpec.squeezed(0.5))
    worst = 0.0
    for T in (0.3, 0.5, 1.0):
        r = rates(BATH.with_temperature(T))
        for t in (0.1, 0.5, 1.0):
            prop = propagator(24, r, t)
            for spec in probes:
                rho = make_state(spec, 24)
                gap = evolve(rho, r, t).matrix() - apply(prop, rho.matrix())
                worst = max(worst, float(np.max(np.abs(gap))))
    ok = worst <= 1e-8
    report("8 (propagator vs Liouvillian oracle)", ok,
           f"worst sup-norm gap {worst:.2e} over 3x3 grid, 4 probe classes")
    assert ok


# --------------------------------------------------------------------------
# Criterion 9: sweep determinism across worker counts
# --------------------------------------------------------------------------

def test_criterion_9_sweep_determinism():
    spec = SweepSpec(
        axis=SweepAxis.TIME,
        axis_values=(0.02, 0.05, 0.1, 0.2),
        probes=(ProbeSpec.fock(1), ProbeSpec.coherent(1.0)),
        methods=(SweepMethod.CFI, SweepMethod.BOUND_FOCK_LINEAR, SweepMethod.BOUND_COHERENT),
        bath=BATH,
    )
    body1 = run_sweep(spec, workers=1).csv_body()
    body4 = run_sweep(spec, workers=4).csv_body()
    ok = body1 == body4
    report("9 (worker-count determinism)", ok, f"CSV bodies identical: {ok} ({len(body1)} bytes)")
    assert ok
