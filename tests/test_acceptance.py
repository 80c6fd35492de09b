"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 1 asserts the documented short-time scaling targets for
all four probe classes; the squeezed-vacuum target is asserted as stated
even though exact number-resolved dynamics is known to disagree there (its
empty odd levels fill at a rate proportional to t, which makes the
information growth linear rather than quadratic at these times - see the
README physics notes). The printed report carries the measured value.

Criteria 2, 3, 4, 7 and 9 report from the session's one run of the
``validate`` registry (``fockthermo.selfcheck``): each of 2, 3, 4 and 9 is
one registered check, which holds that criterion's inputs and tolerances.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from oracle import apply, propagator

from fockthermo.bath import BathParams, rates
from fockthermo.dynamics import evolve
from fockthermo.fisher import FisherMethod, qfi_curve, qfi_point
from fockthermo.probes import ProbeKind, ProbeSpec, make_state
from fockthermo.sweep import fit_scaling_exponent

BATH = BathParams()  # omega=1, T=0.5, gamma=0.1, g=0.05, markovian
ASINH_1 = 0.881373587019543

# The registry check each of these criteria reports.
CRITERION_CHECKS = {
    "2": ("bounds", "short_time_ratio"),
    "3": ("dynamics", "short_time_consistency"),
    "4": ("fisher", "cfi_equals_qfi_diagonal"),
    "9": ("sweep", "determinism"),
}


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


def report_check(criterion: str, title: str, selfcheck_run) -> None:
    """Report and assert the criterion's registry check from the session's run."""
    results, _ = selfcheck_run
    (result,) = [r for r in results if (r.group, r.name) == CRITERION_CHECKS[criterion]]
    report(f"{criterion} ({title})", result.passed, f"{result.group}.{result.name}: {result.detail}")
    assert result.passed, result.detail


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

def test_criterion_2_linear_bound_agreement(selfcheck_run):
    report_check("2", "linear-law agreement 1%/5%", selfcheck_run)


# --------------------------------------------------------------------------
# Criterion 3: first-order populations from the exact propagator
# --------------------------------------------------------------------------

def test_criterion_3_short_time_populations(selfcheck_run):
    report_check("3", "first-order populations", selfcheck_run)


# --------------------------------------------------------------------------
# Criterion 4: quantum value reduces to the number-basis value
# --------------------------------------------------------------------------

def test_criterion_4_qfi_reduces_to_cfi(selfcheck_run):
    report_check("4", "QFI = CFI for diagonal probes", selfcheck_run)


# --------------------------------------------------------------------------
# Criterion 5: excitation ordering at t = 0.5
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def excitation_table():
    t = 0.5
    table = {}
    for n in range(1, 6):
        table[n] = tuple(
            qfi_point(ProbeSpec.matched(kind, n), BATH, t, FisherMethod.QFI_SLD).value
            for kind in (ProbeKind.FOCK, ProbeKind.COHERENT, ProbeKind.SQUEEZED)
        )
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

def test_criterion_9_sweep_determinism(selfcheck_run):
    report_check("9", "worker-count determinism", selfcheck_run)
