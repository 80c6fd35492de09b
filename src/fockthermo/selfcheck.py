"""Self-contained invariant suite behind the ``validate`` subcommand.

Each check exercises one documented invariant at reduced scale so the whole
battery stays fast. This registry is the one statement of these invariants:
``validate`` reports on it by module group, and pytest runs the same
registry once, with one test case per check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bath import BathParams, rates, thermal_occupation, thermal_occupation_dT
from .bounds import bound_coherent, bound_fock_linear, bound_fock_quadratic, bound_squeezed
from .dynamics import evolve, mean_photon_analytic, short_time_populations
from .errors import FockThermoError
from .fisher import FisherMethod, d_dT_state, qfi_point, stencil_curve
from .fockspace import LEAKAGE_BUDGET
from .probes import ProbeKind, ProbeSpec, default_dim, make_state
from .sweep import SweepAxis, SweepMethod, SweepSpec, fit_scaling_exponent, run_sweep

FIG_BATH = BathParams()  # omega=1, T=0.5, gamma=0.1, g=0.05, markovian
# sinh^2(r) = 1: the squeezed vacuum with one photon on average
SQUEEZED_ONE = ProbeSpec.squeezed(math.asinh(1.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    group: str
    passed: bool
    detail: str


_REGISTRY: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = []


def _register(group: str, name: str):
    def wrap(fn):
        _REGISTRY.append((group, name, fn))
        return fn

    return wrap


def _within(pairs: list[tuple[float, float]]) -> tuple[bool, float]:
    """Whether every (defect, tolerance) pair is inside, and the largest defect."""
    return all(defect < tol for defect, tol in pairs), max(defect for defect, _ in pairs)


# --------------------------------------------------------------------------
# bath
# --------------------------------------------------------------------------

@_register("bath", "detailed_balance")
def _check_detailed_balance() -> tuple[bool, str]:
    worst = 0.0
    for x in np.logspace(-2, 2, 25):
        bath = BathParams(omega=1.0, T=1.0 / x)
        r = rates(bath)
        worst = max(worst, abs(r.gamma_plus / r.gamma_minus - math.exp(-x)) / math.exp(-x))
    return worst < 1e-12, f"max relative balance defect {worst:.1e}"


@_register("bath", "rate_gap_identity")
def _check_rate_gap() -> tuple[bool, str]:
    worst = 0.0  # in units of one ulp of gamma_minus
    for T in (0.05, 0.5, 3.0, 5.0, 50.0):
        r = rates(BathParams(T=T))
        defect = abs(r.gamma_minus - r.gamma_plus - r.gamma0)
        worst = max(worst, defect / np.spacing(r.gamma_minus))
    ref = rates(FIG_BATH)  # where the difference rounds to Gamma0 exactly
    exact = ref.gamma_minus - ref.gamma_plus == ref.gamma0
    return worst <= 1.0 and exact, f"max |(G- - G+) - G0| = {worst:.2f} ulp, 0 at T=0.5: {exact}"


@_register("bath", "occupation_derivative_positive")
def _check_derivative_positive() -> tuple[bool, str]:
    vals = [thermal_occupation_dT(1.0, T) for T in np.logspace(-2, 2, 25)]
    return all(v > 0.0 for v in vals), f"min derivative {min(vals):.3e}"


@_register("bath", "derivative_vs_finite_difference")
def _check_derivative_fd() -> tuple[bool, str]:
    # (T, step, tolerance): a log grid at h = 1e-6 T, and the reference T at h = 1e-6
    cases = [(T, 1e-6 * T, 1e-7) for T in np.logspace(-1, 1, 9)] + [(0.5, 1e-6, 1e-8)]
    ok, worst = _within([(abs((thermal_occupation(1.0, T + h) - thermal_occupation(1.0, T - h))
                              / (2 * h) / thermal_occupation_dT(1.0, T) - 1.0), tol)
                         for T, h, tol in cases])
    return ok, f"max relative FD mismatch {worst:.1e}"


# --------------------------------------------------------------------------
# probes
# --------------------------------------------------------------------------

@_register("probes", "states_validate")
def _check_states_validate() -> tuple[bool, str]:
    # nonnegative populations, unit trace within 1e-9 and the top level
    # within the leakage budget, at the automatic dim
    trace, low, top = 0.0, math.inf, 0.0
    for spec in (ProbeSpec.fock(2), ProbeSpec.fock(3), ProbeSpec.coherent(1.0),
                 ProbeSpec.coherent(1.0 + 0.5j), ProbeSpec.squeezed(0.6), ProbeSpec.squeezed(0.8),
                 ProbeSpec.squeezed(0.8814), ProbeSpec.thermal(0.5), ProbeSpec.thermal(1.0)):
        p = make_state(spec, default_dim(spec)).populations
        trace = max(trace, abs(float(p.sum()) - 1.0))
        low = min(low, float(p.min()))
        top = max(top, float(p[-1]))
    ok = trace <= 1e-9 and low >= 0.0 and top <= LEAKAGE_BUDGET
    return ok, (f"max |tr - 1| {trace:.1e}, smallest population {low:.1e}, "
                f"max top-level population {top:.1e}")


@_register("probes", "squeezed_odd_levels")
def _check_squeezed_parity() -> tuple[bool, str]:
    states = [make_state(ProbeSpec.squeezed(r), dim) for r, dim in ((0.7, 50), (0.8814, 60))]
    odd = max(float(np.max(s.populations[1::2])) for s in states)
    return odd == 0.0, f"max odd-level population {odd:.1e}"


@_register("probes", "thermal_geometric")
def _check_thermal_geometric() -> tuple[bool, str]:
    nbar = 0.5
    p = make_state(ProbeSpec.thermal(nbar), 40).populations
    ratio = nbar / (nbar + 1.0)
    rel = np.abs(p[1:25] / p[:24] - ratio) / ratio
    worst = float(np.max(rel))
    return worst < 1e-12, f"max geometric-ratio defect {worst:.1e}"


# --------------------------------------------------------------------------
# dynamics
# --------------------------------------------------------------------------

@_register("dynamics", "trace_preservation")
def _check_trace() -> tuple[bool, str]:
    # Fock, coherent and squeezed probes at their automatic dim after t = 0.5,
    # coherent after t = 1 and squeezed after t = 0.5 at a fixed dim, and |3>
    # at dim 20 after t = 2
    r = rates(FIG_BATH)
    noise = mean_photon_analytic(0.0, r, 0.5)  # the thermal noise added by t = 0.5
    cases = [(spec, default_dim(spec, noise), 0.5)
             for spec in (ProbeSpec.fock(1), ProbeSpec.coherent(1.0), SQUEEZED_ONE)]
    cases += [(ProbeSpec.coherent(1.0), 40, 1.0), (ProbeSpec.squeezed(0.6), 50, 0.5)]
    defect = max(abs(float(evolve(make_state(spec, dim), r, t).populations.sum()) - 1.0)
                 for spec, dim, t in cases)
    p = evolve(make_state(ProbeSpec.fock(3), 20), r, 2.0).populations
    ok = defect <= 1e-9 and abs(p.sum() - 1.0) <= 1e-12 and p.min() >= 0.0
    return ok, (f"max |tr - 1| = {defect:.1e}; |3> at dim 20, t=2: |sum p - 1| = "
                f"{abs(p.sum() - 1.0):.1e}, min p {p.min():.1e}")


@_register("dynamics", "thermal_stationarity")
def _check_stationarity() -> tuple[bool, str]:
    nT = thermal_occupation(FIG_BATH.omega, FIG_BATH.T)
    rho = make_state(ProbeSpec.thermal(nT), 40)
    out = evolve(rho, rates(FIG_BATH), 1.0)
    drift = float(np.max(np.abs(out.populations - rho.populations)))
    return drift < 1e-8, f"sup-norm drift over t=1: {drift:.1e}"


@_register("dynamics", "first_moment_law")
def _check_first_moment() -> tuple[bool, str]:
    # (state, t, tolerance): each probe class at its automatic dim, and |1> at dim 40
    r = rates(FIG_BATH)
    noise = mean_photon_analytic(0.0, r, 0.5)  # the thermal noise added by t = 0.5
    cases = [(make_state(spec, default_dim(spec, noise)), 0.5, 1e-7) for spec in (
        ProbeSpec.fock(1), ProbeSpec.coherent(1.0), SQUEEZED_ONE, ProbeSpec.thermal(0.5))]
    cases.append((make_state(ProbeSpec.fock(1), 40), 1.0, 1e-10))
    ok, worst = _within([(abs(evolve(rho, r, t).mean_photon()
                              - mean_photon_analytic(rho.mean_photon(), r, t)), tol)
                         for rho, t, tol in cases])
    return ok, f"max |<n> - analytic| = {worst:.1e}"


@_register("dynamics", "short_time_consistency")
def _check_short_time() -> tuple[bool, str]:
    r = rates(FIG_BATH)
    ok, msgs = True, []
    for g0t, dim in ((1e-4, 30), (1e-3, 40)):  # |1> within 10 Gamma0 t of first order
        t = g0t / r.gamma0
        p = evolve(make_state(ProbeSpec.fock(1), dim), r, t).populations
        pred = short_time_populations(1, r, t)
        band = 10.0 * r.gamma0 * t
        ratios = [p[0] / pred.p_below, p[1] / pred.p_stay, p[2] / pred.p_above]
        ok = ok and all(1.0 - band <= x <= 1.0 + band for x in ratios)
        msgs.append(f"G0t={g0t:g}, dim {dim}: {', '.join(f'{x:.6f}' for x in ratios)}")
    return ok, f"ratios to first order at {'; '.join(msgs)}"


# --------------------------------------------------------------------------
# fisher
# --------------------------------------------------------------------------

@_register("fisher", "cfi_equals_qfi_diagonal")
def _check_cfi_qfi_equal() -> tuple[bool, str]:
    # (probe, bath, t, relative tolerance): two at the reference bath, ten seeded draws
    probes = (ProbeSpec.fock(1), ProbeSpec.fock(2), ProbeSpec.thermal(0.5), ProbeSpec.thermal(1.2))
    rng = np.random.default_rng(20260808)
    cases = [(probes[0], FIG_BATH, 0.2, 1e-10), (probes[2], FIG_BATH, 0.2, 1e-8)] + [
        (probes[i % 4], FIG_BATH.with_temperature(float(rng.uniform(0.3, 1.2))),
         float(rng.uniform(0.1, 0.5)), 1e-8) for i in range(10)]
    ok, worst = _within([(abs(qfi_point(spec, bath, t, FisherMethod.QFI_SLD).value
                              / qfi_point(spec, bath, t, FisherMethod.CFI_NUMBER).value - 1.0), tol)
                         for spec, bath, t, tol in cases])
    return ok, f"max relative gap {worst:.1e} over {len(cases)} points"


@_register("fisher", "qfi_at_least_cfi")
def _check_qfi_dominates() -> tuple[bool, str]:
    # the closed-form Gaussian QFI against the CFI of the propagated populations
    spec = ProbeSpec.coherent(1.0)
    q, c = (qfi_point(spec, FIG_BATH, 0.05, method).value
            for method in (FisherMethod.QFI_SLD, FisherMethod.CFI_NUMBER))
    return q >= c - 1e-9, f"QFI {q:.6e} vs CFI {c:.6e}"


@_register("fisher", "truncation_convergence")
def _check_truncation_convergence() -> tuple[bool, str]:
    worst = 0.0  # a Gaussian QFI reads no dim; the coherent probe's CFI does
    for spec, method in ((ProbeSpec.fock(2), FisherMethod.QFI_SLD),
                         (ProbeSpec.coherent(1.0), FisherMethod.CFI_NUMBER)):
        v40, v60 = (qfi_point(spec, FIG_BATH, 0.5, method, dim=d).value for d in (40, 60))
        worst = max(worst, abs(v60 - v40) / v60)
    return worst <= 1e-6, ("max relative change from dim 40 to 60 of the fock:2 QFI and "
                           f"the coherent:1.0 CFI: {worst:.1e}")


@_register("fisher", "cramer_rao_identity")
def _check_cramer_rao() -> tuple[bool, str]:
    recs = [qfi_point(ProbeSpec.fock(n), FIG_BATH, 0.1, FisherMethod.CFI_NUMBER) for n in (1, 2)]
    products = [rec.delta_t_min**2 * rec.value for rec in recs]
    # 1 / sqrt(F), squared, times F: four roundings, so within 4 ulp of 1
    ok = all(abs(p - 1.0) <= 4.0 * math.ulp(1.0) for p in products)
    return ok, f"deltaT^2 * F = {products!r} for |1>, |2>"


@_register("fisher", "exact_derivative")
def _check_exact_derivative() -> tuple[bool, str]:
    # the channel's exact dp/dT against the five-temperature stencil over
    # evolve, two independent paths, at the same truncation
    worst = 0.0
    for spec in (ProbeSpec.fock(2), ProbeSpec.coherent(1.0)):
        exact = d_dT_state(spec, FIG_BATH, 0.5)
        (stencil,) = stencil_curve(spec, make_state(spec, exact.dim), FIG_BATH, [0.5])
        worst = max(worst, float(np.max(np.abs(exact.dp - stencil.dp)) / np.max(np.abs(exact.dp))))
    return worst <= 1e-7, ("max |channel - stencil| of dp/dT over max |dp/dT|, fock:2 and "
                           f"coherent:1.0 at t = 0.5: {worst:.1e}")


@_register("fisher", "displacement_covariance")
def _check_displacement_covariance() -> tuple[bool, str]:
    # |alpha> relaxes to a displaced thermal state, and Gamma0 does not depend on T:
    # the closed-form QFI of |alpha> against the band-0 QFI of the vacuum
    worst = max(abs(qfi_point(ProbeSpec.coherent(alpha), FIG_BATH, t, FisherMethod.QFI_SLD).value
                    / qfi_point(ProbeSpec.fock(0), FIG_BATH, t, FisherMethod.QFI_SLD).value - 1.0)
                for t in (0.05, 0.5, 2.0) for alpha in (1.0, 1.5 * np.exp(0.7j), -1.2j))
    return worst <= 1e-7, f"max relative gap to the vacuum QFI {worst:.1e} over t = 0.05, 0.5, 2"


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------

@_register("bounds", "time_homogeneity")
def _check_homogeneity() -> tuple[bool, str]:
    t = 0.01
    lin = bound_fock_linear(2, FIG_BATH, 2 * t) / bound_fock_linear(2, FIG_BATH, t)
    gauss = [bound(nbar, FIG_BATH, 2 * t) / bound(nbar, FIG_BATH, t)
             for bound in (bound_squeezed, bound_coherent) for nbar in (1.0, 1.5)]
    ok = lin == 2.0 and all(ratio == 4.0 for ratio in gauss)
    return ok, f"scaling under t->2t: {lin}, {', '.join(map(str, gauss))}"


@_register("bounds", "monotone_in_n")
def _check_monotone() -> tuple[bool, str]:
    vals = [bound_fock_linear(n, FIG_BATH, 0.01) for n in range(11)]
    ok = all(b > a for a, b in zip(vals, vals[1:]))
    return ok, f"linear law over n=0..10 spans {vals[0]:.3e}..{vals[-1]:.3e}"


@_register("bounds", "nonnegative_grid")
def _check_nonnegative() -> tuple[bool, str]:
    low = math.inf
    for x in np.logspace(math.log10(0.1), math.log10(20.0), 9):
        bath = BathParams(omega=1.0, T=1.0 / x)
        for n in (0, 1, 5, 10):
            low = min(
                low,
                bound_fock_linear(n, bath, 0.01),
                bound_fock_quadratic(n, bath, 0.01),
                bound_squeezed(float(n), bath, 0.01),
                bound_coherent(float(n), bath, 0.01),
            )
    return low >= 0.0, f"minimum over grid {low:.3e}"


@_register("bounds", "short_time_ratio")
def _check_short_time_ratio() -> tuple[bool, str]:
    r = rates(FIG_BATH)
    ok, msgs = True, []
    for g0t, tol in ((1e-5, 0.01), (1e-4, 0.01), (1e-3, 0.05)):  # |n>, n = 0..3
        t = g0t / r.gamma0
        worst = max((qfi_point(ProbeSpec.fock(n), FIG_BATH, t, FisherMethod.CFI_NUMBER).value
                     / bound_fock_linear(n, FIG_BATH, t) - 1.0 for n in range(4)), key=abs)
        ok = ok and abs(worst) <= tol
        msgs.append(f"G0t={g0t:g}: worst ratio - 1 {worst:.1e} (tol {tol:g})")
    return ok, "; ".join(msgs)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

@_register("sweep", "determinism")
def _check_determinism() -> tuple[bool, str]:
    spec = SweepSpec(
        axis=SweepAxis.TIME,
        axis_values=(0.01, 0.02, 0.05, 0.1, 0.2),
        probes=(ProbeSpec.fock(1), ProbeSpec.coherent(1.0), ProbeSpec.squeezed(0.5)),
        methods=(SweepMethod.CFI, SweepMethod.QFI, SweepMethod.BOUND_FOCK_LINEAR,
                 SweepMethod.BOUND_COHERENT),
        bath=FIG_BATH,
    )
    runs = [run_sweep(spec, workers=workers) for workers in (1, 2, 3, 4)]
    outs = [(r.csv_body(), json.dumps([row.as_json_dict() for row in r.rows])) for r in runs]
    same = [out == outs[0] for out in outs[1:]]
    return all(same), f"{len(outs[0][0])} CSV bytes, JSON rows too; workers 2-4 same as 1: {same}"


@_register("sweep", "fit_exactness")
def _check_fit() -> tuple[bool, str]:
    fits = [(power, fit_scaling_exponent(ts, coef * ts**power))
            for ts in (np.logspace(-3, -1, 6), np.logspace(-3, -1, 7))
            for coef, power in ((3.0, 1), (0.5, 2), (0.25, 2))]
    ok = all(abs(fit.slope - k) < 1e-9 and abs(fit.r_squared - 1.0) < 1e-12 for k, fit in fits)
    return ok, f"slopes {', '.join(f'{fit.slope:.12f}' for _, fit in fits)}"


@_register("sweep", "time_axis_monotone")
def _check_time_monotone() -> tuple[bool, str]:
    # information is nondecreasing in t while Gamma0 t <= 0.05
    spec = SweepSpec(
        axis=SweepAxis.TIME,
        axis_values=(0.05, 0.1, 0.2, 0.25, 0.35, 0.5),
        probes=(ProbeSpec.fock(1), ProbeSpec.coherent(1.0)),
        methods=(SweepMethod.CFI,),
        bath=FIG_BATH,
    )
    rows = run_sweep(spec, workers=1).rows
    curves = [[row.qfi for row in rows if row.probe == p.canonical()] for p in spec.probes]
    ok = all(b >= a for vals in curves for a, b in zip(vals, vals[1:]))
    return ok, "CFI: " + "; ".join(", ".join(f"{x:.3e}" for x in vals) for vals in curves)


@_register("sweep", "energy_matched_rows")
def _check_energy_matched_rows() -> tuple[bool, str]:
    spec = SweepSpec(
        axis=SweepAxis.EXCITATION_N,
        axis_values=(1.0, 2.0, 3.0),
        probes=(ProbeKind.FOCK, ProbeKind.SQUEEZED, ProbeKind.COHERENT),
        methods=(SweepMethod.BOUND_FOCK_LINEAR, SweepMethod.BOUND_SQUEEZED,
                 SweepMethod.BOUND_COHERENT),
        bath=FIG_BATH,
        t=0.01,
    )
    rows = run_sweep(spec, workers=1).rows
    probes = [(ProbeSpec.parse(row.probe), row.axis_value) for row in rows]
    by_spec = max(abs(p.mean_photon - n) for p, n in probes)
    by_state = max(abs(make_state(p, default_dim(p)).mean_photon() - n) for p, n in probes)
    ok = len(rows) == 9 and by_spec <= 1e-12 and by_state < 1e-9  # one bound per probe and n
    return ok, f"{len(rows)} rows; max |<n> - n| {by_spec:.1e} by spec, {by_state:.1e} in the state"


def registered_checks() -> list[tuple[str, str]]:
    return [(group, name) for group, name, _ in _REGISTRY]


def run_selfcheck() -> list[CheckResult]:
    """Execute every registered invariant check."""
    results = []
    for group, name, fn in _REGISTRY:
        try:
            passed, detail = fn()
        except FockThermoError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, group=group, passed=passed, detail=detail))
    return results
