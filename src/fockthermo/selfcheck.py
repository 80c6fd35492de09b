"""Self-contained invariant suite behind the ``validate`` subcommand.

Each check exercises one documented invariant at reduced scale so the whole
battery stays fast. This registry is the one statement of these invariants:
``validate`` reports on it by module group, and pytest runs the same
registry once, with one test case per check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bath import BathParams, rates, thermal_occupation, thermal_occupation_dT
from .bounds import bound_coherent, bound_fock_linear, bound_fock_quadratic, bound_squeezed
from .dynamics import evolve, mean_photon_analytic, short_time_populations
from .errors import FockThermoError
from .fisher import FisherMethod, cfi_number_basis, d_dT_state, qfi_point, qfi_sld_detailed
from .fockspace import LEAKAGE_BUDGET
from .probes import ProbeKind, ProbeSpec, default_dim, energy_match, make_state
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
    for T in (0.05, 0.5, 5.0, 50.0):
        r = rates(BathParams(T=T))
        defect = abs(r.gamma_minus - r.gamma_plus - r.gamma0)
        worst = max(worst, defect / np.spacing(r.gamma_minus))
    return worst <= 1.0, f"max |(G- - G+) - G0| = {worst:.2f} ulp"


@_register("bath", "occupation_derivative_positive")
def _check_derivative_positive() -> tuple[bool, str]:
    vals = [thermal_occupation_dT(1.0, T) for T in np.logspace(-2, 2, 25)]
    return all(v > 0.0 for v in vals), f"min derivative {min(vals):.3e}"


@_register("bath", "derivative_vs_finite_difference")
def _check_derivative_fd() -> tuple[bool, str]:
    worst = 0.0
    for T in np.logspace(-1, 1, 9):
        h = 1e-6 * T
        fd = (thermal_occupation(1.0, T + h) - thermal_occupation(1.0, T - h)) / (2 * h)
        worst = max(worst, abs(fd / thermal_occupation_dT(1.0, T) - 1.0))
    return worst < 1e-7, f"max relative FD mismatch {worst:.1e}"


# --------------------------------------------------------------------------
# probes
# --------------------------------------------------------------------------

@_register("probes", "states_validate")
def _check_states_validate() -> tuple[bool, str]:
    # exactly Hermitian, unit trace within 1e-9, no eigenvalue below -1e-9
    # and the top level within the leakage budget, at the automatic dim
    herm, trace, low, top = 0.0, 0.0, math.inf, 0.0
    for spec in (ProbeSpec.fock(2), ProbeSpec.fock(3), ProbeSpec.coherent(1.0),
                 ProbeSpec.coherent(1.0 + 0.5j), ProbeSpec.squeezed(0.6), ProbeSpec.squeezed(0.8),
                 ProbeSpec.squeezed(0.8814), ProbeSpec.thermal(0.5), ProbeSpec.thermal(1.0)):
        state = make_state(spec, default_dim(spec))
        mat = state.matrix()
        herm = max(herm, float(np.max(np.abs(mat - mat.conj().T))))
        trace = max(trace, abs(float(state.populations.sum()) - 1.0))
        low = min(low, float(np.linalg.eigvalsh(mat).min()))
        top = max(top, float(state.populations[-1]))
    ok = herm == 0.0 and trace <= 1e-9 and low >= -1e-9 and top <= LEAKAGE_BUDGET
    return ok, (f"hermiticity defect {herm:.1e}, max |tr - 1| {trace:.1e}, "
                f"smallest eigenvalue {low:.1e}, max top-level population {top:.1e}")


@_register("probes", "energy_matching")
def _check_energy_matching() -> tuple[bool, str]:
    worst = 0.0
    for n in (1.0, 2.0, 3.0):
        match = energy_match(n)
        for spec in (ProbeSpec.coherent(match.alpha_mod), ProbeSpec.squeezed(match.r)):
            rho = make_state(spec, default_dim(spec))
            worst = max(worst, abs(rho.mean_photon() - n))
    return worst < 1e-9, f"max |<n> - target| = {worst:.1e}"


@_register("probes", "squeezed_odd_levels")
def _check_squeezed_parity() -> tuple[bool, str]:
    states = [make_state(ProbeSpec.squeezed(r), dim) for r, dim in ((0.7, 50), (0.8814, 60))]
    odd = max(float(np.max(s.populations[1::2])) for s in states)
    odd_k = [int(k) for s in states for k in s.bands if k % 2]
    return odd == 0.0 and not odd_k, f"max odd-level population {odd:.1e}, odd bands {odd_k}"


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

@functools.cache
def _evolved_probes() -> tuple:
    """Fock, coherent and squeezed probes at their automatic dim after t = 0.5,
    and two at a fixed dim: coherent after t = 1 and squeezed after t = 0.5.
    Computed once and shared by the trace and positivity checks."""
    r = rates(FIG_BATH)
    cases = [(spec, default_dim(spec), 0.5)
             for spec in (ProbeSpec.fock(1), ProbeSpec.coherent(1.0), SQUEEZED_ONE)]
    cases += [(ProbeSpec.coherent(1.0), 40, 1.0), (ProbeSpec.squeezed(0.6), 50, 0.5)]
    return tuple(evolve(make_state(spec, dim), r, t) for spec, dim, t in cases)


@_register("dynamics", "trace_preservation")
def _check_trace() -> tuple[bool, str]:
    defect = max(abs(float(out.matrix().trace().real) - 1.0) for out in _evolved_probes())
    return defect <= 1e-9, f"max |tr - 1| = {defect:.1e}"


@_register("dynamics", "positivity")
def _check_positivity() -> tuple[bool, str]:
    low = min(float(np.linalg.eigvalsh(out.matrix()).min()) for out in _evolved_probes())
    return low >= -1e-9, f"smallest eigenvalue {low:.1e}"


@_register("dynamics", "diagonality_preservation")
def _check_diagonality() -> tuple[bool, str]:
    carried = [evolve(make_state(spec, 40), rates(FIG_BATH), 0.5).bands.size
               for spec in (ProbeSpec.fock(1), ProbeSpec.fock(2), ProbeSpec.thermal(0.5))]
    return not any(carried), f"coherence bands carried: {carried}"


@_register("dynamics", "thermal_stationarity")
def _check_stationarity() -> tuple[bool, str]:
    nT = thermal_occupation(FIG_BATH.omega, FIG_BATH.T)
    rho = make_state(ProbeSpec.thermal(nT), 40)
    out = evolve(rho, rates(FIG_BATH), 1.0)
    drift = float(np.max(np.abs(out.populations - rho.populations)))
    return drift < 1e-8, f"sup-norm drift over t=1: {drift:.1e}"


@_register("dynamics", "first_moment_law")
def _check_first_moment() -> tuple[bool, str]:
    r = rates(FIG_BATH)
    worst = 0.0
    for spec in (ProbeSpec.fock(1), ProbeSpec.coherent(1.0), SQUEEZED_ONE,
                 ProbeSpec.thermal(0.5)):
        rho = make_state(spec, default_dim(spec))
        out = evolve(rho, r, 0.5)
        expected = mean_photon_analytic(rho.mean_photon(), r, 0.5)
        worst = max(worst, abs(out.mean_photon() - expected))
    return worst < 1e-7, f"max |<n> - analytic| = {worst:.1e}"


@_register("dynamics", "short_time_consistency")
def _check_short_time() -> tuple[bool, str]:
    r = rates(FIG_BATH)
    t = 1e-3 / r.gamma0 * 0.1  # Gamma0 t = 1e-4
    rho = evolve(make_state(ProbeSpec.fock(1), 30), r, t)
    pred = short_time_populations(1, r, t)
    p = rho.populations
    band = 10.0 * r.gamma0 * t
    ratios = [p[0] / pred.p_below, p[1] / pred.p_stay, p[2] / pred.p_above]
    ok = all(1.0 - band <= x <= 1.0 + band for x in ratios)
    return ok, f"ratios to first order: {', '.join(f'{x:.6f}' for x in ratios)}"


# --------------------------------------------------------------------------
# fisher
# --------------------------------------------------------------------------

@_register("fisher", "cfi_equals_qfi_diagonal")
def _check_cfi_qfi_equal() -> tuple[bool, str]:
    worst = 0.0
    for spec in (ProbeSpec.fock(1), ProbeSpec.thermal(0.5)):
        c = qfi_point(spec, FIG_BATH, 0.2, FisherMethod.CFI_NUMBER).value
        q = qfi_point(spec, FIG_BATH, 0.2, FisherMethod.QFI_SLD).value
        worst = max(worst, abs(q - c) / c)
    return worst < 1e-8, f"max relative gap {worst:.1e}"


@_register("fisher", "qfi_at_least_cfi")
def _check_qfi_dominates() -> tuple[bool, str]:
    deriv = d_dT_state(ProbeSpec.coherent(1.0), FIG_BATH, 0.05)
    q, _ = qfi_sld_detailed(deriv.state, deriv.dstate)
    c = cfi_number_basis(*deriv.populations)
    return q >= c - 1e-9, f"QFI {q:.6e} vs CFI {c:.6e}"


@_register("fisher", "phase_invariance")
def _check_phase_invariance() -> tuple[bool, str]:
    a = qfi_point(ProbeSpec.coherent(1.0), FIG_BATH, 0.05, FisherMethod.QFI_SLD).value
    rel = max(
        abs(qfi_point(ProbeSpec.coherent(np.exp(1j * phase)), FIG_BATH, 0.05,
                      FisherMethod.QFI_SLD).value - a) / a
        for phase in (0.7, 1.1)
    )
    return rel < 1e-8, f"relative phase sensitivity {rel:.1e}"


@_register("fisher", "truncation_convergence")
def _check_truncation_convergence() -> tuple[bool, str]:
    worst = 0.0
    for spec in (ProbeSpec.fock(2), ProbeSpec.coherent(1.0)):
        v40, v60 = (qfi_point(spec, FIG_BATH, 0.5, FisherMethod.QFI_SLD, dim=d).value
                    for d in (40, 60))
        worst = max(worst, abs(v60 - v40) / v60)
    return worst <= 1e-6, f"max relative QFI change from dim 40 to 60: {worst:.1e}"


@_register("fisher", "cramer_rao_identity")
def _check_cramer_rao() -> tuple[bool, str]:
    rec = qfi_point(ProbeSpec.fock(1), FIG_BATH, 0.1, FisherMethod.CFI_NUMBER)
    product = rec.delta_t_min**2 * rec.value
    return product == 1.0, f"deltaT^2 * F = {product!r}"


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
    msgs = []
    ok = True
    for g0t, tol in ((1e-4, 0.05), (1e-5, 0.01)):
        t = g0t / r.gamma0
        cfi = qfi_point(ProbeSpec.fock(1), FIG_BATH, t, FisherMethod.CFI_NUMBER).value
        ratio = cfi / bound_fock_linear(1, FIG_BATH, t)
        ok = ok and abs(ratio - 1.0) <= tol
        msgs.append(f"G0t={g0t:g}: ratio {ratio:.6f}")
    return ok, "; ".join(msgs)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

@_register("sweep", "determinism")
def _check_determinism() -> tuple[bool, str]:
    spec = SweepSpec(
        axis=SweepAxis.TIME,
        axis_values=(0.01, 0.02, 0.05, 0.1),
        probes=(ProbeSpec.fock(1),),
        methods=(SweepMethod.BOUND_FOCK_LINEAR, SweepMethod.CFI),
        bath=FIG_BATH,
    )
    body1 = run_sweep(spec, workers=1).csv_body()
    body2 = run_sweep(spec, workers=2).csv_body()
    return body1 == body2, f"{len(body1)} CSV bytes, workers 1 vs 2"


@_register("sweep", "fit_exactness")
def _check_fit() -> tuple[bool, str]:
    ts = np.logspace(-3, -1, 6)
    lin = fit_scaling_exponent(ts, 3.0 * ts)
    quad = fit_scaling_exponent(ts, 0.5 * ts**2)
    ok = abs(lin.slope - 1.0) < 1e-9 and abs(quad.slope - 2.0) < 1e-9 and lin.r_squared > 1 - 1e-12
    return ok, f"slopes {lin.slope:.12f}, {quad.slope:.12f}"


@_register("sweep", "time_axis_monotone")
def _check_time_monotone() -> tuple[bool, str]:
    # information is nondecreasing in t while Gamma0 t <= 0.05
    spec = SweepSpec(
        axis=SweepAxis.TIME,
        axis_values=(0.1, 0.25, 0.5),
        probes=(ProbeSpec.fock(1),),
        methods=(SweepMethod.CFI,),
        bath=FIG_BATH,
    )
    vals = [row.qfi for row in run_sweep(spec, workers=1).rows]
    ok = all(b >= a for a, b in zip(vals, vals[1:]))
    return ok, f"CFI over t=(0.1, 0.25, 0.5): {', '.join(f'{v:.5e}' for v in vals)}"


@_register("sweep", "energy_matched_rows")
def _check_energy_matched_rows() -> tuple[bool, str]:
    spec = SweepSpec(
        axis=SweepAxis.EXCITATION_N,
        axis_values=(1.0, 3.0),
        probes=(ProbeKind.SQUEEZED, ProbeKind.COHERENT),
        methods=(SweepMethod.BOUND_SQUEEZED, SweepMethod.BOUND_COHERENT),
        bath=FIG_BATH,
        t=0.01,
    )
    worst = 0.0
    for row in run_sweep(spec, workers=1).rows:
        probe = ProbeSpec.parse(row.probe)
        rho = make_state(probe, default_dim(probe))
        worst = max(worst, abs(rho.mean_photon() - row.axis_value))
    return worst < 1e-8, f"max |<n> - axis value| = {worst:.1e}"


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
