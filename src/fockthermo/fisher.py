"""Temperature-sensitivity measures of the evolved probe.

The state derivative is taken end to end, on the photon-number populations
(band 0, :class:`~fockthermo.fockspace.BandState`). A Fock, coherent or
squeezed probe is evolved by the thermal-attenuator channel
(:func:`~fockthermo.dynamics.attenuate`), and its derivative is exact:
dp/dT = nbar'(T) q K p(t), with no temperature step. A thermal probe is
evolved at five shifted bath temperatures and differenced centrally with
one Richardson step (:func:`stencil_curve`). From (p, dp/dT) two figures
of merit follow:

* the number-basis classical Fisher information sum_m (dp_m)^2 / p_m, and
* the quantum Fisher information. A number-diagonal probe (Fock, thermal)
  stays number diagonal, so its populations are the eigenvalues of rho and
  its QFI is the same sum, with the eigenvalue floor in place of the CFI's.
  The channel keeps a coherent or squeezed probe Gaussian, so its QFI reads
  no populations (:func:`reads_populations` is the one rule): it is the
  closed form of :func:`gaussian_qfi` in the 2x2 covariance matrix, taken
  with no truncation or state, and its record holds dim 0, leakage 0, step 0.

For number-diagonal states the two coincide; for states with coherences
the quantum value can only be larger. A time curve computes the bath rates
once, before its first time. A channel probe's curve takes the channel
once for each run of consecutive times at one dim, with the kernels of
many times stacked; a thermal probe's is taken one time at a time, each
stencil evolution one dense exponential of the birth-death generator
(:func:`~fockthermo.dynamics.evolve`). Either way each time keeps the
value it has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .bath import (BathParams, Rates, base_rate, rates, thermal_occupation,
                   thermal_occupation_dT)
from .dynamics import attenuate, evolve, mean_photon_analytic
from .errors import DomainError, FockThermoError, SingularSupportError
from .fockspace import EIGENVALUE_FLOOR, BandState
from .probes import ProbeKind, ProbeSpec, default_dim, make_state

# Populations below this are excluded from classical Fisher sums: they add
# at most numerical noise but can explode by division.
P_FLOOR = 1e-14

# A zero-probability outcome whose derivative exceeds this is a genuine
# information divergence rather than roundoff.
SINGULAR_DP = 1e-12

# Central-difference step for d/dT: H_REL * T, but at least H_ABS_FLOOR.
H_REL = 1e-4
H_ABS_FLOOR = 1e-7


class FisherMethod(str, Enum):
    CFI_NUMBER = "cfi"
    QFI_SLD = "qfi"


@dataclass(frozen=True)
class TemperatureDerivative:
    """The populations ``rho`` of ``probe`` evolved under ``bath`` for a
    time ``t``, their temperature derivative ``dp``, the temperature step
    and the leakage. ``drho`` is d rho/dT as the d x d diagonal matrix of dp."""

    probe: ProbeSpec
    rho: BandState
    dp: np.ndarray
    h_used: float
    leakage: float

    @property
    def dim(self) -> int:
        return self.rho.dim

    @property
    def populations(self) -> tuple[np.ndarray, np.ndarray]:
        """The photon-number distribution p and dp/dT."""
        return self.rho.populations, self.dp

    @property
    def drho(self) -> np.ndarray:
        return np.diag(self.dp)


def reads_populations(probe: ProbeSpec, method: FisherMethod) -> bool:
    """Whether ``method`` of ``probe`` reduces the populations: all but a Gaussian QFI."""
    return FisherMethod(method) is FisherMethod.CFI_NUMBER or probe.is_number_diagonal


def _checked_grid(t_grid: Sequence[float]) -> list[float]:
    t_grid = list(t_grid)
    if not t_grid:
        raise DomainError("t_grid must be nonempty")
    if (not all(t >= 0.0 and math.isfinite(t) for t in t_grid)
            or any(b <= a for a, b in zip(t_grid, t_grid[1:]))):
        raise DomainError("t_grid must be finite, nonnegative and strictly ascending")
    return t_grid


def d_dT_state(
    probe: ProbeSpec,
    bath: BathParams,
    t: float,
    *,
    dim: int | None = None,
) -> TemperatureDerivative:
    """Evolved populations p(t; T) and their dp/dT: :func:`d_dT_curve` at
    the one time t.
    """
    (deriv,) = d_dT_curve(probe, bath, [t], dim=dim)
    return deriv


def d_dT_curve(
    probe: ProbeSpec,
    bath: BathParams,
    t_grid: Sequence[float],
    *,
    dim: int | None = None,
) -> Iterator[TemperatureDerivative]:
    """The derivative of :func:`d_dT_state` at each t of ``t_grid``, in order.

    The probe itself is temperature independent; only the bath rates move.
    The grid is checked, the truncation sized, the probe prepared and the
    bath rates computed once, before the first t. An automatic Fock dim is
    the exception: it is sized at each t, for the thermal noise
    N = nbar (1 - exp(-Gamma0 t)) the channel adds by then, and the probe is
    prepared once for each run of consecutive times that share a dim.

    A Fock, coherent or squeezed probe is propagated by the thermal-
    attenuator channel (:func:`~fockthermo.dynamics.attenuate`), one call
    for each run of times at one dim, which computes the kernels of many of
    them at once, before the run's first derivative is yielded. Its dp/dT
    is the exact nbar'(T) q K p of that channel, and its ``h_used`` is 0. A
    thermal probe takes the five-temperature stencil of
    :func:`stencil_curve`, one time at a time.

    Every value is that of :func:`d_dT_state` at its t, bit for bit, and
    the curve raises what the first failing time raises there, after the
    derivatives of the times before it.
    """
    t_grid = _checked_grid(t_grid)
    # an automatic Fock dim is sized at each t, for the noise added by then
    per_time = dim is None and probe.kind is ProbeKind.FOCK
    if not per_time:
        state = make_state(probe, default_dim(probe) if dim is None else dim)
    # Thermal probes stay on the stencil, bit for bit: the benchmark's
    # references pin its finite-difference roundoff at thermal:0.5 and
    # thermal:5.0 for T <= 0.09. Re-recording those references from an
    # independent oracle (ROADMAP item 1) and the thermal closed form
    # (item 4) delete this branch.
    if probe.kind is ProbeKind.THERMAL:
        yield from stencil_curve(probe, state, bath, t_grid)
        return
    bath_rates = rates(bath)
    dnbar = thermal_occupation_dT(bath.omega, bath.T)
    runs = _fock_runs(probe, bath_rates, t_grid) if per_time else [(state, t_grid)]
    for state, times in runs:
        for rho, dp_dnbar, leakage in attenuate(state, bath_rates, times):
            yield TemperatureDerivative(probe=probe, rho=rho, dp=dnbar * dp_dnbar, h_used=0.0,
                                        leakage=leakage)


def _fock_runs(probe: ProbeSpec, bath_rates: Rates,
               t_grid: list[float]) -> Iterator[tuple[BandState, list[float]]]:
    """Each run of consecutive times of ``t_grid`` that share the automatic
    dim of the Fock ``probe``, with the probe prepared at that dim, as
    (state, times). Each t is sized for the noise N = nbar (1 - exp(-Gamma0 t))
    that the channel adds by then, the mean it gives the vacuum. A time that
    cannot be sized raises after the runs before it have been yielded."""
    run_dim, run = None, []
    for t in t_grid:
        try:
            t_dim = default_dim(probe, mean_photon_analytic(0.0, bath_rates, t))
        except FockThermoError:
            if run:
                yield make_state(probe, run_dim), run
            raise
        if run and t_dim != run_dim:
            yield make_state(probe, run_dim), run
            run = []
        run_dim = t_dim
        run.append(t)
    yield make_state(probe, run_dim), run


def stencil_curve(
    probe: ProbeSpec,
    state: BandState,
    bath: BathParams,
    t_grid: Sequence[float],
) -> Iterator[TemperatureDerivative]:
    """The central-difference dp/dT of ``state`` at each t of a checked
    ``t_grid``: its populations evolved (:func:`~fockthermo.dynamics.evolve`)
    under the bath rates of the five stencil temperatures T, T +- h,
    T +- h/2, computed once, before the first t, and combined by one
    Richardson step as (4 D_{h/2} - D_h) / 3. The leakage is the largest
    top-level population of the five.
    """
    h = max(H_REL * bath.T, H_ABS_FLOOR)
    while bath.T - h <= 0.0:
        h /= 2.0
        # the difference quotients below divide by h
        if bath.T + h == bath.T or math.isinf(1.0 / h):
            raise DomainError(f"derivative step underflowed at T={bath.T!r}")

    def difference(plus, minus, plus2, minus2):
        # products with the reciprocals, not quotients, which would move the
        # last bits of every recorded CFI
        full = (plus - minus) * (1.0 / (2.0 * h))
        half = (plus2 - minus2) * (1.0 / h)
        return (4.0 * half - full) * (1.0 / 3.0)

    stencil = [rates(bath.with_temperature(T))
               for T in (bath.T, bath.T + h, bath.T - h, bath.T + h / 2.0, bath.T - h / 2.0)]
    for t in t_grid:
        states = [evolve(state, r, t) for r in stencil]
        yield TemperatureDerivative(
            probe=probe,
            rho=states[0],
            dp=difference(*(s.populations for s in states[1:])),
            h_used=h,
            leakage=max(float(s.populations[-1]) for s in states),
        )


def cfi_number_basis(p: np.ndarray, dp: np.ndarray, *, p_floor: float = P_FLOOR) -> float:
    """Classical Fisher information of the photon-number distribution."""
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    if p.shape != dp.shape:
        raise DomainError(f"p and dp must have equal length, got {p.shape} vs {dp.shape}")
    singular = (p <= 0.0) & (np.abs(dp) > SINGULAR_DP)
    if np.any(singular):
        m = int(np.argmax(singular))
        raise SingularSupportError(
            f"outcome m={m} has p=0 but dp={dp[m]:.3e}: Fisher information diverges"
        )
    keep = p > p_floor
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def gaussian_qfi(probe: ProbeSpec, bath: BathParams, t: float) -> float:
    """QFI for T of a coherent or squeezed probe after a time t.

    The channel keeps the probe Gaussian. In units where the vacuum
    covariance is the identity, the squeezed vacuum's covariance
    diag(e^{-2r}, e^{2r}) becomes sigma = eta diag(e^{-2r}, e^{2r}) + c I,
    with eta = e^{-Gamma0 t}, q = 1 - eta and c = q (2 nbar + 1); the
    displacement of a coherent probe (r = 0) decays as sqrt(eta) whatever T
    is, so it carries no information. With s = d sigma/dT = 2 nbar' q and
    D = det sigma, the single-mode formula (Pinel et al., PRA 88, 040102(R),
    2013; Safranek, Lee & Fuentes, PRA 92, 032314, 2015) reads

        F = s^2 (sigma11^-2 + sigma22^-2) D / (2 (D + 1))
            + s^2 (sigma11 + sigma22)^2 / (2 D (D - 1) (D + 1)),

    with D - 1 = q (4 q nbar (nbar + 1) + 4 eta sinh^2 r + 4 eta nbar cosh 2r)
    formed without cancellation. F is 0 where s is (t = 0, or nbar' = 0); a
    t or a value outside [0, inf) raises :class:`DomainError`.
    """
    if probe.kind not in (ProbeKind.COHERENT, ProbeKind.SQUEEZED):
        raise DomainError(f"{probe.canonical()} is not a Gaussian probe")
    _checked_grid([t])  # refused as d_dT_state refuses it
    r = probe.value if probe.kind is ProbeKind.SQUEEZED else 0.0
    nbar, dnbar = thermal_occupation(bath.omega, bath.T), thermal_occupation_dT(bath.omega, bath.T)
    g0t = base_rate(bath) * t
    eta, q = math.exp(-g0t), -math.expm1(-g0t)
    s = 2.0 * dnbar * q
    if s == 0.0:
        return 0.0
    try:
        c = q * (2.0 * nbar + 1.0)
        s11, s22 = eta * math.exp(-2.0 * r) + c, eta * math.exp(2.0 * r) + c
        d = s11 * s22
        d1 = q * (4.0 * q * nbar * (nbar + 1.0) + 4.0 * eta * math.sinh(r) ** 2
                  + 4.0 * eta * nbar * math.cosh(2.0 * r))
        value = (s * s * (s11**-2 + s22**-2) * d / (2.0 * (d + 1.0))
                 + s * s * (s11 + s22) ** 2 / (2.0 * d * d1 * (d + 1.0)))
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"the Gaussian QFI of {probe.canonical()} is not finite at "
                          f"T={bath.T!r}, Gamma0*t={g0t:.3e}")
    return value


def delta_t_min(fisher_value: float) -> float:
    """Cramer-Rao floor 1/sqrt(F); infinite for zero information."""
    if fisher_value < 0.0:
        raise DomainError(f"Fisher information must be >= 0, got {fisher_value!r}")
    if fisher_value == 0.0:
        return math.inf
    return 1.0 / math.sqrt(fisher_value)


@dataclass(frozen=True)
class QfiRecord:
    """One Fisher-information value and the facts of the derivative it
    was reduced from: its dimension, leakage and temperature step."""

    value: float
    method: str
    dim: int
    leakage: float
    h_used: float

    @property
    def delta_t_min(self) -> float:
        return delta_t_min(self.value)


def fisher_record(deriv: TemperatureDerivative, method: FisherMethod) -> QfiRecord:
    """Reduce a temperature derivative to the Fisher information of ``method``.

    Both methods reduce the same derivative, so a caller wanting several
    evaluates :func:`d_dT_state` once, for all of them. The QFI of a
    number-diagonal probe is the sum of the CFI over the populations above
    ``EIGENVALUE_FLOOR``. The QFI of a coherent or squeezed probe reads no
    populations (:func:`reads_populations`) and is refused here: it is
    :func:`gaussian_record`.
    """
    method = FisherMethod(method)
    if not reads_populations(deriv.probe, method):
        raise DomainError(f"the QFI of {deriv.probe.canonical()} reads no populations")
    p_floor = P_FLOOR if method is FisherMethod.CFI_NUMBER else EIGENVALUE_FLOOR
    return QfiRecord(cfi_number_basis(*deriv.populations, p_floor=p_floor), method.value,
                     deriv.dim, deriv.leakage, deriv.h_used)


def gaussian_record(probe: ProbeSpec, bath: BathParams, t: float) -> QfiRecord:
    """:func:`gaussian_qfi` as a record, with dim 0, leakage 0 and step 0."""
    return QfiRecord(gaussian_qfi(probe, bath, t), FisherMethod.QFI_SLD.value, 0, 0.0, 0.0)


def qfi_point(
    probe: ProbeSpec,
    bath: BathParams,
    t: float,
    method: FisherMethod,
    *,
    dim: int | None = None,
) -> QfiRecord:
    """Single Fisher-information evaluation at time t."""
    if not reads_populations(probe, method):
        return gaussian_record(probe, bath, t)
    return fisher_record(d_dT_state(probe, bath, t, dim=dim), method)


def qfi_curve(
    probe: ProbeSpec,
    bath: BathParams,
    t_grid: Sequence[float],
    method: FisherMethod,
    *,
    dim: int | None = None,
) -> list[QfiRecord]:
    """Fisher information along an ascending time grid: :func:`qfi_point` at
    each t, bit for bit, from at most one :func:`d_dT_curve`."""
    if not reads_populations(probe, method):
        return [gaussian_record(probe, bath, t) for t in _checked_grid(t_grid)]
    return [fisher_record(deriv, method) for deriv in d_dT_curve(probe, bath, t_grid, dim=dim)]
