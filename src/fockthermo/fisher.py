"""Temperature-sensitivity measures of the evolved probe.

The state derivative is taken end to end: the photon-number populations
(band 0, :class:`~fockthermo.fockspace.BandState`) are evolved at shifted
bath temperatures and differenced centrally with one Richardson step. From
(p, dp/dT) two figures of merit follow:

* the number-basis classical Fisher information sum_m (dp_m)^2 / p_m, and
* the quantum Fisher information. A number-diagonal probe (Fock, thermal)
  stays number diagonal, so its populations are the eigenvalues of rho and
  its QFI is the same sum, with the eigenvalue floor in place of the CFI's.
  The channel keeps a coherent or squeezed probe Gaussian, so its QFI is
  the closed form of :func:`gaussian_qfi` in the 2x2 covariance matrix.

For number-diagonal states the two coincide; for states with coherences
the quantum value can only be larger. A time curve is taken one time at a
time, with the five stencil generators built once, before its first time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .bath import BathParams, base_rate, rates, thermal_occupation, thermal_occupation_dT
from .dynamics import BandGenerator, evolve
from .errors import DomainError, SingularSupportError
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
    bath: BathParams
    t: float
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


def d_dT_state(
    probe: ProbeSpec,
    bath: BathParams,
    t: float,
    *,
    dim: int | None = None,
) -> TemperatureDerivative:
    """Evolved populations p(t; T) and their central-difference dp/dT:
    :func:`d_dT_curve` at the one time t.
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
    population generators of the five stencil temperatures T, T +- h,
    T +- h/2 built once, before the first t; at each t the populations are
    propagated under those five generators. The h and h/2 estimates combine
    by one Richardson step as (4 D_{h/2} - D_h) / 3.

    Each t runs exactly what :func:`d_dT_state` runs there, so every value,
    and every error, is that of a loop over the times.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise DomainError("t_grid must be nonempty")
    if (not all(t >= 0.0 and math.isfinite(t) for t in t_grid)
            or any(b <= a for a, b in zip(t_grid, t_grid[1:]))):
        raise DomainError("t_grid must be finite, nonnegative and strictly ascending")
    dim = default_dim(probe) if dim is None else dim
    state = make_state(probe, dim)

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

    generators = [BandGenerator.build(dim, rates(bath.with_temperature(T)))
                  for T in (bath.T, bath.T + h, bath.T - h, bath.T + h / 2.0, bath.T - h / 2.0)]
    for t in t_grid:
        states = [evolve(state, generator, t) for generator in generators]
        yield TemperatureDerivative(
            probe=probe,
            bath=bath,
            t=t,
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
    formed without cancellation. F is 0 where s is (t = 0, or nbar' = 0);
    a value that is not finite raises :class:`DomainError`.
    """
    if probe.kind not in (ProbeKind.COHERENT, ProbeKind.SQUEEZED):
        raise DomainError(f"{probe.canonical()} is not a Gaussian probe")
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

    Every method reduces the same derivative, so a caller wanting several
    evaluates :func:`d_dT_state` once, for all of them. The QFI of a
    number-diagonal probe is the sum of the CFI over the populations above
    ``EIGENVALUE_FLOOR``, and that of a coherent or squeezed probe
    :func:`gaussian_qfi`; the record's dim, leakage and step are those of
    the derivative either way.
    """
    method = FisherMethod(method)
    if method is FisherMethod.CFI_NUMBER:
        value = cfi_number_basis(*deriv.populations)
    elif deriv.probe.is_number_diagonal:
        value = cfi_number_basis(*deriv.populations, p_floor=EIGENVALUE_FLOOR)
    else:
        value = gaussian_qfi(deriv.probe, deriv.bath, deriv.t)
    return QfiRecord(
        value=value,
        method=method.value,
        dim=deriv.dim,
        leakage=deriv.leakage,
        h_used=deriv.h_used,
    )


def qfi_point(
    probe: ProbeSpec,
    bath: BathParams,
    t: float,
    method: FisherMethod,
    *,
    dim: int | None = None,
) -> QfiRecord:
    """Single Fisher-information evaluation at time t."""
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
    each t, bit for bit, from one :func:`d_dT_curve`."""
    return [fisher_record(deriv, method) for deriv in d_dT_curve(probe, bath, t_grid, dim=dim)]
