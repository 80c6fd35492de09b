"""Thermal-bath characterization: Bose occupation, its temperature
derivative, and the absorption/emission rate pair obeying detailed balance.

Rates come in two conventions for the base rate Gamma0:

* ``markovian`` - Gamma0 equals the bare dissipation rate gamma;
  the coupling g is ignored.
* ``purcell``   - Gamma0 = 4 g^2 / gamma, the weak-coupling decay of a
  probe coupled with strength g to a lossy mode of linewidth gamma.

Either way Gamma+ = Gamma0 * nbar and Gamma- = Gamma0 * (nbar + 1), so
Gamma+/Gamma- = exp(-omega/T) holds by construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

# Above this value of omega/T the occupation underflows double precision
# purposefully to exactly zero (flagged, not an error).
UNDERFLOW_EXPONENT = 700.0


class RateModel(str, Enum):
    MARKOVIAN = "markovian"
    PURCELL = "purcell"


def _check_mode(omega: float, T: float) -> None:
    if not (omega > 0.0) or not math.isfinite(omega):
        raise DomainError(f"omega must be > 0, got {omega!r}")
    if not (T > 0.0) or not math.isfinite(T):
        raise DomainError(f"T must be > 0, got {T!r}")


def thermal_occupation(omega: float, T: float) -> float:
    """Mean thermal photon number 1/(exp(omega/T) - 1).

    Uses expm1 so the classical limit T >> omega does not suffer
    cancellation; 0.0 once omega/T > 700, DomainError once omega/T is 0.
    """
    _check_mode(omega, T)
    x = omega / T
    if x > UNDERFLOW_EXPONENT:
        return 0.0
    if x == 0.0:
        raise DomainError(f"omega/T underflows to 0 at omega={omega!r}, T={T!r}")
    return 1.0 / math.expm1(x)


def thermal_occupation_dT(omega: float, T: float) -> float:
    """d nbar / dT = (omega/T^2) * nbar * (nbar + 1).

    The product form is algebraically identical to
    (omega/T^2) e^{omega/T} / (e^{omega/T} - 1)^2 and stays stable at both
    temperature extremes; it is 0.0 wherever nbar underflows to 0.
    """
    n = thermal_occupation(omega, T)
    if n == 0.0:
        return 0.0
    return omega_over_T2(omega, T, n) * (n + 1.0)


def omega_over_T2(omega: float, T: float, x: float) -> float:
    """(omega / T^2) * x, as (omega / T) * (x / T) where T^2 overflows
    (T >~ 1.34e154) or underflows to 0 (T <~ 1.57e-162) and the value need
    not."""
    try:
        return (omega / T**2) * x
    except (OverflowError, ZeroDivisionError):
        return (omega / T) * (x / T)


@dataclass(frozen=True)
class BathParams:
    """Bath and coupling parameters (units hbar = k_B = 1)."""

    omega: float = 1.0
    T: float = 0.5
    gamma: float = 0.1
    g: float = 0.05
    rate_model: RateModel = RateModel.MARKOVIAN

    def __post_init__(self) -> None:
        _check_mode(self.omega, self.T)
        if not (self.gamma > 0.0) or not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be > 0, got {self.gamma!r}")
        if self.g < 0.0 or not math.isfinite(self.g):
            raise DomainError(f"g must be >= 0, got {self.g!r}")
        object.__setattr__(self, "rate_model", RateModel(self.rate_model))

    def with_temperature(self, T: float) -> "BathParams":
        return dataclasses.replace(self, T=T)


@dataclass(frozen=True)
class Rates:
    """Absorption/emission pair; gamma_minus = gamma_plus + gamma0 exactly."""

    gamma_plus: float
    gamma_minus: float
    gamma0: float

    def __post_init__(self) -> None:
        # gamma_plus + gamma0 rounds to gamma_plus once nbar exceeds 2^53, and
        # a subnormal omega/T makes nbar, and both rates, infinite
        if self.gamma_plus < 0.0 or not math.inf > self.gamma_minus >= self.gamma_plus:
            raise DomainError(
                f"rates must be finite and satisfy gamma_minus >= gamma_plus >= 0, "
                f"got ({self.gamma_plus!r}, {self.gamma_minus!r})"
            )

    @property
    def nbar(self) -> float:
        return self.gamma_plus / self.gamma0


def base_rate(params: BathParams) -> float:
    """Gamma0 under the chosen rate model.

    A Purcell rate beyond double precision raises :class:`DomainError`.
    """
    if params.rate_model is RateModel.MARKOVIAN:
        return params.gamma
    try:
        rate = 4.0 * params.g**2 / params.gamma
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise DomainError(
            f"Purcell rate 4 g^2 / gamma is not representable at g={params.g!r}, "
            f"gamma={params.gamma!r}"
        )
    return rate


def rates(params: BathParams) -> Rates:
    """Gamma+ = Gamma0 nbar, Gamma- = Gamma0 (nbar + 1)."""
    n = thermal_occupation(params.omega, params.T)
    g0 = base_rate(params)
    gp = g0 * n
    # sum instead of g0*(n+1) keeps gamma_minus - gamma_plus == gamma0 exact
    return Rates(gamma_plus=gp, gamma_minus=gp + g0, gamma0=g0)
