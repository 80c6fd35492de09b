"""Closed-form short-time Fisher-information expressions.

Four leading-order formulas ship side by side so the simulator can
adjudicate between them:

* ``fock_linear``      F = t Gamma0 (dT nbar)^2 [(n+1)/nbar + n/(nbar+1)]
* ``fock_quadratic``   F = t^2 [n (dT G+/G+)^2 + (n+1) (dT G-/G-)^2] G+ G-
* ``squeezed_vacuum``  F = 4 nbar_p (nbar_p+1) (dT ln nbar)^2 t^2
* ``coherent``         F = nbar_p (dT ln nbar)^2 t^2

The linear law follows directly from first-order population leakage and is
the reference oracle; the quadratic forms are evaluated verbatim and
compared against numerics in reports. Note the two Gaussian expressions
carry no base-rate factor, unlike every other dissipative quantity here;
they are reported as written.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .bath import BathParams, base_rate, rates, thermal_occupation, thermal_occupation_dT
from .errors import DomainError
from .fisher import FisherMethod, d_dT_state, fisher_record
from .probes import ProbeSpec

SHORT_TIME_LIMIT = 0.1


class BoundKind(str, Enum):
    FOCK_LINEAR = "fock_linear"
    FOCK_QUADRATIC = "fock_quadratic"
    SQUEEZED_VACUUM = "squeezed_vacuum"
    COHERENT = "coherent"


@dataclass(frozen=True)
class BoundResult:
    value: float
    kind: BoundKind
    valid_short_time: bool
    underflow: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DomainError(f"bound value is not representable, got {self.value!r}")
        if self.value < 0.0:
            raise DomainError(f"bound value must be >= 0, got {self.value!r}")


@dataclass(frozen=True)
class EnqfiResult:
    """Fisher information per unit mean photon number."""

    value: float
    kind: BoundKind
    nbar: float


def short_time_valid(bath: BathParams, t: float, excitation: float) -> bool:
    """First-order leakage stays below 10%: Gamma0 t (2n+1) <= 0.1."""
    return base_rate(bath) * t * (2.0 * excitation + 1.0) <= SHORT_TIME_LIMIT


def _representable(bound):
    """Float overflow, or a divisor underflowing to zero, in a bound's formula
    raises DomainError rather than escaping as an arithmetic error."""

    @functools.wraps(bound)
    def checked(*args, **kwargs) -> BoundResult:
        try:
            return bound(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{bound.__name__} is not representable here: {exc}") from None

    return checked


def _check_nt(n: int | float, t: float) -> None:
    if n < 0 or t < 0.0:
        raise DomainError(f"need excitation >= 0 and t >= 0, got ({n!r}, {t!r})")


@_representable
def bound_fock_linear(n: int, bath: BathParams, t: float) -> BoundResult:
    """Linear-in-time law from first-order population leakage of |n>."""
    _check_nt(n, t)
    nT = thermal_occupation(bath.omega, bath.T)
    valid = short_time_valid(bath, t, n)
    if nT == 0.0:
        return BoundResult(0.0, BoundKind.FOCK_LINEAR, valid, underflow=True)
    dn = thermal_occupation_dT(bath.omega, bath.T)
    bracket = (n + 1.0) / nT + n / (nT + 1.0)
    return BoundResult(t * base_rate(bath) * dn**2 * bracket, BoundKind.FOCK_LINEAR, valid)


@_representable
def bound_fock_quadratic(n: int, bath: BathParams, t: float) -> BoundResult:
    """Quadratic-in-time form weighted by the log-derivatives of both rates.

    Both rate derivatives equal Gamma0 * dT nbar, so the log-derivatives
    reduce to dT nbar / nbar and dT nbar / (nbar + 1).
    """
    _check_nt(n, t)
    r = rates(bath)
    valid = short_time_valid(bath, t, n)
    if r.gamma_plus == 0.0:
        return BoundResult(0.0, BoundKind.FOCK_QUADRATIC, valid, underflow=True)
    gp, gm = r.gamma_plus, r.gamma_minus
    d_rate = r.gamma0 * thermal_occupation_dT(bath.omega, bath.T)
    term = n * (d_rate / gp) ** 2 + (n + 1.0) * (d_rate / gm) ** 2
    if min(term, t**2 * term) < sys.float_info.min:
        # a subnormal factor would round the value away (T >~ 1e150, or
        # tiny t); regrouped, no factor underflows unless the value does
        value = (t * d_rate) ** 2 * (n * (gm / gp) + (n + 1.0) * (gp / gm))
    else:
        value = t**2 * term * gp * gm
    return BoundResult(value, BoundKind.FOCK_QUADRATIC, valid)


def _dlog_occupation(bath: BathParams) -> float:
    # dT ln nbar = (omega/T^2)(nbar + 1): stable even when nbar underflows
    n1 = thermal_occupation(bath.omega, bath.T) + 1.0
    try:
        return (bath.omega / bath.T**2) * n1
    except OverflowError:  # T**2 is beyond double range for T >~ 1.34e154
        return (bath.omega / bath.T) * (n1 / bath.T)


@_representable
def bound_squeezed(nbar: float, bath: BathParams, t: float) -> BoundResult:
    """Quadratic Gaussian form 4 nbar (nbar+1) (dT ln nbar_T)^2 t^2."""
    _check_nt(nbar, t)
    value = 4.0 * nbar * (nbar + 1.0) * _dlog_occupation(bath) ** 2 * t**2
    return BoundResult(value, BoundKind.SQUEEZED_VACUUM, short_time_valid(bath, t, nbar))


@_representable
def bound_coherent(nbar: float, bath: BathParams, t: float) -> BoundResult:
    """Quadratic Gaussian form nbar (dT ln nbar_T)^2 t^2."""
    _check_nt(nbar, t)
    value = nbar * _dlog_occupation(bath) ** 2 * t**2
    return BoundResult(value, BoundKind.COHERENT, short_time_valid(bath, t, nbar))


def enqfi(bound: BoundResult, nbar: float) -> EnqfiResult:
    """Energy-normalized value bound / nbar; undefined at zero energy."""
    if not (nbar > 0.0):
        raise DomainError(f"energy normalization needs nbar > 0, got {nbar!r}")
    return EnqfiResult(value=bound.value / nbar, kind=bound.kind, nbar=nbar)


SCALING_TABLE_HEADER = (
    "n,nbar,fock_linear,fock_quadratic,squeezed,coherent,"
    "enqfi_fock_linear,enqfi_squeezed,enqfi_coherent,"
    "cfi_fock,qfi_fock,valid_short_time"
)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    nbar: float
    fock_linear: float
    fock_quadratic: float
    squeezed: float
    coherent: float
    enqfi_fock_linear: float
    enqfi_squeezed: float
    enqfi_coherent: float
    cfi_fock: float | None
    qfi_fock: float | None
    valid_short_time: bool


def scaling_table(
    bath: BathParams,
    n_list: Sequence[int],
    t: float,
    *,
    include_numerics: bool = False,
    dim: int | None = None,
) -> list[ScalingRow]:
    """All four closed forms at matched mean energy nbar = n per row,
    optionally next to simulated Fisher information of the Fock probe."""
    out = []
    for n in n_list:
        n = int(n)
        lin = bound_fock_linear(n, bath, t)
        quad = bound_fock_quadratic(n, bath, t)
        sq = bound_squeezed(float(n), bath, t)
        coh = bound_coherent(float(n), bath, t)
        if n > 0:
            e_lin, e_sq, e_coh = (enqfi(b, float(n)).value for b in (lin, sq, coh))
        else:
            e_lin = e_sq = e_coh = math.nan
        cfi_val = qfi_val = None
        if include_numerics:
            probe = ProbeSpec.fock(n)
            deriv = d_dT_state(probe, bath, t, dim=dim)
            cfi_val = fisher_record(deriv, FisherMethod.CFI_NUMBER, probe, bath, t).value
            qfi_val = fisher_record(deriv, FisherMethod.QFI_SLD, probe, bath, t).value
        out.append(
            ScalingRow(
                n=n, nbar=float(n),
                fock_linear=lin.value, fock_quadratic=quad.value,
                squeezed=sq.value, coherent=coh.value,
                enqfi_fock_linear=e_lin, enqfi_squeezed=e_sq, enqfi_coherent=e_coh,
                cfi_fock=cfi_val, qfi_fock=qfi_val,
                valid_short_time=lin.valid_short_time,
            )
        )
    return out


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(x, ".9g")


def scaling_table_csv(table: Sequence[ScalingRow]) -> str:
    """Fixed-schema CSV body for a scaling table."""
    lines = [SCALING_TABLE_HEADER]
    for row in table:
        lines.append(
            ",".join(
                [
                    str(row.n),
                    _fmt(row.nbar),
                    _fmt(row.fock_linear),
                    _fmt(row.fock_quadratic),
                    _fmt(row.squeezed),
                    _fmt(row.coherent),
                    _fmt(row.enqfi_fock_linear),
                    _fmt(row.enqfi_squeezed),
                    _fmt(row.enqfi_coherent),
                    _fmt(row.cfi_fock),
                    _fmt(row.qfi_fock),
                    "true" if row.valid_short_time else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"
