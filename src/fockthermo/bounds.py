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

Each form returns its value as a float, 0.0 where nbar underflows, and a
negative excitation or t, or a value that is not a finite float >= 0,
raises DomainError. Whether the first-order picture holds at (bath, t, n)
is :func:`short_time_valid`, which callers evaluate beside the value.

:func:`scaling_table` sets the four side by side at matched mean energy
nbar = n; its CSV header is the field order of :class:`ScalingRow`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .bath import (BathParams, base_rate, omega_over_T2, rates, thermal_occupation,
                   thermal_occupation_dT)
from .errors import DomainError
from .fisher import FisherMethod, d_dT_state, fisher_record
from .probes import ProbeSpec

SHORT_TIME_LIMIT = 0.1


def short_time_valid(bath: BathParams, t: float, excitation: float) -> bool:
    """First-order leakage stays below 10%: Gamma0 t (2n+1) <= 0.1."""
    return base_rate(bath) * t * (2.0 * excitation + 1.0) <= SHORT_TIME_LIMIT


def _closed_form(bound):
    """Every guard of a closed form in one place: a negative excitation or t,
    float overflow or a divisor underflowing to zero in the formula, and a
    value that is not finite or is negative each raise DomainError."""

    @functools.wraps(bound)
    def checked(excitation: int | float, bath: BathParams, t: float) -> float:
        if excitation < 0 or t < 0.0:
            raise DomainError(f"need excitation >= 0 and t >= 0, got ({excitation!r}, {t!r})")
        try:
            value = bound(excitation, bath, t)
        except (OverflowError, ZeroDivisionError) as exc:
            why = "it overflows double precision" if isinstance(exc, OverflowError) else exc
            raise DomainError(f"{bound.__name__} is not representable here: {why}") from None
        if not math.isfinite(value):
            raise DomainError(f"{bound.__name__} value is not representable, got {value!r}")
        if value < 0.0:
            raise DomainError(f"{bound.__name__} value must be >= 0, got {value!r}")
        return value

    return checked


@_closed_form
def bound_fock_linear(n: int, bath: BathParams, t: float) -> float:
    """Linear-in-time law from first-order population leakage of |n>."""
    nT = thermal_occupation(bath.omega, bath.T)
    if nT == 0.0:
        return 0.0
    dn = thermal_occupation_dT(bath.omega, bath.T)
    bracket = (n + 1.0) / nT + n / (nT + 1.0)
    return t * base_rate(bath) * dn**2 * bracket


@_closed_form
def bound_fock_quadratic(n: int, bath: BathParams, t: float) -> float:
    """Quadratic-in-time form weighted by the log-derivatives of both rates.

    Both rate derivatives equal Gamma0 * dT nbar, so the log-derivatives
    reduce to dT nbar / nbar and dT nbar / (nbar + 1).
    """
    r = rates(bath)
    if r.gamma_plus == 0.0:
        return 0.0
    gp, gm = r.gamma_plus, r.gamma_minus
    d_rate = r.gamma0 * thermal_occupation_dT(bath.omega, bath.T)
    term = n * (d_rate / gp) ** 2 + (n + 1.0) * (d_rate / gm) ** 2
    if min(term, t**2 * term) < sys.float_info.min:
        # a subnormal factor would round the value away (T >~ 1e150, or
        # tiny t); regrouped, no factor underflows unless the value does
        return (t * d_rate) ** 2 * (n * (gm / gp) + (n + 1.0) * (gp / gm))
    return t**2 * term * gp * gm


def _dlog_occupation(bath: BathParams) -> float:
    # dT ln nbar = (omega/T^2)(nbar + 1): stable even when nbar underflows
    n1 = thermal_occupation(bath.omega, bath.T) + 1.0
    return omega_over_T2(bath.omega, bath.T, n1)


@_closed_form
def bound_squeezed(nbar: float, bath: BathParams, t: float) -> float:
    """Quadratic Gaussian form 4 nbar (nbar+1) (dT ln nbar_T)^2 t^2."""
    return 4.0 * nbar * (nbar + 1.0) * _dlog_occupation(bath) ** 2 * t**2


@_closed_form
def bound_coherent(nbar: float, bath: BathParams, t: float) -> float:
    """Quadratic Gaussian form nbar (dT ln nbar_T)^2 t^2."""
    return nbar * _dlog_occupation(bath) ** 2 * t**2


@dataclass(frozen=True)
class ScalingRow:
    """One row of the scaling table; the field order is the CSV header."""

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
    methods: Sequence[FisherMethod] = (),
    dim: int | None = None,
) -> list[ScalingRow]:
    """All four closed forms at matched mean energy nbar = n per row, next to
    the simulated Fisher information of the Fock probe for each of
    ``methods`` (``cfi_fock``, ``qfi_fock``; None where not requested). An
    excitation number that is not a finite integer >= 0 raises DomainError
    before any row is computed."""
    methods = [FisherMethod(m) for m in methods]
    n_list = list(n_list)
    for n in n_list:
        if not (0 <= n < math.inf and n == int(n)):
            raise DomainError(f"excitation numbers must be finite integers >= 0, got {n!r}")
    out = []
    for n in n_list:
        n = int(n)
        lin = bound_fock_linear(n, bath, t)
        quad = bound_fock_quadratic(n, bath, t)
        sq = bound_squeezed(float(n), bath, t)
        coh = bound_coherent(float(n), bath, t)
        if n > 0:  # the enqfi_* columns: Fisher information per mean photon
            e_lin, e_sq, e_coh = (value / float(n) for value in (lin, sq, coh))
        else:
            e_lin = e_sq = e_coh = math.nan
        numerics = {}
        if methods:
            deriv = d_dT_state(ProbeSpec.fock(n), bath, t, dim=dim, methods=methods)
            numerics = {m: fisher_record(deriv, m).value for m in methods}
        out.append(
            ScalingRow(
                n=n, nbar=float(n),
                fock_linear=lin, fock_quadratic=quad, squeezed=sq, coherent=coh,
                enqfi_fock_linear=e_lin, enqfi_squeezed=e_sq, enqfi_coherent=e_coh,
                cfi_fock=numerics.get(FisherMethod.CFI_NUMBER),
                qfi_fock=numerics.get(FisherMethod.QFI_SLD),
                valid_short_time=short_time_valid(bath, t, n),
            )
        )
    return out
