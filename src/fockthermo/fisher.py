"""Temperature-sensitivity measures of the evolved probe.

The state derivative is taken end to end: the evolution is run at
shifted bath temperatures and differenced centrally with one Richardson
step, so a single code path covers every probe class. The state is the
:class:`~fockthermo.fockspace.BandState` of the coherence bands the probe
carries, and its derivative is the difference of those stacked vectors;
where the result cannot depend on the coherences (the CFI alone) band 0,
the photon-number populations, is propagated and differenced alone. From
(rho, d rho/dT) two figures of merit follow:

* number-basis classical Fisher information sum_m (dp_m)^2 / p_m, and
* the full quantum Fisher information
  2 sum_{ij} |<i| d rho |j>|^2 / (lambda_i + lambda_j)
  over the eigendecomposition of rho, which for a state without
  coherences is the number basis itself.

For number-diagonal states the two coincide; for states with coherences
the quantum value can only be larger. A time curve is taken one time at a
time, with the five stencil generators built once for all of its times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bath import BathParams, rates
from .dynamics import BandGenerator, evolve
from .errors import DomainError, SingularSupportError
from .fockspace import EIGENVALUE_FLOOR, BandState
from .probes import ProbeSpec, default_dim, make_state

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
    """The evolved :class:`BandState`, its temperature derivative ``dstate``,
    the temperature step and the leakage. ``rho`` is that state and ``drho``
    the d x d matrix of its derivative, float64 for a probe whose coherences
    are real and complex128 otherwise; both refuse when ``coherences_dropped``.
    Then ``state`` and ``dstate`` hold band 0 alone: the probe's coherences
    were never propagated, and only the CFI can be reduced.
    """

    state: BandState
    dstate: BandState
    h_used: float
    leakage: float
    coherences_dropped: bool = False

    @property
    def dim(self) -> int:
        return self.state.dim

    @property
    def populations(self) -> tuple[np.ndarray, np.ndarray]:
        """The photon-number distribution p and dp/dT."""
        return self.state.populations, self.dstate.populations

    def _require_whole_state(self) -> None:
        if self.coherences_dropped:
            raise DomainError(
                "the coherences of this probe were not propagated; only the CFI can be reduced"
            )

    @property
    def rho(self) -> BandState:
        """The evolved state, every band the probe carries."""
        self._require_whole_state()
        return self.state

    @property
    def drho(self) -> np.ndarray:
        """d rho/dT as a d x d matrix."""
        self._require_whole_state()
        return self.dstate.matrix()


def d_dT_state(
    probe: ProbeSpec,
    bath: BathParams,
    t: float,
    *,
    dim: int | None = None,
    methods: Iterable[FisherMethod] = tuple(FisherMethod),
) -> TemperatureDerivative:
    """Evolved state rho(t; T) and its central-difference d rho/dT, to be
    reduced to the Fisher ``methods``: :func:`d_dT_curve` at the one time t.
    """
    (deriv,) = d_dT_curve(probe, bath, [t], dim=dim, methods=methods)
    return deriv


def d_dT_curve(
    probe: ProbeSpec,
    bath: BathParams,
    t_grid: Sequence[float],
    *,
    dim: int | None = None,
    methods: Iterable[FisherMethod] = tuple(FisherMethod),
) -> Iterator[TemperatureDerivative]:
    """The derivative of :func:`d_dT_state` at each t of ``t_grid``, in order.

    The probe itself is temperature independent; only the bath rates move.
    The grid is checked, the truncation sized and the probe prepared once.
    At each t the probe is propagated under the five stencil temperatures
    T, T +- h, T +- h/2, each of whose band generators is built the first
    time it is needed and reused at every later t. The h and h/2 estimates
    combine by one Richardson step as (4 D_{h/2} - D_h) / 3, on the
    populations and on the stacked coherence bands alike. When ``methods``
    is the CFI alone, only the populations are propagated and differenced.

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
    cfi_only = {FisherMethod(m) for m in methods} == {FisherMethod.CFI_NUMBER}
    dropped = cfi_only and state.bands.size > 0
    state = BandState(state.populations) if dropped else state

    h = max(H_REL * bath.T, H_ABS_FLOOR)
    while bath.T - h <= 0.0:
        h /= 2.0
        # the difference quotients below divide by h
        if bath.T + h == bath.T or math.isinf(1.0 / h):
            raise DomainError(f"derivative step underflowed at T={bath.T!r}")

    def difference(plus, minus, plus2, minus2):
        # numpy divides a complex array by a real scalar as a product with the
        # reciprocal; the explicit products give the populations the same bits
        full = (plus - minus) * (1.0 / (2.0 * h))
        half = (plus2 - minus2) * (1.0 / h)
        return (4.0 * half - full) * (1.0 / 3.0)

    temperatures = (bath.T, bath.T + h, bath.T - h, bath.T + h / 2.0, bath.T - h / 2.0)
    generators: list[BandGenerator] = []
    for t in t_grid:
        states = []
        for j, T_shifted in enumerate(temperatures):
            if j == len(generators):  # at the first t, where a single point builds it
                generators.append(
                    BandGenerator.build(state, rates(bath.with_temperature(T_shifted))))
            states.append(evolve(state, generators[j], t))
        dp = difference(*(s.populations for s in states[1:]))
        dv = difference(*(s.coherences for s in states[1:]))
        yield TemperatureDerivative(
            state=states[0],
            dstate=BandState(dp, state.bands, dv),
            h_used=h,
            leakage=max(float(s.populations[-1]) for s in states),
            coherences_dropped=dropped,
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


def qfi_sld_detailed(state: BandState, dstate: BandState) -> tuple[float, int]:
    """Quantum Fisher information from the symmetric logarithmic derivative,
    plus the number of eigenpairs dropped by the spectral floor.

    Eigenvalues with |lambda| < EIGENVALUE_FLOOR are treated as exact zeros,
    and pairs with lambda_i + lambda_j <= EIGENVALUE_FLOOR are excluded from
    the sum. A state without coherence bands is diagonal in the number basis,
    so its populations are the eigenvalues and no matrix is assembled; a state
    with real coherences is reduced by a real symmetric eigendecomposition.
    """
    if dstate.dim != state.dim:
        raise DomainError(f"state and derivative dims differ: {state.dim} vs {dstate.dim}")
    coherent = state.bands.size > 0
    lam, vecs = np.linalg.eigh(state.matrix()) if coherent else (state.populations, None)
    # below the floor, and roundoff negatives, are zeros: no denominator can
    # sit near zero with the wrong sign (positivity is checked upstream)
    lam = np.where(lam < EIGENVALUE_FLOOR, 0.0, lam)
    denom = lam[:, None] + lam[None, :]
    keep = denom > EIGENVALUE_FLOOR
    if coherent:
        m = vecs.conj().T @ dstate.matrix() @ vecs
        value = 2.0 * float(np.sum(np.abs(m[keep]) ** 2 / denom[keep]))
    else:  # only the diagonal pairs carry weight
        on = keep.diagonal()
        value = 2.0 * float(np.sum(dstate.populations[on] ** 2 / denom.diagonal()[on]))
    dropped = int(keep.size - int(keep.sum()))
    return value, dropped


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
    was reduced from: its dimension, leakage and temperature step, and the
    eigenpairs the QFI's spectral floor dropped (0 for the CFI)."""

    value: float
    method: str
    dim: int
    leakage: float
    h_used: float
    dropped_pairs: int

    @property
    def delta_t_min(self) -> float:
        return delta_t_min(self.value)


def fisher_record(deriv: TemperatureDerivative, method: FisherMethod) -> QfiRecord:
    """Reduce a temperature derivative to the Fisher information of ``method``.

    Every method reduces the same derivative, so a caller wanting several
    evaluates :func:`d_dT_state` once, for all of them.
    """
    method = FisherMethod(method)
    dropped = 0
    if method is FisherMethod.CFI_NUMBER:
        value = cfi_number_basis(*deriv.populations)
    else:
        deriv._require_whole_state()
        value, dropped = qfi_sld_detailed(deriv.state, deriv.dstate)
    return QfiRecord(
        value=value,
        method=method.value,
        dim=deriv.dim,
        leakage=deriv.leakage,
        h_used=deriv.h_used,
        dropped_pairs=dropped,
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
    deriv = d_dT_state(probe, bath, t, dim=dim, methods=(method,))
    return fisher_record(deriv, method)


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
    derivs = d_dT_curve(probe, bath, t_grid, dim=dim, methods=(method,))
    return [fisher_record(deriv, method) for deriv in derivs]
