"""Dissipative evolution of the probe's photon-number populations.

The generator is the purely dissipative master equation

    d rho/dt = Gamma+ D[a^dag] rho + Gamma- D[a] rho,
    D[O] rho = O rho O^dag - (O^dag O rho + rho O^dag O) / 2,

which is phase covariant: it maps the coherence band k = j - i of rho
(the entries rho[m, m+k]) onto itself. Band 0, the photon-number
populations, therefore evolves on its own under the tridiagonal
birth-death generator, and :func:`evolve` propagates it by one dense
matrix exponential. No coherence band is propagated: the package reads
nothing off the evolved probe but its populations
(:mod:`fockthermo.fockspace`).

The exponential exp(t G) depends on nothing but (dim, Gamma+, Gamma-, t),
so each distinct such key is exponentiated once per process and shared by
every probe, curve and sweep task that propagates under it: ``PROPAGATORS``
keeps the read-only matrices, least recently used first out, within a
1 MiB budget. :func:`evolve` therefore takes the bath rates alone, and t G
is assembled from (dim, rates, t) only where its exponential is not kept.
A hit returns exactly the bits that a recomputation would; every check of
:func:`evolve` still runs on every call.

On the truncated space the top Fock level has no upward channel (the
matrix element to the discarded level |dim> does not exist), so the
truncated generator is exactly trace preserving; the leakage budget then
monitors the genuinely physical truncation error.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bath import Rates
from .errors import DomainError, PositivityError, TruncationError
from .fockspace import LEAKAGE_BUDGET, BandState

# Populations inside this band of zero are roundoff and are clipped;
# anything more negative aborts the run.
NEGATIVE_CLIP = 1e-12

# Bytes of propagators kept for reuse: four d = 180 matrices, or the 45
# d = 40 matrices (five stencil temperatures at nine times) of a curve.
PROPAGATOR_BUDGET = 1 << 20


class PropagatorCache:
    """The matrices exp(t G) keyed by (dim, Gamma+, Gamma-, t), least
    recently used first, holding at most ``budget`` bytes in all. A matrix
    larger than the budget is not kept."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> np.ndarray | None:
        matrix = self._entries.get(key)
        if matrix is not None:
            self._entries.move_to_end(key)
        return matrix

    def put(self, key: tuple, matrix: np.ndarray) -> None:
        if matrix.nbytes > self.budget:
            return
        self._entries[key] = matrix
        self.nbytes += matrix.nbytes
        while self.nbytes > self.budget:
            self.nbytes -= self._entries.popitem(last=False)[1].nbytes

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


PROPAGATORS = PropagatorCache(PROPAGATOR_BUDGET)


def _propagator(dim: int, rates: Rates, t: float) -> np.ndarray:
    """The read-only exp(t G) of the populations at ``rates``, from
    ``PROPAGATORS`` or exponentiated and kept there. Called under
    :func:`evolve`'s ``np.errstate``: rates large enough to overflow t G
    give a non-finite exponential, which is refused there.

    G is the birth-death generator. With u[m] = m+1 (the diagonal of
    a a^dag) and u[dim-1] = 0, because the top level carries no upward
    channel:

    * G[m, m]   = -Gamma- m - Gamma+ u[m];
    * G[m, m-1] = Gamma+ m,          absorption from level m-1;
    * G[m, m+1] = Gamma- (m+1),      emission from level m+1.

    Its columns sum exactly to zero. Each entry of t G is (x + 0.0) * t,
    the bits of the sum of three np.diag matrices times t, signed zeros
    included. Strided writes into one zero matrix build it about five
    times faster than that sum (17 against 93 us at n = 180 on a Xeon
    core), and a temperature sweep of fock:20 builds 480 such matrices
    per 96 temperatures.
    """
    gp, gm = rates.gamma_plus, rates.gamma_minus
    key = (dim, gp, gm, t)
    matrix = PROPAGATORS.get(key)
    if matrix is None:
        m = np.arange(float(dim))
        u = m + 1.0
        u[-1] = 0.0
        tg = np.zeros((dim, dim))
        flat = tg.reshape(-1)
        flat[::dim + 1] = (-(gm * m) - gp * u + 0.0) * t
        flat[dim::dim + 1] = (gp * m[1:] + 0.0) * t
        flat[1::dim + 1] = (gm * m[1:] + 0.0) * t
        # looked up at call time, so that a wrapped expm sees every miss
        matrix = expm(tg)
        matrix.flags.writeable = False
        PROPAGATORS.put(key, matrix)
    return matrix


def population_vector(p: np.ndarray) -> np.ndarray:
    """Validate a photon-number distribution and clip its roundoff negatives."""
    p = np.asarray(p, dtype=float).copy()
    finite = np.isfinite(p)
    if not finite.all():
        m = int(np.argmin(finite))
        raise DomainError(f"populations must be finite, got {float(p[m])!r} at m={m}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise DomainError(f"populations must sum to 1 within 1e-9, defect {abs(p.sum()-1.0):.3e}")
    low = float(p.min())
    if low < -NEGATIVE_CLIP:
        raise PositivityError(f"population {low:.3e} below the roundoff clip {-NEGATIVE_CLIP:.0e}")
    p[p < 0.0] = 0.0
    return p


def _check_time(t: float) -> None:
    if not (t >= 0.0) or not math.isfinite(t):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")


def _check_leakage(p: np.ndarray, t: float) -> None:
    if p[-1] > LEAKAGE_BUDGET:
        raise TruncationError(
            f"top-level population {p[-1]:.3e} exceeded the leakage budget "
            f"{LEAKAGE_BUDGET:.0e} by t={t:.6g}; raise dim"
        )


def evolve(state: BandState, rates: Rates, t: float) -> BandState:
    """Propagate the populations for a time t by the dense exponential of
    their generator under the bath ``rates``.

    The state is checked by :func:`population_vector` first, at every t. A
    population below -NEGATIVE_CLIP raises :class:`PositivityError`, and
    smaller negatives are clipped to zero. Trace is preserved within 1e-9,
    and the top-level population at t is checked against
    ``LEAKAGE_BUDGET``; a violation raises :class:`TruncationError` with a
    raise-dim diagnostic. A propagated population that is not finite raises
    :class:`DomainError`. At t = 0 the state is returned as it is, after
    the state and leakage checks. The exponential comes from
    ``PROPAGATORS`` when its (dim, Gamma+, Gamma-, t) was exponentiated
    before; every check runs anyway.
    """
    _check_time(t)
    p0 = population_vector(state.populations)
    if t == 0.0:
        _check_leakage(p0, t)
        return state
    with np.errstate(all="ignore"):
        p = _propagator(state.dim, rates, t) @ p0
    if not np.all(np.isfinite(p)):
        raise DomainError(
            f"the dense population exponential is not finite at Gamma0*t={rates.gamma0 * t:.3e} "
            f"(Gamma-*t={rates.gamma_minus * t:.3e})"
        )
    low = float(p.min())
    if low < -NEGATIVE_CLIP:
        raise PositivityError(f"population {low:.3e} from the exponential propagator")
    p[p < 0.0] = 0.0
    _check_leakage(p, t)
    trace_defect = abs(p.sum() - 1.0)
    if trace_defect > 1e-9:
        raise PositivityError(f"trace drifted by {trace_defect:.3e} during evolution")
    return BandState(p)


def mean_photon_analytic(n0: float, rates: Rates, t: float) -> float:
    """Closed-form first moment n0 e^{-Gamma0 t} + nbar (1 - e^{-Gamma0 t}).

    The mean obeys d<n>/dt = -Gamma0 <n> + Gamma+ for every initial state,
    so this serves as a state-independent oracle for the propagator.
    """
    _check_time(t)
    decay = math.exp(-rates.gamma0 * t)
    return n0 * decay + rates.nbar * (-math.expm1(-rates.gamma0 * t))


@dataclass(frozen=True)
class ShortTimePopulations:
    """First-order populations of the levels adjacent to a Fock state."""

    p_below: float
    p_stay: float
    p_above: float


def short_time_populations(n: int, rates: Rates, t: float) -> ShortTimePopulations:
    """Linear-response populations p_{n+1} = Gamma+ t (n+1), p_{n-1} = Gamma- t n.

    Clipped to [0, 1]. Whether first-order leakage still describes the state
    at t is ``fockthermo.bounds.short_time_valid``.
    """
    _check_time(t)
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise DomainError(f"the Fock excitation n must be an integer >= 0, got {n!r}")
    p_above = rates.gamma_plus * t * (n + 1)
    p_below = rates.gamma_minus * t * n
    p_stay = 1.0 - p_above - p_below
    clip = lambda x: min(1.0, max(0.0, x))
    return ShortTimePopulations(p_below=clip(p_below), p_stay=clip(p_stay), p_above=clip(p_above))
