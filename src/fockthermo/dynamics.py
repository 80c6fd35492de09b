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

On the truncated space the top Fock level has no upward channel (the
matrix element to the discarded level |dim> does not exist), so the
truncated generator is exactly trace preserving; the leakage budget then
monitors the genuinely physical truncation error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bath import Rates
from .errors import DomainError, PositivityError, TruncationError
from .fockspace import LEAKAGE_BUDGET, BandState

# Populations inside this band of zero are roundoff and are clipped;
# anything more negative aborts the run.
NEGATIVE_CLIP = 1e-12


@dataclass(frozen=True)
class BandGenerator:
    """The birth-death generator G of the populations at one pair of
    ``rates``, built once and applied at any t by :func:`evolve`. Only the
    tridiagonal is kept; the dense exponential assembles its matrix at its
    own t. With u[m] = m+1 (the diagonal of a a^dag) and u[dim-1] = 0,
    because the top level carries no upward channel:

    * G[m, m]   = -Gamma- m - Gamma+ u[m];
    * G[m, m-1] = Gamma+ m,          absorption from level m-1;
    * G[m, m+1] = Gamma- (m+1),      emission from level m+1.

    Its columns sum exactly to zero. ``sub[m]`` is G[m, m-1] and ``sup[m]``
    is G[m, m+1]; both are zero where they would leave the space.
    """

    rates: Rates
    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    @classmethod
    def build(cls, dim: int, rates: Rates) -> "BandGenerator":
        m = np.arange(float(dim))
        u = m + 1.0
        u[-1] = 0.0
        gp, gm = rates.gamma_plus, rates.gamma_minus
        # rates large enough to overflow the generator are refused by evolve's
        # finiteness check on the propagated populations
        with np.errstate(all="ignore"):
            sup = gm * (m + 1.0)
            sup[-1] = 0.0
            return cls(rates=rates, diag=-(gm * m) - gp * u, sub=gp * m, sup=sup)

    @property
    def dim(self) -> int:
        return self.diag.size

    def dense(self, t: float) -> np.ndarray:
        """t G as a dense matrix, for t > 0. Each entry is (x + 0.0) * t,
        the bits of the sum of three np.diag matrices times t, signed zeros
        included. Strided writes into one zero matrix build it about five
        times faster than that sum (17 against 93 us at n = 180 on a Xeon
        core), and a temperature sweep of fock:20 builds 480 such matrices
        per 96 temperatures."""
        n = self.dim
        out = np.zeros((n, n))
        flat = out.reshape(-1)
        flat[::n + 1] = (self.diag + 0.0) * t
        flat[n::n + 1] = (self.sub[1:] + 0.0) * t
        flat[1::n + 1] = (self.sup[:-1] + 0.0) * t
        return out


def population_vector(p: np.ndarray) -> np.ndarray:
    """Validate a photon-number distribution and clip its roundoff negatives."""
    p = np.asarray(p, dtype=float).copy()
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


def evolve(state: BandState, rates: Rates | BandGenerator, t: float) -> BandState:
    """Propagate the populations for a time t by the dense exponential of
    their generator, under the bath ``rates`` or a :class:`BandGenerator`
    built from them (the same bits either way).

    A population below -NEGATIVE_CLIP raises :class:`PositivityError`, and
    smaller negatives are clipped to zero. Trace is preserved within 1e-9,
    and the top-level population at t is checked against
    ``LEAKAGE_BUDGET``; a violation raises :class:`TruncationError` with a
    raise-dim diagnostic. A generator of another dim than the state's, and
    a propagated population that is not finite, raise :class:`DomainError`.
    """
    _check_time(t)
    if t == 0.0:
        return state
    generator = (rates if isinstance(rates, BandGenerator)
                 else BandGenerator.build(state.dim, rates))
    if generator.dim != state.dim:
        raise DomainError(f"the generator was built for dim {generator.dim}, not for this "
                          f"dim-{state.dim} state")
    p0 = population_vector(state.populations)
    with np.errstate(all="ignore"):
        p = expm(generator.dense(t)) @ p0
    if not np.all(np.isfinite(p)):
        r = generator.rates
        raise DomainError(
            f"the dense population exponential is not finite at Gamma0*t={r.gamma0 * t:.3e} "
            f"(Gamma-*t={r.gamma_minus * t:.3e})"
        )
    low = float(p.min())
    if low < -NEGATIVE_CLIP:
        raise PositivityError(f"population {low:.3e} from the exponential propagator")
    p[p < 0.0] = 0.0
    if p[-1] > LEAKAGE_BUDGET:
        raise TruncationError(
            f"top-level population {p[-1]:.3e} exceeded the leakage budget "
            f"{LEAKAGE_BUDGET:.0e} by t={t:.6g}; raise dim"
        )
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
