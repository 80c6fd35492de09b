"""Dissipative evolution of the probe state.

The generator is the purely dissipative master equation

    d rho/dt = Gamma+ D[a^dag] rho + Gamma- D[a] rho,
    D[O] rho = O rho O^dag - (O^dag O rho + rho O^dag O) / 2,

which is phase covariant: it maps the coherence band k = j - i of rho
(the entries rho[m, m+k]) onto itself. Each band therefore evolves under
its own (dim-k) x (dim-k) tridiagonal generator, and ``evolve`` applies
the exact matrix exponential of that generator band by band. Band 0 is
the birth-death generator of the photon-number populations.

On the truncated space the top Fock level has no upward channel (the
matrix element to the discarded level |dim> does not exist), so the
truncated generator is exactly trace preserving; the leakage budget then
monitors the genuinely physical truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bath import Rates
from .errors import DomainError, PositivityError, TruncationError
from .fockspace import LEAKAGE_BUDGET, DensityMatrix

# Populations inside this band of zero are roundoff and are clipped;
# anything more negative aborts the run.
NEGATIVE_CLIP = 1e-12


def band_generator(dim: int, k: int, rates: Rates) -> np.ndarray:
    """Tridiagonal generator G of coherence band k: d/dt v = G v for
    v[m] = rho[m, m+k], m = 0 .. dim-k-1.

    With u[m] = m+1 (the diagonal of a a^dag) and u[dim-1] = 0, because the
    top level carries no upward channel:

    * G[m, m]   = -Gamma- (m + k/2) - Gamma+ (u[m] + u[m+k]) / 2;
    * G[m, m-1] = Gamma+ sqrt(m (m+k)),          absorption from rho[m-1, m-1+k];
    * G[m, m+1] = Gamma- sqrt((m+1) (m+k+1)),    emission from rho[m+1, m+1+k].

    Band 0 is the population generator, whose columns sum exactly to zero.
    """
    m = np.arange(float(dim - k))
    u = np.arange(1.0, dim + 1.0)
    u[-1] = 0.0
    gp, gm = rates.gamma_plus, rates.gamma_minus
    diag = -(gm * (m + k / 2)) - gp * ((u[: dim - k] + u[k:]) / 2)
    sub = gp * np.sqrt(m[1:] * (m[1:] + k))
    sup = gm * np.sqrt((m[:-1] + 1) * (m[:-1] + k + 1))
    return np.diag(diag) + np.diag(sub, k=-1) + np.diag(sup, k=1)


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


def evolve(
    rho0: DensityMatrix,
    rates: Rates,
    t: float,
    *,
    leakage_budget: float = LEAKAGE_BUDGET,
) -> DensityMatrix:
    """Propagate rho0 for a time t with the exact exponential of each band.

    Only the coherence bands present in rho0 are propagated; a
    number-diagonal state costs one population exponential. The lower
    triangle is the conjugate of the upper one, so the result is Hermitian
    by construction. Trace is preserved within 1e-9, and the top-level
    population at t is checked against the leakage budget; a violation
    raises :class:`TruncationError` with a raise-dim diagnostic.
    """
    if not (t >= 0.0) or not math.isfinite(t):
        raise DomainError(f"t must be >= 0, got {t!r}")
    if t == 0.0:
        return rho0
    dim = rho0.dim
    p = propagate_populations(population_vector(rho0.populations), rates, t)
    if p[-1] > leakage_budget:
        raise TruncationError(
            f"top-level population {p[-1]:.3e} exceeded the leakage budget "
            f"{leakage_budget:.0e} by t={t:.6g}; raise dim"
        )
    mat = np.diag(p).astype(complex)
    rows, cols = np.nonzero(np.triu(rho0.mat, 1))
    for k in np.unique(cols - rows):
        m = np.arange(dim - k)
        band = expm(band_generator(dim, k, rates) * t) @ rho0.mat.diagonal(k)
        mat[m, m + k] = band
        mat[m + k, m] = band.conj()
    trace_defect = abs(mat.trace().real - 1.0)
    if trace_defect > 1e-9:
        raise PositivityError(f"trace drifted by {trace_defect:.3e} during evolution")
    return DensityMatrix(mat)


def propagate_populations(p0: np.ndarray, rates: Rates, t: float) -> np.ndarray:
    """Exact action of exp(W t) on a population vector, with roundoff clipping."""
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    p0 = np.asarray(p0, dtype=float)
    if t == 0.0:
        return p0.copy()
    p = expm(band_generator(p0.size, 0, rates) * t) @ p0
    low = float(p.min())
    if low < -NEGATIVE_CLIP:
        raise PositivityError(f"population {low:.3e} from the exponential propagator")
    p[p < 0.0] = 0.0
    return p


def mean_photon_analytic(n0: float, rates: Rates, t: float) -> float:
    """Closed-form first moment n0 e^{-Gamma0 t} + nbar (1 - e^{-Gamma0 t}).

    The mean obeys d<n>/dt = -Gamma0 <n> + Gamma+ for every initial state,
    so this serves as a state-independent oracle for the propagator.
    """
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    decay = math.exp(-rates.gamma0 * t)
    return n0 * decay + rates.nbar * (-math.expm1(-rates.gamma0 * t))


@dataclass(frozen=True)
class ShortTimePopulations:
    """First-order populations of the levels adjacent to a Fock state."""

    p_below: float
    p_stay: float
    p_above: float
    valid: bool


def short_time_populations(n: int, rates: Rates, t: float) -> ShortTimePopulations:
    """Linear-response populations p_{n+1} = Gamma+ t (n+1), p_{n-1} = Gamma- t n.

    Clipped to [0, 1]; ``valid`` is False once Gamma0 t (2n+1) > 0.1, where
    first-order leakage stops being a faithful description.
    """
    if n < 0 or t < 0.0:
        raise DomainError(f"need n >= 0 and t >= 0, got n={n!r}, t={t!r}")
    p_above = rates.gamma_plus * t * (n + 1)
    p_below = rates.gamma_minus * t * n
    p_stay = 1.0 - p_above - p_below
    clip = lambda x: min(1.0, max(0.0, x))
    return ShortTimePopulations(
        p_below=clip(p_below),
        p_stay=clip(p_stay),
        p_above=clip(p_above),
        valid=rates.gamma0 * t * (2 * n + 1) <= 0.1,
    )
