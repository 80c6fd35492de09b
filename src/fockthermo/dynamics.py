"""Dissipative evolution of the probe's photon-number populations.

The generator is the purely dissipative master equation

    d rho/dt = Gamma+ D[a^dag] rho + Gamma- D[a] rho,
    D[O] rho = O rho O^dag - (O^dag O rho + rho O^dag O) / 2,

which is phase covariant: it maps the coherence band k = j - i of rho
(the entries rho[m, m+k]) onto itself. Band 0, the photon-number
populations, therefore evolves on its own. No coherence band is
propagated: the package reads nothing off the evolved probe but its
populations (:mod:`fockthermo.fockspace`). Two propagators evolve them.

:func:`attenuate` takes a Fock, coherent or squeezed probe's populations
through the thermal-attenuator channel that the master equation
integrates to, a pure loss followed by a quantum-limited amplifier: two
kernels of positive binomial terms, O(dim^2) per time, and the exact
derivative q K p of the result in nbar. It is the untruncated evolution
read on the kept levels; the mass it leaves above them is the leakage.

:func:`evolve` propagates a thermal probe's populations, for the
five-temperature stencil of :mod:`fockthermo.fisher`, by one dense matrix
exponential of the tridiagonal birth-death generator, taken afresh on
every call at t > 0. exp(t G) depends on nothing but (dim, Gamma+,
Gamma-, t), so :func:`evolve` takes the bath rates alone and assembles
t G from them. On the truncated space the top Fock level has no upward
channel (the matrix element to the discarded level |dim> does not
exist), so the truncated generator is exactly trace preserving; the
leakage budget then monitors the genuinely physical truncation error.

scipy is loaded on the first thermal propagation, and only then: the
channel runs on numpy alone, so importing the package, and evaluating
every Fock, coherent and squeezed probe, leaves scipy unloaded.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bath import Rates
from .errors import DomainError, PositivityError, TruncationError
from .fockspace import LEAKAGE_BUDGET, BandState

# Populations inside this band of zero are roundoff and are clipped;
# anything more negative aborts the run.
NEGATIVE_CLIP = 1e-12


def expm(A: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm(A)``, with scipy imported on the first call.
    That import costs about 0.2 s and 26 MiB of resident memory (2-vCPU
    Xeon), and no probe but a thermal one needs it."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(A)


def _propagator(dim: int, rates: Rates, t: float) -> np.ndarray:
    """exp(t G) of the populations at ``rates``. Called under
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
    core), and a temperature sweep builds 480 such matrices per 96
    temperatures for each of thermal:0.5 (dim 40) and thermal:5.0 (dim 144).
    """
    gp, gm = rates.gamma_plus, rates.gamma_minus
    m = np.arange(float(dim))
    u = m + 1.0
    u[-1] = 0.0
    tg = np.zeros((dim, dim))
    flat = tg.reshape(-1)
    flat[::dim + 1] = (-(gm * m) - gp * u + 0.0) * t
    flat[dim::dim + 1] = (gp * m[1:] + 0.0) * t
    flat[1::dim + 1] = (gm * m[1:] + 0.0) * t
    # looked up at call time, so that a wrapped expm sees every call
    return expm(tg)


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
    the state and leakage checks.
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


@functools.lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """The read-only table log k! for k < n, from ``math.lgamma``."""
    table = np.array([math.lgamma(k + 1.0) for k in range(n)])
    table.flags.writeable = False
    return table


def _binomial_terms(rows: int, cols: int, log_x: float, log_y: float) -> np.ndarray:
    """B[b, s] = C(b, s) x^s y^(b-s) for b < rows and s < cols <= rows, 0
    where s > b, each term the exponential of its logarithm
    log b! - log s! - log (b-s)! + s log_x + (b-s) log_y, with log_y finite.
    The part in b - s alone is one vector read as a Toeplitz matrix, -inf
    where s > b. x^0 is 1 also where x = 0 (log_x = -inf, Gamma0 t = inf),
    and s log_x overflows to -inf where x^s underflows to 0."""
    log_fact = _log_factorials(rows)
    by_gap = np.empty(cols - 1 + rows)  # entry cols - 1 + g holds gap g = b - s
    by_gap[: cols - 1] = -np.inf
    by_gap[cols - 1:] = np.arange(rows) * log_y - log_fact
    step = by_gap.strides[0]
    toeplitz = np.lib.stride_tricks.as_strided(by_gap[cols - 1:], shape=(rows, cols),
                                               strides=(step, -step), writeable=False)
    powers = np.zeros(cols)
    with np.errstate(over="ignore"):
        powers[1:] = np.arange(1, cols) * log_x
    return np.exp(toeplitz + log_fact[:, None] + (powers - log_fact[:cols]))


def attenuate(state: BandState, rates: Rates, t: float) -> tuple[BandState, np.ndarray, float]:
    """The populations after a time t under the bath ``rates``, by the
    thermal-attenuator channel, their derivative in nbar, and the leakage.

    The channel of transmissivity eta = exp(-Gamma0 t) and added noise
    N = nbar q, q = 1 - eta, is a pure loss of transmissivity
    tau = eta / (1 + N) followed by a quantum-limited amplifier of gain
    G = 1 + N (Caruso, Giovannetti & Holevo, New J. Phys. 8, 310, 2006).
    On populations both are kernels of positive terms,

        loss:      L[j, k] = C(k, j) tau^j (1 - tau)^(k-j),
        amplifier: A[m, j] = C(m, j) G^-(j+1) (1 - 1/G)^(m-j),

    whose logarithms are formed without cancellation. The result is the
    untruncated evolution on levels 0..dim: no level is cut off, and the
    kept levels are never renormalised.

    Gamma0 does not depend on nbar, and the generator G = Gamma0 D[a] +
    Gamma0 nbar K, K = D[a] + D[a^dag], obeys [G, K] = -Gamma0 K, so
    d p/d nbar = q K p(t) exactly, with (K p)_m = (m+1) p_{m+1} + m p_{m-1}
    - (2m+1) p_m; level dim supplies the top row's p_{m+1}.

    The state is checked by :func:`population_vector` first, at every t.
    The leakage is the mass left at and above level dim, 1 - sum_{m<dim}
    p_m; it, and the top-level population, are checked against
    ``LEAKAGE_BUDGET``, and a violation raises :class:`TruncationError` with
    a raise-dim diagnostic. A population that is not finite raises
    :class:`DomainError`. Where q is 0 (t = 0) the state is returned as it
    is, with a zero derivative, after the state and leakage checks.
    """
    _check_time(t)
    p0 = population_vector(state.populations)
    dim = state.dim
    g0t = rates.gamma0 * t
    q = -math.expm1(-g0t)
    if q == 0.0:
        p, dp, out = p0, np.zeros(dim), state
    else:
        noise = mean_photon_analytic(0.0, rates, t)
        log_gain = math.log1p(noise)
        lost = _binomial_terms(dim, dim, -g0t - log_gain, math.log(q + noise) - log_gain).T @ p0
        if noise > 0.0:
            amplify = _binomial_terms(dim + 1, dim, -log_gain, math.log(noise) - log_gain)
            wide = amplify @ lost * math.exp(-log_gain)
        else:
            wide = np.append(lost, 0.0)
        if not np.all(np.isfinite(wide)):
            raise DomainError(
                f"the thermal-attenuator populations are not finite at Gamma0*t={g0t:.3e} "
                f"(N={noise:.3e})"
            )
        m = np.arange(dim + 1.0)
        flow = m[1:] * wide[1:]  # (m+1) p_{m+1} on level m
        k_p = flow - (2.0 * m[:-1] + 1.0) * wide[:-1]
        k_p[1:] += m[1:-1] * wide[:-2]
        p, dp = wide[:-1], q * k_p
        out = BandState(p)
    _check_leakage(p, t)
    leakage = max(0.0, 1.0 - float(p.sum()))
    if leakage > LEAKAGE_BUDGET:
        raise TruncationError(
            f"the channel leaves {leakage:.3e} at and above level {dim} by t={t:.6g}, over "
            f"the leakage budget {LEAKAGE_BUDGET:.0e}; raise dim"
        )
    return out, dp, leakage


def mean_photon_analytic(n0: float, rates: Rates, t: float) -> float:
    """Closed-form first moment n0 e^{-Gamma0 t} + nbar (1 - e^{-Gamma0 t}).

    The mean obeys d<n>/dt = -Gamma0 <n> + Gamma+ for every initial state,
    so this serves as a state-independent oracle for the propagator.
    Where 1 - e^{-Gamma0 t} is 0 the bath has added nothing, and nbar is
    not read: an uncoupled bath (Gamma0 = 0) has no nbar to read.
    """
    _check_time(t)
    decay = math.exp(-rates.gamma0 * t)
    q = -math.expm1(-rates.gamma0 * t)
    return n0 * decay + (rates.nbar * q if q else 0.0)


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
