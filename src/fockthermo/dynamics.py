"""Dissipative evolution of the probe state.

The generator is the purely dissipative master equation

    d rho/dt = Gamma+ D[a^dag] rho + Gamma- D[a] rho,
    D[O] rho = O rho O^dag - (O^dag O rho + rho O^dag O) / 2,

which is phase covariant: it maps the coherence band k = j - i of rho
(the entries rho[m, m+k]) onto itself. Each band therefore evolves under
its own (dim-k) x (dim-k) tridiagonal generator. Band 0 is the
birth-death generator of the photon-number populations and is applied
as one dense matrix exponential. The bands k >= 1 present in the state
are stacked into one block-diagonal tridiagonal generator and propagated
together by the exact Taylor action of Al-Mohy & Higham; where ||t G||_1
is so large that the action would need more work than the dense
exponential of each band, a closed-form cost rule switches to the dense
exponentials.

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

# theta_m from Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1,
# double precision: s steps of the degree-m Taylor polynomial of exp(tA/s)
# act on a vector with backward error below TAYLOR_TOL once
# ||tA||_1 <= s * theta_m.
TAYLOR_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5,
                35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}
TAYLOR_TOL = 2.0**-53

# The bands k >= 1 go through the Taylor action while
#     ACTION_COST * sum_k (dim-k) * ||t (G - mu I)||_1 <= sum_k (dim-k)^3,
# and through one dense exponential per band otherwise. The action takes
# about 5.6 ||t (G - mu I)||_1 products with the stacked tridiagonal, the
# dense kernel O((dim-k)^3) work per band. Timed with one BLAS thread (Xeon,
# numpy 2.4, scipy 1.17), the two kernels take equal time where the right
# side is 16 to 44 times the left side without ACTION_COST, for coherent
# and squeezed probes at dim = 20..168 and T = 0.5 and 5 (67 times at
# dim = 10, where both take under 0.3 ms); 40 keeps the dense kernel
# wherever it is the faster one by more than a few percent.
ACTION_COST = 40.0


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
    return BandStack.build(dim, np.array([k]), rates).dense_block(0)


@dataclass(frozen=True)
class BandStack:
    """The generators of the bands ``ks`` stacked into one block-diagonal
    tridiagonal matrix G; block i is :func:`band_generator` (dim, ks[i]).

    Entry j of a stacked vector is rho[m[j], m[j] + k[j]]. ``sub[j]`` is
    G[j, j-1] and ``sup[j]`` is G[j, j+1]; both are zero where they would
    couple two blocks.
    """

    starts: np.ndarray  # block i holds the entries starts[i] .. starts[i+1]-1
    m: np.ndarray
    k: np.ndarray
    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    @classmethod
    def build(cls, dim: int, ks: np.ndarray, rates: Rates) -> "BandStack":
        lengths = dim - ks
        starts = np.concatenate(([0], np.cumsum(lengths)))
        k = np.repeat(ks, lengths)
        m = np.arange(float(starts[-1])) - np.repeat(starts[:-1], lengths)
        rows = m.astype(int)
        u = np.arange(1.0, dim + 1.0)
        u[-1] = 0.0
        gp, gm = rates.gamma_plus, rates.gamma_minus
        diag = -(gm * (m + k / 2)) - gp * ((u[rows] + u[rows + k]) / 2)
        sub = gp * np.sqrt(m * (m + k))  # zero on each block's first row, m = 0
        sup = gm * np.sqrt((m + 1) * (m + k + 1))
        sup[starts[1:] - 1] = 0.0  # each block's last row
        return cls(starts=starts, m=rows, k=k, diag=diag, sub=sub, sup=sup)

    def dense_block(self, i: int) -> np.ndarray:
        b = slice(self.starts[i], self.starts[i + 1])
        return np.diag(self.diag[b]) + np.diag(self.sub[b][1:], k=-1) + np.diag(self.sup[b][:-1], k=1)

    def shifted_norm(self, t: float) -> tuple[float, float]:
        """The mean diagonal mu and the exact ||t (G - mu I)||_1."""
        mu = float(self.diag.mean())
        col = np.abs(self.diag - mu)
        col[:-1] += np.abs(self.sub[1:])
        col[1:] += np.abs(self.sup[:-1])
        return mu, t * float(col.max())

    def uses_taylor_action(self, t: float) -> bool:
        """The cost rule of ACTION_COST: True for :func:`taylor_action`,
        False for :func:`dense_action`."""
        lengths = np.diff(self.starts).astype(float)
        return ACTION_COST * lengths.sum() * self.shifted_norm(t)[1] <= np.sum(lengths**3)


def taylor_action(stack: BandStack, v: np.ndarray, t: float) -> np.ndarray:
    """exp(t G) v for the stacked generator G by Algorithm 3.2 of Al-Mohy &
    Higham (2011), with the exact 1-norm of the shifted generator in place of
    their norm estimates.

    G is real, so the algorithm runs on the real vector (Re v, Im v), held
    as the two rows of f; its infinity norm is the largest |entry|.
    """
    mu, norm = stack.shifted_norm(t)
    degree, steps = min(
        ((m, max(math.ceil(norm / theta), 1)) for m, theta in TAYLOR_THETA.items()),
        key=lambda pair: pair[0] * pair[1],
    )
    h = t / steps
    diag = h * (stack.diag - mu)
    sub = h * stack.sub[1:]
    sup = h * stack.sup[:-1]
    eta = math.exp(h * mu)
    f = np.array([v.real, v.imag])
    b = f
    for _ in range(steps):
        c1 = np.abs(b).max()
        for j in range(1, degree + 1):
            y = diag * b
            y[:, 1:] += sub * b[:, :-1]
            y[:, :-1] += sup * b[:, 1:]
            y /= j
            b = y
            c2 = np.abs(b).max()
            f += b
            if c1 + c2 <= TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
        f *= eta
        b = f
    return f[0] + 1j * f[1]


def dense_action(stack: BandStack, v: np.ndarray, t: float) -> np.ndarray:
    """exp(t G) v for the stacked generator G, one dense exponential per band."""
    s = stack.starts
    return np.concatenate(
        [expm(stack.dense_block(i) * t) @ v[s[i]:s[i + 1]] for i in range(s.size - 1)]
    )


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


def _check_finite(values: np.ndarray, propagator: str, rates: Rates, t: float) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(
            f"the {propagator} is not finite at Gamma0*t={rates.gamma0 * t:.3e} "
            f"(Gamma-*t={rates.gamma_minus * t:.3e})"
        )


def evolve(
    rho0: DensityMatrix,
    rates: Rates,
    t: float,
    *,
    leakage_budget: float = LEAKAGE_BUDGET,
) -> DensityMatrix:
    """Propagate rho0 for a time t with the exact exponential of its bands.

    Band 0 goes through :func:`propagate_populations`, so a number-diagonal
    state costs one population exponential. The coherence bands k >= 1
    present in rho0 are stacked into one :class:`BandStack` and propagated
    together by :func:`taylor_action`, or by :func:`dense_action` where
    ||t G||_1 is too large for the action (``BandStack.uses_taylor_action``).
    The lower triangle is the conjugate of the upper one, so the result is
    Hermitian by construction. Trace is preserved within 1e-9, and the
    top-level population at t is checked against the leakage budget; a
    violation raises :class:`TruncationError` with a raise-dim diagnostic.
    A propagator output that is not finite raises :class:`DomainError`.
    """
    if not (t >= 0.0) or not math.isfinite(t):
        raise DomainError(f"t must be >= 0, got {t!r}")
    if t == 0.0:
        return rho0
    p = propagate_populations(population_vector(rho0.populations), rates, t)
    if p[-1] > leakage_budget:
        raise TruncationError(
            f"top-level population {p[-1]:.3e} exceeded the leakage budget "
            f"{leakage_budget:.0e} by t={t:.6g}; raise dim"
        )
    mat = np.diag(p).astype(complex)
    rows, cols = np.nonzero(np.triu(rho0.mat, 1))
    ks = np.unique(cols - rows)
    if ks.size:
        stack = BandStack.build(rho0.dim, ks, rates)
        v0 = rho0.mat[stack.m, stack.m + stack.k]
        if stack.uses_taylor_action(t):
            kernel, name = taylor_action, "Taylor action on the coherence bands"
        else:
            kernel, name = dense_action, "dense exponential of the coherence bands"
        with np.errstate(all="ignore"):
            v = kernel(stack, v0, t)
        _check_finite(v, name, rates, t)
        mat[stack.m, stack.m + stack.k] = v
        mat[stack.m + stack.k, stack.m] = v.conj()
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
    with np.errstate(all="ignore"):
        p = expm(band_generator(p0.size, 0, rates) * t) @ p0
    _check_finite(p, "dense population exponential", rates, t)
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
