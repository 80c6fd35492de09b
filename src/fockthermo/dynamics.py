"""Dissipative evolution of the probe state.

The generator is the purely dissipative master equation

    d rho/dt = Gamma+ D[a^dag] rho + Gamma- D[a] rho,
    D[O] rho = O rho O^dag - (O^dag O rho + rho O^dag O) / 2,

which is phase covariant: it maps the coherence band k = j - i of rho
(the entries rho[m, m+k]) onto itself. Each band therefore evolves under
its own (dim-k) x (dim-k) tridiagonal generator, and :func:`evolve`
propagates a :class:`~fockthermo.fockspace.BandState` band by band.
Band 0 is the birth-death generator of the photon-number populations and
is applied as one dense matrix exponential. The bands k >= 1 the state
carries are stacked into one block-diagonal tridiagonal generator and
propagated together by the exact Taylor action of Al-Mohy & Higham;
where ||t G||_1 is so large that the action would need more work than
the dense exponential of each band, a closed-form cost rule switches to
the dense exponentials.

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
from .fockspace import LEAKAGE_BUDGET, BandState, band_entries

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


@dataclass(frozen=True)
class BandStack:
    """The generators of the bands ``ks`` stacked into one block-diagonal
    tridiagonal matrix G. Block i evolves band k = ks[i]: d/dt v = G v for
    v[m] = rho[m, m+k], m = 0 .. dim-k-1. With u[m] = m+1 (the diagonal of
    a a^dag) and u[dim-1] = 0, because the top level carries no upward
    channel:

    * G[m, m]   = -Gamma- (m + k/2) - Gamma+ (u[m] + u[m+k]) / 2;
    * G[m, m-1] = Gamma+ sqrt(m (m+k)),          absorption from rho[m-1, m-1+k];
    * G[m, m+1] = Gamma- sqrt((m+1) (m+k+1)),    emission from rho[m+1, m+1+k].

    Band 0 is the population generator, whose columns sum exactly to zero.

    A stacked vector is laid out as the coherences of a BandState
    (``band_entries``). ``sub[j]`` is G[j, j-1] and ``sup[j]`` is
    G[j, j+1]; both are zero where they would couple two blocks.
    """

    starts: np.ndarray  # block i holds the entries starts[i] .. starts[i+1]-1
    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    @classmethod
    def build(cls, dim: int, ks: np.ndarray, rates: Rates) -> "BandStack":
        starts, m, k = band_entries(dim, ks)
        u = np.arange(1.0, dim + 1.0)
        u[-1] = 0.0
        gp, gm = rates.gamma_plus, rates.gamma_minus
        diag = -(gm * (m + k / 2)) - gp * ((u[m] + u[m + k]) / 2)
        sub = gp * np.sqrt(m * (m + k))  # zero on each block's first row, m = 0
        sup = gm * np.sqrt((m + 1) * (m + k + 1))
        sup[starts[1:] - 1] = 0.0  # each block's last row
        return cls(starts=starts, diag=diag, sub=sub, sup=sup)

    def dense_block(self, i: int, t: float = 1.0) -> np.ndarray:
        """t G of block i as a dense matrix, for t > 0. Each entry is (x + 0.0) * t,
        the bits of the sum of three np.diag matrices times t, signed zeros included."""
        b = slice(self.starts[i], self.starts[i + 1])
        n = b.stop - b.start
        out = np.zeros((n, n))
        flat = out.reshape(-1)
        flat[::n + 1] = (self.diag[b] + 0.0) * t
        flat[n::n + 1] = (self.sub[b][1:] + 0.0) * t
        flat[1::n + 1] = (self.sup[b][:-1] + 0.0) * t
        return out

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

    G is real, so the algorithm runs in real arithmetic: on v itself when v
    is real, else on (Re v, Im v) held as the two rows of f. The infinity
    norm of f is its largest |entry|, which a row of zeros never sets, so a
    real v gets the bits of the real part of its complex action.
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
    f = np.array([v.real, v.imag]) if np.iscomplexobj(v) else np.array(v, dtype=float)
    b = f
    for _ in range(steps):
        c1 = np.abs(b).max()
        for j in range(1, degree + 1):
            y = diag * b
            y[..., 1:] += sub * b[..., :-1]
            y[..., :-1] += sup * b[..., 1:]
            y /= j
            b = y
            c2 = np.abs(b).max()
            f += b
            if c1 + c2 <= TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
        f *= eta
        b = f
    return f if f.ndim == 1 else f[0] + 1j * f[1]


def dense_action(stack: BandStack, v: np.ndarray, t: float) -> np.ndarray:
    """exp(t G) v for the stacked generator G, one dense exponential per band.

    The exponentials are real, so they act on Re v and Im v apart: a real v
    gets the bits of the real part of its complex action.
    """
    s = stack.starts
    split = np.iscomplexobj(v)
    out = []
    for i in range(s.size - 1):
        e, w = expm(stack.dense_block(i, t)), v[s[i]:s[i + 1]]
        out.append(e @ w.real + 1j * (e @ w.imag) if split else e @ w)
    return np.concatenate(out)


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


@dataclass(frozen=True)
class BandGenerator:
    """The generators of a state's bands at one pair of rates, built once and
    applied at any t by :func:`evolve`: band 0 as ``populations``, and the
    coherence bands k >= 1 the state carries stacked as ``coherences`` (None
    for a state without them). Only the tridiagonals are kept; each dense
    exponential assembles its matrix at its own t."""

    rates: Rates
    bands: np.ndarray
    populations: BandStack
    coherences: BandStack | None

    @classmethod
    def build(cls, state: BandState, rates: Rates) -> "BandGenerator":
        # rates large enough to overflow the generator are refused by evolve's
        # _check_finite on the propagated values
        with np.errstate(all="ignore"):
            return cls(
                rates=rates,
                bands=state.bands,
                populations=BandStack.build(state.dim, np.zeros(1, dtype=int), rates),
                coherences=(BandStack.build(state.dim, state.bands, rates)
                            if state.bands.size else None),
            )

    def fits(self, state: BandState) -> bool:
        return self.populations.diag.size == state.dim and (
            self.bands is state.bands or np.array_equal(self.bands, state.bands))


def evolve(
    state: BandState,
    rates: Rates | BandGenerator,
    t: float,
    *,
    leakage_budget: float = LEAKAGE_BUDGET,
) -> BandState:
    """Propagate a state for a time t with the exact exponential of its bands,
    under the bath ``rates`` or a :class:`BandGenerator` built from them for
    this state's dim and bands (the same bits, without rebuilding it per t).

    Band 0, the populations, goes through :func:`dense_action`; a population
    below -NEGATIVE_CLIP raises :class:`PositivityError`, and smaller
    negatives are clipped to zero. The coherence bands k >= 1 the state
    carries are stacked into one :class:`BandStack` and propagated together
    by :func:`taylor_action`, or by :func:`dense_action` where ||t G||_1 is
    too large for the action (``BandStack.uses_taylor_action``). The evolved
    state carries the same bands. Trace is preserved within 1e-9, and the
    top-level population at t is checked against the leakage budget; a
    violation raises :class:`TruncationError` with a raise-dim diagnostic.
    A propagator output that is not finite raises :class:`DomainError`.
    """
    if not (t >= 0.0) or not math.isfinite(t):
        raise DomainError(f"t must be >= 0, got {t!r}")
    if t == 0.0:
        return state
    if isinstance(rates, BandGenerator):
        generator = rates
        if not generator.fits(state):
            raise DomainError(f"the generator was built for other bands than those of "
                              f"this dim-{state.dim} state")
    else:
        generator = BandGenerator.build(state, rates)
    rates = generator.rates
    p0 = population_vector(state.populations)
    with np.errstate(all="ignore"):
        p = dense_action(generator.populations, p0, t)
    _check_finite(p, "dense population exponential", rates, t)
    low = float(p.min())
    if low < -NEGATIVE_CLIP:
        raise PositivityError(f"population {low:.3e} from the exponential propagator")
    p[p < 0.0] = 0.0
    if p[-1] > leakage_budget:
        raise TruncationError(
            f"top-level population {p[-1]:.3e} exceeded the leakage budget "
            f"{leakage_budget:.0e} by t={t:.6g}; raise dim"
        )
    trace_defect = abs(p.sum() - 1.0)
    if trace_defect > 1e-9:
        raise PositivityError(f"trace drifted by {trace_defect:.3e} during evolution")
    v = state.coherences
    stack = generator.coherences
    if stack is not None:
        with np.errstate(all="ignore"):
            if stack.uses_taylor_action(t):
                kernel, name = taylor_action, "Taylor action on the coherence bands"
            else:
                kernel, name = dense_action, "dense exponential of the coherence bands"
            v = kernel(stack, v, t)
        _check_finite(v, name, rates, t)
    return BandState(p, state.bands, v)


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


def short_time_populations(n: int, rates: Rates, t: float) -> ShortTimePopulations:
    """Linear-response populations p_{n+1} = Gamma+ t (n+1), p_{n-1} = Gamma- t n.

    Clipped to [0, 1]. Whether first-order leakage still describes the state
    at t is ``fockthermo.bounds.short_time_valid``.
    """
    if n < 0 or t < 0.0:
        raise DomainError(f"need n >= 0 and t >= 0, got n={n!r}, t={t!r}")
    p_above = rates.gamma_plus * t * (n + 1)
    p_below = rates.gamma_minus * t * n
    p_stay = 1.0 - p_above - p_below
    clip = lambda x: min(1.0, max(0.0, x))
    return ShortTimePopulations(p_below=clip(p_below), p_stay=clip(p_stay), p_above=clip(p_above))
