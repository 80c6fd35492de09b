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
It takes a grid of times and evaluates the kernels of many times as
stacked arrays, the losses of a batch as one stack and then its
amplifiers as another, built only once the losses have been applied and
let go: on these small matrices the cost of each numpy call, not their
arithmetic, is most of a short curve's time, and one stack at a time is
all a batch holds. Each time keeps the bits it has on a grid of its own.

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
from typing import Iterator, Sequence

import numpy as np

from .bath import Rates
from .errors import DomainError, PositivityError, TruncationError
from .fockspace import LEAKAGE_BUDGET, BandState

# Populations inside this band of zero are roundoff and are clipped;
# anything more negative aborts the run.
NEGATIVE_CLIP = 1e-12

# :func:`attenuate` takes BATCH_ENTRIES // (dim (dim + 1)) times per batch,
# at least one. A batch's two stacks of kernels, the losses of dim^2
# entries per time and then the amplifiers of (dim + 1) dim, are held one
# at a time, and each stays within 512 KiB whatever the grid's length,
# unless one time's kernel alone is larger.
BATCH_ENTRIES = 2**16


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
def _log_factorials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only levels 0, ..., n-1 as floats, and the table of their
    log k!, from ``math.lgamma``."""
    levels = np.arange(float(n))
    table = np.array([math.lgamma(k + 1.0) for k in range(n)])
    levels.flags.writeable = table.flags.writeable = False
    return levels, table


def _binomial_logs(rows: int, cols: int, log_x: np.ndarray,
                   log_y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The logarithm of B[n, b, s] = C(b, s) x_n^s y_n^(b-s) for b < rows
    and s < cols <= rows, for each entry of the vectors ``log_x`` and
    ``log_y`` (log_y finite), in the three parts that :func:`_binomial_terms`
    sums, in this order: the part in b - s, (b-s) log_y - log (b-s)!, as an
    (n, rows, cols) Toeplitz view of one vector per kernel, -inf where
    s > b; the (rows,) table of log b!; and the part in s, s log_x - log s!,
    as an (n, cols) array. x^0 is 1 also where x = 0 (log_x = -inf,
    Gamma0 t = inf), and s log_x overflows to -inf where x^s underflows
    to 0. Each part is backed by O(rows + cols) entries per kernel."""
    levels, log_fact = _log_factorials(rows)
    by_gap = np.empty((len(log_x), cols - 1 + rows))  # column cols - 1 + g holds gap g = b - s
    by_gap[:, : cols - 1] = -np.inf
    gaps = by_gap[:, cols - 1:]
    np.multiply(levels, log_y[:, None], out=gaps)
    gaps -= log_fact
    step = by_gap.strides[1]
    toeplitz = np.ndarray((len(log_x), rows, cols), buffer=by_gap, offset=(cols - 1) * step,
                          strides=(by_gap.strides[0], step, -step))
    powers = np.zeros((len(log_x), cols))
    with np.errstate(over="ignore"):
        np.multiply(levels[1:cols], log_x[:, None], out=powers[:, 1:])
    powers -= log_fact[:cols]
    return toeplitz, log_fact, powers


def _binomial_terms(gaps: np.ndarray, log_fact: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The kernels B whose logarithm has the parts ``gaps``, ``log_fact``
    and ``powers`` of :func:`_binomial_logs`, one per entry, on the rows of
    ``gaps``. Each term is the exponential of its logarithm, summed as the
    part in b - s, then + log b!, then + the part in s, in the one buffer
    that is returned, and exponentiated in place. Every term is formed from
    its own (n, b, s) alone, so the kernels of some of the entries and rows
    of the parts are, bit for bit, those entries and rows of the kernels of
    the whole: the losses are built on the first dim rows of parts on
    dim + 1."""
    terms = np.add(gaps, log_fact[:, None])
    terms += powers[:, None, :]
    return np.exp(terms, out=terms)


def attenuate(state: BandState, rates: Rates,
              t_grid: Sequence[float]) -> Iterator[tuple[BandState, np.ndarray, float]]:
    """The populations after each time of ``t_grid`` under the bath
    ``rates``, by the thermal-attenuator channel, with their derivative in
    nbar and the leakage, yielded in the order of the grid.

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

    Every t is checked, and then the state by :func:`population_vector`,
    before the first result. The times are taken in batches of
    ``BATCH_ENTRIES // (dim (dim + 1))``, at least one; a batch's losses are
    one stacked array, applied and let go before its amplifiers are built
    as another. A time's values are those of a grid that holds it alone,
    bit for bit. The leakage is the mass left at and above level dim,
    1 - sum_{m<dim} p_m; it, and the top-level population, are checked
    against ``LEAKAGE_BUDGET``, and a violation raises
    :class:`TruncationError` with a raise-dim diagnostic. A population that
    is not finite raises :class:`DomainError`. Each check raises at its own
    t, after the earlier times have been yielded. Where q is 0 (t = 0) the
    state is returned as it is, with a zero derivative, after the state and
    leakage checks.
    """
    t_grid = list(t_grid)
    for t in t_grid:
        _check_time(t)
    p0 = population_vector(state.populations)
    batch = max(1, BATCH_ENTRIES // (state.dim * (state.dim + 1)))
    for start in range(0, len(t_grid), batch):
        yield from _attenuate_batch(state, p0, rates, t_grid[start:start + batch])


def _attenuate_batch(state: BandState, p0: np.ndarray, rates: Rates,
                     times: list[float]) -> Iterator[tuple[BandState, np.ndarray, float]]:
    """:func:`attenuate` over a batch of checked ``times``, from the checked
    populations ``p0`` of ``state``."""
    dim = state.dim
    qs = [-math.expm1(-rates.gamma0 * t) for t in times]
    moved = [t for t, q in zip(times, qs) if q != 0.0]
    if moved:
        wide, k_p, finite = _channel(p0, rates, moved)
        totals = wide[:, :-1].sum(axis=1)
    row = 0
    for t, q in zip(times, qs):
        if q == 0.0:
            p, dp, out, total = p0, np.zeros(dim), state, float(p0.sum())
        elif not finite[row]:
            raise DomainError(
                f"the thermal-attenuator populations are not finite at "
                f"Gamma0*t={rates.gamma0 * t:.3e} (N={mean_photon_analytic(0.0, rates, t):.3e})"
            )
        else:
            p, dp, total = wide[row, :-1], k_p[row], float(totals[row])
            out = BandState(p)
            row += 1
        _check_leakage(p, t)
        leakage = max(0.0, 1.0 - total)
        if leakage > LEAKAGE_BUDGET:
            raise TruncationError(
                f"the channel leaves {leakage:.3e} at and above level {dim} by t={t:.6g}, over "
                f"the leakage budget {LEAKAGE_BUDGET:.0e}; raise dim"
            )
        yield out, dp, leakage


def _channel(p0: np.ndarray, rates: Rates,
             times: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The channel's populations of ``p0`` on levels 0..dim after each of
    ``times``, at none of which q is 0, one row per time; with the q K p of
    each row on levels 0..dim-1, and whether each row is finite. The
    logarithms of every loss and amplifier are formed once, on dim + 1 rows.
    The losses of all times are then one (n, dim, dim) stack of kernels,
    read on the first dim rows, applied and let go before the amplifiers of
    the rows where N > 0 are built as one (n_amp, dim + 1, dim) stack: at
    most one of the two is held at a time."""
    dim, moved = len(p0), len(times)
    qs, log_x, log_y = [], [], []  # the losses' logarithms, then the amplifiers'
    amplified, amp_x, amp_y, inverse_gain = [], [], [], []  # the rows where N > 0
    for row, t in enumerate(times):
        g0t = rates.gamma0 * t
        q = -math.expm1(-g0t)
        noise = mean_photon_analytic(0.0, rates, t)
        log_gain = math.log1p(noise)
        qs.append(q)
        log_x.append(-g0t - log_gain)
        log_y.append(math.log(q + noise) - log_gain)
        if noise > 0.0:
            amplified.append(row)
            amp_x.append(-log_gain)
            amp_y.append(math.log(noise) - log_gain)
            inverse_gain.append(math.exp(-log_gain))
    gaps, log_fact, powers = _binomial_logs(dim + 1, dim, np.array(log_x + amp_x),
                                            np.array(log_y + amp_y))
    lost = _binomial_terms(gaps[:moved, :dim], log_fact[:dim],
                           powers[:moved]).transpose(0, 2, 1) @ p0
    wide = np.zeros((moved, dim + 1))  # where N = 0, nothing reaches level dim
    wide[:, :-1] = lost
    if amplified:
        rows = slice(None) if len(amplified) == moved else amplified
        gains = _binomial_terms(gaps[moved:], log_fact, powers[moved:])
        inverse_gain = np.array(inverse_gain)[:, None]
        wide[rows] = (gains @ lost[rows, :, None])[..., 0] * inverse_gain
    finite = np.isfinite(wide).all(axis=1)
    m, _ = _log_factorials(dim + 1)
    with np.errstate(invalid="ignore"):  # a row that is not finite is refused at its time
        flow = m[1:] * wide[:, 1:]  # (m+1) p_{m+1} on level m
        k_p = flow - (2.0 * m[:-1] + 1.0) * wide[:, :-1]
        k_p[:, 1:] += m[1:-1] * wide[:, :-2]
    k_p *= np.array(qs)[:, None]
    return wide, k_p, finite


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
