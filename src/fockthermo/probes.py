"""Initial probe states: Fock, coherent, squeezed vacuum, and thermal.

A probe is prepared as its photon-number populations. Coherent and
squeezed amplitude vectors are built by stable two-term recurrences and
renormalized after truncation, so the populations |c_m|^2 sum to 1 while
the discarded tail is bounded by the truncation budget. The squeezed
vacuum occupies even levels only; the thermal state is the geometric
distribution with ratio nbar/(nbar+1).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InvalidDimensionError, TruncationError
from .fockspace import BandState, check_dim

# A freshly constructed state must keep its renormalized top-level
# population below this; the discarded tail mass gets a looser hard cap
# (parity-structured states have an exactly empty top level, so the tail
# cap is what catches gross under-truncation for them).
TRUNCATION_TOL = 1e-10
TAIL_CAP = 1e-8

# Hard ceiling for automatic dimension growth; the FOCKTHERMO_DIM_MAX
# environment variable can lower it as a safety valve.
DIM_CEILING = 4096
DIM_MAX_ENV = "FOCKTHERMO_DIM_MAX"

# The untruncated tail, at and above its top level, that the automatic dim
# of a Fock probe leaves to the evolved populations.
FOCK_TAIL_BUDGET = 1e-16


def dim_ceiling() -> int:
    """Effective cap on automatic truncation growth."""
    raw = os.environ.get(DIM_MAX_ENV)
    if raw is None:
        return DIM_CEILING
    try:
        val = int(raw)
        if val < 2:
            raise ValueError
    except ValueError:
        raise DomainError(f"{DIM_MAX_ENV} must be an integer >= 2, got {raw!r}") from None
    return min(val, DIM_CEILING)


class ProbeKind(str, Enum):
    FOCK = "fock"
    COHERENT = "coherent"
    SQUEEZED = "squeezed"
    THERMAL = "thermal"


# The type of each kind's value (the excitation number n, the amplitude
# alpha, the squeezing parameter r, the thermal occupation nbar), and the
# numbers it holds: numpy registers its scalars there, but not its bool.
_VALUE_TYPE = {ProbeKind.FOCK: int, ProbeKind.COHERENT: complex,
              ProbeKind.SQUEEZED: float, ProbeKind.THERMAL: float}
_HOLDS = {int: numbers.Integral, float: numbers.Real, complex: numbers.Complex}


@dataclass(frozen=True)
class ProbeSpec:
    """Tagged description of an initial state: its ``kind`` and one
    ``value``, an ``int`` n (Fock), a ``complex`` alpha (coherent), or a
    ``float`` r (squeezed vacuum) or nbar (thermal). Any other value, a bool
    or text included, is refused, not truncated or converted."""

    kind: ProbeKind
    value: int | complex | float

    def __post_init__(self) -> None:
        kind, value = ProbeKind(self.kind), self.value
        holds = _HOLDS[_VALUE_TYPE[kind]]
        if isinstance(value, bool) or not isinstance(value, holds) or (
                kind is ProbeKind.FOCK and value < 0):
            what = ("Fock excitation must be an integer >= 0" if kind is ProbeKind.FOCK
                    else f"a {kind.value} value must be a {holds.__name__.lower()} number")
            raise DomainError(f"{what}, got {value!r}")
        value = _VALUE_TYPE[kind](value)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        if kind is ProbeKind.THERMAL and not value >= 0.0:
            raise DomainError(f"thermal occupation must be >= 0, got {value!r}")
        # a value that is not finite, or whose sinh(r)^2 or |alpha|^2 leaves
        # double range, has no representable mean photon number to size it by
        try:
            finite = math.isfinite(self.mean_photon)
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(f"the mean photon number of {self.canonical()} is not a finite float")

    @classmethod
    def fock(cls, n: int) -> "ProbeSpec":
        return cls(ProbeKind.FOCK, n)

    @classmethod
    def coherent(cls, alpha: complex) -> "ProbeSpec":
        return cls(ProbeKind.COHERENT, alpha)

    @classmethod
    def squeezed(cls, r: float) -> "ProbeSpec":
        return cls(ProbeKind.SQUEEZED, r)

    @classmethod
    def thermal(cls, nbar: float) -> "ProbeSpec":
        return cls(ProbeKind.THERMAL, nbar)

    @classmethod
    def matched(cls, kind: ProbeKind | str, n: float) -> "ProbeSpec":
        """The probe of ``kind`` with mean photon number n: |n>, the coherent
        state with |alpha| = sqrt(n), the squeezed vacuum with
        r = asinh(sqrt(n)), or the thermal state with occupation n, so that
        sinh^2(r) = |alpha|^2 = n to machine precision by construction.
        A Fock probe needs an integer n."""
        kind = ProbeKind(kind)
        if not (n >= 0.0) or not math.isfinite(n):
            raise DomainError(f"target mean photon number must be >= 0, got {n!r}")
        if kind is ProbeKind.FOCK:
            if n != int(n):
                raise DomainError(f"a Fock probe needs an integer mean photon number, got {n!r}")
            return cls.fock(int(n))
        if kind is ProbeKind.THERMAL:
            return cls.thermal(n)
        root = math.sqrt(n)
        return cls.coherent(root) if kind is ProbeKind.COHERENT else cls.squeezed(math.asinh(root))

    @property
    def mean_photon(self) -> float:
        if self.kind is ProbeKind.COHERENT:
            return abs(self.value) ** 2
        if self.kind is ProbeKind.SQUEEZED:
            return math.sinh(self.value) ** 2
        return float(self.value)

    @property
    def is_number_diagonal(self) -> bool:
        return self.kind in (ProbeKind.FOCK, ProbeKind.THERMAL)

    def canonical(self) -> str:
        """Canonical text form, e.g. ``fock:3`` or ``squeezed:0.8813735870195429``."""
        value = self.value
        if self.kind is ProbeKind.COHERENT and value.imag == 0.0:
            value = value.real
        return f"{self.kind.value}:{repr(value).strip('()')}"

    @classmethod
    def parse(cls, text: str) -> "ProbeSpec":
        """Inverse of :meth:`canonical`; accepts e.g. ``fock:3``, ``coherent:1.0``."""
        head, sep, payload = text.strip().partition(":")
        if not sep or not payload:
            raise DomainError(f"probe spec must look like 'kind:value', got {text!r}")
        try:
            kind = ProbeKind(head.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in ProbeKind)
            raise DomainError(f"unknown probe kind {head!r} (expected one of: {valid})") from None
        try:
            value = _VALUE_TYPE[kind](payload.strip())
        except ValueError as exc:
            raise DomainError(f"bad probe payload in {text!r}: {exc}") from None
        return cls(kind, value)


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Unnormalized truncation of exp(-|a|^2/2) sum_m a^m/sqrt(m!) |m>."""
    check_dim(dim)
    c = np.zeros(dim, dtype=complex)
    c[0] = 1.0
    # for |alpha| >~ 38 a^m/sqrt(m!) overflows; the NaN or zero amplitudes
    # that follow are refused by the mass check of _truncated
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, dim):
            c[m] = c[m - 1] * alpha / math.sqrt(m)
        return c * math.exp(-abs(alpha) ** 2 / 2.0)


def squeezed_amplitudes(r: float, dim: int) -> np.ndarray:
    """Unnormalized squeezed-vacuum amplitudes on even levels.

    c_{2k} = c_{2k-2} * (-tanh r) * sqrt((2k-1)/(2k)) starting from
    c_0 = 1/sqrt(cosh r); odd levels are exactly zero.
    """
    check_dim(dim)
    c = np.zeros(dim, dtype=complex)
    c[0] = 1.0 / math.sqrt(math.cosh(r))
    th = math.tanh(r)
    for k in range(1, (dim - 1) // 2 + 1):
        c[2 * k] = c[2 * k - 2] * (-th) * math.sqrt((2 * k - 1) / (2 * k))
    return c


def thermal_populations(nbar: float, dim: int) -> np.ndarray:
    """Unnormalized geometric populations (nbar/(nbar+1))^m."""
    check_dim(dim)
    ratio = nbar / (nbar + 1.0)
    return ratio ** np.arange(dim) / (nbar + 1.0)


def _check_truncation(tail: float, top: float, what: str, dim: int) -> None:
    if tail > TAIL_CAP or top > TRUNCATION_TOL:
        raise TruncationError(
            f"dim={dim} too small for {what}: discarded tail {tail:.3e} "
            f"(cap {TAIL_CAP:.0e}), top-level population {top:.3e} "
            f"(budget {TRUNCATION_TOL:.0e}); raise dim"
        )


def _truncated(spec: ProbeSpec, dim: int) -> tuple[np.ndarray, float]:
    """The amplitudes (coherent, squeezed) or populations (thermal) of the
    probe on dim levels, renormalized, and the tail mass they leave out."""
    if spec.kind is ProbeKind.THERMAL:
        values = thermal_populations(spec.value, dim)
        mass = scale = float(values.sum())
    else:
        amplitudes = coherent_amplitudes if spec.kind is ProbeKind.COHERENT else squeezed_amplitudes
        values = amplitudes(spec.value, dim)
        mass = float(np.vdot(values, values).real)
        scale = math.sqrt(mass)
    if not 0.0 < mass < math.inf:
        raise TruncationError(
            f"the amplitudes of {spec.canonical()} on dim={dim} levels are not "
            f"representable: their mass is {mass!r}"
        )
    return values / scale, max(0.0, 1.0 - mass)


def make_state(spec: ProbeSpec, dim: int) -> BandState:
    """The photon-number populations of the probe on a dim-level space:
    |c_m|^2 of its amplitudes c_m for a coherent or squeezed probe.

    Raises :class:`TruncationError` when the truncated tail or the top-level
    population exceeds the construction budget, and
    :class:`InvalidDimensionError` for a Fock excitation outside the space.
    """
    check_dim(dim)
    if spec.kind is ProbeKind.FOCK:
        n = spec.value
        if n >= dim:
            raise InvalidDimensionError(f"Fock excitation n={n} needs dim > n, got dim={dim}")
        return BandState((np.arange(dim) == n).astype(float))

    values, tail = _truncated(spec, dim)
    if spec.kind is ProbeKind.THERMAL:
        _check_truncation(tail, float(values[-1]), f"thermal nbar={spec.value}", dim)
        return BandState(values)
    what = (f"coherent |alpha|={abs(spec.value)}" if spec.kind is ProbeKind.COHERENT
            else f"squeezed r={spec.value}")
    _check_truncation(tail, float(abs(values[-1]) ** 2), what, dim)
    return BandState((values * values.conj()).real)


def _fock_dim(n: int, noise: float, max_dim: int) -> int:
    """The smallest d >= n + 2 at which |n>, spread upward by the thermal
    noise N that the channel has added, leaves at most ``FOCK_TAIL_BUDGET``
    at and above level d - 1.

    The thermal attenuator is a pure loss followed by a quantum-limited
    amplifier of gain 1 + N (Caruso, Giovannetti & Holevo, New J. Phys. 8,
    310, 2006). The loss only lowers a level; the amplifier spreads level j
    over m >= j as the negative binomial a_m = C(m, j) (1-r)^(j+1) r^(m-j),
    r = N / (1 + N), whose upper tail grows with j, so the tail from j = n
    bounds the evolved probe's. The terms rise while their ratio
    r (m+1) / (m+1-n) is at least 1, up to the largest, a_M. At a cut
    c <= M the tail is at least max(a_M, 1 - (c-n) a_M) >= 1 / (c-n+1), and
    so, within the 4096-level cap, far above the budget; past M it is at
    most a_c / (1 - ratio), summed in logs.
    """
    if n + 2 > max_dim:
        raise TruncationError(f"Fock n={n} needs at least {n + 2} levels, above the cap {max_dim}")
    r = noise / (1.0 + noise)
    if not 0.0 <= r < 1.0:
        raise TruncationError(
            f"Fock n={n} under the added thermal noise N={noise!r} spreads past "
            f"the cap {max_dim}"
        )
    if r == 0.0:
        return n + 2
    log_budget = math.log(FOCK_TAIL_BUDGET)
    # start just below the largest term, where n / (1 - r) puts it
    cut = max(n + 1, int(n / (1.0 - r)) - 1)
    log_term = (math.lgamma(cut + 1) - math.lgamma(n + 1) - math.lgamma(cut - n + 1)
                + (n + 1) * math.log1p(-r) + (cut - n) * math.log(r))
    while cut < max_dim:
        ratio = r * (cut + 1) / (cut + 1 - n)
        if ratio < 1.0 and log_term - math.log1p(-ratio) <= log_budget:
            return cut + 1
        log_term += math.log(ratio)
        cut += 1
    raise TruncationError(
        f"no dimension <= {max_dim} reaches the tail budget {FOCK_TAIL_BUDGET:.0e} of "
        f"fock:{n} under the added thermal noise N={noise!r}"
    )


def default_dim(spec: ProbeSpec, noise: float = 0.0) -> int:
    """Truncation adequate for the probe after the channel has added the
    thermal noise ``noise`` (N = nbar (1 - exp(-Gamma0 t)); 0 for the probe
    as prepared).

    A Fock probe gets the smallest dim whose evolved tail at the top level
    is within ``FOCK_TAIL_BUDGET`` (:func:`_fock_dim`). Any other probe
    ignores N: it gets max(40, 8*nbar+20), grown further until the
    discarded tail is negligible.

    Squeezed (and high-nbar thermal) states have slowly decaying tails, so
    the closed-form floor alone can under-truncate them; growth stops once
    tail * dim <= 1e-9, which caps the renormalization shift of the mean
    photon number below 1e-9 as well. Growth never exceeds
    :func:`dim_ceiling`. It searches the dims base, base + 4, ... by
    doubling steps, then bisection, so it takes O(log dim) tail tests and
    returns the first of them that passes wherever the test is monotone in dim.
    """
    max_dim = dim_ceiling()
    if spec.kind is ProbeKind.FOCK:
        return _fock_dim(spec.value, noise, max_dim)
    # past the cap the floor is the cap, so 8 nbar is never formed beyond it
    base = max(40, int(math.ceil(8 * min(spec.mean_photon, max_dim) + 20)))
    dims = range(min(base, max_dim), max_dim + 1, 4)
    refusals: dict[int, TruncationError] = {}

    def settled(i: int) -> bool:
        # the tail test passes at dims[i], or _truncated refuses it, which is
        # raised if i turns out to be the first to settle
        try:
            return _truncated(spec, dims[i])[1] * dims[i] <= 1e-9
        except TruncationError as exc:
            refusals[i] = exc
            return True

    # gallop to a settled index, then bisect: dims[lo] is unsettled, dims[hi] settled
    lo, hi = -1, 0
    while not settled(hi):
        if hi == len(dims) - 1:
            raise TruncationError(
                f"no dimension <= {max_dim} reaches the truncation budget for {spec.canonical()}"
            )
        lo, hi = hi, min(2 * hi + 1, len(dims) - 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if settled(mid) else (mid, hi)
    if hi in refusals:
        raise refusals[hi]
    return dims[hi]
