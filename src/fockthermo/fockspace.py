"""States on a truncated single-mode Fock space |0>, ..., |dim-1>.

A state is carried as its coherence bands rho[m, m+k] (:class:`BandState`),
the package's one state type; its dim x dim matrix is assembled on demand.
The ``validate`` registry holds each probe to Hermiticity, unit trace,
positivity and the top-level leakage budget against silent truncation error.
The package forms no ladder operator; the test-side oracle builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimensionError

# Populations below the top of the retained space must stay under this
# budget during any evolution; above it, truncation corrupts derivatives.
LEAKAGE_BUDGET = 1e-8

# Eigenvalues smaller than this in modulus are treated as exact zeros in
# downstream spectral sums.
EIGENVALUE_FLOOR = 1e-12


def check_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 2:
        raise InvalidDimensionError(f"Fock dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def band_entries(dim: int, bands: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, m, k) of the bands stacked in order: block i spans entries
    starts[i] .. starts[i+1]-1, and entry j is rho[m[j], m[j] + k[j]]."""
    lengths = dim - bands
    starts = np.concatenate(([0], np.cumsum(lengths)))
    k = np.repeat(bands, lengths)
    m = np.arange(starts[-1]) - np.repeat(starts[:-1], lengths)
    return starts, m, k


@dataclass(frozen=True)
class BandState:
    """Immutable state held as its coherence bands; construction checks shapes.

    ``populations`` is band 0, the real photon-number distribution, and
    ``coherences`` stacks the entries rho[m, m+k] of the ``bands`` k >= 1 in
    the order of :func:`band_entries`; a band not listed is zero. The lower
    triangle is the conjugate of the upper one: Hermitian by construction.

    The coherences are float64 when every imaginary part is exactly zero, as
    for the squeezed vacuum and a coherent state of real amplitude, and
    complex128 otherwise; a state with real coherences is propagated,
    differenced and reduced in real arithmetic. A state without coherences
    is float64.
    """

    populations: np.ndarray
    bands: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    coherences: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        p = np.array(self.populations, dtype=float)
        bands = np.array(self.bands, dtype=int)
        v = np.asarray(self.coherences)
        v = (np.array(v, dtype=complex) if v.dtype.kind == "c" and v.imag.any()
             else np.array(v.real, dtype=float))
        dim = check_dim(p.size)
        entries = dim * bands.size - int(bands.sum()) if bands.size else 0
        if (p.ndim != 1 or bands.ndim != 1 or v.shape != (entries,)
                or bands.size and not 1 <= bands.min() <= bands.max() < dim):
            raise InvalidDimensionError(f"bands {bands} on {p.shape} levels cannot hold {v.shape}")
        for name, value in (("populations", p), ("bands", bands), ("coherences", v)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.populations.size

    def mean_photon(self) -> float:
        return float(np.dot(np.arange(self.dim), self.populations))

    def matrix(self) -> np.ndarray:
        """The dim x dim matrix of the state, assembled from its bands, of
        the dtype of its coherences."""
        mat = np.diag(self.populations).astype(self.coherences.dtype, copy=False)
        _, m, k = band_entries(self.dim, self.bands)
        mat[m, m + k] = self.coherences
        mat[m + k, m] = self.coherences.conj()
        return mat
