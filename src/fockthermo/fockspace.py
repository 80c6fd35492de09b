"""States on a truncated single-mode Fock space |0>, ..., |dim-1>.

A state is carried as its coherence bands rho[m, m+k] (:class:`BandState`);
its dim x dim :class:`DensityMatrix` is validated against Hermiticity, unit
trace, positivity and a top-level leakage budget against silent truncation
error. The package forms no ladder operator; the test-side oracle builds its own.
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
    """

    populations: np.ndarray
    bands: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    coherences: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self) -> None:
        p = np.array(self.populations, dtype=float)
        bands = np.array(self.bands, dtype=int)
        v = np.array(self.coherences, dtype=complex)
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
        """The dim x dim matrix of the state, assembled from its bands."""
        mat = np.diag(self.populations).astype(complex)
        _, m, k = band_entries(self.dim, self.bands)
        mat[m, m + k] = self.coherences
        mat[m + k, m] = self.coherences.conj()
        return mat


@dataclass(frozen=True)
class DensityMatrix:
    """Immutable density matrix on the truncated space.

    Construction checks shape and finiteness only; physical invariants are
    inspected with :func:`validate_density` so that reporting stays cheap
    and non-throwing.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=complex, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidDimensionError(f"density matrix must be square, got shape {mat.shape}")
        check_dim(mat.shape[0])
        if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
            raise InvalidDimensionError("density matrix contains non-finite entries")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal (photon-number populations); a fresh copy."""
        return self.mat.diagonal().real.copy()


@dataclass(frozen=True)
class ValidationReport:
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    top_level_population: float
    hermitian_ok: bool
    trace_ok: bool
    positive_ok: bool
    leakage_ok: bool

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok and self.leakage_ok

    def summary(self) -> str:
        flags = [
            ("hermitian", self.hermitian_ok, self.hermiticity_defect),
            ("trace", self.trace_ok, self.trace_defect),
            ("positive", self.positive_ok, self.min_eigenvalue),
            ("leakage", self.leakage_ok, self.top_level_population),
        ]
        parts = [f"{name}={'ok' if ok else 'FAIL'}({val:.3e})" for name, ok, val in flags]
        return " ".join(parts)


def validate_density(rho: DensityMatrix | np.ndarray) -> ValidationReport:
    """Report-only check of the density-matrix invariants: Hermiticity within
    1e-12, trace within 1e-9, smallest eigenvalue >= -1e-9 and top-level
    population within the leakage budget."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
    trace_defect = float(abs(mat.trace() - 1.0))
    eigvals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    min_eig = float(eigvals.min())
    top = float(mat[-1, -1].real)
    return ValidationReport(
        hermiticity_defect=herm_defect,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
        top_level_population=top,
        hermitian_ok=herm_defect <= 1e-12,
        trace_ok=trace_defect <= 1e-9,
        positive_ok=min_eig >= -1e-9,
        leakage_ok=top <= LEAKAGE_BUDGET,
    )
