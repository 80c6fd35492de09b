"""Dense linear algebra on a truncated single-mode Fock space.

States are dim x dim complex density matrices over the number basis
|0>, ..., |dim-1>, validated against Hermiticity, unit trace, positivity
and a top-level leakage budget against silent truncation error. The
package forms no ladder operator; the test-side oracle builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal (photon-number populations); a fresh copy."""
        return self.mat.diagonal().real.copy()

    @property
    def top_level_population(self) -> float:
        return float(self.mat[-1, -1].real)

    def mean_photon(self) -> float:
        return float(np.dot(np.arange(self.dim), self.populations))

    def max_offdiagonal(self) -> float:
        off = self.mat - np.diag(self.mat.diagonal())
        return float(np.max(np.abs(off)))


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
