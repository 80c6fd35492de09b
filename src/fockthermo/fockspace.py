"""States on a truncated single-mode Fock space |0>, ..., |dim-1>.

The dissipator is phase covariant, so the photon-number populations (band 0
of rho, its diagonal) evolve on their own, and every figure the package
reads off the evolved probe depends on them alone: the CFI, the QFI of a
number-diagonal probe, and the truncation checks. A state is therefore
carried as its populations (:class:`BandState`), the package's one state
type. The QFI of a coherent or squeezed probe comes from the covariance
matrix of the Gaussian state the channel keeps it in
(``fisher.gaussian_qfi``), not from its coherences. The ``validate``
registry holds each probe to unit trace, nonnegative populations and the
top-level leakage budget against silent truncation error. The package forms
no ladder operator and no density matrix; the test-side oracle builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError

# Populations below the top of the retained space must stay under this
# budget during any evolution; above it, truncation corrupts derivatives.
LEAKAGE_BUDGET = 1e-8

# The QFI of a number-diagonal state sums over its populations, which are
# its eigenvalues, and leaves out those at or below this floor.
EIGENVALUE_FLOOR = 1e-12


def check_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 2:
        raise InvalidDimensionError(f"Fock dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


@dataclass(frozen=True)
class BandState:
    """Immutable state held as band 0, its real photon-number distribution
    ``populations``; construction checks the shape."""

    populations: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.populations, dtype=float)
        if p.ndim != 1:
            raise InvalidDimensionError(f"populations must be one vector, got shape {p.shape}")
        check_dim(p.size)
        p.flags.writeable = False
        object.__setattr__(self, "populations", p)

    @property
    def dim(self) -> int:
        return self.populations.size

    def mean_photon(self) -> float:
        return float(np.dot(np.arange(self.dim), self.populations))
