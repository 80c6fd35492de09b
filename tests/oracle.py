"""Independent reference dynamics for the tests.

Both functions build the dissipator from the dense ladder operators of
:mod:`fockthermo.fockspace`, never from the band generators the package
propagates with, so agreement between the two is a real check.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from fockthermo.bath import Rates
from fockthermo.fockspace import DensityMatrix, annihilation


def lindblad_rhs(rho: DensityMatrix | np.ndarray, rates: Rates) -> np.ndarray:
    """Right-hand side Gamma+ D[a^dag] rho + Gamma- D[a] rho by dense products."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    a = annihilation(mat.shape[0])
    ad = a.conj().T
    n_op = ad @ a
    aad = a @ ad  # top entry 0: the truncated space has no upward channel out of it
    up = ad @ mat @ a - 0.5 * (aad @ mat + mat @ aad)
    down = a @ mat @ ad - 0.5 * (n_op @ mat + mat @ n_op)
    return rates.gamma_plus * up + rates.gamma_minus * down


def liouvillian(dim: int, rates: Rates) -> np.ndarray:
    """The dim^2 x dim^2 superoperator of the master equation acting on the
    row-major vectorisation of rho, from vec(A X B) = (A kron B^T) vec(X)."""
    a = annihilation(dim)
    eye = np.eye(dim)

    def dissipator(op: np.ndarray) -> np.ndarray:
        opd_op = op.conj().T @ op
        return np.kron(op, op.conj()) - 0.5 * np.kron(opd_op, eye) - 0.5 * np.kron(eye, opd_op.T)

    return rates.gamma_plus * dissipator(a.conj().T) + rates.gamma_minus * dissipator(a)


def propagator(dim: int, rates: Rates, t: float) -> np.ndarray:
    """exp(L t) of the full Liouvillian; apply it with :func:`apply`."""
    return expm(liouvillian(dim, rates) * t)


def apply(prop: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    return (prop @ rho.mat.reshape(-1)).reshape(rho.dim, rho.dim)
