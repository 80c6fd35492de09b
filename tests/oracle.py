"""Independent reference dynamics for the tests.

The oracle builds its own dense ladder operators and forms the dissipator
from them, never from the band generators the package propagates with, so
agreement between the two is a real check. It imports nothing from
:mod:`fockthermo.dynamics`; ``test_dynamics.py`` asserts that.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from fockthermo.bath import Rates
from fockthermo.fockspace import check_dim


def annihilation(dim: int) -> np.ndarray:
    """Annihilation operator: entry (m-1, m) = sqrt(m)."""
    check_dim(dim)
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def creation(dim: int) -> np.ndarray:
    """Creation operator, the conjugate transpose of :func:`annihilation`."""
    return annihilation(dim).conj().T


def number_operator(dim: int) -> np.ndarray:
    """Photon-number operator diag(0, 1, ..., dim-1)."""
    check_dim(dim)
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def lindblad_rhs(mat: np.ndarray, rates: Rates) -> np.ndarray:
    """Right-hand side Gamma+ D[a^dag] rho + Gamma- D[a] rho by dense products."""
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


def apply(prop: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return (prop @ mat.reshape(-1)).reshape(mat.shape)


def cfi_linear_coefficient(p0: np.ndarray, rates: Rates, drates: Rates) -> float:
    """The coefficient of t in the number-basis CFI of the populations p0 as
    t -> 0, from the generator alone: p(t) = p0 + t G p0 + O(t^2), so every
    level with p0_m = 0 and (G p0)_m > 0 contributes (dG p0)_m^2 / (G p0)_m.

    G p0 and dG p0 are the diagonals of the oracle's right-hand side at
    ``rates`` and at ``drates``, the T-derivatives of the rates.
    """
    rho0 = np.diag(p0).astype(complex)
    flow = lindblad_rhs(rho0, rates).diagonal().real
    dflow = lindblad_rhs(rho0, drates).diagonal().real
    fed = (p0 == 0.0) & (flow > 0.0)
    return float(np.sum(dflow[fed] ** 2 / flow[fed]))



def cfi_quadratic_coefficient(p0: np.ndarray, drates: Rates) -> float:
    """The coefficient of t^2 in the number-basis CFI of the populations p0
    as t -> 0, from the levels p0 holds: there p = p0 + O(t) and
    dp/dT = t dG p0 + O(t^2), so each level with p0_m > 0 contributes
    (dG p0)_m^2 / p0_m. For a p0 of full support it is the leading term.

    dG p0 is the diagonal of the oracle's right-hand side at ``drates``, the
    T-derivatives of the rates.
    """
    dflow = lindblad_rhs(np.diag(p0).astype(complex), drates).diagonal().real
    held = p0 > 0.0
    return float(np.sum(dflow[held] ** 2 / p0[held]))
