"""Independent reference dynamics for the tests.

The oracle builds its own dense ladder operators and forms the dissipator
from them, never from the band generator or the thermal-attenuator channel
the package propagates with, so agreement between them is a real check. It
propagates the whole density matrix, coherences included, differences it in
T, and reduces it to the QFI by an eigendecomposition: the reference for
the package's populations, their temperature derivative and its QFIs. It
imports nothing from :mod:`fockthermo.dynamics`; ``test_dynamics.py``
asserts that.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from fockthermo.bath import BathParams, Rates, rates
from fockthermo.fockspace import check_dim
from fockthermo.probes import ProbeSpec, _truncated, make_state

# Pairs of eigenvalues of rho whose sum is at or below this are left out of
# the QFI sum: below it they are roundoff of the evolved matrix.
QFI_FLOOR = 1e-12


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


def liouvillian(dim: int, rates: Rates) -> sparse.csr_array:
    """The dim^2 x dim^2 superoperator of the master equation acting on the
    row-major vectorisation of rho, from vec(A X B) = (A kron B^T) vec(X).
    It is held sparse: at dim = 60 the dense matrix alone would take 207 MB."""
    a = sparse.csr_array(annihilation(dim))
    eye = sparse.eye_array(dim, format="csr")

    def dissipator(op: sparse.csr_array) -> sparse.csr_array:
        opd_op = op.conj().T @ op
        return (sparse.kron(op, op.conj()) - 0.5 * sparse.kron(opd_op, eye)
                - 0.5 * sparse.kron(eye, opd_op.T))

    return sparse.csr_array(rates.gamma_plus * dissipator(a.conj().T)
                            + rates.gamma_minus * dissipator(a))


def propagator(dim: int, rates: Rates, t: float) -> np.ndarray:
    """exp(L t) of the full Liouvillian as a dense matrix; apply it with
    :func:`apply`. For small dims."""
    return expm(liouvillian(dim, rates).toarray() * t)


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


def density_matrix(spec: ProbeSpec, dim: int) -> np.ndarray:
    """The probe's dim x dim density matrix: the outer product of its
    truncated amplitudes for a coherent or squeezed probe, the diagonal of
    its populations for a Fock or thermal one."""
    if spec.is_number_diagonal:
        return np.diag(make_state(spec, dim).populations).astype(complex)
    psi = _truncated(spec, dim)[0]
    return np.outer(psi, psi.conj())


def evolved(rho0: np.ndarray, bath: BathParams, t: float) -> np.ndarray:
    """exp(L t) rho0, by the action of the sparse Liouvillian on vec(rho0)."""
    generator = liouvillian(rho0.shape[0], rates(bath)) * t
    return expm_multiply(generator, rho0.reshape(-1)).reshape(rho0.shape)


def sld_qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """The QFI 2 sum_ij |<i| d rho |j>|^2 / (lambda_i + lambda_j) of the
    symmetric logarithmic derivative, over the eigendecomposition of rho.
    Eigenvalues below ``QFI_FLOOR`` are zeros, and pairs whose sum is at or
    below it are left out."""
    lam, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    lam = np.where(lam < QFI_FLOOR, 0.0, lam)
    denom = lam[:, None] + lam[None, :]
    keep = denom > QFI_FLOOR
    m = vecs.conj().T @ drho @ vecs
    return 2.0 * float(np.sum(np.abs(m[keep]) ** 2 / denom[keep]))


def evolved_qfi(rho0: np.ndarray, bath: BathParams, t: float, h_rel: float = 1e-4) -> float:
    """:func:`sld_qfi` of exp(L t) rho0, with d rho/dT a central difference
    in T of step h_rel T."""
    h = h_rel * bath.T
    plus, minus = (evolved(rho0, bath.with_temperature(bath.T + s), t) for s in (h, -h))
    return sld_qfi(evolved(rho0, bath, t), (plus - minus) / (2.0 * h))


def evolved_dT(rho0: np.ndarray, bath: BathParams, t: float, h_rel: float = 1e-5) -> np.ndarray:
    """The central difference (rho(T+h) - rho(T-h)) / 2h of exp(L t) rho0,
    h = h_rel T, taken without the cancellation of subtracting two evolved
    states near 1.

    D = rho(T+h) - rho(T-h) solves D' = L+ D + (L+ - L-) rho-, D(0) = 0.
    Gamma- - Gamma+ = Gamma0 at every T, so L+ - L- is dGamma times the
    Liouvillian at unit rates, with dGamma the difference of the two Gamma+.
    D / dGamma is then the top half of exp(t [[L+, L1], [0, L-]]) applied to
    (0, rho0) (Van Loan, IEEE Trans. Autom. Control 23, 395, 1978), a
    quantity of order t that the action resolves relative to its own size.
    """
    h = h_rel * bath.T
    hot, cold = (rates(bath.with_temperature(bath.T + s)) for s in (h, -h))
    dim = rho0.shape[0]
    block = sparse.block_array([[liouvillian(dim, hot), liouvillian(dim, Rates(1.0, 1.0, 0.0))],
                                [None, liouvillian(dim, cold)]], format="csr")
    start = np.concatenate([np.zeros(dim * dim, dtype=complex), rho0.reshape(-1)])
    top = expm_multiply(block * t, start)[: dim * dim].reshape(rho0.shape)
    return top * ((hot.gamma_plus - cold.gamma_plus) / (2.0 * h))
