"""Figures of merit for the heralded two-qubit state.

Each state functional takes one 4x4 density matrix and returns a float,
or takes a (..., 4, 4) stack of them and returns the array of per-state
values.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

# Two-qubit basis order HH, HV, VH, VV.
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
BELL_STATES = {"phi+": PHI_PLUS, "phi-": PHI_MINUS, "psi+": PSI_PLUS, "psi-": PSI_MINUS}

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


# <phi+| as a (1, 4) row and |phi+> as a (4, 1) column.
_PHI_PLUS_BRA, _PHI_PLUS_KET = PHI_PLUS.conj()[None], PHI_PLUS[:, None]
# sigma_y x sigma_y, Wootters' spin flip.
_YY = np.kron(SIGMA_Y, SIGMA_Y)
# (9, 16): row 3i + j is (sigma_i x sigma_j)^T raveled for i, j in x, y, z, so that its product with
# a raveled state is tr(rho sigma_i x sigma_j).
_PAULI_ROWS = np.array([np.kron(PAULIS[a], PAULIS[b]).T.ravel() for a in "xyz" for b in "xyz"])


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def _per_state(values: np.ndarray) -> float | np.ndarray:
    """A Python float for one state, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def _checked(rho: np.ndarray, vectors: bool) -> tuple[np.ndarray, tuple]:
    """A 4x4 state or a (..., 4, 4) stack as complex, checked for Hermiticity, unit trace and positivity.

    Returns it with the eigenvalues of its Hermitian part and, if
    ``vectors``, their eigenvectors (else None): one decomposition serves
    the positivity check and whatever reads the vectors.  A stack fails
    when any one of its states does.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {rho.shape}")
    adjoint = _dagger(rho)
    # a NaN or infinite entry leaves NaN in rho - rho†, which fails the comparison
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(rho - adjoint).max()
    if not asymmetry <= HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    traces = np.trace(rho, axis1=-2, axis2=-1).real
    off = np.abs(traces - 1.0) > TRACE_TOL
    if off.any():
        raise ValueError(f"trace is {traces[off].flat[0]}, expected 1")
    hermitian = (rho + adjoint) / 2.0
    w, v = np.linalg.eigh(hermitian) if vectors else (np.linalg.eigvalsh(hermitian), None)
    least = w[..., 0].min()
    if least < -PSD_TOL:
        raise ValueError(f"negative eigenvalue {least}")
    return rho, (w, v)


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a 4x4 state or a (..., 4, 4) stack.

    A stack fails when any one of its states does.
    """
    return _checked(rho, vectors=False)[0]


def _fidelity_to_phi_plus(rho: np.ndarray) -> float | np.ndarray:
    # a (1, 4) bra and a (4, 1) ket round each state of a stack as they round one state
    return _per_state(np.real(_PHI_PLUS_BRA @ rho @ _PHI_PLUS_KET)[..., 0, 0])


def fidelity_to_phi_plus(rho: np.ndarray) -> float | np.ndarray:
    """Overlap with (|HH>+|VV>)/sqrt(2): a float, or an array for a (..., 4, 4) stack."""
    return _fidelity_to_phi_plus(check_density_matrix(rho))


def _concurrence(w: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    # sqrt(rho) from the eigenvalues w and eigenvectors v of a checked state
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ _dagger(v)
    lams = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    # lambda_1 - lambda_2 - lambda_3 - lambda_4, subtracted in that order
    return _per_state(np.maximum(0.0, np.subtract.reduce(lams, axis=-1)))


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit state or of each state of a stack.

    Wootters' lambdas are the singular values of sqrt(rho) (y x y)
    sqrt(rho)*, the square roots of the eigenvalues of rho (y x y) rho*
    (y x y).  Taking them directly keeps full precision where eigenvalues
    near zero would lose half their digits to the square root.
    """
    return _concurrence(*_checked(rho, vectors=True)[1])


def tangle(rho: np.ndarray) -> float | np.ndarray:
    """Squared concurrence."""
    return concurrence(rho) ** 2


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """(..., 3, 3) Pauli correlations M[i, j] = tr(rho sigma_i x sigma_j)."""
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    # a length-one row per state: one (S, 16) x (16, 9) product can start BLAS threads for large S
    return (rho.reshape(*lead, 1, 16) @ _PAULI_ROWS.T).real.reshape(*lead, 3, 3)


def _chsh_max(rho: np.ndarray) -> float | np.ndarray:
    m = correlation_matrix(rho)
    eigs = np.linalg.eigvalsh(np.swapaxes(m, -1, -2) @ m)
    return _per_state(2.0 * np.sqrt(np.maximum(0.0, eigs[..., -1] + eigs[..., -2])))


def chsh_max(rho: np.ndarray) -> float | np.ndarray:
    """Largest CHSH value over measurement settings (Horodecki criterion).

    S = 2 sqrt(m1 + m2) with m1 >= m2 the two largest eigenvalues of M^T M.
    """
    return _chsh_max(check_density_matrix(rho))


def state_figures(rho: np.ndarray) -> tuple:
    """``fidelity_to_phi_plus``, ``tangle`` and ``chsh_max`` of a state or a stack, checked once.

    The check's one eigendecomposition also gives the tangle its sqrt(rho).
    """
    rho, eigen = _checked(rho, vectors=True)
    return _fidelity_to_phi_plus(rho), _concurrence(*eigen) ** 2, _chsh_max(rho)


def total_state_fidelity_from_values(p11: float, f_post: float) -> float:
    """Total fidelity including vacuum and higher-order terms: P(1;1) * F_post."""
    if p11 < 0.0 or f_post < 0.0:
        raise ValueError("inputs must be non-negative")
    return p11 * f_post
