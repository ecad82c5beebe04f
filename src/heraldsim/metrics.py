"""Scalar figures of merit for the heralded two-qubit state."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

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


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a 4x4 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=HERMITICITY_TOL):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if eigs.min() < -PSD_TOL:
        raise ValueError(f"negative eigenvalue {eigs.min()}")
    return rho


@dataclass(frozen=True)
class RateEstimate:
    """Measured coincidence rates feeding the preparation-efficiency estimator."""

    c4: float
    c6: float
    eta: float

    def __post_init__(self):
        if self.c4 < 0.0 or self.c6 < 0.0:
            raise ValueError("rates must be non-negative")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")


def fidelity_to_phi_plus(rho: np.ndarray) -> float:
    """Overlap with (|HH>+|VV>)/sqrt(2)."""
    rho = check_density_matrix(rho)
    return float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state.

    Wootters' lambdas are the singular values of sqrt(rho) (y x y)
    sqrt(rho)*, the square roots of the eigenvalues of rho (y x y) rho*
    (y x y).  Taking them directly keeps full precision where eigenvalues
    near zero would lose half their digits to the square root.
    """
    rho = check_density_matrix(rho)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    lams = np.linalg.svd(sqrt_rho @ yy @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def tangle(rho: np.ndarray) -> float:
    """Squared concurrence."""
    return concurrence(rho) ** 2


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of Pauli correlations M[i, j] = tr(rho sigma_i x sigma_j)."""
    rho = np.asarray(rho, dtype=complex)
    axes = ("x", "y", "z")
    m = np.zeros((3, 3))
    for i, a in enumerate(axes):
        for j, b in enumerate(axes):
            m[i, j] = float(np.real(np.trace(rho @ np.kron(PAULIS[a], PAULIS[b]))))
    return m


def chsh_max(rho: np.ndarray) -> float:
    """Largest CHSH value over measurement settings (Horodecki criterion).

    S = 2 sqrt(m1 + m2) with m1 >= m2 the two largest eigenvalues of M^T M.
    """
    rho = check_density_matrix(rho)
    m = correlation_matrix(rho)
    eigs = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
    return float(2.0 * math.sqrt(max(0.0, eigs[0] + eigs[1])))


def preparation_efficiency(rates: RateEstimate) -> float:
    """Heralded-pair preparation probability estimator C6 / (C4 eta^2)."""
    if rates.c4 == 0.0:
        raise ValueError("four-fold rate is zero; estimator undefined")
    value = rates.c6 / (rates.c4 * rates.eta**2)
    if value > 1.0:
        warnings.warn(
            f"preparation-efficiency estimator {value:.4f} exceeds 1; clamping",
            stacklevel=2,
        )
        return 1.0
    return value


def one_photon_per_arm_probability(table: Mapping[tuple[int, ...], float]) -> float:
    """P(1;1) of a detected number table: one photon per arm, any polarization."""
    return sum(
        p for (n1h, n1v, n2h, n2v), p in table.items() if n1h + n1v == 1 and n2h + n2v == 1
    )


def photons_in_both_arms_probability(table: Mapping[tuple[int, ...], float]) -> float:
    """P(>=1;>=1) of a detected number table: a threshold click in each arm."""
    return sum(
        p for (n1h, n1v, n2h, n2v), p in table.items() if n1h + n1v >= 1 and n2h + n2v >= 1
    )


def total_state_fidelity_from_values(p11: float, f_post: float) -> float:
    """Total fidelity including vacuum and higher-order terms: P(1;1) * F_post."""
    if p11 < 0.0 or f_post < 0.0:
        raise ValueError("inputs must be non-negative")
    return p11 * f_post
