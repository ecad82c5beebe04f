"""Sparse Fock-state algebra over a fixed number of optical modes.

A state is a (K, modes) integer array of occupation numbers, one row per
basis ket in lexicographic order, and the K complex amplitudes; a mode is
a column.  Passive linear optics acts by creation-operator substitution
``a_i† -> sum_j M[i, j] b_j†``, one input photon at a time, pruning after
each input mode, which keeps intermediate term growth bounded.  While a
state evolves, each occupation is one mixed-radix integer with mode 0 as
the most significant digit, so integer order is lexicographic order.
"""

from __future__ import annotations

import functools
import types
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Amplitudes below this magnitude are dropped after each operation.
PRUNE_TOL = 1e-14
# Tolerance for the isometry check M M† = I on mode maps.
ISOMETRY_TOL = 1e-12

Occupation = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SparseKet:
    """Pure multi-photon state on ``modes`` modes.

    ``occupations`` is a (K, modes) integer array of distinct rows in
    lexicographic order and ``values`` the (K,) complex amplitudes.  The
    constructor trusts its arrays; a ket from outside the package goes
    through ``from_amplitudes``, which validates and orders it.  Treat
    instances and their arrays as immutable; all operations return new kets.
    """

    modes: int
    occupations: np.ndarray
    values: np.ndarray

    @classmethod
    def from_amplitudes(cls, modes: int, amplitudes: Mapping[Occupation, complex]) -> "SparseKet":
        """Validate a ket given from outside: occupation lengths and signs, pruned amplitudes."""
        clean: dict[Occupation, complex] = {}
        for occ, amp in amplitudes.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != modes:
                raise ValueError(f"occupation {occ} does not have {modes} modes")
            if any(n < 0 for n in occ):
                raise ValueError("negative occupation number")
            if abs(amp) >= PRUNE_TOL:
                clean[occ] = complex(amp)
        rows = sorted(clean)
        occupations = np.array(rows, dtype=np.int64).reshape(len(rows), modes)
        return cls(modes, occupations, np.array([clean[o] for o in rows], dtype=complex))

    @functools.cached_property
    def amplitudes(self) -> Mapping[Occupation, complex]:
        """The ket as a read-only map occupation tuple -> amplitude."""
        return types.MappingProxyType(
            dict(zip(map(tuple, self.occupations.tolist()), self.values.tolist()))
        )

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def normalized(self) -> "SparseKet":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero ket")
        return SparseKet(self.modes, self.occupations, self.values * (1.0 / np.sqrt(n2)))

    def amplitude(self, occ: Sequence[int]) -> complex:
        return complex(self.amplitudes.get(tuple(occ), 0.0))


def vacuum(modes: int) -> SparseKet:
    """All-modes-empty state with amplitude 1."""
    return SparseKet(modes, np.zeros((1, modes), dtype=np.int64), np.ones(1, dtype=complex))


def _check_isometry(matrix: np.ndarray) -> None:
    if matrix.shape[0] > matrix.shape[1]:
        raise ValueError("mode map cannot shrink the mode count")
    gram = matrix @ matrix.conj().T
    if not np.allclose(gram, np.eye(matrix.shape[0]), rtol=0.0, atol=ISOMETRY_TOL):
        raise ValueError("mode map is not unitary/isometric")


def _merge(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the coefficients of equal keys; the keys come back sorted and distinct."""
    merged, inverse = np.unique(keys, return_inverse=True)
    sums = np.empty(len(merged), dtype=complex)
    sums.real = np.bincount(inverse, weights=coeffs.real, minlength=len(merged))
    sums.imag = np.bincount(inverse, weights=coeffs.imag, minlength=len(merged))
    return merged, sums


def apply_mode_map(state: SparseKet, matrix: np.ndarray) -> SparseKet:
    """Evolve a state through a passive linear-optical element.

    ``matrix`` has shape (inputs, outputs): the element rewrites input
    creation operator i as ``sum_j matrix[i, j] b_j†``.  Its rows must be
    orthonormal (unitary when square, an isometric embedding when the map
    enlarges the mode count), and the result lives on its output modes.
    Each basis ket |n> = prod_i (a_i†)^(n_i) / sqrt(n_i!) |0> is rebuilt
    from the vacuum one photon at a time in normalized Fock kets,
    b_j† |m> = sqrt(m_j + 1) |m + e_j>.  The partial kets of different
    input kets are kept apart, and each is pruned after each of its input
    modes, until they are summed at the end.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("mode map matrix must be 2-dimensional")
    if matrix.shape[0] != state.modes:
        raise ValueError(f"map has {matrix.shape[0]} inputs, ket has {state.modes} modes")
    _check_isometry(matrix)

    n_out = matrix.shape[1]
    occupations = state.occupations
    # An output occupation is a number in base `radix` (no output mode can
    # hold more photons than its ket has); a partial ket's key also carries
    # the index of its input ket above the occupation's digits.
    radix = int(occupations.sum(axis=1).max(initial=0)) + 1
    span = radix**n_out
    if span * len(occupations) >= 2**63:
        raise ValueError(f"{radix - 1} photons on {n_out} modes overflow the 64-bit occupation keys")
    place = np.array([radix ** (n_out - 1 - j) for j in range(n_out)], dtype=np.int64)
    sqrt = np.sqrt(np.arange(radix + 1))

    keys = np.arange(len(occupations), dtype=np.int64) * span
    coeffs = np.array(state.values, dtype=complex)
    for i in range(state.modes):
        photons = occupations[:, i]
        cols = np.flatnonzero(matrix[i])
        # The k-th photon of mode i also carries 1/sqrt(k): 1/sqrt(n_i!) in all.
        for k in range(1, int(photons.max(initial=0)) + 1):
            grow = photons[keys // span] >= k
            g_keys, g_coeffs = keys[grow], coeffs[grow]
            m = g_keys[:, None] // place[cols] % radix
            new_coeffs = (g_coeffs / sqrt[k])[:, None] * matrix[i, cols] * sqrt[m + 1]
            g_keys, g_coeffs = _merge((g_keys[:, None] + place[cols]).ravel(), new_coeffs.ravel())
            keys = np.concatenate([keys[~grow], g_keys])
            coeffs = np.concatenate([coeffs[~grow], g_coeffs])
        keep = (photons[keys // span] == 0) | (np.abs(coeffs) >= PRUNE_TOL)
        keys, coeffs = keys[keep], coeffs[keep]

    keys, coeffs = _merge(keys % span, coeffs)
    keep = np.abs(coeffs) >= PRUNE_TOL
    keys, coeffs = keys[keep], coeffs[keep]
    return SparseKet(n_out, keys[:, None] // place % radix, coeffs)
