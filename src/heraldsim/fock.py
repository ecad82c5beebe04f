"""Sparse Fock-state algebra over a fixed number of optical modes.

States are stored as finite maps from occupation-number tuples to complex
amplitudes; a mode is its position in the tuple.  Passive linear optics
acts by creation-operator substitution ``a_i† -> sum_j M[i, j] b_j†``,
one input photon at a time, pruning after each input mode, which keeps
intermediate term growth bounded.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Amplitudes below this magnitude are dropped after each operation.
PRUNE_TOL = 1e-14
# Tolerance for the isometry check M M† = I on mode maps.
ISOMETRY_TOL = 1e-12

Occupation = tuple[int, ...]


@dataclass(frozen=True)
class SparseKet:
    """Pure multi-photon state on ``modes`` modes as a sparse map occupation -> amplitude.

    Treat instances as immutable; all operations return new kets.
    """

    modes: int
    amplitudes: Mapping[Occupation, complex]

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
        return cls(modes, clean)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> "SparseKet":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero ket")
        s = 1.0 / math.sqrt(n2)
        return SparseKet(self.modes, {o: a * s for o, a in self.amplitudes.items()})

    def amplitude(self, occ: Sequence[int]) -> complex:
        return complex(self.amplitudes.get(tuple(occ), 0.0))


def vacuum(modes: int) -> SparseKet:
    """All-modes-empty state with amplitude 1."""
    return SparseKet(modes, {(0,) * modes: 1.0 + 0.0j})


def _check_isometry(matrix: np.ndarray) -> None:
    if matrix.shape[0] > matrix.shape[1]:
        raise ValueError("mode map cannot shrink the mode count")
    gram = matrix @ matrix.conj().T
    if not np.allclose(gram, np.eye(matrix.shape[0]), atol=ISOMETRY_TOL):
        raise ValueError("mode map is not unitary/isometric")


def apply_mode_map(state: SparseKet, matrix: np.ndarray) -> SparseKet:
    """Evolve a state through a passive linear-optical element.

    ``matrix`` has shape (inputs, outputs): the element rewrites input
    creation operator i as ``sum_j matrix[i, j] b_j†``.  Its rows must be
    orthonormal (unitary when square, an isometric embedding when the map
    enlarges the mode count), and the result lives on its output modes.
    Each basis ket |n> = prod_i (a_i†)^(n_i) / sqrt(n_i!) |0> is rebuilt
    from the vacuum one photon at a time in normalized Fock kets,
    b_j† |m> = sqrt(m_j + 1) |m + e_j>.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("mode map matrix must be 2-dimensional")
    if matrix.shape[0] != state.modes:
        raise ValueError(f"map has {matrix.shape[0]} inputs, ket has {state.modes} modes")
    _check_isometry(matrix)

    n_out = matrix.shape[1]
    rows = [
        [(j, complex(matrix[i, j])) for j in range(n_out) if matrix[i, j] != 0.0]
        for i in range(matrix.shape[0])
    ]

    # sqrt(k) for every photon number a ket of this state can reach.
    sqrt = [math.sqrt(k) for k in range(max(map(sum, state.amplitudes), default=0) + 1)]
    out: dict[Occupation, complex] = defaultdict(complex)
    zero = (0,) * n_out
    for occ, amp in state.amplitudes.items():
        partial: dict[Occupation, complex] = {zero: amp}
        for i, n in enumerate(occ):
            if n == 0:
                continue
            # The k-th photon of mode i also carries 1/sqrt(k): 1/sqrt(n_i!) in all.
            for k in range(1, n + 1):
                grown: dict[Occupation, complex] = defaultdict(complex)
                for ket, coeff in partial.items():
                    coeff /= sqrt[k]
                    for j, c in rows[i]:
                        key = list(ket)
                        m = key[j]
                        key[j] = m + 1
                        grown[tuple(key)] += coeff * c * sqrt[m + 1]
                partial = grown
            partial = {o: a for o, a in partial.items() if abs(a) >= PRUNE_TOL}
        for ket, coeff in partial.items():
            out[ket] += coeff

    return SparseKet(n_out, {o: complex(a) for o, a in out.items() if abs(a) >= PRUNE_TOL})
