"""Sparse Fock-state algebra over a fixed number of optical modes.

States are stored as finite maps from occupation-number tuples to complex
amplitudes; a mode is its position in the tuple.  Passive linear optics
acts by creation-operator substitution ``a_i† -> sum_j M[i, j] b_j†``
expanded multinomially, one input mode at a time, which keeps
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
    def from_amplitudes(
        cls,
        modes: int,
        amplitudes: Mapping[Occupation, complex],
        prune_tol: float = PRUNE_TOL,
    ) -> "SparseKet":
        """Validate a ket given from outside: occupation lengths and signs, pruned amplitudes."""
        clean: dict[Occupation, complex] = {}
        for occ, amp in amplitudes.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != modes:
                raise ValueError(f"occupation {occ} does not have {modes} modes")
            if any(n < 0 for n in occ):
                raise ValueError("negative occupation number")
            if abs(amp) >= prune_tol:
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


_FACT = [math.factorial(n) for n in range(64)]
_SQRT_FACT = [math.sqrt(f) for f in _FACT]


def _compositions(n: int, k: int):
    """All tuples of k non-negative integers that sum to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _multinomial(n: int, parts: Sequence[int]) -> int:
    out = _FACT[n]
    for p in parts:
        out //= _FACT[p]
    return out


def _check_isometry(matrix: np.ndarray) -> None:
    if matrix.shape[0] > matrix.shape[1]:
        raise ValueError("mode map cannot shrink the mode count")
    gram = matrix @ matrix.conj().T
    if not np.allclose(gram, np.eye(matrix.shape[0]), atol=ISOMETRY_TOL):
        raise ValueError("mode map is not unitary/isometric")


def apply_mode_map(state: SparseKet, matrix: np.ndarray, prune_tol: float = PRUNE_TOL) -> SparseKet:
    """Evolve a state through a passive linear-optical element.

    ``matrix`` has shape (inputs, outputs): the element rewrites input
    creation operator i as ``sum_j matrix[i, j] b_j†``.  Its rows must be
    orthonormal (unitary when square, an isometric embedding when the map
    enlarges the mode count), and the result lives on its output modes.
    Each basis ket is rewritten by substituting the map into its
    creation-operator monomial and expanding, with the sqrt(n!) factors
    converting between operator monomials and normalized Fock kets.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("mode map matrix must be 2-dimensional")
    if matrix.shape[0] != state.modes:
        raise ValueError(f"map has {matrix.shape[0]} inputs, ket has {state.modes} modes")
    _check_isometry(matrix)

    n_out = matrix.shape[1]
    rows = [
        [(j, matrix[i, j]) for j in range(n_out) if matrix[i, j] != 0.0]
        for i in range(matrix.shape[0])
    ]

    out: dict[Occupation, complex] = defaultdict(complex)
    zero = (0,) * n_out
    for occ, amp in state.amplitudes.items():
        start = amp
        for n in occ:
            start /= _SQRT_FACT[n]
        partial: dict[Occupation, complex] = {zero: start}
        for i, n in enumerate(occ):
            if n == 0:
                continue
            support = rows[i]
            coeffs = [c for _, c in support]
            cols = [j for j, _ in support]
            grown: dict[Occupation, complex] = defaultdict(complex)
            for mono, coeff in partial.items():
                for parts in _compositions(n, len(support)):
                    w = coeff * _multinomial(n, parts)
                    for c, p in zip(coeffs, parts):
                        if p:
                            w *= c**p
                    if w == 0.0:
                        continue
                    key = list(mono)
                    for j, p in zip(cols, parts):
                        key[j] += p
                    grown[tuple(key)] += w
            partial = {m: c for m, c in grown.items() if abs(c) >= prune_tol}
        for mono, coeff in partial.items():
            factor = 1.0
            for m in mono:
                factor *= _SQRT_FACT[m]
            out[mono] += coeff * factor

    return SparseKet(n_out, {o: complex(a) for o, a in out.items() if abs(a) >= prune_tol})
