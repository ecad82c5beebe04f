"""Sparse Fock-state algebra over a register of labeled optical modes.

States are stored as finite maps from occupation-number tuples to complex
amplitudes.  Passive linear optics acts by creation-operator substitution
``a_i† -> sum_j M[i, j] b_j†`` expanded multinomially, one input mode at a
time, which keeps intermediate term growth bounded.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# Amplitudes below this magnitude are dropped after each operation.
PRUNE_TOL = 1e-14
# Tolerance for the isometry check M M† = I on mode maps.
ISOMETRY_TOL = 1e-12
# Default hard cap on total photon number (four pairs).
DEFAULT_PHOTON_CAP = 8

Occupation = tuple[int, ...]


class Mode(NamedTuple):
    """A single optical mode: spatial port plus polarization (H or V)."""

    spatial: str
    pol: str

    def __str__(self) -> str:
        return f"{self.spatial}{self.pol}"


@dataclass(frozen=True)
class ModeRegister:
    """Ordered collection of unique mode labels; fixes occupation indexing."""

    labels: tuple[Mode, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValueError("register needs at least one mode")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate mode labels in register")
        for m in self.labels:
            if m.pol not in ("H", "V"):
                raise ValueError(f"polarization must be H or V, got {m.pol!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: Mode) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"mode {label} not in register") from None

    def indices(self, labels: Iterable[Mode]) -> tuple[int, ...]:
        return tuple(self.index(m) for m in labels)

    def without(self, labels: Iterable[Mode]) -> "ModeRegister":
        """The remaining modes; none remain when every mode is measured."""
        drop = set(labels)
        kept = tuple(m for m in self.labels if m not in drop)
        return ModeRegister(kept) if kept else _NO_MODES


# What remains of a register once every mode is measured.  Only ``without``
# yields it: a register built by hand still needs at least one mode.
_NO_MODES = object.__new__(ModeRegister)
object.__setattr__(_NO_MODES, "labels", ())


def register_of(*labels: tuple[str, str] | Mode) -> ModeRegister:
    """Build a register from (spatial, pol) pairs."""
    return ModeRegister(tuple(Mode(*m) for m in labels))


@dataclass(frozen=True)
class SparseKet:
    """Pure multi-photon state as a sparse map occupation -> amplitude.

    Treat instances as immutable; all operations return new kets.
    """

    register: ModeRegister
    amplitudes: Mapping[Occupation, complex]

    @classmethod
    def from_amplitudes(
        cls,
        register: ModeRegister,
        amplitudes: Mapping[Occupation, complex],
        prune_tol: float = PRUNE_TOL,
    ) -> "SparseKet":
        clean: dict[Occupation, complex] = {}
        for occ, amp in amplitudes.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != register.size:
                raise ValueError("occupation length does not match register")
            if any(n < 0 for n in occ):
                raise ValueError("negative occupation number")
            if abs(amp) >= prune_tol:
                clean[occ] = complex(amp)
        return cls(register, clean)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> "SparseKet":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero ket")
        s = 1.0 / math.sqrt(n2)
        return SparseKet(self.register, {o: a * s for o, a in self.amplitudes.items()})

    def total_photons(self) -> int:
        """Largest total photon number over the support (0 for vacuum/empty)."""
        if not self.amplitudes:
            return 0
        return max(sum(occ) for occ in self.amplitudes)

    def amplitude(self, occ: Sequence[int]) -> complex:
        return complex(self.amplitudes.get(tuple(occ), 0.0))

    def scaled(self, factor: complex) -> "SparseKet":
        return SparseKet.from_amplitudes(
            self.register, {o: a * factor for o, a in self.amplitudes.items()}
        )


@dataclass(frozen=True)
class ModeMap:
    """Mode-substitution coefficients for a passive linear-optical element.

    ``matrix`` has shape (inputs, outputs); the element rewrites each input
    creation operator as ``a_i† -> sum_j matrix[i, j] b_j†``.  Rows must be
    orthonormal (unitary when square, an isometric embedding when the map
    enlarges the mode count).  The map acts positionally on a state's whole
    register; ``output_labels`` names the modes it produces and is required
    when the mode count changes.
    """

    matrix: np.ndarray
    output_labels: tuple[Mode, ...] | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("mode map matrix must be 2-dimensional")
        object.__setattr__(self, "matrix", m)
        if self.output_labels is not None and len(self.output_labels) != m.shape[1]:
            raise ValueError("output label count does not match matrix columns")

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]

    def check_isometry(self, tol: float = ISOMETRY_TOL) -> None:
        m = self.matrix
        if m.shape[0] > m.shape[1]:
            raise ValueError("mode map cannot shrink the mode count")
        gram = m @ m.conj().T
        if not np.allclose(gram, np.eye(m.shape[0]), atol=tol):
            raise ValueError("mode map is not unitary/isometric")


def vacuum(register: ModeRegister) -> SparseKet:
    """All-modes-empty state with amplitude 1."""
    return SparseKet(register, {(0,) * register.size: 1.0 + 0.0j})


def basis_ket(register: ModeRegister, occ: Sequence[int], amp: complex = 1.0) -> SparseKet:
    return SparseKet.from_amplitudes(register, {tuple(occ): amp})


def tensor(a: SparseKet, b: SparseKet) -> SparseKet:
    """Combine states on disjoint registers; amplitudes multiply."""
    overlap = set(a.register.labels) & set(b.register.labels)
    if overlap:
        raise ValueError(f"mode label collision in tensor: {sorted(map(str, overlap))}")
    joined = ModeRegister(a.register.labels + b.register.labels)
    amps: dict[Occupation, complex] = {}
    for occ_a, amp_a in a.amplitudes.items():
        for occ_b, amp_b in b.amplitudes.items():
            amps[occ_a + occ_b] = amp_a * amp_b
    return SparseKet.from_amplitudes(joined, amps)


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


def apply_mode_map(state: SparseKet, mode_map: ModeMap, prune_tol: float = PRUNE_TOL) -> SparseKet:
    """Evolve a state through a passive linear-optical element.

    Each basis ket is rewritten by substituting the element's mode map into
    its creation-operator monomial and expanding, with the sqrt(n!) factors
    converting between operator monomials and normalized Fock kets.
    """
    if mode_map.n_inputs != state.register.size:
        raise ValueError(
            f"map has {mode_map.n_inputs} inputs, register has {state.register.size} modes"
        )
    if mode_map.output_labels is not None:
        out_register = ModeRegister(mode_map.output_labels)
    elif mode_map.n_inputs == mode_map.n_outputs:
        out_register = state.register
    else:
        raise ValueError("rectangular map needs output labels")
    mode_map.check_isometry()

    matrix = mode_map.matrix
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

    return SparseKet.from_amplitudes(out_register, out, prune_tol)


def split_by_occupation(
    state: SparseKet, modes: Sequence[Mode]
) -> tuple[ModeRegister, dict[Occupation, dict[Occupation, complex]]]:
    """Group amplitudes by the occupation of a mode subset.

    Returns the register of the remaining modes and, per subset pattern, the
    unnormalized amplitude map over the remaining modes (its norm-squared is
    the joint probability of the pattern).
    """
    idx = state.register.indices(modes)
    idx_set = set(idx)
    keep = [i for i in range(state.register.size) if i not in idx_set]
    rest_register = state.register.without(modes)
    groups: dict[Occupation, dict[Occupation, complex]] = defaultdict(dict)
    for occ, amp in state.amplitudes.items():
        key = tuple(occ[i] for i in idx)
        rest = tuple(occ[i] for i in keep)
        bucket = groups[key]
        bucket[rest] = bucket.get(rest, 0.0) + amp
    return rest_register, dict(groups)
