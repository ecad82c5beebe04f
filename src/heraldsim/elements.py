"""Optical elements and assembly of the heralded-pair circuit.

The circuit follows the experimental layout: two SPDC arms a1/a2 hit
partially transmitting beam splitters; the reflected arm r1 is analyzed in
the H/V basis, the reflected arm r2 in the +/- basis (half-wave plate at
22.5 degrees before a polarizing beam splitter), and the transmitted arms
t1/t2 are analyzed in the eigenbasis of a Pauli setting (``ANALYSIS_BASES``)
at their own polarizing beam splitters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import SparseKet, apply_mode_map

# Source modes (the circuit matrix's rows) and detectors (its columns), in order.
SOURCE_NAMES = ("a1H", "a1V", "a2H", "a2V")
HERALD_NAMES = ("r1H", "r1V", "r2+", "r2-")
OUTPUT_NAMES = ("t1H", "t1V", "t2H", "t2V")

# The analyzer of each Pauli setting: row j is the polarization that reaches the
# H-side (j = 0) or V-side (j = 1) port of the output arm's PBS.
ANALYSIS_BASES = {
    "x": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "y": np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / math.sqrt(2.0),
    "z": np.eye(2, dtype=complex),
}
ANALYSIS_SETTINGS = tuple(ANALYSIS_BASES)


def beam_splitter_map(transmission: float) -> np.ndarray:
    """Two-port non-polarizing beam splitter with intensity transmission T.

    Real convention [[sqrt(T), sqrt(R)], [sqrt(R), -sqrt(T)]] between the
    (transmitted, reflected) outputs.  A lab splitter's phases differ from
    this by phases on its ports, which leave every photon count unchanged.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    t = math.sqrt(transmission)
    r = math.sqrt(1.0 - transmission)
    return np.array([[t, r], [r, -t]], dtype=complex)


def hwp_map(angle: float) -> np.ndarray:
    """Half-wave plate Jones matrix at fast-axis angle theta.

    [[cos 2t, sin 2t], [sin 2t, -cos 2t]] acting on the (H, V) pair of one
    spatial mode.
    """
    c = math.cos(2.0 * angle)
    s = math.sin(2.0 * angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def arm_jones_maps(settings: tuple[str, str]) -> np.ndarray:
    """Each arm's Jones maps at unit amplitude: the circuit with its splitters left out.

    Returns an (arms, 2, 2, 2) array over (arm, side, source polarization,
    detector): side 0 maps the arm's (H, V) onto its two herald detectors,
    the identity for r1H/r1V and HWP(pi/8) for r2+/r2-; side 1 onto its
    two output detectors through the analyzer of its Pauli setting, whose
    column j is the conjugate of the polarization ``ANALYSIS_BASES`` gives
    for port j.
    """
    for s in settings:
        if s not in ANALYSIS_SETTINGS:
            raise ValueError(f"unknown analysis setting {s!r} (use x, y or z)")
    heralds = (np.eye(2, dtype=complex), hwp_map(math.pi / 8.0))
    return np.array([[herald, ANALYSIS_BASES[s].conj().T] for herald, s in zip(heralds, settings)])


@dataclass(frozen=True)
class CircuitLayout:
    """Assembled circuit as one source-to-detector matrix.

    ``matrix`` is the (4, 8) mode-substitution isometry from the source
    modes SOURCE_NAMES onto the detectors HERALD_NAMES then OUTPUT_NAMES.
    """

    matrix: np.ndarray
    t1: float
    t2: float
    settings: tuple[str, str]

    def run(self, state: SparseKet) -> SparseKet:
        """Evolve a ket on the source modes through the whole circuit in one pass."""
        if state.modes != len(SOURCE_NAMES):
            raise ValueError(f"circuit input must be a ket on the {len(SOURCE_NAMES)} source modes")
        return apply_mode_map(state, self.matrix)

    def total_matrix(self) -> np.ndarray:
        """Substitution matrix, source modes -> detectors (read-only)."""
        return self.matrix


def build_paper_circuit(
    t1: float, t2: float, settings: tuple[str, str] = ("z", "z")
) -> CircuitLayout:
    """Assemble the full heralded-entanglement circuit as one matrix.

    Arm a1 -> BS(T1) -> (t1, r1); r1 -> PBS -> detectors r1H/r1V.
    Arm a2 -> BS(T2) -> (t2, r2); r2 -> HWP(pi/8) -> PBS -> detectors r2+/r2-.
    Arms t1, t2 -> analyzers of the requested Pauli settings -> PBS ->
    detectors t1H/t1V and t2H/t2V.

    The two arms never meet, and each PBS only relabels H and V into
    separate detection modes.  So arm a_k's (H, V) rows hold sqrt(R_k)
    times the reflected arm's Jones map on its two herald detectors and
    sqrt(T_k) times the analyzer's map on its two output detectors, both
    from ``arm_jones_maps``; (sqrt(T), sqrt(R)) is the first row of
    ``beam_splitter_map``.
    """
    jones = arm_jones_maps(settings)
    # Rows a1H a1V a2H a2V; columns r1H r1V r2+ r2- t1H t1V t2H t2V.
    matrix = np.zeros((4, 8), dtype=complex)
    for arm, t in enumerate((t1, t2)):
        sqrt_t, sqrt_r = beam_splitter_map(t)[0].real
        rows = slice(2 * arm, 2 * arm + 2)
        matrix[rows, 2 * arm:2 * arm + 2] = sqrt_r * jones[arm, 0]
        matrix[rows, 4 + 2 * arm:6 + 2 * arm] = sqrt_t * jones[arm, 1]
    matrix.setflags(write=False)
    return CircuitLayout(matrix=matrix, t1=t1, t2=t2, settings=tuple(settings))
