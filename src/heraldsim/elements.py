"""Optical elements and assembly of the heralded-pair circuit.

The circuit follows the experimental layout: two SPDC arms a1/a2 hit
partially transmitting beam splitters; the reflected arm r1 is analyzed in
the H/V basis, the reflected arm r2 in the +/- basis (half-wave plate at
22.5 degrees before a polarizing beam splitter), and the transmitted arms
t1/t2 pass setting-dependent analysis wave plates before their own
polarizing beam splitters.
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

ANALYSIS_SETTINGS = ("x", "y", "z")


def beam_splitter_map(transmission: float) -> np.ndarray:
    """Two-port non-polarizing beam splitter with intensity transmission T.

    Real convention [[sqrt(T), sqrt(R)], [sqrt(R), -sqrt(T)]] between the
    (transmitted, reflected) outputs; any lab phase differs from this by a
    local unitary that is corrected downstream.
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


def qwp_map(angle: float) -> np.ndarray:
    """Quarter-wave plate Jones matrix at fast-axis angle theta.

    Built as R(t) diag(1, -i) R(-t); the global phase is fixed so the
    leading H amplitude is real and positive.
    """
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    jones = rot @ np.diag([1.0, -1.0j]) @ rot.conj().T
    anchor = jones[0, 0] if abs(jones[0, 0]) > 1e-12 else jones[0, 1]
    return jones * (abs(anchor) / anchor)


def _analysis_jones(setting: str) -> np.ndarray:
    """Wave plates that rotate a Pauli measurement basis onto H/V, as one 2x2 map.

    z: none; x: HWP at pi/8 maps +/- onto H/V; y: QWP at pi/4 then HWP at
    pi/4 maps the circular basis onto H/V.
    """
    if setting == "z":
        return np.eye(2, dtype=complex)
    if setting == "x":
        return hwp_map(math.pi / 8.0)
    if setting == "y":
        return qwp_map(math.pi / 4.0) @ hwp_map(math.pi / 4.0)
    raise ValueError(f"unknown analysis setting {setting!r} (use x, y or z)")


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
    Arms t1, t2 -> analysis wave plates for the requested Pauli settings ->
    PBS -> detectors t1H/t1V and t2H/t2V.

    The two arms never meet, and each PBS only relabels H and V into
    separate detection modes.  So arm a_k's (H, V) rows hold sqrt(R_k)
    times the reflected arm's Jones map on its two herald detectors and
    sqrt(T_k) times the analysis map on its two output detectors; (sqrt(T),
    sqrt(R)) is the first row of ``beam_splitter_map``.
    """
    for s in settings:
        if s not in ANALYSIS_SETTINGS:
            raise ValueError(f"unknown analysis setting {s!r} (use x, y or z)")

    (sqrt_t1, sqrt_r1), (sqrt_t2, sqrt_r2) = (
        beam_splitter_map(t)[0].real for t in (t1, t2)
    )
    # Rows a1H a1V a2H a2V; columns r1H r1V r2+ r2- t1H t1V t2H t2V.
    matrix = np.zeros((4, 8), dtype=complex)
    matrix[0:2, 0:2] = sqrt_r1 * np.eye(2)
    matrix[2:4, 2:4] = sqrt_r2 * hwp_map(math.pi / 8.0)
    matrix[0:2, 4:6] = sqrt_t1 * _analysis_jones(settings[0])
    matrix[2:4, 6:8] = sqrt_t2 * _analysis_jones(settings[1])
    matrix.setflags(write=False)
    return CircuitLayout(matrix=matrix, t1=t1, t2=t2, settings=tuple(settings))
