"""Independent brute-force oracles used only by the tests.

These deliberately avoid the package's mode-substitution code path: state
evolution goes through the permanent formula for second-quantized linear
optics, and the emission terms come from explicit creation-operator
algebra.  Distinguishable photons are routed one at a time through every
detector, not only the herald detectors.  Click probabilities are products
of per-detector miss probabilities rather than sums over a number table.
The tomography estimate reads count tables and estimates the state with
its own Pauli matrices, linear inversion and positivity projection, sharing
no code with the package's reconstruction.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def permanent(m: np.ndarray) -> complex:
    """Permanent as the sum over permutations (tiny matrices only).

    Permutations are grown row by row and a partial product stops at the
    first exactly-zero entry, so block-sparse circuit matrices skip the
    permutations that contribute nothing.
    """
    n = m.shape[0]
    entries = [[(j, m[i, j]) for j in range(n) if m[i, j] != 0.0] for i in range(n)]

    def expand(row: int, used: frozenset, prefix: complex) -> complex:
        if row == n:
            return prefix
        return sum(
            (expand(row + 1, used | {j}, prefix * x) for j, x in entries[row] if j not in used),
            0.0 + 0.0j,
        )

    return expand(0, frozenset(), 1.0 + 0.0j)


def _repeat_matrix(matrix: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> np.ndarray:
    row_idx = [i for i, n in enumerate(rows) for _ in range(n)]
    col_idx = [j for j, n in enumerate(cols) for _ in range(n)]
    return matrix[np.ix_(row_idx, col_idx)]


def transition_amplitude(matrix: np.ndarray, occ_in: tuple[int, ...], occ_out: tuple[int, ...]) -> complex:
    """<out|U|in> = per(U_repeated) / sqrt(prod(in!) prod(out!))."""
    if sum(occ_in) != sum(occ_out):
        return 0.0
    sub = _repeat_matrix(matrix, occ_in, occ_out)
    norm = math.sqrt(
        math.prod(math.factorial(n) for n in occ_in)
        * math.prod(math.factorial(n) for n in occ_out)
    )
    return permanent(sub) / norm


def occupations(n_modes: int, total: int):
    """All occupation tuples of a fixed total photon number."""
    if n_modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in occupations(n_modes - 1, total - first):
            yield (first,) + rest


def dense_evolve(amplitudes: dict, matrix: np.ndarray) -> dict:
    """Evolve a sparse state through a unitary via the permanent formula."""
    n_out = matrix.shape[1]
    out: dict[tuple[int, ...], complex] = {}
    for occ_in, amp in amplitudes.items():
        total = sum(occ_in)
        for occ_out in occupations(n_out, total):
            a = transition_amplitude(matrix, occ_in, occ_out)
            if a != 0.0:
                out[occ_out] = out.get(occ_out, 0.0) + amp * a
    return {k: v for k, v in out.items() if abs(v) > 1e-15}


def apply_creation(amplitudes: dict, mode: int, n_modes: int) -> dict:
    """Apply a creation operator on one mode of a sparse occupation map."""
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in amplitudes.items():
        lifted = list(occ)
        lifted[mode] += 1
        key = tuple(lifted)
        out[key] = out.get(key, 0.0) + amp * math.sqrt(lifted[mode])
    return out


def spdc_pair_operator_expansion(n: int) -> dict:
    """Expand (a1H† a2V† - a1V† a2H†)^n |0> over (n1H, n1V, n2H, n2V)."""
    state = {(0, 0, 0, 0): 1.0 + 0.0j}
    for _ in range(n):
        plus = apply_creation(apply_creation(state, 0, 4), 3, 4)
        minus = apply_creation(apply_creation(state, 1, 4), 2, 4)
        state = {}
        for occ, amp in plus.items():
            state[occ] = state.get(occ, 0.0) + amp
        for occ, amp in minus.items():
            state[occ] = state.get(occ, 0.0) - amp
    return state


def normalized(amplitudes: dict) -> dict:
    norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
    return {k: v / norm for k, v in amplitudes.items()}


def classical_occupation_distribution(amplitudes: dict, matrix: np.ndarray) -> dict:
    """Route photons through a circuit as fully distinguishable particles.

    Each photon of each input basis ket lands in output mode j with
    probability |matrix[i, j]|^2, independently; all interference is
    discarded.  Returns the occupation distribution over every output mode.
    """
    probs = np.abs(np.asarray(matrix)) ** 2
    n_out = probs.shape[1]
    out: dict[tuple[int, ...], float] = {}
    for occ, amp in amplitudes.items():
        partial = {(0,) * n_out: abs(amp) ** 2}
        for i, n in enumerate(occ):
            for _ in range(n):
                grown: dict[tuple[int, ...], float] = {}
                for pattern, w in partial.items():
                    for j in range(n_out):
                        if probs[i, j] == 0.0:
                            continue
                        key = pattern[:j] + (pattern[j] + 1,) + pattern[j + 1:]
                        grown[key] = grown.get(key, 0.0) + w * probs[i, j]
                partial = grown
        for pattern, w in partial.items():
            out[pattern] = out.get(pattern, 0.0) + w
    return out


def classical_herald_probability(amplitudes: dict, matrix: np.ndarray, etas, resolving: str) -> float:
    """Herald probability of distinguishable photons over their full occupation distribution.

    The first ``len(etas)`` output modes are the herald detectors.  A
    threshold detector with n photons clicks with probability
    1 - (1 - eta)^n; a number-resolving one sees exactly one photon with
    probability n eta (1 - eta)^(n - 1).
    """
    total = 0.0
    for occ, p in classical_occupation_distribution(amplitudes, matrix).items():
        click = 1.0
        for n, eta in zip(occ, etas):
            if n == 0:
                click = 0.0
                break
            if resolving == "number":
                click *= n * eta * (1.0 - eta) ** (n - 1)
            else:
                click *= 1.0 - (1.0 - eta) ** n
        total += p * click
    return total


def arm_click_probability(ensemble, etas) -> float:
    """P(at least one click in each output arm | herald), as a product of miss probabilities.

    ``etas`` are the efficiencies of the output detectors t1H, t1V, t2H, t2V;
    a detector with n photons misses them all with probability (1 - eta)^n.
    """
    total = 0.0
    for weight, ket in ensemble.components:
        for occ, amp in ket.amplitudes.items():
            miss = [(1.0 - eta) ** n for n, eta in zip(occ, etas)]
            total += weight * abs(amp) ** 2 * (1.0 - miss[0] * miss[1]) * (1.0 - miss[2] * miss[3])
    return total / ensemble.probability


def one_photon_per_arm_before_loss(ensemble) -> float:
    """P(exactly one photon in each output arm | herald), counted on the kets themselves."""
    good = 0.0
    for weight, ket in ensemble.components:
        for (n1h, n1v, n2h, n2v), amp in ket.amplitudes.items():
            if n1h + n1v == 1 and n2h + n2v == 1:
                good += weight * abs(amp) ** 2
    return good / ensemble.probability


MAGIC_BASIS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0j, 0.0, 0.0, -1.0j],
        [0.0, 1.0j, 1.0j, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ],
    dtype=complex,
).T / math.sqrt(2.0)


def fully_entangled_fraction(rho: np.ndarray) -> float:
    """Closed form: largest eigenvalue of Re(rho) in the magic basis."""
    m = MAGIC_BASIS.conj().T @ rho @ MAGIC_BASIS
    return float(np.linalg.eigvalsh((m + m.conj().T).real / 2.0).max())


# --- Program-free tomography estimate -------------------------------------
#
# Reads coincidence counts and estimates the two-qubit state without any
# heraldsim code: raw Pauli correlations, linear inversion, then projection
# onto the nearest physical state (Smolin, Gambetta & Smith, PRL 108,
# 070502, 2012).  Port convention as in ``heraldsim.tomography``: for each
# axis the H-side port detects the +1 eigenvector of that Pauli matrix, and
# a setting's four coincidences are ordered HH, HV, VH, VV, so the
# correlation is (HH - HV - VH + VV) / N.

PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
PAULI_AXES = ("x", "y", "z")
# (n1H, n1V, n2H, n2V) click patterns of the HH, HV, VH, VV coincidences
PORT_PATTERNS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


def read_coincidences(path) -> dict:
    """{(axis_1, axis_2): [HH, HV, VH, VV]} from a count-table CSV."""
    out: dict[tuple[str, str], np.ndarray] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            pattern = tuple(int(row[k]) for k in ("n1H", "n1V", "n2H", "n2V"))
            if pattern in PORT_PATTERNS:
                setting = (row["setting_1"], row["setting_2"])
                counts = out.setdefault(setting, np.zeros(4))
                counts[PORT_PATTERNS.index(pattern)] += int(row["count"])
    return out


def exact_coincidences(rho: np.ndarray) -> dict:
    """Exact HH, HV, VH, VV frequencies of every Pauli setting."""
    ports = {}
    for axis in PAULI_AXES:
        _, vecs = np.linalg.eigh(PAULI[axis])  # eigenvalues -1, +1
        ports[axis] = (vecs[:, 1], vecs[:, 0])  # H-side: +1, V-side: -1
    out = {}
    for a in PAULI_AXES:
        for b in PAULI_AXES:
            vecs = [np.kron(u, v) for u in ports[a] for v in ports[b]]
            out[(a, b)] = np.array([float(np.real(v.conj() @ rho @ v)) for v in vecs])
    return out


def linear_inversion(coincidences: dict) -> np.ndarray:
    """rho = sum_ij T_ij sigma_i x sigma_j / 4 from per-setting frequencies.

    Single-arm terms are averaged over the three settings sharing the axis.
    """
    corr = {("0", "0"): 1.0}
    for axis in PAULI_AXES:
        corr[(axis, "0")] = 0.0
        corr[("0", axis)] = 0.0
    for (a, b), counts in coincidences.items():
        hh, hv, vh, vv = counts / counts.sum()
        corr[(a, b)] = hh - hv - vh + vv
        corr[(a, "0")] += (hh + hv - vh - vv) / 3.0
        corr[("0", b)] += (hh - hv + vh - vv) / 3.0
    return sum(t * np.kron(PAULI[i], PAULI[j]) for (i, j), t in corr.items()) / 4.0


def nearest_physical_state(mu: np.ndarray) -> np.ndarray:
    """Closest density matrix in 2-norm to a unit-trace Hermitian matrix.

    Smolin, Gambetta & Smith: walk the eigenvalues from the smallest,
    zeroing each one that would stay negative after its share of the
    accumulated negative weight, then spread that weight evenly over the
    eigenvalues that remain.
    """
    eigs, vecs = np.linalg.eigh((mu + mu.conj().T) / 2.0)
    eigs = eigs[::-1].copy()
    vecs = vecs[:, ::-1]
    accumulated = 0.0
    kept = len(eigs)
    while kept > 0 and eigs[kept - 1] + accumulated / kept < 0.0:
        accumulated += eigs[kept - 1]
        eigs[kept - 1] = 0.0
        kept -= 1
    eigs[:kept] += accumulated / kept
    return (vecs * eigs) @ vecs.conj().T


def wootters_tangle(rho: np.ndarray) -> float:
    """Squared concurrence from the spin-flipped state rho (y x y) rho* (y x y)."""
    yy = np.kron(PAULI["y"], PAULI["y"])
    flipped = rho @ yy @ rho.conj() @ yy
    lams = np.sort(np.sqrt(np.abs(np.linalg.eigvals(flipped).real)))[::-1]
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3]) ** 2


def horodecki_chsh(rho: np.ndarray) -> float:
    """Largest CHSH value: 2 sqrt(u1 + u2), u the top eigenvalues of T^T T."""
    t = np.array(
        [
            [np.real(np.trace(rho @ np.kron(PAULI[a], PAULI[b]))) for b in PAULI_AXES]
            for a in PAULI_AXES
        ]
    )
    u = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return 2.0 * math.sqrt(u[0] + u[1])


def program_free_estimate(coincidences: dict) -> dict:
    """Physical state and its fidelity, tangle and CHSH value from counts."""
    rho = nearest_physical_state(linear_inversion(coincidences))
    return {
        "rho": rho,
        "fidelity": fully_entangled_fraction(rho),
        "tangle": wootters_tangle(rho),
        "chsh": horodecki_chsh(rho),
    }
