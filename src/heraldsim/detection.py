"""Detector models, heralding, click statistics and post-selected states.

Loss is applied as per-mode binomial thinning at detection; because every
element after the source is passive linear optics this is exact and avoids
explicit loss modes.  All detection POVMs are diagonal in photon number, so
conditioning on herald clicks yields an ensemble with one pure component
per herald-mode occupation.  Kets after the circuit hold the detectors in
the order HERALD_NAMES then OUTPUT_NAMES; heralded components hold the
output detectors alone.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .elements import HERALD_NAMES, OUTPUT_NAMES
from .fock import PRUNE_TOL, Occupation, SparseKet

# Coupling times detector efficiency per spatial mode.
DEFAULT_EFFICIENCY = 0.23 * 0.42

# Coincidence patterns (one detected photon per output arm) in the order of
# the two-qubit basis HH, HV, VH, VV.
COINCIDENCE_PATTERNS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


@dataclass(frozen=True)
class DetectorModel:
    """Detection efficiency plus threshold vs number resolution.

    ``per_mode`` overrides the efficiency of single detectors, keyed by
    their names in HERALD_NAMES and OUTPUT_NAMES.
    """

    efficiency: float = DEFAULT_EFFICIENCY
    resolving: str = "threshold"
    per_mode: Mapping[str, float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if self.resolving not in ("threshold", "number"):
            raise ValueError("resolving must be 'threshold' or 'number'")
        if self.per_mode:
            for name, eta in self.per_mode.items():
                if name not in HERALD_NAMES + OUTPUT_NAMES:
                    raise ValueError(f"unknown detector {name!r}; detectors are "
                                     f"{', '.join(HERALD_NAMES + OUTPUT_NAMES)}")
                if not 0.0 <= eta <= 1.0:
                    raise ValueError(f"efficiency for {name} out of [0, 1]")

    def etas(self, names: Sequence[str]) -> list[float]:
        """Efficiency of each named detector."""
        per_mode = self.per_mode or {}
        return [per_mode.get(name, self.efficiency) for name in names]


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Heralded output: weighted pure components over the output detectors.

    Component weights are absolute probabilities; they sum to the herald
    probability.  Each component ket is normalized.
    """

    components: tuple[tuple[float, SparseKet], ...]
    probability: float

    def merged_with(self, other: "ConditionalEnsemble") -> "ConditionalEnsemble":
        return ConditionalEnsemble(
            self.components + other.components, self.probability + other.probability
        )

    def scaled(self, factor: float) -> "ConditionalEnsemble":
        comps = tuple((w * factor, ket) for w, ket in self.components)
        return ConditionalEnsemble(comps, self.probability * factor)


@functools.lru_cache(maxsize=4096)
def _thinning(n: int, eta: float) -> tuple[float, ...]:
    """Binomial thinning: probability that k of n photons are detected, k = 0..n."""
    return tuple(math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k) for k in range(n + 1))


def _herald_factor(pattern: Occupation, etas: Sequence[float], resolving: str) -> float:
    """Probability that every herald detector fires on its photon number.

    A threshold detector fires unless all its photons are lost; a
    number-resolving one must see exactly one.
    """
    factor = 1.0
    for n, eta in zip(pattern, etas):
        detected = _thinning(n, eta)
        if resolving == "number":
            factor *= detected[1] if n >= 1 else 0.0
        else:
            factor *= 1.0 - detected[0]
        if factor == 0.0:
            break
    return factor


def herald(state: SparseKet, detectors: DetectorModel) -> ConditionalEnsemble:
    """Condition on a detection event in each herald detector.

    The herald detectors are the first four modes (HERALD_NAMES); the
    components live on the modes after them.  Threshold detectors require
    at least one surviving photon per herald mode, number-resolving
    detectors exactly one detected photon.  Extra clicks in the output
    modes are never vetoed.
    """
    n_herald = len(HERALD_NAMES)
    if state.modes < n_herald:
        raise ValueError(f"a heralded ket needs the {n_herald} herald modes, got {state.modes}")
    # Per herald pattern, the unnormalized amplitudes over the remaining
    # modes; their norm-squared is the joint probability of the pattern.
    groups: dict[Occupation, dict[Occupation, complex]] = defaultdict(dict)
    for occ, amp in state.amplitudes.items():
        groups[occ[:n_herald]][occ[n_herald:]] = amp
    etas = detectors.etas(HERALD_NAMES)
    components: list[tuple[float, SparseKet]] = []
    prob = 0.0
    for pattern, rest_amps in groups.items():
        factor = _herald_factor(pattern, etas, detectors.resolving)
        if factor == 0.0:
            continue
        joint = sum(abs(a) ** 2 for a in rest_amps.values())
        weight = joint * factor
        if weight <= 0.0:
            continue
        scale = 1.0 / math.sqrt(joint)
        scaled = ((o, a * scale) for o, a in rest_amps.items())
        ket = SparseKet(state.modes - n_herald, {o: a for o, a in scaled if abs(a) >= PRUNE_TOL})
        components.append((weight, ket))
        prob += weight
    components.sort(key=lambda c: -c[0])
    return ConditionalEnsemble(tuple(components), prob)


def classical_occupation_distribution(
    state: SparseKet, matrix: np.ndarray
) -> dict[Occupation, float]:
    """Route photons through the circuit as fully distinguishable particles.

    Each photon of each input basis ket lands in output mode j with
    probability |matrix[i, j]|^2, independently; all interference is
    discarded.  Returns the classical occupation distribution.
    """
    probs = np.abs(np.asarray(matrix)) ** 2
    n_out = probs.shape[1]
    out: dict[Occupation, float] = defaultdict(float)
    zero = (0,) * n_out
    for occ, amp in state.amplitudes.items():
        weight = abs(amp) ** 2
        partial: dict[Occupation, float] = {zero: weight}
        for i, n in enumerate(occ):
            for _ in range(n):
                grown: dict[Occupation, float] = defaultdict(float)
                for pattern, w in partial.items():
                    for j in range(n_out):
                        pj = probs[i, j]
                        if pj == 0.0:
                            continue
                        key = list(pattern)
                        key[j] += 1
                        grown[tuple(key)] += w * pj
                partial = grown
        for pattern, w in partial.items():
            out[pattern] += w
    return dict(out)


def herald_classical(
    occupation_probs: Mapping[Occupation, float], detectors: DetectorModel
) -> ConditionalEnsemble:
    """Herald a classical occupation distribution (distinguishable photons).

    As in ``herald``, the first four modes are the herald detectors.
    Components are occupation basis kets on the remaining modes; the
    resulting ensemble is a fully dephased mixture.
    """
    n_herald = len(HERALD_NAMES)
    etas = detectors.etas(HERALD_NAMES)
    weights: dict[Occupation, float] = defaultdict(float)
    prob = 0.0
    for occ, p in occupation_probs.items():
        factor = _herald_factor(occ[:n_herald], etas, detectors.resolving)
        if factor == 0.0:
            continue
        w = p * factor
        weights[occ[n_herald:]] += w
        prob += w
    components = tuple(
        (w, SparseKet(len(occ), {occ: 1.0 + 0.0j}))
        for occ, w in sorted(weights.items())
        if w > 0.0
    )
    return ConditionalEnsemble(components, prob)


def number_table(
    ensemble: ConditionalEnsemble, output_detectors: DetectorModel
) -> dict[Occupation, float]:
    """Detected photon-number distribution over the output modes.

    Conditioned on the herald (probabilities sum to 1); includes the
    output-mode binomial loss.
    """
    if ensemble.probability <= 0.0:
        raise ValueError("ensemble has zero herald probability")
    etas = output_detectors.etas(OUTPUT_NAMES)
    table: dict[Occupation, float] = defaultdict(float)
    for weight, ket in ensemble.components:
        for occ, amp in ket.amplitudes.items():
            p = weight * abs(amp) ** 2
            outcomes: list[tuple[tuple[int, ...], float]] = [((), p)]
            for n, eta in zip(occ, etas):
                dist = _thinning(n, eta)
                outcomes = [
                    (pattern + (k,), w * pk)
                    for pattern, w in outcomes
                    for k, pk in enumerate(dist)
                    if pk > 0.0
                ]
            for pattern, w in outcomes:
                table[pattern] += w
    return {k: v / ensemble.probability for k, v in sorted(table.items())}


def spatial_reduction(table: Mapping[Occupation, float]) -> dict[tuple[int, int], float]:
    """Sum a per-polarization number table over polarizations per arm."""
    out: dict[tuple[int, int], float] = defaultdict(float)
    for (n1h, n1v, n2h, n2v), p in table.items():
        out[(n1h + n1v, n2h + n2v)] += p
    return dict(sorted(out.items()))


def postselect_two_qubit(
    ensemble: ConditionalEnsemble, output_detectors: DetectorModel
) -> np.ndarray:
    """Two-qubit density matrix of the detected coincidences.

    Restricts to exactly one detected photon per output spatial arm.  Loss
    on the undetected photons is traced out exactly: amplitudes are grouped
    by the lost-photon environment configuration, so multi-photon
    components contribute the correct mixed background.
    """
    etas = output_detectors.etas(OUTPUT_NAMES)
    rho = np.zeros((4, 4), dtype=complex)
    for weight, ket in ensemble.components:
        vectors: dict[Occupation, list[complex]] = defaultdict(lambda: [0j] * 4)
        for occ, amp in ket.amplitudes.items():
            detected = [_thinning(n, eta) for n, eta in zip(occ, etas)]
            for k_idx, pattern in enumerate(COINCIDENCE_PATTERNS):
                env = tuple(n - d for n, d in zip(occ, pattern))
                if min(env) < 0:
                    continue
                a = amp
                for row, d in zip(detected, pattern):
                    a *= math.sqrt(row[d])
                if a != 0.0:
                    vectors[env][k_idx] += a
        for amps in vectors.values():
            vec = np.array(amps)
            rho += weight * np.outer(vec, vec.conj())
    trace = float(np.real(np.trace(rho)))
    if trace <= 0.0:
        raise ValueError("zero coincidence probability; nothing to post-select")
    return rho / trace

