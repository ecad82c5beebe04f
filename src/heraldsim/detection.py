"""Detector models, heralding, click statistics and post-selected states.

Loss is applied as per-mode binomial thinning at detection; because every
element after the source is passive linear optics this is exact and avoids
explicit loss modes.  All detection POVMs are diagonal in photon number, so
conditioning on herald clicks yields an ensemble with one pure component
per herald-mode occupation.  Kets after the circuit hold the detectors in
the order HERALD_NAMES then OUTPUT_NAMES; heralded components hold the
output detectors alone.  The two-pair block's distinguishable photons
herald only when all four land one in each herald detector, so that block
heralds the output vacuum, with a probability in closed form.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .elements import HERALD_NAMES, OUTPUT_NAMES
from .fock import PRUNE_TOL, Occupation, SparseKet, vacuum

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


@dataclass(frozen=True, eq=False)
class ConditionalEnsemble:
    """Heralded output: weighted pure components over the output detectors.

    Component c has weight ``weights[c]``, an absolute probability; the
    weights sum to the herald probability.  Its normalized ket is made of
    the rows r with ``index[r] == c``: occupations ``occupations[r]`` over
    the output detectors and amplitudes ``values[r]``.  Rows are grouped by
    component, in lexicographic order within one.
    """

    weights: np.ndarray
    probability: float
    occupations: np.ndarray
    values: np.ndarray
    index: np.ndarray

    @classmethod
    def from_components(
        cls, components: Sequence[tuple[float, SparseKet]], probability: float, modes: int = 0
    ) -> "ConditionalEnsemble":
        """Gather (weight, ket) components; ``modes`` is the mode count when there are none."""
        kets = [ket for _, ket in components]
        return cls(
            weights=np.array([w for w, _ in components], dtype=float),
            probability=probability,
            occupations=np.concatenate([k.occupations for k in kets])
            if kets else np.zeros((0, modes), dtype=np.int64),
            values=np.concatenate([k.values for k in kets] + [np.zeros(0, dtype=complex)]),
            index=np.repeat(np.arange(len(kets)), [len(k.values) for k in kets]),
        )

    @functools.cached_property
    def components(self) -> tuple[tuple[float, SparseKet], ...]:
        """The (weight, normalized ket) pairs in component order."""
        modes = self.occupations.shape[1]
        bounds = np.searchsorted(self.index, np.arange(len(self.weights) + 1)).tolist()
        return tuple(
            (w, SparseKet(modes, self.occupations[a:b], self.values[a:b]))
            for w, a, b in zip(self.weights.tolist(), bounds, bounds[1:])
        )

    @classmethod
    def merge(cls, parts: Sequence["ConditionalEnsemble"]) -> "ConditionalEnsemble":
        """One ensemble holding the components of every part, in order."""
        offsets = np.cumsum([0] + [len(p.weights) for p in parts[:-1]])
        return cls(
            weights=np.concatenate([p.weights for p in parts]),
            probability=sum(p.probability for p in parts),
            occupations=np.concatenate([p.occupations for p in parts]),
            values=np.concatenate([p.values for p in parts]),
            index=np.concatenate([p.index + offset for p, offset in zip(parts, offsets)]),
        )

    def scaled(self, factor: float) -> "ConditionalEnsemble":
        return dataclasses.replace(
            self, weights=self.weights * factor, probability=self.probability * factor
        )


def _thinning(n_max: int, eta: float) -> np.ndarray:
    """Binomial thinning table: entry [n, k] is the probability that k of n photons are detected."""
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for k in range(n + 1):
            table[n, k] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return table


def _herald_factors(patterns: np.ndarray, etas: Sequence[float], resolving: str) -> np.ndarray:
    """Probability that every herald detector fires, per row of herald photon numbers.

    A threshold detector with n photons fires unless all are lost,
    1 - (1-eta)^n; a number-resolving one must see exactly one,
    n eta (1-eta)^(n-1).
    """
    n_max = max(int(patterns.max(initial=0)), 1)
    factor = np.ones(len(patterns))
    for photons, eta in zip(patterns.T, etas):
        detected = _thinning(n_max, eta)
        factor *= detected[photons, 1] if resolving == "number" else 1.0 - detected[photons, 0]
    return factor


def herald(state: SparseKet, detectors: DetectorModel) -> ConditionalEnsemble:
    """Condition on a detection event in each herald detector.

    The herald detectors are the first four modes (HERALD_NAMES); the
    components live on the modes after them.  Threshold detectors require
    at least one surviving photon per herald mode, number-resolving
    detectors exactly one detected photon.  Extra clicks in the output
    modes are never vetoed.  Components come heaviest first, and equal
    weights in lexicographic order of their herald patterns.
    """
    n_herald = len(HERALD_NAMES)
    if state.modes < n_herald:
        raise ValueError(f"a heralded ket needs the {n_herald} herald modes, got {state.modes}")
    # The rows are in lexicographic order, so each herald pattern is one run
    # of rows; the norm-squared of its amplitudes is the joint probability.
    patterns = state.occupations[:, :n_herald]
    first = np.ones(len(patterns), dtype=bool)
    first[1:] = (patterns[1:] != patterns[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    joint = np.add.reduceat(np.abs(state.values) ** 2, starts) if len(starts) else np.zeros(0)
    weight = joint * _herald_factors(patterns[starts], detectors.etas(HERALD_NAMES),
                                     detectors.resolving)
    fired = np.flatnonzero(weight > 0.0)
    order = fired[np.argsort(-weight[fired], kind="stable")]
    rank = np.full(len(starts), -1)
    rank[order] = np.arange(len(order))
    values = state.values * (1.0 / np.sqrt(joint))[group]
    rows = np.flatnonzero((rank[group] >= 0) & (np.abs(values) >= PRUNE_TOL))
    rows = rows[np.argsort(rank[group[rows]], kind="stable")]
    return ConditionalEnsemble(
        weights=weight[order],
        probability=float(weight[order].sum()),
        occupations=state.occupations[rows, n_herald:],
        values=values[rows],
        index=rank[group[rows]],
    )


def herald_classical(
    state: SparseKet, matrix: np.ndarray, detectors: DetectorModel
) -> ConditionalEnsemble:
    """Herald a four-photon block whose photons pass the circuit as distinguishable particles.

    Each photon of source mode i lands in detector j with probability
    |matrix[i, j]|^2, independently; all interference is discarded.  The
    four photons herald only by landing one in each herald detector (the
    matrix's first columns), which leaves the outputs empty: per ket, the
    chance is the permanent of |matrix|^2 on its photons' rows and the
    herald columns.  The ensemble is the output vacuum, or empty when
    nothing heralds.
    """
    n_herald = len(HERALD_NAMES)
    probs = (np.abs(matrix[:, :n_herald]) ** 2).tolist()
    routed = 0.0
    for occ, amp in zip(state.occupations.tolist(), state.values.tolist()):
        if sum(occ) != n_herald:
            raise ValueError(f"a distinguishable block needs {n_herald} photons, got {sum(occ)}")
        rows = [i for i, n in enumerate(occ) for _ in range(n)]
        routed += abs(amp) ** 2 * sum(
            math.prod(probs[i][j] for i, j in zip(rows, cols))
            for cols in itertools.permutations(range(n_herald))
        )
    one_each = np.ones((1, n_herald), dtype=np.int64)
    prob = routed * float(_herald_factors(one_each, detectors.etas(HERALD_NAMES),
                                          detectors.resolving)[0])
    n_out = matrix.shape[1] - n_herald
    components = ((prob, vacuum(n_out)),) if prob != 0.0 else ()
    return ConditionalEnsemble.from_components(components, prob, n_out)


def number_table(
    ensemble: ConditionalEnsemble, output_detectors: DetectorModel
) -> dict[Occupation, float]:
    """Detected photon-number distribution over the output modes.

    Conditioned on the herald (probabilities sum to 1); includes the
    output-mode binomial loss.  Every detected pattern that can occur is a
    key, however small its probability.
    """
    if ensemble.probability <= 0.0:
        raise ValueError("ensemble has zero herald probability")
    etas = output_detectors.etas(OUTPUT_NAMES)
    # Loss acts on each occupation alone, so equal occupations are summed first.
    radix = int(ensemble.occupations.max(initial=0)) + 1
    place = radix ** np.arange(len(etas) - 1, -1, -1)
    occupied, inverse = np.unique(ensemble.occupations @ place, return_inverse=True)
    prob = np.bincount(
        inverse,
        weights=ensemble.weights[ensemble.index] * np.abs(ensemble.values) ** 2,
        minlength=len(occupied),
    )
    # Each detector in turn splits every row into its detected counts k = 0..n.
    photons = occupied[:, None] // place % radix
    detected = np.zeros(len(occupied), dtype=np.int64)
    for col, eta in enumerate(etas):
        n = photons[:, col]
        row = np.repeat(np.arange(len(n)), n + 1)
        k = np.arange(len(row)) - np.repeat(np.cumsum(n + 1) - (n + 1), n + 1)
        pk = _thinning(radix - 1, eta)[n[row], k]
        possible = pk > 0.0
        row, k, pk = row[possible], k[possible], pk[possible]
        photons, prob, detected = photons[row], prob[row] * pk, detected[row] * radix + k
    patterns, inverse = np.unique(detected, return_inverse=True)
    table = np.bincount(inverse, weights=prob, minlength=len(patterns))
    rows = (patterns[:, None] // place % radix).tolist()
    return {tuple(p): v / ensemble.probability for p, v in zip(rows, table.tolist())}


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
    by component and lost-photon environment configuration, so multi-photon
    components contribute the correct mixed background.  With V the
    (groups, 4) amplitudes over the coincidence basis and w each group's
    component weight, rho is V^T diag(w) V*, normalized.
    """
    etas = output_detectors.etas(OUTPUT_NAMES)
    occ = ensemble.occupations
    n_max = max(int(occ.max(initial=0)), 1)
    roots = [np.sqrt(_thinning(n_max, eta)) for eta in etas]
    # A group key is the component index above the environment's base-radix digits.
    radix = n_max + 1
    place = radix ** np.arange(len(etas) - 1, -1, -1)
    span = radix ** len(etas)
    keys, cells, amps = [], [], []
    for k_idx, pattern in enumerate(COINCIDENCE_PATTERNS):
        env = occ - np.array(pattern)
        rows = np.flatnonzero((env >= 0).all(axis=1))
        a = ensemble.values[rows]
        for col, d in enumerate(pattern):
            a = a * roots[col][occ[rows, col], d]
        keys.append(ensemble.index[rows] * span + env[rows] @ place)
        cells.append(np.full(len(rows), k_idx))
        amps.append(a)
    groups, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    flat = inverse * 4 + np.concatenate(cells)
    amps = np.concatenate(amps)
    vectors = np.empty(4 * len(groups), dtype=complex)
    vectors.real = np.bincount(flat, weights=amps.real, minlength=len(vectors))
    vectors.imag = np.bincount(flat, weights=amps.imag, minlength=len(vectors))
    vectors = vectors.reshape(-1, 4)
    weights = ensemble.weights[groups // span]
    rho = (vectors.T * weights) @ vectors.conj()
    trace = float(np.real(np.trace(rho)))
    if trace <= 0.0:
        raise ValueError("zero coincidence probability; nothing to post-select")
    return rho / trace
