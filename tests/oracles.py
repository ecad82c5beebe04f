"""Independent brute-force oracles used only by the tests.

These deliberately avoid the package's closed-form pair blocks: state
evolution goes through the permanent formula for second-quantized linear
optics, and the emission terms come from explicit creation-operator
algebra.  Distinguishable photons are routed one at a time through every
detector, not only the herald detectors.  Click probabilities are products
of per-detector miss probabilities rather than sums over a number table,
detection counts are built photon by photon rather than from binomial
coefficients, and loss before the output detectors is an explicit beam
splitter onto unobserved modes.
The Fock oracle is the 8-mode pipeline that the package ran before it
heralded arm by arm: each pair block evolved through the whole circuit by
``apply_mode_map`` (itself checked against the permanent formula), then
heralded pattern by pattern into an ensemble of pure output components,
whose number table and post-selected state are sums over those components.
The tomography estimate reads count tables and estimates the state with
its own Pauli matrices, linear inversion and positivity projection, sharing
no code with the package's reconstruction.
The Kraus-route oracle is the arm-by-arm kernel that the package ran
before its closed form at analyzers z, z: each arm's kets per input, from
photon maps built as binomial sums, overlapped in Gram tensors over every
pair of inputs, its coincidences from the detected kets times their Kraus
factors, and the full contraction of the two arms.
The dense table lays a block's detected table, kept over the heralding
rows, into the (max_pairs + 1)^4 count table that the package kept before,
and the dense readers scan every cell of it; the dense detected table thins
a record's lossless layers detector by detector in that layout.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from heraldsim import detection, tomography
from heraldsim.elements import (
    HERALD_NAMES, OUTPUT_NAMES, SOURCE_NAMES, arm_jones_maps, build_paper_circuit,
)
from heraldsim.fock import PRUNE_TOL, SparseKet, vacuum
from heraldsim.source import block_keys, emission_components
from heraldsim.tomography import COINCIDENCE_PATTERNS


def permanent(m: np.ndarray) -> np.ndarray:
    """Permanent of an n x n matrix, or of each matrix of a (..., n, n) stack, by Ryser's formula.

    per(M) = sum over column subsets S of (-1)^(n - |S|) prod_i sum_{j in S} M[i, j].
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    if n == 0:
        return np.ones(m.shape[:-2], dtype=complex)
    subsets = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1
    signs = (-1.0) ** (n - subsets.sum(axis=1))
    return (m @ subsets.T).prod(axis=-2) @ signs


def _repeated(occ: tuple[int, ...]) -> list[int]:
    return [i for i, n in enumerate(occ) for _ in range(n)]


def occupations(n_modes: int, total: int):
    """All occupation tuples of a fixed total photon number."""
    if n_modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in occupations(n_modes - 1, total - first):
            yield (first,) + rest


def dense_evolve(amplitudes: dict, matrix: np.ndarray) -> dict:
    """Evolve a sparse state through a unitary via the permanent formula.

    <out|U|in> = per(U restricted to rows repeated by in, columns repeated
    by out) / sqrt(prod(in!) prod(out!)), for every output occupation of
    the same photon number.
    """
    n_out = matrix.shape[1]
    out: dict[tuple[int, ...], complex] = {}
    for occ_in, amp in amplitudes.items():
        rows = np.array(_repeated(occ_in), dtype=int)
        targets = list(occupations(n_out, len(rows)))
        cols = np.array([_repeated(occ_out) for occ_out in targets], dtype=int).reshape(
            len(targets), len(rows))
        subs = np.asarray(matrix)[rows[None, :, None], cols[:, None, :]]
        norms = np.sqrt([
            math.prod(map(math.factorial, occ_in)) * math.prod(map(math.factorial, occ_out))
            for occ_out in targets
        ])
        for occ_out, a in zip(targets, (permanent(subs) / norms).tolist()):
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


def pair_term(n: int) -> SparseKet:
    """Normalized n-pair emission term on the source modes a1H a1V a2H a2V, in closed form.

    (1/sqrt(n+1)) sum_k (-1)^k |n-k, k; k, n-k>, checked against
    ``spdc_pair_operator_expansion``.
    """
    if n < 0:
        raise ValueError("pair number must be non-negative")
    norm = 1.0 / math.sqrt(n + 1)
    ks = range(n, -1, -1)  # descending k puts the rows in lexicographic order
    return SparseKet(
        len(SOURCE_NAMES),
        np.array([(n - k, k, k, n - k) for k in ks], dtype=np.int64),
        np.array([norm * (-1) ** k for k in ks], dtype=complex),
    )


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


def detected_distribution(n: int, eta: float) -> list[float]:
    """P(k of n photons detected), k = 0..n, built up one photon at a time.

    Each photon is detected with probability eta, independently; no
    binomial coefficient is used.
    """
    dist = [1.0]
    for _ in range(n):
        dist = [a * (1.0 - eta) + b * eta for a, b in zip(dist + [0.0], [0.0] + dist)]
    return dist


def herald_by_pattern(amplitudes: dict, etas, resolving: str) -> list[tuple[float, dict]]:
    """Heralded components (weight, normalized amplitudes on the remaining modes), one per firing pattern.

    The first ``len(etas)`` modes are the herald detectors.  A threshold
    detector clicks when at least one photon is detected, a
    number-resolving one when exactly one is.
    """
    n_herald = len(etas)
    groups: dict = {}
    for occ, amp in amplitudes.items():
        groups.setdefault(occ[:n_herald], {})[occ[n_herald:]] = amp
    out = []
    for pattern, rest in groups.items():
        fire = 1.0
        for n, eta in zip(pattern, etas):
            seen = detected_distribution(n, eta)
            fire *= (seen[1] if n else 0.0) if resolving == "number" else sum(seen[1:])
        joint = sum(abs(a) ** 2 for a in rest.values())
        if fire * joint > 0.0:
            out.append((fire * joint, {o: a / math.sqrt(joint) for o, a in rest.items()}))
    return out


def detected_number_table(components, etas) -> dict:
    """Detected-count distribution of (weight, amplitudes) components, normalized by their total weight.

    Every combination of detected counts of every ket is enumerated; it is
    a key when each of its counts can occur.
    """
    table: dict[tuple[int, ...], float] = {}
    for weight, amps in components:
        for occ, amp in amps.items():
            seen = [detected_distribution(n, eta) for n, eta in zip(occ, etas)]
            for counts in itertools.product(*(range(n + 1) for n in occ)):
                probs = [s[k] for s, k in zip(seen, counts)]
                if min(probs) > 0.0:
                    table[counts] = table.get(counts, 0.0) + weight * abs(amp) ** 2 * math.prod(probs)
    total = sum(w for w, _ in components)
    return {k: v / total for k, v in table.items()}


def postselected_state_through_loss_modes(components, etas) -> np.ndarray:
    """Two-qubit state of one detected photon per output arm, with loss as explicit optics.

    Each output detector j sits behind a beam splitter of transmission
    eta_j whose other port is an extra, unobserved loss mode; every ket is
    evolved through it with ``dense_evolve``.  The detected modes are
    projected on the coincidence patterns HH, HV, VH, VV and the loss modes
    are traced out, per component.
    """
    n = len(etas)
    split = np.zeros((n, 2 * n), dtype=complex)
    for j, eta in enumerate(etas):
        split[j, j] = math.sqrt(eta)
        split[j, n + j] = math.sqrt(1.0 - eta)
    patterns = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    rho = np.zeros((4, 4), dtype=complex)
    for weight, amps in components:
        lost: dict = {}
        for occ, a in dense_evolve(amps, split).items():
            if occ[:n] in patterns:
                lost.setdefault(occ[n:], np.zeros(4, dtype=complex))[patterns.index(occ[:n])] += a
        for vec in lost.values():
            rho += weight * np.outer(vec, vec.conj())
    return rho / np.trace(rho).real


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


def one_photon_per_arm(table: dict) -> float:
    """P(1;1) of a number table: its keys with one photon per arm, any polarization, summed."""
    return sum(
        p for (n1h, n1v, n2h, n2v), p in table.items() if n1h + n1v == 1 and n2h + n2v == 1
    )


def one_photon_per_arm_before_loss(ensemble) -> float:
    """P(exactly one photon in each output arm | herald), counted on the kets themselves."""
    good = 0.0
    for weight, ket in ensemble.components:
        for (n1h, n1v, n2h, n2v), amp in ket.amplitudes.items():
            if n1h + n1v == 1 and n2h + n2v == 1:
                good += weight * abs(amp) ** 2
    return good / ensemble.probability


def dense_evolve_by_arm(amplitudes: dict, matrix: np.ndarray) -> dict:
    """``dense_evolve`` through the (4, 8) circuit, one arm at a time.

    The circuit maps source modes a1H a1V only onto detectors r1H r1V t1H
    t1V, and a2H a2V only onto r2+ r2- t2H t2V, so the permanent of any of
    its submatrices is the product of the two arms' permanents.  Each
    source ket is evolved arm by arm with the permanent formula, and the
    8-mode ket is assembled as the explicit sum of the products.
    """
    matrix = np.asarray(matrix)
    arms = [([0, 1], [0, 1, 4, 5]), ([2, 3], [2, 3, 6, 7])]
    for rows, cols in arms:
        others = [c for c in range(8) if c not in cols]
        assert not matrix[np.ix_(rows, others)].any(), "the circuit mixes the arms"
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in amplitudes.items():
        parts = [
            dense_evolve({tuple(occ[r] for r in rows): 1.0}, matrix[np.ix_(rows, cols)])
            for rows, cols in arms
        ]
        for (r1h, r1v, t1h, t1v), a1 in parts[0].items():
            for (r2p, r2m, t2h, t2v), a2 in parts[1].items():
                key = (r1h, r1v, r2p, r2m, t1h, t1v, t2h, t2v)
                out[key] = out.get(key, 0.0) + amp * a1 * a2
    return {k: v for k, v in out.items() if abs(v) > 1e-15}


# --- Arm-kernel oracles -----------------------------------------------------
#
# Second routes to what ``herald_pair_terms`` computes: the arm-by-arm
# kernel it replaced, with each photon map as an explicit binomial sum and
# the coincidences from kets times their Kraus factors, and the
# distinguishable herald as a sum over all 24 assignments of the four
# photons to the four herald detectors.


def binomial_photon_maps(matrices: np.ndarray, n: int) -> np.ndarray:
    """``detection._photon_maps`` as a binomial sum over a (..., 2, 2) stack of maps.

    Entry [..., N, p, j] is the amplitude of |j, N-j> out of |p, N-p>.
    Expanding (m00 b0† + m01 b1†)^p (m10 b0† + m11 b1†)^(N-p) gives
    sqrt(j! (N-j)! / (p! (N-p)!)) sum_i C(p, i) C(N-p, j-i)
    m00^i m01^(p-i) m10^(j-i) m11^(N-p-j+i); entries with p or j above N
    are zero.
    """
    size = n + 1
    N, p, j, i = np.ix_(*[np.arange(size)] * 4)
    comb = np.array([[math.comb(a, b) for b in range(size)] for a in range(size)], dtype=float)
    fact = np.array([math.factorial(a) for a in range(size)], dtype=float)
    exponents = [e.clip(0, n) for e in (i, p - i, j - i, N - p - j + i)]
    valid = (p <= N) & (j <= N) & (i <= p) & (i <= j) & (N - p - j + i >= 0)
    terms = np.where(valid, comb[p, i] * comb[(N - p).clip(0), exponents[2]], 0.0)
    entries = np.asarray(matrices, dtype=complex).reshape(*np.shape(matrices)[:-2], 4, 1)
    powers = np.cumprod(np.concatenate([np.ones_like(entries), np.repeat(entries, n, -1)], -1), -1)
    for c, e in enumerate(exponents):
        terms = terms * powers[..., c, :][..., e]
    norm = np.sqrt(fact[j] * fact[(N - j).clip(0)] / (fact[p] * fact[(N - p).clip(0)]))
    return np.where((p <= N) & (j <= N), norm, 0.0)[..., 0] * terms.sum(axis=-1)


def binomial_thinning(n_max, eta):
    """Entry [n, k]: the chance that k of n photons are detected at efficiency eta."""
    return np.array([[math.comb(n, k) * eta**k * (1 - eta) ** (n - k) if k <= n else 0.0
                      for k in range(n_max + 1)] for n in range(n_max + 1)])


def heralding_rows(n: int) -> list[tuple[int, int]]:
    """The output occupations (o0, o1) of an arm of n photons that can herald, o0 + o1 <= n - 2.

    In the order the package's kernels use: by o0 + o1, then by o0.
    """
    return [(o0, total - o0) for total in range(n - 1) for o0 in range(total + 1)]


def arm_kets(maps: np.ndarray, n: int) -> np.ndarray:
    """Both arms' kets of pair block n per input, at the occupations that herald.

    ``maps`` (arms, 2, N+1, N+1, N+1) holds each arm's photon maps of its
    herald side [0] and output side [1], for N at least n.  Of an input's a
    H and b V photons, p and q go to the herald side with amplitude
    sqrt(C(a, p) C(b, q)), after which each side is a 2-mode map on its own
    photons:

        <h0, h1; o0, o1 | a, b> = sum_p sqrt(C(a, p) C(b, q))
                                  herald[m][p, h0] output[n-m][a-p, o0],

    with m = p + q = n - o0 - o1 herald photons.  Returns an (arms, R, K,
    n + 1) array over (arm, row, input, h0) in the rows of
    ``heralding_rows(n)`` and the inputs of ``pair_term(n)``, unweighted by
    the pair term, with amplitudes below PRUNE_TOL set to zero.
    """
    o0, o1 = np.array(heralding_rows(n)).reshape(-1, 2).T
    m = n - o0 - o1
    photons = pair_term(n).occupations.reshape(-1, 2, 2).swapaxes(0, 1)  # (arm, k, (H, V))
    a, b = photons[:, None, :, :1], photons[:, None, :, 1:]  # (arm, row, k, p)
    p = np.arange(n + 1)
    q = m[:, None, None] - p
    roots = np.sqrt([[math.comb(x, y) for y in range(n + 1)] for x in range(n + 1)])
    # roots[a, p] is zero for p > a and roots[b, q] for q > b; q < 0 wraps round and is masked, and
    # an index a - p below zero wraps round to an entry that meets a zero binomial factor
    binomial = np.where(q >= 0, roots[a, p] * roots[b, q], 0.0)
    arm = np.arange(2)[:, None, None, None]
    kets = (binomial * maps[arm, 1, (o0 + o1)[:, None, None], a - p, o0[:, None, None]]) @ maps[
        arm[..., 0, 0], 0, m, :n + 1, :n + 1]
    return np.where(np.abs(kets) >= PRUNE_TOL, kets, 0.0)


def kraus_arm_grams(kets: np.ndarray, herald_weight: np.ndarray, thinning: np.ndarray):
    """Both arms' Gram tensors over every pair of inputs, and their coincidences from the detected kets.

    ``kets`` (arms, R, K, n + 1) come from ``arm_kets``, ``herald_weight``
    (arms, N + 1, N + 1) holds the weight [arm, m, h0] of the arm's herald
    firing on h0 and m - h0 photons, and ``thinning`` each output
    detector's ``binomial_thinning`` table over (arm, polarization).  An
    occupation (e0, e1) left after one photon of an arm is detected comes
    from (e0 + 1, e1) seen as H or (e0, e1 + 1) seen as V; each such ket is
    kept, times its Kraus factor sqrt(thinning[n, 1]) for the detected
    photon of n and sqrt(thinning[n, 0]) for the detector that sees none.
    The H and V kets of every input are stacked, weighted by the herald,
    and overlapped in one product per arm.  Returns the (arms, R, K, K)
    Gram tensors and the (arms, 2, K, 2, K) coincidences over (arm,
    polarization, k, polarization', k').
    """
    n_inputs, size = kets.shape[2:]
    keys = heralding_rows(size - 1)
    row = {key: r for r, key in enumerate(keys)}
    weights = np.array([herald_weight[:, size - 1 - o0 - o1, :size] for o0, o1 in keys])
    weights = weights.swapaxes(0, 1)  # (arm, row, h0)
    gram = (kets * weights[:, :, None]) @ kets.conj().swapaxes(-1, -2)
    coincidences = np.zeros((len(thinning), 2, n_inputs, 2, n_inputs), dtype=complex)
    left = [(e0, e1) for e0, e1 in keys if (e0 + 1, e1) in row]
    if not left:
        return gram, coincidences
    rows_h = [row[e0 + 1, e1] for e0, e1 in left]
    rows_v = [row[e0, e1 + 1] for e0, e1 in left]
    for arm, (thin_h, thin_v) in enumerate(thinning):
        kraus_h = np.sqrt([thin_h[e0 + 1, 1] * thin_v[e1, 0] for e0, e1 in left])
        kraus_v = np.sqrt([thin_h[e0, 0] * thin_v[e1 + 1, 1] for e0, e1 in left])
        # (polarization, k) by (left occupation, h0); the two kets of a left occupation hold as
        # many herald photons, so share its herald weight
        detected = np.stack([kets[arm, rows_h] * kraus_h[:, None, None],
                             kets[arm, rows_v] * kraus_v[:, None, None]]).transpose(0, 2, 1, 3)
        weighted = detected * weights[arm, rows_h][None, None]
        coincidences[arm] = (
            weighted.reshape(2 * n_inputs, -1) @ detected.reshape(2 * n_inputs, -1).conj().T
        ).reshape(2, n_inputs, 2, n_inputs)
    return gram, coincidences


def kraus_route_blocks(max_pairs: int, t1: float, t2: float, detectors) -> detection.PairBlocks:
    """``herald_pair_terms`` by the arm-by-arm kernel it replaced, at analyzers z, z.

    Each arm's kets at unit splitter amplitude come from ``arm_kets`` on
    binomial-sum photon maps of its herald and output Jones maps
    (``arm_jones_maps``); a row of m herald photons takes its splitter as
    R^m T^(n-m) on its herald weight, as the Gram tensors are quadratic in
    the kets.  The Gram tensors and coincidences come from
    ``kraus_arm_grams`` on thinning tables of the oracle's own, and the
    lossless table of block n is the full contraction over every pair of
    inputs, Re sum_{k,k'} c_k c_k' G1[k,k'] G2[k,k'], with c_k the
    amplitudes of ``pair_term(n)``.  The distinguishable two-pair layer is
    the product of the arms' permanents (``herald_classical``).  The
    record's layers, rows and fields are those of ``herald_pair_terms``.
    """
    side = max_pairs + 1
    rows = heralding_rows(max_pairs)
    o0, o1 = (np.array([r[j] for r in rows], dtype=int) for j in (0, 1))
    thinning = np.array([binomial_thinning(max_pairs, eta) for eta in detectors.etas(OUTPUT_NAMES)])
    thinning = thinning.reshape(2, 2, side, side)
    # a threshold herald detector fires unless it detects nothing, a number-resolving one on one photon
    herald_tables = [binomial_thinning(max(max_pairs, 1), eta)[:side] for eta in detectors.etas(HERALD_NAMES)]
    fires = np.array([table[:, 1] if detectors.resolving == "number" else 1.0 - table[:, 0]
                      for table in herald_tables]).reshape(2, 2, side)
    herald_weight = np.zeros((2, side, side))
    for m in range(side):
        herald_weight[:, m, :m + 1] = fires[:, 0, :m + 1] * fires[:, 1, m::-1]
    maps = binomial_photon_maps(arm_jones_maps(("z", "z")).real, max_pairs)
    layers = side + (max_pairs >= 2)
    lossless = np.zeros((layers, len(rows), len(rows)))
    coincidences = np.zeros((layers, 4, 4), dtype=complex)
    for n in range(2, side):
        m = np.arange(n + 1)
        splitters = np.array([(1.0 - t) ** m * t ** (n - m) for t in (t1, t2)])
        kets = arm_kets(maps, n)
        gram, coincident = kraus_arm_grams(kets, herald_weight[:, :n + 1] * splitters[:, :, None], thinning)
        pair = np.outer(*[pair_term(n).values.real] * 2)
        count = len(kets[0])
        lossless[n, :count, :count] = np.einsum("rkl,skl->rs", pair * gram[0], gram[1]).real
        coincidences[n] = np.einsum(
            "akbl,ckdl->acbd", pair[:, None] * coincident[0], coincident[1]).reshape(4, 4)
    if max_pairs >= 2:
        lossless[side, 0, 0] = herald_classical(build_paper_circuit(t1, t2).matrix, detectors)
    return detection.PairBlocks(
        keys=tuple((n, True) for n in range(side)) + ((2, False),) * (max_pairs >= 2),
        coincidences=coincidences, lossless=lossless,
        thinning=thinning[:, 0, o0[:, None], o0] * thinning[:, 1, o1[:, None], o1],
        max_pairs=max_pairs,
    )


def block_layers(blocks: detection.PairBlocks) -> dict:
    """Each layer of a stacked ``PairBlocks`` record as a ``HeraldedBlock`` of its own, by its key.

    Not an oracle: each layer at unit weight, the others at zero, through
    ``detection.weigh_blocks``, which the pipeline runs once on the
    reweighted layers.
    """
    layers = np.eye(len(blocks.keys))
    return {key: detection.weigh_blocks(blocks, layers[b]) for b, key in enumerate(blocks.keys)}


def herald_classical(matrix: np.ndarray, detectors) -> float:
    """``detection.herald_classical`` as the product of each arm's 2x2 permanent, through a circuit.

    Each photon of source mode i lands in detector j with probability
    |matrix[i, j]|^2, independently.  Per ket of ``pair_term(2)``, the four
    photons herald by landing one in each herald detector: with arms that
    never mix, the product over the arms of the 2x2 permanent p00 p11 +
    p01 p10 of the arm's two photons on its two herald detectors.
    """
    term = pair_term(2)
    # probs[arm][source mode][herald detector]
    probs = [(np.abs(matrix[2 * arm:2 * arm + 2, 2 * arm:2 * arm + 2]) ** 2).tolist() for arm in (0, 1)]
    routed = 0.0
    for occ, amp in zip(term.occupations.tolist(), term.values.tolist()):
        permanent = 1.0
        for p, (h, v) in zip(probs, (occ[:2], occ[2:])):
            first, second = (p[mode] for mode in [0] * h + [1] * v)  # the arm's two photons
            permanent *= first[0] * second[1] + first[1] * second[0]
        routed += abs(amp) ** 2 * permanent
    return routed * math.prod(detectors.etas(HERALD_NAMES))


def permutation_herald_classical(state: SparseKet, matrix: np.ndarray, detectors) -> float:
    """``herald_classical`` as the permanent of |matrix|^2 over all 24 assignments.

    Per ket, the four photons' rows against the four herald columns, summed
    over every permutation; the circuit's arm structure is not used.
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
    return routed * math.prod(detectors.etas(HERALD_NAMES))


# --- Fock oracle ------------------------------------------------------------
#
# The 8-mode pipeline: each pair block evolved through the whole circuit,
# heralded into weighted pure output components, and every statistic summed
# over the components.


def _thinning(n_max: int, eta: float) -> np.ndarray:
    """Binomial thinning table: entry [n, k] is the probability that k of n photons are detected."""
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for k in range(n + 1):
            table[n, k] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return table


def _herald_factors(patterns: np.ndarray, etas: Sequence[float], resolving: str) -> np.ndarray:
    """Probability that every herald detector fires, per row of herald photon numbers."""
    n_max = max(int(patterns.max(initial=0)), 1)
    factor = np.ones(len(patterns))
    for photons, eta in zip(patterns.T, etas):
        detected = _thinning(n_max, eta)
        factor *= detected[photons, 1] if resolving == "number" else 1.0 - detected[photons, 0]
    return factor


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


def herald(state: SparseKet, detectors) -> ConditionalEnsemble:
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


def number_table(ensemble: ConditionalEnsemble, output_detectors) -> dict:
    """Detected photon-number distribution over the output modes, conditioned on the herald.

    Includes the output-mode binomial loss.  Every detected pattern that can
    occur is a key, however small its probability.
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


def dense_table(block: detection.HeraldedBlock) -> np.ndarray:
    """A block's detected (R, R) table laid into a (t1H, t1V, t2H, t2V) table of (max_pairs + 1)^4 cells.

    Entry [r, s] goes to the cell of the counts of row r in arm 1 and row s
    in arm 2 (``heralding_rows``); every other cell is zero.
    """
    return _laid_out(block.table, block.max_pairs)


def _laid_out(rows_table: np.ndarray, max_pairs: int) -> np.ndarray:
    rows = heralding_rows(max_pairs)
    table = np.zeros((max_pairs + 1,) * 4)
    for (r, first), (s, second) in itertools.product(enumerate(rows), repeat=2):
        table[first + second] = rows_table[r, s]
    return table


def dense_detected_table(blocks: detection.PairBlocks, weights, detectors) -> np.ndarray:
    """The weighted lossless layers of ``blocks`` laid into the (max_pairs + 1)^4 layout, then thinned.

    Each output detector thins its own axis of the dense table by its
    ``binomial_thinning`` table, with no heralding row and no per-arm
    thinning matrix of the record.
    """
    lossless = _laid_out(np.tensordot(weights, blocks.lossless, 1), blocks.max_pairs)
    thin = [binomial_thinning(blocks.max_pairs, eta) for eta in detectors.etas(OUTPUT_NAMES)]
    return np.einsum("abcd,aA,bB,cC,dD->ABCD", lossless, *thin)


def dense_number_table(block: detection.HeraldedBlock) -> dict:
    """``detection.number_table`` by a scan of every cell of the block's ``dense_table``.

    Every cell with a positive probability is a key, in lexicographic order,
    its value divided by the herald probability.
    """
    if block.herald <= 0.0:
        raise ValueError("zero herald probability; nothing heralds to condition on")
    table = dense_table(block)
    patterns = np.argwhere(table > 0.0)
    values = table[tuple(patterns.T)] / block.herald
    return dict(zip(map(tuple, patterns.tolist()), values.tolist()))


def dense_arm_totals(block: detection.HeraldedBlock) -> np.ndarray:
    """``detection.arm_totals`` by a sum over every cell of the block's ``dense_table``, in its order.

    Cell (a, b, c, d) adds to entry [a + b, c + d] of a (max(2 max_pairs
    + 1, 3))^2 table, one cell after another.
    """
    table = dense_table(block)
    size = max(2 * block.max_pairs + 1, 3)
    t1h, t1v, t2h, t2v = np.indices(table.shape)
    bins = (t1h + t1v) * size + t2h + t2v
    return np.bincount(bins.ravel(), table.ravel(), size * size).reshape(size, size)


def postselect_two_qubit(ensemble: ConditionalEnsemble, output_detectors) -> np.ndarray:
    """Two-qubit density matrix of the detected coincidences.

    Restricts to exactly one detected photon per output spatial arm.  Loss
    on the undetected photons is traced out exactly: amplitudes are grouped
    by component and lost-photon environment configuration.  With V the
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


def classical_ensemble(state: SparseKet, matrix: np.ndarray, detectors) -> ConditionalEnsemble:
    """The distinguishable two-pair block as an ensemble: the output vacuum at its herald probability."""
    prob = permutation_herald_classical(state, matrix, detectors)
    components = ((prob, vacuum(len(OUTPUT_NAMES))),) if prob != 0.0 else ()
    return ConditionalEnsemble.from_components(components, prob, len(OUTPUT_NAMES))


def heralded_ensemble(t1, t2, spdc, detectors, settings=("z", "z")) -> ConditionalEnsemble:
    """Every emission component evolved through the whole circuit, heralded and merged at its weight."""
    layout = build_paper_circuit(t1, t2, settings)
    parts = []
    for (n, coherent), weight in zip(block_keys(spdc.max_pairs), emission_components(spdc)):
        if weight == 0.0:
            continue  # a component of zero weight adds no ensemble member
        state = pair_term(n)
        if coherent:
            part = herald(layout.run(state), detectors)
        else:
            part = classical_ensemble(state, layout.total_matrix(), detectors)
        parts.append(part.scaled(weight))
    return ConditionalEnsemble.merge(parts)


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


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of one state: singular values of sqrt(rho) (y x y) sqrt(rho)*."""
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    yy = np.kron(PAULI["y"], PAULI["y"])
    lams = np.linalg.svd(sqrt_rho @ yy @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 Pauli correlations tr(rho sigma_i x sigma_j) of one state, one Kronecker product each."""
    return np.array(
        [
            [np.real(np.trace(rho @ np.kron(PAULI[a], PAULI[b]))) for b in PAULI_AXES]
            for a in PAULI_AXES
        ]
    )


def horodecki_chsh(rho: np.ndarray) -> float:
    """Largest CHSH value: 2 sqrt(u1 + u2), u the top eigenvalues of T^T T."""
    t = correlation_matrix(rho)
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


# --- Diluted RrhoR likelihood maximum --------------------------------------
#
# An independent maximum-likelihood reconstruction for checking the
# package's Newton maximizer: it iterates on rho itself, never in a chart
# of its face, and builds its own port projectors from the Pauli
# eigenvectors.


def _port_projectors() -> np.ndarray:
    """(36, 16) flattened projectors of the HH, HV, VH, VV ports, settings in (x, y, z)^2 order."""
    ports = {}
    for axis in PAULI_AXES:
        _, vecs = np.linalg.eigh(PAULI[axis])  # eigenvalues -1, +1
        ports[axis] = (vecs[:, 1], vecs[:, 0])
    vecs = [np.kron(u, v) for a in PAULI_AXES for b in PAULI_AXES for u in ports[a] for v in ports[b]]
    return np.array([np.outer(v, v.conj()).ravel() for v in vecs])


PORT_PROJECTORS = _port_projectors()


def multinomial_log_likelihood(coincidences: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k c_k log tr(Pi_k rho) over the outcomes with counts; (S, 9, 4) counts, (S, 4, 4) states."""
    counts = coincidences.reshape(len(coincidences), 36)
    probs = rho.reshape(len(rho), 16) @ PORT_PROJECTORS.T.conj()
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = counts * np.log(probs.real)
    return np.where(counts > 0, terms, 0.0).sum(axis=1)


def certificate(counts: np.ndarray, rho: np.ndarray):
    """N (lambda_max(R / N) - 1) with R = sum_k (c_k / P_k) Pi_k; R and the P_k too.

    Not an oracle: the package's own probabilities and ratio operator.  rho
    maximizes the likelihood exactly when R <= N, and as the log-likelihood
    is concave in rho, no state beats rho's log-likelihood by more than this
    value.  ``tomography._maximize`` computes it from the R of its pass, for
    the samples that can stop.
    """
    probs = tomography._probabilities(rho)
    r = tomography._ratio_operator(counts, probs)
    return np.linalg.eigvalsh(r)[..., -1] - counts.sum(axis=-1), r, probs


def rrr_maximum(coincidences: np.ndarray, steps: int = 1000) -> np.ndarray:
    """Diluted RrhoR iteration from the maximally mixed state for (S, 9, 4) counts.

    Rehacek, Hradil, Knill & Lvovsky, PRA 75, 042108 (2007): with
    R = sum_k (c_k / p_k) Pi_k / N, rho -> (1 + e R) rho (1 + e R), retraced.
    A step that lowers the log-likelihood is refused and e halves; a taken
    step doubles e, up to 1e4 (plain RrhoR in all but name).  Returns the
    states after ``steps`` iterations: each is a lower bound on the maximum.
    """
    pis = PORT_PROJECTORS
    counts = coincidences.reshape(len(coincidences), 36)
    n_total = counts.sum(axis=1)
    rho = np.repeat(np.eye(4, dtype=complex)[None] / 4.0, len(counts), axis=0)
    logl = multinomial_log_likelihood(coincidences, rho)
    eps = np.ones(len(counts))
    for _ in range(steps):
        probs = (rho.reshape(-1, 16) @ pis.T.conj()).real
        weights = np.divide(counts, probs, out=np.zeros_like(probs), where=counts > 0)
        r = (weights @ pis).reshape(-1, 4, 4) / n_total[:, None, None]
        m = np.eye(4) + eps[:, None, None] * r
        trial = m @ rho @ m
        trial /= np.trace(trial, axis1=1, axis2=2).real[:, None, None]
        trial_logl = multinomial_log_likelihood(coincidences, trial)
        up = trial_logl >= logl
        rho[up], logl[up] = trial[up], trial_logl[up]
        eps = np.where(up, np.minimum(eps * 2.0, 1e4), eps / 2.0)
    return rho


# --- The chart of the rank-r states -----------------------------------------
#
# Around rho = U diag(lam) U† with lam zero on the first 4 - r columns of U,
# the package's chart is rho(theta) = U M X M† U† / tr with X = diag(lam) + D
# on the last r rows and columns and M = 1 + K, K nonzero only in the rows
# off the face and the columns on it.  Slot i < 6 is the real part of the
# i-th entry (p, q) above the diagonal (row-major), slot 6 + i its imaginary
# part, slot 12 + p the diagonal entry p less entry 3, and slot 15 is idle.
# An entry belongs to K when p < 4 - r <= q and to D (with its mirror) when
# p >= 4 - r.  Here q_k and tr rho are evaluated as polynomials in theta and
# differenced; they are cubic, so the stencils below are exact to rounding.


def chart_slots(rank: int):
    """(16, 4, 4) K_i and D_i: how K and X - diag(lam) move along each slot, at rank r."""
    outside = 4 - rank
    k = np.zeros((16, 4, 4), dtype=complex)
    d = np.zeros((16, 4, 4), dtype=complex)
    for i, (p, q) in enumerate(zip(*np.triu_indices(4, 1))):
        for slot, value in ((i, 1.0), (6 + i, 1j)):
            if p < outside <= q:
                k[slot, p, q] = value
            elif p >= outside:
                d[slot, p, q] = value
                d[slot, q, p] = np.conj(value)
    for p in range(outside, 3):
        d[12 + p, p, p] = 1.0
        d[12 + p, 3, 3] = -1.0
    return k, d


def chart_state(basis: np.ndarray, lam: np.ndarray, rank: int, theta: np.ndarray) -> np.ndarray:
    """U M X M† U†, not normalized, at chart parameters theta (16,)."""
    k, d = chart_slots(rank)
    m = np.eye(4) + np.tensordot(theta, k, axes=1)
    x = np.diag(lam) + np.tensordot(theta, d, axes=1)
    return basis @ m @ x @ m.conj().T @ basis.conj().T


def chart_derivatives(basis: np.ndarray, lam: np.ndarray, rank: int, counts: np.ndarray):
    """Gradient (16,) and Hessian (16, 16) of sum_k c_k log q_k - N log tr rho at theta = 0.

    q_k = tr(Pi_k rho(theta)) over PORT_PROJECTORS; first derivatives of
    q_k and tr rho by the five-point stencil with step 1, second
    derivatives by the three- and four-point ones, all exact for cubics.
    """
    def values(theta):
        rho = chart_state(basis, lam, rank, theta)
        return np.append((PORT_PROJECTORS.conj() @ rho.ravel()).real, np.trace(rho).real)

    unit = np.eye(16)
    first = np.stack([
        (8.0 * (values(e) - values(-e)) - (values(2 * e) - values(-2 * e))) / 12.0 for e in unit
    ], axis=1)
    second = np.empty((37, 16, 16))
    for i, j in itertools.product(range(16), repeat=2):
        a, b = unit[i], unit[j]
        second[:, i, j] = (values(a + b) - values(a - b) - values(b - a) + values(-a - b)) / 4.0
    q, trace = values(np.zeros(16))[:36], values(np.zeros(16))[36]
    n_total = counts.sum()
    weights = np.divide(counts, q, out=np.zeros(36), where=counts > 0)
    curvature = np.divide(weights, q, out=np.zeros(36), where=counts > 0)
    grad = weights @ first[:36] - n_total / trace * first[36]
    hess = (
        np.tensordot(weights, second[:36], axes=1)
        - (first[:36].T * curvature) @ first[:36]
        - n_total / trace * second[36]
        + n_total / trace**2 * np.outer(first[36], first[36])
    )
    return grad, hess


def poisson_resampled_counts(counts: dict, n_samples: int, seed: int) -> list[dict]:
    """Monte Carlo resamples of a table's 36 coincidence cells, built one dict at a time.

    One Philox generator on SeedSequence(seed) draws a scalar Poisson number
    per cell, settings in (x, y, z)^2 order and each setting's patterns in
    COINCIDENCE_PATTERNS order, sample after sample; a cell the table lacks
    has mean 0.  Every resample has the 36 coincidence keys.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    keys = [((a, b), p) for a in PAULI_AXES for b in PAULI_AXES for p in COINCIDENCE_PATTERNS]
    return [{key: int(rng.poisson(counts.get(key, 0))) for key in keys} for _ in range(n_samples)]
