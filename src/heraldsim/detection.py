"""Detector models, heralding, click statistics and post-selected states.

The circuit never mixes the two arms and every detector counts photons in
one mode, so the pair block n, sum_k c_k |arm 1 input k>|arm 2 input k>
with n photons in each arm (``source.pair_term``), is heralded arm by arm,
both arms on the leading axis of every kernel's arrays.  The herald needs
a photon in each of an arm's two herald detectors, so of the output
occupations (o0, o1) of n photons only the n(n-1)/2 with o0 + o1 <= n - 2
can herald, and every kernel runs over those alone (``_heralding_rows``).
Each arm's input k evolves in closed form (``_arm_kets``) into a ket over
its two herald detectors at each of them, from 2-mode maps built photon by
photon by the creation-operator recurrence (``_photon_maps``).  One contraction,
sum_{k,k'} c_k c_k'* G1[k,k'] G2[k,k'], with G_a arm a's kets overlapped
per output occupation and weighted by the probability that its herald
detectors fire, gives the block's lossless table: the joint probability of
the herald and each output occupation.  Its sum is the herald probability
and its one-photon-per-arm entries P_direct.  Output loss never changes
whether the herald fires and never adds a photon, so it thins that table
after the contraction, within the same occupations.  The coincidence
matrix, one detected photon per output arm, keeps the coherence between the
detected polarizations; each arm's part of it is read off the same Gram
tensors, every output occupation weighted by its chance of giving one
count, plus one Gram of kets a photon apart for the HV coherence
(``_arm_grams``).  Loss is per-mode binomial thinning at detection, exact
because every element after the source is passive linear optics.  The
two-pair block's distinguishable photons herald only when all four land one
in each herald detector, so that block heralds the output vacuum, with a
probability in closed form: each arm's two photons on its two herald
detectors.

What the kernels of block n read that depends on n alone, not on the
circuit, the detectors or the truncation, is one read-only record,
``_block_plan(n)``: the pair-term weights c_k c_k'*, each arm's inputs, the
rows (o0, o1) with their herald photon numbers m, the binomial factors of
``_arm_kets`` with its gather indices into the photon maps, and the
neighbour mask of ``_arm_grams``.  It is built on first use, never at
import, and kept for the life of the process, so a call pays only for its
circuit and detectors; the plans of blocks 2 to 20 hold about 6 MB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .elements import HERALD_NAMES, OUTPUT_NAMES
from .fock import PRUNE_TOL, Occupation
from .source import pair_term

# Coupling times detector efficiency per spatial mode.
DEFAULT_EFFICIENCY = 0.23 * 0.42

# A contracted probability at most this fraction of the sum of its terms'
# magnitudes is the rounding residue of an exact zero, and is set to zero.
RESIDUE_TOL = 1e-12

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
class HeraldedBlock:
    """What a pair block, or a weighted sum of blocks, gives every heralded statistic.

    Each figure is a joint probability with the herald, not yet conditioned
    on it: ``herald`` that every herald detector fires; ``table[d]`` that
    the output detectors t1H, t1V, t2H, t2V also count d; ``direct`` that
    the outputs hold one photon per arm before output loss; and
    ``coincidences`` the (4, 4) density matrix of one detected photon per
    output arm over HH, HV, VH, VV, with the lost photons traced out.
    """

    herald: float
    table: np.ndarray
    direct: float
    coincidences: np.ndarray


def _thinning(n_max: int, eta: float) -> np.ndarray:
    """Binomial thinning table: entry [n, k] is the probability that k of n photons are detected."""
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for k in range(n + 1):
            table[n, k] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return table


def _fires(thinning: np.ndarray, resolving: str) -> np.ndarray:
    """Probability that a herald detector fires, per photon number, from its ``_thinning`` table.

    A threshold detector with n photons fires unless all are lost,
    1 - (1-eta)^n; a number-resolving one must see exactly one,
    n eta (1-eta)^(n-1).
    """
    return thinning[:, 1] if resolving == "number" else 1.0 - thinning[:, 0]


def _binomial_roots(n: int) -> np.ndarray:
    """Square roots of the binomial coefficients: entry [a, b] is sqrt(C(a, b)), zero for b > a."""
    return np.sqrt([[math.comb(a, b) for b in range(n + 1)] for a in range(n + 1)])


def _photon_maps(matrices: np.ndarray, n: int) -> np.ndarray:
    """2x2 mode maps acting on N photons, N = 0..n, for a (..., 2, 2) stack of maps.

    Entry [..., N, p, j] is the amplitude of |j, N-j> out of |p, N-p>, with
    p photons in the map's first input mode and j in its first output mode;
    entries with p or j above N are zero.  The maps are built photon by
    photon: the map sends the input creation operators to m00 b0† + m01 b1†
    and m10 b0† + m11 b1†, so one more photon in the first input mode gives,
    for p >= 1,

        map[N, p, j] = (m00 sqrt(j) map[N-1, p-1, j-1]
                        + m01 sqrt(N-j) map[N-1, p-1, j]) / sqrt(p),

    and one more in the second gives the row p = 0 the same way from
    map[N-1, 0], with (m10, m11) and sqrt(N) in place of (m00, m01) and
    sqrt(p).
    """
    matrices = np.asarray(matrices, dtype=complex)
    lead = matrices.shape[:-2]
    # the entries as (..., 1, 1) arrays, to broadcast over the (p, j) of one photon number
    (m00, m01), (m10, m11) = np.moveaxis(matrices[..., None, None], (-4, -3), (0, 1))
    maps = np.zeros(lead + (n + 1,) * 3, dtype=complex)
    maps[..., 0, 0, 0] = 1.0
    sqrt = np.sqrt(np.arange(n + 1))
    for N in range(1, n + 1):
        prev, new = maps[..., N - 1, :N, :N], maps[..., N, :N + 1, :N + 1]
        # b0† takes |j-1, N-j> to sqrt(j) |j, N-j>; b1† takes |j, N-1-j> to sqrt(N-j) |j, N-j>
        up, across = prev * sqrt[1:N + 1], prev * sqrt[N:0:-1]
        new[..., 1:, 1:] = m00 * up
        new[..., 1:, :N] += m01 * across
        new[..., 1:, :] /= sqrt[1:N + 1, None]
        new[..., :1, 1:] = m10 * up[..., :1, :]
        new[..., :1, :N] += m11 * across[..., :1, :]
        new[..., :1, :] /= sqrt[N]
    return maps


def _heralding_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The output occupations (o0, o1) of an arm of n photons that can herald.

    A herald needs a photon in each of the arm's two herald detectors, so
    o0 + o1 <= n - 2.  The occupations run by o0 + o1 and then by o0, so
    (o0, o1 + 1) and (o0 + 1, o1) are neighbours and rows 1 and 2 hold one
    photon.
    """
    # the nonzero entries of a lower triangle are the (o0 + o1, o0) in that order
    total, o0 = np.nonzero(np.arange(n - 1)[:, None] >= np.arange(n - 1))
    return o0, total - o0


@dataclass(frozen=True, eq=False)
class _BlockPlan:
    """The read-only arrays of pair block n's kernels that depend on n alone (``_block_plan``).

    R is the number of output occupations that can herald and K = n + 1
    the number of each arm's inputs.
    """

    photons: np.ndarray  # (arms, K, 2): the (H, V) photon numbers of each arm's input k
    weights: np.ndarray  # (K, K): the pair-term weights c_k c_k'*
    rows: tuple[np.ndarray, np.ndarray]  # (o0, o1), each (R,): the occupations that can herald
    herald_photons: np.ndarray  # (R,): m = n - o0 - o1
    binomial: np.ndarray  # (arms, R, K, n + 1) over p: sqrt(C(a, p) C(b, m - p)), zero for p > m
    output_index: tuple  # gathers output[n - m][a - p, o0] from the photon maps
    herald_index: tuple  # gathers herald[m] from the photon maps
    neighbours: np.ndarray  # (R - 1,): rows r and r + 1 hold as many output photons


@functools.lru_cache(maxsize=None)
def _block_plan(n: int) -> _BlockPlan:
    """What the kernels of pair block n read that depends neither on the circuit nor the detectors.

    Built once per n in a process, on first use, from ``pair_term(n)``,
    ``_heralding_rows(n)`` and ``_binomial_roots(n)``; every array is
    read-only, as every caller shares it.
    """
    term = pair_term(n)
    photons = np.stack([term.occupations[:, :2], term.occupations[:, 2:]])
    o0, o1 = _heralding_rows(n)
    out = o0 + o1
    m = n - out
    a, b = photons[:, None, :, :1], photons[:, None, :, 1:]  # (arm, row, k, polarization)
    p = np.arange(n + 1)
    q = m[:, None, None] - p
    roots = _binomial_roots(n)
    # roots[a, p] is zero for p > a and roots[b, q] for q > b; q < 0 wraps round and is masked
    binomial = np.where(q >= 0, roots[a, p] * roots[b, q], 0.0)
    # an index a - p below zero wraps round to an entry that meets a zero binomial factor
    arm = np.arange(len(photons))[:, None, None, None]
    plan = _BlockPlan(
        photons=photons,
        weights=np.outer(term.values, term.values.conj()),
        rows=(o0, o1),
        herald_photons=m,
        binomial=binomial,
        output_index=(arm, 1, out[:, None, None], a - p, o0[:, None, None]),
        herald_index=(arm[..., 0, 0], 0, m, slice(n + 1), slice(n + 1)),
        neighbours=out[1:] == out[:-1],
    )
    for f in fields(plan):
        value = getattr(plan, f.name)
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
    return plan


def _arm_kets(maps: np.ndarray, plan: _BlockPlan) -> np.ndarray:
    """Both arms' kets in closed form, one per input occupation, at the occupations that can herald.

    ``maps`` (arms, 2, N+1, N+1, N+1) holds each arm's ``_photon_maps`` of
    its herald side [0] and output side [1], for N at least n, and ``plan``
    the ``_block_plan`` of pair block n: each arm's inputs, n photons each,
    and the output occupations (o0, o1) that can herald
    (``_heralding_rows``).  Of a H and b V photons, p and q go to the
    herald side with amplitude sqrt(C(a, p) C(b, q)), after which each
    side is a 2-mode map on its own photons:

        <h0, h1; o0, o1 | a, b> = sum_p sqrt(C(a, p) C(b, q))
                                  herald[m][p, h0] output[n-m][a-p, o0],

    with m = p + q = n - o0 - o1 herald photons.  Returns an
    (arms, R, K, n + 1) array over (arm, row, k, h0), with h1 = m - h0 and
    zeros where that is negative.  Amplitudes below PRUNE_TOL are set to
    zero, as ``apply_mode_map`` drops them: an amplitude that cancels
    within an arm, such as the |1, 1> of arm 2's HWP(pi/8) herald analyzer
    (a Hong-Ou-Mandel splitter), is then exactly zero and leaves no
    rounding residue in a statistic.
    """
    # x[arm, row, k, p]: p of the m herald photons were H, a - p went to the output side
    x = plan.binomial * maps[plan.output_index]
    kets = x @ maps[plan.herald_index]
    return np.where(np.abs(kets) >= PRUNE_TOL, kets, 0.0)


def _arm_grams(kets: np.ndarray, plan: _BlockPlan, herald_weight: np.ndarray,
               thinning: np.ndarray):
    """Both arms' Gram tensors over their inputs (k, k'): lossless output counts and coincidences.

    ``kets`` (arms, R, K, n + 1) come from ``_arm_kets`` at the rows of
    ``plan``, the output occupations of n photons that can herald
    (``_heralding_rows``); ``herald_weight`` (arms, s, s) holds the
    probability [arm, m, h0] that both herald detectors of the arm fire on
    h0 and m - h0 photons, and ``thinning`` (arms, 2, s, s) each output
    detector's binomial thinning table.  The Gram tensor

        gram[arm, row, k, k'] = sum_h0 w(m, h0) ket[arm, row, k, h0] ket*[arm, row, k', h0]

    is indexed by the rows, each an output occupation (o0, o1) before loss
    that can herald, with m = n - o0 - o1 herald photons.  The
    coincidences, one photon detected in the arm, are read off it.  The H
    block weighs each occupation by the chance seen_H(o0, o1) =
    thinning_H[o0, 1] thinning_V[o1, 0] that o0 gives one count and o1
    none, and the V block by seen_V, the same with the detectors' roles
    swapped.  The HV block keeps the coherence between kets one photon
    apart, (o0+1, o1) against (o0, o1+1), neighbouring rows: they hold as
    many herald photons, so share their herald weight, and overlap in one
    shifted Gram weighted by the Kraus factors sqrt(seen_H seen_V).  VH is
    its conjugate transpose.  Returns the (arms, R, K, K) Gram tensor and
    the (arms, 2, K, 2, K) coincidences over (arm, polarization, k,
    polarization', k').
    """
    o0, o1 = plan.rows
    n_inputs, size = kets.shape[2:]  # size is n + 1, over h0 = 0..n
    weighted = kets * herald_weight[:, plan.herald_photons, None, :size]
    bras = kets.conj().swapaxes(-1, -2)
    gram = weighted @ bras
    seen = thinning[:, 0, o0, 1::-1] * thinning[:, 1, o1, :2]  # (arm, row, (seen_H, seen_V))
    # kets a photon apart, (o0 + 1, o1) against (o0, o1 + 1), are neighbouring rows of one o0 + o1
    shifted = weighted[:, 1:] @ bras[:, :-1]
    kraus = np.where(plan.neighbours, np.sqrt(seen[:, 1:, 0] * seen[:, :-1, 1]), 0.0)
    coincidences = np.empty((len(kets), 2, n_inputs, 2, n_inputs), dtype=complex)
    coincidences[:, 0, :, 0], coincidences[:, 1, :, 1] = np.einsum("arp,arkl->pakl", seen, gram)
    coincidences[:, 0, :, 1] = np.einsum("ar,arkl->akl", kraus, shifted)
    coincidences[:, 1, :, 0] = coincidences[:, 0, :, 1].conj().swapaxes(-1, -2)
    return gram, coincidences


def _contract(weights: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Re sum_{k,k'} w[k,k'] first[..., k, k'] second[..., k, k'], outer in the leading indices.

    An entry within RESIDUE_TOL of the sum of its terms' magnitudes is set
    to zero.  The inputs k can cancel exactly across the two arms, as in
    the HV and VH coincidences of the three-pair block (its heralded state
    is Phi+), and the contraction then leaves rounding residue: at most
    2e-16 of that sum in the blocks of up to 9 pairs checked against the
    8-mode pipeline, where no real probability fell below 3e-4 of it.  The
    products run in numpy's own loops, not in BLAS, whose threads change
    the rounding of a large product, so no thread count changes a table.
    """
    pairs = weights.size
    a, b = first.reshape(-1, pairs) * weights.ravel(), second.reshape(-1, pairs)
    value = np.einsum("ik,jk->ij", a.real, b.real) - np.einsum("ik,jk->ij", a.imag, b.imag)
    bound = np.einsum("ik,jk->ij", np.abs(a), np.abs(b))
    value[np.abs(value) <= RESIDUE_TOL * bound] = 0.0
    return value.reshape(first.shape[:-2] + second.shape[:-2])


def arm_totals(table: np.ndarray) -> np.ndarray:
    """Sum a (t1H, t1V, t2H, t2V) count table over the polarizations of each arm.

    Entry [n1, n2] is the probability of n1 photons in arm 1 and n2 in arm
    2: P(1;1) is entry [1, 1] and a click in each arm, P(>=1;>=1), the sum
    of [1:, 1:].  The result is at least 3x3, so those entries and the
    Table-1 aggregates up to p22 exist for a table of the vacuum alone.
    It sums in numpy's loops, not BLAS, so no thread count changes it.
    """
    s = table.shape[-1]
    size = max(2 * s - 1, 3)
    photons = np.add.outer(np.arange(s), np.arange(s)).ravel()  # an arm's, per (H, V) count pair
    cells = np.add.outer(photons * size, photons).ravel()  # the (n1, n2) of each count pattern
    return np.bincount(cells, table.ravel(), size * size).reshape(size, size)


def _arm_blocks(matrix: np.ndarray) -> np.ndarray:
    """Each arm's rows of the (4, 8) circuit on its own detectors, checking that the arms never mix.

    Returns an (arms, 2, 4) array: arm a's source modes (H, V) onto its two
    herald detectors, then onto its two output detectors.
    """
    n_herald = len(HERALD_NAMES)
    blocks = []
    for arm in (0, 1):
        cols = [2 * arm, 2 * arm + 1, n_herald + 2 * arm, n_herald + 2 * arm + 1]
        rows = matrix[2 * arm:2 * arm + 2]
        if np.delete(rows, cols, axis=1).any():
            raise ValueError("the circuit mixes the two arms")
        blocks.append(rows[:, cols])
    return np.array(blocks)


def herald_pair_terms(
    max_pairs: int, matrix: np.ndarray, detectors: DetectorModel
) -> list[HeraldedBlock]:
    """Herald the pair blocks 0..max_pairs on the source modes, both arms at once.

    Block n is ``pair_term(n)``, a sum of products sum_k c_k |a1 input
    k>|a2 input k> with n photons in each arm, and ``matrix`` is the (4, 8)
    circuit, which must not mix the arms.  Each arm's inputs evolve by
    ``_arm_kets`` through its rows' blocks on its own herald and output
    detectors, at the output occupations that leave one photon for each
    herald detector, o0 + o1 <= n - 2 (``_heralding_rows``), all read off
    the block's ``_block_plan``.  One contraction per block over the arms'
    Gram tensors (``_arm_grams``) gives its lossless table on those
    occupations, whose sum is the herald probability and whose
    one-photon-per-arm entries are P_direct.
    Binomial output loss, a positive linear map that never adds a photon,
    thins it within the same occupations, one matrix per arm, before it is
    laid into a (t1H, t1V, t2H, t2V) table of one (max_pairs + 1)^4 shape
    for every block.  Threshold detectors herald when each herald detector
    detects at least one photon, number-resolving ones when each detects
    exactly one; output clicks are never vetoed.  A count pattern a block
    cannot give has a table entry of exactly zero.  The zero- and one-pair
    blocks cannot herald, as each of an arm's two herald detectors needs a
    photon, so they are not evolved: their blocks are exactly zero.
    """
    if max_pairs < 0:
        raise ValueError(f"max_pairs must be non-negative, got {max_pairs}")
    arms = _arm_blocks(matrix)
    # each arm's herald side and output side as a (2, 2) map
    maps = _photon_maps(np.stack([arms[..., :2], arms[..., 2:]], axis=1), max_pairs)
    # one thinning table per distinct efficiency: with one efficiency, all eight detectors share it
    herald_etas, output_etas = detectors.etas(HERALD_NAMES), detectors.etas(OUTPUT_NAMES)
    tables = {eta: _thinning(max(max_pairs, 1), eta) for eta in {*herald_etas, *output_etas}}
    firing = {eta: _fires(tables[eta], detectors.resolving) for eta in set(herald_etas)}
    side = max_pairs + 1
    fires = np.array([firing[eta][:side] for eta in herald_etas]).reshape(2, 2, side)
    # herald_weight[arm, m, h0]: the arm's herald detectors fire on h0 and m - h0 photons
    h1 = np.arange(side)[:, None] - np.arange(side)
    herald_weight = np.where(h1 >= 0, fires[:, 0, None] * fires[:, 1][:, h1.clip(0)], 0.0)
    thinning = np.array([tables[eta][:side, :side] for eta in output_etas]).reshape(2, 2, side, side)
    blocks = []
    for n in range(max_pairs + 1):
        table = np.zeros((side,) * 4)
        if n < 2:
            # neither herald detector of an arm fires on no photons: the block never heralds
            blocks.append(HeraldedBlock(0.0, table, 0.0, np.zeros((4, 4), dtype=complex)))
            continue
        plan = _block_plan(n)
        o0, o1 = plan.rows
        kets = _arm_kets(maps, plan)
        gram, coincidences = _arm_grams(kets, plan, herald_weight, thinning)
        lossless = _contract(plan.weights, *gram)
        # counts left after loss can herald too: one thinning matrix per arm, in numpy's loops
        first, second = thinning[:, 0, o0[:, None], o0] * thinning[:, 1, o1[:, None], o1]
        detected = np.einsum("ij,jk->ik", np.einsum("ji,jk->ik", first, lossless), second)
        table[o0[:, None], o1[:, None], o0, o1] = detected
        blocks.append(HeraldedBlock(
            float(lossless.sum()), table, float(lossless[1:3, 1:3].sum()),  # rows 1-2: one photon
            np.einsum("kl,akbl,ckdl->acbd", plan.weights, *coincidences).reshape(4, 4),
        ))
    return blocks


def herald_classical(matrix: np.ndarray, detectors: DetectorModel) -> float:
    """Herald probability of the two-pair block with its four photons distinguishable.

    Each photon of source mode i lands in detector j with probability
    |matrix[i, j]|^2, independently; all interference is discarded.  The
    four photons herald only by landing one in each herald detector (the
    matrix's first columns), which leaves the outputs empty: per ket of
    ``pair_term(2)``, the chance is the permanent of |matrix|^2 on its
    photons' rows and the herald columns.  The circuit must not mix the
    arms, so that permanent is the product of each arm's: the 2x2
    permanent p00 p11 + p01 p10 of its two photons on its two herald
    detectors.  What heralds is the output vacuum.
    """
    # probs[arm][source mode][herald detector]
    probs = (np.abs(_arm_blocks(matrix)[..., :2]) ** 2).tolist()
    plan = _block_plan(2)
    routed = 0.0
    # per ket k: both arms' (H, V) photons and |c_k|^2
    photons, weights = plan.photons.swapaxes(0, 1).tolist(), plan.weights.diagonal().real.tolist()
    for arms, weight in zip(photons, weights):
        permanent = 1.0
        for p, (h, v) in zip(probs, arms):
            first, second = (p[mode] for mode in [0] * h + [1] * v)  # the arm's two photons
            permanent *= first[0] * second[1] + first[1] * second[0]
        routed += weight * permanent
    return routed * math.prod(detectors.etas(HERALD_NAMES))


def number_table(block: HeraldedBlock) -> dict[Occupation, float]:
    """Detected photon-number distribution over the output detectors, conditioned on the herald.

    Includes the output detectors' binomial loss; the probabilities sum to
    1.  Every count pattern with a positive probability is a key, however
    small, in lexicographic order.
    """
    if block.herald <= 0.0:
        raise ValueError("zero herald probability; nothing heralds to condition on")
    patterns = np.argwhere(block.table > 0.0)
    values = block.table[tuple(patterns.T)] / block.herald
    return dict(zip(map(tuple, patterns.tolist()), values.tolist()))


def postselect_two_qubit(block: HeraldedBlock) -> np.ndarray:
    """Two-qubit density matrix of the detected coincidences.

    Restricts to exactly one detected photon per output arm, with the loss
    of every other photon traced out, so multi-photon blocks contribute
    their mixed background; normalized by the coincidence probability.
    """
    trace = float(np.real(np.trace(block.coincidences)))
    if trace <= 0.0:
        raise ValueError("zero coincidence probability; nothing to post-select")
    return block.coincidences / trace
