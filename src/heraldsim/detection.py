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
sum_{k,k'} c_k c_k' G1[k,k'] G2[k,k'], with G_a arm a's kets overlapped
per output occupation and weighted by the probability that its herald
detectors fire, gives the block's lossless table: the joint probability of
the herald and each output occupation.  Its sum is the herald probability
and its one-photon-per-arm entries P_direct.  The blocks come back as one
stacked record (``PairBlocks``), each block's lossless table a layer over
the rows of the largest block.  Output loss never changes whether the
herald fires and never adds a photon, and it is linear, so it thins a
weighted sum of those layers once, within the same occupations, rather
than each block on its own (``weigh_blocks``).  The coincidence
matrix, one detected photon per output arm, keeps the coherence between the
detected polarizations; each arm's part of it is read off the same Gram
tensors, every output occupation weighted by its chance of giving one
count, plus one Gram of kets a photon apart for the HV coherence
(``_arm_grams``).  Loss is per-mode binomial thinning at detection, exact
because every element after the source is passive linear optics.  The
two-pair block's distinguishable photons herald only when all four land one
in each herald detector, so that block heralds the output vacuum, with a
probability in closed form that needs no circuit: R1^2 R2^2 / 6 times the
four herald efficiencies (``herald_classical``).

The splitters enter the arm kets only as sqrt(R)^m sqrt(T)^(n-m) on a row
of m herald photons, so the kets are built once at unit splitter amplitude
for each pair of analyzer settings, up to a truncation, and each call
weighs a row's herald by R^m T^(n-m).  Those kets are the kernels' one
process cache beside the integer binomials of ``_binomials``
(``_splitter_free_kets``, an ``lru_cache`` keyed by the settings and
max_pairs, built on first use, never at import): each block's inputs,
binomial factors and gathers into the photon maps are made once, when its
kets are built, and arm 1's kets carry the pair-term amplitudes c_k, so
the contraction needs no weights.  A call on a warm key pays only for its
splitters and detectors: no photon map and no ket is built.  The rows of
block n are the leading rows of every larger block (``_heralding_rows``),
so a call builds its per-row detector tables once, for its largest block.

The kernels take their dtype from the circuit.  The herald maps (the
identity and HWP(pi/8)) and the x and z analyzers are real, and so are the
pair-term amplitudes +-1/sqrt(n+1), the splitter factors and every detector
weight.  So for the four setting pairs in {x, z}^2, every photon map, ket,
Gram tensor and contraction is real, and complex arithmetic would only add
products of exact zeros: those settings run in float64, which gives the
same numbers up to the rounding order of a product, at half the memory and
a quarter of the multiplications in each product.  A y analyzer has
imaginary entries, and its settings run in complex128.  The kets hold
about 20 KB through 6 pairs and 6 MB through 20 per real key, twice that
per complex one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .elements import HERALD_NAMES, OUTPUT_NAMES, arm_jones_maps, beam_splitter_map
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
    """What a weighted sum of pair blocks gives every heralded statistic.

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


@functools.lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C(a, b) for a, b = 0..n as floats, zero for b > a, and the table of a - b, zero for b > a.

    Kept for the life of the process; both are read-only, as every caller
    shares them.
    """
    binomials = np.array([[math.comb(a, b) for b in range(n + 1)] for a in range(n + 1)], dtype=float)
    lost = np.subtract.outer(np.arange(n + 1), np.arange(n + 1)).clip(0)
    binomials.setflags(write=False)
    lost.setflags(write=False)
    return binomials, lost


def _thinning(n_max: int, eta: float) -> np.ndarray:
    """Binomial thinning table: entry [n, k] is the probability that k of n photons are detected.

    C(n, k) eta^k (1-eta)^(n-k), multiplied in that order; zero for k > n.
    The powers are Python's, not numpy's: on hosts with AVX-512 numpy's
    vector power can round an ulp away from the C library's pow.
    """
    binomials, lost = _binomials(n_max)
    seen = np.array([eta**k for k in range(n_max + 1)])
    missed = np.array([(1.0 - eta) ** k for k in range(n_max + 1)])
    return binomials * seen * missed[lost]


def _fires(thinning: np.ndarray, resolving: str) -> np.ndarray:
    """Probability that a herald detector fires, per photon number, from its ``_thinning`` table.

    A threshold detector with n photons fires unless all are lost,
    1 - (1-eta)^n; a number-resolving one must see exactly one,
    n eta (1-eta)^(n-1).
    """
    return thinning[:, 1] if resolving == "number" else 1.0 - thinning[:, 0]


def _photon_maps(matrices: np.ndarray, n: int) -> np.ndarray:
    """2x2 mode maps acting on N photons, N = 0..n, for a (..., 2, 2) stack of maps.

    The maps are built in the dtype of ``matrices``, float64 for real
    matrices and complex128 for complex ones: the recurrence below only
    multiplies and adds entries and divides by real square roots, so real
    matrices give real maps exactly.
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
    matrices = np.asarray(matrices)
    lead = matrices.shape[:-2]
    # the entries as (..., 1, 1) arrays, to broadcast over the (p, j) of one photon number
    (m00, m01), (m10, m11) = np.moveaxis(matrices[..., None, None], (-4, -3), (0, 1))
    maps = np.zeros(lead + (n + 1,) * 3, dtype=np.result_type(matrices, float))
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
    (o0, o1 + 1) and (o0 + 1, o1) are neighbours, rows 1 and 2 hold one
    photon, and the rows of n photons are the leading rows of every larger n.
    """
    # the nonzero entries of a lower triangle are the (o0 + o1, o0) in that order
    total, o0 = np.nonzero(np.arange(n - 1)[:, None] >= np.arange(n - 1))
    return o0, total - o0


def _arm_kets(maps: np.ndarray, n: int) -> np.ndarray:
    """Both arms' kets of pair block n in closed form, per input, at the occupations that herald.

    ``maps`` (arms, 2, N+1, N+1, N+1) holds each arm's ``_photon_maps`` of
    its herald side [0] and output side [1], for N at least n.  Each arm's
    K = n + 1 inputs are the (H, V) photon numbers of ``pair_term(n)``, n
    photons each, and its R rows the output occupations (o0, o1) that can
    herald (``_heralding_rows(n)``).  Of a H and b V photons, p and q go to
    the herald side with amplitude sqrt(C(a, p) C(b, q)), from
    ``_binomials(n)``, after which each side is a 2-mode map on its own
    photons:

        <h0, h1; o0, o1 | a, b> = sum_p sqrt(C(a, p) C(b, q))
                                  herald[m][p, h0] output[n-m][a-p, o0],

    with m = p + q = n - o0 - o1 herald photons, both maps gathered out of
    ``maps`` at once for every (arm, row, k, p).  Returns an
    (arms, R, K, n + 1) array over (arm, row, k, h0), with h1 = m - h0 and
    zeros where that is negative; the inputs k are not weighted by the
    pair term.  Amplitudes below PRUNE_TOL are set to zero, as
    ``apply_mode_map`` drops them: an amplitude that cancels within an arm,
    such as the |1, 1> of arm 2's HWP(pi/8) herald analyzer (a
    Hong-Ou-Mandel splitter), is then exactly zero and leaves no rounding
    residue in a statistic.
    """
    term = pair_term(n)
    photons = np.stack([term.occupations[:, :2], term.occupations[:, 2:]])  # (arms, K, (H, V))
    o0, o1 = _heralding_rows(n)
    out = o0 + o1
    m = n - out
    a, b = photons[:, None, :, :1], photons[:, None, :, 1:]  # (arm, row, k, polarization)
    p = np.arange(n + 1)
    q = m[:, None, None] - p
    roots = np.sqrt(_binomials(n)[0])
    # roots[a, p] is zero for p > a and roots[b, q] for q > b; q < 0 wraps round and is masked
    binomial = np.where(q >= 0, roots[a, p] * roots[b, q], 0.0)
    # x[arm, row, k, p]: p of the m herald photons were H, a - p went to the output side; an
    # index a - p below zero wraps round to an entry that meets a zero binomial factor
    arm = np.arange(len(photons))[:, None, None, None]
    x = binomial * maps[arm, 1, out[:, None, None], a - p, o0[:, None, None]]
    kets = x @ maps[arm[..., 0, 0], 0, m, :n + 1, :n + 1]
    return np.where(np.abs(kets) >= PRUNE_TOL, kets, 0.0)


@functools.lru_cache(maxsize=None)
def _splitter_free_kets(settings: tuple[str, str], max_pairs: int) -> tuple[np.ndarray, ...]:
    """The arm kets of pair blocks 2..max_pairs through the circuit at unit splitter amplitudes.

    ``_arm_kets`` of each block through ``arm_jones_maps(settings)``, each
    arm's herald and output Jones maps without their sqrt(R) and sqrt(T),
    from one ``_photon_maps`` build up to the largest block.  The splitters
    scale a ket of m herald photons by sqrt(R)^m sqrt(T)^(n-m) and nothing
    else, so these kets serve every (T1, T2) of the settings.  Arm 1's
    input k then carries its pair-term amplitude c_k = +-1/sqrt(n+1) of
    ``pair_term(n)``, multiplied in after pruning: c_k is real, so arm 1's
    Gram tensor carries c_k c_k' and the contraction of the two arms needs
    no weights.  The kets are float64 when the Jones maps are real, which
    holds exactly when both analyzers are x or z, and complex128
    otherwise.  Kept for the life of the process, keyed by the settings
    and the truncation; every array is read-only, as every caller shares
    it.
    """
    jones = arm_jones_maps(settings)
    maps = _photon_maps(jones if jones.imag.any() else jones.real, max_pairs)
    kets = []
    for n in range(2, max_pairs + 1):
        ket = _arm_kets(maps, n)
        ket[0] *= pair_term(n).values.real[:, None]
        ket.setflags(write=False)
        kets.append(ket)
    return tuple(kets)


def _arm_grams(kets: np.ndarray, herald_photons: np.ndarray, herald_weight: np.ndarray,
               seen: np.ndarray, kraus: np.ndarray):
    """Both arms' Gram tensors over their inputs (k, k'): lossless output counts and coincidences.

    ``kets`` (arms, R, K, n + 1) come from ``_splitter_free_kets`` at the
    R output occupations of n photons that can herald
    (``_heralding_rows``), whose herald photon numbers m = n - o0 - o1
    ``herald_photons`` (R,) holds; ``herald_weight`` (arms, n + 1, s)
    holds the weight [arm, m, h0] of the arm's herald firing on h0 and
    m - h0 photons.  The Gram tensor

        gram[arm, row, k, k'] = sum_h0 w(m, h0) ket[arm, row, k, h0] ket*[arm, row, k', h0]

    is indexed by the rows, each an output occupation (o0, o1) before loss
    that can herald, with m = n - o0 - o1 herald photons.  The
    coincidences, one photon detected in the arm, are read off it.
    ``seen`` (arms, R, 2) holds the chance seen_H(o0, o1) =
    thinning_H[o0, 1] thinning_V[o1, 0] that the row gives one H count and
    no V count, and seen_V, the same with the detectors' roles swapped:
    the H block weighs each row by seen_H, the V block by seen_V.  The HV
    block keeps the coherence between kets one photon apart, (o0+1, o1)
    against (o0, o1+1), neighbouring rows: they hold as many herald
    photons, so share their herald weight, and overlap in one shifted Gram
    weighted by ``kraus`` (arms, R - 1), the Kraus factors
    sqrt(seen_H seen_V) of rows r + 1 and r, zero where they hold
    different numbers of output photons.  VH is its conjugate transpose.
    Returns the (arms, R, K, K) Gram tensor and the (arms, 2, K, 2, K)
    coincidences over (arm, polarization, k, polarization', k'), both in
    the kets' dtype.
    """
    n_inputs, size = kets.shape[2:]  # size is n + 1, over h0 = 0..n
    weighted = kets * herald_weight[:, herald_photons, None, :size]
    bras = kets.conj().swapaxes(-1, -2)
    gram = weighted @ bras
    # kets a photon apart, (o0 + 1, o1) against (o0, o1 + 1), are neighbouring rows of one o0 + o1
    shifted = weighted[:, 1:] @ bras[:, :-1]
    coincidences = np.empty((len(kets), 2, n_inputs, 2, n_inputs), dtype=gram.dtype)
    coincidences[:, 0, :, 0], coincidences[:, 1, :, 1] = np.einsum("arp,arkl->pakl", seen, gram)
    coincidences[:, 0, :, 1] = np.einsum("ar,arkl->akl", kraus, shifted)
    coincidences[:, 1, :, 0] = coincidences[:, 0, :, 1].conj().swapaxes(-1, -2)
    return gram, coincidences


def _contract(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Re sum_{k,k'} first[..., k, k'] second[..., k, k'], outer in the leading indices.

    An entry within RESIDUE_TOL of the sum of its terms' magnitudes is set
    to zero.  The inputs k can cancel exactly across the two arms, as in
    the HV and VH coincidences of the three-pair block (its heralded state
    is Phi+), and the contraction then leaves rounding residue: at most
    2e-16 of that sum in the blocks of up to 9 pairs checked against the
    8-mode pipeline, where no real probability fell below 3e-4 of it.  The
    products run in numpy's own loops, not in BLAS, whose threads change
    the rounding of a large product, so no thread count changes a table.
    The pair-term weights c_k c_k' ride in arm 1's Gram tensor
    (``_splitter_free_kets``), and the Gram tensors are real when the kets
    are: the product of the imaginary parts is then exactly zero and is
    computed only when both inputs are complex.
    """
    pairs = math.prod(first.shape[-2:])
    a, b = first.reshape(-1, pairs), second.reshape(-1, pairs)
    value = np.einsum("ik,jk->ij", a.real, b.real)
    if a.dtype.kind == b.dtype.kind == "c":
        value -= np.einsum("ik,jk->ij", a.imag, b.imag)
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


@dataclass(frozen=True, eq=False)
class PairBlocks:
    """Heralded pair blocks at unit weight, stacked on a leading block axis, free of tau and V.

    Layer b is the block ``keys[b]`` = (pairs, coherent): ``lossless[b]``
    is its (R, R) table over both arms' output occupations before output
    loss, the joint probability of the herald and each (o0, o1) of arm 1
    and of arm 2, over the R rows of the largest block that can herald
    (``_heralding_rows(max_pairs)``); block n fills the leading rows.  The
    layer's herald probability is the sum of its table and P_direct the
    entries at rows 1-2, those of one photon, so neither is stored, and
    ``coincidences[b]`` is its (4, 4) coincidence matrix.  Output loss is
    linear, so a weighted sum of layers is thinned once (``weigh_blocks``).
    ``thinning`` holds each arm's (R, R) output-loss matrix, entry [r, r']
    the chance that the output photons of row r leave those of row r'
    detected, and ``one_count`` each arm's (R,) chance that a row gives
    exactly one count.
    """

    keys: tuple[tuple[int, bool], ...]
    coincidences: np.ndarray  # (B, 4, 4)
    lossless: np.ndarray  # (B, R, R)
    thinning: np.ndarray  # (arms, R, R)
    one_count: np.ndarray  # (arms, R)
    max_pairs: int


def weigh_blocks(blocks: PairBlocks, weights: np.ndarray) -> HeraldedBlock:
    """The layers of ``blocks`` summed with ``weights`` (B,), in one product over the block axis.

    Output loss is linear and never adds a photon, so it thins the summed
    lossless table once, within the same occupations: one thinning matrix
    per arm, first^T L second, laid into a (t1H, t1V, t2H, t2V) table of
    (max_pairs + 1)^4 shape, where a count pattern that no row can give is
    exactly zero.  The herald probability is the sum of the summed lossless
    table and P_direct its entries at rows 1-2, those of one photon.  Every
    product runs in numpy's own loops, not in BLAS, so no thread count
    changes a figure.
    """
    first, second = blocks.thinning
    lossless = np.einsum("b,brs->rs", weights, blocks.lossless)
    thinned = np.einsum("ij,jk->ik", np.einsum("ji,jk->ik", first, lossless), second)
    o0, o1 = _heralding_rows(blocks.max_pairs)
    table = np.zeros((blocks.max_pairs + 1,) * 4)
    table[o0[:, None], o1[:, None], o0, o1] = thinned
    return HeraldedBlock(
        float(lossless.sum()), table, float(lossless[1:3, 1:3].sum()),
        np.einsum("b,bij->ij", weights, blocks.coincidences),
    )


def _splitter_powers(t: float, side: int) -> np.ndarray:
    """T^m and R^m of a splitter of transmission t, rows (T, R) over m = 0..side-1.

    Each is its ``beam_splitter_map`` amplitude sqrt(T) or sqrt(R) to the
    power 2m, in Python's ``**``, as in ``_thinning``: on hosts with
    AVX-512 numpy's vector power can round an ulp away from the C library's
    pow.
    """
    amplitudes = beam_splitter_map(t)[0].real.tolist()
    return np.array([[x ** (2 * m) for m in range(side)] for x in amplitudes])


def herald_pair_terms(
    max_pairs: int, t1: float, t2: float, detectors: DetectorModel,
    settings: tuple[str, str] = ("z", "z"),
) -> PairBlocks:
    """Herald the pair blocks 0..max_pairs through the paper's circuit, both arms at once.

    Block n is ``pair_term(n)``, a sum of products sum_k c_k |a1 input
    k>|a2 input k> with n photons in each arm, and the circuit that of
    ``build_paper_circuit(t1, t2, settings)``, whose arms never mix.  Each
    arm's inputs evolve by ``_arm_kets`` onto its own herald and output
    detectors, at the output occupations that leave one photon for each
    herald detector, o0 + o1 <= n - 2 (``_heralding_rows``), through the
    circuit at unit splitter amplitudes: those kets depend on the settings
    alone and are built once per process (``_splitter_free_kets``).  A row
    of m herald photons of arm a then takes its splitter as the factor
    R_a^m T_a^(n-m) on its herald weight, the square of its kets' sqrt(R_a)^m
    sqrt(T_a)^(n-m), since the Gram tensors are quadratic in the kets.  One
    contraction per block over the arms' Gram tensors (``_arm_grams``)
    gives its lossless table on those occupations, whose sum is the herald
    probability and whose one-photon-per-arm entries are P_direct.
    Threshold detectors herald when each herald detector detects at least
    one photon, number-resolving ones when each detects exactly one; output
    clicks are never vetoed.  The zero- and one-pair blocks cannot herald,
    as each of an arm's two herald detectors needs a photon, so they are
    not evolved: their layers are exactly zero.  Returns layer n for block
    n, keyed (n, True).
    """
    if max_pairs < 0:
        raise ValueError(f"max_pairs must be non-negative, got {max_pairs}")
    kets = _splitter_free_kets(tuple(settings), max_pairs)
    # one thinning table per distinct efficiency: with one efficiency, all eight detectors share it
    herald_etas, output_etas = detectors.etas(HERALD_NAMES), detectors.etas(OUTPUT_NAMES)
    tables = {eta: _thinning(max(max_pairs, 1), eta) for eta in {*herald_etas, *output_etas}}
    firing = {eta: _fires(tables[eta], detectors.resolving) for eta in set(herald_etas)}
    side = max_pairs + 1
    fires = np.array([firing[eta][:side] for eta in herald_etas]).reshape(2, 2, side)
    # herald_weight[arm, m, h0]: the arm's herald detectors fire on h0 and m - h0 photons
    h1 = np.arange(side)[:, None] - np.arange(side)
    herald_weight = np.where(h1 >= 0, fires[:, 0, None] * fires[:, 1][:, h1.clip(0)], 0.0)
    thinning = np.array([tables[eta] for eta in output_etas])
    thinning = thinning.reshape(2, 2, *thinning.shape[1:])
    # the rows of block n are the leading n(n-1)/2 of the largest block's: every per-row table
    # is built once, for the largest block, and sliced
    o0, o1 = _heralding_rows(max_pairs)
    seen = thinning[:, 0, o0, 1::-1] * thinning[:, 1, o1, :2]  # (arm, row, (seen_H, seen_V))
    out = o0 + o1
    kraus = np.where(out[1:] == out[:-1], np.sqrt(seen[:, 1:, 0] * seen[:, :-1, 1]), 0.0)
    powers = np.array([_splitter_powers(t, side) for t in (t1, t2)])  # [arm, (T, R), m]
    coincidences = np.zeros((side, 4, 4), dtype=complex)
    lossless = np.zeros((side, len(o0), len(o0)))
    for n, free in enumerate(kets, start=2):
        rows = free.shape[1]
        # a row of m herald photons takes its splitters as R^m T^(n-m) on its herald weight
        weight = herald_weight[:, :n + 1] * (powers[:, 1, :n + 1] * powers[:, 0, n::-1])[..., None]
        gram, coincident = _arm_grams(free, n - out[:rows], weight, seen[:, :rows],
                                      kraus[:, :rows - 1])
        lossless[n, :rows, :rows] = _contract(*gram)
        coincidences[n] = np.einsum("akbl,ckdl->acbd", *coincident).reshape(4, 4)
    return PairBlocks(
        keys=tuple((n, True) for n in range(side)),
        coincidences=coincidences, lossless=lossless,
        thinning=thinning[:, 0, o0[:, None], o0] * thinning[:, 1, o1[:, None], o1],
        one_count=seen.sum(axis=-1),
        max_pairs=max_pairs,
    )


def herald_classical(t1: float, t2: float, detectors: DetectorModel) -> float:
    """Herald probability of the two-pair block with its four photons distinguishable.

    Each photon lands in a detector independently, with the squared
    magnitude of its amplitude there; all interference is discarded.  The
    four photons herald only by landing one in each herald detector, which
    leaves the outputs empty, and each does so only if its splitter
    reflects it, with R = 1 - T.  Of the kets of ``pair_term(2)``,
    |2,0;0,2>, |1,1;1,1> and |0,2;2,0> at weight 1/3 each, only |1,1;1,1>
    can: arm 1's herald analyzer sends H to r1H and V to r1V, so its two
    photons meet both detectors with R1^2 only when they are one H and one
    V, and arm 2's HWP(pi/8) sends each of its photons to r2+ or r2- with
    R2/2, so its two land one on each with 2 (R2/2)^2.  The herald
    probability is R1^2 R2^2 / 6 times the four herald efficiencies.
    """
    if not (0.0 <= t1 <= 1.0 and 0.0 <= t2 <= 1.0):
        raise ValueError(f"transmissions must be in [0, 1], got {t1} and {t2}")
    return (1.0 - t1) ** 2 * (1.0 - t2) ** 2 / 6.0 * math.prod(detectors.etas(HERALD_NAMES))


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
