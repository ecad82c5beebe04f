"""Detector models, heralding, click statistics and post-selected states.

The circuit never mixes the two arms and every detector counts photons in
one mode, so the pair block n, sum_i c_i |arm 1 input i>|arm 2 input i>
with n photons in each arm (the n-pair term of ``source``), is heralded
arm by arm.  The herald needs a photon in each of an arm's two herald
detectors, so of the output occupations (o0, o1) of n photons only the
n(n-1)/2 with o0 + o1 <= n - 2 can herald, and every kernel runs over
those alone (``_heralding_rows``).  A row of m = n - o0 - o1 herald
photons takes the arm's splitter as R^m T^(n-m).

Every pipeline command analyzes both output arms in z, and there each
block is a closed form (``herald_pair_terms``).  Arm 1's herald, a PBS in
H/V, and its z analyzer count its H and V photons apart, so a row and the
r1H count fix the input that was emitted: different inputs never interfere
in arm 1, and its Gram tensor over the inputs is diagonal, with its HV
coherence on the neighbouring band alone.  Arm 2's HWP(pi/8) herald mixes
H and V, but its z analyzer still only splits each input's photons
binomially between outputs and herald, so its Gram entries are binomial
roots times one table of herald overlaps of the HWP photon maps, built
photon by photon by the creation-operator recurrence (``_photon_maps``).
So the contraction of the two arms runs over the n + 1 inputs alone: the
lossless table, the joint probability of the herald and each output
occupation of both arms, is a sum of nonnegative terms, its sum the herald
probability and its one-photon-per-arm entries P_direct, and the
coincidence matrix, one detected photon per output arm, keeps the
coherence between the detected polarizations through each arm's diagonal
and neighbouring band.  The blocks come back as one stacked record
(``PairBlocks``), each block's lossless table a layer over the rows of the
largest block.  Output loss never changes whether the herald fires and
never adds a photon, and it is linear, so it thins a weighted sum of those
layers once, within the same occupations, rather than each block on its
own (``weigh_blocks``): per-mode binomial thinning at detection, exact
because every element after the source is passive linear optics.  The
two-pair block's distinguishable photons herald only when all four land
one in each herald detector, so that block heralds the output vacuum, with
a probability in closed form that needs no circuit: R1^2 R2^2 / 6 times
the four herald efficiencies (``herald_classical``).

Everything that depends on the truncation alone is the kernels' one
process cache beside the integer binomials of ``_binomials``:
``_block_gathers``, an ``lru_cache`` keyed by max_pairs, built on first
use, never at import, a read-only named tuple.  It holds the layer keys,
the heralding rows, the masks of the herald weights and splitter factors
and of the Kraus neighbours, arm 2's HWP photon maps and, for every
(block, row, input), the binomial coefficients of both arms' Gram entries,
their indices into the per-call herald weights, herald overlaps and
splitter factors, and their coincidence slots; and, for the readers of a
count table (``weigh_blocks``, ``number_table``, ``arm_totals``), the cells
that the rows fill and the cells that an arm of at most max_pairs photons
can fill, in lexicographic order.  Every array has one entry per row, per
count cell or per (block, row, input), none per table pattern: about 40 KB
through 6 pairs and 3.8 MB through 20.  A call on a warm key pays only for
its splitters, detectors and weights, with every block's gathers in one
pass.  The rows of block n are the leading rows of every larger block, so
a call builds its per-row detector tables once, for its largest block.
Other analyzer settings enter the package only through the post-selected
two-qubit state (``tomography``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .elements import HERALD_NAMES, OUTPUT_NAMES, hwp_map
from .fock import PRUNE_TOL, Occupation
from .source import block_keys

# Coupling times detector efficiency per spatial mode.
DEFAULT_EFFICIENCY = 0.23 * 0.42

# A contracted probability at most this fraction of the sum of its terms'
# magnitudes is the rounding residue of an exact zero, and is set to zero.
RESIDUE_TOL = 1e-12

# Coincidence patterns (one detected photon per output arm) in the order of
# the two-qubit basis HH, HV, VH, VV.
COINCIDENCE_PATTERNS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))

# The Gram entries of each arm that the kernels read, as pairs of its kets (s, d) of row (o0 + s, o1 - s)
# and input i - d (``_block_gathers``): arm 1's diagonal and its neighbour band (r + 1, i; r, i - 1), arm 2's
# diagonal, its band (r, i; r, i - 1) and its neighbour overlaps at (i, i), (i, i - 1) and (i - 1, i).
_GRAM_ENTRIES = ((((0, 0), (0, 0)), ((1, 0), (0, 1))),
                 (((0, 0), (0, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 0))))
# The arm of each of those seven Gram entries, arm 1's two then arm 2's five, as ``_block_gathers``
# stacks them.
_GRAM_ARMS = np.array([0, 0, 1, 1, 1, 1, 1])
# The pieces of the coincidences that ``herald_pair_terms`` sums over the rows, per input i, arm 1's
# three then arm 2's seven: which of the seven Gram entries each takes, and which of the six row weights,
# each arm's seen_H, seen_V and Kraus factor.  Arm 1's are HH, VV and HV at (i, i - 1); arm 2's are HH
# and VV at (i, i) and at (i, i - 1), and HV at (i, i), (i, i - 1) and (i - 1, i), its VH the transpose of HV.
_PIECES = (np.array([0, 0, 1, 2, 3, 2, 3, 4, 5, 6]), np.array([0, 1, 2, 3, 3, 4, 4, 5, 5, 5]))
# The pieces that coincidence entry (2a + c, 2b + d) pairs: arm 1's block (a, b) and arm 2's (c, d),
# both on the diagonal when a = b, and at (i, i - 1) or (i - 1, i) when arm 1's is HV or VH.
_PAIRED = (np.array([[0, 0, 2, 2], [0, 0, 2, 2], [2, 2, 1, 1], [2, 2, 1, 1]]),
           3 + np.array([[0, 4, 1, 5], [4, 2, 6, 3], [1, 6, 0, 4], [5, 3, 4, 2]]))


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


class _BlockGathers(NamedTuple):
    """What the kernels read of one truncation, free of splitters and detectors (``_block_gathers``).

    R is the number of rows of the largest block, E the number of entries,
    one per (block, row, input) of blocks 2..max_pairs, and side is
    max_pairs + 1.  Every array is read-only.
    """

    keys: tuple[tuple[int, bool], ...]  # ``block_keys(max_pairs)``, the order of the layers
    rows: np.ndarray  # (2, R) the (o0, o1) of ``_heralding_rows(max_pairs)``
    cells: np.ndarray  # (R,) o0 * side + o1: each row's cell of an arm's (H, V) count plane
    count_cells: np.ndarray  # (C,) the cells of every (o0, o1) with o0 + o1 <= max_pairs, lexicographic
    count_rows: np.ndarray  # (2, C) their (o0, o1)
    lower: np.ndarray  # (side, side) m >= h, where h of m herald photons can reach one detector
    below: np.ndarray  # (side, side) m - h, zero where m < h
    neighbours: np.ndarray  # (R - 1,) row r + 1 holds as many output photons as row r
    maps: np.ndarray  # (side, side, side) arm 2's HWP herald maps
    offsets: np.ndarray  # (B + 1,) where each block's entries start
    starts: np.ndarray  # (B,) where each block's inputs start among all blocks' inputs
    row: np.ndarray  # (E,) each entry's row
    split: np.ndarray  # (E,) n * side + m into a table over (n, m)
    gram: np.ndarray  # (7, E) the Gram coefficients, arm 1's two then arm 2's five
    gram_at: np.ndarray  # (7, E) their indices into arm 1's herald weight and arm 2's herald overlaps
    slots: np.ndarray  # (10, E) t * I + the entry's input among all I inputs, for piece t


@functools.lru_cache(maxsize=None)
def _block_gathers(max_pairs: int) -> _BlockGathers:
    """Every array of the pair-block kernels that depends on the truncation alone, built once.

    Block n has the R = n(n-1)/2 rows (o0, o1) of ``_heralding_rows(n)``,
    each of m = n - o0 - o1 herald photons, and the n + 1 inputs of the
    n-pair term: input i holds i H and n - i V photons in arm 1, n - i H
    and i V in arm 2, with amplitude c_i = +-1/sqrt(n+1).  Its entries
    are one (R, n + 1) slab, row by row, and the slabs follow each other
    from n = 2.  ``maps`` are the ``_photon_maps`` of arm 2's HWP(pi/8)
    herald, [m, p, h] the amplitude of h photons in r2+ out of p H and
    m - p V, zero below PRUNE_TOL.

    An arm's ket of row (o0 + s, o1 - s) and input i - d splits the arm's
    H and V photons binomially between outputs and herald, with amplitude
    sqrt(C(h, o0 + s) C(n - h, o1 - s)) for the h H photons it holds.  In
    arm 1 the herald photons then meet r1H and r1V as they are, so that
    ket sits at h0 = i - d - o0 - s herald H photons alone; in arm 2 they
    meet the HWP map of their p + d - s H photons, p = n - i - o0.  The
    coefficients in ``gram`` are those products: arm 1's Gram diagonal
    (r, i; r, i) and its neighbour band (r + 1, i; r, i - 1), with c_i^2
    and c_i c_(i-1), then arm 2's Gram at (r, i; r, i) and (r, i; r, i - 1),
    and its neighbour overlaps (r + 1, i; r, i), (r + 1, i; r, i - 1) and
    (r + 1, i - 1; r, i).  ``gram_at`` indexes arm 1's herald weight over
    (m, h), at m * side + h, and after its side^2 entries arm 2's herald
    overlaps over (m, p, p'), at (m * side + p) * side + p'.  ``slots``
    place each entry's coincidence piece t (``_PIECES``) of its input for
    one ``bincount``.

    An arm holds at most max_pairs photons, so a count table is read at the
    C cells (o0, o1) with o0 + o1 <= max_pairs of each arm, and a pattern
    is a pair of them: as (a, b) runs over the C^2 pairs row by row,
    (``count_cells``[a], ``count_cells``[b]) runs over the patterns in the
    table's lexicographic order.  No array of C^2 or R^2 entries is kept.
    Kept for the life of the process, keyed by max_pairs alone, built on
    first use.
    """
    side = max_pairs + 1
    o0, o1 = _heralding_rows(max_pairs)
    gap = np.subtract.outer(np.arange(side), np.arange(side))
    counts = np.argwhere(np.add.outer(np.arange(side), np.arange(side)) <= max_pairs)  # in lexicographic order
    out = o0 + o1
    maps = _photon_maps(hwp_map(math.pi / 8.0).real, max_pairs)
    maps[np.abs(maps) < PRUNE_TOL] = 0.0
    # square roots of C(a, b) at [a + 1, b + 1] for a, b = -1..side, zero where either is -1 or side:
    # every C(side, b) that a coefficient reads meets a factor C(-1, b') = 0
    roots = np.pad(np.sqrt(_binomials(max_pairs)[0]), 1)
    # the entries: block n keeps its n(n-1)/2 rows and n + 1 inputs, whose run starts after n(n+1)/2 - 3
    blocks = np.arange(2, side)
    grid = np.ix_(blocks, np.arange(max_pairs * (max_pairs - 1) // 2), np.arange(side))
    kept = (2 * grid[1] < grid[0] * (grid[0] - 1)) & (grid[2] <= grid[0])
    n, row, i = (x[kept] for x in np.broadcast_arrays(*grid))
    m = n - o0[row] - o1[row]
    # ket[arm, s, d]: the binomial amplitude of the arm's ket of row (o0 + s, o1 - s) and input i - d,
    # which holds h H photons, and its herald photons' H count h - o0 - s
    arm, s, d = (x[..., None] for x in np.ix_(range(2), range(2), range(2)))
    h = np.where(arm, n - i + d, i - d)
    ket = roots[h + 1, o0[row] + s + 1] * roots[n - h + 1, o1[row] - s + 1]
    herald = (h - o0[row] - s) % side  # a negative count wraps round to an entry that meets a zero amplitude
    first, second = ([ket[a, sa, da] * ket[a, sb, db] for (sa, da), (sb, db) in entries]
                     for a, entries in enumerate(_GRAM_ENTRIES))
    # arm 1's entries carry the pair-term amplitudes, c_i^2 = 1/(n+1) and c_i c_(i-1) = -1/(n+1)
    first = np.array(first) * np.array([[1.0], [-1.0]]) / (n + 1)
    first_at = [m * side + herald[0, sa, da] for (sa, da), _ in _GRAM_ENTRIES[0]]
    second_at = [side * side + (m * side + herald[1, sa, da]) * side + herald[1, sb, db]
                 for (sa, da), (sb, db) in _GRAM_ENTRIES[1]]
    # each entry's input among all blocks' inputs, the n + 1 of each block n = 2..max_pairs
    target, inputs = n * (n + 1) // 2 - 3 + i, side * (side + 1) // 2 - 3
    gathers = _BlockGathers(
        keys=block_keys(max_pairs), rows=np.array([o0, o1]), cells=o0 * side + o1,
        count_cells=counts[:, 0] * side + counts[:, 1], count_rows=counts.T.copy(),
        lower=gap >= 0, below=np.maximum(gap, 0), neighbours=out[1:] == out[:-1],
        maps=maps, offsets=np.cumsum([0, *(blocks * (blocks - 1) // 2 * (blocks + 1))]),
        starts=blocks * (blocks + 1) // 2 - 3, row=row, split=n * side + m,
        gram=np.concatenate((first, second)), gram_at=np.array(first_at + second_at),
        # int32 halves the largest index array; bincount widens it as it reads
        slots=(np.arange(len(_PIECES[0]))[:, None] * inputs + target).astype(np.int32),
    )
    for array in gathers:
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return gathers


def arm_totals(table: np.ndarray) -> np.ndarray:
    """Sum a (t1H, t1V, t2H, t2V) count table over the polarizations of each arm.

    Entry [n1, n2] is the probability of n1 photons in arm 1 and n2 in arm
    2: P(1;1) is entry [1, 1] and a click in each arm, P(>=1;>=1), the sum
    of [1:, 1:].  The result is at least 3x3, so those entries and the
    Table-1 aggregates up to p22 exist for a table of the vacuum alone.
    A table of shape (max_pairs + 1)^4 is read only at the counts that an
    arm of at most max_pairs photons can give (``_block_gathers``), in the
    table's order, and summed in numpy's loops, not BLAS, so no thread
    count changes the result.
    """
    s = table.shape[-1]
    size = max(2 * s - 1, 3)
    gathers = _block_gathers(s - 1)
    cells, photons = gathers.count_cells, gathers.count_rows.sum(axis=0)
    counts = table.reshape(s * s, s * s)[cells[:, None], cells]
    bins = np.add.outer(photons * size, photons).ravel()  # the (n1, n2) of each count pattern
    return np.bincount(bins, counts.ravel(), size * size).reshape(size, size)


@dataclass(frozen=True, eq=False)
class PairBlocks:
    """Heralded pair blocks at unit weight, stacked on a leading block axis, free of tau and V.

    Layer b is the block ``keys[b]`` = (pairs, coherent) of ``block_keys``:
    the pair blocks 0..max_pairs in order, and from two pairs on, last, the
    two-pair block with its photons distinguishable.  ``lossless[b]`` is its
    (R, R) table over both arms' output occupations before output loss, the
    joint probability of the herald and each (o0, o1) of arm 1 and of arm 2,
    over the R rows of the largest block that can herald
    (``_heralding_rows(max_pairs)``); block n fills the leading rows.  The
    layer's herald probability is the sum of its table and P_direct the
    entries at rows 1-2, those of one photon, so neither is stored, and
    ``coincidences[b]`` is its (4, 4) coincidence matrix.  Output loss is
    linear, so a weighted sum of layers is thinned once (``weigh_blocks``).
    ``thinning`` holds each arm's (R, R) output-loss matrix, entry [r, r'] the
    chance that the output photons of row r leave those of row r' detected,
    and ``one_count`` each arm's (R,) chance that a row gives exactly one
    count.
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
    side, cells = blocks.max_pairs + 1, _block_gathers(blocks.max_pairs).cells
    table = np.zeros((side,) * 4)
    table.reshape(side * side, side * side)[cells[:, None], cells] = thinned
    return HeraldedBlock(
        float(lossless.sum()), table, float(lossless[1:3, 1:3].sum()),
        np.einsum("b,bij->ij", weights, blocks.coincidences),
    )


def _splitter_powers(t: float, side: int) -> np.ndarray:
    """T^m and R^m of a splitter of transmission t, rows (T, R) over m = 0..side-1.

    Each is the splitter's amplitude sqrt(T) or sqrt(R) to the power 2m, in
    Python's ``**``, as in ``_thinning``: on hosts with AVX-512 numpy's
    vector power can round an ulp away from the C library's pow.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {t}")
    amplitudes = (math.sqrt(t), math.sqrt(1.0 - t))
    return np.array([x ** (2 * m) for x in amplitudes for m in range(side)]).reshape(2, side)


def herald_pair_terms(max_pairs: int, t1: float, t2: float, detectors: DetectorModel) -> PairBlocks:
    """Herald the pair blocks 0..max_pairs through the paper's circuit at analyzers z, z.

    Block n is the n-pair term, sum_i c_i |arm 1 input i>|arm 2 input i>
    with n photons in each arm, and the circuit that of
    ``build_paper_circuit(t1, t2)``, whose arms never mix.  Only the output
    occupations that leave one photon for each herald detector,
    o0 + o1 <= n - 2 (``_heralding_rows``), can herald, and a row of m
    herald photons of arm a takes its splitter as R_a^m T_a^(n-m).  Arm 1's
    herald and z analyzer count its H and V photons apart, so its weighted
    Gram tensor over the inputs (i, i') is diagonal,

        D1[r, i] = c_i^2 C(i, o0) C(n - i, o1) w1(m, i - o0) R1^m T1^(n-m),

    with w_a(m, h) the chance that arm a's herald detectors fire on h and
    m - h photons.  Arm 2's HWP(pi/8) herald mixes its polarizations; its
    Gram entries are binomial roots times one table of herald overlaps,
    Q[m, p, p'] = sum_h w2(m, h) P_m[p, h] P_m[p', h] over the HWP photon
    maps P, built once per call, so that

        D2[s, i] = C(n - i, o0) C(i, o1) Q[m, n - i - o0, n - i - o0] R2^m T2^(n-m).

    Block n's lossless table is sum_i D1[r, i] D2[s, i], a sum of
    nonnegative terms: the joint probability of the herald and each output
    occupation, whose sum is the herald probability and whose
    one-photon-per-arm entries are P_direct.  Its coincidences read each
    arm's Gram tensor on the diagonal and the band i' = i - 1 alone, where
    arm 1's neighbour overlaps sit: each entry is a sum over the inputs,
    and an entry within RESIDUE_TOL of the sum of its terms' magnitudes is
    an exact cancellation, such as the HV and VH entries of the
    three-pair block (its heralded state is Phi+), and is set to zero.
    Every product runs in numpy's own loops, not in BLAS, so no thread
    count changes a figure.  Threshold detectors herald when each herald
    detector detects at least one photon, number-resolving ones when each
    detects exactly one; output clicks are never vetoed.  The zero- and
    one-pair blocks cannot herald, as each of an arm's two herald detectors
    needs a photon: their layers are exactly zero.  Returns layer n for
    block n, keyed (n, True), and for max_pairs >= 2 one more layer keyed
    (2, False): the two-pair block with its photons distinguishable, which
    heralds the output vacuum alone (``herald_classical``).
    """
    if max_pairs < 0:
        raise ValueError(f"max_pairs must be non-negative, got {max_pairs}")
    side = max_pairs + 1
    powers = np.array([_splitter_powers(t, side) for t in (t1, t2)])  # [arm, (T, R), m]
    # one thinning table per distinct efficiency: with one efficiency, all eight detectors share it
    herald_etas, output_etas = detectors.etas(HERALD_NAMES), detectors.etas(OUTPUT_NAMES)
    tables = {eta: _thinning(max(max_pairs, 1), eta) for eta in {*herald_etas, *output_etas}}
    firing = {eta: _fires(tables[eta], detectors.resolving) for eta in set(herald_etas)}
    fires = np.array([firing[eta][:side] for eta in herald_etas]).reshape(2, 2, side)
    # herald_weight[arm, m, h]: the arm's herald detectors fire on h and m - h photons; and
    # splitter[arm, n, m]: the arm's splitters take m of its n photons to the herald side
    gathers = _block_gathers(max_pairs)
    lower, below = gathers.lower, gathers.below
    herald_weight = np.where(lower, fires[:, 0, None] * fires[:, 1][:, below], 0.0)
    splitter = np.where(lower, powers[:, 1, None, :] * powers[:, 0][:, below], 0.0)
    thinning = np.array([tables[eta] for eta in output_etas])
    thinning = thinning.reshape(2, 2, *thinning.shape[1:])
    o0, o1 = gathers.rows
    seen = thinning[:, 0, o0, 1::-1] * thinning[:, 1, o1, :2]  # (arm, row, (seen_H, seen_V))
    layers = side + (max_pairs >= 2)
    coincidences = np.zeros((layers, 4, 4), dtype=complex)
    lossless = np.zeros((layers, len(o0), len(o0)))
    if max_pairs >= 2:
        lossless[side, 0, 0] = herald_classical(t1, t2, detectors)
        maps, row = gathers.maps, gathers.row
        overlaps = np.einsum("mph,mqh->mpq", maps * herald_weight[1][:, None], maps)
        # both arms' Gram entries, arm 1's two then arm 2's five, weighed per entry
        gram = (gathers.gram * np.concatenate((herald_weight[0].ravel(), overlaps.ravel()))[gathers.gram_at]
                * splitter.reshape(2, -1)[_GRAM_ARMS[:, None], gathers.split])
        offsets = gathers.offsets.tolist()
        for n, (lo, hi) in enumerate(zip(offsets, offsets[1:]), start=2):
            rows = n * (n - 1) // 2
            np.einsum("ri,si->rs", *(gram[a, lo:hi].reshape(rows, n + 1) for a in (0, 2)),
                      out=lossless[n, :rows, :rows])
        # the Kraus factors sqrt(seen_H seen_V) of a row's neighbour a photon apart, (o0 + 1, o1 - 1),
        # zero where the next row holds another number of output photons, as the last row does
        kraus = np.where(gathers.neighbours, np.sqrt(seen[:, 1:, 0] * seen[:, :-1, 1]), 0.0)
        row_weights = np.zeros((2, 3, len(o0)))
        row_weights[:, :2] = seen.transpose(0, 2, 1)
        row_weights[:, 2, :-1] = kraus
        # both arms' coincidence pieces per input, summed over the rows (``_PIECES``)
        values = gram[_PIECES[0]] * row_weights.reshape(6, -1)[_PIECES[1][:, None], row]
        pieces = np.bincount(gathers.slots.ravel(), values.ravel()).reshape(len(values), -1)
        terms, starts = pieces[_PAIRED[0]] * pieces[_PAIRED[1]], gathers.starts  # (4, 4, inputs)
        value = np.add.reduceat(terms, starts, axis=-1)
        value[np.abs(value) <= RESIDUE_TOL * np.add.reduceat(np.abs(terms), starts, axis=-1)] = 0.0
        coincidences[2:side] = value.transpose(2, 0, 1)
    return PairBlocks(
        keys=gathers.keys, coincidences=coincidences, lossless=lossless,
        thinning=thinning[:, 0][:, o0][:, :, o0] * thinning[:, 1][:, o1][:, :, o1],
        one_count=seen.sum(axis=-1),
        max_pairs=max_pairs,
    )


def herald_classical(t1: float, t2: float, detectors: DetectorModel) -> float:
    """Herald probability of the two-pair block with its four photons distinguishable.

    Each photon lands in a detector independently, with the squared
    magnitude of its amplitude there; all interference is discarded.  The
    four photons herald only by landing one in each herald detector, which
    leaves the outputs empty, and each does so only if its splitter
    reflects it, with R = 1 - T.  Of the kets of the two-pair term,
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
    small, in lexicographic order.  The table is read only at the counts
    that an arm of at most max_pairs photons can give (``_block_gathers``).
    """
    if block.herald <= 0.0:
        raise ValueError("zero herald probability; nothing heralds to condition on")
    side = block.table.shape[0]
    gathers = _block_gathers(side - 1)
    counts = block.table.reshape(side * side, side * side)[gathers.count_cells[:, None], gathers.count_cells]
    live = counts > 0.0
    (o0, o1), (first, second) = gathers.count_rows, np.nonzero(live)
    keys = zip(*(x.tolist() for x in (o0[first], o1[first], o0[second], o1[second])))
    return dict(zip(keys, (counts[live] / block.herald).tolist()))


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
