"""SPDC emission model: the emission law over the pair blocks, visibility split.

The two-mode polarization-entangled source emits n pairs with amplitude
proportional to sqrt(n+1) tau^n; the normalized n-pair term is

    (1/sqrt(n+1)) sum_k (-1)^k |n-k, k; k, n-k>

with k the number of V photons in arm a1.  A phenomenological visibility
parameter models imperfect destructive interference of the two-pair
contribution at the heralding analyzer: a fraction V of its weight evolves
coherently (and is fully suppressed) while the remaining 1-V behaves as
fully distinguishable photons.  The heralding kernel builds each term's
block itself (``detection.herald_pair_terms``); this module owns their
order (``block_keys``) and the weight of each, one array entry per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Two-pair interference visibility measured in the paper.
PAPER_VISIBILITY = 0.862


@dataclass(frozen=True)
class SpdcParams:
    """Source parameters: emission amplitude, truncation and visibility.

    ``photon_cap`` is the 2 * max_pairs photons of the largest block; an
    explicit cap of any other value is rejected.
    """

    tau: float = 0.3
    max_pairs: int = 4
    visibility: float = 1.0
    photon_cap: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")
        if self.max_pairs < 0:
            raise ValueError("max_pairs must be non-negative")
        if self.photon_cap is None:
            object.__setattr__(self, "photon_cap", 2 * self.max_pairs)
        if self.photon_cap != 2 * self.max_pairs:
            raise ValueError(
                f"photon cap must be 2 * max_pairs = {2 * self.max_pairs}, got {self.photon_cap}"
            )
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")


def block_keys(max_pairs: int) -> tuple[tuple[int, bool], ...]:
    """The (pairs, coherent) key of each emission component, in the order of the heralded layers.

    The pair blocks 0..max_pairs, then, from two pairs on, the two-pair
    block with its photons distinguishable.
    """
    return tuple((n, True) for n in range(max_pairs + 1)) + ((2, False),) * (max_pairs >= 2)


def emission_coefficients(max_pairs: int, visibility: float) -> np.ndarray:
    """The emission law free of tau: a coefficient c per component of ``block_keys``.

    A component of n pairs weighs c tau^(2n) before the common truncation
    renormalization, with c = n+1 (untruncated, P(n) = (1-tau^2)^2 (n+1)
    tau^(2n)).  The visibility V splits the two-pair coefficient into a
    coherent piece (V) and a distinguishable copy (1-V); a zero
    coefficient keeps its entry.
    """
    return _coefficients(block_keys(max_pairs), visibility)


def _coefficients(keys, visibility: float) -> np.ndarray:
    """``emission_coefficients`` of the components ``keys``."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    shares = {True: visibility, False: 1.0 - visibility}
    return np.array([(n + 1) * (shares[coherent] if n == 2 else 1.0) for n, coherent in keys])


def emission_components(params: SpdcParams) -> np.ndarray:
    """Emission weight of each component of ``block_keys``, feeding the heralding pipeline.

    Blocks of different total photon number never interfere in photon
    counting, so the emission is handled block by block, each with the
    coefficient of ``emission_coefficients``; its state is the normalized
    n-pair term.  Only the two-pair block carries the visibility split.
    Weights are renormalized over the truncated emission, and zero weights
    (every block but the vacuum at tau = 0) keep their entries.
    """
    keys = block_keys(params.max_pairs)
    powers = np.array([params.tau ** (2 * n) for n, _ in keys])
    raw = _coefficients(keys, params.visibility) * powers
    return raw / sum(raw.tolist())  # summed in layer order, not by numpy's unrolled loop
