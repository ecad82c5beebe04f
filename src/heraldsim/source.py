"""SPDC emission model: n-pair Fock terms, emission weights, visibility split.

The two-mode polarization-entangled source emits n pairs with amplitude
proportional to sqrt(n+1) tau^n; the normalized n-pair term is

    (1/sqrt(n+1)) sum_k (-1)^k |n-k, k; k, n-k>

with k the number of V photons in arm a1.  A phenomenological visibility
parameter models imperfect destructive interference of the two-pair
contribution at the heralding analyzer: a fraction V of its weight evolves
coherently (and is fully suppressed) while the remaining 1-V behaves as
fully distinguishable photons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import SOURCE_NAMES
from .fock import SparseKet

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


def pair_term(n: int) -> SparseKet:
    """Normalized n-pair emission term on the source modes a1H a1V a2H a2V."""
    if n < 0:
        raise ValueError("pair number must be non-negative")
    norm = 1.0 / math.sqrt(n + 1)
    ks = range(n, -1, -1)  # descending k puts the rows in lexicographic order
    return SparseKet(
        len(SOURCE_NAMES),
        np.array([(n - k, k, k, n - k) for k in ks], dtype=np.int64),
        np.array([norm * (-1) ** k for k in ks], dtype=complex),
    )


def emission_coefficients(max_pairs: int, visibility: float) -> dict[tuple[int, bool], float]:
    """The emission law free of tau: a coefficient c per (pairs, coherent) component.

    A component of n pairs weighs c tau^(2n) before the common truncation
    renormalization, with c = n+1 (untruncated, P(n) = (1-tau^2)^2 (n+1)
    tau^(2n)).  The visibility V splits the two-pair coefficient into a
    coherent piece (V) and a distinguishable copy (1-V).  Zero
    coefficients are left out.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    coefficients = {}
    for n in range(max_pairs + 1):
        parts = ((True, visibility), (False, 1.0 - visibility)) if n == 2 else ((True, 1.0),)
        for coherent, share in parts:
            if share > 0.0:
                coefficients[n, coherent] = (n + 1) * share
    return coefficients


def emission_components(params: SpdcParams) -> dict[tuple[int, bool], float]:
    """Per-pair-number emission weights feeding the heralding pipeline.

    Blocks of different total photon number never interfere in photon
    counting, so the emission is handled block by block, each keyed by
    (pairs, coherent) as in ``emission_coefficients``; its state is the
    normalized ``pair_term(pairs)``.  Only the two-pair block carries the
    visibility split.  Weights are renormalized over the truncated
    emission, and zero weights (every block but the vacuum at tau = 0) are
    left out.
    """
    coefficients = emission_coefficients(params.max_pairs, params.visibility)
    raw = {key: c * params.tau ** (2 * key[0]) for key, c in coefficients.items()}
    total = sum(raw.values())
    return {key: w / total for key, w in raw.items() if w != 0.0}
