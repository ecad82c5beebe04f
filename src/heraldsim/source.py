"""SPDC emission model: n-pair Fock terms, pair-number weights, visibility split.

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

from .elements import SOURCE_REGISTER
from .fock import DEFAULT_PHOTON_CAP, SparseKet, vacuum


@dataclass(frozen=True)
class SpdcParams:
    """Source parameters: emission amplitude, truncation and visibility.

    ``photon_cap`` defaults to the 2 * max_pairs photons of the largest
    block; an explicit cap below that is rejected.
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
        if 2 * self.max_pairs > self.photon_cap:
            raise ValueError("max_pairs exceeds the photon cap")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")


@dataclass(frozen=True)
class SourceComponent:
    """One incoherent piece of the emission: weight, pair number, state and coherence flag."""

    weight: float
    pairs: int
    state: SparseKet
    coherent: bool = True


def pair_term(n: int, photon_cap: int = DEFAULT_PHOTON_CAP) -> SparseKet:
    """Normalized n-pair emission term on the source register."""
    if n < 0:
        raise ValueError("pair number must be non-negative")
    if 2 * n > photon_cap:
        raise ValueError(f"{n} pairs exceed the photon cap of {photon_cap}")
    if n == 0:
        return vacuum(SOURCE_REGISTER)
    norm = 1.0 / math.sqrt(n + 1)
    amps = {}
    for k in range(n + 1):
        amps[(n - k, k, k, n - k)] = norm * (-1) ** k
    return SparseKet.from_amplitudes(SOURCE_REGISTER, amps)


def pair_number_weights(params: SpdcParams) -> list[float]:
    """Truncation-renormalized pair-number distribution P(0..max_pairs).

    Before truncation P(n) = (1-tau^2)^2 (n+1) tau^(2n).
    """
    raw = [(n + 1) * params.tau ** (2 * n) for n in range(params.max_pairs + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def apply_visibility(two_pair_block: SparseKet, visibility: float) -> list[SourceComponent]:
    """Split the two-pair term into interfering and distinguishable pieces.

    The coherent piece (weight V) undergoes full destructive interference at
    the heralding analyzer; the distinguishable copy (weight 1-V) routes its
    photons classically, so the two-pair herald leakage scales as (1-V)
    times the fully distinguishable value.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    components = []
    if visibility > 0.0:
        components.append(SourceComponent(visibility, 2, two_pair_block, coherent=True))
    if visibility < 1.0:
        components.append(SourceComponent(1.0 - visibility, 2, two_pair_block, coherent=False))
    return components


def emission_components(params: SpdcParams) -> list[SourceComponent]:
    """Per-pair-number emission pieces feeding the heralding pipeline.

    Blocks of different total photon number never interfere in photon
    counting, so the emission is handled block by block; only the two-pair
    block carries the visibility split.
    """
    weights = pair_number_weights(params)
    components: list[SourceComponent] = []
    for n, w in enumerate(weights):
        if w == 0.0:
            continue
        block = pair_term(n, params.photon_cap)
        if n == 2:
            for part in apply_visibility(block, params.visibility):
                components.append(SourceComponent(w * part.weight, n, part.state, part.coherent))
        else:
            components.append(SourceComponent(w, n, block, coherent=True))
    return components
