"""End-to-end experiment reproductions: sweeps, power dependence, tables.

The heralding pipeline runs in two stages.  ``heralded_blocks`` evolves
each pair-number block through the circuit and heralds it at unit weight,
plus a distinguishable-photon copy of the two-pair block, which heralds the
output vacuum in closed form; blocks of different photon number never
interfere in photon counting, so none of this depends on tau or the
visibility.  ``reweight_blocks`` then scales the blocks by the emission
weights (the visibility splitting the two-pair weight) and merges them.
power-compare builds the blocks once for both values of tau, and calibrate
reduces them to two polynomials in tau^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .detection import (
    ConditionalEnsemble,
    DetectorModel,
    herald,
    herald_classical,
    number_table,
    postselect_two_qubit,
    spatial_reduction,
)
from .elements import OUTPUT_NAMES, build_paper_circuit
from .fock import Occupation
from .metrics import (
    BELL_STATES,
    chsh_max,
    fidelity_to_phi_plus,
    one_photon_per_arm_probability,
    photons_in_both_arms_probability,
    tangle,
    total_state_fidelity_from_values,
)
from .source import SpdcParams, emission_coefficients, emission_components, pair_term

CONFIG_SCHEMA = "heraldsim-config/1"

# Reference photon-number probabilities (Table-1-style aggregates) measured
# for the four splitter configurations; used for comparison reports only.
REFERENCE_NUMBER_PROBS: dict[str, dict[str, float]] = {
    "17/83": {"p00": 9.74e-1, "p10_plus_p01": 2.57e-2, "p11": 2.58e-4,
              "p20_plus_p02": 2.75e-5, "p21_plus_p12": 0.0, "p22": 0.0},
    "30/70": {"p00": 9.63e-1, "p10_plus_p01": 3.67e-2, "p11": 6.14e-4,
              "p20_plus_p02": 3.57e-5, "p21_plus_p12": 5.94e-6, "p22": 0.0},
    "50/50": {"p00": 9.15e-1, "p10_plus_p01": 8.19e-2, "p11": 3.06e-3,
              "p20_plus_p02": 3.72e-4, "p21_plus_p12": 3.66e-5, "p22": 0.0},
    "70/30": {"p00": 8.68e-1, "p10_plus_p01": 1.23e-1, "p11": 8.03e-3,
              "p20_plus_p02": 7.49e-4, "p21_plus_p12": 1.07e-4, "p22": 0.0},
}

# Transmission of each reference configuration (named reflected/transmitted).
REFERENCE_TRANSMISSIONS = {"17/83": 0.17, "30/70": 0.30, "50/50": 0.50, "70/30": 0.70}

# Emission amplitudes within which calibrate_tau looks for the target P(1;1).
CALIBRATION_TAU_BRACKET = (0.02, 0.7)

# Output detectors that miss nothing: their number table counts the photons
# before any output loss, the P(1;1) that the C6/(C4 eta_1 eta_2) estimator targets.
LOSSLESS_OUTPUT = DetectorModel(efficiency=1.0)

HIGH_POWER_W = 1.2
LOW_POWER_W = 0.62


@dataclass(frozen=True)
class ExperimentConfig:
    """Full configuration of one heralding experiment."""

    t1: float = 0.5
    t2: float = 0.5
    spdc: SpdcParams = field(default_factory=SpdcParams)
    detectors: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self):
        if not (0.0 <= self.t1 <= 1.0 and 0.0 <= self.t2 <= 1.0):
            raise ValueError("transmissions must be in [0, 1]")

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ExperimentConfig":
        if data.get("schema") != CONFIG_SCHEMA:
            raise ValueError(f"unsupported config schema {data.get('schema')!r}")
        known = {
            "schema", "t1", "t2", "tau", "max_pairs", "visibility",
            "efficiency", "resolving",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        spdc = SpdcParams(
            tau=float(data.get("tau", 0.3)),
            max_pairs=int(data.get("max_pairs", 4)),
            visibility=float(data.get("visibility", 1.0)),
        )
        detectors = DetectorModel(
            efficiency=float(data.get("efficiency", DetectorModel().efficiency)),
            resolving=str(data.get("resolving", "threshold")),
        )
        return cls(
            t1=float(data["t1"]),
            t2=float(data["t2"]),
            spdc=spdc,
            detectors=detectors,
        )


# Heralded pair blocks at unit weight, keyed by (pair number, coherent).
PairBlocks = dict[tuple[int, bool], ConditionalEnsemble]


def heralded_blocks(
    t1: float,
    t2: float,
    detectors: DetectorModel,
    max_pairs: int,
    settings: tuple[str, str] = ("z", "z"),
) -> PairBlocks:
    """Evolve and herald each pair block 0..max_pairs once, free of tau and V.

    The two-pair block also appears with its photons distinguishable, the
    piece that the visibility mixes in.
    """
    layout = build_paper_circuit(t1, t2, settings)
    blocks: PairBlocks = {}
    for n in range(max_pairs + 1):
        state = pair_term(n)
        blocks[n, True] = herald(layout.run(state), detectors)
        if n == 2:
            blocks[n, False] = herald_classical(state, layout.total_matrix(), detectors)
    return blocks


def reweight_blocks(blocks: PairBlocks, spdc: SpdcParams) -> ConditionalEnsemble:
    """Scale the heralded blocks by the emission weights and merge them."""
    merged: ConditionalEnsemble | None = None
    for comp in emission_components(spdc):
        ens = blocks[comp.pairs, comp.coherent].scaled(comp.weight)
        merged = ens if merged is None else merged.merged_with(ens)
    return merged


def heralded_ensemble(
    t1: float,
    t2: float,
    spdc: SpdcParams,
    detectors: DetectorModel,
    settings: tuple[str, str] = ("z", "z"),
) -> ConditionalEnsemble:
    """Herald the full emission through the circuit: its blocks, reweighted at spdc."""
    blocks = heralded_blocks(t1, t2, detectors, spdc.max_pairs, settings)
    return reweight_blocks(blocks, spdc)


@dataclass(frozen=True)
class ExperimentResult:
    """Simulated observables of one configuration."""

    config: ExperimentConfig
    herald_probability: float
    table: dict[Occupation, float]
    reduction: dict[tuple[int, int], float]
    rho_post: np.ndarray
    metrics: dict[str, float]


def _preparation_probabilities(
    ensemble: ConditionalEnsemble, table: Mapping[Occupation, float], detectors: DetectorModel
) -> tuple[float, float]:
    """P_direct and P_estimator of a heralded ensemble and its detected number table.

    P_direct counts one photon per output arm before output loss.
    P_estimator is C6/(C4 eta_1 eta_2): the probability of a click in each
    arm over the two arms' efficiencies, so each arm's H and V detectors
    must share one nonzero efficiency.
    """
    eta_1h, eta_1v, eta_2h, eta_2v = detectors.etas(OUTPUT_NAMES)
    if eta_1h != eta_1v or eta_2h != eta_2v or 0.0 in (eta_1h, eta_2h):
        raise ValueError(
            "P_estimator needs one nonzero efficiency per output arm, got "
            f"{eta_1h}, {eta_1v} (arm 1) and {eta_2h}, {eta_2v} (arm 2)"
        )
    p_direct = one_photon_per_arm_probability(number_table(ensemble, LOSSLESS_OUTPUT))
    return p_direct, photons_in_both_arms_probability(table) / (eta_1h * eta_2h)


def simulate_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full pipeline and collect every scalar figure of merit."""
    ensemble = heralded_ensemble(config.t1, config.t2, config.spdc, config.detectors)
    table = number_table(ensemble, config.detectors)
    p_direct, p_estimator = _preparation_probabilities(ensemble, table, config.detectors)
    reduction = spatial_reduction(table)
    rho_post = postselect_two_qubit(ensemble, config.detectors)
    p11 = one_photon_per_arm_probability(table)
    f_post = fidelity_to_phi_plus(rho_post)
    metrics = {
        "herald_probability": ensemble.probability,
        "fidelity_post": f_post,
        "fidelity_meas": total_state_fidelity_from_values(p11, f_post),
        "tangle": tangle(rho_post),
        "chsh": chsh_max(rho_post),
        "P_direct": p_direct,
        "P_estimator": p_estimator,
        "P11_detected": p11,
        "visibility": config.spdc.visibility,
    }
    return ExperimentResult(
        config=config,
        herald_probability=ensemble.probability,
        table=table,
        reduction=reduction,
        rho_post=rho_post,
        metrics=metrics,
    )


def power_scaled_tau(tau_high: float, power_low: float = LOW_POWER_W,
                     power_high: float = HIGH_POWER_W) -> float:
    """Map a pump-power change onto the emission amplitude: tau^2 scales with power."""
    if not 0.0 < power_low <= power_high:
        raise ValueError("powers must satisfy 0 < low <= high")
    return tau_high * math.sqrt(power_low / power_high)


def calibrate_tau(
    target_p11: float = REFERENCE_NUMBER_PROBS["50/50"]["p11"],
    t1: float = 0.5,
    t2: float = 0.5,
    detectors: DetectorModel | None = None,
    visibility: float = 0.862,
    max_pairs: int = 4,
) -> dict:
    """Fit the emission amplitude to a detected one-pair-per-arm probability.

    Each heralded block c of n pairs reduces once to its herald probability
    H_c and its joint P(1;1) J_c.  With the emission coefficients v_c, the
    conditional P(1;1) at x = tau^2 is N(x)/D(x), with N = sum v_c J_c x^n
    and D = sum v_c H_c x^n (the truncation renormalization cancels), so
    tau is the square root of the single real root of N - target D with
    tau in CALIBRATION_TAU_BRACKET.
    """
    detectors = detectors or DetectorModel()
    blocks = heralded_blocks(t1, t2, detectors, max_pairs)
    herald_poly = np.zeros(max_pairs + 1)
    joint_poly = np.zeros(max_pairs + 1)
    for (n, coherent), c in emission_coefficients(max_pairs, visibility).items():
        block = blocks[n, coherent]
        if block.probability > 0.0:
            table = number_table(block, detectors)
            herald_poly[n] += c * block.probability
            joint_poly[n] += c * block.probability * one_photon_per_arm_probability(table)
    if not herald_poly.any():
        raise ValueError(f"zero herald probability for t1={t1}, t2={t2}")

    def p11_at(x: float) -> float:
        powers = x ** np.arange(max_pairs + 1)
        return float(joint_poly @ powers / (herald_poly @ powers))

    lo, hi = CALIBRATION_TAU_BRACKET
    roots = np.roots((joint_poly - target_p11 * herald_poly)[::-1])
    inside = [r.real for r in roots if r.imag == 0.0 and lo**2 < r.real < hi**2]
    if len(inside) != 1:
        raise ValueError(
            f"target P11 {target_p11:.3e} is not met at a single tau in the bracket "
            f"[{lo}, {hi}], where P11 goes from {p11_at(lo**2):.3e} to {p11_at(hi**2):.3e}"
        )
    (x,) = inside
    return {
        "tau": math.sqrt(x),
        "target_p11": target_p11,
        "achieved_p11": p11_at(x),
        "t1": t1,
        "t2": t2,
        "visibility": visibility,
        "efficiency": detectors.efficiency,
        "max_pairs": max_pairs,
    }


def run_sweep(configs: Sequence[ExperimentConfig]) -> list[dict]:
    """Heralded-preparation probability across beam-splitter transmissions."""
    if not configs:
        raise ValueError("sweep needs at least one configuration")
    rows = []
    for config in configs:
        ensemble = heralded_ensemble(
            config.t1, config.t2, config.spdc, config.detectors
        )
        if ensemble.probability > 0.0:
            table = number_table(ensemble, config.detectors)
            p_direct, p_estimator = _preparation_probabilities(ensemble, table, config.detectors)
        else:
            p_direct = 0.0
            p_estimator = 0.0
        rows.append(
            {
                "t1": config.t1,
                "t2": config.t2,
                "herald_probability": ensemble.probability,
                "P_direct": p_direct,
                "P_estimator": p_estimator,
            }
        )
    max_prob = max(r["herald_probability"] for r in rows)
    for r in rows:
        r["herald_rate_relative"] = (
            r["herald_probability"] / max_prob if max_prob > 0 else 0.0
        )
    return rows


def bell_diagonal(rho: np.ndarray) -> dict[str, float]:
    """Diagonal of a two-qubit state in the Bell basis."""
    return {
        name: float(np.real(vec.conj() @ rho @ vec)) for name, vec in BELL_STATES.items()
    }


def run_power_comparison(
    tau_high: float,
    tau_low: float,
    t: float = 0.3,
    detectors: DetectorModel | None = None,
    visibility: float = 0.862,
    max_pairs: int = 4,
) -> dict:
    """Post-selected fidelities at two pump powers (same splitters)."""
    if not 0.0 <= tau_low < 1.0 or not 0.0 <= tau_high < 1.0:
        raise ValueError("emission amplitudes must be in [0, 1)")
    if tau_low > tau_high:
        raise ValueError("tau_low must not exceed tau_high")
    detectors = detectors or DetectorModel()
    blocks = heralded_blocks(t, t, detectors, max_pairs)
    out: dict = {"t": t, "tau_high": tau_high, "tau_low": tau_low}
    for tag, tau in (("high", tau_high), ("low", tau_low)):
        spdc = SpdcParams(tau=tau, max_pairs=max_pairs, visibility=visibility)
        ensemble = reweight_blocks(blocks, spdc)
        rho = postselect_two_qubit(ensemble, detectors)
        out[f"F_post_{tag}"] = fidelity_to_phi_plus(rho)
        out[f"bell_diagonal_{tag}"] = bell_diagonal(rho)
    return out


def reproduce_number_tables(config: ExperimentConfig, ratio: str | None = None) -> dict:
    """Simulate the detected photon-number table and compare to reference data.

    Comparison rows report the simulated and reference aggregate
    probabilities with their ratio; mismatches beyond 3x are flagged rather
    than asserted away, since the source amplitude and per-arm efficiencies
    of the reference data are not published.
    """
    result = simulate_experiment(config)
    aggregates = _aggregate_rows(result.reduction)
    out = {
        "t1": config.t1,
        "t2": config.t2,
        "tau": config.spdc.tau,
        "table": {"".join(map(str, k)): v for k, v in result.table.items()},
        "aggregates": aggregates,
    }
    if ratio is not None:
        if ratio not in REFERENCE_NUMBER_PROBS:
            raise ValueError(f"unknown reference ratio {ratio!r}")
        reference = REFERENCE_NUMBER_PROBS[ratio]
        comparison = {}
        for key, ref in reference.items():
            sim = aggregates.get(key, 0.0)
            row = {"simulated": sim, "reference": ref}
            if ref > 0.0 and sim > 0.0:
                r = sim / ref
                row["ratio"] = r
                row["flagged"] = bool(r > 3.0 or r < 1.0 / 3.0)
            else:
                row["ratio"] = None
                row["flagged"] = bool((ref == 0.0) != (sim < 1e-12))
            comparison[key] = row
        out["ratio"] = ratio
        out["comparison"] = comparison
    return out


def _aggregate_rows(reduction: Mapping[tuple[int, int], float]) -> dict[str, float]:
    def get(n1: int, n2: int) -> float:
        return reduction.get((n1, n2), 0.0)

    return {
        "p00": get(0, 0),
        "p10_plus_p01": get(1, 0) + get(0, 1),
        "p11": get(1, 1),
        "p20_plus_p02": get(2, 0) + get(0, 2),
        "p21_plus_p12": get(2, 1) + get(1, 2),
        "p22": get(2, 2),
    }
