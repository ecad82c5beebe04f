"""End-to-end experiment reproductions: sweeps, power dependence, tables.

The heralding pipeline runs in two stages.  ``herald_pair_terms`` heralds
each pair-number block arm by arm into one stacked record of joint
probabilities with the herald: per block, the lossless table over both
arms' output occupations, whose sum is the herald probability and whose
one-photon entries the direct one-pair-per-arm probability, and the
coincidence matrix.  A distinguishable-photon copy of the two-pair block,
one more layer, heralds the output vacuum in closed form.  Blocks of
different photon number never interfere in photon counting, so none of
this depends on tau or the visibility.  ``weigh_blocks`` then sums the
layers with ``emission_components``, one weight per layer (the visibility
splitting the two-pair weight), in one product over the block axis, and
thins the summed lossless table by output loss once.  power-compare builds
the blocks once for both values of tau, and calibrate reduces them to two
polynomials in tau^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .detection import (
    DetectorModel,
    HeraldedBlock,
    arm_totals,
    herald_pair_terms,
    number_table,
    postselect_two_qubit,
    weigh_blocks,
)
from .elements import OUTPUT_NAMES
from .metrics import (
    BELL_STATES,
    fidelity_to_phi_plus,
    state_figures,
    total_state_fidelity_from_values,
)
from .source import PAPER_VISIBILITY, SpdcParams, emission_coefficients, emission_components

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
        """The config a JSON object describes; a bad or missing field raises ValueError naming it."""
        if not isinstance(data, Mapping):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
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
            tau=_field(data, "tau", float, SpdcParams.tau),
            max_pairs=_field(data, "max_pairs", _whole_number, SpdcParams.max_pairs),
            visibility=_field(data, "visibility", float, SpdcParams.visibility),
        )
        detectors = DetectorModel(
            efficiency=_field(data, "efficiency", float, DetectorModel.efficiency),
            resolving=_field(data, "resolving", str, DetectorModel.resolving),
        )
        t1, t2 = (_field(data, name, float) for name in ("t1", "t2"))
        return cls(t1=t1, t2=t2, spdc=spdc, detectors=detectors)


def _field(data: Mapping, name: str, convert, default=None):
    """convert(data[name]), or convert(default) where the field is absent; ValueError if bad."""
    if name not in data and default is None:
        raise ValueError(f"config field {name!r} is missing")
    value = data.get(name, default)
    try:
        if value is None or isinstance(value, bool):
            raise TypeError
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"config field {name!r} has invalid value {value!r}") from None


def _whole_number(value) -> int:
    if int(value) != float(value):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


@dataclass(frozen=True)
class ExperimentResult:
    """Simulated observables of one configuration."""

    config: ExperimentConfig
    herald_probability: float
    table: dict[tuple[int, int, int, int], float]  # (n1H, n1V, n2H, n2V): probability
    reduction: np.ndarray  # arm_totals of the table: [n1, n2] photons in arm 1 and arm 2
    rho_post: np.ndarray
    metrics: dict[str, float]


def _preparation_probabilities(
    block: HeraldedBlock, reduction: np.ndarray, detectors: DetectorModel
) -> tuple[float, float]:
    """P_direct and P_estimator of heralded blocks and their arm totals given the herald.

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
    return block.direct / block.herald, float(reduction[1:, 1:].sum()) / (eta_1h * eta_2h)


def simulate_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full pipeline and collect every scalar figure of merit."""
    blocks = herald_pair_terms(config.spdc.max_pairs, config.t1, config.t2, config.detectors)
    heralded = weigh_blocks(blocks, emission_components(config.spdc))
    table = number_table(heralded)
    reduction = arm_totals(heralded) / heralded.herald
    p_direct, p_estimator = _preparation_probabilities(heralded, reduction, config.detectors)
    rho_post = postselect_two_qubit(heralded)
    p11 = float(reduction[1, 1])
    f_post, tangle, chsh = state_figures(rho_post)
    metrics = {
        "herald_probability": heralded.herald,
        "fidelity_post": f_post,
        "fidelity_meas": total_state_fidelity_from_values(p11, f_post),
        "tangle": tangle,
        "chsh": chsh,
        "P_direct": p_direct,
        "P_estimator": p_estimator,
        "P11_detected": p11,
        "visibility": config.spdc.visibility,
    }
    return ExperimentResult(
        config=config,
        herald_probability=heralded.herald,
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
    visibility: float = PAPER_VISIBILITY,
    max_pairs: int = SpdcParams.max_pairs,
) -> dict:
    """Fit the emission amplitude to a detected one-pair-per-arm probability.

    Each heralded block c of n pairs reduces once to its herald probability
    H_c, the sum of its lossless table L_c, and its joint P(1;1) J_c,
    one_1 L_c one_2 with one_a the chance that a row of arm a gives one
    count.  With the emission coefficients v_c, the conditional P(1;1) at
    x = tau^2 is N(x)/D(x), with N = sum v_c J_c x^n and D = sum v_c H_c
    x^n (the truncation renormalization cancels), so tau is the square
    root of the single real root of N - target D with tau in
    CALIBRATION_TAU_BRACKET, polished by two Newton steps on N/D - target.
    """
    if max_pairs < 0:
        raise ValueError("max_pairs must be non-negative")
    detectors = detectors or DetectorModel()
    blocks = herald_pair_terms(max_pairs, t1, t2, detectors)
    # each layer's P(1;1) with the herald: one count in each arm, each row's chance of leaving one of
    # the one-photon rows 1-2
    one_count = blocks.thinning[:, :, 1:3].sum(axis=-1)
    joint = np.einsum("r,brs,s->b", one_count[0], blocks.lossless, one_count[1])
    herald = blocks.lossless.sum(axis=(1, 2))
    # the layers' coefficient-weighted figures summed per pair number: the coefficients of x^n
    coefficients, pairs = emission_coefficients(max_pairs, visibility), np.array(blocks.keys)[:, 0]
    herald_poly, joint_poly = (np.bincount(pairs, coefficients * layer, max_pairs + 1)
                               for layer in (herald, joint))
    if not herald_poly.any():
        cause = (f"max_pairs={max_pairs}: no block of fewer than two pairs can herald"
                 if max_pairs < 2 else f"t1={t1}, t2={t2}")
        raise ValueError(f"zero herald probability for {cause}")

    def p11_at(x: float) -> float:
        powers = _power_series(x, max_pairs)[0]
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
    # the root of N - target D carries the rounding of a difference of two nearly equal polynomials;
    # Newton steps on p11(x) - target, with p11' = (N' D - N D') / D^2, put p11 on the target
    for _ in range(2):
        powers, slopes = _power_series(x, max_pairs)
        n, d = joint_poly @ powers, herald_poly @ powers
        x -= (n / d - target_p11) * d * d / ((joint_poly @ slopes) * d - n * (herald_poly @ slopes))
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


def _power_series(x: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """x^n and its derivative n x^(n-1) for n = 0..degree, the derivative 0 at n = 0.

    The powers are Python's ``**``, as in ``detection._thinning``: on hosts
    with AVX-512 numpy's vector power can round an ulp away from the C
    library's pow.
    """
    powers = [x**n for n in range(degree + 1)]
    slopes = [0.0] + [n * x ** (n - 1) for n in range(1, degree + 1)]
    return np.array(powers), np.array(slopes)


def run_sweep(configs: Sequence[ExperimentConfig]) -> list[dict]:
    """Heralded-preparation probability across beam-splitter transmissions.

    Where nothing heralds, P_direct and P_estimator are 0/0 and read NaN,
    as does every relative herald rate when nothing heralds at any point.
    """
    if not configs:
        raise ValueError("sweep needs at least one configuration")
    rows = []
    for config in configs:
        blocks = herald_pair_terms(config.spdc.max_pairs, config.t1, config.t2, config.detectors)
        heralded = weigh_blocks(blocks, emission_components(config.spdc))
        if heralded.herald > 0.0:
            reduction = arm_totals(heralded) / heralded.herald
            p_direct, p_estimator = _preparation_probabilities(
                heralded, reduction, config.detectors
            )
        else:  # nothing heralded: both are 0/0
            p_direct = p_estimator = math.nan
        rows.append(
            {
                "t1": config.t1,
                "t2": config.t2,
                "herald_probability": heralded.herald,
                "P_direct": p_direct,
                "P_estimator": p_estimator,
            }
        )
    max_prob = max(r["herald_probability"] for r in rows)
    for r in rows:
        r["herald_rate_relative"] = (
            r["herald_probability"] / max_prob if max_prob > 0 else math.nan
        )
    return rows


def bell_diagonal(rho: np.ndarray) -> dict[str, float]:
    """Diagonal of a two-qubit state in the Bell basis.

    A population is a difference of O(1) entries of rho, so a small one (a near-separable
    state's Phi-, 1e-3 to 1e-4) keeps only about 12 significant digits, as ``metrics.tangle``
    does there: about 1e-16 absolute is the bound that fits these figures, not a relative one.
    """
    return {
        name: float(np.real(vec.conj() @ rho @ vec)) for name, vec in BELL_STATES.items()
    }


def run_power_comparison(
    tau_high: float,
    tau_low: float,
    t: float = 0.3,
    detectors: DetectorModel | None = None,
    max_pairs: int = SpdcParams.max_pairs,
) -> dict:
    """Post-selected fidelities at two pump powers (same splitters).

    The report records the efficiency and truncation it ran at.  It takes no
    visibility: V weighs only the two-pair block, which gives no coincidence.
    """
    if not 0.0 <= tau_low < 1.0 or not 0.0 <= tau_high < 1.0:
        raise ValueError("emission amplitudes must be in [0, 1)")
    if tau_low > tau_high:
        raise ValueError("tau_low must not exceed tau_high")
    detectors = detectors or DetectorModel()
    blocks = herald_pair_terms(max_pairs, t, t, detectors)
    out: dict = {
        "t": t,
        "tau_high": tau_high,
        "tau_low": tau_low,
        "efficiency": detectors.efficiency,
        "max_pairs": max_pairs,
    }
    for tag, tau in (("high", tau_high), ("low", tau_low)):
        spdc = SpdcParams(tau=tau, max_pairs=max_pairs)
        rho = postselect_two_qubit(weigh_blocks(blocks, emission_components(spdc)))
        out[f"F_post_{tag}"] = fidelity_to_phi_plus(rho)
        out[f"bell_diagonal_{tag}"] = bell_diagonal(rho)
    return out


def reproduce_number_tables(config: ExperimentConfig, ratio: str | None = None) -> dict:
    """Simulate the detected photon-number table and compare to reference data.

    ``table`` is the simulated table keyed by (t1H, t1V, t2H, t2V) counts,
    and ``aggregates`` are cells of its arm totals.  Both come from the
    reweighted heralded blocks alone: a configuration that heralds has a
    table even without a coincidence to post-select.  Comparison rows
    report the simulated and reference aggregate probabilities with their
    ratio; mismatches beyond 3x are flagged rather than asserted away, since
    the source amplitude and per-arm efficiencies of the reference data are
    not published.
    """
    blocks = herald_pair_terms(config.spdc.max_pairs, config.t1, config.t2, config.detectors)
    heralded = weigh_blocks(blocks, emission_components(config.spdc))
    table = number_table(heralded)
    n = (arm_totals(heralded) / heralded.herald).tolist()
    aggregates = {
        "p00": n[0][0],
        "p10_plus_p01": n[1][0] + n[0][1],
        "p11": n[1][1],
        "p20_plus_p02": n[2][0] + n[0][2],
        "p21_plus_p12": n[2][1] + n[1][2],
        "p22": n[2][2],
    }
    out = {
        "t1": config.t1,
        "t2": config.t2,
        "tau": config.spdc.tau,
        "table": table,
        "aggregates": aggregates,
    }
    if ratio is not None:
        if ratio not in REFERENCE_NUMBER_PROBS:
            raise ValueError(f"unknown reference ratio {ratio!r}")
        reference = REFERENCE_NUMBER_PROBS[ratio]
        comparison = {}
        for key, ref in reference.items():
            sim = aggregates[key]
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
