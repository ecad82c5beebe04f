import json
import math
from pathlib import Path

import numpy as np
import pytest

import heraldsim.detection
import heraldsim.experiments
from heraldsim.detection import (
    DetectorModel,
    herald_classical,
    herald_pair_terms,
    number_table,
    postselect_two_qubit,
)
from heraldsim.elements import OUTPUT_NAMES, build_paper_circuit
from heraldsim.experiments import (
    REFERENCE_NUMBER_PROBS,
    REFERENCE_TRANSMISSIONS,
    ExperimentConfig,
    bell_diagonal,
    calibrate_tau,
    heralded_blocks,
    power_scaled_tau,
    reproduce_number_tables,
    reweight_blocks,
    run_power_comparison,
    run_sweep,
    simulate_experiment,
)
from heraldsim.metrics import fidelity_to_phi_plus
from heraldsim.source import SpdcParams, emission_components

import oracles
from oracles import arm_click_probability, heralded_ensemble, one_photon_per_arm_before_loss

PINNED = Path(__file__).parent / "fock_pipeline_outputs.json"


def sweep_configs(ts, tau, max_pairs, visibility=0.862):
    spdc = SpdcParams(tau=tau, max_pairs=max_pairs, visibility=visibility)
    return [ExperimentConfig(t1=t, t2=t, spdc=spdc) for t in ts]


CONFIG_DICT = {
    "schema": "heraldsim-config/1", "t1": 0.3, "t2": 0.7, "tau": 0.22, "max_pairs": 4,
    "visibility": 0.9, "efficiency": 0.12, "resolving": "threshold",
}


class TestConfig:
    def test_json_round_trip(self):
        config = ExperimentConfig(
            t1=0.3,
            t2=0.7,
            spdc=SpdcParams(tau=0.22, max_pairs=4, visibility=0.9),
            detectors=DetectorModel(efficiency=0.12),
        )
        assert ExperimentConfig.from_json_dict(CONFIG_DICT) == config

    # simulate has no use for seed, events_per_setting or settings, so they are rejected too
    @pytest.mark.parametrize("name", ["mystery", "seed", "events_per_setting", "settings"])
    def test_unknown_field_rejected(self, name):
        data = {**CONFIG_DICT, name: 1}
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json_dict(data)

    def test_bad_schema_rejected(self):
        data = {**CONFIG_DICT, "schema": "v999"}
        with pytest.raises(ValueError, match="schema"):
            ExperimentConfig.from_json_dict(data)

    def test_invalid_transmission_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(t1=1.5)


class TestCalibration:
    def test_hits_target(self, calibrated_tau):
        report = calibrate_tau()
        assert report["achieved_p11"] == pytest.approx(
            REFERENCE_NUMBER_PROBS["50/50"]["p11"], rel=2e-3
        )
        assert 0.1 < report["tau"] < 0.5
        assert report["tau"] == pytest.approx(calibrated_tau, abs=1e-9)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError, match="bracket"):
            calibrate_tau(target_p11=0.9)

    def test_power_scaling(self):
        assert power_scaled_tau(0.3) == pytest.approx(0.3 * math.sqrt(0.62 / 1.2))
        with pytest.raises(ValueError):
            power_scaled_tau(0.3, power_low=2.0, power_high=1.0)


    def test_converged_truncation_reachable(self):
        # seven pairs need 14 photons; the cap follows max_pairs
        assert calibrate_tau(max_pairs=7)["tau"] == pytest.approx(0.2237, abs=1e-4)


# One run of the Fock oracle per tau: every block evolved again for each tau.
def per_tau_p11(t, tau, visibility, det):
    spdc = SpdcParams(tau=tau, max_pairs=4, visibility=visibility)
    return oracles.one_photon_per_arm(oracles.number_table(heralded_ensemble(t, t, spdc, det), det))


def per_tau_rho(t, tau, visibility, det):
    spdc = SpdcParams(tau=tau, max_pairs=4, visibility=visibility)
    return oracles.postselect_two_qubit(heralded_ensemble(t, t, spdc, det), det)


class TestSharedBlocks:
    """calibrate and power-compare herald each pair block once and reweight it per tau."""

    def test_ensemble_matches_component_by_component_evolution(self):
        # each emission component heralded on its own and weighted, as a one-tau pipeline does
        det = DetectorModel(efficiency=0.2)
        for settings in (("z", "z"), ("x", "y")):
            for visibility in (0.0, 0.862, 1.0):
                spdc = SpdcParams(tau=0.3, max_pairs=4, visibility=visibility)
                matrix = build_paper_circuit(0.3, 0.7, settings).matrix
                herald_p, direct, table, coincidences = 0.0, 0.0, np.zeros((5,) * 4), 0.0
                for (pairs, coherent), weight in emission_components(spdc).items():
                    if coherent:
                        block = herald_pair_terms(pairs, matrix, det)[pairs]
                        herald_p += weight * block.herald
                        direct += weight * block.direct
                        table[tuple(slice(0, s) for s in block.table.shape)] += weight * block.table
                        coincidences = coincidences + weight * block.coincidences
                    else:
                        p = herald_classical(matrix, det)
                        herald_p += weight * p
                        table[0, 0, 0, 0] += weight * p
                got = reweight_blocks(heralded_blocks(0.3, 0.7, det, 4, settings), spdc)
                assert got.herald == herald_p and got.direct == direct
                assert np.array_equal(got.table, table)
                assert np.array_equal(got.coincidences, coincidences)

    @pytest.mark.parametrize("ratio", sorted(REFERENCE_TRANSMISSIONS))
    @pytest.mark.parametrize("visibility", [0.0, 0.862, 1.0])
    def test_calibration_matches_per_tau_pipeline(self, ratio, visibility):
        t = REFERENCE_TRANSMISSIONS[ratio]
        det = DetectorModel()
        for tau in (0.15, 0.25, 0.35):
            target = per_tau_p11(t, tau, visibility, det)
            report = calibrate_tau(target, t, t, det, visibility)
            assert report["tau"] == pytest.approx(tau, rel=1e-9)
            achieved = per_tau_p11(t, report["tau"], visibility, det)
            assert report["achieved_p11"] == pytest.approx(achieved, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ratio", sorted(REFERENCE_TRANSMISSIONS))
    @pytest.mark.parametrize("visibility", [0.0, 0.862, 1.0])
    def test_power_comparison_matches_per_tau_pipeline(self, ratio, visibility):
        t = REFERENCE_TRANSMISSIONS[ratio]
        det = DetectorModel()
        rho = {tau: per_tau_rho(t, tau, visibility, det) for tau in (0.15, 0.25, 0.35)}
        for high, low in ((0.35, 0.25), (0.25, 0.15)):
            result = run_power_comparison(high, low, t, det, visibility)
            for tag, tau in (("high", high), ("low", low)):
                assert result[f"F_post_{tag}"] == pytest.approx(
                    fidelity_to_phi_plus(rho[tau]), rel=0.0, abs=1e-12
                )
                want = bell_diagonal(rho[tau])
                for name, value in result[f"bell_diagonal_{tag}"].items():
                    assert value == pytest.approx(want[name], rel=0.0, abs=1e-12)

    def test_each_block_evolves_once(self, monkeypatch):
        # one set of arm kets per pair block that can herald (two photons or more
        # per arm) and command, whatever the number of taus
        evolved, visited = [], []
        arm_kets = heraldsim.detection._arm_kets

        def counting_arm_kets(maps, plan):
            evolved.append(int(plan.photons[0, 0].sum()))
            return arm_kets(maps, plan)

        def counting_components(spdc):
            visited.append(spdc.tau)
            return emission_components(spdc)

        monkeypatch.setattr(heraldsim.detection, "_arm_kets", counting_arm_kets)
        monkeypatch.setattr(heraldsim.experiments, "emission_components", counting_components)
        calibrate_tau(target_p11=6e-4, t1=0.3, t2=0.3, max_pairs=4)
        assert sorted(evolved) == [2, 3, 4]
        evolved.clear()
        run_power_comparison(0.25, power_scaled_tau(0.25), t=0.3, max_pairs=4)
        assert sorted(evolved) == [2, 3, 4]
        assert len(set(visited)) == 2


class TestSweep:
    def test_plans_are_reused_across_points(self):
        # a 4-point sweep at N pairs builds the plan of each block 2..N once, not once per point
        heraldsim.detection._block_plan.cache_clear()
        run_sweep(sweep_configs([0.17, 0.3, 0.5, 0.7], tau=0.25, max_pairs=5))
        assert heraldsim.detection._block_plan.cache_info().misses == 5 - 1

    def test_three_pair_truncation_near_quadratic(self):
        rows = run_sweep(sweep_configs([0.17, 0.5, 0.7], tau=0.25, max_pairs=3, visibility=1.0))
        for row in rows:
            t_sq = row["t1"] ** 2
            assert abs(row["P_direct"] - t_sq) / t_sq <= 0.25

    def test_direct_probability_monotone_in_transmission(self):
        ts = [0.1, 0.3, 0.5, 0.7, 0.9]
        rows = run_sweep(sweep_configs(ts, tau=0.25, max_pairs=3, visibility=1.0))
        values = [r["P_direct"] for r in rows]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_herald_rate_decreases_with_transmission(self):
        rows = run_sweep(sweep_configs([0.17, 0.5, 0.7], tau=0.25, max_pairs=4))
        rates = [r["herald_probability"] for r in rows]
        assert rates[0] > rates[1] > rates[2]
        assert rows[0]["herald_rate_relative"] == pytest.approx(1.0)

    def test_four_pair_terms_raise_estimator_at_high_transmission(self, calibrated_tau):
        three = run_sweep(sweep_configs([0.7], calibrated_tau, max_pairs=3))
        four = run_sweep(sweep_configs([0.7], calibrated_tau, max_pairs=4))
        assert four[0]["P_estimator"] > three[0]["P_estimator"]

    def test_zero_transmission_prepares_nothing(self):
        # everything reflects: heralds can still fire but no pair is delivered
        rows = run_sweep(sweep_configs([0.0], tau=0.25, max_pairs=4))
        assert rows[0]["P_direct"] == 0.0
        assert rows[0]["P_estimator"] == 0.0

    def test_zero_herald_probability_reads_nan(self):
        # at T = 1 every photon transmits and nothing heralds: the probabilities are 0/0
        rows = run_sweep(sweep_configs([0.5, 1.0], tau=0.25, max_pairs=3))
        assert rows[1]["herald_probability"] == 0.0
        assert math.isnan(rows[1]["P_direct"]) and math.isnan(rows[1]["P_estimator"])
        assert rows[0]["P_direct"] > 0.0 and rows[1]["herald_rate_relative"] == 0.0
        (row,) = run_sweep(sweep_configs([1.0], tau=0.25, max_pairs=3))
        assert math.isnan(row["herald_rate_relative"]) and math.isnan(row["P_estimator"])

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([])


class TestPowerComparison:
    def test_low_power_improves_fidelity(self, calibrated_tau):
        result = run_power_comparison(calibrated_tau, power_scaled_tau(calibrated_tau), t=0.3)
        assert result["F_post_low"] > result["F_post_high"]

    def test_equal_power_equal_fidelity(self):
        result = run_power_comparison(0.3, 0.3, t=0.3)
        assert result["F_post_low"] == pytest.approx(result["F_post_high"], abs=1e-12)

    def test_three_pair_limit_is_pure(self):
        # with only the three-pair herald the post-selected state stays ideal
        result = run_power_comparison(
            1e-3, 1e-3, t=0.3, detectors=DetectorModel(efficiency=1.0, resolving="number"),
            max_pairs=3, visibility=1.0,
        )
        assert result["F_post_low"] == pytest.approx(1.0, abs=1e-6)

    def test_background_is_psi_minus(self, calibrated_tau):
        result = run_power_comparison(calibrated_tau, power_scaled_tau(calibrated_tau), t=0.3)
        diag = result["bell_diagonal_high"]
        background = {k: v for k, v in diag.items() if k != "phi+"}
        assert max(background, key=background.get) == "psi-"

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            run_power_comparison(0.2, 0.3)


class TestNumberTables:
    def test_reference_comparison_within_bounds(self, calibrated_tau):
        config = ExperimentConfig(
            t1=0.5, t2=0.5, spdc=SpdcParams(tau=calibrated_tau, max_pairs=4, visibility=0.862)
        )
        report = reproduce_number_tables(config, ratio="50/50")
        comparison = report["comparison"]
        assert comparison["p11"]["ratio"] == pytest.approx(1.0, abs=0.01)
        assert not comparison["p00"]["flagged"]
        assert not comparison["p10_plus_p01"]["flagged"]

    def test_low_power_column_reproduced(self, calibrated_tau):
        config = ExperimentConfig(
            t1=0.3,
            t2=0.3,
            spdc=SpdcParams(
                tau=power_scaled_tau(calibrated_tau), max_pairs=4, visibility=0.862
            ),
        )
        report = reproduce_number_tables(config, ratio="30/70")
        assert report["comparison"]["p00"]["simulated"] == pytest.approx(
            REFERENCE_NUMBER_PROBS["30/70"]["p00"], rel=0.05
        )

    def test_ideal_lossless_table(self):
        config = ExperimentConfig(
            t1=0.5,
            t2=0.5,
            spdc=SpdcParams(tau=0.25, max_pairs=3, visibility=1.0),
            detectors=DetectorModel(efficiency=1.0, resolving="number"),
        )
        report = reproduce_number_tables(config)
        assert report["aggregates"]["p11"] == pytest.approx(1.0, abs=1e-9)

    def test_two_two_zero_at_three_pair_truncation(self, calibrated_tau):
        config = ExperimentConfig(
            t1=0.5, t2=0.5, spdc=SpdcParams(tau=calibrated_tau, max_pairs=3, visibility=0.862)
        )
        report = reproduce_number_tables(config)
        assert report["aggregates"]["p22"] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_ratio_rejected(self):
        config = ExperimentConfig()
        with pytest.raises(ValueError, match="ratio"):
            reproduce_number_tables(config, ratio="40/60")


class TestSimulateExperiment:
    def test_estimator_is_not_clamped(self):
        # at high tau and transmission the estimator exceeds 1; it is reported as is
        det = DetectorModel(efficiency=0.0966)
        spdc = SpdcParams(tau=0.35, max_pairs=5, visibility=0.862)
        config = ExperimentConfig(t1=0.7, t2=0.7, spdc=spdc, detectors=det)
        ens = heralded_ensemble(0.7, 0.7, spdc, det)
        expected = arm_click_probability(ens, [det.efficiency] * 4) / det.efficiency**2
        assert expected > 1.0
        reported = simulate_experiment(config).metrics["P_estimator"]
        assert reported == pytest.approx(expected, rel=1e-12)
        assert run_sweep([config])[0]["P_estimator"] == pytest.approx(expected, rel=1e-12)

    def test_estimator_divides_by_output_arm_efficiencies(self):
        # per-detector output efficiencies set the eta_1 eta_2 of C6/(C4 eta_1 eta_2),
        # not the model's default efficiency
        outputs = {"t1H": 0.5, "t1V": 0.5, "t2H": 0.4, "t2V": 0.4}
        det = DetectorModel(efficiency=0.1, per_mode=outputs)
        spdc = SpdcParams(tau=0.3, max_pairs=4, visibility=0.862)
        config = ExperimentConfig(t1=0.5, t2=0.5, spdc=spdc, detectors=det)
        ens = heralded_ensemble(0.5, 0.5, spdc, det)
        expected = arm_click_probability(ens, list(outputs.values())) / (0.5 * 0.4)
        assert simulate_experiment(config).metrics["P_estimator"] == pytest.approx(
            expected, rel=1e-12
        )
        assert run_sweep([config])[0]["P_estimator"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("outputs", [{"t1H": 0.5}, {"t2V": 0.0}, {"t1H": 0.0, "t1V": 0.0}])
    def test_estimator_needs_one_nonzero_efficiency_per_arm(self, outputs):
        det = DetectorModel(efficiency=0.1, per_mode=outputs)
        config = ExperimentConfig(t1=0.5, t2=0.5, spdc=SpdcParams(tau=0.3), detectors=det)
        with pytest.raises(ValueError, match="efficiency per output arm"):
            simulate_experiment(config)
        with pytest.raises(ValueError, match="efficiency per output arm"):
            run_sweep([config])
        # the number table needs no estimator
        assert sum(reproduce_number_tables(config)["table"].values()) == pytest.approx(1.0)

    def test_direct_preparation_counts_photons_before_loss(self):
        det = DetectorModel(efficiency=0.0966)
        spdc = SpdcParams(tau=0.3, max_pairs=4, visibility=0.862)
        config = ExperimentConfig(t1=0.3, t2=0.3, spdc=spdc, detectors=det)
        expected = one_photon_per_arm_before_loss(heralded_ensemble(0.3, 0.3, spdc, det))
        assert simulate_experiment(config).metrics["P_direct"] == pytest.approx(expected, rel=1e-12)
        assert run_sweep([config])[0]["P_direct"] == pytest.approx(expected, rel=1e-12)

    def test_metrics_payload_complete(self):
        config = ExperimentConfig(
            t1=0.5, t2=0.5, spdc=SpdcParams(tau=0.2, max_pairs=4, visibility=0.862)
        )
        result = simulate_experiment(config)
        for key in (
            "herald_probability", "fidelity_post", "fidelity_meas", "tangle",
            "chsh", "P_direct", "P_estimator", "P11_detected", "visibility",
        ):
            assert key in result.metrics
        assert result.metrics["fidelity_meas"] == pytest.approx(
            result.metrics["P11_detected"] * result.metrics["fidelity_post"], rel=1e-12
        )

    def test_circuit_statistics_match_reconstruction_inputs(self):
        # per-setting coincidence statistics from the full circuit equal the
        # Born probabilities of the post-selected two-qubit state
        from heraldsim.detection import COINCIDENCE_PATTERNS
        from heraldsim.tomography import expected_coincidences

        det = DetectorModel(efficiency=0.3)
        spdc = SpdcParams(tau=0.3, max_pairs=4, visibility=0.862)
        rho = postselect_two_qubit(reweight_blocks(heralded_blocks(0.5, 0.5, det, 4), spdc))
        for setting in (("z", "z"), ("x", "x"), ("y", "y"), ("x", "y")):
            table = number_table(reweight_blocks(heralded_blocks(0.5, 0.5, det, 4, setting), spdc))
            coinc = np.array([table.get(p, 0.0) for p in COINCIDENCE_PATTERNS])
            coinc /= coinc.sum()
            expected = expected_coincidences(rho, setting)
            assert np.allclose(coinc, expected, atol=1e-9)


class TestSeventeenEightyThree:
    def test_vacuum_probability_near_reference(self, calibrated_tau):
        config = ExperimentConfig(
            t1=0.17, t2=0.17,
            spdc=SpdcParams(tau=calibrated_tau, max_pairs=4, visibility=0.862),
        )
        report = reproduce_number_tables(config, ratio="17/83")
        row = report["comparison"]["p00"]
        assert row["simulated"] == pytest.approx(0.974, rel=0.02)
        assert not row["flagged"]


class TestPinnedFockOutputs:
    """simulate_experiment against the 8-mode Fock pipeline's recorded outputs."""

    @pytest.mark.parametrize("name", sorted(json.loads(PINNED.read_text())["configs"]))
    def test_outputs_match_the_fock_pipeline(self, name):
        pinned = json.loads(PINNED.read_text())["configs"][name]
        c = pinned["config"]
        config = ExperimentConfig(
            t1=c["t1"], t2=c["t2"],
            spdc=SpdcParams(tau=c["tau"], max_pairs=c["max_pairs"], visibility=c["visibility"]),
            detectors=DetectorModel(**c["detectors"]),
        )
        result = simulate_experiment(config)
        assert result.herald_probability == pytest.approx(
            pinned["herald_probability"], rel=1e-12, abs=0.0
        )
        assert result.metrics == pytest.approx(pinned["metrics"], rel=1e-12, abs=0.0)
        want = {tuple(map(int, k.split())): p for k, p in pinned["number_table"].items()}
        assert list(result.table) == list(want)
        assert result.table == pytest.approx(want, rel=1e-12, abs=0.0)
        rho = np.array([[complex(re, im) for re, im in row] for row in pinned["rho_post"]])
        assert np.abs(result.rho_post - rho).max() <= 1e-12 * np.abs(rho).max()

    @pytest.mark.parametrize("name", sorted(json.loads(PINNED.read_text())["configs"]))
    def test_blocks_hold_only_counts_that_can_herald(self, name):
        # block n gives no count with more than n - 2 photons in an arm, before output loss or
        # after it, and the reweighted blocks give the pinned number table's keys
        pinned = json.loads(PINNED.read_text())["configs"][name]
        c = pinned["config"]
        detectors = DetectorModel(**c["detectors"])
        per_mode = {**(detectors.per_mode or {}), **dict.fromkeys(OUTPUT_NAMES, 1.0)}
        # perfect output detectors first, so that the pinned detectors' blocks are reweighted below
        for model in (DetectorModel(**{**c["detectors"], "per_mode": per_mode}), detectors):
            blocks = heralded_blocks(c["t1"], c["t2"], model, c["max_pairs"])
            for (n, coherent), block in blocks.items():
                # the distinguishable two-pair block heralds the output vacuum alone
                most = n - 2 if coherent else 0
                t1h, t1v, t2h, t2v = np.indices(block.table.shape)
                beyond = (t1h + t1v > most) | (t2h + t2v > most)
                assert (block.table[beyond] == 0.0).all()
        spdc = SpdcParams(tau=c["tau"], max_pairs=c["max_pairs"], visibility=c["visibility"])
        table = number_table(reweight_blocks(blocks, spdc))
        assert list(table) == [tuple(map(int, k.split())) for k in pinned["number_table"]]
