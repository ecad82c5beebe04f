import math

import numpy as np
import pytest

from heraldsim.detection import (
    COINCIDENCE_PATTERNS,
    DetectorModel,
    herald,
    herald_classical,
    number_table,
    postselect_two_qubit,
    spatial_reduction,
)
from heraldsim.elements import HERALD_NAMES, OUTPUT_NAMES, build_paper_circuit
from heraldsim.experiments import heralded_ensemble
from heraldsim.fock import SparseKet, vacuum
from heraldsim.metrics import (
    PHI_PLUS,
    check_density_matrix,
    fidelity_to_phi_plus,
    photons_in_both_arms_probability,
)
from heraldsim.source import SpdcParams, pair_term

from oracles import (
    classical_herald_probability,
    classical_occupation_distribution,
    detected_number_table,
    herald_by_pattern,
    postselected_state_through_loss_modes,
)

IDEAL_NUMBER_DETECTORS = DetectorModel(efficiency=1.0, resolving="number")
LOSSLESS_THRESHOLD = DetectorModel(efficiency=1.0, resolving="threshold")


def evolved(n_pairs, t1, t2, settings=("z", "z")):
    layout = build_paper_circuit(t1, t2, settings)
    return layout, layout.run(pair_term(n_pairs))


# Perfect detectors on r1V, r2+ and r2-, each holding one photon in herald_on_r1h.
OTHER_HERALDS_PERFECT = {"r1V": 1.0, "r2+": 1.0, "r2-": 1.0}


def basis_ket(modes, occ):
    return SparseKet.from_amplitudes(modes, {tuple(occ): 1.0})


def herald_on_r1h(amplitudes, efficiency, resolving="threshold"):
    """Herald a ket given as {(photons in r1H, photons in t1H): amplitude}.

    The other three herald detectors are perfect and see one photon each, so
    the herald probability is the r1H detector's click probability; t1H is
    an undetected spectator.
    """
    state = SparseKet.from_amplitudes(
        8, {(a, 1, 1, 1, b, 0, 0, 0): amp for (a, b), amp in amplitudes.items()}
    )
    det = DetectorModel(efficiency=efficiency, resolving=resolving, per_mode=OTHER_HERALDS_PERFECT)
    return herald(state, det)


class TestClickDistribution:
    # herald() thins each herald mode binomially: a threshold detector fires
    # with 1-(1-eta)^n, a number-resolving one reports one photon with
    # n eta (1-eta)^(n-1).
    def test_vacuum_never_clicks(self):
        ens = herald(vacuum(8), DetectorModel(efficiency=0.42))
        assert ens.probability == 0.0
        assert ens.components == ()

    def test_single_photon_clicks_with_eta(self):
        ens = herald_on_r1h({(1, 0): 1.0}, 0.42)
        assert ens.probability == pytest.approx(0.42, abs=1e-12)

    def test_two_photons_threshold(self):
        ens = herald_on_r1h({(2, 0): 1.0}, 0.5)
        # 1 - (1-eta)^2, cross-checked by explicit two-photon loss enumeration
        explicit = 0.5 * 0.5 + 2 * 0.5 * 0.5
        assert ens.probability == pytest.approx(0.75, abs=1e-12)
        assert ens.probability == pytest.approx(explicit, abs=1e-12)

    def test_number_resolving_counts(self):
        ens = herald_on_r1h({(2, 0): 1.0}, 0.5, "number")
        # exactly one of two photons detected: 2 eta (1 - eta)
        assert ens.probability == pytest.approx(0.5, abs=1e-12)
        ens = herald_on_r1h({(2, 0): 1.0}, 0.3, "number")
        assert ens.probability == pytest.approx(2 * 0.3 * 0.7, abs=1e-12)

    def test_threshold_equals_number_on_single_photon_states(self):
        amps = {(1, 0): 0.6, (0, 1): 0.8}
        eta = 0.37
        th = herald_on_r1h(amps, eta)
        nr = herald_on_r1h(amps, eta, "number")
        assert th.probability == pytest.approx(0.36 * eta, abs=1e-12)
        assert nr.probability == pytest.approx(th.probability, abs=1e-12)
        assert [(w, k.amplitudes) for w, k in th.components] == [
            (w, k.amplitudes) for w, k in nr.components
        ]

    def test_distribution_sums_to_one(self):
        # herald probability against the thinning formulas summed by hand
        # r1H and r1V hold 0-2 photons each, r2+ and r2- one photon on a perfect detector
        rng = np.random.default_rng(11)
        amps = {}
        for _ in range(5):
            na, nb, nc = (int(x) for x in rng.integers(0, 3, 3))
            amps[na, nb, 1, 1, nc, 0, 0, 0] = complex(rng.normal(), rng.normal())
        st = SparseKet.from_amplitudes(8, amps).normalized()
        perfect = {"r2+": 1.0, "r2-": 1.0}
        eta = 0.3
        threshold = herald(st, DetectorModel(efficiency=eta, per_mode=perfect))
        number = herald(st, DetectorModel(efficiency=eta, resolving="number", per_mode=perfect))
        miss = sum(
            abs(amp) ** 2 * (1 - (1 - (1 - eta) ** na) * (1 - (1 - eta) ** nb))
            for (na, nb, *_), amp in st.amplitudes.items()
        )
        one_each = sum(
            abs(amp) ** 2 * na * eta * (1 - eta) ** (na - 1) * nb * eta * (1 - eta) ** (nb - 1)
            for (na, nb, *_), amp in st.amplitudes.items()
            if na and nb
        )
        assert threshold.probability + miss == pytest.approx(1.0, abs=1e-12)
        assert number.probability == pytest.approx(one_each, abs=1e-12)

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    def test_herald_on_every_mode(self, resolving):
        # a ket on the four herald modes alone: nothing is left over, and the
        # ensemble is r1H's click probability
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode=OTHER_HERALDS_PERFECT)
        ens = herald(basis_ket(4, (1, 1, 1, 1)), det)
        assert ens.probability == pytest.approx(0.4, abs=1e-15)
        assert [(w, k.modes, k.amplitudes) for w, k in ens.components] == [
            (ens.probability, 0, {(): 1.0})
        ]
        classical = herald_classical(basis_ket(4, (1, 1, 1, 1)), np.eye(4), det)
        assert classical.probability == pytest.approx(0.4, abs=1e-15)
        assert [k.modes for _, k in classical.components] == [0]


class TestHerald:
    def test_three_pair_ideal_gives_bell_state(self):
        layout, state = evolved(3, 0.5, 0.5)
        ens = herald(state, IDEAL_NUMBER_DETECTORS)
        assert len(ens.components) == 1
        # closed form: herald probability T1 T2 R1^2 R2^2 / 2
        assert ens.probability == pytest.approx(0.5 * 0.5 * 0.25**2 / 2, abs=1e-12)
        _, ket = ens.components[0]
        vec = np.array([ket.amplitude(p) for p in COINCIDENCE_PATTERNS])
        assert abs(vec @ PHI_PLUS.conj()) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_ideal_herald_is_phi_plus_at_random_splitters(self):
        # the heralded three-pair ket is (|HH>+|VV>)/sqrt(2) itself, with no local correction
        rng = np.random.default_rng(20100607)
        for t1, t2 in rng.uniform(0.0, 1.0, size=(40, 2)):
            layout, state = evolved(3, t1, t2)
            ens = herald(state, IDEAL_NUMBER_DETECTORS)
            ((_, ket),) = ens.components
            assert set(ket.amplitudes) <= set(COINCIDENCE_PATTERNS)
            for pattern, want in zip(COINCIDENCE_PATTERNS, PHI_PLUS):
                assert abs(ket.amplitude(pattern) - want) <= 1e-12

    @pytest.mark.parametrize("t1,t2", [(0.17, 0.17), (0.3, 0.7), (0.5, 0.5), (0.7, 0.3)])
    def test_herald_probability_closed_form(self, t1, t2):
        layout, state = evolved(3, t1, t2)
        ens = herald(state, IDEAL_NUMBER_DETECTORS)
        expected = t1 * t2 * (1 - t1) ** 2 * (1 - t2) ** 2 / 2
        assert ens.probability == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t1,t2", [(0.17, 0.5), (0.5, 0.5), (0.7, 0.3), (0.9, 0.1)])
    @pytest.mark.parametrize("detectors", [IDEAL_NUMBER_DETECTORS, LOSSLESS_THRESHOLD,
                                           DetectorModel(efficiency=0.0966)])
    def test_two_pair_fully_suppressed(self, t1, t2, detectors):
        layout, state = evolved(2, t1, t2)
        ens = herald(state, detectors)
        assert ens.probability <= 1e-12

    def test_single_pair_cannot_herald(self):
        layout, state = evolved(1, 0.5, 0.5)
        ens = herald(state, LOSSLESS_THRESHOLD)
        assert ens.probability == 0.0

    def test_herald_probability_monotone_in_efficiency(self):
        layout, state = evolved(3, 0.4, 0.6)
        probs = []
        for eta in (0.05, 0.1, 0.3, 0.6, 1.0):
            ens = herald(state, DetectorModel(efficiency=eta))
            probs.append(ens.probability)
        assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))

    def test_monotone_per_mode_on_random_states(self):
        # bumping any single herald detector's efficiency never lowers the
        # herald probability
        rng = np.random.default_rng(12)
        for _ in range(10):
            amps = {}
            for _ in range(6):
                occ = tuple(int(x) for x in rng.integers(0, 3, 8))
                amps[occ] = complex(rng.normal(), rng.normal())
            state = SparseKet.from_amplitudes(8, amps).normalized()
            base_eta = {name: float(rng.uniform(0.05, 0.9)) for name in HERALD_NAMES}
            base = herald(state, DetectorModel(efficiency=0.5, per_mode=base_eta)).probability
            for bumped in HERALD_NAMES:
                per_mode = dict(base_eta)
                per_mode[bumped] = min(1.0, per_mode[bumped] + 0.1)
                boosted = herald(
                    state, DetectorModel(efficiency=0.5, per_mode=per_mode)
                ).probability
                assert boosted >= base - 1e-15

    def test_ket_without_herald_modes_rejected(self):
        with pytest.raises(ValueError, match="herald modes"):
            herald(basis_ket(3, (1, 1, 1)), LOSSLESS_THRESHOLD)

    def test_component_weights_sum_to_probability(self):
        layout, state = evolved(3, 0.3, 0.6)
        ens = herald(state, DetectorModel(efficiency=0.4))
        assert sum(w for w, _ in ens.components) == pytest.approx(ens.probability, abs=1e-14)
        for _, ket in ens.components:
            assert ket.norm_sq() == pytest.approx(1.0, abs=1e-10)


class TestClassicalChannel:
    def test_distribution_is_normalized(self):
        # the enumeration behind the oracle sums to 1; the ensemble's one
        # component is a unit ket carrying the whole herald probability
        layout = build_paper_circuit(0.4, 0.6)
        dist = classical_occupation_distribution(pair_term(2).amplitudes, layout.total_matrix())
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        ens = herald_classical(pair_term(2), layout.total_matrix(), DetectorModel(efficiency=0.3))
        assert sum(w for w, _ in ens.components) == pytest.approx(ens.probability, abs=1e-10)
        assert [k.norm_sq() for _, k in ens.components] == pytest.approx([1.0], abs=1e-10)

    def test_two_pair_leakage_closed_form(self):
        # only the |1,1;1,1> component can satisfy the four-fold condition:
        # both arm photons reflected, (H, V) split at the analyzer with
        # probability 1/2, times eta^4
        t1, t2, eta = 0.3, 0.6, 0.25
        layout = build_paper_circuit(t1, t2)
        det = DetectorModel(efficiency=eta)
        ens = herald_classical(pair_term(2), layout.total_matrix(), det)
        expected = (1 / 3) * (1 - t1) ** 2 * (1 - t2) ** 2 * 0.5 * eta**4
        assert ens.probability == pytest.approx(expected, rel=1e-10)

    def test_leaked_output_is_vacuum(self):
        layout = build_paper_circuit(0.5, 0.5)
        det = DetectorModel(efficiency=0.3)
        ens = herald_classical(pair_term(2), layout.total_matrix(), det)
        assert len(ens.components) == 1
        _, ket = ens.components[0]
        assert set(ket.amplitudes) == {(0, 0, 0, 0)}

    def test_matches_enumeration_oracle(self):
        # the permanent over the herald columns against routing every photon
        # through all eight detectors, on random splitters (edges included),
        # every setting, both detector kinds and per-detector herald efficiencies
        rng = np.random.default_rng(20100607)
        settings = [(a, b) for a in "xyz" for b in "xyz"]
        for trial in range(216):
            t1, t2 = (float(rng.choice([0.0, 1.0]) if rng.random() < 0.2 else rng.uniform())
                      for _ in range(2))
            per_mode = {name: float(rng.uniform(0.05, 1.0)) for name in HERALD_NAMES}
            det = DetectorModel(
                efficiency=float(rng.uniform(0.05, 1.0)),
                resolving=("threshold", "number")[trial % 2],
                per_mode=per_mode,
            )
            matrix = build_paper_circuit(t1, t2, settings[trial % 9]).total_matrix()
            ens = herald_classical(pair_term(2), matrix, det)
            expected = classical_herald_probability(
                pair_term(2).amplitudes, matrix, det.etas(HERALD_NAMES), det.resolving
            )
            assert ens.probability == pytest.approx(expected, rel=1e-12, abs=0.0)
            if expected == 0.0:
                assert ens.components == ()
            else:
                assert [(type(w), w, k.amplitudes) for w, k in ens.components] == [
                    (float, ens.probability, {(0, 0, 0, 0): 1.0})
                ]

    @pytest.mark.parametrize("pairs", [0, 1, 3])
    def test_ket_without_four_photons_rejected(self, pairs):
        matrix = build_paper_circuit(0.5, 0.5).total_matrix()
        with pytest.raises(ValueError, match="4 photons"):
            herald_classical(pair_term(pairs), matrix, DetectorModel())


class TestNumberTable:
    def test_ideal_three_pair_concentrates_at_one_per_arm(self):
        layout, state = evolved(3, 0.5, 0.5)
        ens = herald(state, IDEAL_NUMBER_DETECTORS)
        table = number_table(ens, DetectorModel(efficiency=1.0, resolving="number"))
        reduction = spatial_reduction(table)
        assert reduction[(1, 1)] == pytest.approx(1.0, abs=1e-10)

    def test_zero_output_efficiency_gives_vacuum(self):
        layout, state = evolved(3, 0.5, 0.5)
        ens = herald(state, LOSSLESS_THRESHOLD)
        table = number_table(ens, DetectorModel(efficiency=0.0))
        assert table[(0, 0, 0, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        layout, state = evolved(3, 0.3, 0.7)
        ens = herald(state, DetectorModel(efficiency=0.2))
        table = number_table(ens, DetectorModel(efficiency=0.2))
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)


class TestPostselect:
    def test_ideal_three_pair_is_phi_plus(self):
        layout, state = evolved(3, 0.3, 0.7)
        ens = herald(state, IDEAL_NUMBER_DETECTORS)
        rho = postselect_two_qubit(ens, DetectorModel(efficiency=1.0))
        check_density_matrix(rho)
        assert fidelity_to_phi_plus(rho) == pytest.approx(1.0, abs=1e-10)

    def test_single_basis_component(self):
        from heraldsim.detection import ConditionalEnsemble

        ket = basis_ket(4, (1, 0, 1, 0))
        ens = ConditionalEnsemble.from_components(((1.0, ket),), 1.0)
        rho = postselect_two_qubit(ens, DetectorModel(efficiency=0.5))
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_coincidence_rejected(self):
        from heraldsim.detection import ConditionalEnsemble

        ens = ConditionalEnsemble.from_components(((1.0, vacuum(4)),), 1.0)
        with pytest.raises(ValueError, match="coincidence"):
            postselect_two_qubit(ens, DetectorModel(efficiency=0.5))

    def test_valid_density_matrix_with_loss_and_higher_orders(self):
        det = DetectorModel(efficiency=0.0966)
        layout = build_paper_circuit(0.7, 0.7)
        merged = None
        from heraldsim.experiments import heralded_ensemble

        ens = heralded_ensemble(0.7, 0.7, SpdcParams(tau=0.4, max_pairs=4, visibility=0.8), det)
        rho = postselect_two_qubit(ens, det)
        check_density_matrix(rho)

    def test_four_pair_background_is_psi_minus_type(self):
        from heraldsim.experiments import bell_diagonal, heralded_ensemble

        det = DetectorModel()
        spdc = SpdcParams(tau=0.4, max_pairs=4, visibility=0.862)
        ens = heralded_ensemble(0.3, 0.3, spdc, det)
        rho = postselect_two_qubit(ens, det)
        diag = bell_diagonal(rho)
        background = {k: v for k, v in diag.items() if k != "phi+"}
        assert max(background, key=background.get) == "psi-"

    def test_fidelity_drops_when_four_pair_included(self):
        from heraldsim.experiments import heralded_ensemble

        det = DetectorModel()
        fids = {}
        for mp in (3, 4):
            spdc = SpdcParams(tau=0.35, max_pairs=mp, visibility=0.862)
            ens = heralded_ensemble(0.5, 0.5, spdc, det)
            rho = postselect_two_qubit(ens, det)
            fids[mp] = fidelity_to_phi_plus(rho)
        assert fids[4] < fids[3]


class TestArmClicks:
    def test_matches_hand_computation_on_basis_state(self):
        from heraldsim.detection import ConditionalEnsemble

        ket = basis_ket(4, (2, 0, 1, 0))
        ens = ConditionalEnsemble.from_components(((1.0, ket),), 1.0)
        eta = 0.3
        expected = (1 - 0.7**2) * 0.3
        table = number_table(ens, DetectorModel(efficiency=eta))
        assert photons_in_both_arms_probability(table) == pytest.approx(expected, abs=1e-12)


class TestPerModeEfficiency:
    def test_override_applies_to_named_mode(self):
        st = basis_ket(8, (1, 1, 1, 1, 1, 0, 0, 0))
        perfect = {"r2+": 1.0, "r2-": 1.0}
        for resolving in ("threshold", "number"):
            det = DetectorModel(
                efficiency=0.5, resolving=resolving, per_mode={**perfect, "r1V": 1.0}
            )
            # r1V always fires, r1H with the default 0.5
            assert herald(st, det).probability == pytest.approx(0.5, abs=1e-12)
            plain = DetectorModel(efficiency=0.5, resolving=resolving, per_mode=perfect)
            assert herald(st, plain).probability == pytest.approx(0.25, abs=1e-12)
            # an override on an output detector changes nothing
            output = DetectorModel(
                efficiency=0.5, resolving=resolving, per_mode={**perfect, "t1H": 1.0}
            )
            assert herald(st, output).probability == pytest.approx(0.25, abs=1e-12)

    def test_override_applies_to_output_detector(self):
        from heraldsim.detection import ConditionalEnsemble

        ens = ConditionalEnsemble.from_components(((1.0, basis_ket(4, (1, 0, 1, 0))),), 1.0)
        det = DetectorModel(efficiency=0.3, per_mode={"t1H": 1.0})
        table = number_table(ens, det)
        assert photons_in_both_arms_probability(table) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("name", ["t1", "r2+H", "T1H"])
    def test_unknown_name_rejected(self, name):
        # a key that names no detector would otherwise be ignored without a word
        with pytest.raises(ValueError, match="unknown detector"):
            DetectorModel(per_mode={name: 0.9})


# A perfect and a partial herald detector, and a dead, a perfect and a
# partial output detector; the rest keep the model's efficiency.
EDGE_EFFICIENCIES = {"r1V": 1.0, "r2+": 0.7, "t1H": 0.0, "t1V": 0.35, "t2V": 1.0}


def _by_weight(components):
    return sorted(components, key=lambda c: (float(f"{c[0]:.9e}"), sorted(c[1])))


class TestAgainstOracles:
    """herald, number_table and postselect_two_qubit against the brute-force oracles."""

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    @pytest.mark.parametrize("settings", [("z", "z"), ("x", "y")])
    def test_herald(self, resolving, settings):
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode=EDGE_EFFICIENCIES)
        layout = build_paper_circuit(0.35, 0.55, settings)
        for n in range(2, 6):
            state = layout.run(pair_term(n))
            ens = herald(state, det)
            want = herald_by_pattern(dict(state.amplitudes), det.etas(HERALD_NAMES), resolving)
            assert ens.probability == pytest.approx(sum(w for w, _ in want), rel=1e-12, abs=0.0)
            got = [(w, dict(k.amplitudes)) for w, k in ens.components]
            assert [w for w, _ in got] == sorted((w for w, _ in got), reverse=True)
            assert len(got) == len(want)
            for (w_got, a_got), (w_want, a_want) in zip(_by_weight(got), _by_weight(want)):
                assert w_got == pytest.approx(w_want, rel=1e-12, abs=0.0)
                assert set(a_got) == set(a_want)
                for occ, amp in a_want.items():
                    assert a_got[occ] == pytest.approx(amp, abs=1e-12)

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    def test_dead_herald_detector_heralds_nothing(self, resolving):
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode={"r2-": 0.0})
        state = build_paper_circuit(0.35, 0.55).run(pair_term(4))
        assert herald_by_pattern(dict(state.amplitudes), det.etas(HERALD_NAMES), resolving) == []
        ens = herald(state, det)
        assert ens.probability == 0.0 and ens.components == ()

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    def test_number_table(self, resolving):
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode=EDGE_EFFICIENCIES)
        spdc = SpdcParams(tau=0.3, max_pairs=5, visibility=0.9)
        ens = heralded_ensemble(0.35, 0.55, spdc, det, ("x", "y"))
        components = [(w, dict(k.amplitudes)) for w, k in ens.components]
        want = detected_number_table(components, det.etas(OUTPUT_NAMES))
        table = number_table(ens, det)
        assert list(table) == sorted(want)
        for pattern, p in want.items():
            assert table[pattern] == pytest.approx(p, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    def test_postselected_state(self, resolving):
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode=EDGE_EFFICIENCIES)
        spdc = SpdcParams(tau=0.3, max_pairs=4, visibility=0.9)
        ens = heralded_ensemble(0.35, 0.55, spdc, det, ("y", "x"))
        components = [(w, dict(k.amplitudes)) for w, k in ens.components]
        for output in (det, DetectorModel(efficiency=0.4, per_mode={"t1H": 1.0, "t2H": 0.0})):
            want = postselected_state_through_loss_modes(components, output.etas(OUTPUT_NAMES))
            rho = postselect_two_qubit(ens, output)
            check_density_matrix(rho)
            assert np.abs(rho - want).max() <= 1e-12
