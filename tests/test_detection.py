import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

from heraldsim.detection import (
    COINCIDENCE_PATTERNS,
    DetectorModel,
    HeraldedBlock,
    _arm_kets,
    _block_plan,
    _fires,
    _photon_maps,
    _thinning,
    arm_totals,
    herald_classical,
    herald_pair_terms,
    number_table,
    postselect_two_qubit,
)
from heraldsim.elements import ANALYSIS_SETTINGS, HERALD_NAMES, OUTPUT_NAMES, build_paper_circuit
from heraldsim.experiments import heralded_blocks, reweight_blocks
from heraldsim.fock import SparseKet, apply_mode_map
from heraldsim.metrics import PHI_PLUS, check_density_matrix, fidelity_to_phi_plus
from heraldsim.source import SpdcParams, pair_term

import oracles
from oracles import (
    classical_herald_probability,
    classical_occupation_distribution,
    dense_evolve,
    dense_evolve_by_arm,
    detected_number_table,
    herald_by_pattern,
    postselected_state_through_loss_modes,
)

IDEAL_NUMBER_DETECTORS = DetectorModel(efficiency=1.0, resolving="number")
LOSSLESS_THRESHOLD = DetectorModel(efficiency=1.0, resolving="threshold")
PHI_PLUS_RHO = np.outer(PHI_PLUS, PHI_PLUS.conj())


def block(n_pairs, t1, t2, detectors, settings=("z", "z")):
    """The n-pair block heralded arm by arm through the paper's circuit."""
    return herald_pair_terms(n_pairs, build_paper_circuit(t1, t2, settings).matrix, detectors)[-1]


def basis_ket(modes, occ):
    return SparseKet.from_amplitudes(modes, {tuple(occ): 1.0})


def routed(rows, occupation, detectors):
    """Herald one source occupation by the 8-mode oracle, through a circuit of one row per mode.

    A row holds the source mode's amplitudes on r1H, r1V, r2+, r2-, t1H, t1V, t2H, t2V.
    """
    return oracles.herald(apply_mode_map(basis_ket(4, occupation), np.array(rows)), detectors)


# Each source mode straight onto one herald detector: a1H -> r1H, a1V -> r1V, a2H -> r2+, a2V -> r2-.
ROUTE_TO_HERALDS = np.eye(4, 8)

# Perfect detectors on r1V, r2+ and r2-, each holding one photon in herald_on_r1h.
OTHER_HERALDS_PERFECT = {"r1V": 1.0, "r2+": 1.0, "r2-": 1.0}
HERALDS_PERFECT = {name: 1.0 for name in HERALD_NAMES}


def herald_on_r1h(split, photons, efficiency, resolving="threshold"):
    """Herald a1H photons sent to r1H and t1H with amplitudes ``split``, plus one photon each in r1V, r2+, r2-.

    The other three herald detectors are perfect, so the herald probability
    is the r1H detector's click probability; t1H is an undetected spectator.
    """
    rows = np.array(ROUTE_TO_HERALDS)
    rows[0] = 0.0
    rows[0, 0], rows[0, 4] = split
    det = DetectorModel(efficiency=efficiency, resolving=resolving, per_mode=OTHER_HERALDS_PERFECT)
    return routed(rows, (photons, 1, 1, 1), det)


def heralded_outputs(n1h, n2h, detectors):
    """n1h photons in t1H and n2h in t2H, heralded by two V photons per arm on a 50:50 herald split.

    Rows: a1H -> t1H, a1V -> (r1H + r1V)/sqrt(2), a2H -> t2H, a2V -> (r2+ + r2-)/sqrt(2).
    """
    half = 1.0 / math.sqrt(2.0)
    rows = np.zeros((4, 8))
    rows[0, 4] = rows[2, 6] = 1.0
    rows[1, 0:2] = rows[3, 2:4] = half
    return routed(rows, (n1h, 2, n2h, 2), detectors)


class TestClickDistribution:
    # a threshold herald detector fires with 1-(1-eta)^n, a number-resolving
    # one reports one photon with n eta (1-eta)^(n-1): the laws on the kernels'
    # firing tables, and through the 8-mode oracle on routed source occupations
    def test_vacuum_never_clicks(self):
        heralded = block(0, 0.5, 0.5, DetectorModel(efficiency=0.42))
        assert heralded.herald == 0.0
        assert not heralded.table.any() and not heralded.coincidences.any()
        with pytest.raises(ValueError, match="zero herald probability"):
            number_table(heralded)
        for resolving in ("threshold", "number"):
            assert _fires(_thinning(1, 0.42), resolving)[0] == 0.0

    def test_single_photon_clicks_with_eta(self):
        for resolving in ("threshold", "number"):
            assert _fires(_thinning(1, 0.42), resolving)[1] == pytest.approx(0.42, abs=1e-15)
        assert herald_on_r1h((1.0, 0.0), 1, 0.42).probability == pytest.approx(0.42, abs=1e-12)

    def test_two_photons_threshold(self):
        # 1 - (1-eta)^2, cross-checked by explicit two-photon loss enumeration
        explicit = 0.5 * 0.5 + 2 * 0.5 * 0.5
        fires = _fires(_thinning(2, 0.5), "threshold")
        assert fires[2] == pytest.approx(0.75, abs=1e-15)
        assert fires[2] == pytest.approx(explicit, abs=1e-15)
        assert herald_on_r1h((1.0, 0.0), 2, 0.5).probability == pytest.approx(0.75, abs=1e-12)

    def test_number_resolving_counts(self):
        # exactly one of two photons detected: 2 eta (1 - eta)
        for eta in (0.5, 0.3):
            want = 2 * eta * (1 - eta)
            assert _fires(_thinning(2, eta), "number")[2] == pytest.approx(want, abs=1e-15)
            assert herald_on_r1h((1.0, 0.0), 2, eta, "number").probability == pytest.approx(
                want, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.0966, 0.42, 1.0])
    def test_click_laws_at_every_photon_number(self, eta):
        # the firing tables the kernels weigh herald occupations with, up to 12 photons
        threshold = [1.0 - (1.0 - eta) ** n for n in range(13)]
        number = [n * eta * (1.0 - eta) ** (n - 1) if n else 0.0 for n in range(13)]
        table = _thinning(12, eta)
        assert _fires(table, "threshold") == pytest.approx(threshold, rel=1e-13, abs=0.0)
        assert _fires(table, "number") == pytest.approx(number, rel=1e-13, abs=0.0)

    def test_threshold_equals_number_on_single_photon_states(self):
        eta = 0.37
        th_fires, nr_fires = (_fires(_thinning(3, eta), kind) for kind in ("threshold", "number"))
        assert th_fires[:2] == pytest.approx(nr_fires[:2], abs=1e-15)
        assert th_fires[2] > nr_fires[2]
        th = herald_on_r1h((0.6, 0.8), 1, eta)
        nr = herald_on_r1h((0.6, 0.8), 1, eta, "number")
        assert th.probability == pytest.approx(0.36 * eta, abs=1e-12)
        assert nr.probability == pytest.approx(th.probability, abs=1e-12)
        det = DetectorModel(efficiency=eta)
        want = oracles.number_table(th, det)
        assert list(oracles.number_table(nr, det)) == list(want)
        assert oracles.number_table(nr, det) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_distribution_sums_to_one(self):
        # herald probability against the thinning formulas summed by hand over
        # the permanent oracle's arm ket: arm 1 on a random isometry, arm 2
        # one photon each into perfect r2+ and r2- detectors
        rng = np.random.default_rng(11)
        perfect = {"r2+": 1.0, "r2-": 1.0}
        eta = 0.3
        for _ in range(5):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            iso = np.linalg.qr(z)[0][:2]
            rows = np.array(ROUTE_TO_HERALDS, dtype=complex)
            rows[:2] = 0.0
            rows[:2, [0, 1, 4, 5]] = iso
            na, nb = (int(x) for x in rng.integers(0, 3, 2))
            arm = dense_evolve({(na, nb): 1.0}, iso)
            threshold = routed(rows, (na, nb, 1, 1), DetectorModel(efficiency=eta, per_mode=perfect))
            number = routed(
                rows, (na, nb, 1, 1), DetectorModel(efficiency=eta, resolving="number", per_mode=perfect)
            )
            miss = sum(
                abs(amp) ** 2 * (1 - (1 - (1 - eta) ** r1h) * (1 - (1 - eta) ** r1v))
                for (r1h, r1v, _, _), amp in arm.items()
            )
            one_each = sum(
                abs(amp) ** 2 * r1h * eta * (1 - eta) ** (r1h - 1) * r1v * eta * (1 - eta) ** (r1v - 1)
                for (r1h, r1v, _, _), amp in arm.items()
                if r1h and r1v
            )
            assert threshold.probability + miss == pytest.approx(1.0, abs=1e-12)
            assert number.probability == pytest.approx(one_each, abs=1e-12)

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    def test_herald_on_every_mode(self, resolving):
        # all four photons on the herald detectors: the outputs stay empty, and
        # the herald probability is r1H's click probability; distinguishable, the
        # two-pair block heralds by its |1, 1; 1, 1> third alone
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode=OTHER_HERALDS_PERFECT)
        heralded = routed(ROUTE_TO_HERALDS, (1, 1, 1, 1), det)
        assert heralded.probability == pytest.approx(0.4, abs=1e-15)
        assert oracles.number_table(heralded, det) == {(0, 0, 0, 0): pytest.approx(1.0, abs=1e-15)}
        ket = basis_ket(4, (1, 1, 1, 1))
        assert oracles.permutation_herald_classical(ket, ROUTE_TO_HERALDS, det) == pytest.approx(
            0.4, abs=1e-15)
        assert herald_classical(ROUTE_TO_HERALDS, det) == pytest.approx(0.4 / 3, rel=1e-15)


class TestHerald:
    def test_three_pair_ideal_gives_bell_state(self):
        heralded = block(3, 0.5, 0.5, IDEAL_NUMBER_DETECTORS)
        # closed form: herald probability T1 T2 R1^2 R2^2 / 2
        assert heralded.herald == pytest.approx(0.5 * 0.5 * 0.25**2 / 2, abs=1e-12)
        # every heralded event is a coincidence, and the coincidences are Phi+
        assert np.trace(heralded.coincidences).real == pytest.approx(heralded.herald, rel=1e-12)
        rho = postselect_two_qubit(heralded)
        assert fidelity_to_phi_plus(rho) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_herald_is_phi_plus_at_random_splitters(self):
        # the heralded three-pair ket is (|HH>+|VV>)/sqrt(2) itself, with no local correction
        rng = np.random.default_rng(20100607)
        for t1, t2 in rng.uniform(0.0, 1.0, size=(40, 2)):
            heralded = block(3, t1, t2, IDEAL_NUMBER_DETECTORS)
            assert set(number_table(heralded)) <= set(COINCIDENCE_PATTERNS)
            assert np.abs(postselect_two_qubit(heralded) - PHI_PLUS_RHO).max() <= 1e-12

    @pytest.mark.parametrize("t1,t2", [(0.17, 0.17), (0.3, 0.7), (0.5, 0.5), (0.7, 0.3)])
    def test_herald_probability_closed_form(self, t1, t2):
        expected = t1 * t2 * (1 - t1) ** 2 * (1 - t2) ** 2 / 2
        assert block(3, t1, t2, IDEAL_NUMBER_DETECTORS).herald == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t1,t2", [(0.17, 0.5), (0.5, 0.5), (0.7, 0.3), (0.9, 0.1)])
    @pytest.mark.parametrize("detectors", [IDEAL_NUMBER_DETECTORS, LOSSLESS_THRESHOLD,
                                           DetectorModel(efficiency=0.0966)])
    def test_two_pair_fully_suppressed(self, t1, t2, detectors):
        assert block(2, t1, t2, detectors).herald <= 1e-12

    def test_single_pair_cannot_herald(self):
        assert block(1, 0.5, 0.5, LOSSLESS_THRESHOLD).herald == 0.0

    @pytest.mark.parametrize("detectors", [IDEAL_NUMBER_DETECTORS, DetectorModel(efficiency=0.3)])
    def test_blocks_below_two_photons_per_arm_are_not_evolved(self, detectors, monkeypatch):
        # each arm's two herald detectors need a photon each: blocks 0 and 1 are exact
        # zeros of the common table shape
        evolved = []

        def counting_arm_kets(maps, plan):
            evolved.append(int(plan.photons[0, 0].sum()))
            return _arm_kets(maps, plan)

        monkeypatch.setattr("heraldsim.detection._arm_kets", counting_arm_kets)
        blocks = herald_pair_terms(3, build_paper_circuit(0.3, 0.7, ("x", "y")).matrix, detectors)
        assert evolved == [2, 3]
        assert blocks[3].herald > 0.0
        for zero in blocks[:2]:
            assert zero.herald == 0.0 and zero.direct == 0.0
            assert zero.table.shape == blocks[3].table.shape and not zero.table.any()
            assert zero.coincidences.shape == (4, 4) and not zero.coincidences.any()

    @pytest.mark.parametrize("per_mode,tables", [
        (None, 1), ({"r1H": 0.5, "t2V": 0.5}, 2), ({"r1H": 0.5, "t2V": 0.7, "r2-": 0.2}, 4),
    ])
    def test_one_thinning_table_per_distinct_efficiency(self, per_mode, tables, monkeypatch):
        # the eight detectors share the thinning and firing tables of their efficiency
        built = []

        def counting_thinning(n_max, eta):
            built.append(eta)
            return _thinning(n_max, eta)

        monkeypatch.setattr("heraldsim.detection._thinning", counting_thinning)
        det = DetectorModel(efficiency=0.3, per_mode=per_mode)
        blocks = herald_pair_terms(4, build_paper_circuit(0.3, 0.7).matrix, det)
        assert len(built) == len(set(built)) == tables
        monkeypatch.undo()
        assert blocks[4].herald == block(4, 0.3, 0.7, det).herald > 0.0

    def test_herald_probability_monotone_in_efficiency(self):
        probs = [block(3, 0.4, 0.6, DetectorModel(efficiency=eta)).herald
                 for eta in (0.05, 0.1, 0.3, 0.6, 1.0)]
        assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))

    def test_monotone_per_mode_on_random_states(self):
        # bumping any single herald detector's efficiency never lowers the
        # herald probability, on random splitters, settings and blocks
        rng = np.random.default_rng(12)
        for _ in range(10):
            t1, t2 = rng.uniform(0.05, 0.95, 2)
            settings = tuple(rng.choice(list(ANALYSIS_SETTINGS), 2))
            n_pairs = int(rng.integers(2, 6))
            base_eta = {name: float(rng.uniform(0.05, 0.9)) for name in HERALD_NAMES}
            base = block(n_pairs, t1, t2, DetectorModel(efficiency=0.5, per_mode=base_eta),
                         settings).herald
            for bumped in HERALD_NAMES:
                per_mode = dict(base_eta)
                per_mode[bumped] = min(1.0, per_mode[bumped] + 0.1)
                det = DetectorModel(efficiency=0.5, per_mode=per_mode)
                assert block(n_pairs, t1, t2, det, settings).herald >= base - 1e-15

    def test_ket_without_herald_modes_rejected(self):
        with pytest.raises(ValueError, match="herald modes"):
            oracles.herald(basis_ket(3, (1, 1, 1)), LOSSLESS_THRESHOLD)

    def test_circuit_mixing_the_arms_rejected(self):
        matrix = np.array(ROUTE_TO_HERALDS)
        matrix[0] = 0.0
        matrix[0, 0] = matrix[0, 6] = 1.0 / math.sqrt(2.0)  # a1H onto r1H and t2H
        with pytest.raises(ValueError, match="mixes the two arms"):
            herald_pair_terms(2, matrix, LOSSLESS_THRESHOLD)

    def test_negative_max_pairs_rejected(self):
        matrix = build_paper_circuit(0.5, 0.5).matrix
        with pytest.raises(ValueError, match="max_pairs must be non-negative"):
            herald_pair_terms(-1, matrix, LOSSLESS_THRESHOLD)
        (vacuum,) = herald_pair_terms(0, matrix, LOSSLESS_THRESHOLD)
        assert vacuum.herald == 0.0 and vacuum.table.shape == (1, 1, 1, 1)

    def test_component_weights_sum_to_probability(self):
        # the joint probabilities of the herald and each count pattern add up to the herald's
        heralded = block(3, 0.3, 0.6, DetectorModel(efficiency=0.4))
        assert heralded.table.sum() == pytest.approx(heralded.herald, rel=1e-14)
        assert sum(number_table(heralded).values()) == pytest.approx(1.0, abs=1e-14)
        assert 0.0 < np.trace(heralded.coincidences).real <= heralded.herald


class TestClassicalChannel:
    def test_distribution_is_normalized(self):
        # the enumeration behind the oracle sums to 1; the block heralds its
        # whole probability into the output vacuum
        layout = build_paper_circuit(0.4, 0.6)
        dist = classical_occupation_distribution(pair_term(2).amplitudes, layout.total_matrix())
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        det = DetectorModel(efficiency=0.3)
        classical = heralded_blocks(0.4, 0.6, det, 2)[2, False]
        assert classical.herald == herald_classical(layout.total_matrix(), det)
        assert classical.table.sum() == classical.herald

    def test_two_pair_leakage_closed_form(self):
        # only the |1,1;1,1> component can satisfy the four-fold condition:
        # both arm photons reflected, (H, V) split at the analyzer with
        # probability 1/2, times eta^4
        t1, t2, eta = 0.3, 0.6, 0.25
        layout = build_paper_circuit(t1, t2)
        prob = herald_classical(layout.total_matrix(), DetectorModel(efficiency=eta))
        expected = (1 / 3) * (1 - t1) ** 2 * (1 - t2) ** 2 * 0.5 * eta**4
        assert prob == pytest.approx(expected, rel=1e-10)

    def test_leaked_output_is_vacuum(self):
        classical = heralded_blocks(0.5, 0.5, DetectorModel(efficiency=0.3), 2)[2, False]
        assert number_table(classical) == {(0, 0, 0, 0): 1.0}
        assert classical.direct == 0.0 and not classical.coincidences.any()

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
            prob = herald_classical(matrix, det)
            expected = classical_herald_probability(
                pair_term(2).amplitudes, matrix, det.etas(HERALD_NAMES), det.resolving
            )
            assert type(prob) is float
            assert prob == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_closed_form_matches_permutation_sum(self):
        # the product of the arms' 2x2 permanents against the permanent over all 24
        # assignments, on random splitters, settings and herald efficiencies
        rng = np.random.default_rng(1403)
        for trial in range(45):
            t1, t2 = (float(t) for t in rng.uniform(0.0, 1.0, 2))
            det = DetectorModel(efficiency=float(rng.uniform(0.05, 1.0)),
                                per_mode={name: float(rng.uniform()) for name in HERALD_NAMES})
            matrix = build_paper_circuit(t1, t2, ALL_SETTINGS[trial % 9]).total_matrix()
            want = oracles.permutation_herald_classical(pair_term(2), matrix, det)
            assert herald_classical(matrix, det) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_three_photons_in_one_arm_never_herald(self):
        # three photons on an arm's two herald detectors leave one of them a second photon
        # and the other arm's detectors one photon for two: the full 24-term permanent is
        # zero, so a product of the arms' 2x2 permanents, two photons each, misses nothing
        matrix = build_paper_circuit(0.3, 0.7, ("x", "y")).total_matrix()
        for occ in ((2, 1, 1, 0), (0, 1, 3, 0)):
            ket = basis_ket(4, occ)
            assert oracles.permutation_herald_classical(ket, matrix, LOSSLESS_THRESHOLD) == 0.0

    def test_circuit_mixing_the_arms_rejected(self):
        matrix = np.array(ROUTE_TO_HERALDS)
        matrix[0] = 0.0
        matrix[0, 0] = matrix[0, 2] = 1.0 / math.sqrt(2.0)  # a1H onto r1H and r2+
        with pytest.raises(ValueError, match="mixes the two arms"):
            herald_classical(matrix, LOSSLESS_THRESHOLD)


class TestNumberTable:
    def test_ideal_three_pair_concentrates_at_one_per_arm(self):
        heralded = block(3, 0.5, 0.5, IDEAL_NUMBER_DETECTORS)
        assert arm_totals(heralded.table)[1, 1] / heralded.herald == pytest.approx(1.0, abs=1e-10)

    def test_zero_output_efficiency_gives_vacuum(self):
        det = DetectorModel(efficiency=1.0, per_mode={name: 0.0 for name in OUTPUT_NAMES})
        table = number_table(block(3, 0.5, 0.5, det))
        assert table == {(0, 0, 0, 0): pytest.approx(1.0, abs=1e-12)}

    def test_probabilities_sum_to_one(self):
        table = number_table(block(3, 0.3, 0.7, DetectorModel(efficiency=0.2)))
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)


class TestPostselect:
    def test_ideal_three_pair_is_phi_plus(self):
        rho = postselect_two_qubit(block(3, 0.3, 0.7, IDEAL_NUMBER_DETECTORS))
        check_density_matrix(rho)
        assert fidelity_to_phi_plus(rho) == pytest.approx(1.0, abs=1e-10)

    def test_single_basis_component(self):
        det = DetectorModel(efficiency=0.5)
        rho = oracles.postselect_two_qubit(heralded_outputs(1, 1, det), det)
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_coincidence_rejected(self):
        # dead output detectors: the block heralds, but never gives a coincidence
        det = DetectorModel(efficiency=0.5, per_mode={name: 0.0 for name in OUTPUT_NAMES})
        heralded = block(3, 0.5, 0.5, det)
        assert heralded.herald > 0.0 and not heralded.coincidences.any()
        with pytest.raises(ValueError, match="coincidence"):
            postselect_two_qubit(heralded)

    def test_valid_density_matrix_with_loss_and_higher_orders(self):
        det = DetectorModel(efficiency=0.0966)
        spdc = SpdcParams(tau=0.4, max_pairs=4, visibility=0.8)
        check_density_matrix(postselect_two_qubit(reweight_blocks(heralded_blocks(0.7, 0.7, det, 4), spdc)))

    def test_four_pair_background_is_psi_minus_type(self):
        from heraldsim.experiments import bell_diagonal

        spdc = SpdcParams(tau=0.4, max_pairs=4, visibility=0.862)
        rho = postselect_two_qubit(reweight_blocks(heralded_blocks(0.3, 0.3, DetectorModel(), 4), spdc))
        diag = bell_diagonal(rho)
        background = {k: v for k, v in diag.items() if k != "phi+"}
        assert max(background, key=background.get) == "psi-"

    def test_fidelity_drops_when_four_pair_included(self):
        blocks = heralded_blocks(0.5, 0.5, DetectorModel(), 4)
        fids = {}
        for mp in (3, 4):
            spdc = SpdcParams(tau=0.35, max_pairs=mp, visibility=0.862)
            fids[mp] = fidelity_to_phi_plus(postselect_two_qubit(reweight_blocks(blocks, spdc)))
        assert fids[4] < fids[3]


def click_in_each_arm(heralded):
    """P(>=1;>=1) given the herald, read off the block's arm totals."""
    return arm_totals(heralded.table)[1:, 1:].sum() / heralded.herald


def oracle_click_in_each_arm(ensemble, detectors):
    """P(>=1;>=1) given the herald, summed over the 8-mode oracle's number table."""
    table = oracles.number_table(ensemble, detectors)
    return math.fsum(p for (n1h, n1v, n2h, n2v), p in table.items() if n1h + n1v and n2h + n2v)


class TestArmClicks:
    def test_matches_hand_computation_on_basis_state(self):
        # two photons in t1H and one in t2H behind perfect heralds
        det = DetectorModel(efficiency=0.3, per_mode=HERALDS_PERFECT)
        expected = (1 - 0.7**2) * 0.3
        assert oracle_click_in_each_arm(heralded_outputs(2, 1, det), det) == pytest.approx(
            expected, abs=1e-12)


def binomial_thinning(n_max, eta):
    """Entry [n, k]: the chance that k of n photons are detected at efficiency eta."""
    return np.array([[math.comb(n, k) * eta**k * (1 - eta) ** (n - k) if k <= n else 0.0
                      for k in range(n_max + 1)] for n in range(n_max + 1)])


class TestOutputLoss:
    def test_commutes_with_the_herald(self):
        # output loss only thins the photons that reach t1/t2: the herald and
        # P_direct are those of perfect output detectors, bit for bit, and the
        # table is the perfect-output table thinned detector by detector
        rng = np.random.default_rng(1995)
        settings = [(a, b) for a in ANALYSIS_SETTINGS for b in ANALYSIS_SETTINGS]
        for trial in range(18):
            t1, t2 = (float(t) for t in rng.uniform(0.05, 0.95, 2))
            heralds = {name: float(rng.uniform(0.05, 1.0)) for name in HERALD_NAMES}
            etas = rng.permutation([0.0, 1.0, *rng.uniform(0.05, 0.95, 2)]).tolist()
            resolving = ("threshold", "number")[trial // 9]
            lossy, perfect = (
                DetectorModel(efficiency=0.4, resolving=resolving,
                              per_mode={**heralds, **dict(zip(OUTPUT_NAMES, outputs))})
                for outputs in (etas, [1.0] * 4)
            )
            matrix = build_paper_circuit(t1, t2, settings[trial % 9]).matrix
            max_pairs = int(rng.integers(2, 7))
            for got, ref in zip(herald_pair_terms(max_pairs, matrix, lossy),
                                herald_pair_terms(max_pairs, matrix, perfect)):
                assert got.herald == ref.herald and got.direct == ref.direct
                thin = [binomial_thinning(len(ref.table) - 1, eta) for eta in etas]
                want = np.einsum("abcd,aA,bB,cC,dD->ABCD", ref.table, *thin, optimize=True)
                assert np.abs(got.table - want).max() <= 1e-12 * np.abs(want).max(initial=0.0)


class TestPerModeEfficiency:
    def test_override_applies_to_named_mode(self):
        perfect = {"r2+": 1.0, "r2-": 1.0}
        for resolving in ("threshold", "number"):
            det = DetectorModel(
                efficiency=0.5, resolving=resolving, per_mode={**perfect, "r1V": 1.0}
            )
            # r1V always fires, r1H with the default 0.5
            assert routed(ROUTE_TO_HERALDS, (1, 1, 1, 1), det).probability == pytest.approx(
                0.5, abs=1e-12)
            plain = DetectorModel(efficiency=0.5, resolving=resolving, per_mode=perfect)
            assert routed(ROUTE_TO_HERALDS, (1, 1, 1, 1), plain).probability == pytest.approx(
                0.25, abs=1e-12
            )
            # an override on an output detector changes nothing
            output = DetectorModel(
                efficiency=0.5, resolving=resolving, per_mode={**perfect, "t1H": 1.0}
            )
            assert routed(ROUTE_TO_HERALDS, (1, 1, 1, 1), output).probability == pytest.approx(
                0.25, abs=1e-12
            )

    def test_override_applies_to_output_detector(self):
        det = DetectorModel(efficiency=0.3, per_mode={**HERALDS_PERFECT, "t1H": 1.0})
        assert oracle_click_in_each_arm(heralded_outputs(1, 1, det), det) == pytest.approx(
            0.3, abs=1e-12)
        # the ideal three-pair block leaves one photon per arm in Phi+: HH or VV, half each
        number = DetectorModel(efficiency=0.3, resolving="number", per_mode=det.per_mode)
        assert click_in_each_arm(block(3, 0.5, 0.5, number)) == pytest.approx(
            (1.0 * 0.3 + 0.3 * 0.3) / 2, rel=1e-12)

    @pytest.mark.parametrize("name", ["t1", "r2+H", "T1H"])
    def test_unknown_name_rejected(self, name):
        # a key that names no detector would otherwise be ignored without a word
        with pytest.raises(ValueError, match="unknown detector"):
            DetectorModel(per_mode={name: 0.9})


class TestPhotonMaps:
    def test_recurrence_matches_binomial_sum(self):
        # photon by photon against the explicit binomial sum, on random complex maps
        # that are not unitary, up to 10 photons; each photon number on its own scale
        rng = np.random.default_rng(2510)
        for _ in range(10):
            matrices = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
            got, want = _photon_maps(matrices, 10), oracles.binomial_photon_maps(matrices, 10)
            assert got.shape == want.shape == (2, 2, 11, 11, 11)
            assert ((got == 0.0) == (want == 0.0)).all()
            scale = np.abs(want).max(axis=(-1, -2), keepdims=True)
            assert (np.abs(got - want) <= 1e-14 * scale).all()

    def test_no_photons_and_one_photon(self):
        matrices = np.array([[1.0, 2.0j], [3.0, -4.0]])
        maps = _photon_maps(matrices, 1)
        assert maps[0, 0, 0] == 1.0
        # |1, 0> goes to m00 |1, 0> + m01 |0, 1>, and |0, 1> to m10 |1, 0> + m11 |0, 1>
        assert maps[1, 1, 1] == 1.0 and maps[1, 1, 0] == 2.0j
        assert maps[1, 0, 1] == 3.0 and maps[1, 0, 0] == -4.0


class TestArmKets:
    @pytest.mark.parametrize("setting", ANALYSIS_SETTINGS)
    def test_closed_form_matches_apply_mode_map(self, setting):
        # each arm's 2 -> 4 isometry on every input of up to 8 photons, amplitude by
        # amplitude at the output occupations that can herald, with the same amplitudes pruned
        for t1, t2 in ((0.3, 0.7), (0.5, 0.5), (0.9, 0.15)):
            matrix = build_paper_circuit(t1, t2, (setting, setting)).matrix
            arms = [matrix[0:2][:, [0, 1, 4, 5]], matrix[2:4][:, [2, 3, 6, 7]]]
            maps = _photon_maps(np.array([[arm[:, :2], arm[:, 2:]] for arm in arms]), 8)
            for n in range(2, 9):
                plan = _block_plan(n)
                rows = plan.rows
                kets = _arm_kets(maps, plan)
                assert {(o0, o1) for o0, o1 in zip(*rows)} == {
                    (o0, o1) for o0 in range(n - 1) for o1 in range(n - 1 - o0)
                }
                for arm, iso in enumerate(arms):
                    assert sorted(plan.photons[arm].tolist()) == [[a, n - a] for a in range(n + 1)]
                    for k, occ in enumerate(plan.photons[arm].tolist()):
                        evolved = apply_mode_map(basis_ket(2, occ), iso).amplitudes
                        want = {key: amp for key, amp in evolved.items() if key[2] + key[3] <= n - 2}
                        got = {
                            (h0, n - o0 - o1 - h0, o0, o1): kets[arm, r, k, h0]
                            for r, (o0, o1) in enumerate(zip(*rows))
                            for h0 in range(n + 1 - o0 - o1) if kets[arm, r, k, h0] != 0.0
                        }
                        assert set(got) == set(want)
                        for key, amp in want.items():
                            assert abs(got[key] - amp) <= 1e-12

    def test_hong_ou_mandel_zero_is_exact(self):
        # arm 2's HWP(pi/8) herald analyzer is a balanced splitter: |1, 1> never
        # gives an r2+ r2- coincidence, an exact zero rather than rounding residue
        matrix = build_paper_circuit(0.0, 0.0).matrix
        arms = [matrix[0:2][:, [0, 1, 4, 5]], matrix[2:4][:, [2, 3, 6, 7]]]
        maps = _photon_maps(np.array([[arm[:, :2], arm[:, 2:]] for arm in arms]), 2)
        # the one output occupation of two photons that can herald: the outputs empty
        plan = _block_plan(2)
        kets = _arm_kets(maps, plan)
        assert plan.photons[1, 1].tolist() == [1, 1]  # arm 2's input k = 1
        assert kets.shape == (2, 1, 3, 3)
        assert kets[1, 0, 1, 1] == 0.0
        assert abs(kets[1, 0, 1, 0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def plan_arrays(plan):
    """Every array of a block plan, including those inside its index tuples."""
    for field in dataclasses.fields(plan):
        value = getattr(plan, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield field.name, item


class TestBlockPlan:
    def test_plan_arrays_are_read_only(self):
        # every caller in the process shares one plan per pair number
        for n in range(2, 7):
            arrays = list(plan_arrays(_block_plan(n)))
            assert {name for name, _ in arrays} == {
                f.name for f in dataclasses.fields(_block_plan(n))
            }
            for name, array in arrays:
                assert not array.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0

    def test_cold_and_warm_plans_give_identical_blocks(self):
        # random splitters, settings, both detector kinds and per-detector efficiencies
        # with dead and perfect detectors: blocks from plans built for the call and from
        # plans built by earlier calls agree to the last bit
        rng = np.random.default_rng(2801)
        for trial in range(12):
            t1, t2 = (float(t) for t in rng.uniform(0.05, 0.95, 2))
            per_mode = {name: float(rng.choice([0.0, 1.0]) if rng.random() < 0.3 else rng.uniform())
                        for name in HERALD_NAMES + OUTPUT_NAMES}
            det = DetectorModel(efficiency=float(rng.uniform()), per_mode=per_mode,
                                resolving=("threshold", "number")[trial % 2])
            matrix = build_paper_circuit(t1, t2, ALL_SETTINGS[trial % 9]).matrix
            max_pairs = int(rng.integers(2, 9))
            _block_plan.cache_clear()
            cold = herald_pair_terms(max_pairs, matrix, det)
            assert _block_plan.cache_info().misses == max_pairs - 1
            warm = herald_pair_terms(max_pairs, matrix, det)
            assert _block_plan.cache_info().misses == max_pairs - 1
            for a, b in zip(cold, warm):
                assert float(a.herald).hex() == float(b.herald).hex()
                assert float(a.direct).hex() == float(b.direct).hex()
                assert a.table.tobytes() == b.table.tobytes()
                assert a.coincidences.tobytes() == b.coincidences.tobytes()

    def test_plan_does_not_depend_on_max_pairs(self):
        # the plan of block n is one object for every truncation, and built first for
        # N = n or for N = n + 4 it holds the same arrays
        matrix, det = build_paper_circuit(0.3, 0.7, ("x", "y")).matrix, DetectorModel()
        _block_plan.cache_clear()
        herald_pair_terms(4, matrix, det)
        small = {n: _block_plan(n) for n in range(2, 5)}
        herald_pair_terms(8, matrix, det)
        assert all(_block_plan(n) is plan for n, plan in small.items())
        _block_plan.cache_clear()
        herald_pair_terms(8, matrix, det)
        for n, plan in small.items():
            rebuilt = dict(plan_arrays(_block_plan(n)))
            assert rebuilt.keys() == dict(plan_arrays(plan)).keys()
            for (name, want), (_, got) in zip(plan_arrays(plan), plan_arrays(_block_plan(n))):
                assert got.shape == want.shape and np.array_equal(got, want), name


# A perfect and a partial herald detector, and a dead, a perfect and a
# partial output detector; the rest keep the model's efficiency.
EDGE_EFFICIENCIES = {"r1V": 1.0, "r2+": 0.7, "t1H": 0.0, "t1V": 0.35, "t2V": 1.0}
# z-z and x-y first, the two settings this test ran on before it took all nine.
ALL_SETTINGS = [("z", "z"), ("x", "y")] + [
    (a, b) for a in ANALYSIS_SETTINGS for b in ANALYSIS_SETTINGS if (a, b) not in (("z", "z"), ("x", "y"))
]


def assert_tables_match(got, want):
    assert list(got) == sorted(want)
    for pattern, p in want.items():
        assert got[pattern] == pytest.approx(p, rel=1e-12, abs=0.0)


class TestAgainstOracles:
    """The arm path against the dense permanent oracle and the 8-mode Fock oracle."""

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    @pytest.mark.parametrize("settings", ALL_SETTINGS)
    def test_herald(self, resolving, settings):
        # every block 0..5 against its permanent-formula ket, heralded pattern by pattern
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode=EDGE_EFFICIENCIES)
        matrix = build_paper_circuit(0.35, 0.55, settings).matrix
        for n, heralded in enumerate(herald_pair_terms(5, matrix, det)):
            state = dense_evolve_by_arm(dict(pair_term(n).amplitudes), matrix)
            want = herald_by_pattern(state, det.etas(HERALD_NAMES), resolving)
            assert heralded.herald == pytest.approx(sum(w for w, _ in want), rel=1e-12, abs=0.0)
            if not want:
                assert heralded.herald == 0.0 and not heralded.table.any()
                continue
            assert_tables_match(number_table(heralded),
                                detected_number_table(want, det.etas(OUTPUT_NAMES)))
            if n <= 4 and np.trace(heralded.coincidences).real > 0.0:
                rho = postselected_state_through_loss_modes(want, det.etas(OUTPUT_NAMES))
                assert np.abs(postselect_two_qubit(heralded) - rho).max() <= 1e-12

    def test_kernels_match_the_kraus_route(self):
        # the photon-by-photon maps and the coincidences read off the Gram tensors against
        # the binomial-sum maps and the coincidences of the detected kets, on random
        # splitters, every setting, both detector kinds, 0-9 pairs and per-detector
        # efficiencies with dead and perfect detectors among them.  Tables are compared on
        # the scale of their largest entry: an entry far below it is a difference of much
        # larger terms, and carries their rounding
        rng = np.random.default_rng(2511)
        for trial in range(36):
            t1, t2 = (float(t) for t in rng.uniform(0.05, 0.95, 2))
            per_mode = {name: float(rng.choice([0.0, 1.0]) if rng.random() < 0.3 else rng.uniform())
                        for name in HERALD_NAMES + OUTPUT_NAMES}
            det = DetectorModel(efficiency=float(rng.uniform()), resolving=("threshold", "number")[trial % 2],
                                per_mode=per_mode)
            matrix = build_paper_circuit(t1, t2, ALL_SETTINGS[trial % 9]).matrix
            max_pairs = int(rng.integers(0, 10))
            for got, want in zip(herald_pair_terms(max_pairs, matrix, det),
                                 oracles.kraus_route_blocks(max_pairs, matrix, det)):
                assert got.herald == pytest.approx(want.herald, rel=1e-13, abs=0.0)
                assert got.direct == pytest.approx(want.direct, rel=1e-13, abs=0.0)
                assert ((got.table == 0.0) == (want.table == 0.0)).all()
                largest = want.table.max(initial=0.0)
                assert np.abs(got.table - want.table).max() <= 1e-13 * largest
                # an exact zero may read as rounding residue here, or the other way round: on the
                # scale of the largest entry, plus the rounding of the herald, which bounds them all
                largest = np.abs(want.coincidences).max()
                assert (np.abs(got.coincidences - want.coincidences).max()
                        <= 1e-14 * largest + 1e-15 * want.herald)

    def test_packed_kernels_match_both_oracles(self):
        # random splitters, settings, per-detector efficiencies and both detector kinds; pair
        # blocks up to 10 pairs against the Kraus route, and one pair block per trial against
        # the 8-mode pipeline.  Tables are compared on the scale of their largest entry, as in
        # test_kernels_match_the_kraus_route
        rng = np.random.default_rng(2601)
        for trial in range(10):
            t1, t2 = (float(t) for t in rng.uniform(0.05, 0.95, 2))
            # live herald detectors, so that every block heralds; dead and perfect outputs
            per_mode = {name: float(rng.uniform(0.05, 1.0)) for name in HERALD_NAMES}
            per_mode.update(
                {name: float(rng.choice([0.0, 1.0, rng.uniform()])) for name in OUTPUT_NAMES})
            det = DetectorModel(efficiency=float(rng.uniform()), per_mode=per_mode,
                                resolving=("threshold", "number")[trial % 2])
            layout = build_paper_circuit(t1, t2, ALL_SETTINGS[int(rng.integers(9))])
            blocks = herald_pair_terms(10, layout.matrix, det)
            for got, want in zip(blocks, oracles.kraus_route_blocks(10, layout.matrix, det)):
                assert got.herald == pytest.approx(want.herald, rel=1e-12, abs=0.0)
                assert got.direct == pytest.approx(want.direct, rel=1e-12, abs=0.0)
                assert ((got.table == 0.0) == (want.table == 0.0)).all()
                largest = want.table.max(initial=0.0)
                assert np.abs(got.table - want.table).max() <= 1e-13 * largest
                largest = np.abs(want.coincidences).max()
                assert np.abs(got.coincidences - want.coincidences).max() <= 1e-13 * largest
            n = 3 + trial % 8
            ens = oracles.herald(layout.run(pair_term(n)), det)
            assert ens.probability > 0.0
            assert blocks[n].herald == pytest.approx(ens.probability, rel=1e-12, abs=0.0)
            got, want = number_table(blocks[n]), oracles.number_table(ens, det)
            assert list(got) == sorted(want)
            largest = max(want.values())
            assert max(abs(got[key] - p) for key, p in want.items()) <= 1e-13 * largest
            if np.trace(blocks[n].coincidences).real > 0.0:
                rho = oracles.postselect_two_qubit(ens, det)
                assert np.abs(postselect_two_qubit(blocks[n]) - rho).max() <= 1e-12

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    def test_dead_herald_detector_heralds_nothing(self, resolving):
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode={"r2-": 0.0})
        matrix = build_paper_circuit(0.35, 0.55).matrix
        state = dense_evolve_by_arm(dict(pair_term(4).amplitudes), matrix)
        assert herald_by_pattern(state, det.etas(HERALD_NAMES), resolving) == []
        heralded = block(4, 0.35, 0.55, det)
        assert heralded.herald == 0.0 and not heralded.table.any()

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    def test_number_table(self, resolving):
        # the reweighted blocks against the Fock oracle at 6 pairs, and against
        # the brute-force count enumeration of the Fock oracle's components at 5
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode=EDGE_EFFICIENCIES)
        for max_pairs in (5, 6):
            spdc = SpdcParams(tau=0.3, max_pairs=max_pairs, visibility=0.9)
            blocks = heralded_blocks(0.35, 0.55, det, max_pairs, ("x", "y"))
            table = number_table(reweight_blocks(blocks, spdc))
            ens = oracles.heralded_ensemble(0.35, 0.55, spdc, det, ("x", "y"))
            if max_pairs == 6:
                assert_tables_match(table, oracles.number_table(ens, det))
            else:
                components = [(w, dict(k.amplitudes)) for w, k in ens.components]
                assert_tables_match(table, detected_number_table(components, det.etas(OUTPUT_NAMES)))

    @pytest.mark.parametrize("resolving", ["threshold", "number"])
    def test_postselected_state(self, resolving):
        # against the Fock oracle at 6 pairs, and against loss as explicit optics
        # on the Fock oracle's components at 4
        herald_etas = dict(zip(HERALD_NAMES, DetectorModel(per_mode=EDGE_EFFICIENCIES).etas(HERALD_NAMES)))
        for outputs in (EDGE_EFFICIENCIES, {"t1H": 1.0, "t2H": 0.0}):
            det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode={**herald_etas, **outputs})
            for max_pairs in (4, 6):
                spdc = SpdcParams(tau=0.3, max_pairs=max_pairs, visibility=0.9)
                rho = postselect_two_qubit(
                    reweight_blocks(heralded_blocks(0.35, 0.55, det, max_pairs, ("y", "x")), spdc)
                )
                check_density_matrix(rho)
                ens = oracles.heralded_ensemble(0.35, 0.55, spdc, det, ("y", "x"))
                if max_pairs == 6:
                    want = oracles.postselect_two_qubit(ens, det)
                else:
                    components = [(w, dict(k.amplitudes)) for w, k in ens.components]
                    want = postselected_state_through_loss_modes(components, det.etas(OUTPUT_NAMES))
                assert np.abs(rho - want).max() <= 1e-12

    def test_blocks_match_the_fock_oracle_block_by_block(self):
        # each unit-weight block's herald probability, table and coincidences
        # against the 8-mode pipeline's, at 6 pairs on two settings
        det = DetectorModel(efficiency=0.2, per_mode=EDGE_EFFICIENCIES)
        for settings in (("z", "z"), ("y", "x")):
            layout = build_paper_circuit(0.3, 0.7, settings)
            blocks = heralded_blocks(0.3, 0.7, det, 6, settings)
            for n in range(7):
                ens = oracles.herald(layout.run(pair_term(n)), det)
                heralded = blocks[n, True]
                assert heralded.herald == pytest.approx(ens.probability, rel=1e-12, abs=0.0)
                if ens.probability > 0.0:
                    assert_tables_match(number_table(heralded), oracles.number_table(ens, det))
                    assert np.abs(
                        postselect_two_qubit(heralded) - oracles.postselect_two_qubit(ens, det)
                    ).max() <= 1e-12


class TestArmTotals:
    """arm_totals against plain sums over the occupation dict and over the Fock oracle's kets."""

    def test_matches_dict_sums(self):
        # all nine settings, both herald kinds, 2-8 pairs, a dead and a perfect output detector
        rng = np.random.default_rng(2003)
        for trial in range(18):
            settings, max_pairs = ALL_SETTINGS[trial % 9], 2 + trial % 7
            t1, t2 = (float(t) for t in rng.uniform(0.05, 0.95, 2))
            heralds = rng.permutation([1.0, *rng.uniform(0.05, 1.0, 3)]).tolist()
            outputs = rng.permutation([0.0, 1.0, *rng.uniform(0.05, 0.95, 2)]).tolist()
            spdc = SpdcParams(tau=float(rng.uniform(0.15, 0.35)), max_pairs=max_pairs,
                              visibility=float(rng.uniform(0.8, 1.0)))
            lossy, perfect = (
                DetectorModel(efficiency=0.4, resolving=("threshold", "number")[trial // 9],
                              per_mode={**dict(zip(HERALD_NAMES, heralds)),
                                        **dict(zip(OUTPUT_NAMES, etas))})
                for etas in (outputs, [1.0] * 4)
            )
            blocks = heralded_blocks(t1, t2, lossy, max_pairs, settings)
            # one table shape for every block, the distinguishable one included
            assert {b.table.shape for b in blocks.values()} == {(max_pairs + 1,) * 4}
            heralded = reweight_blocks(blocks, spdc)
            totals = arm_totals(heralded.table) / heralded.herald
            table = number_table(heralded)
            by_arm = defaultdict(list)
            for (n1h, n1v, n2h, n2v), p in table.items():
                by_arm[n1h + n1v, n2h + n2v].append(p)
            want = np.zeros_like(totals)
            for cell, ps in by_arm.items():
                want[cell] = math.fsum(ps)
            assert (np.abs(totals - want) <= 1e-14 * want).all()
            p11 = oracles.one_photon_per_arm(table)
            assert totals[1, 1] == pytest.approx(p11, rel=1e-14, abs=0.0)
            clicks = math.fsum(p for (a, b, c, d), p in table.items() if a + b and c + d)
            assert totals[1:, 1:].sum() == pytest.approx(clicks, rel=1e-14, abs=0.0)
            # P_direct is P(1;1) before output loss: that of perfect output detectors
            p_direct = heralded.direct / heralded.herald
            before_loss = number_table(reweight_blocks(
                heralded_blocks(t1, t2, perfect, max_pairs, settings), spdc))
            p11_before_loss = oracles.one_photon_per_arm(before_loss)
            assert p_direct == pytest.approx(p11_before_loss, rel=1e-14, abs=0.0)
            ensemble = oracles.heralded_ensemble(t1, t2, spdc, lossy, settings)
            assert p_direct == pytest.approx(
                oracles.one_photon_per_arm_before_loss(ensemble), rel=1e-14, abs=0.0
            )


def test_heralded_block_is_plain_data():
    # the joint probabilities of a block, nothing computed on access
    zero = HeraldedBlock(0.0, np.zeros((1, 1, 1, 1)), 0.0, np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError, match="zero herald probability"):
        number_table(zero)
    with pytest.raises(ValueError, match="zero coincidence probability"):
        postselect_two_qubit(zero)
