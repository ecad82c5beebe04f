import math
from collections import defaultdict

import numpy as np
import pytest

from heraldsim.detection import (
    COINCIDENCE_PATTERNS,
    DetectorModel,
    HeraldedBlock,
    _block_gathers,
    _fires,
    _heralding_rows,
    _photon_maps,
    _splitter_powers,
    _thinning,
    arm_totals,
    herald_classical,
    herald_pair_terms,
    number_table,
    postselect_two_qubit,
    weigh_blocks,
)
from heraldsim.elements import ANALYSIS_SETTINGS, HERALD_NAMES, OUTPUT_NAMES, build_paper_circuit
from heraldsim.experiments import ExperimentConfig, simulate_experiment
from heraldsim.fock import SparseKet, apply_mode_map
from heraldsim.metrics import PHI_PLUS, check_density_matrix, fidelity_to_phi_plus
from heraldsim.source import SpdcParams, block_keys, emission_components

import oracles
from oracles import (
    binomial_thinning,
    block_layers,
    classical_herald_probability,
    classical_occupation_distribution,
    dense_evolve,
    dense_evolve_by_arm,
    detected_number_table,
    herald_by_pattern,
    pair_term,
    postselected_state_through_loss_modes,
)

IDEAL_NUMBER_DETECTORS = DetectorModel(efficiency=1.0, resolving="number")
LOSSLESS_THRESHOLD = DetectorModel(efficiency=1.0, resolving="threshold")
PHI_PLUS_RHO = np.outer(PHI_PLUS, PHI_PLUS.conj())
# The array fields of a PairBlocks record.
BLOCK_FIELDS = ("coincidences", "lossless", "thinning", "one_count")


def block(n_pairs, t1, t2, detectors):
    """The n-pair block heralded arm by arm through the paper's circuit."""
    return block_layers(herald_pair_terms(n_pairs, t1, t2, detectors))[n_pairs, True]


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

    def test_thinning_table_is_the_loop_bit_for_bit(self):
        # the table against C(n, k) eta^k (1-eta)^(n-k) entry by entry in Python, up to
        # 30 photons, on a grid of efficiencies with 0 and 1 and on random ones
        etas = np.concatenate([np.linspace(0.0, 1.0, 41), np.random.default_rng(3302).uniform(size=20)])
        for n_max in (0, 1, 5, 30):
            for eta in etas.tolist():
                assert _thinning(n_max, eta).tobytes() == binomial_thinning(n_max, eta).tobytes(), eta

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
        assert oracles.herald_classical(ROUTE_TO_HERALDS, det) == pytest.approx(0.4 / 3, rel=1e-15)


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

    def test_three_pair_hv_and_vh_are_exact_zeros(self):
        # the three-pair block heralds Phi+ whatever the splitters and detectors: every entry of
        # its coincidences in an HV or VH row or column cancels exactly and reads 0.0, not a
        # rounding residue, on random splitters (T = 0 and 1 among them), per-detector
        # efficiencies with dead and perfect detectors and both detector kinds
        rng = np.random.default_rng(3602)
        for trial in range(200):
            t1, t2 = (float(rng.choice([0.0, 1.0]) if rng.random() < 0.1 else rng.uniform()) for _ in range(2))
            per_mode = {name: float(rng.choice([0.0, 1.0]) if rng.random() < 0.2 else rng.uniform())
                        for name in HERALD_NAMES + OUTPUT_NAMES}
            det = DetectorModel(efficiency=float(rng.uniform()), per_mode=per_mode,
                                resolving=("threshold", "number")[trial % 2])
            coincidences = herald_pair_terms(int(rng.integers(3, 9)), t1, t2, det).coincidences[3]
            assert (coincidences[1:3] == 0.0).all() and (coincidences[:, 1:3] == 0.0).all()

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
    def test_blocks_below_two_photons_per_arm_are_not_evolved(self, detectors):
        # each arm's two herald detectors need a photon each: the gathers hold the entries of
        # blocks 2 and 3 alone (1 row by 3 inputs, 3 rows by 4), and blocks 0 and 1 are exact
        # zeros of the common table shape
        _block_gathers.cache_clear()
        assert _block_gathers(3).offsets.tolist() == [0, 3, 15]
        blocks = block_layers(herald_pair_terms(3, 0.3, 0.7, detectors))
        assert blocks[3, True].herald > 0.0
        for zero in (blocks[0, True], blocks[1, True]):
            assert zero.herald == 0.0 and zero.direct == 0.0
            assert zero.table.shape == blocks[3, True].table.shape and not zero.table.any()
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
        blocks = herald_pair_terms(4, 0.3, 0.7, det)
        assert len(built) == len(set(built)) == tables
        monkeypatch.undo()
        assert blocks.lossless[4].sum() == block(4, 0.3, 0.7, det).herald > 0.0

    def test_herald_probability_monotone_in_efficiency(self):
        probs = [block(3, 0.4, 0.6, DetectorModel(efficiency=eta)).herald
                 for eta in (0.05, 0.1, 0.3, 0.6, 1.0)]
        assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))

    def test_monotone_per_mode_on_random_states(self):
        # bumping any single herald detector's efficiency never lowers the
        # herald probability, on random splitters and blocks
        rng = np.random.default_rng(12)
        for _ in range(10):
            t1, t2 = rng.uniform(0.05, 0.95, 2)
            n_pairs = int(rng.integers(2, 6))
            base_eta = {name: float(rng.uniform(0.05, 0.9)) for name in HERALD_NAMES}
            base = block(n_pairs, t1, t2, DetectorModel(efficiency=0.5, per_mode=base_eta)).herald
            for bumped in HERALD_NAMES:
                per_mode = dict(base_eta)
                per_mode[bumped] = min(1.0, per_mode[bumped] + 0.1)
                det = DetectorModel(efficiency=0.5, per_mode=per_mode)
                assert block(n_pairs, t1, t2, det).herald >= base - 1e-15

    def test_ket_without_herald_modes_rejected(self):
        with pytest.raises(ValueError, match="herald modes"):
            oracles.herald(basis_ket(3, (1, 1, 1)), LOSSLESS_THRESHOLD)

    def test_negative_max_pairs_rejected(self):
        with pytest.raises(ValueError, match="max_pairs must be non-negative"):
            herald_pair_terms(-1, 0.5, 0.5, LOSSLESS_THRESHOLD)
        (vacuum,) = block_layers(herald_pair_terms(0, 0.5, 0.5, LOSSLESS_THRESHOLD)).values()
        assert vacuum.herald == 0.0 and vacuum.table.shape == (1, 1, 1, 1)

    @pytest.mark.parametrize("t1,t2", [(-0.1, 0.5), (0.5, 1.5)])
    def test_bad_circuit_rejected(self, t1, t2):
        # the kernel checks the splitters it is given, as build_paper_circuit does
        with pytest.raises(ValueError, match="transmission"):
            herald_pair_terms(3, t1, t2, LOSSLESS_THRESHOLD)

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
        classical = block_layers(herald_pair_terms(2, 0.4, 0.6, det))[2, False]
        assert classical.herald == herald_classical(0.4, 0.6, det)
        assert classical.table.sum() == classical.herald

    def test_two_pair_leakage_closed_form(self):
        # only the |1,1;1,1> component can satisfy the four-fold condition:
        # both arm photons reflected, (H, V) split at the analyzer with
        # probability 1/2, times eta^4
        t1, t2, eta = 0.3, 0.6, 0.25
        prob = herald_classical(t1, t2, DetectorModel(efficiency=eta))
        expected = (1 / 3) * (1 - t1) ** 2 * (1 - t2) ** 2 * 0.5 * eta**4
        assert prob == pytest.approx(expected, rel=1e-10)

    def test_leaked_output_is_vacuum(self):
        classical = block_layers(herald_pair_terms(2, 0.5, 0.5, DetectorModel(efficiency=0.3)))[2, False]
        assert number_table(classical) == {(0, 0, 0, 0): 1.0}
        assert classical.direct == 0.0 and not classical.coincidences.any()

    def test_matches_enumeration_oracle(self):
        # the closed form against routing every photon through all eight
        # detectors, on random splitters (edges included), every setting,
        # both detector kinds and per-detector herald efficiencies
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
            prob = herald_classical(t1, t2, det)
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
            assert oracles.herald_classical(matrix, det) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_three_photons_in_one_arm_never_herald(self):
        # three photons on an arm's two herald detectors leave one of them a second photon
        # and the other arm's detectors one photon for two: the full 24-term permanent is
        # zero, so a product of the arms' 2x2 permanents, two photons each, misses nothing
        matrix = build_paper_circuit(0.3, 0.7, ("x", "y")).total_matrix()
        for occ in ((2, 1, 1, 0), (0, 1, 3, 0)):
            ket = basis_ket(4, occ)
            assert oracles.permutation_herald_classical(ket, matrix, LOSSLESS_THRESHOLD) == 0.0

    def test_closed_form_matches_arm_permanents(self):
        # R1^2 R2^2 / 6 times the herald efficiencies against the product of each arm's 2x2
        # permanent through the circuit, on random splitters (0 and 1 among them), every
        # setting, per-detector herald efficiencies and both detector kinds
        rng = np.random.default_rng(3201)
        for trial in range(90):
            t1, t2 = (float(rng.choice([0.0, 1.0]) if rng.random() < 0.2 else rng.uniform())
                      for _ in range(2))
            det = DetectorModel(efficiency=float(rng.uniform(0.05, 1.0)),
                                resolving=("threshold", "number")[trial % 2],
                                per_mode={name: float(rng.uniform()) for name in HERALD_NAMES})
            matrix = build_paper_circuit(t1, t2, ALL_SETTINGS[trial % 9]).total_matrix()
            want = oracles.herald_classical(matrix, det)
            assert herald_classical(t1, t2, det) == pytest.approx(want, rel=2e-15, abs=0.0)
            assert (want == 0.0) == (t1 == 1.0 or t2 == 1.0)

    def test_bad_transmission_rejected(self):
        with pytest.raises(ValueError, match="transmissions"):
            herald_classical(1.5, 0.5, LOSSLESS_THRESHOLD)


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

    def test_matches_the_dense_scan_bit_for_bit(self):
        # the table read at the counts an arm can hold against a scan of every cell of the dense
        # table: the same keys in the same order and the same values to the last bit, on six pairs
        # through perfect number-resolving detectors, where all but 21 of the 784 cells read are
        # exact zeros that stay out, and on random configs of 0-12 pairs, both detector kinds and
        # dead and perfect detectors
        rng = np.random.default_rng(3801)
        configs = [(6, 0.3, 0.7, DetectorModel(efficiency=1.0, resolving="number"),
                    SpdcParams(tau=0.2237, max_pairs=6, visibility=0.862))]
        for trial in range(60):
            max_pairs = trial % 13
            t1, t2 = (float(t) for t in rng.uniform(0.05, 0.95, 2))
            per_mode = {name: float(rng.choice([0.0, 1.0]) if rng.random() < 0.3 else rng.uniform())
                        for name in HERALD_NAMES + OUTPUT_NAMES}
            det = DetectorModel(efficiency=float(rng.uniform()), per_mode=per_mode if trial % 3 else None,
                                resolving=("threshold", "number")[trial % 2])
            spdc = SpdcParams(tau=float(rng.uniform(0.1, 0.4)), max_pairs=max_pairs,
                              visibility=float(rng.uniform(0.8, 1.0)))
            configs.append((max_pairs, t1, t2, det, spdc))
        keys = []
        for max_pairs, t1, t2, det, spdc in configs:
            heralded = weigh_blocks(herald_pair_terms(max_pairs, t1, t2, det), emission_components(spdc))
            if heralded.herald <= 0.0:
                for table in (number_table, oracles.dense_number_table):
                    with pytest.raises(ValueError, match="zero herald probability"):
                        table(heralded)
                continue
            got, want = number_table(heralded), oracles.dense_number_table(heralded)
            assert list(got) == list(want)
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
            keys.append(len(got))
        assert keys[0] == 21


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
        blocks = herald_pair_terms(4, 0.7, 0.7, det)
        check_density_matrix(postselect_two_qubit(weigh_blocks(blocks, emission_components(spdc))))

    def test_four_pair_background_is_psi_minus_type(self):
        from heraldsim.experiments import bell_diagonal

        spdc = SpdcParams(tau=0.4, max_pairs=4, visibility=0.862)
        blocks = herald_pair_terms(4, 0.3, 0.3, DetectorModel())
        rho = postselect_two_qubit(weigh_blocks(blocks, emission_components(spdc)))
        diag = bell_diagonal(rho)
        background = {k: v for k, v in diag.items() if k != "phi+"}
        assert max(background, key=background.get) == "psi-"

    def test_fidelity_drops_when_four_pair_included(self):
        fids = {}
        for mp in (3, 4):
            blocks = herald_pair_terms(mp, 0.5, 0.5, DetectorModel())
            spdc = SpdcParams(tau=0.35, max_pairs=mp, visibility=0.862)
            rho = postselect_two_qubit(weigh_blocks(blocks, emission_components(spdc)))
            fids[mp] = fidelity_to_phi_plus(rho)
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


class TestOutputLoss:
    def test_commutes_with_the_herald(self):
        # output loss only thins the photons that reach t1/t2: the herald and
        # P_direct are those of perfect output detectors, bit for bit, and the
        # table is the perfect-output table thinned detector by detector
        rng = np.random.default_rng(1995)
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
            max_pairs = int(rng.integers(2, 7))
            got_blocks, ref_blocks = (herald_pair_terms(max_pairs, t1, t2, det) for det in (lossy, perfect))
            assert got_blocks.lossless.tobytes() == ref_blocks.lossless.tobytes()
            for got, ref in zip(block_layers(got_blocks).values(), block_layers(ref_blocks).values()):
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
        # the Kraus-route oracle's arm kets: each arm's 2 -> 4 isometry on every input of up to 8
        # photons, amplitude by amplitude at the output occupations that can herald, with the same
        # amplitudes pruned, in the rows of the kernels
        for t1, t2 in ((0.3, 0.7), (0.5, 0.5), (0.9, 0.15)):
            matrix = build_paper_circuit(t1, t2, (setting, setting)).matrix
            arms = [matrix[0:2][:, [0, 1, 4, 5]], matrix[2:4][:, [2, 3, 6, 7]]]
            maps = _photon_maps(np.array([[arm[:, :2], arm[:, 2:]] for arm in arms]), 8)
            for n in range(2, 9):
                rows = oracles.heralding_rows(n)
                assert rows == list(zip(*(r.tolist() for r in _heralding_rows(n))))
                assert set(rows) == {(o0, o1) for o0 in range(n - 1) for o1 in range(n - 1 - o0)}
                kets = oracles.arm_kets(maps, n)
                for arm, iso in enumerate(arms):
                    photons = pair_term(n).occupations[:, 2 * arm:2 * arm + 2]
                    assert sorted(photons.tolist()) == [[a, n - a] for a in range(n + 1)]
                    for k, occ in enumerate(photons.tolist()):
                        evolved = apply_mode_map(basis_ket(2, occ), iso).amplitudes
                        want = {key: amp for key, amp in evolved.items() if key[2] + key[3] <= n - 2}
                        got = {
                            (h0, n - o0 - o1 - h0, o0, o1): kets[arm, r, k, h0]
                            for r, (o0, o1) in enumerate(rows)
                            for h0 in range(n + 1 - o0 - o1) if kets[arm, r, k, h0] != 0.0
                        }
                        assert set(got) == set(want)
                        for key, amp in want.items():
                            assert abs(got[key] - amp) <= 1e-12

    def test_hong_ou_mandel_zero_is_exact(self):
        # arm 2's HWP(pi/8) herald analyzer is a balanced splitter: |1, 1> never gives an
        # r2+ r2- coincidence, an exact zero rather than rounding residue, in the kernels' herald
        # maps and in the oracle's kets through a T = 0 circuit
        maps = _block_gathers(2).maps
        assert maps[2, 1, 1] == 0.0
        assert abs(maps[2, 1, 0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        matrix = build_paper_circuit(0.0, 0.0).matrix
        assert not matrix.imag.any()
        arms = [matrix.real[0:2][:, [0, 1, 4, 5]], matrix.real[2:4][:, [2, 3, 6, 7]]]
        # the one output occupation of two photons that can herald: the outputs empty
        kets = oracles.arm_kets(_photon_maps(np.array([[arm[:, :2], arm[:, 2:]] for arm in arms]), 2), 2)
        assert pair_term(2).occupations[1, 2:].tolist() == [1, 1]  # arm 2's input k = 1
        assert kets.shape == (2, 1, 3, 3)
        # at T = 0 every photon reaches the herald at unit amplitude: arm 2's ket is the herald map
        assert np.array_equal(kets[1, 0, 1], maps[2, 1])

    def test_splitters_scale_each_row(self):
        # a row of m herald photons takes its splitter as R^m T^(n - m): each block's lossless
        # layer at (T1, T2) is its layer at (T1', T2') times the ratio of those factors, arm 1's
        # on the rows and arm 2's on the columns
        rng = np.random.default_rng(3101)
        det = DetectorModel(efficiency=0.4, resolving="number")
        o0, o1 = _heralding_rows(8)
        for _ in range(12):
            t1, t2, u1, u2 = (float(t) for t in rng.uniform(0.05, 0.95, 4))
            got, ref = (herald_pair_terms(8, a, b, det).lossless for a, b in ((t1, t2), (u1, u2)))
            for n in range(2, 9):
                m = n - o0 - o1
                scale = [((1 - t) / (1 - u)) ** m * (t / u) ** (n - m) for t, u in ((t1, u1), (t2, u2))]
                want = ref[n] * np.outer(*scale)
                assert ((got[n] == 0.0) == (want == 0.0)).all()
                assert np.abs(got[n] - want).max() <= 1e-13 * want.max()

    def test_splitter_powers_are_pythons(self):
        # T^m and R^m are Python's powers of the splitter amplitudes, bit for bit, T = 0 and
        # 1 included: numpy's vector power can round an ulp away from them
        rng = np.random.default_rng(3402)
        for t in (0.0, 1.0, 0.5, *rng.uniform(0.0, 1.0, 20).tolist()):
            want = [[math.sqrt(x) ** (2 * m) for m in range(21)] for x in (t, 1.0 - t)]
            assert _splitter_powers(t, 21).tolist() == want


def cache_arrays(gathers):
    """The array fields of a ``_block_gathers`` record, by name."""
    return {name: value for name, value in gathers._asdict().items() if isinstance(value, np.ndarray)}


class TestSplitterFreeKets:
    """The kernels' one process cache (``_block_gathers``): everything that depends on the truncation
    alone, free of splitters and detectors, from arm 2's HWP(pi/8) herald maps and every block's
    binomial coefficients and gathers to the rows, masks and count cells that the readers index with."""

    def test_cold_and_warm_kets_give_identical_blocks(self):
        # random splitters, both detector kinds and per-detector efficiencies with dead and
        # perfect detectors: blocks and experiment results from a cache built for the call and
        # from a cache built by an earlier call agree to the last bit, as do the caches built twice
        rng = np.random.default_rng(2801)
        for trial in range(12):
            t1, t2 = (float(t) for t in rng.uniform(0.05, 0.95, 2))
            per_mode = {name: float(rng.choice([0.0, 1.0]) if rng.random() < 0.3 else rng.uniform())
                        for name in HERALD_NAMES + OUTPUT_NAMES}
            det = DetectorModel(efficiency=float(rng.uniform()), per_mode=per_mode,
                                resolving=("threshold", "number")[trial % 2])
            max_pairs = int(rng.integers(2, 9))
            # simulate needs a coincidence (three pairs or more), a live herald and one nonzero
            # efficiency per output arm
            spdc = SpdcParams(tau=float(rng.uniform(0.15, 0.35)), max_pairs=max(max_pairs, 3),
                              visibility=float(rng.uniform(0.8, 1.0)))
            heralds = {name: per_mode[name] or 1.0 for name in HERALD_NAMES}
            config = ExperimentConfig(t1=t1, t2=t2, spdc=spdc, detectors=DetectorModel(
                efficiency=det.efficiency, resolving=det.resolving, per_mode=heralds))
            _block_gathers.cache_clear()
            cold = herald_pair_terms(max_pairs, t1, t2, det)
            cold_cache = _block_gathers(max_pairs)
            # the cache built again, then calls on a warm cache
            _block_gathers.cache_clear()
            warm = herald_pair_terms(max_pairs, t1, t2, det)
            warm_cache = _block_gathers(max_pairs)
            assert warm_cache is not cold_cache
            assert warm_cache.keys == cold_cache.keys
            assert {name: a.tobytes() for name, a in cache_arrays(cold_cache).items()} == {
                name: a.tobytes() for name, a in cache_arrays(warm_cache).items()}
            again = herald_pair_terms(max_pairs, t1, t2, det)
            assert _block_gathers.cache_info().misses == 1
            for other in (warm, again):
                for name in BLOCK_FIELDS:
                    assert getattr(cold, name).tobytes() == getattr(other, name).tobytes(), name
            _block_gathers.cache_clear()
            cold_result, warm_result = simulate_experiment(config), simulate_experiment(config)
            assert _block_gathers.cache_info().misses == 1
            assert list(cold_result.table.items()) == list(warm_result.table.items())
            assert cold_result.metrics == warm_result.metrics
            for name in ("reduction", "rho_post"):
                assert getattr(cold_result, name).tobytes() == getattr(warm_result, name).tobytes()

    def test_block_kets_do_not_depend_on_max_pairs(self):
        # random truncations: the herald kets of up to n photons and the coefficients, rows,
        # inputs and gathers of blocks 2..n are the same bits built for N = n or for N = n + 4
        rng = np.random.default_rng(3401)
        for n in rng.integers(2, 9, 6).tolist():
            small, large = _block_gathers(n), _block_gathers(n + 4)
            assert large.maps[:n + 1, :n + 1, :n + 1].tobytes() == small.maps.tobytes()
            entries, side = small.offsets[-1], (n + 1, n + 5)
            assert small.offsets.tolist() == large.offsets[:n].tolist()
            assert small.starts.tolist() == large.starts[:n - 1].tolist()
            names = ("row", "split", "gram", "gram_at", "slots")
            for name in names:
                got, want = getattr(large, name), getattr(small, name)
                assert got.dtype == want.dtype and got.shape[:-1] == want.shape[:-1]
            row, split, gram, gram_at, slots = (getattr(large, name)[..., :entries] for name in names)
            assert row.tobytes() == small.row.tobytes() and slots[0].tobytes() == small.slots[0].tobytes()
            assert gram.tobytes() == small.gram.tobytes()
            # each piece's slots run over the inputs of all blocks, which differ in number
            inputs = [x.slots[1, 0] - x.slots[0, 0] for x in (small, large)]
            assert (slots - slots[0] == np.arange(10)[:, None] * inputs[1]).all()
            assert (small.slots - small.slots[0] == np.arange(10)[:, None] * inputs[0]).all()
            # the indices into tables over (n, m), (m, h) and, after the side^2 entries of the
            # latter, (m, p, p'), each over its own side, wherever they meet a coefficient that is
            # not zero
            first_at, second_at = gram_at[:2], gram_at[2:] - side[1] ** 2
            for got, want, live in ((split, small.split, True),
                                    (first_at, small.gram_at[:2], small.gram[:2] != 0.0),
                                    (second_at, small.gram_at[2:] - side[0] ** 2, small.gram[2:] != 0.0)):
                got, want = (np.where(live, np.unravel_index(x, (size,) * 3), 0)
                             for x, size in ((got, side[1]), (want, side[0])))
                assert np.array_equal(got, want)

    def test_rows_of_a_block_lead_every_larger_block(self):
        # a call builds its per-row tables for its largest block and slices them
        for big in range(2, 13):
            rows = _heralding_rows(big)
            for n in range(big + 1):
                small = _heralding_rows(n)
                assert len(small[0]) == max(n * (n - 1) // 2, 0)
                for a, b in zip(small, rows):
                    assert np.array_equal(a, b[:len(a)])

    def test_kets_are_read_only(self):
        # every caller in the process shares the cache of one truncation
        cache = _block_gathers(5)
        assert cache.maps.shape == (6, 6, 6)
        entries = sum(n * (n - 1) // 2 * (n + 1) for n in range(2, 6))
        shapes = {name: x.shape for name, x in cache_arrays(cache).items()}
        assert [shapes[name] for name in ("row", "split", "gram", "gram_at", "slots")] == (
            [(entries,)] * 2 + [(7, entries)] * 2 + [(10, entries)])
        assert shapes["rows"] == (2, 10)
        for x in cache_arrays(cache).values():
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0

    def test_cache_holds_what_the_kernels_rebuilt_per_call(self):
        # the rows, the layer keys, the masks of the herald weights and splitter factors and the
        # Kraus neighbours, and the count cells of the readers, each against its definition
        for max_pairs in range(0, 9):
            cache, side = _block_gathers(max_pairs), max_pairs + 1
            o0, o1 = _heralding_rows(max_pairs)
            assert np.array_equal(cache.rows, [o0, o1]) and cache.keys == block_keys(max_pairs)
            assert np.array_equal(cache.cells, o0 * side + o1)
            gap = np.subtract.outer(np.arange(side), np.arange(side))
            assert np.array_equal(cache.lower, gap >= 0) and np.array_equal(cache.below, gap.clip(0))
            assert np.array_equal(cache.neighbours, (o0 + o1)[1:] == (o0 + o1)[:-1])
            counts = [(a, b) for a in range(side) for b in range(side) if a + b <= max_pairs]
            assert list(zip(*cache.count_rows.tolist())) == counts
            assert cache.count_cells.tolist() == [a * side + b for a, b in counts]

    def test_cache_through_twenty_pairs_fits_in_four_megabytes(self):
        # about 3.8 MB: one entry per (block, row, input), 22 thousand through 20 pairs, and
        # arrays of one entry per row or per count cell
        assert sum(x.nbytes for x in cache_arrays(_block_gathers(20)).values()) < 4e6
        _block_gathers.cache_clear()
        _block_gathers.cache_clear()

    def test_cold_call_builds_maps_once_and_warm_call_none(self, monkeypatch):
        # a cold call builds the herald maps once, up to its largest block, and the gathers of
        # each block that can herald; a call on the same truncation at other splitters and
        # detectors builds neither, and a warm simulate reads the rows and layer keys from the
        # cache: it calls neither ``_heralding_rows`` nor ``block_keys``, and its emission
        # weights build the layer keys once
        built, rows, keys, emitted = [], [], [], []

        def counting(function, calls, at, module="detection"):
            def counted(*args):
                calls.append(args[at])
                return function(*args)
            monkeypatch.setattr(f"heraldsim.{module}.{function.__name__}", counted)

        counting(_photon_maps, built, 1)
        counting(_heralding_rows, rows, 0)
        counting(block_keys, keys, 0)
        counting(block_keys, emitted, 0, module="source")
        _block_gathers.cache_clear()
        herald_pair_terms(6, 0.3, 0.7, DetectorModel())
        assert built == [6] and _block_gathers.cache_info().misses == 1
        assert rows == [6] and keys == [6]
        herald_pair_terms(6, 0.55, 0.2, DetectorModel(efficiency=0.4, resolving="number"))
        assert built == [6] and _block_gathers.cache_info().misses == 1
        spdc = SpdcParams(tau=0.25, max_pairs=6, visibility=0.9)
        simulate_experiment(ExperimentConfig(t1=0.4, t2=0.6, spdc=spdc))
        assert built == [6] and rows == [6] and keys == [6] and _block_gathers.cache_info().misses == 1
        assert emitted == [6]
        herald_pair_terms(5, 0.3, 0.7, DetectorModel())
        assert built == [6, 5] and rows == [6, 5] and keys == [6, 5]


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
        # every block 0..5 against its permanent-formula ket through the circuit of each setting,
        # heralded pattern by pattern.  The analyzers act after the herald, each on its arm's
        # output photons alone, so the herald probability and each arm's photon number before
        # output loss are those of the kernels' z, z at every setting; at z, z the number table
        # and the post-selected state are too
        det = DetectorModel(efficiency=0.4, resolving=resolving, per_mode=EDGE_EFFICIENCIES)
        matrix = build_paper_circuit(0.35, 0.55, settings).matrix
        blocks = herald_pair_terms(5, 0.35, 0.55, det)
        total = sum(_heralding_rows(5))
        for b, ((n, coherent), heralded) in enumerate(block_layers(blocks).items()):
            if not coherent:
                continue
            state = dense_evolve_by_arm(dict(pair_term(n).amplitudes), matrix)
            want = herald_by_pattern(state, det.etas(HERALD_NAMES), resolving)
            assert heralded.herald == pytest.approx(sum(w for w, _ in want), rel=1e-12, abs=0.0)
            if not want:
                assert heralded.herald == 0.0 and not heralded.table.any()
                continue
            by_arm = np.zeros((4, 4))
            np.add.at(by_arm, (total[:, None], total), blocks.lossless[b])
            want_by_arm = np.zeros((4, 4))
            for weight, amplitudes in want:
                for (t1h, t1v, t2h, t2v), amp in amplitudes.items():
                    want_by_arm[t1h + t1v, t2h + t2v] += weight * abs(amp) ** 2
            assert np.abs(by_arm - want_by_arm).max() <= 1e-12 * want_by_arm.max()
            if settings != ("z", "z"):
                continue
            assert_tables_match(number_table(heralded),
                                detected_number_table(want, det.etas(OUTPUT_NAMES)))
            if n <= 4 and np.trace(heralded.coincidences).real > 0.0:
                rho = postselected_state_through_loss_modes(want, det.etas(OUTPUT_NAMES))
                assert np.abs(postselect_two_qubit(heralded) - rho).max() <= 1e-12

    def test_kernels_match_the_kraus_route(self):
        # the closed forms against the kernel they replaced: kets from binomial-sum photon maps,
        # Gram tensors over every pair of inputs and the coincidences of the detected kets, on
        # random splitters, both detector kinds, 0-9 pairs and per-detector efficiencies with
        # dead and perfect detectors among them.  Tables are compared on the scale of their
        # largest entry: an entry far below it is a difference of much larger terms, and carries
        # their rounding
        rng = np.random.default_rng(2511)
        for trial in range(36):
            t1, t2 = (float(t) for t in rng.uniform(0.05, 0.95, 2))
            per_mode = {name: float(rng.choice([0.0, 1.0]) if rng.random() < 0.3 else rng.uniform())
                        for name in HERALD_NAMES + OUTPUT_NAMES}
            det = DetectorModel(efficiency=float(rng.uniform()), resolving=("threshold", "number")[trial % 2],
                                per_mode=per_mode)
            max_pairs = int(rng.integers(0, 10))
            got_blocks, want_blocks = (herald_pair_terms(max_pairs, t1, t2, det),
                                       oracles.kraus_route_blocks(max_pairs, t1, t2, det))
            assert got_blocks.keys == want_blocks.keys
            for got, want in zip(block_layers(got_blocks).values(), block_layers(want_blocks).values()):
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

    def test_closed_form_matches_both_oracles(self):
        # 100 random configs: 2-12 pairs, splitters with T = 0 and 1 among them, per-detector
        # efficiencies with dead and perfect detectors and both detector kinds.  Every field of
        # the record against the Kraus route on the scale of its largest entry, with the same zero
        # pattern in the lossless layers, and one block per config, of 2-8 pairs, against the
        # 8-mode pipeline
        rng = np.random.default_rng(3601)
        for trial in range(100):
            t1, t2 = (float(rng.choice([0.0, 1.0]) if rng.random() < 0.2 else rng.uniform())
                      for _ in range(2))
            per_mode = {name: float(rng.choice([0.0, 1.0]) if rng.random() < 0.3 else rng.uniform())
                        for name in HERALD_NAMES + OUTPUT_NAMES}
            det = DetectorModel(efficiency=float(rng.uniform()), per_mode=per_mode,
                                resolving=("threshold", "number")[trial % 2])
            max_pairs = int(rng.integers(2, 13))
            got = herald_pair_terms(max_pairs, t1, t2, det)
            want = oracles.kraus_route_blocks(max_pairs, t1, t2, det)
            assert got.keys == want.keys
            assert ((got.lossless == 0.0) == (want.lossless == 0.0)).all()
            for name in BLOCK_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert np.abs(a - b).max(initial=0.0) <= 1e-14 * np.abs(b).max(initial=0.0), name
            n = min(2 + trial % 7, max_pairs)
            heralded = block_layers(got)[n, True]
            ens = oracles.herald(build_paper_circuit(t1, t2).run(pair_term(n)), det)
            assert heralded.herald == pytest.approx(ens.probability, rel=1e-12, abs=1e-300)
            if ens.probability > 0.0:
                assert_tables_match(number_table(heralded), oracles.number_table(ens, det))
                if np.trace(heralded.coincidences).real > 0.0:
                    rho = oracles.postselect_two_qubit(ens, det)
                    assert np.abs(postselect_two_qubit(heralded) - rho).max() <= 1e-12

    def test_packed_kernels_match_both_oracles(self):
        # random splitters, per-detector efficiencies and both detector kinds; pair blocks up to
        # 10 pairs against the Kraus route, and one pair block per trial against the 8-mode
        # pipeline.  Tables are compared on the scale of their largest entry, as in
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
            layout = build_paper_circuit(t1, t2)
            blocks = block_layers(herald_pair_terms(10, t1, t2, det))
            kraus = block_layers(oracles.kraus_route_blocks(10, t1, t2, det))
            for got, want in zip(blocks.values(), kraus.values()):
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
            assert blocks[n, True].herald == pytest.approx(ens.probability, rel=1e-12, abs=0.0)
            got, want = number_table(blocks[n, True]), oracles.number_table(ens, det)
            assert list(got) == sorted(want)
            largest = max(want.values())
            assert max(abs(got[key] - p) for key, p in want.items()) <= 1e-13 * largest
            if np.trace(blocks[n, True].coincidences).real > 0.0:
                rho = oracles.postselect_two_qubit(ens, det)
                assert np.abs(postselect_two_qubit(blocks[n, True]) - rho).max() <= 1e-12

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
            blocks = herald_pair_terms(max_pairs, 0.35, 0.55, det)
            table = number_table(weigh_blocks(blocks, emission_components(spdc)))
            ens = oracles.heralded_ensemble(0.35, 0.55, spdc, det)
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
                blocks = herald_pair_terms(max_pairs, 0.35, 0.55, det)
                rho = postselect_two_qubit(weigh_blocks(blocks, emission_components(spdc)))
                check_density_matrix(rho)
                ens = oracles.heralded_ensemble(0.35, 0.55, spdc, det)
                if max_pairs == 6:
                    want = oracles.postselect_two_qubit(ens, det)
                else:
                    components = [(w, dict(k.amplitudes)) for w, k in ens.components]
                    want = postselected_state_through_loss_modes(components, det.etas(OUTPUT_NAMES))
                assert np.abs(rho - want).max() <= 1e-12

    def test_blocks_match_the_fock_oracle_block_by_block(self):
        # each unit-weight block's herald probability, table and coincidences
        # against the 8-mode pipeline's, at 6 pairs
        det = DetectorModel(efficiency=0.2, per_mode=EDGE_EFFICIENCIES)
        layout = build_paper_circuit(0.3, 0.7)
        blocks = block_layers(herald_pair_terms(6, 0.3, 0.7, det))
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
        # both herald kinds, 2-8 pairs, a dead and a perfect output detector
        rng = np.random.default_rng(2003)
        for trial in range(18):
            max_pairs = 2 + trial % 7
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
            blocks = herald_pair_terms(max_pairs, t1, t2, lossy)
            # one table shape for every block, the distinguishable one included
            assert {b.table.shape for b in block_layers(blocks).values()} == {(max_pairs + 1,) * 4}
            heralded = weigh_blocks(blocks, emission_components(spdc))
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
            before_loss = number_table(weigh_blocks(
                herald_pair_terms(max_pairs, t1, t2, perfect), emission_components(spdc)))
            p11_before_loss = oracles.one_photon_per_arm(before_loss)
            assert p_direct == pytest.approx(p11_before_loss, rel=1e-14, abs=0.0)
            ensemble = oracles.heralded_ensemble(t1, t2, spdc, lossy)
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
