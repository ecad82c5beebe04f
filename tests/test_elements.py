import math

import numpy as np
import pytest

from heraldsim.elements import (
    ANALYSIS_BASES,
    ANALYSIS_SETTINGS,
    HERALD_NAMES,
    OUTPUT_NAMES,
    SOURCE_NAMES,
    beam_splitter_map,
    build_paper_circuit,
    hwp_map,
)
from heraldsim.fock import SparseKet, apply_mode_map

from oracles import dense_evolve, pair_term

# Blocks of the circuit matrix: rows per source arm (a1H a1V | a2H a2V), columns
# per detector pair in detector order (r1H r1V | r2+ r2- | t1H t1V | t2H t2V).
A1, A2 = slice(0, 2), slice(2, 4)
R1, R2, T1, T2 = slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8)
DETECTORS = HERALD_NAMES + OUTPUT_NAMES


def basis_ket(modes, occ):
    return SparseKet.from_amplitudes(modes, {tuple(occ): 1.0})


class TestBeamSplitter:
    def test_unitary(self):
        for t in (0.0, 0.17, 0.5, 0.7, 1.0):
            m = beam_splitter_map(t)
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_full_transmission_is_identity_routing(self):
        m = beam_splitter_map(1.0)
        assert m[0, 0] == pytest.approx(1.0)
        assert m[0, 1] == pytest.approx(0.0)

    def test_balanced_magnitudes(self):
        m = beam_splitter_map(0.5)
        assert np.allclose(np.abs(m), 1 / math.sqrt(2), atol=1e-12)

    def test_born_rule_at_70_percent(self):
        st = basis_ket(2, (1, 0))
        out = apply_mode_map(st, beam_splitter_map(0.7))
        assert abs(out.amplitude((1, 0))) ** 2 == pytest.approx(0.7, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter_map(1.2)
        with pytest.raises(ValueError):
            build_paper_circuit(-0.1, 0.5)

    def test_splitter_element_reflected_probability(self):
        # a V photon in arm a1 at T1 = 0.7: 70% reaches the t1 detectors, 30% r1V
        layout = build_paper_circuit(0.7, 0.4, ("x", "y"))
        out = layout.run(basis_ket(4, (0, 1, 0, 0)))
        r1v = DETECTORS.index("r1V")
        t1 = (DETECTORS.index("t1H"), DETECTORS.index("t1V"))
        p_reflected = sum(abs(a) ** 2 for occ, a in out.amplitudes.items() if occ[r1v])
        p_transmitted = sum(
            abs(a) ** 2 for occ, a in out.amplitudes.items() if any(occ[i] for i in t1)
        )
        assert p_reflected == pytest.approx(0.3, abs=1e-12)
        assert p_transmitted == pytest.approx(0.7, abs=1e-12)


class TestWavePlates:
    def test_hwp_at_zero(self):
        m = hwp_map(0.0)
        assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-15)

    def test_hwp_at_pi_over_8_maps_plus_minus_to_h_v(self):
        m = hwp_map(math.pi / 8)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        # Jones matrices act on column vectors: m.T is the substitution view
        assert np.allclose(m @ plus, [1.0, 0.0], atol=1e-12)
        assert np.allclose(m @ minus, [0.0, 1.0], atol=1e-12)

    def test_waveplates_unitary(self):
        for theta in np.linspace(0, math.pi, 7):
            m = hwp_map(theta)
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


class TestPbs:
    # The r1 analyzer is a bare PBS: the herald block of arm a1 is sqrt(R1) I.
    def test_h_goes_to_transmitted(self):
        m = build_paper_circuit(0.3, 0.6).total_matrix()
        assert m[0, R1] == pytest.approx([math.sqrt(0.7), 0.0], abs=1e-15)
        assert HERALD_NAMES[0] == "r1H"

    def test_v_goes_to_reflected(self):
        m = build_paper_circuit(0.3, 0.6).total_matrix()
        assert m[1, R1] == pytest.approx([0.0, math.sqrt(0.7)], abs=1e-15)
        assert HERALD_NAMES[1] == "r1V"

    def test_hv_pair_splits(self):
        layout = build_paper_circuit(0.0, 0.5)
        out = layout.run(basis_ket(4, (1, 1, 0, 0)))
        assert out.amplitude((1, 1, 0, 0, 0, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_plus_minus_onto_r2_ports(self):
        # the a2 herald block is sqrt(R2) HWP(pi/8): |+> -> r2+, |-> -> r2-
        m = build_paper_circuit(0.3, 0.6).total_matrix()
        block = m[A2, R2] / math.sqrt(0.4)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        assert block.T @ plus == pytest.approx([1.0, 0.0], abs=1e-12)
        assert block.T @ minus == pytest.approx([0.0, 1.0], abs=1e-12)
        assert HERALD_NAMES[2:] == ("r2+", "r2-")


class TestPlusMinusAnalyzer:
    def test_two_photon_coincidence_suppressed(self):
        # |+-> = (|HH> - |VV>)/sqrt(2): the pair never splits at the PBS
        plus_minus = apply_mode_map(
            basis_ket(2, (1, 1)), hwp_map(math.pi / 8)
        )  # rotates +/- basis onto H/V, so |1,1> here is the |+-> input
        assert abs(plus_minus.amplitude((1, 1))) <= 1e-12
        assert abs(plus_minus.amplitude((2, 0))) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )
        assert abs(plus_minus.amplitude((0, 2))) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )


class TestCircuit:
    def test_eight_detection_modes_with_names(self):
        layout = build_paper_circuit(0.5, 0.5, ("z", "z"))
        assert layout.total_matrix().shape == (len(SOURCE_NAMES), len(DETECTORS)) == (4, 8)
        assert len(set(DETECTORS)) == 8
        assert set(HERALD_NAMES).isdisjoint(OUTPUT_NAMES)

    def test_all_nine_settings_build(self):
        for a in ANALYSIS_SETTINGS:
            for b in ANALYSIS_SETTINGS:
                layout = build_paper_circuit(0.3, 0.7, (a, b))
                assert layout.settings == (a, b)

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError, match="setting"):
            build_paper_circuit(0.5, 0.5, ("z", "w"))

    def test_full_transmission_leaves_heralds_dark(self):
        layout = build_paper_circuit(1.0, 1.0, ("z", "z"))
        evolved = layout.run(pair_term(3))
        for occ in evolved.amplitudes:
            assert occ[:len(HERALD_NAMES)] == (0, 0, 0, 0)

    def test_identity_circuit_relabels_source(self):
        # T = 1 and z/z analysis: the source state reappears on the outputs
        layout = build_paper_circuit(1.0, 1.0, ("z", "z"))
        evolved = layout.run(pair_term(2))
        for occ_src, amp in pair_term(2).amplitudes.items():
            occ = (0, 0, 0, 0) + occ_src
            assert evolved.amplitude(occ) == pytest.approx(amp, abs=1e-10)

    def test_total_matrix_is_isometry(self):
        layout = build_paper_circuit(0.3, 0.7, ("x", "y"))
        m = layout.total_matrix()
        assert m.shape == (4, 8)
        assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("t1,t2", [(0.0, 0.42), (0.17, 1.0), (0.3, 0.42), (0.7, 0.0)])
    def test_block_magnitudes(self, t1, t2):
        # each arm sends R to its herald detectors and T to its output detectors
        m = build_paper_circuit(t1, t2, ("y", "x")).total_matrix()
        for arm, herald, output, t in ((A1, R1, T1, t1), (A2, R2, T2, t2)):
            reflected = np.sum(np.abs(m[arm, herald]) ** 2, axis=1)
            transmitted = np.sum(np.abs(m[arm, output]) ** 2, axis=1)
            assert reflected == pytest.approx([1 - t] * 2, abs=1e-12)
            assert transmitted == pytest.approx([t] * 2, abs=1e-12)
        assert np.abs(m[A1, R2]).max() == 0.0 and np.abs(m[A1, T2]).max() == 0.0
        assert np.abs(m[A2, R1]).max() == 0.0 and np.abs(m[A2, T1]).max() == 0.0

    @pytest.mark.parametrize(
        "settings,n_pairs",
        [(a + b, n) for a in ANALYSIS_SETTINGS for b in ANALYSIS_SETTINGS for n in (0, 1, 2, 3)],
    )
    def test_run_matches_dense_oracle(self, settings, n_pairs):
        # whole-circuit evolution against the permanent formula on the same matrix
        layout = build_paper_circuit(0.37, 0.61, tuple(settings))
        mine = layout.run(pair_term(n_pairs))
        ref = dense_evolve(dict(pair_term(n_pairs).amplitudes), layout.total_matrix())
        assert mine.modes == len(DETECTORS)
        for occ in set(mine.amplitudes) | set(ref):
            assert mine.amplitude(occ) == pytest.approx(ref.get(occ, 0.0), abs=1e-12)

    def test_input_must_be_on_source_register(self):
        layout = build_paper_circuit(0.5, 0.5)
        with pytest.raises(ValueError, match="source modes"):
            layout.run(basis_ket(3, (1, 0, 0)))

    def test_total_matrix_matches_state_evolution(self):
        layout = build_paper_circuit(0.42, 0.61, ("y", "x"))
        st = basis_ket(4, (1, 0, 0, 0))
        evolved = layout.run(st)
        m = layout.total_matrix()
        for j in range(len(DETECTORS)):
            occ = [0] * 8
            occ[j] = 1
            assert evolved.amplitude(tuple(occ)) == pytest.approx(m[0, j], abs=1e-12)


class TestAnalysisBases:
    @pytest.mark.parametrize("setting", ["x", "y", "z"])
    def test_analysis_rotates_claimed_eigenvectors_to_ports(self, setting):
        # the output blocks are sqrt(T) times the analysis map; a photon in
        # polarization v leaves with amplitudes block.T @ v on (tH, tV)
        m = build_paper_circuit(0.37, 0.61, (setting, setting)).total_matrix()
        for block in (m[A1, T1] / math.sqrt(0.37), m[A2, T2] / math.sqrt(0.61)):
            for port, polarization in enumerate(ANALYSIS_BASES[setting]):
                out = np.abs(block.T @ polarization)
                assert abs(out[port] - 1.0) <= 1e-15
                assert out[1 - port] <= 1e-15

    def test_table_is_orthonormal_bases_of_the_pauli_eigenstates(self):
        paulis = {
            "x": np.array([[0, 1], [1, 0]]),
            "y": np.array([[0, -1j], [1j, 0]]),
            "z": np.diag([1, -1]),
        }
        assert ANALYSIS_SETTINGS == tuple(ANALYSIS_BASES) == ("x", "y", "z")
        for setting, basis in ANALYSIS_BASES.items():
            assert np.abs(basis @ basis.conj().T - np.eye(2)).max() <= 1e-15
            for port, polarization in enumerate(basis):
                # the H-side port sees the +1 eigenstate, the V-side port the -1 one
                eigenvalue = polarization.conj() @ paulis[setting] @ polarization
                assert abs(eigenvalue - (1 - 2 * port)) <= 1e-15
