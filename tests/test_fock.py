import itertools
import math
from collections import defaultdict

import numpy as np
import pytest

from heraldsim.detection import DetectorModel, herald_pair_terms, postselect_two_qubit
from heraldsim.elements import build_paper_circuit
from heraldsim.fock import SparseKet, apply_mode_map, vacuum
from heraldsim.metrics import PHI_PLUS

from oracles import block_layers, dense_evolve, herald, pair_term

BS_50 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
# Lossless threshold detectors: a herald pattern fires when every herald mode is occupied.
IDEAL_THRESHOLD = DetectorModel(efficiency=1.0)


def basis_ket(modes, occ):
    return SparseKet.from_amplitudes(modes, {tuple(occ): 1.0})


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ket(rng, modes, max_photons):
    amps = {}
    for _ in range(rng.integers(1, 6)):
        occ = tuple(int(n) for n in rng.integers(0, max_photons + 1, modes))
        if sum(occ) <= max_photons:
            amps[occ] = complex(rng.normal(), rng.normal())
    if not amps:
        amps[(0,) * modes] = 1.0
    return SparseKet.from_amplitudes(modes, amps).normalized()


class TestVacuum:
    def test_four_modes(self):
        v = vacuum(4)
        assert v.amplitudes == {(0, 0, 0, 0): 1.0 + 0.0j}

    def test_eight_modes_normalized(self):
        assert vacuum(8).norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_zero_photons(self):
        assert [sum(occ) for occ in vacuum(2).amplitudes] == [0]


class TestApplyModeMap:
    def test_identity_keeps_state(self):
        rng = np.random.default_rng(2)
        st = random_ket(rng, 2, 4)
        out = apply_mode_map(st, np.eye(2, dtype=complex))
        assert set(out.amplitudes) == set(st.amplitudes)
        for occ, amp in st.amplitudes.items():
            assert out.amplitudes[occ] == pytest.approx(amp, abs=1e-12)

    def test_single_photon_beam_splitter(self):
        st = basis_ket(2, (1, 0))
        out = apply_mode_map(st, BS_50)
        assert out.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert out.amplitude((0, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_hong_ou_mandel(self):
        st = basis_ket(2, (1, 1))
        out = apply_mode_map(st, BS_50)
        # dense-oracle cross-check of the bunching amplitudes
        expected = dense_evolve({(1, 1): 1.0}, BS_50)
        assert out.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-12)
        for occ in ((2, 0), (0, 2)):
            assert out.amplitude(occ) == pytest.approx(expected[occ], abs=1e-12)
        assert abs(out.amplitude((2, 0))) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_norm_preserved_random_unitaries(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            st = random_ket(rng, 3, 4)
            out = apply_mode_map(st, random_unitary(rng, 3))
            assert abs(out.norm_sq() - 1.0) <= 1e-10

    def test_composition_matches_matrix_product(self):
        # applying U then V equals applying the composed substitution U @ V
        rng = np.random.default_rng(4)
        for _ in range(10):
            st = random_ket(rng, 3, 4)
            u = random_unitary(rng, 3)
            v = random_unitary(rng, 3)
            two_step = apply_mode_map(apply_mode_map(st, u), v)
            one_step = apply_mode_map(st, u @ v)
            keys = set(two_step.amplitudes) | set(one_step.amplitudes)
            for occ in keys:
                assert two_step.amplitude(occ) == pytest.approx(
                    one_step.amplitude(occ), abs=1e-9
                )

    def test_agrees_with_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            st = random_ket(rng, 3, 3)
            u = random_unitary(rng, 3)
            mine = apply_mode_map(st, u)
            ref = dense_evolve(dict(st.amplitudes), u)
            keys = set(mine.amplitudes) | set(ref)
            for occ in keys:
                assert mine.amplitude(occ) == pytest.approx(ref.get(occ, 0.0), abs=1e-9)

    def test_six_photon_kets_on_random_isometries(self):
        # complex 4 -> 8 isometries with no zero entry, so every output
        # occupation of the photon number is reached
        rng = np.random.default_rng(13)
        for _ in range(3):
            iso = random_unitary(rng, 8)[:4]
            amps = {}
            while len(amps) < 3:
                occ = tuple(int(n) for n in rng.multinomial(6, [0.25] * 4))
                amps[occ] = complex(rng.normal(), rng.normal())
            st = SparseKet.from_amplitudes(4, amps).normalized()
            mine = apply_mode_map(st, iso)
            ref = dense_evolve(dict(st.amplitudes), iso)
            assert len(mine.amplitudes) == len(ref)
            for occ in set(mine.amplitudes) | set(ref):
                assert mine.amplitude(occ) == pytest.approx(ref.get(occ, 0.0), abs=1e-12)

    def test_rows_in_lexicographic_order(self):
        rng = np.random.default_rng(14)
        st = random_ket(rng, 3, 4)
        out = apply_mode_map(st, random_unitary(rng, 5)[:3])
        assert list(out.amplitudes) == sorted(out.amplitudes)
        assert out.occupations.shape == (len(out.values), 5)

    def test_dimension_mismatch_rejected(self):
        st = basis_ket(2, (1, 0))
        with pytest.raises(ValueError, match="inputs"):
            apply_mode_map(st, np.eye(3, dtype=complex))

    def test_non_isometric_rejected(self):
        st = basis_ket(2, (1, 0))
        with pytest.raises(ValueError, match="isometric"):
            apply_mode_map(st, np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_isometry_tolerance_is_absolute(self):
        # M M† - 1 = 8e-6 on the diagonal, which a relative tolerance of 1e-5
        # would let pass
        with pytest.raises(ValueError, match="isometric"):
            apply_mode_map(basis_ket(2, (1, 0)), math.sqrt(1.0 + 8e-6) * np.eye(2))

    def test_matrix_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            apply_mode_map(basis_ket(1, (1,)), np.ones(1, dtype=complex))

    def test_isometric_embedding(self):
        st = basis_ket(1, (2,))
        emb = np.array([[math.sqrt(0.3), math.sqrt(0.7)]], dtype=complex)
        out = apply_mode_map(st, emb)
        assert out.modes == 2
        assert abs(out.norm_sq() - 1.0) <= 1e-10
        assert out.amplitude((2, 0)) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_many_photons_in_one_mode_closed_form(self, n):
        # n photons of input mode i end in sqrt(n!/prod m_j!) prod_j M[i, j]^m_j |m>:
        # the per-photon sqrt factors must pile up to exactly this.
        rng = np.random.default_rng(40 + n)
        iso = random_unitary(rng, 4)[:2]
        for i in range(2):
            occ = [0, 0]
            occ[i] = n
            out = apply_mode_map(basis_ket(2, occ), iso)
            for m in itertools.product(range(n + 1), repeat=4):
                if sum(m) != n:
                    continue
                want = math.sqrt(math.factorial(n) / math.prod(map(math.factorial, m)))
                want *= np.prod(iso[i] ** np.array(m))
                assert abs(out.amplitude(m) - want) <= 1e-12
            assert all(sum(m) == n for m in out.amplitudes)


def pattern_probability(amps):
    return sum(abs(a) ** 2 for a in amps.values())


class TestProjection:
    # the Fock oracle's herald() groups a ket by the occupation of the four
    # herald modes; what remains of each firing pattern is one normalized component.
    def test_vacuum_all_zero_pattern(self):
        ens = herald(vacuum(8), IDEAL_THRESHOLD)
        assert ens.probability == 0.0
        assert ens.components == ()

    def test_half_probability_split(self):
        half = 1 / math.sqrt(2)
        st = SparseKet.from_amplitudes(
            8, {(1, 1, 1, 1, 1, 0, 0, 0): half, (0, 1, 1, 1, 0, 1, 0, 0): half}
        )
        ens = herald(st, IDEAL_THRESHOLD)
        assert ens.probability == pytest.approx(0.5, abs=1e-12)
        ((weight, ket),) = ens.components
        assert ket.modes == 4
        assert set(ket.amplitudes) == {(1, 0, 0, 0)}

    def test_zero_probability_gives_empty_ket(self):
        # a pattern that never occurs has no component at all
        st = basis_ket(8, (1, 1, 1, 0, 1, 0, 0, 0))
        assert herald(st, IDEAL_THRESHOLD).components == ()

    def test_completeness_over_patterns(self):
        rng = np.random.default_rng(6)
        amps = {}
        for _ in range(40):
            occ = tuple(int(n) for n in rng.integers(0, 3, 8))
            amps[occ] = complex(rng.normal(), rng.normal())
        st = SparseKet.from_amplitudes(8, amps).normalized()
        groups = defaultdict(dict)
        for occ, amp in st.amplitudes.items():
            if min(occ[:4]) >= 1:
                groups[occ[:4]][occ[4:]] = amp
        expected = sorted(groups.values(), key=pattern_probability, reverse=True)
        ens = herald(st, IDEAL_THRESHOLD)
        assert ens.probability == pytest.approx(sum(map(pattern_probability, expected)), abs=1e-12)
        assert len(ens.components) == len(expected)
        # each component is its pattern's amplitudes over the output modes, normalized
        for (weight, ket), amps in zip(ens.components, expected):
            assert weight == pytest.approx(pattern_probability(amps), abs=1e-12)
            assert set(ket.amplitudes) == set(amps)
            for rest, amp in amps.items():
                assert math.sqrt(weight) * ket.amplitude(rest) == pytest.approx(amp, abs=1e-12)


class TestHousekeeping:
    def test_pruning_threshold(self):
        st = SparseKet.from_amplitudes(1, {(0,): 1.0, (1,): 1e-16})
        assert (1,) not in st.amplitudes

    def test_normalize_zero_ket_rejected(self):
        with pytest.raises(ValueError):
            SparseKet.from_amplitudes(1, {}).normalized()

    def test_occupations_validated(self):
        with pytest.raises(ValueError, match="2 modes"):
            SparseKet.from_amplitudes(2, {(1, 0, 0): 1.0})
        with pytest.raises(ValueError, match="negative"):
            SparseKet.from_amplitudes(2, {(1, -1): 1.0})


class TestHeraldProjection:
    def test_three_pair_herald_pattern_has_product_structure(self):
        # projecting the evolved triple-pair state on one photon per herald
        # mode leaves the maximally entangled pair on the outputs, with the
        # squared constant T1 T2 R1^2 R2^2 / 2
        t1, t2 = 0.3, 0.6
        ideal = DetectorModel(efficiency=1.0, resolving="number")
        block = block_layers(herald_pair_terms(3, t1, t2, ideal))[3, True]
        prob = t1 * t2 * (1 - t1) ** 2 * (1 - t2) ** 2 / 2
        assert block.herald == pytest.approx(prob, abs=1e-12)
        assert block.table[1, 0, 1, 0] == pytest.approx(prob / 2, abs=1e-12)
        assert block.table[0, 1, 0, 1] == pytest.approx(prob / 2, abs=1e-12)
        assert block.table[1, 0, 0, 1] == 0.0 and block.table[0, 1, 1, 0] == 0.0
        rho = postselect_two_qubit(block)
        assert np.abs(rho - np.outer(PHI_PLUS, PHI_PLUS.conj())).max() <= 1e-10


class TestPruningPin:
    def test_block_sizes_at_one_splitter_pair(self):
        # the kets left after pruning at PRUNE_TOL, input mode by input mode,
        # and the heralded components of the six-pair block; without pruning,
        # amplitudes that cancel exactly stay (68 kets in the two-pair block)
        layout = build_paper_circuit(0.3, 0.6, ("z", "z"))
        blocks = [layout.run(pair_term(n)) for n in range(1, 7)]
        assert [len(b.amplitudes) for b in blocks] == [12, 64, 248, 718, 1824, 4048]
        assert len(herald(blocks[-1], DetectorModel()).components) == 220
