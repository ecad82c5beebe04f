import math

import numpy as np
import pytest

from heraldsim.fock import (
    Mode,
    ModeMap,
    ModeRegister,
    SparseKet,
    apply_mode_map,
    basis_ket,
    register_of,
    split_by_occupation,
    tensor,
    vacuum,
)

from oracles import dense_evolve

BS_50 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def two_mode_register():
    return register_of(("a", "H"), ("b", "H"))


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ket(rng, register, max_photons):
    amps = {}
    for _ in range(rng.integers(1, 6)):
        occ = tuple(int(n) for n in rng.integers(0, max_photons + 1, register.size))
        if sum(occ) <= max_photons:
            amps[occ] = complex(rng.normal(), rng.normal())
    if not amps:
        amps[(0,) * register.size] = 1.0
    return SparseKet.from_amplitudes(register, amps).normalized()


class TestRegister:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            register_of(("a", "H"), ("a", "H"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ModeRegister(())

    def test_bad_polarization_rejected(self):
        with pytest.raises(ValueError):
            register_of(("a", "D"))


class TestVacuum:
    def test_four_modes(self):
        reg = register_of(("a", "H"), ("a", "V"), ("b", "H"), ("b", "V"))
        v = vacuum(reg)
        assert v.amplitudes == {(0, 0, 0, 0): 1.0 + 0.0j}

    def test_eight_modes_normalized(self):
        reg = register_of(*((f"m{i}", "H") for i in range(8)))
        assert vacuum(reg).norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_zero_photons(self):
        assert vacuum(two_mode_register()).total_photons() == 0


class TestTensor:
    def test_vacuum_tensor_vacuum(self):
        a = vacuum(register_of(("a", "H")))
        b = vacuum(register_of(("b", "H")))
        joined = tensor(a, b)
        assert joined.amplitudes == {(0, 0): 1.0 + 0.0j}

    def test_norms_multiply(self):
        rng = np.random.default_rng(1)
        a = random_ket(rng, register_of(("a", "H"), ("a", "V")), 3)
        b = random_ket(rng, register_of(("b", "H")), 2)
        assert tensor(a, b).norm_sq() == pytest.approx(a.norm_sq() * b.norm_sq(), abs=1e-12)

    def test_occupations_concatenate(self):
        a = basis_ket(register_of(("x", "H")), (1,))
        b = basis_ket(register_of(("y", "H")), (2,))
        assert tensor(a, b).amplitudes == {(1, 2): 1.0 + 0.0j}

    def test_label_collision_rejected(self):
        a = vacuum(register_of(("a", "H")))
        with pytest.raises(ValueError, match="collision"):
            tensor(a, a)


class TestApplyModeMap:
    def test_identity_keeps_state(self):
        rng = np.random.default_rng(2)
        st = random_ket(rng, two_mode_register(), 4)
        out = apply_mode_map(st, ModeMap(np.eye(2, dtype=complex)))
        assert set(out.amplitudes) == set(st.amplitudes)
        for occ, amp in st.amplitudes.items():
            assert out.amplitudes[occ] == pytest.approx(amp, abs=1e-12)

    def test_single_photon_beam_splitter(self):
        st = basis_ket(two_mode_register(), (1, 0))
        out = apply_mode_map(st, ModeMap(BS_50))
        assert out.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert out.amplitude((0, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_hong_ou_mandel(self):
        st = basis_ket(two_mode_register(), (1, 1))
        out = apply_mode_map(st, ModeMap(BS_50))
        # dense-oracle cross-check of the bunching amplitudes
        expected = dense_evolve({(1, 1): 1.0}, BS_50)
        assert out.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-12)
        for occ in ((2, 0), (0, 2)):
            assert out.amplitude(occ) == pytest.approx(expected[occ], abs=1e-12)
        assert abs(out.amplitude((2, 0))) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_norm_preserved_random_unitaries(self):
        rng = np.random.default_rng(3)
        reg = register_of(("a", "H"), ("b", "H"), ("c", "H"))
        for _ in range(20):
            st = random_ket(rng, reg, 4)
            out = apply_mode_map(st, ModeMap(random_unitary(rng, 3)))
            assert abs(out.norm_sq() - 1.0) <= 1e-10

    def test_composition_matches_matrix_product(self):
        # applying U then V equals applying the composed substitution U @ V
        rng = np.random.default_rng(4)
        reg = register_of(("a", "H"), ("b", "H"), ("c", "H"))
        for _ in range(10):
            st = random_ket(rng, reg, 4)
            u = random_unitary(rng, 3)
            v = random_unitary(rng, 3)
            two_step = apply_mode_map(apply_mode_map(st, ModeMap(u)), ModeMap(v))
            one_step = apply_mode_map(st, ModeMap(u @ v))
            keys = set(two_step.amplitudes) | set(one_step.amplitudes)
            for occ in keys:
                assert two_step.amplitude(occ) == pytest.approx(
                    one_step.amplitude(occ), abs=1e-9
                )

    def test_agrees_with_dense_oracle(self):
        rng = np.random.default_rng(5)
        reg = register_of(("a", "H"), ("b", "H"), ("c", "H"))
        for _ in range(50):
            st = random_ket(rng, reg, 3)
            u = random_unitary(rng, 3)
            mine = apply_mode_map(st, ModeMap(u))
            ref = dense_evolve(dict(st.amplitudes), u)
            keys = set(mine.amplitudes) | set(ref)
            for occ in keys:
                assert mine.amplitude(occ) == pytest.approx(ref.get(occ, 0.0), abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        st = basis_ket(two_mode_register(), (1, 0))
        with pytest.raises(ValueError, match="inputs"):
            apply_mode_map(st, ModeMap(np.eye(3, dtype=complex)))

    def test_non_isometric_rejected(self):
        st = basis_ket(two_mode_register(), (1, 0))
        with pytest.raises(ValueError, match="isometric"):
            apply_mode_map(st, ModeMap(np.array([[1.0, 0.0], [1.0, 0.0]])))

    def test_isometric_embedding(self):
        st = basis_ket(register_of(("a", "H")), (2,))
        emb = ModeMap(
            np.array([[math.sqrt(0.3), math.sqrt(0.7)]], dtype=complex),
            (Mode("t", "H"), Mode("r", "H")),
        )
        out = apply_mode_map(st, emb)
        assert out.register == register_of(("t", "H"), ("r", "H"))
        assert abs(out.norm_sq() - 1.0) <= 1e-10
        assert out.amplitude((2, 0)) == pytest.approx(0.3, abs=1e-12)

    def test_rectangular_map_needs_output_labels(self):
        st = basis_ket(register_of(("a", "H")), (1,))
        with pytest.raises(ValueError, match="output labels"):
            apply_mode_map(st, ModeMap(np.array([[0.6, 0.8]], dtype=complex)))

    def test_output_label_count_checked(self):
        with pytest.raises(ValueError, match="output label count"):
            ModeMap(np.eye(2, dtype=complex), (Mode("t", "H"),))


def pattern_probability(amps):
    return sum(abs(a) ** 2 for a in amps.values())


class TestProjection:
    def test_vacuum_all_zero_pattern(self):
        reg = register_of(("a", "H"), ("b", "H"))
        rest_reg, groups = split_by_occupation(vacuum(reg), [Mode("a", "H")])
        assert rest_reg == register_of(("b", "H"))
        assert groups == {(0,): {(0,): 1.0 + 0.0j}}

    def test_half_probability_split(self):
        reg = two_mode_register()
        st = SparseKet.from_amplitudes(
            reg, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)}
        )
        _, groups = split_by_occupation(st, [Mode("a", "H")])
        assert pattern_probability(groups[(1,)]) == pytest.approx(0.5, abs=1e-12)
        assert set(groups[(1,)]) == {(0,)}
        assert set(groups[(0,)]) == {(1,)}

    def test_zero_probability_gives_empty_ket(self):
        # a pattern that never occurs has no group at all
        st = basis_ket(two_mode_register(), (1, 0))
        _, groups = split_by_occupation(st, [Mode("a", "H")])
        assert set(groups) == {(1,)}

    def test_completeness_over_patterns(self):
        rng = np.random.default_rng(6)
        reg = register_of(("a", "H"), ("b", "H"), ("c", "H"))
        st = random_ket(rng, reg, 4)
        subset = [Mode("a", "H"), Mode("c", "H")]
        rest_reg, groups = split_by_occupation(st, subset)
        assert rest_reg == register_of(("b", "H"))
        total = sum(pattern_probability(amps) for amps in groups.values())
        assert total == pytest.approx(1.0, abs=1e-10)
        for occ, amp in st.amplitudes.items():
            assert groups[(occ[0], occ[2])][(occ[1],)] == amp


class TestHousekeeping:
    def test_pruning_threshold(self):
        reg = register_of(("a", "H"))
        st = SparseKet.from_amplitudes(reg, {(0,): 1.0, (1,): 1e-16})
        assert (1,) not in st.amplitudes

    def test_normalize_zero_ket_rejected(self):
        reg = register_of(("a", "H"))
        with pytest.raises(ValueError):
            SparseKet(reg, {}).normalized()


class TestHeraldProjection:
    def test_three_pair_herald_pattern_has_product_structure(self):
        # projecting the evolved triple-pair state on one photon per herald
        # mode leaves the maximally entangled pair on the outputs, with the
        # squared constant T1 T2 R1^2 R2^2 / 2
        from heraldsim.elements import build_paper_circuit
        from heraldsim.source import pair_term

        t1, t2 = 0.3, 0.6
        layout = build_paper_circuit(t1, t2, ("z", "z"))
        evolved = layout.run(pair_term(3))
        rest_reg, groups = split_by_occupation(evolved, layout.herald_labels())
        assert rest_reg.labels == layout.output_labels()
        prob = pattern_probability(groups[(1, 1, 1, 1)])
        rest = SparseKet.from_amplitudes(rest_reg, groups[(1, 1, 1, 1)]).normalized()
        assert prob == pytest.approx(t1 * t2 * (1 - t1) ** 2 * (1 - t2) ** 2 / 2, abs=1e-12)
        assert rest.amplitude((1, 0, 1, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert rest.amplitude((0, 1, 0, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert abs(rest.amplitude((1, 0, 0, 1))) <= 1e-12
        assert abs(rest.amplitude((0, 1, 1, 0))) <= 1e-12
