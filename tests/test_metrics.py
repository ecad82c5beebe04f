import math

import numpy as np
import pytest

from heraldsim.detection import DetectorModel, arm_totals, herald_pair_terms
from heraldsim.experiments import ExperimentConfig, simulate_experiment
from heraldsim.metrics import _checked as checked
from heraldsim.metrics import (
    BELL_STATES,
    PHI_PLUS,
    PSI_MINUS,
    check_density_matrix,
    chsh_max,
    concurrence,
    correlation_matrix,
    fidelity_to_phi_plus,
    state_figures,
    tangle,
    total_state_fidelity_from_values,
)
from heraldsim.source import SpdcParams
from heraldsim.tomography import optimize_local_fidelity

import oracles
from oracles import block_layers, wootters_tangle

PHI_PLUS_RHO = np.outer(PHI_PLUS, PHI_PLUS.conj())
PSI_MINUS_RHO = np.outer(PSI_MINUS, PSI_MINUS.conj())
MIXED_RHO = np.eye(4, dtype=complex) / 4.0


def werner(p):
    return p * PHI_PLUS_RHO + (1 - p) * MIXED_RHO


def random_local_unitary(rng):
    def u2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return np.kron(u2(), u2())


def random_state(rng, rank=4):
    z = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def state_stack(seed):
    """97 states: 22 random ones of each rank 1 to 4, the Bell states, 4 Werner states, I/4."""
    rng = np.random.default_rng(seed)
    states = [random_state(rng, rank) for rank in (1, 2, 3, 4) for _ in range(22)]
    states += [np.outer(vec, vec.conj()) for vec in BELL_STATES.values()]
    states += [werner(p) for p in (0.2, 1.0 / 3.0, 0.5, 0.9)]
    return np.array(states + [MIXED_RHO])


class TestCheckDensityMatrix:
    @staticmethod
    def with_fault(fault):
        rng = np.random.default_rng(61)
        stack = np.array([random_state(rng) for _ in range(50)])
        bad = stack[17].copy()
        if fault == "non-hermitian":
            bad[0, 1] += 1e-3
        elif fault == "trace":
            bad *= 1.0 + 1e-8
        else:
            u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            bad = (u * np.array([-1e-8, 0.2, 0.3, 0.5 + 1e-8])) @ u.conj().T
            bad = (bad + bad.conj().T) / 2.0
        stack[17] = bad
        return stack

    def test_valid_stack_passes(self):
        stack = state_stack(60)
        assert np.array_equal(check_density_matrix(stack), stack)

    @pytest.mark.parametrize("fault,message", [
        ("non-hermitian", "not Hermitian"),
        ("trace", "trace is"),
        ("negative-eigenvalue", "negative eigenvalue"),
    ])
    def test_one_bad_state_fails_the_stack(self, fault, message):
        with pytest.raises(ValueError, match=message):
            check_density_matrix(self.with_fault(fault))

    def test_hermiticity_tolerance_is_absolute(self):
        # Hermitian part 0.9 phi+ + 0.1 1/4, so only the Hermiticity check can
        # fail; rho - rho† is 2e-6 at an entry of 0.45, which a relative
        # tolerance of 1e-5 would let pass
        rho = 0.9 * np.outer(PHI_PLUS, PHI_PLUS.conj()) + 0.025 * np.eye(4, dtype=complex)
        rho[0, 3] += 1e-6j
        rho[3, 0] += 1e-6j
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density_matrix(rho)

    @pytest.mark.parametrize("entry,value", [
        ((1, 2), np.nan), ((0, 0), complex(0.25, np.nan)), ((2, 2), np.inf), ((0, 3), np.inf),
        ((3, 1), complex(0.0, -np.inf)),
    ])
    def test_non_finite_entry_fails_the_stack(self, entry, value):
        stack = state_stack(50)
        stack[(17, *entry)] = value
        with pytest.raises(ValueError):
            check_density_matrix(stack)

    def test_needs_no_eigenvectors(self, monkeypatch):
        # the check alone takes the eigenvalues; one eigh serves the functionals that read vectors
        def refused(matrix):
            raise AssertionError("check_density_matrix asked for eigenvectors")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        stack = state_stack(64)
        assert np.array_equal(check_density_matrix(stack), stack)

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (50, 4, 3), (50, 16), (50, 3, 4)])
    def test_trailing_shape_must_be_4x4(self, shape):
        with pytest.raises(ValueError, match="expected a 4x4"):
            check_density_matrix(np.zeros(shape))


class TestStackedFunctionals:
    """Each functional on a stack equals its per-state oracle state by state."""

    ORACLES = {
        "fidelity_to_phi_plus": (
            fidelity_to_phi_plus, lambda r: float(np.real(PHI_PLUS @ r @ PHI_PLUS))),
        "concurrence": (concurrence, oracles.concurrence),
        "tangle": (tangle, lambda r: oracles.concurrence(r) ** 2),
        "chsh_max": (chsh_max, oracles.horodecki_chsh),
        "correlation_matrix": (correlation_matrix, oracles.correlation_matrix),
        "optimize_local_fidelity": (
            lambda r: optimize_local_fidelity(r)[0], oracles.fully_entangled_fraction),
    }

    @pytest.mark.parametrize("name", ORACLES)
    def test_matches_per_state_oracle(self, name):
        stacked, oracle = self.ORACLES[name]
        stack = state_stack(62)
        want = np.array([oracle(rho) for rho in stack])
        got = stacked(stack)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12
        nested = stacked(stack.reshape(97, 1, 4, 4))  # any leading shape
        assert np.abs(nested.reshape(got.shape) - got).max() <= 1e-15

    @pytest.mark.parametrize("functional", [fidelity_to_phi_plus, concurrence, tangle, chsh_max])
    def test_one_state_gives_a_float(self, functional):
        assert type(functional(werner(0.7))) is float

    def test_local_fidelity_of_one_state_gives_a_float_and_two_unitaries(self):
        value, (u1, u2) = optimize_local_fidelity(werner(0.7))
        assert type(value) is float
        assert u1.shape == u2.shape == (2, 2)

    def test_stacked_unitaries_map_each_best_state_onto_phi_plus(self):
        stack = state_stack(63)
        values, (u1, u2) = optimize_local_fidelity(stack)
        assert u1.shape == u2.shape == (97, 2, 2)
        for rho, value, a, b in zip(stack, values, u1, u2, strict=True):
            for u in (a, b):
                assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
            # (U1 x U2)† phi+ is a maximally entangled state that rho overlaps most
            best = np.kron(a, b).conj().T @ PHI_PLUS
            assert float(np.real(best.conj() @ rho @ best)) == pytest.approx(value, abs=1e-12)
            assert value == pytest.approx(oracles.fully_entangled_fraction(rho), abs=1e-12)


class TestStateFigures:
    def test_equals_the_three_checked_functionals(self):
        # bit for bit, on one state and on a stack
        for rho in (werner(0.7), state_stack(63)):
            got = state_figures(rho)
            want = (fidelity_to_phi_plus(rho), tangle(rho), chsh_max(rho))
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert all(type(value) is float for value in state_figures(werner(0.7)))

    @pytest.mark.parametrize("fault,message", [
        ("non-hermitian", "not Hermitian"), ("trace", "trace"), ("negative", "negative eigenvalue"),
    ])
    def test_bad_state_rejected(self, fault, message):
        with pytest.raises(ValueError, match=message):
            state_figures(TestCheckDensityMatrix.with_fault(fault))

    def test_simulate_checks_its_state_once(self, monkeypatch):
        # every check goes through the one private helper, which state_figures calls once
        calls = []

        def counting_check(rho, vectors):
            calls.append(rho.shape)
            return checked(rho, vectors)

        monkeypatch.setattr("heraldsim.metrics._checked", counting_check)
        config = ExperimentConfig(spdc=SpdcParams(tau=0.3, max_pairs=4, visibility=0.862))
        simulate_experiment(config)
        assert calls == [(4, 4)]


class TestFidelity:
    def test_phi_plus_itself(self):
        assert fidelity_to_phi_plus(PHI_PLUS_RHO) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert fidelity_to_phi_plus(MIXED_RHO) == pytest.approx(0.25, abs=1e-12)
        assert optimize_local_fidelity(MIXED_RHO)[0] == pytest.approx(
            0.25, abs=1e-7
        )

    def test_psi_minus_locally_equivalent(self):
        assert fidelity_to_phi_plus(PSI_MINUS_RHO) == pytest.approx(0.0, abs=1e-12)
        assert optimize_local_fidelity(PSI_MINUS_RHO)[0] == pytest.approx(
            1.0, abs=1e-7
        )

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            fidelity_to_phi_plus(np.eye(4))  # trace 4


class TestTangle:
    def test_bell_states_maximal(self):
        for vec in BELL_STATES.values():
            rho = np.outer(vec, vec.conj())
            assert tangle(rho) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_zero(self):
        assert tangle(MIXED_RHO) == pytest.approx(0.0, abs=1e-12)

    def test_werner_threshold_at_one_third(self):
        # separable up to p = 1/3; linear in p above
        third = 1.0 / 3.0
        assert concurrence(werner(third - 1e-3)) == pytest.approx(0.0, abs=1e-3)
        assert concurrence(werner(third + 1e-3)) > 0.0
        for p in (0.4, 0.6, 0.8, 1.0):
            assert concurrence(werner(p)) == pytest.approx(
                max(0.0, (3 * p - 1) / 2), abs=1e-10
            )

    def test_monotone_in_werner_weight(self):
        values = [tangle(werner(p)) for p in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_eigenvalue_form_on_mixed_states(self):
        # full-rank states, where the square roots of eig(rho rho~) keep their precision
        rng = np.random.default_rng(15)
        for _ in range(200):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            assert tangle(rho) == pytest.approx(wootters_tangle(rho), abs=1e-10)

    def test_full_precision_near_pure_state(self):
        # rounding-level noise on phi+ moves the tangle by rounding, not by its square root
        rng = np.random.default_rng(16)
        for _ in range(200):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            noisy = PHI_PLUS_RHO + 0.5e-16 * (z + z.conj().T)
            assert abs(1.0 - tangle(noisy)) <= 1e-12


class TestChsh:
    def test_phi_plus_tsirelson(self):
        assert chsh_max(PHI_PLUS_RHO) == pytest.approx(2 * math.sqrt(2), abs=1e-10)

    def test_maximally_mixed_zero(self):
        assert chsh_max(MIXED_RHO) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_tsirelson(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            assert chsh_max(rho) <= 2 * math.sqrt(2) + 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(52)
        rho = werner(0.7)
        for _ in range(5):
            u = random_local_unitary(rng)
            rotated = u @ rho @ u.conj().T
            assert chsh_max(rotated) == pytest.approx(chsh_max(rho), abs=1e-8)
            assert tangle(rotated) == pytest.approx(tangle(rho), abs=1e-8)


def direct_preparation(t1, t2, detectors):
    # P(1;1) of the heralded three-pair block before any output loss
    block = block_layers(herald_pair_terms(3, t1, t2, detectors))[3, True]
    return block.direct / block.herald


class TestDirectPreparation:
    def test_ideal_three_pair_unity(self):
        ideal = DetectorModel(efficiency=1.0, resolving="number")
        assert direct_preparation(0.5, 0.5, ideal) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_heralds_near_quadratic_line(self):
        for t in (0.17, 0.5, 0.7):
            p = direct_preparation(t, t, DetectorModel())
            assert abs(p - t * t) / (t * t) <= 0.25

    def test_zero_probability_rejected(self):
        # full transmission leaves the herald detectors dark: P(1;1) would be 0/0
        config = ExperimentConfig(t1=1.0, t2=1.0, spdc=SpdcParams(tau=0.3))
        with pytest.raises(ValueError, match="zero herald probability"):
            simulate_experiment(config)


class TestTotalStateFidelity:
    # quoted (P11, F_post) pairs against the quoted total fidelities
    CASES = [
        (2.58e-4, 0.637, 1.64e-4),
        (6.14e-4, 0.842, 5.17e-4),
        (3.06e-3, 0.575, 1.76e-3),
        (8.03e-3, 0.619, 4.97e-3),
    ]

    @pytest.mark.parametrize("p11,f_post,expected", CASES)
    def test_reproduces_quoted_products(self, p11, f_post, expected):
        value = total_state_fidelity_from_values(p11, f_post)
        assert abs(value - expected) / expected <= 0.02

    def test_from_table_and_state(self):
        table = np.zeros((2, 2, 2, 2))
        table[1, 0, 1, 0], table[0, 1, 0, 1], table[0, 0, 0, 0] = 2.0e-3, 1.06e-3, 0.9969
        rho = 0.575 * PHI_PLUS_RHO + 0.425 * np.diag([0.0, 1.0, 0.0, 0.0])
        value = total_state_fidelity_from_values(arm_totals(table)[1, 1], fidelity_to_phi_plus(rho))
        assert value == pytest.approx(3.06e-3 * 0.575, rel=1e-9)

    def test_edge_values(self):
        assert total_state_fidelity_from_values(0.0, 0.9) == 0.0
        assert total_state_fidelity_from_values(1.0, 1.0) == 1.0
