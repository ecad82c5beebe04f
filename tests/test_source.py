import itertools
import math

import numpy as np
import pytest

from heraldsim.fock import vacuum
from heraldsim.detection import DetectorModel, herald_pair_terms
from heraldsim.source import SpdcParams, block_keys, emission_coefficients, emission_components

from oracles import normalized, pair_term, spdc_pair_operator_expansion


class TestPairTerm:
    def test_zero_pairs_is_vacuum(self):
        assert pair_term(0).amplitudes == vacuum(4).amplitudes

    def test_three_pair_amplitudes(self):
        term = pair_term(3)
        expected = {
            (3, 0, 0, 3): 0.5,
            (2, 1, 1, 2): -0.5,
            (1, 2, 2, 1): 0.5,
            (0, 3, 3, 0): -0.5,
        }
        assert set(term.amplitudes) == set(expected)
        for occ, amp in expected.items():
            assert term.amplitude(occ) == pytest.approx(amp, abs=1e-12)

    def test_single_pair_is_singlet(self):
        term = pair_term(1)
        assert term.amplitude((1, 0, 0, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert term.amplitude((0, 1, 1, 0)) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_operator_expansion(self, n):
        # brute-force expansion of the pair creation operator power
        expected = normalized(spdc_pair_operator_expansion(n))
        term = pair_term(n)
        assert set(term.amplitudes) == set(expected)
        for occ, amp in expected.items():
            assert term.amplitude(occ) == pytest.approx(amp, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_normalized_with_balanced_arms(self, n):
        term = pair_term(n)
        assert term.norm_sq() == pytest.approx(1.0, abs=1e-12)
        for (n1h, n1v, n2h, n2v) in term.amplitudes:
            assert n1h + n1v == n
            assert n2h + n2v == n
            assert (n1h, n1v) == (n2v, n2h)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_antisymmetry_under_polarization_swap(self, n):
        term = pair_term(n)
        for (n1h, n1v, n2h, n2v), amp in term.amplitudes.items():
            swapped = term.amplitude((n1v, n1h, n2v, n2h))
            assert swapped == pytest.approx((-1) ** n * amp, abs=1e-12)


def block_amplitude(weights, occ):
    """Emission amplitude of one source occupation: sqrt(its coherent layer's weight) times its term."""
    n = occ[0] + occ[1]
    return math.sqrt(weights[n]) * pair_term(n).amplitude(occ)


class TestSpdcState:
    def test_tau_zero_is_vacuum(self):
        comps = emission_components(SpdcParams(tau=0.0))
        assert comps.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert pair_term(0).amplitudes == vacuum(4).amplitudes

    def test_one_pair_to_vacuum_ratio(self):
        # P(1)/P(0) = 2 tau^2, unaffected by the common renormalization
        comps = emission_components(SpdcParams(tau=0.3, max_pairs=4))
        assert comps[1] / comps[0] == pytest.approx(2 * 0.3**2, abs=1e-12)
        p0 = abs(block_amplitude(comps, (0, 0, 0, 0))) ** 2
        p1 = sum(
            abs(block_amplitude(comps, occ)) ** 2 for occ in ((1, 0, 0, 1), (0, 1, 1, 0))
        )
        assert p1 / p0 == pytest.approx(2 * 0.3**2, abs=1e-12)

    def test_three_to_two_pair_amplitude_ratio(self):
        comps = emission_components(SpdcParams(tau=0.3, max_pairs=3))
        a3 = block_amplitude(comps, (3, 0, 0, 3)) * 2.0
        a2 = block_amplitude(comps, (2, 0, 0, 2)) * math.sqrt(3.0)
        assert abs(a3 / a2) == pytest.approx(math.sqrt(4.0 / 3.0) * 0.3, abs=1e-12)

    def test_normalized_after_truncation(self):
        for tau in (0.1, 0.3, 0.6):
            params = SpdcParams(tau=tau, max_pairs=4)
            comps = emission_components(params)
            assert comps.sum() == pytest.approx(1.0, abs=1e-12)
            for n, _ in block_keys(params.max_pairs):
                assert pair_term(n).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_truncation_tail_bound(self):
        # weight beyond 4 pairs stays under 10 tau^10 for tau <= 0.5
        for tau in (0.1, 0.25, 0.4, 0.5):
            tail = sum(
                (1 - tau**2) ** 2 * (n + 1) * tau ** (2 * n) for n in range(5, 200)
            )
            assert tail < 10.0 * tau**10

    def test_weights_match_distribution(self):
        params = SpdcParams(tau=0.35, max_pairs=4)
        # at full visibility the pair numbers weigh in order and the distinguishable layer is zero
        weights = emission_components(params)
        raw = [(n + 1) * 0.35 ** (2 * n) for n in range(5)]
        total = sum(raw)
        assert weights[:5] == pytest.approx([w / total for w in raw], abs=1e-14)
        assert weights[5] == 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SpdcParams(tau=1.0)
        with pytest.raises(ValueError, match="photon cap"):
            SpdcParams(tau=0.3, max_pairs=5, photon_cap=8)
        with pytest.raises(ValueError, match="photon cap"):
            SpdcParams(tau=0.3, max_pairs=4, photon_cap=20)
        with pytest.raises(ValueError):
            SpdcParams(tau=0.3, visibility=1.2)


class TestVisibility:
    def test_full_visibility_keeps_only_coherent_part(self):
        coefficients = emission_coefficients(4, 1.0)
        assert block_keys(4) == tuple((n, True) for n in range(5)) + ((2, False),)
        assert coefficients[2] == pytest.approx(3.0)
        assert coefficients.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 0.0]

    def test_zero_visibility_is_fully_distinguishable(self):
        coefficients = emission_coefficients(4, 0.0)
        assert coefficients[2] == 0.0
        assert coefficients[5] == pytest.approx(3.0)

    def test_mixture_weights(self):
        # c = n+1 per pair number; the visibility splits only the two-pair coefficient
        coefficients = emission_coefficients(3, 0.862)
        assert block_keys(3) == ((0, True), (1, True), (2, True), (3, True), (2, False))
        assert coefficients == pytest.approx([1.0, 2.0, 3 * 0.862, 4.0, 3 * 0.138], abs=1e-12)
        with pytest.raises(ValueError, match="visibility"):
            emission_coefficients(3, 1.2)

    def test_emission_components_split_only_two_pair_block(self):
        comps = emission_components(SpdcParams(tau=0.3, max_pairs=4, visibility=0.9))
        assert [key for key in block_keys(4) if not key[1]] == [(2, False)]
        assert comps[2] / comps[5] == pytest.approx(0.9 / 0.1, rel=1e-12)
        total = comps.sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_components_are_the_coefficients_renormalized(self):
        for tau, max_pairs, visibility in itertools.product(
            (0.0, 0.05, 0.3, 0.6), (0, 1, 2, 5), (0.0, 0.862, 1.0)
        ):
            comps = emission_components(SpdcParams(tau, max_pairs, visibility))
            coefficients = emission_coefficients(max_pairs, visibility)
            raw = [c * tau ** (2 * n) for (n, _), c in zip(block_keys(max_pairs), coefficients)]
            assert ((comps == 0.0) == (np.array(raw) == 0.0)).all()
            assert comps == pytest.approx(np.array(raw) / sum(raw), rel=1e-15, abs=0.0)
            assert comps.sum() == pytest.approx(1.0, rel=0.0, abs=1e-15)


class TestBlockKeys:
    @pytest.mark.parametrize("max_pairs", range(7))
    @pytest.mark.parametrize("visibility", [0.0, 0.862, 1.0])
    def test_emission_arrays_follow_the_heralded_layers(self, max_pairs, visibility):
        keys = block_keys(max_pairs)
        blocks = herald_pair_terms(max_pairs, 0.3, 0.7, DetectorModel())
        assert blocks.keys == keys
        assert [key for key in keys if not key[1]] == ([(2, False)] if max_pairs >= 2 else [])
        coefficients = emission_coefficients(max_pairs, visibility)
        assert len(coefficients) == len(keys) == len(blocks.lossless)
        # every layer keeps its entry, zero or not: a zero share of the two-pair split,
        # and at tau = 0 every block but the vacuum
        split_zero = [(n, coherent, visibility) in ((2, True, 0.0), (2, False, 1.0)) for n, coherent in keys]
        assert ((coefficients == 0.0) == np.array(split_zero)).all()
        for tau in (0.0, 0.3):
            comps = emission_components(SpdcParams(tau, max_pairs, visibility))
            assert len(comps) == len(keys)
            zero = [z or (tau == 0.0 and n > 0) for z, (n, _) in zip(split_zero, keys)]
            assert ((comps == 0.0) == np.array(zero)).all()
