import math

import numpy as np
import pytest

from heraldsim.fock import vacuum
from heraldsim.source import SpdcParams, emission_coefficients, emission_components, pair_term

from oracles import normalized, spdc_pair_operator_expansion


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


def block_amplitude(components, occ):
    """Emission amplitude of one source occupation: sqrt(block weight) times its term."""
    n = occ[0] + occ[1]
    (comp,) = [c for c in components if c.pairs == n]
    return math.sqrt(comp.weight) * pair_term(comp.pairs).amplitude(occ)


class TestSpdcState:
    def test_tau_zero_is_vacuum(self):
        comps = emission_components(SpdcParams(tau=0.0))
        assert len(comps) == 1
        assert comps[0].weight == 1.0
        assert pair_term(comps[0].pairs).amplitudes == vacuum(4).amplitudes

    def test_one_pair_to_vacuum_ratio(self):
        # P(1)/P(0) = 2 tau^2, unaffected by the common renormalization
        comps = emission_components(SpdcParams(tau=0.3, max_pairs=4))
        weights = {c.pairs: c.weight for c in comps}
        assert weights[1] / weights[0] == pytest.approx(2 * 0.3**2, abs=1e-12)
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
            assert sum(c.weight for c in comps) == pytest.approx(1.0, abs=1e-12)
            for c in comps:
                assert pair_term(c.pairs).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_truncation_tail_bound(self):
        # weight beyond 4 pairs stays under 10 tau^10 for tau <= 0.5
        for tau in (0.1, 0.25, 0.4, 0.5):
            tail = sum(
                (1 - tau**2) ** 2 * (n + 1) * tau ** (2 * n) for n in range(5, 200)
            )
            assert tail < 10.0 * tau**10

    def test_weights_match_distribution(self):
        params = SpdcParams(tau=0.35, max_pairs=4)
        # at full visibility there is one component per pair number, in order
        weights = [c.weight for c in emission_components(params)]
        raw = [(n + 1) * 0.35 ** (2 * n) for n in range(5)]
        total = sum(raw)
        assert weights == pytest.approx([w / total for w in raw], abs=1e-14)

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
        assert list(coefficients) == [(n, True) for n in range(5)]
        assert coefficients[2, True] == pytest.approx(3.0)

    def test_zero_visibility_is_fully_distinguishable(self):
        coefficients = emission_coefficients(4, 0.0)
        assert (2, True) not in coefficients
        assert coefficients[2, False] == pytest.approx(3.0)

    def test_mixture_weights(self):
        # c = n+1 per pair number; the visibility splits only the two-pair coefficient
        coefficients = emission_coefficients(3, 0.862)
        assert coefficients == pytest.approx(
            {(0, True): 1.0, (1, True): 2.0, (2, True): 3 * 0.862, (2, False): 3 * 0.138,
             (3, True): 4.0},
            abs=1e-12,
        )
        with pytest.raises(ValueError, match="visibility"):
            emission_coefficients(3, 1.2)

    def test_emission_components_split_only_two_pair_block(self):
        comps = emission_components(SpdcParams(tau=0.3, max_pairs=4, visibility=0.9))
        incoherent = [c for c in comps if not c.coherent]
        assert len(incoherent) == 1
        assert incoherent[0].pairs == 2
        total = sum(c.weight for c in comps)
        assert total == pytest.approx(1.0, abs=1e-12)
