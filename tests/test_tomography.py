import math

import numpy as np
import pytest

from heraldsim.metrics import PHI_PLUS, PSD_TOL, PSI_MINUS, fidelity_to_phi_plus, tangle
import heraldsim.tomography as tomo
from heraldsim.tomography import (
    CERTIFICATE_TOL,
    SETTINGS,
    ConvergenceError,
    CountTable,
    _ascend,
    _linear_inversion,
    _maximize,
    _resampled_coincidences,
    expected_coincidences,
    ingest_counts,
    mle_reconstruct,
    monte_carlo_report,
    optimize_local_fidelity,
    simulate_counts,
    write_counts,
)

from oracles import (
    chart_derivatives,
    chart_slots,
    exact_coincidences,
    fully_entangled_fraction,
    linear_inversion,
    multinomial_log_likelihood,
    poisson_resampled_counts,
    program_free_estimate,
    rrr_maximum,
)

PHI_PLUS_RHO = np.outer(PHI_PLUS, PHI_PLUS.conj())
MIXED_RHO = np.eye(4, dtype=complex) / 4.0


def random_density_matrix(rng, rank=4):
    z = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_chart(rng, rank):
    """A random basis, and eigenvalues lam that are 0 on its first 4 - rank columns and sum to 1."""
    basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    lam = np.zeros(4)
    lam[4 - rank:] = rng.random(rank) + 0.05
    return basis, lam / lam.sum()


def trace_distance(a, b):
    eigs = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.abs(eigs).sum())


class TestExpectedCoincidences:
    def test_phi_plus_zz(self):
        probs = expected_coincidences(PHI_PLUS_RHO, ("z", "z"))
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-12)

    def test_phi_plus_xx(self):
        probs = expected_coincidences(PHI_PLUS_RHO, ("x", "x"))
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-12)

    def test_phi_plus_yy_anticorrelated(self):
        probs = expected_coincidences(PHI_PLUS_RHO, ("y", "y"))
        assert probs == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-12)

    def test_maximally_mixed_uniform(self):
        for setting in SETTINGS:
            probs = expected_coincidences(MIXED_RHO, setting)
            assert probs == pytest.approx([0.25] * 4, abs=1e-12)

    def test_negative_probability_reads_zero_only_within_tolerance(self):
        # an eigenvalue of -d * PSD_TOL on |HV>: rounding-sized for d < 1, unphysical beyond
        hv = np.zeros((4, 4), dtype=complex)
        hv[1, 1] = 1.0
        for depth in (0.5, 2.0):
            rho = (1.0 + depth * PSD_TOL) * PHI_PLUS_RHO - depth * PSD_TOL * hv
            if depth < 1.0:
                probs = expected_coincidences(rho, ("z", "z"))
                assert probs[1] == 0.0 and probs.min() == 0.0
            else:
                with pytest.raises(ValueError, match="negative"):
                    expected_coincidences(rho, ("z", "z"))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            rho = random_density_matrix(rng)
            for setting in SETTINGS:
                assert expected_coincidences(rho, setting).sum() == pytest.approx(
                    1.0, abs=1e-10
                )


class TestSimulateCounts:
    def test_phi_plus_zz_statistics(self):
        table = simulate_counts(PHI_PLUS_RHO, SETTINGS, 10**6, seed=3)
        zz = table.coincidence_matrix()[SETTINGS.index(("z", "z"))]
        sigma = math.sqrt(10**6 * 0.25)
        assert abs(zz[0] - 5e5) < 3 * sigma
        assert abs(zz[3] - 5e5) < 3 * sigma
        assert zz[1] == 0 and zz[2] == 0

    def test_deterministic_under_seed(self):
        a = simulate_counts(PHI_PLUS_RHO, SETTINGS, 1000, seed=7)
        b = simulate_counts(PHI_PLUS_RHO, SETTINGS, 1000, seed=7)
        assert a.counts == b.counts

    def test_list_and_tuple_settings_give_the_same_table(self):
        settings = [("z", "z"), ("x", "y")]
        as_tuples = simulate_counts(PHI_PLUS_RHO, settings, 10, seed=1)
        as_lists = simulate_counts(PHI_PLUS_RHO, [list(s) for s in settings], 10, seed=1)
        assert as_lists.counts == as_tuples.counts
        assert simulate_counts(PHI_PLUS_RHO, [["z", "z"]], 10, 1).counts == (
            simulate_counts(PHI_PLUS_RHO, [("z", "z")], 10, 1).counts)

    def test_mixed_state_quarters(self):
        table = simulate_counts(MIXED_RHO, SETTINGS, 10**5, seed=5)
        for counts in table.coincidence_matrix():
            assert counts.sum() == 10**5
            assert np.all(np.abs(counts - 2.5e4) < 5 * math.sqrt(2.5e4))


class TestCountTableIO:
    def test_fixture_spot_values(self, fixtures_dir):
        t17 = ingest_counts(fixtures_dir / "counts_17_83.csv")
        assert t17.counts[(("x", "x"), (1, 0, 1, 0))] == 11
        t30 = ingest_counts(fixtures_dir / "counts_30_70.csv")
        assert t30.counts[(("z", "z"), (1, 0, 1, 0))] == 17
        assert t30.ratio == "30/70"

    def test_round_trip(self, tmp_path):
        table = simulate_counts(PHI_PLUS_RHO, SETTINGS, 500, seed=11)
        table.ratio = "50/50"
        path = tmp_path / "counts.csv"
        write_counts(table, path)
        back = ingest_counts(path)
        assert back.counts == table.counts
        assert back.ratio == table.ratio

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_counts(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("ratio,setting_1,setting_2,n1H,n1V,n2H,n2V,count\n")
        with pytest.raises(ValueError, match="no data"):
            ingest_counts(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(
            "ratio,setting_1,setting_2,n1H,n1V,n2H,n2V,count\nx,z,z,1,0,1,0,-3\n"
        )
        with pytest.raises(ValueError, match="negative"):
            ingest_counts(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "ratio,setting_1,setting_2,n1H,n1V,n2H,n2V,count\n"
            "x,z,z,1,0,1,0,3\nx,z,z,1,0,1,0,4\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            ingest_counts(path)

    def test_unknown_setting_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ratio,setting_1,setting_2,n1H,n1V,n2H,n2V,count\nx,q,z,1,0,1,0,3\n"
        )
        with pytest.raises(ValueError, match="setting"):
            ingest_counts(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "malformed.csv"
        path.write_text(
            "ratio,setting_1,setting_2,n1H,n1V,n2H,n2V,count\nx,z,z,1,0,1,0\n"
        )
        with pytest.raises(ValueError, match="fields"):
            ingest_counts(path)


class TestMle:
    def test_gradient_matches_finite_differences(self):
        # the chart's gradient and Hessian at its origin against central
        # differences of the log-likelihood along the chart's own moves
        # (``_chart_step``, its rise from ``_rise``), at every rank, on random
        # states and counts with empty cells; idle slots are not moves
        rng = np.random.default_rng(31)
        for rank in (1, 2, 3, 4):
            basis, lam = random_chart(rng, rank)
            counts = rng.integers(1, 50, size=(1, 36)).astype(float)
            counts[0, :5] = 0.0
            _, ratio, probs = tomo._certificate(counts, tomo._chart_state(basis[None], lam[None]))
            products = tomo._chart_products(basis[None])
            grad, hess = tomo._chart_derivatives(counts, probs, products, lam[None],
                                                 np.array([rank]), basis.conj().T @ ratio[0] @ basis)

            def rise(steps):
                n = len(steps)
                dq, dnorm, _, _ = tomo._chart_step(
                    steps, np.tile(lam, (n, 1)), np.full(n, rank), np.repeat(products, n, axis=0))
                return tomo._rise(np.repeat(counts, n, axis=0), np.repeat(probs, n, axis=0),
                                  dq, dnorm, np.ones(n))

            slots = np.flatnonzero(tomo._IN_K[rank] + tomo._IN_D[rank])
            unit = np.eye(16)[slots]
            eps = 1e-5
            assert grad[0, slots] == pytest.approx(
                (rise(eps * unit) - rise(-eps * unit)) / (2 * eps), rel=1e-6)
            eps = 1e-4
            a, b = (np.broadcast_to(u, (len(slots),) * 2 + (16,)).reshape(-1, 16)
                    for u in (unit[:, None], unit[None, :]))
            second = (rise(eps * (a + b)) - rise(eps * (a - b)) - rise(eps * (b - a))
                      + rise(-eps * (a + b))) / (4 * eps**2)
            want = hess[0][np.ix_(slots, slots)]
            assert np.abs(second.reshape(want.shape) - want).max() <= 1e-5 * np.abs(want).max()
            assert np.abs(hess - np.swapaxes(hess, 1, 2)).max() <= 1e-9 * np.abs(hess).max()

    def test_forms_match_the_brute_force_tables(self):
        # the tables that ``_chart_forms`` gathers from R against brute-force
        # traces Re tr(R K_i D_j) + Re tr(R K_j D_i) + Re tr(R K_i diag(lam) K_j†),
        # K_i and D_i the parts of K and X that slot i moves (oracles.chart_slots),
        # on random Hermitian R at every rank, to 1e-13 of the largest entry
        rng = np.random.default_rng(43)
        for rank in (1, 2, 3, 4) * 2:
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            r = z + z.conj().T
            _, lam = random_chart(rng, rank)
            k, d = chart_slots(rank)
            want = (np.einsum("ab,ibc,jca->ij", r, k, d) + np.einsum("ab,jbc,ica->ij", r, k, d)
                    + np.einsum("ab,ibc,c,jac->ij", r, k, lam, k.conj())).real
            got = r.reshape(16).view(float)[tomo._CHART_GATHER[rank]] * tomo._CHART_SIGNS[rank]
            got = got.reshape(16, 16) * np.where(
                tomo._CHART_KK[rank], lam[tomo._SLOT_Q][:, None], 1.0)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_quadratic_forms_match_the_state(self):
        # a chart move's dq and trace change (``_chart_step``) are the differences
        # of ``_probabilities`` and of the trace between the moved state and the
        # start, at every rank, for steps from small to large enough to be
        # shortened at an eigenvalue's zero and to drop eigenvalues
        rng = np.random.default_rng(32)
        scales = np.logspace(-3, 1, 12)
        for rank in (1, 2, 3, 4):
            basis, lam = random_chart(rng, rank)
            n = len(scales)
            slots = tomo._IN_K[rank] + tomo._IN_D[rank]
            steps = rng.normal(size=(n, 16)) * scales[:, None] * slots
            dq, dtrace, vecs, vals = tomo._chart_step(
                steps, np.tile(lam, (n, 1)), np.full(n, rank),
                np.repeat(tomo._chart_products(basis[None]), n, axis=0))
            vecs = basis @ vecs
            moved = (vecs * vals[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
            start = (basis * lam) @ basis.conj().T
            assert np.abs(dq - (tomo._probabilities(moved) - tomo._probabilities(start))).max() <= (
                1e-12 * (1.0 + np.abs(dq).max()))
            assert dtrace == pytest.approx(
                np.trace(moved, axis1=1, axis2=2).real - 1.0, rel=1e-12, abs=1e-12)
            dropped = (vals == 0.0).sum(axis=1) > 4 - rank
            assert dropped.any() == (rank > 1) and not dropped.all()

    def test_linear_inversion_recovers_exact_states(self):
        # a batch of exact frequency tables, scaled to counts, inverts row by row
        rng = np.random.default_rng(37)
        states = [random_density_matrix(rng) for _ in range(3)] + [PHI_PLUS_RHO]
        tables = [1000.0 * np.array([exact_coincidences(r)[s] for s in SETTINGS]) for r in states]
        estimates = _linear_inversion(np.stack(tables))
        for rho, estimate in zip(states, estimates, strict=True):
            assert np.abs(estimate - rho).max() < 1e-12

    def test_linear_inversion_matches_pauli_form(self):
        # noisy counts, some settings empty; an empty setting reads 0.25 per port,
        # which in the Pauli form is the same as one count in every port
        rng = np.random.default_rng(38)
        tables = rng.poisson(20.0, size=(20, 9, 4)).astype(float)
        tables[::3, 4] = 0.0
        tables[1::4, :2] = 0.0
        estimates = _linear_inversion(tables)
        for table, estimate in zip(tables, estimates, strict=True):
            filled = {s: c if c.any() else np.ones(4) for s, c in zip(SETTINGS, table)}
            assert np.abs(estimate - linear_inversion(filled)).max() < 1e-12

    def test_phi_plus_self_consistency(self):
        counts = simulate_counts(PHI_PLUS_RHO, SETTINGS, 10**5, seed=13)
        result = mle_reconstruct(counts)
        assert fidelity_to_phi_plus(result.rho) >= 0.995

    def test_mixed_state_self_consistency(self):
        counts = simulate_counts(MIXED_RHO, SETTINGS, 10**5, seed=17)
        result = mle_reconstruct(counts)
        assert np.abs(result.rho - MIXED_RHO).max() <= 0.02

    def test_reconstruction_is_physical(self, fixtures_dir):
        for name in ("counts_17_83", "counts_30_70", "counts_50_50", "counts_70_30"):
            result = mle_reconstruct(ingest_counts(fixtures_dir / f"{name}.csv"))
            rho = result.rho
            assert np.allclose(rho, rho.conj().T, atol=1e-10)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_row_order_invariance(self, fixtures_dir, tmp_path):
        import csv as csv_mod

        src = fixtures_dir / "counts_30_70.csv"
        rows = src.read_text().strip().split("\n")
        header, body = rows[0], rows[1:]
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header] + body[::-1]) + "\n")
        a = mle_reconstruct(ingest_counts(src))
        b = mle_reconstruct(ingest_counts(shuffled))
        assert np.abs(a.rho - b.rho).max() <= 1e-12

    def test_missing_settings_rejected(self):
        table = CountTable()
        table.add(("z", "z"), (1, 0, 1, 0), 10)
        with pytest.raises(ValueError, match="missing settings"):
            mle_reconstruct(table)

    def test_coincidence_matrix_names_the_missing_settings(self):
        # a setting with any entry is present, even one without coincidence patterns
        table = sparse_table()
        assert table.coincidence_matrix().shape == (9, 4)
        table.counts = {key: n for key, n in table.counts.items() if key[0] != ("y", "x")}
        with pytest.raises(ValueError, match=r"missing settings: \[\('y', 'x'\)\]"):
            table.coincidence_matrix()

    def test_all_zero_rejected(self):
        table = CountTable()
        for s in SETTINGS:
            for p in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)):
                table.add(s, p, 0)
        with pytest.raises(ValueError, match="zero"):
            mle_reconstruct(table)

    def test_statistical_consistency_improves_with_counts(self):
        last = None
        for n in (10**3, 10**4, 10**5):
            counts = simulate_counts(PHI_PLUS_RHO, SETTINGS, n, seed=19)
            result = mle_reconstruct(counts)
            infidelity = 1.0 - fidelity_to_phi_plus(result.rho)
            if last is not None:
                assert infidelity < last
            last = infidelity


def local_overlap(rho, u1, u2):
    u = np.kron(u1, u2)
    return float(np.real(PHI_PLUS.conj() @ u @ rho @ u.conj().T @ PHI_PLUS))


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLocalUnitaryOptimization:
    def test_matches_closed_form_on_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            rho = random_density_matrix(rng)
            value, _ = optimize_local_fidelity(rho)
            assert value == pytest.approx(fully_entangled_fraction(rho), abs=1e-12)

    def test_unitaries_attain_the_fidelity(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            rho = random_density_matrix(rng)
            value, (u1, u2) = optimize_local_fidelity(rho)
            for u in (u1, u2):
                assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
            assert local_overlap(rho, u1, u2) == pytest.approx(value, abs=1e-12)

    def test_no_random_local_unitary_does_better(self):
        rng = np.random.default_rng(47)
        for _ in range(3):
            rho = random_density_matrix(rng)
            value, _ = optimize_local_fidelity(rho)
            best = max(
                local_overlap(rho, random_unitary(rng), random_unitary(rng)) for _ in range(300)
            )
            assert best <= value + 1e-12

    def test_bell_states_locally_equivalent(self):
        rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
        value, _ = optimize_local_fidelity(rho)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_mixed_state_unmovable(self):
        value, _ = optimize_local_fidelity(MIXED_RHO)
        assert value == pytest.approx(0.25, abs=1e-8)


def draws(table, n_samples, seed):
    """The resampled tables a Monte Carlo run draws, and the states it reconstructs."""
    result = mle_reconstruct(table, n_samples, seed)
    assert result.n_failures == 0
    resampled = poisson_resampled_counts(table.counts, n_samples, seed)
    return [CountTable(counts) for counts in resampled], list(result.samples)


def report(table, n_samples, seed, functionals):
    return monte_carlo_report(mle_reconstruct(table, n_samples, seed), functionals)


def sparse_table():
    """A table that lacks some coincidence patterns of some settings, and has extra patterns."""
    table = CountTable(ratio="sparse")
    rng = np.random.default_rng(53)
    for setting in SETTINGS:
        for pattern in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)):
            if rng.random() < 0.7:
                table.add(setting, pattern, int(rng.integers(0, 12)))
        table.add(setting, (1, 1, 1, 0), int(rng.integers(0, 5)))
    return table


FIXTURES = ("counts_17_83", "counts_30_70", "counts_50_50", "counts_70_30")


class TestMonteCarlo:
    def test_resample_draws_entry_by_entry(self, fixtures_dir):
        # the array draw equals scalar draws cell by cell in SETTINGS and pattern
        # order, read back through CountTable, on every fixture and on a sparse table
        tables = [ingest_counts(fixtures_dir / f"{name}.csv") for name in FIXTURES]
        for table in tables + [sparse_table()]:
            for seed in range(3):
                want = [CountTable(counts).coincidence_matrix()
                        for counts in poisson_resampled_counts(table.counts, 6, seed)]
                got = _resampled_coincidences(table.coincidence_matrix(), 6, seed)
                assert got.dtype == float
                assert np.array_equal(got, np.stack(want))

    def test_a_sample_does_not_depend_on_the_batch_size(self, fixtures_dir):
        coincidences = ingest_counts(fixtures_dir / "counts_30_70.csv").coincidence_matrix()
        for seed in range(3):
            eight = _resampled_coincidences(coincidences, 8, seed)
            assert np.array_equal(_resampled_coincidences(coincidences, 5, seed), eight[:5])

    def test_point_estimate_is_row_zero_of_the_batch(self, fixtures_dir):
        # the observed table reconstructs bit for bit as it does alone
        tables = [ingest_counts(fixtures_dir / f"{name}.csv") for name in FIXTURES]
        for seed, table in enumerate(tables + [sparse_table()]):
            alone = mle_reconstruct(table)
            batched = mle_reconstruct(table, 50, seed)
            assert np.array_equal(batched.rho, alone.rho)
            assert batched.log_likelihood == alone.log_likelihood
            assert batched.iterations == alone.iterations
            assert batched.certificate == alone.certificate
            assert len(alone.samples) == alone.n_failures == 0
            assert len(batched.samples) + batched.n_failures == 50

    def test_sample_counts_are_checked_before_the_table(self):
        with pytest.raises(ValueError, match="at least two"):
            mle_reconstruct(CountTable(), 1, seed=1)
        with pytest.raises(ValueError, match="seed"):
            mle_reconstruct(CountTable(), 4)

    def test_identity_resampler_gives_zero_std(self, fixtures_dir, monkeypatch):
        monkeypatch.setattr(
            tomo, "_resampled_coincidences", lambda counts, n, seed: np.tile(counts, (n, 1, 1)))
        table = ingest_counts(fixtures_dir / "counts_30_70.csv")
        result = report(table, 4, seed=1, functionals={"value": tangle})["value"]
        assert result.std == 0.0

    def test_trace_functional_trivial(self, fixtures_dir):
        table = ingest_counts(fixtures_dir / "counts_30_70.csv")
        result = report(
            table, 6, seed=2,
            functionals={"value": lambda rho: np.trace(rho, axis1=-2, axis2=-1).real},
        )["value"]
        assert result.mean == pytest.approx(1.0, abs=1e-10)
        assert result.std <= 1e-10

    def test_tangle_spread_comparable_to_reference(self, fixtures_dir):
        # reference analysis quotes an uncertainty of 0.19 for this data
        table = ingest_counts(fixtures_dir / "counts_30_70.csv")
        result = report(table, 80, seed=3, functionals={"value": tangle})["value"]
        assert 0.19 / 4 <= result.std <= 0.19 * 4

    def test_deterministic_under_seed(self, fixtures_dir):
        table = ingest_counts(fixtures_dir / "counts_50_50.csv")
        a = report(table, 10, seed=9, functionals={"value": tangle})
        b = report(table, 10, seed=9, functionals={"value": tangle})
        assert a == b

    def test_report_shares_reconstructions(self, fixtures_dir):
        table = ingest_counts(fixtures_dir / "counts_50_50.csv")
        shared = report(
            table, 10, seed=9,
            functionals={"tangle": tangle, "trace": lambda r: np.trace(r, axis1=-2, axis2=-1).real},
        )
        single = report(table, 10, seed=9, functionals={"value": tangle})
        assert shared["tangle"] == single["value"]

    def test_batch_matches_one_table_at_a_time(self, fixtures_dir):
        tables, rhos = draws(ingest_counts(fixtures_dir / "counts_30_70.csv"), 12, seed=5)
        singles = [mle_reconstruct(t) for t in tables]
        for rho, single in zip(rhos, singles, strict=True):
            assert np.abs(rho - single.rho).max() <= 1e-10
        ascent = _ascend(np.stack([t.coincidence_matrix() for t in tables]))
        assert ascent.converged.all()
        assert list(ascent.iterations) == [s.iterations for s in singles]

    def test_zero_table_is_one_failure(self, fixtures_dir, monkeypatch):
        table = ingest_counts(fixtures_dir / "counts_30_70.csv")
        _, rhos = draws(table, 8, seed=6)
        draw = tomo._resampled_coincidences

        def zero_third(means, n, seed):
            drawn = draw(means, n, seed)
            drawn[2] = 0
            return drawn

        monkeypatch.setattr(tomo, "_resampled_coincidences", zero_third)
        kept = []
        result = report(
            table, 8, seed=6, functionals={"value": lambda r: kept.extend(r) or np.zeros(len(r))},
        )["value"]
        assert result.n_failures == 1 and result.n_samples == 7
        del rhos[2]
        for a, b in zip(rhos, kept, strict=True):
            assert np.abs(a - b).max() <= 1e-10

    def test_functional_returns_one_value_per_state(self, fixtures_dir):
        table = ingest_counts(fixtures_dir / "counts_30_70.csv")
        with pytest.raises(ValueError, match="returned shape"):
            report(table, 6, seed=2, functionals={"value": lambda r: 0.0})

    def test_unconverged_samples_are_failures(self, fixtures_dir, monkeypatch):
        # the cap applies to the point estimate too, in the same batch: capped at
        # the point estimate's own iterations, it converges and a resample does not
        table = ingest_counts(fixtures_dir / "counts_70_30.csv")
        tables, _ = draws(table, 8, seed=7)
        iterations = _ascend(np.stack([t.coincidence_matrix() for t in tables])).iterations
        cap = mle_reconstruct(table).iterations
        monkeypatch.setattr(tomo, "MAX_ITERATIONS", cap)
        result = report(table, 8, seed=7, functionals={"value": tangle})["value"]
        assert result.n_failures == int((iterations > cap).sum()) > 0

    def test_uncertified_point_estimate_raises_before_the_samples_count(
        self, fixtures_dir, monkeypatch
    ):
        table = ingest_counts(fixtures_dir / "counts_30_70.csv")
        monkeypatch.setattr(tomo, "MAX_ITERATIONS", mle_reconstruct(table).iterations - 1)
        with pytest.raises(ConvergenceError, match="not certified"):
            mle_reconstruct(table, 8, seed=7)

    def test_fewer_than_two_kept_samples_raise(self, fixtures_dir, monkeypatch):
        def one_nonzero(means, n, seed):
            drawn = np.zeros((n,) + means.shape)
            drawn[0] = means
            return drawn

        monkeypatch.setattr(tomo, "_resampled_coincidences", one_nonzero)
        result = mle_reconstruct(ingest_counts(fixtures_dir / "counts_30_70.csv"), 5, seed=1)
        assert len(result.samples) == 1 and result.n_failures == 4
        with pytest.raises(ConvergenceError, match="only 1 of 5"):
            monte_carlo_report(result, {"value": tangle})


def likelihood_paths(monkeypatch, maximize):
    """Each sample's log-likelihood at the start and after every iteration of ``maximize()``.

    ``maximize`` runs ``_ascend`` or ``_maximize``.  A run capped at k
    iterations stops every sample where the uncapped run is after k, so
    reruns under the caps 0, 1, ... trace the path.
    """
    iterations = maximize()[3]
    steps = []
    with monkeypatch.context() as capped:
        for cap in range(iterations.max() + 1):
            capped.setattr(tomo, "MAX_ITERATIONS", cap)
            steps.append(maximize()[1])
    return [[float(step[s]) for step in steps[:n + 1]] for s, n in enumerate(iterations)]


class TestStraightPass:
    def test_derivatives_once_per_iteration(self, fixtures_dir, monkeypatch):
        # row 0 has exact frequencies of the mixed state and is certified at its
        # start; the other rows are resamples of each fixture, all distinct.  They
        # start cold, from the floored linear inversion, where refused steps
        # follow refused steps
        uniform = np.full((1, 9, 4), 25.0)
        batch = np.concatenate([uniform] + [
            _resampled_coincidences(
                ingest_counts(fixtures_dir / f"{name}.csv").coincidence_matrix(), 12, seed)
            for seed, name in enumerate(FIXTURES)
        ])
        rows = {row.tobytes(): i for i, row in enumerate(batch.reshape(len(batch), 36))}
        assert len(rows) == len(batch)
        counts = batch.reshape(len(batch), 36)
        start = tomo._psd_floor(_linear_inversion(batch), tomo._WARM_UP_FLOOR)
        evaluations = np.zeros(len(batch), dtype=int)
        # rows whose last step was refused, and the refused steps that followed a
        # refused step
        refused = np.zeros(len(batch), dtype=bool)
        refused_again = np.zeros(len(batch), dtype=int)
        factorized = []
        derivatives, rise = tomo._chart_derivatives, tomo._rise
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def counting_derivatives(counts, *args):
            for row in counts:
                evaluations[rows[row.tobytes()]] += 1
            return derivatives(counts, *args)

        # a step's rise; entering the first face also calls it, and from the
        # floored start its last call there moves no eigenvalue, so it reads as
        # taken
        def counting_rise(counts, *args):
            rises = rise(counts, *args)
            for row, up in zip(counts, np.isfinite(rises) & (rises >= 0.0)):
                index = rows[row.tobytes()]
                refused_again[index] += refused[index] and not up
                refused[index] = not up
            return rises

        def counting_eigh(a, *args, **kwargs):
            if a.shape[-1] == 16:
                factorized.append(len(a))
            return eigh(a, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            if a.shape[-1] == 16:
                factorized.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(tomo, "_chart_derivatives", counting_derivatives)
        monkeypatch.setattr(tomo, "_rise", counting_rise)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        ascent = tomo._maximize(counts, start)
        assert ascent.converged.all()
        assert ascent.iterations[0] == 0
        # every pass evaluates each active row's derivatives, after a taken step
        # or a refused one
        assert (evaluations == ascent.iterations).all()
        # refused steps follow refused steps, and none of them, nor any taken
        # step, needs a 16x16 eigendecomposition or eigenvalue solve
        assert refused_again.sum() > 0
        assert not factorized


class TestLikelihoodPath:
    def test_monotone_non_decreasing(self, fixtures_dir, monkeypatch):
        table = ingest_counts(fixtures_dir / "counts_30_70.csv")
        result = mle_reconstruct(table)
        (path,) = likelihood_paths(monkeypatch, lambda: _ascend(table.coincidence_matrix()[None]))
        assert path[-1] == result.log_likelihood
        assert len(path) == result.iterations or len(path) == result.iterations + 1
        assert all(b >= a for a, b in zip(path, path[1:]))

    def test_indefinite_hessians_still_climb(self, monkeypatch):
        # tomo-mc-like batches: a Werner table with 15-65 counts per setting and its
        # 50 resamples.  Where -H has a negative eigenvalue, only the damping keeps
        # the steps climbing; every row's path still rises and ends certified
        smallest = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            p = rng.uniform(0.5, 0.95)
            rho = p * PHI_PLUS_RHO + (1.0 - p) * MIXED_RHO
            coincidences = np.array([
                rng.multinomial(int(rng.integers(15, 66)), expected_coincidences(rho, s))
                for s in SETTINGS], dtype=float)
            batch = np.concatenate(
                [coincidences[None], _resampled_coincidences(coincidences, 50, seed)])
            batch = batch[batch.sum(axis=(1, 2)) > 0]
            derivatives = tomo._chart_derivatives

            def recording(counts, probs, products, lam, rank, ratio):
                grad, hess = derivatives(counts, probs, products, lam, rank, ratio)
                eigs = np.linalg.eigvalsh(tomo._IDLE[rank] - hess)
                smallest.extend(eigs[:, 0] / eigs[:, -1])
                return grad, hess

            with monkeypatch.context() as recorded:
                recorded.setattr(tomo, "_chart_derivatives", recording)
                assert _ascend(batch).converged.all()
            for path in likelihood_paths(monkeypatch, lambda: _ascend(batch)):
                assert all(b >= a for a, b in zip(path, path[1:]))
        assert min(smallest) < -1e-6


class TestWarmUp:
    def test_warm_start_saves_newton_iterations(self, fixtures_dir):
        # each fixture with 50 resamples: from the warm-up, at least a quarter
        # fewer Newton iterations than from the floored linear inversion itself
        # (759 against 1341)
        warm = cold = 0
        for seed, name in enumerate(FIXTURES):
            table = ingest_counts(fixtures_dir / f"{name}.csv")
            batch = np.concatenate(
                [table.coincidence_matrix()[None],
                 _resampled_coincidences(table.coincidence_matrix(), 50, seed)])
            ascent = _ascend(batch)
            assert ascent.converged.all()
            warm += ascent.iterations.sum()
            ascent = _maximize(batch.reshape(len(batch), 36),
                               tomo._psd_floor(_linear_inversion(batch), tomo._WARM_UP_FLOOR))
            assert ascent.converged.all()
            cold += ascent.iterations.sum()
        assert warm <= 0.75 * cold

    def test_warm_up_states_stay_positive_definite(self, monkeypatch):
        # every state the warm-up passes through, on a table with empty cells
        table = sparse_table()
        batch = np.concatenate(
            [table.coincidence_matrix()[None],
             _resampled_coincidences(table.coincidence_matrix(), 50, 3)])
        batch = batch[batch.sum(axis=(1, 2)) > 0]
        counts = batch.reshape(len(batch), 36)
        assert (counts == 0).any(axis=1).all()
        states = []
        for steps in range(tomo._WARM_UP_STEPS + 1):
            monkeypatch.setattr(tomo, "_WARM_UP_STEPS", steps)
            states.append(tomo._warm_up(counts, _linear_inversion(batch)))
        states = np.stack(states)
        assert np.isfinite(states).all()
        assert np.abs(states - np.swapaxes(states, -1, -2).conj()).max() <= 1e-12
        assert (np.linalg.eigvalsh(states) > 0).all()
        assert (tomo._probabilities(states)[:, counts > 0] > 0).all()


def rrr_shortfall(coincidences, rhos):
    """How far below the diluted-RrhoR oracle each state's log-likelihood is, per count."""
    oracle = rrr_maximum(coincidences, steps=3000)
    gap = multinomial_log_likelihood(coincidences, oracle) - multinomial_log_likelihood(
        coincidences, np.asarray(rhos))
    return gap / coincidences.reshape(len(coincidences), 36).sum(axis=1)


class TestCertifiedMaximum:
    def test_fixture_resamples_reach_the_oracle(self, fixtures_dir):
        for seed, name in enumerate(FIXTURES):
            tables, rhos = draws(ingest_counts(fixtures_dir / f"{name}.csv"), 20, seed=seed)
            coincidences = np.stack([t.coincidence_matrix() for t in tables])
            assert rrr_shortfall(coincidences, rhos).max() <= CERTIFICATE_TOL

    def test_self_consistency_states_reach_the_oracle(self):
        # criterion 5's states at 10^5 events per setting, N = 9e5
        phi = PHI_PLUS_RHO
        psi = np.outer(PSI_MINUS, PSI_MINUS.conj())
        states = (phi, psi, MIXED_RHO, 0.8 * phi + 0.2 * MIXED_RHO)
        tables = [simulate_counts(rho, SETTINGS, 10**5, seed=seed)
                  for seed, rho in enumerate(states, start=100)]
        results = [mle_reconstruct(t) for t in tables]
        coincidences = np.stack([t.coincidence_matrix() for t in tables])
        for result in results:
            assert abs(result.certificate) <= CERTIFICATE_TOL * 9e5
        assert rrr_shortfall(coincidences, [r.rho for r in results]).max() <= CERTIFICATE_TOL

    def test_30_70_reaches_the_maximum(self, fixtures_dir):
        # an ascent stopped on a small relative improvement halts 0.005 below this maximum
        table = ingest_counts(fixtures_dir / "counts_30_70.csv")
        result = mle_reconstruct(table)
        assert result.log_likelihood == pytest.approx(-403.69391, abs=1e-5)
        assert result.certificate <= CERTIFICATE_TOL * 310
        oracle = rrr_maximum(table.coincidence_matrix()[None])
        assert multinomial_log_likelihood(table.coincidence_matrix()[None], oracle)[0] == (
            pytest.approx(-403.69391, abs=1e-5))

    def test_monte_carlo_reports_the_largest_certificate(self, fixtures_dir):
        table = ingest_counts(fixtures_dir / "counts_70_30.csv")
        tables, rhos = draws(table, 12, seed=4)
        result = report(table, 12, seed=4, functionals={"value": tangle})["value"]
        coincidences = np.stack([t.coincidence_matrix() for t in tables]).reshape(12, 36)
        certificates = [tomo._certificate(c, r)[0] for c, r in zip(coincidences, rhos)]
        assert result.certificate == max(certificates)
        # each resample is certified against its own number of counts
        assert (np.array(certificates) <= CERTIFICATE_TOL * coincidences.sum(axis=1)).all()

    def test_newton_row_iterations_at_200_samples_stay_bounded(self, fixtures_dir):
        # the four fixtures as `reconstruct --mc-samples 200 --seed 20100607` batches them:
        # 4858 row-iterations with the eigenbasis step, 4833 with the lifted solve, 3835
        # (largest per row 7, 8, 8 and 8) with the chart of each face, 2915 (largest
        # 6, 8, 6 and 11) with the damping starting at 1e-3, 2865 (largest 5, 6, 6
        # and 7) with every row starting in the chart, 2883 (largest 5, 6, 6 and 7)
        # drawn from one Poisson stream over the coincidence matrix; the factor T
        # alone had rows of 159
        total = 0
        for name in FIXTURES:
            table = ingest_counts(fixtures_dir / f"{name}.csv")
            batch = np.concatenate(
                [table.coincidence_matrix()[None],
                 _resampled_coincidences(table.coincidence_matrix(), 200, 20100607)])
            ascent = _ascend(batch[batch.sum(axis=(1, 2)) > 0])
            assert ascent.converged.all()
            assert ascent.iterations.max() <= 15
            total += ascent.iterations.sum()
            if name == "counts_30_70":
                assert ascent.log_likelihood[0] == pytest.approx(-403.69391, abs=1e-5)
        assert total <= 3010

    def test_returned_certificate_is_the_certificate_of_the_returned_state(self, fixtures_dir):
        # the maximizer's own certificate, bit for bit, on each fixture and on a resampled batch
        stacks = [ingest_counts(fixtures_dir / f"{name}.csv").coincidence_matrix()[None]
                  for name in FIXTURES]
        tables, _ = draws(ingest_counts(fixtures_dir / "counts_30_70.csv"), 50, seed=8)
        stacks.append(np.stack([t.coincidence_matrix() for t in tables]))
        for coincidences in stacks:
            ascent = _ascend(coincidences)
            assert ascent.converged.all()
            recomputed = tomo._certificate(coincidences.reshape(-1, 36), ascent.rho)[0]
            assert np.array_equal(ascent.certificate, recomputed)

    def test_saddle_start_reopens_to_the_maximum(self, monkeypatch):
        # a rank-3 start (a saddle of the likelihood in a factor T of rho = T†T,
        # whose gradient vanishes along the missing direction): R exceeds N there,
        # so the row enters its rank-4 chart with that eigenvalue 0, and the faces
        # its steps drop to are reopened on the way to the maximum
        table = simulate_counts(0.8 * PHI_PLUS_RHO + 0.2 * MIXED_RHO, SETTINGS, 200, seed=3)
        reference = mle_reconstruct(table)
        start = random_density_matrix(np.random.default_rng(1), rank=3)
        counts = table.coincidence_matrix().reshape(1, 36)
        _, lam, rank, _ = tomo._enter_face(counts, start[None])
        assert rank[0] == 4 and lam[0, 0] <= 1e-15
        reopen, reopened = tomo._reopen, []

        def recording(basis, rank, ratio, n_total):
            moved = reopen(basis, rank, ratio, n_total)
            reopened.append(int((moved[1] > rank).sum()))
            return moved

        with monkeypatch.context() as patched:
            patched.setattr(tomo, "_reopen", recording)
            ascent = _maximize(counts, start[None])
        assert ascent.converged[0] and sum(reopened) > 0
        (path,) = likelihood_paths(monkeypatch, lambda: _maximize(counts, start[None]))
        assert ascent.certificate[0] == tomo._certificate(counts, ascent.rho)[0][0]
        assert all(b >= a for a, b in zip(path, path[1:]))
        assert ascent.log_likelihood[0] == pytest.approx(
            reference.log_likelihood, abs=CERTIFICATE_TOL * 200)
        assert np.abs(ascent.rho[0] - reference.rho).max() <= 1e-6


class TestChart:
    def test_derivatives_match_the_oracle(self):
        # closed-form gradient and Hessian at the chart's origin against central
        # differences of q_k and tr rho, at every rank, on random states and counts
        # with empty cells
        rng = np.random.default_rng(59)
        for rank in (1, 2, 3, 4) * 3:
            basis, lam = random_chart(rng, rank)
            counts = rng.integers(0, 40, size=36).astype(float)
            counts[rng.random(36) < 0.3] = 0.0
            rho = tomo._chart_state(basis[None], lam[None])
            _, ratio, probs = tomo._certificate(counts[None], rho)
            grad, hess = tomo._chart_derivatives(
                counts[None], probs, tomo._chart_products(basis[None]), lam[None], np.array([rank]),
                basis.conj().T @ ratio[0] @ basis)
            want_grad, want_hess = chart_derivatives(basis, lam, rank, counts)
            assert np.abs(grad[0] - want_grad).max() <= 1e-10 * np.abs(want_grad).max()
            assert np.abs(hess[0] - want_hess).max() <= 1e-10 * np.abs(want_hess).max()

    def finish(self, monkeypatch, table, start):
        """The maximizer from the state ``start``, its likelihood path and its shortfall."""
        counts = table.coincidence_matrix().reshape(1, 36)
        ascent = _maximize(counts, start[None])
        (path,) = likelihood_paths(monkeypatch, lambda: _maximize(counts, start[None]))
        assert ascent.converged[0]
        assert all(b >= a for a, b in zip(path, path[1:]))
        assert path[-1] == ascent.log_likelihood[0]
        return ascent, rrr_shortfall(table.coincidence_matrix()[None], ascent.rho)[0]

    def test_too_small_face_reopens_to_the_maximum(self, monkeypatch):
        # the maximum is inside the state space; the start has rank 3, and the row
        # enters the chart of its rank-3 face with the fourth direction left out
        table = simulate_counts(0.5 * PHI_PLUS_RHO + 0.5 * MIXED_RHO, SETTINGS, 200, seed=3)
        assert np.linalg.eigvalsh(mle_reconstruct(table).rho)[0] > 0.01
        enter, ranks = tomo._enter_face, []

        def too_small(counts, rho):
            basis, lam, _, logl = enter(counts, rho)
            lam = np.where(lam > 1e-12, lam, 0.0)
            ranks.append(int((lam > 0.0).sum()))
            return basis, lam / lam.sum(axis=1, keepdims=True), (lam > 0.0).sum(axis=1), logl

        monkeypatch.setattr(tomo, "_enter_face", too_small)
        start = random_density_matrix(np.random.default_rng(2), rank=3)
        ascent, shortfall = self.finish(monkeypatch, table, start)
        assert ranks[0] == 3 and ascent.rank[0] == 4
        assert shortfall <= CERTIFICATE_TOL

    def test_too_large_face_drops_to_the_maximum(self, monkeypatch):
        # the maximum of counts from a pure state has rank 1; the row enters the
        # chart from a rank-4 start and keeps every eigenvalue
        table = simulate_counts(PHI_PLUS_RHO, SETTINGS, 200, seed=1)
        enter, ranks = tomo._enter_face, []

        def recording(*args):
            face = enter(*args)
            ranks.append(int(face[2][0]))
            return face

        monkeypatch.setattr(tomo, "_enter_face", recording)
        ascent, shortfall = self.finish(monkeypatch, table, 0.5 * PHI_PLUS_RHO + 0.5 * MIXED_RHO)
        assert ranks[0] == 4 and ascent.rank[0] == 1
        assert shortfall <= CERTIFICATE_TOL


    def test_face_that_loses_a_count_is_not_entered(self):
        # Phi+ with 1e-4 of |HV>, and 10^5 events per setting at Phi+'s exact
        # frequencies plus one HV count in zz, which only |HV> explains: <HV|R|HV>
        # is below N, but zeroing |HV> would leave that count at probability 0,
        # so the row starts in its rank-4 chart and still reaches a maximum
        table = np.array([exact_coincidences(PHI_PLUS_RHO)[s] for s in SETTINGS]) * 1e5
        table[SETTINGS.index(("z", "z")), 1] += 1.0
        counts = table.reshape(1, 36)
        hv = np.zeros((4, 4), dtype=complex)
        hv[1, 1] = 1.0
        start = (1.0 - 1e-4) * PHI_PLUS_RHO + 1e-4 * hv
        _, lam, rank, logl = tomo._enter_face(counts, start[None])
        assert rank[0] == 4 and lam[0] == pytest.approx([0.0, 0.0, 1e-4, 1.0 - 1e-4], abs=1e-15)
        assert np.isfinite(logl[0])
        ascent = _maximize(counts, start[None])
        assert ascent.converged[0] and ascent.log_likelihood[0] > logl[0]


class TestReferenceCrossValidation:
    # quoted post-selected fidelities with their one-sigma uncertainties;
    # three of the four data sets reproduce them, the 30/70 block does not:
    # its counts give F_opt 0.642 here and under the program-free estimate
    # (oracles.program_free_estimate), 3.5 Monte Carlo sigma below the
    # quoted 0.842 (acceptance 4a-4c check that agreement instead)
    QUOTED = {
        "counts_17_83": (0.637, 0.049),
        "counts_50_50": (0.575, 0.034),
        "counts_70_30": (0.619, 0.077),
    }

    @pytest.mark.parametrize("name,quoted", sorted(QUOTED.items()))
    def test_fidelity_matches_quoted_value(self, fixtures_dir, name, quoted):
        value, sigma = quoted
        rec = mle_reconstruct(ingest_counts(fixtures_dir / f"{name}.csv"))
        f_opt, _ = optimize_local_fidelity(rec.rho)
        assert abs(f_opt - value) <= sigma


class TestProgramFreeEstimator:
    def test_exact_frequencies_return_the_state(self):
        phi = PHI_PLUS_RHO
        werner = 0.8 * phi + 0.2 * MIXED_RHO
        # (rho, F, tangle, S): Werner(p) has F = (1+3p)/4, C = (3p-1)/2, S = 2 sqrt(2) p
        for rho, f, t, chsh in ((phi, 1.0, 1.0, 2 * math.sqrt(2)),
                                (werner, 0.85, 0.49, 1.6 * math.sqrt(2))):
            est = program_free_estimate(exact_coincidences(rho))
            assert np.abs(est["rho"] - rho).max() < 1e-12
            assert est["fidelity"] == pytest.approx(f, abs=1e-12)
            assert est["tangle"] == pytest.approx(t, abs=1e-12)
            assert est["chsh"] == pytest.approx(chsh, abs=1e-12)

    def test_port_convention_matches_package(self):
        # a generic state has non-zero single-arm terms, so this also fixes
        # the sign of the marginals
        rho = random_density_matrix(np.random.default_rng(7))
        freqs = exact_coincidences(rho)
        for setting in SETTINGS:
            assert np.allclose(freqs[setting], expected_coincidences(rho, setting), atol=1e-12)
        assert np.abs(program_free_estimate(freqs)["rho"] - rho).max() < 1e-12
