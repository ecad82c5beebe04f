import csv
from collections import defaultdict

import pytest

from heraldsim.experiments import REFERENCE_NUMBER_PROBS
from heraldsim.tomography import SETTINGS, ingest_counts

ARM_KEY = {
    (0, 0): "p00", (1, 0): "p10_plus_p01", (0, 1): "p10_plus_p01",
    (1, 1): "p11", (2, 0): "p20_plus_p02", (0, 2): "p20_plus_p02",
    (2, 1): "p21_plus_p12", (1, 2): "p21_plus_p12", (2, 2): "p22",
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCountFixtures:
    @pytest.mark.parametrize("name", ["17_83", "30_70", "50_50", "70_30"])
    def test_complete_and_ingestible(self, fixtures_dir, name):
        table = ingest_counts(fixtures_dir / f"counts_{name}.csv")
        assert {setting for setting, _ in table.counts} == set(SETTINGS)
        assert len(table.counts) == 9 * 16
        assert table.ratio == name.replace("_", "/")

    def test_vacuum_dominates_every_setting(self, fixtures_dir):
        for name in ("17_83", "30_70", "50_50", "70_30"):
            table = ingest_counts(fixtures_dir / f"counts_{name}.csv")
            for setting in SETTINGS:
                vacuum = table.counts[(setting, (0, 0, 0, 0))]
                others = sum(
                    c for (s, p), c in table.counts.items()
                    if s == setting and p != (0, 0, 0, 0)
                )
                assert vacuum > others


class TestNumberProbabilityFixtures:
    def test_aggregates_match_embedded_reference(self, fixtures_dir):
        rows = read_rows(fixtures_dir / "number_probabilities.csv")
        for row in rows:
            expected = REFERENCE_NUMBER_PROBS[row["ratio"]][row["quantity"]]
            assert float(row["value"]) == pytest.approx(expected, rel=1e-12)

    def test_polarization_table_sums_to_aggregates(self, fixtures_dir):
        sums: dict[tuple[str, str], float] = defaultdict(float)
        for row in read_rows(fixtures_dir / "number_probabilities_by_polarization.csv"):
            n1 = int(row["n1H"]) + int(row["n1V"])
            n2 = int(row["n2H"]) + int(row["n2V"])
            sums[(row["ratio"], ARM_KEY[(n1, n2)])] += float(row["value"])
        for ratio, quantities in REFERENCE_NUMBER_PROBS.items():
            for quantity, value in quantities.items():
                if value > 0:
                    assert sums[(ratio, quantity)] == pytest.approx(value, rel=0.01)
