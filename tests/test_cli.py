import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heraldsim
from heraldsim.cli import main
from heraldsim.tomography import ingest_counts


def write_config(path: Path, **overrides) -> Path:
    config = {
        "schema": "heraldsim-config/1", "t1": 0.5, "t2": 0.5, "tau": 0.2, "max_pairs": 4,
        "visibility": 0.862, **overrides,
    }
    path.write_text(json.dumps(config))
    return path


def read_bytes_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestExitCodes:
    def test_missing_config_is_data_error(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_ignored_config_field_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        data = json.loads(config.read_text())
        data["seed"] = 7
        config.write_text(json.dumps(data))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown config fields" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        code = main(["sweep", "--t", "0.5", "--frobnicate", "--out", str(tmp_path)])
        assert code == 1

    def test_stochastic_command_requires_seed(self, tmp_path):
        code = main(["tomo-sim", "--state", "phi+", "--events", "100", "--out", str(tmp_path)])
        assert code == 1

    def test_mc_requires_seed(self, tmp_path, fixtures_dir):
        code = main([
            "reconstruct", "--counts", str(fixtures_dir / "counts_50_50.csv"),
            "--mc-samples", "5", "--out", str(tmp_path),
        ])
        assert code == 1

    def test_malformed_counts_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,valid,header\n")
        code = main(["reconstruct", "--counts", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_bad_state_name_is_data_error(self, tmp_path):
        code = main([
            "tomo-sim", "--state", "ghz", "--events", "10", "--seed", "1",
            "--out", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--config", "{config}"], "zero coincidence probability"),
        (["power-compare", "--tau-high", "0.25", "--t", "0"], "zero coincidence probability"),
        (["power-compare", "--tau-high", "0.25", "--t", "1"], "zero coincidence probability"),
        (["calibrate", "--t", "1"], "zero herald probability"),
    ], ids=["simulate-t1-0", "power-compare-t-0", "power-compare-t-1", "calibrate-t-1"])
    def test_edge_transmission_is_data_error(self, tmp_path, capsys, argv, message):
        config = write_config(tmp_path / "config.json", t1=0.0)
        argv = [arg.format(config=config) for arg in argv]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err


class TestCommands:
    def test_simulate_writes_reports(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for key in ("fidelity_post", "fidelity_meas", "tangle", "chsh",
                    "P_direct", "P_estimator", "visibility"):
            assert key in metrics
        assert (out / "number_table.csv").exists()
        assert (out / "rho_post.json").exists()

    def test_csv_cells_are_plain_floats(self, tmp_path):
        # every data cell reads back with float(); numpy scalars must not leak their repr
        config = write_config(tmp_path / "config.json", visibility=0.862)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        code = main(["sweep", "--t", "0.3,0.5", "--pairs", "3", "--out", str(tmp_path / "sweep")])
        assert code == 0
        paths = [tmp_path / "sim" / "number_table.csv", tmp_path / "sweep" / "sweep.csv",
                 tmp_path / "sweep" / "fig2_series.csv"]
        for path in paths:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path
            for row in rows:
                for cell in row:
                    float(cell)

    def test_sweep_emits_plot_series(self, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--t", "0.17,0.3,0.5,0.7", "--tau", "0.2", "--pairs", "3",
            "--out", str(out),
        ])
        assert code == 0
        series = (out / "fig2_series.csv").read_text().strip().split("\n")
        assert series[0] == "transmission,P_estimator"
        assert len(series) == 5

    def test_photon_cap_follows_max_pairs(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schema": "heraldsim-config/1", "t1": 0.5, "t2": 0.5, "tau": 0.25, "max_pairs": 5,
        }))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        code = main(["sweep", "--t", "0.5", "--pairs", "5", "--out", str(tmp_path / "sweep")])
        assert code == 0

    def test_tomo_sim_round_trip(self, tmp_path):
        out = tmp_path / "tomo"
        code = main([
            "tomo-sim", "--state", "werner:0.8", "--events", "2000", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        table = ingest_counts(out / "counts.csv")
        assert sum(table.counts.values()) == 2000 * 9

    def test_reconstruct_fixture_report(self, tmp_path, fixtures_dir):
        out = tmp_path / "rec"
        code = main([
            "reconstruct", "--counts", str(fixtures_dir / "counts_50_50.csv"),
            "--optimize-local", "--mc-samples", "10", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "reconstruction.json").read_text())
        assert 0.50 <= report["fidelity_optimized"] <= 0.65
        assert report["iterations"] > 0
        assert set(report["monte_carlo"]) == {
            "tangle", "chsh", "fidelity_phi_plus", "fidelity_optimized"
        }

    def test_metrics_command(self, tmp_path, fixtures_dir):
        out = tmp_path / "metrics"
        code = main([
            "metrics", "--counts", str(fixtures_dir / "counts_30_70.csv"), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert {"fidelity_phi_plus", "tangle", "chsh"} <= set(payload)

    def test_calibrate_and_tables(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out)]) == 0
        cal = json.loads((out / "calibration.json").read_text())
        config = write_config(tmp_path / "config.json", tau=cal["tau"])
        out2 = tmp_path / "tables"
        code = main([
            "reproduce-tables", "--config", str(config), "--ratio", "50/50",
            "--out", str(out2),
        ])
        assert code == 0
        report = json.loads((out2 / "table_report.json").read_text())
        assert report["comparison"]["p11"]["ratio"] == pytest.approx(1.0, abs=0.02)

    def test_power_compare(self, tmp_path):
        out = tmp_path / "power"
        code = main(["power-compare", "--tau-high", "0.25", "--t", "0.3", "--out", str(out)])
        assert code == 0
        series = (out / "fig3_series.csv").read_text().strip().split("\n")
        assert series[0] == "power_w,F_post"
        assert len(series) == 3

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERALDSIM_OUT", str(tmp_path / "envout"))
        config = write_config(tmp_path / "config.json")
        assert main(["simulate", "--config", str(config)]) == 0
        assert (tmp_path / "envout" / "metrics.json").exists()


class TestDeterminism:
    def test_tomo_sim_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["tomo-sim", "--state", "phi+", "--events", "5000", "--seed", "123",
                  "--out", str(out)])
            outs.append(read_bytes_tree(out))
        assert outs[0] == outs[1]

    def test_reconstruct_byte_identical(self, tmp_path, fixtures_dir):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "reconstruct", "--counts", str(fixtures_dir / "counts_30_70.csv"),
                "--mc-samples", "8", "--seed", "42", "--out", str(out),
            ])
            outs.append(read_bytes_tree(out))
        assert outs[0] == outs[1]

    def test_sweep_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["sweep", "--t", "0.3,0.5", "--tau", "0.2", "--out", str(out)])
            outs.append(read_bytes_tree(out))
        assert outs[0] == outs[1]


class TestNonConvergence:
    def test_exit_code_three(self, tmp_path, fixtures_dir, monkeypatch):
        import heraldsim.tomography as tomo

        monkeypatch.setattr(tomo, "MAX_ITERATIONS", 1)
        code = main([
            "reconstruct", "--counts", str(fixtures_dir / "counts_30_70.csv"),
            "--out", str(tmp_path),
        ])
        assert code == 3


class TestPlotSeries:
    def test_empty_results_header_only(self, tmp_path):
        from heraldsim.cli import emit_fig2_series

        path = tmp_path / "fig2_series.csv"
        emit_fig2_series([], path)
        assert path.read_text() == "transmission,P_estimator\n"


class TestImport:
    def test_cli_loads_no_scipy(self):
        # numpy is the only dependency; a fresh interpreter shows every module the import pulls in
        src = str(Path(heraldsim.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, heraldsim.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"
