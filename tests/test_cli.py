import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heraldsim
import heraldsim.metrics
from heraldsim.cli import _COMMANDS, _build_parser, main
from heraldsim.experiments import calibrate_tau, power_scaled_tau, run_power_comparison
from heraldsim.metrics import chsh_max, fidelity_to_phi_plus, tangle
from heraldsim.tomography import (
    CERTIFICATE_TOL,
    ingest_counts,
    mle_reconstruct,
    optimize_local_fidelity,
)


CONFIG = {
    "schema": "heraldsim-config/1", "t1": 0.5, "t2": 0.5, "tau": 0.2, "max_pairs": 4,
    "visibility": 0.862,
}


def write_config(path: Path, **overrides) -> Path:
    path.write_text(json.dumps({**CONFIG, **overrides}))
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

    @pytest.mark.parametrize("argv,config,message", [
        (["simulate", "--config", "{config}"], {"t1": 0.0}, "zero coincidence probability"),
        # nothing heralds: no pair is emitted, or every photon of arm 1 transmits
        (["simulate", "--config", "{config}"], {"tau": 0.0}, "zero herald probability"),
        (["simulate", "--config", "{config}"], {"t1": 1.0}, "zero herald probability"),
        (["power-compare", "--tau-high", "0.25", "--t", "0"], {}, "zero coincidence probability"),
        (["power-compare", "--tau-high", "0.25", "--t", "1"], {}, "zero coincidence probability"),
        (["calibrate", "--t", "1"], {}, "zero herald probability for t1=1.0, t2=1.0"),
        # no block of fewer than two pairs holds the four photons a herald needs
        (["calibrate", "--pairs", "0"], {},
         "zero herald probability for max_pairs=0: no block of fewer than two pairs can herald"),
        (["calibrate", "--pairs", "1"], {},
         "zero herald probability for max_pairs=1: no block of fewer than two pairs can herald"),
    ], ids=["simulate-t1-0", "simulate-tau-0", "simulate-t1-1", "power-compare-t-0",
            "power-compare-t-1", "calibrate-t-1", "calibrate-pairs-0", "calibrate-pairs-1"])
    def test_edge_transmission_is_data_error(self, tmp_path, capsys, argv, config, message):
        config = write_config(tmp_path / "config.json", **config)
        argv = [arg.format(config=config) for arg in argv]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("document,message", [
        ({k: v for k, v in CONFIG.items() if k != "t1"}, "field 't1' is missing"),
        ({**CONFIG, "tau": None}, "field 'tau' has invalid value None"),
        ([1, 2], "must be a JSON object"),
        ({**CONFIG, "max_pairs": 3.7}, "field 'max_pairs' has invalid value 3.7"),
        ({**CONFIG, "max_pairs": True}, "field 'max_pairs' has invalid value True"),
    ], ids=["missing-t1", "null-tau", "not-an-object", "fractional-max-pairs", "boolean-max-pairs"])
    def test_bad_config_value_is_data_error(self, tmp_path, capsys, document, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_mc_samples_is_usage_error(self, tmp_path, fixtures_dir):
        code = main([
            "reconstruct", "--counts", str(fixtures_dir / "counts_50_50.csv"),
            "--mc-samples", "-3", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 1
        assert not (tmp_path / "reconstruction.json").exists()

    def test_one_mc_sample_is_usage_error(self, tmp_path, capsys, fixtures_dir):
        # a spread needs two samples; the flag is refused before the counts are read
        for counts in (fixtures_dir / "counts_50_50.csv", tmp_path / "absent.csv"):
            code = main([
                "reconstruct", "--counts", str(counts),
                "--mc-samples", "1", "--seed", "1", "--out", str(tmp_path),
            ])
            assert code == 1
            assert "need 0 or at least two Monte Carlo samples" in capsys.readouterr().err
        assert not (tmp_path / "reconstruction.json").exists()

    def test_negative_pairs_is_data_error(self, tmp_path, capsys):
        code = main(["calibrate", "--pairs", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "max_pairs must be non-negative" in capsys.readouterr().err
        with pytest.raises(ValueError, match="max_pairs must be non-negative"):
            calibrate_tau(max_pairs=-1)


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
        # the certificate bounds the distance to the likelihood maximum (585 counts)
        assert abs(report["certificate"]) <= CERTIFICATE_TOL * 585
        for mc in report["monte_carlo"].values():
            assert mc["n_failures"] == 0 and math.isfinite(mc["certificate"])

    def test_reconstruct_without_monte_carlo(self, tmp_path, fixtures_dir):
        # the point estimate's scalar metrics alone: no --mc-samples, no seed
        out = tmp_path / "point"
        code = main([
            "reconstruct", "--counts", str(fixtures_dir / "counts_30_70.csv"), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "reconstruction.json").read_text())
        assert {"fidelity_phi_plus", "tangle", "chsh"} <= set(payload)
        assert "monte_carlo" not in payload

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

    def test_tables_with_ten_photons_in_a_detector(self, tmp_path):
        # from 12 pairs a detector can count 10 photons; no two table entries may share a key
        config = write_config(tmp_path / "config.json", t1=0.3, t2=0.7, tau=0.2237, max_pairs=12)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        argv = ["reproduce-tables", "--config", str(config), "--out", str(tmp_path / "tables")]
        assert main(argv) == 0
        table_csv = (tmp_path / "tables" / "number_table.csv").read_bytes()
        assert table_csv == (tmp_path / "sim" / "number_table.csv").read_bytes()
        keys = json.loads((tmp_path / "tables" / "table_report.json").read_text())["table"]
        occupations = {tuple(int(n) for n in key.split(",")) for key in keys}
        assert all(len(occ) == 4 and ",".join(map(str, occ)) in keys for occ in occupations)
        assert len(occupations) == len(keys) == table_csv.count(b"\n") - 1
        assert max(max(occ) for occ in occupations) >= 10
        # the rows come as number_table returns them, in the order of the integer counts (10 after 9)
        rows = [tuple(map(int, row[:4])) for row in csv.reader(table_csv.decode().splitlines()[1:])]
        assert rows == sorted(occupations)

    def test_tables_need_no_coincidence(self, tmp_path, capsys):
        # with t1 = 0 the herald fires but no photon reaches output arm 1, so
        # simulate has nothing to post-select while the number table is defined
        config = write_config(tmp_path / "config.json", t1=0.0, t2=0.5, tau=0.3, max_pairs=4)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 2
        assert "zero coincidence probability" in capsys.readouterr().err
        argv = ["reproduce-tables", "--config", str(config), "--out", str(tmp_path / "tables")]
        assert main(argv) == 0
        report = json.loads((tmp_path / "tables" / "table_report.json").read_text())
        assert report["aggregates"]["p11"] == 0.0
        assert all(key.split(",")[:2] == ["0", "0"] for key in report["table"])
        assert sum(report["table"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_power_compare(self, tmp_path):
        out = tmp_path / "power"
        code = main(["power-compare", "--tau-high", "0.25", "--t", "0.3", "--out", str(out)])
        assert code == 0
        series = (out / "fig3_series.csv").read_text().strip().split("\n")
        assert series[0] == "power_w,F_post"
        assert len(series) == 3

    def test_calibrate_pairs_reach_the_api(self, tmp_path):
        out = tmp_path / "cal"
        code = main([
            "calibrate", "--t", "0.5", "--target-p11", "3.06e-3", "--pairs", "5",
            "--out", str(out),
        ])
        assert code == 0
        cal = json.loads((out / "calibration.json").read_text())
        assert cal["max_pairs"] == 5
        assert cal["tau"] == calibrate_tau(target_p11=3.06e-3, t1=0.5, t2=0.5, max_pairs=5)["tau"]

    def test_power_compare_pairs_reach_the_api(self, tmp_path):
        out = tmp_path / "power"
        code = main([
            "power-compare", "--tau-high", "0.25", "--t", "0.3", "--pairs", "5",
            "--out", str(out),
        ])
        assert code == 0
        want = run_power_comparison(0.25, power_scaled_tau(0.25), 0.3, max_pairs=5)
        assert json.loads((out / "power_comparison.json").read_text()) == json.loads(
            json.dumps(want))

    def test_power_compare_records_its_settings(self, tmp_path):
        # a --pairs 7 report must be told apart from a default 4-pair one
        reports = {}
        for pairs in ("4", "7"):
            out = tmp_path / pairs
            code = main([
                "power-compare", "--tau-high", "0.2237", "--t", "0.3", "--eta", "0.2",
                "--pairs", pairs, "--out", str(out),
            ])
            assert code == 0
            reports[pairs] = json.loads((out / "power_comparison.json").read_text())
        for pairs, report in reports.items():
            assert report["max_pairs"] == int(pairs)
            assert report["efficiency"] == 0.2
        assert reports["4"]["F_post_high"] != reports["7"]["F_post_high"]

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


class TestReconstructionFigures:
    FUNCTIONALS = {
        "fidelity_phi_plus": fidelity_to_phi_plus,
        "tangle": tangle,
        "chsh": chsh_max,
        "fidelity_optimized": lambda rho: optimize_local_fidelity(rho)[0],
    }

    @pytest.mark.parametrize("ratio", ["17_83", "30_70", "50_50", "70_30"])
    def test_one_checked_stack_gives_the_public_functionals(
        self, tmp_path, fixtures_dir, monkeypatch, ratio
    ):
        # reconstruct takes every figure of the point estimate and of its 50 resamples from
        # one stack, checked twice (state_figures, optimize_local_fidelity); bit for bit, the
        # point figures are the public functionals of rho, and each Monte Carlo mean and std
        # their reduction over the certified resamples
        counts = fixtures_dir / f"counts_{ratio}.csv"
        checked, checks = heraldsim.metrics._checked, []

        def counting(rho, vectors):
            checks.append(rho.shape)
            return checked(rho, vectors)

        with monkeypatch.context() as counted:
            counted.setattr(heraldsim.metrics, "_checked", counting)
            assert main([
                "reconstruct", "--counts", str(counts), "--optimize-local", "--mc-samples", "50",
                "--seed", "5", "--out", str(tmp_path),
            ]) == 0
        payload = json.loads((tmp_path / "reconstruction.json").read_text())
        result = mle_reconstruct(ingest_counts(counts), 50, 5)
        assert len(checks) == 2 and result.n_failures == 0
        for name, functional in self.FUNCTIONALS.items():
            assert payload[name] == functional(result.rho)
            values = functional(result.samples)
            mc = payload["monte_carlo"][name]
            assert (mc["mean"], mc["std"]) == (float(values.mean()), float(values.std(ddof=1)))


class TestNonConvergence:
    def test_exit_code_three(self, tmp_path, fixtures_dir, monkeypatch):
        import heraldsim.tomography as tomo

        monkeypatch.setattr(tomo, "MAX_ITERATIONS", 1)
        code = main([
            "reconstruct", "--counts", str(fixtures_dir / "counts_30_70.csv"),
            "--out", str(tmp_path),
        ])
        assert code == 3


# command lines per command, together setting every flag it has but --out
REPRESENTATIVE_ARGV = {
    "simulate": [["simulate", "--config", "config.json"]],
    "sweep": [["sweep", "--t", "0.3,0.5", "--tau", "0.25", "--pairs", "5", "--visibility", "0.9",
               "--eta", "0.1"]],
    "tomo-sim": [["tomo-sim", "--state", "werner:0.8", "--events", "500", "--seed", "1"]],
    "reconstruct": [["reconstruct", "--counts", "counts.csv", "--optimize-local",
                     "--mc-samples", "20", "--seed", "3"],
                    ["reconstruct", "--counts", "counts.csv", "--optimize-local"]],
    "reproduce-tables": [["reproduce-tables", "--config", "config.json", "--ratio", "30/70"]],
    "calibrate": [["calibrate", "--target-p11", "6e-4", "--t", "0.3", "--eta", "0.1",
                   "--visibility", "0.9", "--pairs", "6"]],
    "power-compare": [["power-compare", "--tau-high", "0.2545", "--tau-low", "0.2", "--t", "0.3",
                       "--eta", "0.1", "--pairs", "5"]],
}


def printed_help(parse, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


class TestParser:
    """A command builds only its own subcommand's parser, which reads it as the full parser does."""

    @pytest.fixture
    def built(self, monkeypatch):
        names = []
        build = _build_parser

        def recording(chosen):
            names.append(list(chosen))
            return build(chosen)

        monkeypatch.setattr("heraldsim.cli._build_parser", recording)
        return names

    def test_help_lists_every_command(self, capsys, built):
        out = printed_help(main, ["--help"], capsys)
        assert built == [list(_COMMANDS)]
        lines = [line.split() for line in out.splitlines()]
        for name, command in _COMMANDS.items():
            assert [name, *command.help.split()] in lines

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_command_parser_matches_the_full_parser(self, name, capsys, built):
        full = _build_parser(list(_COMMANDS))
        own_help = printed_help(main, [name, "-h"], capsys)
        assert built == [[name]]
        assert own_help == printed_help(full.parse_args, [name, "-h"], capsys)
        assert own_help.startswith(f"usage: heraldsim {name} [-h]")
        for argv in REPRESENTATIVE_ARGV[name]:
            assert _build_parser([name]).parse_args(argv) == full.parse_args(argv)

    def test_unknown_command_names_every_command(self, capsys, built):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert built == [list(_COMMANDS)]
        assert "invalid choice: 'frobnicate'" in err
        choices = err.split("choose from", 1)[1]
        assert all(name in choices for name in _COMMANDS)


class TestPlotSeries:
    def test_empty_results_header_only(self, tmp_path):
        from heraldsim.cli import emit_fig2_series

        path = tmp_path / "fig2_series.csv"
        emit_fig2_series([], path)
        assert path.read_text() == "transmission,P_estimator\n"


def loaded_modules(statement: str) -> set[str]:
    """Every module a fresh interpreter holds after running ``statement``."""
    src = str(Path(heraldsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys; {statement}; print(*sys.modules, sep='\\n')"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return set(out.stdout.split())


class TestImport:
    def test_cli_loads_no_scipy(self):
        # numpy is the only dependency; a fresh interpreter shows every module the import pulls in
        assert not {m for m in loaded_modules("import heraldsim.cli") if m.startswith("scipy")}

    def test_root_and_tomography_load_no_heralding_kernel(self):
        # the package root imports no submodule, and tomography reads none of the optics pipeline
        assert not {m for m in loaded_modules("import heraldsim") if m.startswith("heraldsim.")}
        modules = loaded_modules("import heraldsim.tomography")
        assert "heraldsim.tomography" in modules
        optics = {f"heraldsim.{name}" for name in ("detection", "source", "experiments", "cli")}
        assert not modules & optics
